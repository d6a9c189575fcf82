//! Exchange parity on the Appendix-A topology: for every protocol, the
//! reference and generated sessions originate identical packets, those
//! packets match `tests/traces/exchanges.txt` byte for byte, and the
//! generated sessions leave identical kernel traces on both execution
//! engines.
//!
//! To refresh the exchange golden after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test scenario_parity` — then review the diff.

use sage_repro::core::programs::generate_program;
use sage_repro::interp::{generated_scenarios, ExecMode, ResponderRegistry};
use sage_repro::netsim::headers::ipv4;
use sage_repro::netsim::net::{ReferenceResponder, Router};
use sage_repro::netsim::scenario::{reference_scenarios, run_scenario, ScenarioRegistry};
use sage_repro::spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;

fn registry() -> ResponderRegistry {
    let mut registry = ResponderRegistry::new();
    for protocol in Protocol::all() {
        registry.register(protocol.name(), generate_program(protocol));
    }
    registry
}

/// Run the named kernel scenario and return its originated packets.
fn kernel_packets(scenarios: &ScenarioRegistry, name: &str) -> Vec<Vec<u8>> {
    let scenario = scenarios
        .find(name)
        .unwrap_or_else(|| panic!("scenario {name} not registered"));
    let run = run_scenario(scenario.as_ref()).expect("scenario binds");
    assert!(run.ok(), "{name} failed: {:?}", run.outcome.failures());
    run.trace.originated_packets()
}

/// The packets each protocol's `<prefix>/reference` and `<prefix>/generated`
/// sessions originate on Appendix A: the two must agree (the §6.2–§6.4
/// interoperation claim restated at the wire level), and both must match
/// the golden, one `prefix index hex` line per packet.
#[test]
fn exchanges_match_the_committed_golden() {
    let reference = reference_scenarios();
    let generated = generated_scenarios(&registry());
    let mut lines = Vec::new();
    for prefix in ["ping", "igmp", "ntp", "bfd"] {
        let expected = kernel_packets(&reference, &format!("{prefix}/reference"));
        let actual = kernel_packets(&generated, &format!("{prefix}/generated"));
        assert_eq!(expected, actual, "{prefix}: generated exchange differs");
        for (i, packet) in expected.iter().enumerate() {
            let hex: String = packet.iter().map(|b| format!("{b:02x}")).collect();
            lines.push(format!("{prefix} {i} {hex}"));
        }
    }
    let text = lines.join("\n") + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces/exchanges.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(golden, text, "exchanges diverged from {}", path.display());
}

#[test]
fn kernel_traces_are_identical_on_both_execution_engines() {
    // The generated scenarios run on the bytecode VM by default; pinning
    // the full kernel trace (packets, delivery times, state notes) against
    // a tree-walker registry proves the engine swap is invisible to the
    // discrete-event kernel for every protocol.
    let registry = registry();
    let vm = registry.responders(ExecMode::Vm).scenarios("generated");
    let tree = registry
        .responders(ExecMode::TreeWalk)
        .scenarios("generated");
    let mut compared = 0;
    for scenario in vm.scenarios() {
        let name = scenario.name();
        let vm_run = run_scenario(scenario.as_ref()).expect("scenario binds");
        let tree_scenario = tree.find(name).expect("same scenario set");
        let tree_run = run_scenario(tree_scenario.as_ref()).expect("scenario binds");
        assert!(vm_run.ok(), "{name} failed on the VM");
        assert_eq!(
            vm_run.trace.render(),
            tree_run.trace.render(),
            "{name} trace diverged between engines"
        );
        compared += 1;
    }
    assert_eq!(compared, 4, "one scenario per protocol");

    // And the default registry is the VM one.
    let default_run = run_scenario(
        generated_scenarios(&registry)
            .find("ping/generated")
            .unwrap()
            .as_ref(),
    )
    .unwrap();
    let vm_run = run_scenario(vm.find("ping/generated").unwrap().as_ref()).unwrap();
    assert_eq!(default_run.trace.render(), vm_run.trace.render());
}

#[test]
fn ping_outcome_parity_between_kernel_and_legacy_driver() {
    use sage_repro::netsim::tools::ping::ping_once;
    let legacy = ping_once(
        &Router::appendix_a(),
        &mut ReferenceResponder,
        ipv4::addr(10, 0, 1, 100),
        ipv4::addr(10, 0, 1, 1),
        0x77,
        1,
        b"0123456789abcdef",
    );
    let scenarios = reference_scenarios();
    let run = run_scenario(scenarios.find("ping/reference").unwrap().as_ref()).unwrap();
    assert_eq!(legacy.success(), run.ok());
}
