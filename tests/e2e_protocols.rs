//! End-to-end generated-code execution for the three generality protocols:
//! pipeline → program → interpreter → discrete-event kernel, with every
//! originated packet decoded clean (the §6.3/§6.4 analogue of
//! `tests/e2e_icmp.rs`, run as [`Scenario`]s on the simulation kernel).
//!
//! [`Scenario`]: sage_repro::netsim::Scenario

use sage_repro::core::evaluation;
use sage_repro::core::programs::generate_program;
use sage_repro::interp::{generated_scenarios, ExecMode, ResponderRegistry};
use sage_repro::netsim::headers::ntp;
use sage_repro::netsim::scenario::{run_scenario, NtpScenario, ScenarioRun};
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::spec::corpus::Protocol;

fn registry() -> ResponderRegistry {
    let mut registry = ResponderRegistry::new();
    for protocol in Protocol::all() {
        registry.register(protocol.name(), generate_program(protocol));
    }
    registry
}

/// Run the named generated-program scenario on the kernel, asserting every
/// check passed, and return the run for further inspection.
fn run_generated(name: &str) -> ScenarioRun {
    let scenarios = generated_scenarios(&registry());
    let scenario = scenarios
        .find(name)
        .unwrap_or_else(|| panic!("scenario {name} not registered"));
    let run = run_scenario(scenario.as_ref()).expect("scenario binds");
    assert!(run.ok(), "{name} failed: {:?}", run.outcome.failures());
    run
}

/// Every packet the scenario put on the wire decodes clean in the tcpdump
/// substitute and mentions `expect` in its summary line.
fn assert_packets_clean(run: &ScenarioRun, expect: &str) {
    let packets = run.trace.originated_packets();
    assert!(!packets.is_empty(), "{} originated nothing", run.scenario);
    for packet in &packets {
        let decoded = decode_packet(packet);
        assert!(
            decoded.clean(),
            "{}: {:?}",
            decoded.summary,
            decoded.warnings
        );
        assert!(
            decoded.summary.contains(expect),
            "summary {:?} lacks {expect}",
            decoded.summary
        );
    }
}

#[test]
fn registry_holds_all_four_generated_programs() {
    let registry = registry();
    assert_eq!(registry.protocols(), vec!["bfd", "icmp", "igmp", "ntp"]);
    for protocol in Protocol::all() {
        let program = registry.program(protocol.name()).expect("registered");
        assert!(!program.functions.is_empty(), "{}", protocol.name());
    }
}

#[test]
fn generated_igmp_host_answers_queries_end_to_end() {
    let run = run_generated("igmp/generated");
    assert_packets_clean(&run, "IGMP");
}

#[test]
fn generated_ntp_code_drives_the_timeout_exchange_end_to_end() {
    let run = run_generated("ntp/generated");
    assert_packets_clean(&run, "UDP");

    // Below the threshold — or in server mode — the generated Table 11 rule
    // must not fire: the client scenario stays quiet on the kernel too.
    let (policy, server) = registry()
        .responders(ExecMode::Vm)
        .ntp
        .expect("ntp program");
    for (case, peer) in [
        (
            "timer below threshold",
            ntp::PeerVariables {
                timer: 10,
                threshold: 64,
                mode: ntp::mode::CLIENT,
            },
        ),
        (
            "server mode",
            ntp::PeerVariables {
                timer: 64,
                threshold: 64,
                mode: ntp::mode::SERVER,
            },
        ),
    ] {
        let quiet = NtpScenario::quiet("ntp/generated-quiet", policy.clone(), server.clone(), peer);
        let run = run_scenario(&quiet).unwrap();
        assert!(run.ok(), "{case}: {:?}", run.outcome.failures());
        assert_eq!(run.originated(), 0, "{case}: client must stay silent");
    }
}

#[test]
fn generated_bfd_code_brings_the_session_up_end_to_end() {
    let run = run_generated("bfd/generated");
    assert_packets_clean(&run, "UDP");

    // The responder endpoint (bound on the last host, "peer") walks the
    // three-way handshake: Down on creation, then Init and Up as the
    // initiator's packets arrive.
    let peer_states: Vec<&str> = run
        .trace
        .notes()
        .into_iter()
        .filter(|(node, text)| *node == "peer" && text.starts_with("bfd_state="))
        .map(|(_, text)| text)
        .collect();
    assert_eq!(
        peer_states,
        vec!["bfd_state=Init", "bfd_state=Up"],
        "peer must walk the three-way handshake"
    );
}

#[test]
fn end_to_end_summary_covers_every_protocol_with_clean_packets() {
    let rows = evaluation::end_to_end_summary();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(row.ok, "{row:?}");
        assert!(row.packets >= 2, "{row:?}");
    }
}
