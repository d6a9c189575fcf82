//! The §6.4 BFD study end to end: generate the RFC 5880 §6.8.6 reception
//! procedure from the state-management corpus, then let two generated
//! endpoints bring a session up (Down → Init → Up) while the hand-written
//! reference pair does the same, and compare the state traces.  Exits
//! nonzero if the generated session fails a check or diverges.
//!
//! ```sh
//! cargo run --example bfd_session
//! ```

use std::process::ExitCode;

use sage_repro::core::programs::generate_bfd_program;
use sage_repro::interp::{generated_scenarios, ResponderRegistry};
use sage_repro::netsim::scenario::{reference_scenarios, run_scenario, ScenarioRun};

/// The endpoints' `bfd_state=` notes, in trace order.
fn state_trace(run: &ScenarioRun) -> Vec<String> {
    run.trace
        .notes()
        .into_iter()
        .filter(|(_, note)| note.starts_with("bfd_state="))
        .map(|(node, note)| format!("{node} {}", note.trim_start_matches("bfd_state=")))
        .collect()
}

fn main() -> ExitCode {
    println!("generating BFD reception code from the RFC 5880 §6.8.6 corpus...\n");
    let program = generate_bfd_program();

    println!("--- generated C-like source ---");
    if let Some(f) = program.function("reception") {
        println!("{}", f.to_c());
    }

    println!("--- session bring-up: generated endpoints ---");
    let mut registry = ResponderRegistry::new();
    registry.register("bfd", program);
    let scenarios = generated_scenarios(&registry);
    let scenario = scenarios.find("bfd/generated").expect("bfd registered");
    let generated = run_scenario(scenario.as_ref()).expect("Appendix A has two hosts");
    for state in state_trace(&generated) {
        println!("  {state}");
    }
    for (check, ok) in &generated.outcome.checks {
        println!("  {check:<16} {}", if *ok { "ok" } else { "FAILED" });
    }

    println!("\n--- session bring-up: reference endpoints ---");
    let references = reference_scenarios();
    let scenario = references.find("bfd/reference").expect("registered");
    let reference = run_scenario(scenario.as_ref()).expect("Appendix A has two hosts");
    println!("  reference state trace: {:?}", state_trace(&reference));

    if generated.ok() && state_trace(&generated) == state_trace(&reference) {
        println!(
            "\noverall: generated BFD code matches the reference bring-up, Down -> Init -> Up"
        );
        ExitCode::SUCCESS
    } else {
        println!("\noverall: FAILURE — traces diverged or a check failed");
        ExitCode::FAILURE
    }
}
