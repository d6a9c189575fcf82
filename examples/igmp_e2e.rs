//! The §6.3 IGMP generality study end to end: generate host-side IGMP code
//! from the RFC 1112 Appendix I corpus, plug it into the virtual network,
//! and answer a multicast router's Host Membership Query with a report.
//! Exits nonzero if any check of the exchange fails.
//!
//! ```sh
//! cargo run --example igmp_e2e
//! ```

use std::process::ExitCode;

use sage_repro::core::programs::generate_igmp_program;
use sage_repro::interp::{generated_scenarios, ResponderRegistry};
use sage_repro::netsim::scenario::run_scenario;
use sage_repro::netsim::tcpdump::decode_packet;

fn main() -> ExitCode {
    println!("generating IGMP host code from the RFC 1112 Appendix I corpus...\n");
    let program = generate_igmp_program();

    println!("generated header structs: {}", program.structs.len());
    println!("generated functions:");
    for f in &program.functions {
        println!("  {} ({} statements)", f.name, f.stmt_count());
    }

    println!("\n--- generated C-like source ---");
    if let Some(f) = program.function("igmp") {
        println!("{}", f.to_c());
    }

    println!("--- membership query/report exchange (Appendix A subnet) ---");
    let mut registry = ResponderRegistry::new();
    registry.register("igmp", program);
    let scenarios = generated_scenarios(&registry);
    let scenario = scenarios.find("igmp/generated").expect("igmp registered");
    let run = run_scenario(scenario.as_ref()).expect("Appendix A has a router and a host");

    for (i, packet) in run.trace.originated_packets().iter().enumerate() {
        println!("  packet {i}: {}", decode_packet(packet).summary);
    }
    for (check, ok) in &run.outcome.checks {
        println!("  {check:<26} {}", if *ok { "ok" } else { "FAILED" });
    }
    if run.ok() {
        println!("\noverall: generated IGMP code interoperates with the membership query");
        ExitCode::SUCCESS
    } else {
        println!("\noverall: FAILURE — see above");
        ExitCode::FAILURE
    }
}
