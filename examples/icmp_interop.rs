//! The §6.2 end-to-end experiment: generate ICMP code from RFC 792, plug it
//! into the virtual network, and interoperate with the simulated `ping`,
//! `traceroute` and `tcpdump` tools (Appendix A scenarios).  Exits nonzero
//! if any experiment fails.
//!
//! ```sh
//! cargo run --example icmp_interop
//! ```

use std::process::ExitCode;

use sage_repro::core::{generate_icmp_program, icmp_end_to_end};

fn main() -> ExitCode {
    println!("generating ICMP implementation from the RFC 792 corpus...\n");
    let program = generate_icmp_program();

    println!("generated header structs: {}", program.structs.len());
    println!("generated functions:");
    for f in &program.functions {
        println!("  {} ({} statements)", f.name, f.stmt_count());
    }

    println!("\n--- generated C-like source (excerpt) ---");
    if let Some(echo) = program.function("echo_or_echo_reply") {
        println!("{}", echo.to_c());
    }

    println!("--- end-to-end interoperation ---");
    let result = icmp_end_to_end(&program);
    for (scenario, ok) in &result.ping_results {
        println!("  {scenario:<28} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "  traceroute                   {}",
        if result.traceroute_ok { "ok" } else { "FAILED" }
    );
    println!(
        "  tcpdump clean ({} packets)    {}",
        result.packets_checked,
        if result.tcpdump_clean { "ok" } else { "FAILED" }
    );
    if result.all_ok() {
        println!(
            "\noverall: generated code interoperates correctly with the simulated Linux tools"
        );
        ExitCode::SUCCESS
    } else {
        println!("\noverall: FAILURE — see above");
        ExitCode::FAILURE
    }
}
