//! BFD state management (§6.4): parse the RFC 5880 §6.8.6 reception
//! sentences, show the winnowing behaviour on long conditionals, and run
//! generated-style reception code against the BFD session substrate.
//!
//! ```sh
//! cargo run --example bfd_state
//! ```

use sage_repro::core::pipeline::{Sage, SentenceStatus};
use sage_repro::netsim::headers::bfd;
use sage_repro::spec::corpus::bfd as bfd_corpus;

fn main() {
    let sage = Sage::default();
    let report = sage.analyze_sentences("BFD", bfd_corpus::STATE_MANAGEMENT_SENTENCES);

    println!(
        "analysed {} BFD state-management sentences (RFC 5880 §6.8.6)\n",
        report.reports.len()
    );
    for a in report.analyses() {
        let marker = match a.status {
            SentenceStatus::Resolved => "resolved ",
            SentenceStatus::Ambiguous => "ambiguous",
            SentenceStatus::ZeroLf => "0 LFs    ",
            SentenceStatus::Skipped => "skipped  ",
        };
        let text: String = a.sentence.text.chars().take(78).collect();
        println!("  [{marker}] base LFs: {:>2}  {}", a.base_lf_count, text);
    }

    println!("\n--- Table 5: the challenging sentences and their rewrites ---");
    println!(
        "nested-code original : {}",
        bfd_corpus::TABLE5_NESTED_CODE.0
    );
    println!(
        "nested-code rewritten: {}",
        bfd_corpus::TABLE5_NESTED_CODE.1
    );
    println!("rephrasing original  : {}", bfd_corpus::TABLE5_REPHRASING.0);
    println!("rephrasing rewritten : {}", bfd_corpus::TABLE5_REPHRASING.1);

    println!("\n--- reference reception behaviour on the session substrate ---");
    let mut table = bfd::SessionTable::new();
    let discr = table.add(bfd::SessionVariables {
        session_state: bfd::SessionState::Up,
        ..Default::default()
    });
    let scenarios = [
        (
            "known session, demand mode",
            bfd::build_control_packet(bfd::SessionState::Up, 42, discr, 3, true),
        ),
        (
            "known session, no demand",
            bfd::build_control_packet(bfd::SessionState::Up, 43, discr, 3, false),
        ),
        (
            "unknown session",
            bfd::build_control_packet(bfd::SessionState::Up, 44, 999, 3, false),
        ),
        (
            "zero detect mult",
            bfd::build_control_packet(bfd::SessionState::Up, 45, discr, 0, false),
        ),
    ];
    for (label, pkt) in scenarios {
        let action = bfd::receive_control_packet(&mut table, &pkt);
        println!("  {label:<28} -> {action:?}");
    }
    let session = table.select(discr).expect("session exists");
    println!(
        "\nafter processing: remote discriminator = {}, periodic transmission active = {}",
        session.remote_discr, session.periodic_transmission_active
    );
}
