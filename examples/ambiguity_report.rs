//! Ambiguity discovery (§6.5): run the pipeline over the ICMP corpus and
//! report which sentences SAGE flags for the spec author — the sentences
//! with zero logical forms and those still ambiguous after winnowing.
//!
//! ```sh
//! cargo run --example ambiguity_report
//! ```

use sage_repro::core::pipeline::{Sage, SentenceStatus};
use sage_repro::spec::corpus::Protocol;

fn main() {
    let sage = Sage::default();
    let doc = Protocol::Icmp.document();
    let report = sage.analyze_document(&doc);

    println!(
        "analysed {} sentences from RFC {} ({})\n",
        report.reports.len(),
        doc.rfc_number,
        doc.protocol
    );
    println!(
        "resolved automatically : {}",
        report.count(SentenceStatus::Resolved)
    );
    println!(
        "zero logical forms     : {}",
        report.count(SentenceStatus::ZeroLf)
    );
    println!(
        "still ambiguous        : {}",
        report.count(SentenceStatus::Ambiguous)
    );

    println!("\n--- sentences needing a human rewrite (ambiguous after winnowing) ---");
    for a in report
        .analyses()
        .filter(|a| a.status == SentenceStatus::Ambiguous)
    {
        println!(
            "\n[{} | field: {}]\n  {}",
            a.sentence.section,
            a.sentence.field.as_deref().unwrap_or("-"),
            a.sentence.text
        );
        println!(
            "  {} interpretations remain; comparing them locates the ambiguity:",
            a.trace.survivors.len()
        );
        for lf in a.trace.survivors.iter().take(3) {
            println!("    {lf}");
        }
    }

    println!("\n--- sentences the parser could not interpret (0 LFs) ---");
    for a in report
        .analyses()
        .filter(|a| a.status == SentenceStatus::ZeroLf)
        .take(10)
    {
        println!("  [{}] {}", a.sentence.section, a.sentence.text);
    }

    println!("\nThe corresponding human rewrites used for the end-to-end run:");
    for (original, rewritten) in sage_repro::spec::corpus::icmp::REWRITTEN_SENTENCES {
        println!("\n  original : {original}");
        println!("  rewritten: {rewritten}");
    }
}
