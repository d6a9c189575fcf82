//! Bootstrap smoke test: every crate re-exported by the `sage_repro`
//! meta-crate must be reachable through it, and one cheap end-to-end
//! pipeline call must work. This guards the workspace wiring itself — if a
//! member manifest or re-export goes missing, this file stops compiling.

use sage_repro::ccg::{Lexicon, ParserConfig};
use sage_repro::codegen::handlers::generate_stmts;
use sage_repro::core::pipeline::{Sage, SageConfig, SentenceStatus};
use sage_repro::disambig::winnow;
use sage_repro::interp::GeneratedResponder;
use sage_repro::logic::parse_lf;
use sage_repro::netsim::headers::icmp;
use sage_repro::nlp::{ChunkerConfig, TermDictionary};
use sage_repro::spec::context::ContextDict;
use sage_repro::spec::document::{Block, Document, Section};

/// Touch one symbol from each re-exported crate so a broken re-export is a
/// compile error, not a runtime surprise.
#[test]
fn every_reexported_crate_is_reachable() {
    let _ = Lexicon::icmp();
    let _ = ParserConfig::default();
    let _ = ChunkerConfig::default();
    let _ = TermDictionary::networking();
    let lf = parse_lf("@Is('type', '3')").expect("logic crate parses a static LF");
    let trace = winnow(std::slice::from_ref(&lf));
    assert!(
        !trace.survivors.is_empty(),
        "winnowing a single LF keeps it"
    );
    let stmts = generate_stmts(&lf, &ContextDict::default());
    assert!(stmts.is_ok(), "codegen handles the Table 4 LF");
    let echo = icmp::build_echo(false, 1, 1, b"x");
    assert!(icmp::checksum_ok(&echo), "netsim builds a verifying echo");
    let _ = GeneratedResponder::new(sage_repro::core::generate_icmp_program());
}

/// The README's "protocol-generic path" snippet claims it cannot rot
/// because it doubles as the doctest on `sage_repro` — keep the two copies
/// in sync: every line of the README's `rust` fence must appear (with the
/// `//!` prefix stripped) in the `src/lib.rs` doctest.
#[test]
fn readme_snippet_matches_the_lib_doctest() {
    let root = env!("CARGO_MANIFEST_DIR");
    let readme = std::fs::read_to_string(format!("{root}/README.md")).expect("README.md");
    let lib = std::fs::read_to_string(format!("{root}/src/lib.rs")).expect("src/lib.rs");

    let fence = readme
        .split("```rust\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("README has a rust fence");
    let doctest_lines: Vec<&str> = lib
        .lines()
        .map(|l| l.trim_start_matches("//!").trim())
        .collect();
    for line in fence.lines().map(str::trim).filter(|l| !l.is_empty()) {
        assert!(
            doctest_lines.contains(&line),
            "README snippet line not in the src/lib.rs doctest: {line}"
        );
    }
}

/// One cheap end-to-end `Sage::analyze_document` call over a single
/// sentence, exercising nlp -> ccg -> logic -> disambig in one pass.
#[test]
fn analyze_document_end_to_end_on_one_sentence() {
    let sage = Sage::new(SageConfig::default());
    let doc = Document {
        protocol: "ICMP".to_string(),
        rfc_number: 792,
        sections: vec![Section {
            title: "Echo or Echo Reply Message".to_string(),
            blocks: vec![Block::Paragraph {
                text: "The checksum is zero.".to_string(),
                indent: 0,
            }],
        }],
    };
    let report = sage.analyze_document(&doc);
    assert_eq!(report.reports.len(), 1);
    let analysis = &report.reports[0].analysis;
    assert_eq!(
        analysis.status,
        SentenceStatus::Resolved,
        "a simple declarative sentence must resolve to one LF; trace: {:?}",
        analysis.trace.counts
    );
}
