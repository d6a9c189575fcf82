//! Golden snapshot tests for the evaluation harness: the rendered Tables
//! 2–11 and Figures 5–6 text output, and the C text and bytecode lowering of
//! the four generated programs, are committed under `tests/golden/` and
//! diffed against the live output, so a report or generated-code regression
//! fails tier-1 immediately.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports` — then review the diff.

use sage_bench as render;
use sage_repro::core::programs::{generate_program, lowering_summary};
use sage_repro::spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A generated program's C text followed by its bytecode lowering
/// (functions/instructions/slots/widest register window).
fn program_snapshot(protocol: Protocol) -> String {
    let lowering = match lowering_summary(protocol) {
        Ok(s) => format!(
            "{}/{}/{}/{}",
            s.functions, s.instructions, s.slots, s.max_regs
        ),
        Err(e) => format!("refused: {e}"),
    };
    format!(
        "{}// lowering (functions/instructions/slots/max_regs): {lowering}\n",
        generate_program(protocol).to_c()
    )
}

fn snapshots() -> Vec<(&'static str, String)> {
    vec![
        ("table02", render::render_table2()),
        ("table03", render::render_table3()),
        ("table04", render::render_table4()),
        ("table05", render::render_table5()),
        ("table06", render::render_table6()),
        ("table07", render::render_table7()),
        ("table08", render::render_table8()),
        ("table09", render::render_table9()),
        ("table10", render::render_table10()),
        ("table11", render::render_table11()),
        ("lexicon_counts", render::render_lexicon_counts()),
        ("figure5a_icmp", render::render_figure5(Protocol::Icmp, "a")),
        ("figure5b_igmp", render::render_figure5(Protocol::Igmp, "b")),
        ("figure5c_ntp", render::render_figure5(Protocol::Ntp, "c")),
        ("figure5d_bfd", render::render_figure5(Protocol::Bfd, "d")),
        ("figure6", render::render_figure6()),
        (
            "disambiguation_summary",
            render::render_disambiguation_summary(),
        ),
        ("program_icmp", program_snapshot(Protocol::Icmp)),
        ("program_igmp", program_snapshot(Protocol::Igmp)),
        ("program_ntp", program_snapshot(Protocol::Ntp)),
        ("program_bfd", program_snapshot(Protocol::Bfd)),
    ]
}

#[test]
fn evaluation_reports_match_committed_goldens() {
    let dir = golden_dir();
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    if update {
        fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut mismatches = Vec::new();
    for (name, text) in snapshots() {
        assert!(
            text.lines().count() >= 3,
            "{name} rendered suspiciously short:\n{text}"
        );
        let path = dir.join(format!("{name}.txt"));
        if update {
            fs::write(&path, &text).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("missing golden {name}; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_reports")
        });
        if text != expected {
            mismatches.push(format!(
                "--- {name} ---\nexpected:\n{expected}\nactual:\n{text}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (UPDATE_GOLDEN=1 to refresh after review):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn goldens_directory_has_no_orphans() {
    // Every committed golden corresponds to a live snapshot, so renames
    // cannot silently leave stale files behind.
    let known: Vec<String> = snapshots()
        .iter()
        .map(|(n, _)| format!("{n}.txt"))
        .collect();
    for entry in fs::read_dir(golden_dir()).expect("golden dir exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            known.contains(&name),
            "orphaned golden file {name}; remove it or add a snapshot"
        );
    }
}
