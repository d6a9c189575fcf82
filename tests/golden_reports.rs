//! Golden snapshot tests for the evaluation harness: the rendered Tables
//! 2–11 and Figures 5–6 text output, the C text and bytecode lowering of
//! the four generated programs, and every corpus sentence's analysis, are
//! committed under `tests/golden/` and diffed against the live output, so a
//! report, analysis or generated-code regression fails tier-1 immediately.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports` — then review the diff.

use sage_bench as render;
use sage_repro::ccg::ParserConfig;
use sage_repro::core::batch::{BatchItem, BatchPipeline};
use sage_repro::core::pipeline::{Sage, SageConfig, SentenceAnalysis};
use sage_repro::core::programs::{generate_program, lowering_summary};
use sage_repro::nlp::ChunkerConfig;
use sage_repro::spec::corpus::Protocol;
use std::fmt::Write;
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The pipeline configurations the evaluation analyses the corpora under:
/// the default, the dictionary ablation (Tables 7 and 8) and the
/// NP-labelling ablation (Table 8).
fn analysis_configurations() -> [(&'static str, SageConfig); 3] {
    [
        ("default", SageConfig::default()),
        (
            "no-dictionary",
            SageConfig {
                chunker: ChunkerConfig {
                    use_dictionary: false,
                    use_np_labeling: true,
                },
                ..SageConfig::default()
            },
        ),
        (
            "no-np-labelling",
            SageConfig {
                chunker: ChunkerConfig {
                    use_dictionary: true,
                    use_np_labeling: false,
                },
                parser: ParserConfig {
                    unknown_nominals_as_np: false,
                    ..ParserConfig::default()
                },
                ..SageConfig::default()
            },
        ),
    ]
}

/// Each item through `Sage::analyze_sentence`, on a fresh workspace of its
/// own: an oracle that shares no parse memo, arena or verdict with the
/// batch pipeline's workspace.
fn per_sentence_analyses(sage: &Sage, items: &[BatchItem]) -> Vec<SentenceAnalysis> {
    items
        .iter()
        .map(|item| sage.analyze_sentence(&item.sentence, item.context.clone()))
        .collect()
}

/// One line per configuration × item of the mixed four-protocol corpus:
/// status, LF counts, whether the subject was supplied, the Figure-5 stage
/// counts, and FNV-1a hashes of the base LFs' and the survivors' `{:?}`
/// renderings.  Before rendering, each item analysed on its own by
/// `Sage::analyze_sentence` must agree with the batch pipeline.
fn analyses_snapshot() -> String {
    let items = BatchItem::mixed_corpus();
    let mut out = String::new();
    for (label, config) in analysis_configurations() {
        let sage = Sage::new(config);
        let batch = BatchPipeline::new(&sage).with_workers(1).run(&items);
        let sequential = per_sentence_analyses(&sage, &items);
        assert_eq!(
            batch.reports.len(),
            items.len(),
            "{label}: corpus sizes differ"
        );
        for ((item, report), analysis) in items.iter().zip(&batch.reports).zip(&sequential) {
            assert_eq!(
                analysis, &report.analysis,
                "{label}: per-sentence and batch analyses diverged on {:?}",
                item.sentence.text
            );
            writeln!(
                out,
                "{label} {} {} {:?} parser_lfs={} base={} subject={} counts={:?} {:016x} {:016x}",
                item.context.protocol,
                report.index,
                analysis.status,
                analysis.parser_lf_count,
                analysis.base_lf_count,
                analysis.subject_supplied,
                analysis.trace.counts,
                fnv1a(format!("{:?}", analysis.base_lfs).as_bytes()),
                fnv1a(format!("{:?}", analysis.trace.survivors).as_bytes()),
            )
            .expect("write to String");
        }
    }
    out
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
        ("analyses", analyses_snapshot()),
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
