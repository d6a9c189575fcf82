//! Parser-output golden for the interned CKY engine.
//!
//! Every sentence of all four RFC corpora, under four parser
//! configurations, plus six hand-picked sentences, is pinned in
//! `tests/parses/corpora.txt`: one line per parse, `config protocol index
//! lfs=<n> fragment=<b> items=<n> <hash>`, the hash being the FNV-1a of the
//! logical forms' `{:?}` rendering in order.  The golden was recorded while
//! the pre-refactor boxed engine still existed and agreed with the interned
//! one on every line, exactly and as canonical arena-id LF sets; it now
//! stands in for that engine as the parser's specification.
//!
//! To refresh after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test parser_parity` — then review the diff.

use sage_ccg::{Lexicon, ParserConfig, ParserWorkspace};
use sage_nlp::{ChunkerConfig, TermDictionary};
use sage_spec::corpus::Protocol;
use std::fs;
use std::path::PathBuf;

/// Every sentence of the evaluation: the ICMP/IGMP/NTP documents plus the
/// BFD state-management sentence list, labelled by protocol.
fn corpus_sentences() -> Vec<(&'static str, Vec<String>)> {
    let mut out = Vec::new();
    for protocol in Protocol::all() {
        let sentences: Vec<String> = match protocol {
            Protocol::Bfd => sage_spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            _ => protocol
                .document()
                .sentences()
                .into_iter()
                .map(|s| s.text)
                .collect(),
        };
        out.push((protocol.name(), sentences));
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/parses/corpora.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The parser configurations the golden pins, by label, with the lexicon
/// each parses with.
fn configurations() -> Vec<(&'static str, ParserConfig, Lexicon)> {
    let default = ParserConfig::default();
    vec![
        ("default", default, Lexicon::bfd()),
        (
            "no-fragments",
            ParserConfig {
                allow_fragments: false,
                ..default
            },
            Lexicon::bfd(),
        ),
        (
            "no-nominal-fallback",
            ParserConfig {
                unknown_nominals_as_np: false,
                ..default
            },
            Lexicon::bfd(),
        ),
        // A small beam exercises the cap/dedup interaction; the ICMP-only
        // lexicon exercises the unknown-phrase fallback paths.
        (
            "cap6-icmp",
            ParserConfig {
                max_items_per_cell: 6,
                ..default
            },
            Lexicon::icmp(),
        ),
    ]
}

/// Hand-picked sentences covering fragments, coordination, possessives and
/// a dotted state variable, parsed with the default configuration.
const HAND_SENTENCES: [&str; 6] = [
    "The checksum is zero.",
    "For computing the checksum, the checksum field should be zero.",
    "The checksum of the header of the message is zero.",
    "The source address and the destination address are reversed.",
    "If bfd.RemoteDemandMode is 1, the local system must cease the \
     periodic transmission of BFD Control packets.",
    "The internet header plus the first 64 bits of the original datagram's data",
];

#[test]
fn parses_match_the_committed_golden() {
    let dict = TermDictionary::networking();
    let mut lines = Vec::new();
    for (config_label, config, lexicon) in configurations() {
        let mut ws = ParserWorkspace::new(&lexicon);
        let mut inputs = corpus_sentences();
        if config_label == "default" {
            inputs.push(("hand", HAND_SENTENCES.map(String::from).to_vec()));
        }
        for (label, sentences) in inputs {
            for (index, text) in sentences.iter().enumerate() {
                let parse = ws.parse_sentence(text, &dict, ChunkerConfig::default(), config);
                lines.push(format!(
                    "{config_label} {label} {index} lfs={} fragment={} items={} {:016x}",
                    parse.lf_count(),
                    parse.from_fragment,
                    parse.chart_items,
                    fnv1a(format!("{:?}", parse.logical_forms).as_bytes())
                ));
            }
        }
    }
    assert!(
        lines.len() > 400,
        "expected four configurations of >100 sentences, got {} lines",
        lines.len()
    );

    let text = lines.join("\n") + "\n";
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    let diverged: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .take(10)
        .collect();
    assert!(
        diverged.is_empty() && golden.lines().count() == text.lines().count(),
        "parses diverged from {} ({} vs {} lines):\n{}",
        path.display(),
        golden.lines().count(),
        text.lines().count(),
        diverged.join("\n")
    );
}

#[test]
fn one_workspace_recycled_across_all_corpora_stays_deterministic() {
    // Parse the whole evaluation twice through one workspace; the second
    // pass (arenas warm, memo full) must reproduce the first bit-for-bit.
    let lexicon = Lexicon::bfd();
    let dict = TermDictionary::networking();
    let mut ws = ParserWorkspace::new(&lexicon);
    let config = ParserConfig::default();
    let mut first = Vec::new();
    for (_, sentences) in corpus_sentences() {
        for text in sentences {
            first.push(ws.parse_sentence(&text, &dict, ChunkerConfig::default(), config));
        }
    }
    let mut second = Vec::new();
    for (_, sentences) in corpus_sentences() {
        for text in sentences {
            second.push(ws.parse_sentence(&text, &dict, ChunkerConfig::default(), config));
        }
    }
    assert_eq!(first, second);
}
