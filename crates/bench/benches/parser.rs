//! Micro-benchmarks for the interned CKY chart parser.
//!
//! `interned_workspace` is the production hot path: one recycled
//! [`ParserWorkspace`] (cloned arenas, packed chart, memoized lexicon view)
//! across the whole ICMP corpus, and `interned_fresh` pays the workspace
//! construction per sentence (the `parse_sentence` convenience entry).
//! The committed `BENCH_parser.json` baseline holds both.
//!
//! The `parser_dedup` group is the regression guard for the old quadratic
//! `Vec::contains` per-cell deduplication: it parses the longest corpus
//! sentence with `max_items_per_cell` raised well past the default.  With
//! hashed per-cell dedup, time grows roughly with the item count; with the
//! old linear scan it grew with its square.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sage_ccg::{parse_sentence, Lexicon, ParserConfig, ParserWorkspace};
use sage_nlp::{ChunkerConfig, TermDictionary};
use sage_spec::corpus::Protocol;

fn icmp_texts() -> Vec<String> {
    Protocol::Icmp
        .document()
        .sentences()
        .into_iter()
        .map(|s| s.text)
        .filter(|t| !t.trim().is_empty())
        .collect()
}

/// The longest sentence of the evaluation corpora (by length) — the worst
/// case for chart-cell population.
fn longest_sentence() -> String {
    let mut texts = icmp_texts();
    for protocol in [Protocol::Igmp, Protocol::Ntp] {
        texts.extend(protocol.document().sentences().into_iter().map(|s| s.text));
    }
    texts.extend(
        sage_spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES
            .iter()
            .map(|s| (*s).to_string()),
    );
    texts
        .into_iter()
        .max_by_key(String::len)
        .expect("corpora are non-empty")
}

fn bench_engines(c: &mut Criterion) {
    let lexicon = Lexicon::bfd();
    let dict = TermDictionary::networking();
    let texts = icmp_texts();
    let mut group = c.benchmark_group("parser");
    group.sample_size(10);
    group.bench_function("interned_workspace/icmp_corpus", |b| {
        let mut ws = ParserWorkspace::new(&lexicon);
        b.iter(|| {
            texts
                .iter()
                .map(|t| {
                    ws.parse_sentence(t, &dict, ChunkerConfig::default(), ParserConfig::default())
                        .lf_count()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("interned_fresh/icmp_corpus", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|t| {
                    parse_sentence(
                        t,
                        &lexicon,
                        &dict,
                        ChunkerConfig::default(),
                        ParserConfig::default(),
                    )
                    .lf_count()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_dedup_scaling(c: &mut Criterion) {
    let lexicon = Lexicon::bfd();
    let dict = TermDictionary::networking();
    let sentence = longest_sentence();
    let mut group = c.benchmark_group("parser_dedup");
    for cap in [48usize, 192, 768] {
        group.bench_with_input(
            BenchmarkId::new("longest_sentence_cap", cap),
            &cap,
            |b, cap| {
                let config = ParserConfig {
                    max_items_per_cell: *cap,
                    ..ParserConfig::default()
                };
                let mut ws = ParserWorkspace::new(&lexicon);
                b.iter(|| {
                    ws.parse_sentence(&sentence, &dict, ChunkerConfig::default(), config)
                        .chart_items
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_dedup_scaling);
criterion_main!(benches);
