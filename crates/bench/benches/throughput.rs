//! Corpus-throughput benchmarks for the batched pipeline engine.
//!
//! `sequential_single_sentence_loop` is the pre-batch baseline: one
//! [`Sage::analyze_sentence`] call per sentence, each on a fresh workspace,
//! so the check families are rebuilt and the lexicon is probed uncached
//! every time.  The `batch_workers/*` entries drive the same
//! ICMP corpus through [`BatchPipeline`] with a shared read-only lexicon and
//! per-worker memoized workspaces (symbol-keyed lexicon cache, parse memo,
//! hash-consed LF arena, pre-built winnower), built afresh on every run.
//! The committed `BENCH_batch.json` baseline records the batch engine
//! beating the sequential loop, and holds every row of this file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sage_core::batch::{BatchItem, BatchPipeline};
use sage_core::pipeline::{Sage, SentenceStatus};
use sage_spec::corpus::Protocol;

fn bench_icmp_throughput(c: &mut Criterion) {
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.bench_function("sequential_single_sentence_loop", |b| {
        b.iter(|| {
            items
                .iter()
                .map(|it| sage.analyze_sentence(&it.sentence, it.context.clone()))
                .filter(|a| a.status == SentenceStatus::Resolved)
                .count()
        })
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("batch_workers", workers),
            &workers,
            |b, w| {
                let pipeline = BatchPipeline::new(&sage).with_workers(*w);
                b.iter(|| pipeline.run(&items).count(SentenceStatus::Resolved))
            },
        );
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // Isolates the memoization win from the parallelism win: one worker,
    // one long-lived workspace, sequential order.
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    let mut group = c.benchmark_group("workspace");
    group.sample_size(10);
    group.bench_function("reused_workspace_loop", |b| {
        b.iter(|| {
            let mut ws = sage.workspace();
            items
                .iter()
                .map(|it| sage.analyze_sentence_in(&it.sentence, it.context.clone(), &mut ws))
                .filter(|a| a.status == SentenceStatus::Resolved)
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_icmp_throughput, bench_workspace_reuse);
criterion_main!(benches);
