//! Determinism guarantees of the batched pipeline engine: the merged report
//! must be byte-identical whether the ICMP corpus is processed by 1, 2 or 8
//! workers, and must agree with the sequential single-sentence loop.

use sage_repro::core::batch::{BatchItem, BatchPipeline};
use sage_repro::core::pipeline::{Sage, SentenceAnalysis, SentenceStatus};
use sage_repro::spec::corpus::Protocol;

/// Each item through `Sage::analyze_sentence`, on a fresh workspace of its
/// own: an oracle that shares no parse memo, arena or verdict with the
/// batch's workspaces.
fn per_sentence(sage: &Sage, items: &[BatchItem]) -> Vec<SentenceAnalysis> {
    items
        .iter()
        .map(|item| sage.analyze_sentence(&item.sentence, item.context.clone()))
        .collect()
}

#[test]
fn icmp_batch_reports_are_byte_identical_across_worker_counts() {
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    let rendered: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            BatchPipeline::new(&sage)
                .with_workers(w)
                .run(&items)
                .render()
        })
        .collect();
    assert_eq!(rendered[0], rendered[1], "1 vs 2 workers diverged");
    assert_eq!(rendered[0], rendered[2], "1 vs 8 workers diverged");
    // The report is substantial, not vacuous.
    assert!(rendered[0].lines().count() > items.len());
}

#[test]
fn batch_report_agrees_with_sequential_pipeline() {
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    let sequential = per_sentence(&sage, &items);
    let batch = BatchPipeline::new(&sage).with_workers(8).run(&items);
    assert_eq!(batch.reports.len(), sequential.len());
    assert_eq!(
        batch.count(SentenceStatus::Resolved),
        sequential
            .iter()
            .filter(|a| a.status == SentenceStatus::Resolved)
            .count()
    );
    assert_eq!(batch.analyses().cloned().collect::<Vec<_>>(), sequential);
}

#[test]
fn mixed_four_protocol_batch_is_byte_identical_across_worker_counts() {
    // The four corpora as one mixed batch: ICMP + IGMP + NTP documents plus
    // the BFD state-management sentences, all under the shared lexicon.
    let sage = Sage::default();
    let items = BatchItem::mixed_corpus();
    assert!(items.len() > 100, "mixed corpus too small: {}", items.len());
    let rendered: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            BatchPipeline::new(&sage)
                .with_workers(w)
                .run(&items)
                .render()
        })
        .collect();
    assert_eq!(rendered[0], rendered[1], "1 vs 2 workers diverged");
    assert_eq!(rendered[0], rendered[2], "1 vs 8 workers diverged");
    // The mixed batch agrees with every sentence analysed on its own.
    let batch = BatchPipeline::new(&sage).with_workers(4).run(&items);
    assert_eq!(
        batch.analyses().cloned().collect::<Vec<_>>(),
        per_sentence(&sage, &items)
    );
}

#[test]
fn oversubscribed_worker_counts_are_capped_and_byte_identical() {
    // Requesting far more workers than the machine has cores must neither
    // change the report (merging is by corpus index) nor actually spawn the
    // requested threads: the effective count is capped at the available
    // parallelism, which is what fixed the 1-worker-faster-than-8 scaling
    // regression on single-core containers.
    let sage = Sage::default();
    let items = BatchItem::from_document(&Protocol::Icmp.document());
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let baseline = BatchPipeline::new(&sage)
        .with_workers(1)
        .run(&items)
        .render();
    for requested in [2usize, 8, 64, 1024] {
        let pipeline = BatchPipeline::new(&sage).with_workers(requested);
        assert!(
            pipeline.effective_workers(items.len()) <= avail,
            "{requested} workers must cap at the {avail} available cores"
        );
        assert!(pipeline.effective_workers(items.len()) <= requested);
        assert_eq!(
            pipeline.run(&items).render(),
            baseline,
            "report at {requested} requested workers diverged from 1 worker"
        );
    }
    // The default construction also respects the cap.
    assert!(BatchPipeline::new(&sage).effective_workers(items.len()) <= avail);
}

#[test]
fn repeated_runs_are_byte_identical() {
    let sage = Sage::default();
    let items = BatchItem::from_sentences(
        "BFD",
        sage_repro::spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES,
    );
    let pipeline = BatchPipeline::new(&sage).with_workers(3);
    let a = pipeline.run(&items).render();
    let b = pipeline.run(&items).render();
    assert_eq!(a, b);
}
