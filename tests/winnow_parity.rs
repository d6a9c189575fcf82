//! Differential parity suite for the id-native memoized check engine.
//!
//! The disambiguation layer was rewritten to run every check family over
//! interned [`LfId`]s with per-subterm verdicts memoized in the arena
//! (`sage_disambig::IdChecks`, `Winnower::winnow_ids`); the boxed closure
//! checks survive as the behavioural oracle.  These tests drive the **base
//! logical-form sets of every sentence of all four RFC corpora** through
//! both engines and assert they agree — stage counts, survivor trees, and
//! survivor sets as canonical arena ids — and that a warm memo (one arena
//! reused across sentences, corpora and repeat passes) never changes a
//! verdict.  On generated LF sets, the properties below check the whole
//! cascade, each family applied alone and the Figure-6 statistics.

use proptest::prelude::*;
use sage_repro::core::pipeline::Sage;
use sage_repro::disambig::stats::{
    all_check_effects, all_check_effects_interned, apply_single_family,
    apply_single_family_interned,
};
use sage_repro::disambig::{IdChecks, WinnowStage, Winnower};
use sage_repro::logic::{Lf, LfArena, LfId, PredName};
use sage_repro::spec::corpus::Protocol;
use std::collections::BTreeSet;

/// The base LF set of every parsed sentence in the evaluation: the
/// ICMP/IGMP/NTP documents plus the BFD state-management list.
fn corpus_base_sets() -> Vec<Vec<Lf>> {
    let sage = Sage::default();
    let mut sets = Vec::new();
    for protocol in Protocol::all() {
        let report = match protocol {
            Protocol::Bfd => sage.analyze_sentences(
                "BFD",
                sage_repro::spec::corpus::bfd::STATE_MANAGEMENT_SENTENCES,
            ),
            _ => sage.analyze_document(&protocol.document()),
        };
        sets.extend(
            report
                .reports
                .into_iter()
                .map(|r| r.analysis.base_lfs)
                .filter(|b| !b.is_empty()),
        );
    }
    sets
}

fn canonical_ids(forms: &[Lf], arena: &mut LfArena) -> BTreeSet<LfId> {
    forms
        .iter()
        .map(|lf| {
            let id = arena.intern_lf(lf);
            arena.canonical(id)
        })
        .collect()
}

#[test]
fn interned_winnow_matches_boxed_over_all_corpora() {
    let winnower = Winnower::new();
    let mut arena = LfArena::new();
    let sets = corpus_base_sets();
    assert!(
        sets.len() > 50,
        "expected the four corpora to contribute >50 non-empty base sets, got {}",
        sets.len()
    );
    for (i, base) in sets.iter().enumerate() {
        let boxed = winnower.winnow(base);
        let interned = winnower.winnow_interned(base, &mut arena);
        // Strict layer: identical stage counts and survivor trees.
        assert_eq!(interned, boxed, "set {i} diverged");
        // Representation layer: identical survivor sets as canonical ids.
        assert_eq!(
            canonical_ids(&interned.survivors, &mut arena),
            canonical_ids(&boxed.survivors, &mut arena),
            "set {i}: canonical survivor ids diverged"
        );
    }
    let (hits, misses) = arena.verdict_stats();
    assert!(
        hits > misses,
        "verdict memo should dominate over a corpus: {hits} hits / {misses} misses"
    );
}

#[test]
fn warm_memo_reproduces_cold_verdicts_over_all_corpora() {
    // Winnow the whole evaluation twice through one arena; the second pass
    // (memo fully warm) must reproduce the first bit-for-bit, and per-set
    // warm traces must equal traces from a fresh arena.
    let winnower = Winnower::new();
    let mut warm = LfArena::new();
    let sets = corpus_base_sets();
    let first: Vec<_> = sets
        .iter()
        .map(|b| winnower.winnow_interned(b, &mut warm))
        .collect();
    let second: Vec<_> = sets
        .iter()
        .map(|b| winnower.winnow_interned(b, &mut warm))
        .collect();
    assert_eq!(first, second, "warm pass diverged from cold pass");
    for (i, base) in sets.iter().enumerate() {
        let mut fresh = LfArena::new();
        assert_eq!(
            winnower.winnow_interned(base, &mut fresh),
            first[i],
            "set {i}: fresh-arena trace diverged from memoized trace"
        );
    }
}

#[test]
fn winnow_ids_survivors_resolve_to_boxed_survivors() {
    let winnower = Winnower::new();
    let mut arena = LfArena::new();
    for base in corpus_base_sets() {
        let ids: Vec<LfId> = base.iter().map(|lf| arena.intern_lf(lf)).collect();
        let id_trace = winnower.winnow_ids(&ids, &mut arena);
        let boxed = winnower.winnow(&base);
        assert_eq!(id_trace.counts, boxed.counts);
        let resolved: Vec<Lf> = id_trace
            .survivors
            .iter()
            .map(|&id| arena.resolve(id))
            .collect();
        assert_eq!(resolved, boxed.survivors);
    }
}

#[test]
fn interned_figure6_statistics_match_boxed_over_all_corpora() {
    let sets = corpus_base_sets();
    let mut arena = LfArena::new();
    assert_eq!(
        all_check_effects_interned(&sets, &mut arena),
        all_check_effects(&sets)
    );
}

/// Strategy generating small random logical forms over the check engine's
/// vocabulary (assignments, conditionals, conjunctions, actions, advice,
/// attribute chains and numeric leaves — enough to reach every family).
fn arb_lf() -> impl Strategy<Value = Lf> {
    let leaf = prop_oneof![
        "[a-z_]{1,10}".prop_map(Lf::atom),
        Just(Lf::atom("checksum")),
        Just(Lf::atom("compute")),
        (0i64..16).prop_map(Lf::num),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Lf::is(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Lf::if_then(a, b)),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Lf::and),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Lf::Pred(PredName::Of, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Lf::Pred(PredName::AdvBefore, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Lf::Pred(PredName::Action, vec![a, b])),
            inner.clone().prop_map(|a| Lf::Pred(PredName::May, vec![a])),
        ]
    })
}

proptest! {
    /// Memoized verdicts equal fresh-arena verdicts under workspace reuse:
    /// winnowing a sequence of random LF sets through one long-lived arena
    /// (memos accumulating across sets, as in a recycled batch workspace)
    /// must produce exactly the traces a fresh arena per set produces — and
    /// both must match the boxed oracle.
    #[test]
    fn memoized_verdicts_equal_fresh_arena_verdicts(
        sets in prop::collection::vec(prop::collection::vec(arb_lf(), 1..6), 1..6)
    ) {
        let winnower = Winnower::new();
        let mut shared = LfArena::new();
        for base in &sets {
            let via_shared = winnower.winnow_interned(base, &mut shared);
            let mut fresh = LfArena::new();
            let via_fresh = winnower.winnow_interned(base, &mut fresh);
            prop_assert_eq!(&via_shared, &via_fresh, "shared-arena memo changed a verdict");
            let boxed = winnower.winnow(base);
            prop_assert_eq!(&via_shared, &boxed, "interned engine diverged from boxed oracle");
        }
    }

    /// The id-native Figure-6 statistics equal the boxed ones on random LF
    /// sets: each family applied alone, and the whole per-family table.
    #[test]
    fn interned_check_statistics_match_boxed_on_random_sets(
        sets in prop::collection::vec(prop::collection::vec(arb_lf(), 1..6), 1..6)
    ) {
        let checks = IdChecks::new();
        let mut arena = LfArena::new();
        for base in &sets {
            let ids: Vec<LfId> = base.iter().map(|lf| arena.intern_lf(lf)).collect();
            for stage in WinnowStage::ALL {
                let survivors: Vec<Lf> =
                    apply_single_family_interned(stage, &ids, &mut arena, &checks)
                        .into_iter()
                        .map(|id| arena.resolve(id))
                        .collect();
                prop_assert_eq!(
                    survivors,
                    apply_single_family(stage, base),
                    "{} diverged",
                    stage.label()
                );
            }
        }
        prop_assert_eq!(
            all_check_effects_interned(&sets, &mut arena),
            all_check_effects(&sets)
        );
    }
}
