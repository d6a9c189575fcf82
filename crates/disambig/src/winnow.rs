//! Sequential winnowing of ambiguous logical forms (Figure 5).
//!
//! The winnower applies the check families in the paper's order —
//! Type → Argument ordering → Predicate ordering → Distributivity →
//! Associativity — and records how many logical forms survive after each
//! stage.  A family is skipped (conservatively) if applying it would remove
//! every remaining interpretation, since an empty interpretation set is
//! strictly less useful to the human in the loop than an ambiguous one.

use crate::checks::{
    argument_ordering_checks, distributed_assignment, distributed_assignment_interned,
    distributivity_checks, predicate_ordering_checks, type_checks, Check, IdChecks,
};
use sage_logic::graph::dedup_isomorphic;
use sage_logic::intern::{LfArena, LfId};
use sage_logic::Lf;
use std::collections::HashSet;

/// The stages of the winnowing pipeline, in application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinnowStage {
    /// The parser's raw output.
    Base,
    /// After the 32 type checks.
    Type,
    /// After the 7 argument-ordering checks.
    ArgumentOrdering,
    /// After the 4 predicate-ordering checks.
    PredicateOrdering,
    /// After the distributivity rule.
    Distributivity,
    /// After isomorphism-based associativity deduplication.
    Associativity,
}

impl WinnowStage {
    /// All stages in order (Figure 5's x-axis).
    pub const ALL: [WinnowStage; 6] = [
        WinnowStage::Base,
        WinnowStage::Type,
        WinnowStage::ArgumentOrdering,
        WinnowStage::PredicateOrdering,
        WinnowStage::Distributivity,
        WinnowStage::Associativity,
    ];

    /// Short label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            WinnowStage::Base => "Base",
            WinnowStage::Type => "Type",
            WinnowStage::ArgumentOrdering => "Arg. Order",
            WinnowStage::PredicateOrdering => "Pred. Order",
            WinnowStage::Distributivity => "Distrib.",
            WinnowStage::Associativity => "Assoc.",
        }
    }
}

/// A record of the winnowing of one sentence's logical forms.
#[derive(Debug, Clone, PartialEq)]
pub struct WinnowTrace {
    /// Number of logical forms surviving after each stage, in
    /// [`WinnowStage::ALL`] order (index 0 is the base count).
    pub counts: [usize; 6],
    /// The logical forms remaining at the end.
    pub survivors: Vec<Lf>,
}

/// A [`WinnowTrace`] whose survivors are still arena ids — the output of the
/// fully id-native [`Winnower::winnow_ids`] path, materialized into boxed
/// trees only when a caller needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdWinnowTrace {
    /// Number of logical forms surviving after each stage, in
    /// [`WinnowStage::ALL`] order.
    pub counts: [usize; 6],
    /// Ids of the forms remaining at the end, in kept order.
    pub survivors: Vec<LfId>,
}

/// The winnower: owns the check families so they are built once — the boxed
/// closures (the behavioural oracle) and their id-native compilation (the
/// engine the pipeline runs).
pub struct Winnower {
    type_checks: Vec<Check>,
    arg_order_checks: Vec<Check>,
    pred_order_checks: Vec<Check>,
    distrib_checks: Vec<Check>,
    id_checks: IdChecks,
}

impl Default for Winnower {
    fn default() -> Self {
        Winnower::new()
    }
}

impl Winnower {
    /// Build a winnower with the full ICMP check set.
    pub fn new() -> Winnower {
        Winnower {
            type_checks: type_checks(),
            arg_order_checks: argument_ordering_checks(),
            pred_order_checks: predicate_ordering_checks(),
            distrib_checks: distributivity_checks(),
            id_checks: IdChecks::new(),
        }
    }

    /// Apply a family of pass/fail checks, keeping LFs that pass them all.
    /// If every LF would be eliminated, the set is left unchanged.
    fn apply_family(checks: &[Check], forms: &[Lf]) -> Vec<Lf> {
        let kept: Vec<Lf> = forms
            .iter()
            .filter(|lf| checks.iter().all(|c| c.passes(lf)))
            .cloned()
            .collect();
        if kept.is_empty() {
            forms.to_vec()
        } else {
            kept
        }
    }

    /// Apply the distributivity preference: a distributed reading is dropped
    /// when its grouped equivalent is also present; if only the distributed
    /// reading exists, it is rewritten to the grouped form.
    fn apply_distributivity(&self, forms: &[Lf]) -> Vec<Lf> {
        let input: HashSet<&Lf> = forms.iter().collect();
        let mut emitted: HashSet<Lf> = HashSet::new();
        let mut out: Vec<Lf> = Vec::new();
        for lf in forms {
            if let Some(grouped) = distributed_assignment(lf) {
                // Prefer the grouped form; skip the distributed one if the
                // grouped form is (or will be) present.
                if input.contains(&grouped) || emitted.contains(&grouped) {
                    continue;
                }
                emitted.insert(grouped.clone());
                out.push(grouped);
            } else if !emitted.contains(lf) {
                emitted.insert(lf.clone());
                out.push(lf.clone());
            }
        }
        if out.is_empty() {
            forms.to_vec()
        } else {
            // The flag-style check is also consulted so the family behaves
            // consistently with `distributivity_checks()`.
            let _ = &self.distrib_checks;
            out
        }
    }

    /// Winnow a set of logical forms, producing the per-stage trace.
    pub fn winnow(&self, base: &[Lf]) -> WinnowTrace {
        let base_forms: Vec<Lf> = {
            let mut seen: HashSet<&Lf> = HashSet::new();
            base.iter().filter(|lf| seen.insert(lf)).cloned().collect()
        };
        let mut counts = [0usize; 6];
        counts[0] = base_forms.len();

        let after_type = Self::apply_family(&self.type_checks, &base_forms);
        counts[1] = after_type.len();

        let after_arg = Self::apply_family(&self.arg_order_checks, &after_type);
        counts[2] = after_arg.len();

        let after_pred = Self::apply_family(&self.pred_order_checks, &after_arg);
        counts[3] = after_pred.len();

        let after_distrib = self.apply_distributivity(&after_pred);
        counts[4] = after_distrib.len();

        let after_assoc = dedup_isomorphic(&after_distrib);
        counts[5] = after_assoc.len();

        WinnowTrace {
            counts,
            survivors: after_assoc,
        }
    }

    /// The fully id-native winnow: every stage runs over [`LfId`]s.
    ///
    /// The check families are the memoized [`IdChecks`] engine — each
    /// distinct subterm is judged once per family, ever, with the verdict
    /// cached in the arena — and every set operation (base deduplication,
    /// the distributivity preference's membership tests, the associativity
    /// stage) is an id compare.  No boxed tree is touched, cloned or built;
    /// survivors come back as ids.
    ///
    /// Produces stage counts identical to the boxed [`Winnower::winnow`]
    /// oracle, and survivor ids that resolve to its survivor trees — pinned
    /// by `tests/winnow_parity.rs` over all four RFC corpora.
    pub fn winnow_ids(&self, base: &[LfId], arena: &mut LfArena) -> IdWinnowTrace {
        // Base deduplication by id, first occurrence kept.
        let mut seen: HashSet<LfId> = HashSet::new();
        let ids: Vec<LfId> = base.iter().copied().filter(|&id| seen.insert(id)).collect();
        let mut counts = [0usize; 6];
        counts[0] = ids.len();

        let checks = &self.id_checks;
        let family = |arena: &mut LfArena,
                      keep: &[LfId],
                      passes: &dyn Fn(&mut LfArena, LfId) -> bool|
         -> Vec<LfId> {
            let kept: Vec<LfId> = keep
                .iter()
                .copied()
                .filter(|&id| passes(arena, id))
                .collect();
            if kept.is_empty() {
                keep.to_vec()
            } else {
                kept
            }
        };

        let after_type = family(arena, &ids, &|a, id| checks.passes_type(a, id));
        counts[1] = after_type.len();

        let after_arg = family(arena, &after_type, &|a, id| checks.passes_arg_order(a, id));
        counts[2] = after_arg.len();

        let after_pred = family(arena, &after_arg, &|a, id| checks.passes_pred_order(a, id));
        counts[3] = after_pred.len();

        // Distributivity preference with id-set membership: a distributed
        // reading is dropped when its grouped equivalent is (or will be)
        // present, rewritten to the grouped form otherwise.  The memoized
        // containment flag means the common no-pattern case never re-walks
        // the tree.
        let mut after_distrib: Vec<LfId> = Vec::new();
        let mut distrib_ids: HashSet<LfId> = HashSet::new();
        let pred_ids: HashSet<LfId> = after_pred.iter().copied().collect();
        for &id in &after_pred {
            if checks.contains_distributed(arena, id) {
                let grouped = distributed_assignment_interned(arena, id)
                    .expect("containment flag implies a rewrite");
                if pred_ids.contains(&grouped) || distrib_ids.contains(&grouped) {
                    continue;
                }
                distrib_ids.insert(grouped);
                after_distrib.push(grouped);
            } else if distrib_ids.insert(id) {
                after_distrib.push(id);
            }
        }
        if after_distrib.is_empty() {
            after_distrib = after_pred;
        }
        counts[4] = after_distrib.len();

        // Associativity: one representative per canonical id.
        let mut canon_seen: HashSet<LfId> = HashSet::new();
        let mut survivors: Vec<LfId> = Vec::new();
        for &id in &after_distrib {
            let c = arena.canonical(id);
            if canon_seen.insert(c) {
                survivors.push(id);
            }
        }
        counts[5] = survivors.len();

        IdWinnowTrace { counts, survivors }
    }

    /// [`Winnower::winnow`] on the interned representation: interns the
    /// boxed forms, runs the id-native [`Winnower::winnow_ids`] engine, and
    /// materializes only the survivors.  Produces a trace identical to the
    /// boxed path; the batch pipeline's determinism test and the parity
    /// suites pin that equivalence.
    pub fn winnow_interned(&self, base: &[Lf], arena: &mut LfArena) -> WinnowTrace {
        let ids: Vec<LfId> = base.iter().map(|lf| arena.intern_lf(lf)).collect();
        let trace = self.winnow_ids(&ids, arena);
        WinnowTrace {
            counts: trace.counts,
            survivors: trace
                .survivors
                .iter()
                .map(|&id| arena.resolve(id))
                .collect(),
        }
    }
}

/// Convenience wrapper: winnow with a freshly-built check set.
pub fn winnow(base: &[Lf]) -> WinnowTrace {
    Winnower::new().winnow(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_logic::parse_lf;

    /// True if winnowing reached a single interpretation.
    fn resolved(trace: &WinnowTrace) -> bool {
        trace.survivors.len() == 1
    }

    fn figure2_lfs() -> Vec<Lf> {
        vec![
            parse_lf(
                "@AdvBefore(@Action('compute', '0'), @Is(@And('checksum_field', 'checksum'), '0'))",
            )
            .unwrap(),
            parse_lf("@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))")
                .unwrap(),
            parse_lf(
                "@AdvBefore('0', @Is(@Action('compute', @And('checksum_field', 'checksum')), '0'))",
            )
            .unwrap(),
            parse_lf(
                "@AdvBefore('0', @Is(@And('checksum_field', @Action('compute', 'checksum')), '0'))",
            )
            .unwrap(),
        ]
    }

    #[test]
    fn figure2_winnows_to_single_correct_lf() {
        let trace = winnow(&figure2_lfs());
        assert_eq!(trace.counts[0], 4);
        assert!(resolved(&trace), "survivors: {:#?}", trace.survivors);
        assert_eq!(
            trace.survivors[0],
            parse_lf("@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))")
                .unwrap()
        );
    }

    #[test]
    fn figure3_associativity_reduces_to_one() {
        let lf_a = parse_lf(
            "@StartsWith(@Is('checksum', @Of('Ones', @Of('OnesSum', 'icmp_message'))), 'icmp_type')",
        )
        .unwrap();
        let lf_b = parse_lf(
            "@StartsWith(@Is('checksum', @Of(@Of('Ones', 'OnesSum'), 'icmp_message')), 'icmp_type')",
        )
        .unwrap();
        let trace = winnow(&[lf_a, lf_b]);
        assert_eq!(trace.counts[0], 2);
        assert_eq!(trace.counts[5], 1);
        assert!(resolved(&trace));
    }

    #[test]
    fn sentence_e_if_swap_is_winnowed() {
        let good = parse_lf("@If(@Is('code', @Num(0)), @May(@Is('identifier', @Num(0))))").unwrap();
        let bad = parse_lf("@If(@May(@Is('identifier', @Num(0))), @Is('code', @Num(0)))").unwrap();
        let trace = winnow(&[good.clone(), bad]);
        assert!(resolved(&trace));
        assert_eq!(trace.survivors[0], good);
    }

    #[test]
    fn distributed_reading_is_collapsed() {
        let grouped =
            parse_lf("@Is(@And('source_address', 'destination_address'), 'reversed')").unwrap();
        let distributed = parse_lf(
            "@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))",
        )
        .unwrap();
        let trace = winnow(&[grouped.clone(), distributed]);
        assert!(resolved(&trace));
        assert_eq!(trace.survivors[0], grouped);
    }

    #[test]
    fn only_distributed_reading_is_rewritten_to_grouped() {
        let distributed = parse_lf(
            "@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))",
        )
        .unwrap();
        let grouped =
            parse_lf("@Is(@And('source_address', 'destination_address'), 'reversed')").unwrap();
        let trace = winnow(&[distributed]);
        assert!(resolved(&trace));
        assert_eq!(trace.survivors[0], grouped);
    }

    #[test]
    fn truly_ambiguous_sets_stay_ambiguous() {
        // Two well-formed but semantically different readings.
        let a = parse_lf("@Is('checksum', @Of('checksum', 'ip_header'))").unwrap();
        let b = parse_lf("@Is('checksum', @Of('checksum', 'icmp_message'))").unwrap();
        let trace = winnow(&[a, b]);
        assert_eq!(trace.survivors.len(), 2);
    }

    #[test]
    fn counts_are_monotonically_nonincreasing() {
        let trace = winnow(&figure2_lfs());
        for w in trace.counts.windows(2) {
            assert!(w[1] <= w[0], "counts increased: {:?}", trace.counts);
        }
    }

    #[test]
    fn empty_input_yields_zero_counts() {
        let trace = winnow(&[]);
        assert_eq!(trace.counts, [0; 6]);
        assert!(trace.survivors.is_empty());
        assert!(!resolved(&trace));
    }

    #[test]
    fn all_forms_failing_checks_are_kept_conservatively() {
        // A single badly-typed form: winnowing must not produce an empty set.
        let bad = parse_lf("@Is(@Num(0), @Num(1))").unwrap();
        let trace = winnow(std::slice::from_ref(&bad));
        assert_eq!(trace.survivors, vec![bad]);
    }

    #[test]
    fn stage_lookup_by_name() {
        assert_eq!(WinnowStage::Base.label(), "Base");
        assert_eq!(WinnowStage::ALL.len(), 6);
    }

    #[test]
    fn interned_winnow_matches_boxed_winnow() {
        let winnower = Winnower::new();
        let fixtures: Vec<Vec<Lf>> = vec![
            figure2_lfs(),
            vec![
                parse_lf("@StartsWith(@Is('checksum', @Of('Ones', @Of('OnesSum', 'icmp_message'))), 'icmp_type')").unwrap(),
                parse_lf("@StartsWith(@Is('checksum', @Of(@Of('Ones', 'OnesSum'), 'icmp_message')), 'icmp_type')").unwrap(),
            ],
            vec![
                parse_lf("@Is(@And('source_address', 'destination_address'), 'reversed')").unwrap(),
                parse_lf("@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))").unwrap(),
            ],
            vec![parse_lf("@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))").unwrap()],
            vec![parse_lf("@Is(@Num(0), @Num(1))").unwrap()],
            vec![],
        ];
        let mut arena = LfArena::new();
        for (i, base) in fixtures.iter().enumerate() {
            let boxed = winnower.winnow(base);
            let interned = winnower.winnow_interned(base, &mut arena);
            assert_eq!(interned, boxed, "fixture {i} diverged");
        }
    }

    #[test]
    fn duplicates_in_base_are_removed() {
        let lf = parse_lf("@Is('checksum', @Num(0))").unwrap();
        let trace = winnow(&[lf.clone(), lf.clone(), lf]);
        assert_eq!(trace.counts[0], 1);
    }
}
