//! Per-check effectiveness statistics (Figure 6).
//!
//! Figure 6 of the paper measures, for each check family applied *alone* to
//! the base logical forms of every ambiguous sentence: (a) the average
//! number of LFs the family filters out per sentence (with standard error)
//! and (b) how many sentences the family affects at all.
//!
//! Two implementations coexist: the boxed oracle (closure checks over `Lf`
//! trees, kept allocation-free by working on borrowed forms and index
//! lists) and the id-native `_interned` path, which reuses the arena's
//! memoized verdict planes — across sentences, a family's verdict for a
//! shared subterm is computed once, ever.

use crate::checks::{
    argument_ordering_checks, distributed_assignment, distributed_assignment_interned,
    predicate_ordering_checks, type_checks, Check, IdChecks,
};
use crate::winnow::WinnowStage;
use sage_logic::graph::canonical_form;
use sage_logic::intern::{LfArena, LfId};
use sage_logic::Lf;
use std::collections::HashSet;

/// The effect of one check family applied in isolation across a corpus of
/// ambiguous sentences.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckEffect {
    /// Which family (never `Base`).
    pub stage: WinnowStage,
    /// Mean number of LFs removed per ambiguous sentence.
    pub mean_filtered: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of sentences for which the family removed at least one LF.
    pub affected_sentences: usize,
    /// Total number of sentences analysed.
    pub total_sentences: usize,
}

fn passes_all(checks: &[Check], lf: &Lf) -> bool {
    checks.iter().all(|c| c.passes(lf))
}

/// Indices into `forms` of the forms surviving one family applied alone,
/// with the conservative keep-all-if-empty rule.  Working on indices keeps
/// the statistics path free of per-survivor tree clones.
fn family_survivor_indices(stage: WinnowStage, forms: &[&Lf]) -> Vec<usize> {
    let keep_all_if_empty = |kept: Vec<usize>| {
        if kept.is_empty() {
            (0..forms.len()).collect()
        } else {
            kept
        }
    };
    match stage {
        WinnowStage::Base => (0..forms.len()).collect(),
        WinnowStage::Type => {
            let checks = type_checks();
            keep_all_if_empty(
                (0..forms.len())
                    .filter(|&i| passes_all(&checks, forms[i]))
                    .collect(),
            )
        }
        WinnowStage::ArgumentOrdering => {
            let checks = argument_ordering_checks();
            keep_all_if_empty(
                (0..forms.len())
                    .filter(|&i| passes_all(&checks, forms[i]))
                    .collect(),
            )
        }
        WinnowStage::PredicateOrdering => {
            let checks = predicate_ordering_checks();
            keep_all_if_empty(
                (0..forms.len())
                    .filter(|&i| passes_all(&checks, forms[i]))
                    .collect(),
            )
        }
        WinnowStage::Distributivity => {
            let input: HashSet<&Lf> = forms.iter().copied().collect();
            let mut kept_set: HashSet<&Lf> = HashSet::new();
            let mut kept: Vec<usize> = Vec::new();
            for (i, lf) in forms.iter().enumerate() {
                if let Some(grouped) = distributed_assignment(lf) {
                    // The distributed reading is dropped only when its
                    // grouped equivalent is also present.
                    if input.contains(&grouped) || kept_set.contains(&grouped) {
                        continue;
                    }
                }
                kept_set.insert(lf);
                kept.push(i);
            }
            keep_all_if_empty(kept)
        }
        WinnowStage::Associativity => {
            let mut canon_seen: HashSet<Lf> = HashSet::new();
            (0..forms.len())
                .filter(|&i| canon_seen.insert(canonical_form(forms[i])))
                .collect()
        }
    }
}

/// Apply one family alone to a base LF set and return the surviving forms.
pub fn apply_single_family(stage: WinnowStage, forms: &[Lf]) -> Vec<Lf> {
    let refs: Vec<&Lf> = forms.iter().collect();
    family_survivor_indices(stage, &refs)
        .into_iter()
        .map(|i| forms[i].clone())
        .collect()
}

/// Id-native counterpart of [`apply_single_family`]: one family applied
/// alone over arena-resident forms, verdicts answered from the memoized
/// planes.  Returns the surviving ids in kept order.
pub fn apply_single_family_interned(
    stage: WinnowStage,
    ids: &[LfId],
    arena: &mut LfArena,
    checks: &IdChecks,
) -> Vec<LfId> {
    let keep_all_if_empty = |kept: Vec<LfId>| {
        if kept.is_empty() {
            ids.to_vec()
        } else {
            kept
        }
    };
    match stage {
        WinnowStage::Base => ids.to_vec(),
        WinnowStage::Type => keep_all_if_empty(
            ids.iter()
                .copied()
                .filter(|&id| checks.passes_type(arena, id))
                .collect(),
        ),
        WinnowStage::ArgumentOrdering => keep_all_if_empty(
            ids.iter()
                .copied()
                .filter(|&id| checks.passes_arg_order(arena, id))
                .collect(),
        ),
        WinnowStage::PredicateOrdering => keep_all_if_empty(
            ids.iter()
                .copied()
                .filter(|&id| checks.passes_pred_order(arena, id))
                .collect(),
        ),
        WinnowStage::Distributivity => {
            let input: HashSet<LfId> = ids.iter().copied().collect();
            let mut kept_set: HashSet<LfId> = HashSet::new();
            let mut kept: Vec<LfId> = Vec::new();
            for &id in ids {
                if checks.contains_distributed(arena, id) {
                    let grouped = distributed_assignment_interned(arena, id)
                        .expect("containment flag implies a rewrite");
                    if input.contains(&grouped) || kept_set.contains(&grouped) {
                        continue;
                    }
                }
                kept_set.insert(id);
                kept.push(id);
            }
            keep_all_if_empty(kept)
        }
        WinnowStage::Associativity => arena.dedup_isomorphic(ids),
    }
}

/// Shared statistics fold: per-sentence removed counts → [`CheckEffect`].
fn fold_effect(stage: WinnowStage, removed_counts: Vec<f64>, affected: usize) -> CheckEffect {
    let total = removed_counts.len();
    let n = total.max(1) as f64;
    let mean = removed_counts.iter().sum::<f64>() / n;
    let var = removed_counts
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n;
    let std_error = (var / n).sqrt();
    CheckEffect {
        stage,
        mean_filtered: mean,
        std_error,
        affected_sentences: affected,
        total_sentences: total,
    }
}

/// Compute the Figure-6 statistics for one check family across many
/// sentences' base LF sets.
pub fn per_check_effect(stage: WinnowStage, sentences: &[Vec<Lf>]) -> CheckEffect {
    let mut removed_counts: Vec<f64> = Vec::new();
    let mut affected = 0usize;
    for base in sentences {
        let mut seen: HashSet<&Lf> = HashSet::new();
        let unique: Vec<&Lf> = base.iter().filter(|lf| seen.insert(lf)).collect();
        let survivors = family_survivor_indices(stage, &unique);
        let removed = unique.len().saturating_sub(survivors.len());
        if removed > 0 {
            affected += 1;
        }
        removed_counts.push(removed as f64);
    }
    fold_effect(stage, removed_counts, affected)
}

/// Id-native counterpart of [`per_check_effect`]: the caller's arena carries
/// the verdict memos, so repeated sub-structure across sentences is judged
/// once, and one caller-compiled [`IdChecks`] serves all four families of
/// [`all_check_effects_interned`].  Produces the identical statistics.
fn per_check_effect_with(
    stage: WinnowStage,
    sentences: &[Vec<Lf>],
    arena: &mut LfArena,
    checks: &IdChecks,
) -> CheckEffect {
    let mut removed_counts: Vec<f64> = Vec::new();
    let mut affected = 0usize;
    for base in sentences {
        let mut seen: HashSet<LfId> = HashSet::new();
        let unique: Vec<LfId> = base
            .iter()
            .map(|lf| arena.intern_lf(lf))
            .filter(|&id| seen.insert(id))
            .collect();
        let survivors = apply_single_family_interned(stage, &unique, arena, checks);
        let removed = unique.len().saturating_sub(survivors.len());
        if removed > 0 {
            affected += 1;
        }
        removed_counts.push(removed as f64);
    }
    fold_effect(stage, removed_counts, affected)
}

/// The four non-base families of Figure 6, in evaluation order.
const EFFECT_STAGES: [WinnowStage; 4] = [
    WinnowStage::Type,
    WinnowStage::ArgumentOrdering,
    WinnowStage::PredicateOrdering,
    WinnowStage::Distributivity,
];

/// Compute the Figure-6 statistics for every non-base family.
pub fn all_check_effects(sentences: &[Vec<Lf>]) -> Vec<CheckEffect> {
    EFFECT_STAGES
        .into_iter()
        .map(|s| per_check_effect(s, sentences))
        .collect()
}

/// Id-native counterpart of [`all_check_effects`]; one compiled check set
/// and one arena serve all four families, so the later families reuse the
/// predicate masks and leaf-type memos the earlier ones populated.
pub fn all_check_effects_interned(sentences: &[Vec<Lf>], arena: &mut LfArena) -> Vec<CheckEffect> {
    let checks = IdChecks::new();
    EFFECT_STAGES
        .into_iter()
        .map(|s| per_check_effect_with(s, sentences, arena, &checks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_logic::parse_lf;

    fn ambiguous_sentence() -> Vec<Lf> {
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
    fn type_family_alone_filters_figure2() {
        let survivors = apply_single_family(WinnowStage::Type, &ambiguous_sentence());
        assert!(survivors.len() < 4);
        assert!(!survivors.is_empty());
    }

    #[test]
    fn associativity_family_dedups_isomorphic_forms() {
        let a = parse_lf("@Of(@Of('a', 'b'), 'c')").unwrap();
        let b = parse_lf("@Of('a', @Of('b', 'c'))").unwrap();
        let survivors = apply_single_family(WinnowStage::Associativity, &[a, b]);
        assert_eq!(survivors.len(), 1);
    }

    #[test]
    fn per_check_effect_counts_affected_sentences() {
        let corpus = vec![
            ambiguous_sentence(),
            vec![parse_lf("@Is('checksum', @Num(0))").unwrap()],
        ];
        let eff = per_check_effect(WinnowStage::Type, &corpus);
        assert_eq!(eff.total_sentences, 2);
        assert_eq!(eff.affected_sentences, 1);
        assert!(eff.mean_filtered > 0.0);
        assert!(eff.std_error >= 0.0);
    }

    #[test]
    fn base_family_is_identity() {
        let base = ambiguous_sentence();
        assert_eq!(apply_single_family(WinnowStage::Base, &base), base);
    }

    #[test]
    fn all_check_effects_covers_four_families() {
        let corpus = vec![ambiguous_sentence()];
        let effects = all_check_effects(&corpus);
        assert_eq!(effects.len(), 4);
        assert!(effects.iter().any(|e| e.stage == WinnowStage::Type));
        assert!(effects
            .iter()
            .any(|e| e.stage == WinnowStage::Distributivity));
    }

    #[test]
    fn empty_corpus_produces_zeroes() {
        let eff = per_check_effect(WinnowStage::Type, &[]);
        assert_eq!(eff.total_sentences, 0);
        assert_eq!(eff.affected_sentences, 0);
        assert_eq!(eff.mean_filtered, 0.0);
    }

    #[test]
    fn interned_single_families_match_boxed_on_fixtures() {
        let mut arena = LfArena::new();
        let checks = IdChecks::new();
        let fixtures: Vec<Vec<Lf>> = vec![
            ambiguous_sentence(),
            vec![
                parse_lf("@Of(@Of('a', 'b'), 'c')").unwrap(),
                parse_lf("@Of('a', @Of('b', 'c'))").unwrap(),
            ],
            vec![
                parse_lf("@Is(@And('source_address', 'destination_address'), 'reversed')").unwrap(),
                parse_lf(
                    "@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))",
                )
                .unwrap(),
            ],
            vec![parse_lf("@Is(@Num(0), @Num(1))").unwrap()],
        ];
        for forms in &fixtures {
            let ids: Vec<LfId> = forms.iter().map(|lf| arena.intern_lf(lf)).collect();
            for stage in WinnowStage::ALL {
                let boxed = apply_single_family(stage, forms);
                let interned = apply_single_family_interned(stage, &ids, &mut arena, &checks);
                let resolved: Vec<Lf> = interned.iter().map(|&id| arena.resolve(id)).collect();
                assert_eq!(resolved, boxed, "{stage:?} diverged on {forms:?}");
            }
        }
    }

    #[test]
    fn interned_effects_match_boxed_effects() {
        let corpus = vec![
            ambiguous_sentence(),
            vec![parse_lf("@Is('checksum', @Num(0))").unwrap()],
            vec![
                parse_lf(
                    "@And(@Is('source_address', 'reversed'), @Is('destination_address', 'reversed'))",
                )
                .unwrap(),
                parse_lf("@Is(@And('source_address', 'destination_address'), 'reversed')").unwrap(),
            ],
        ];
        let mut arena = LfArena::new();
        assert_eq!(
            all_check_effects_interned(&corpus, &mut arena),
            all_check_effects(&corpus)
        );
        // A second pass over the same corpus answers from warm memos and
        // must agree with itself.
        assert_eq!(
            all_check_effects_interned(&corpus, &mut arena),
            all_check_effects(&corpus)
        );
    }
}
