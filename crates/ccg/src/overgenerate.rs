//! Reproduction of CCG's characteristic over-generation.
//!
//! §4.1 of the paper identifies five systematic sources of spurious logical
//! forms produced by the CCG parser: inconsistent argument types,
//! order-sensitive predicate arguments (`@If(A,B)` vs `@If(B,A)`), predicate
//! ordering ("A of B is C" grouped either way), predicate distributivity
//! (comma/coordination read distributively or not), and predicate
//! associativity (regrouped `@Of` chains).
//!
//! Our CKY parser produces some of these naturally (associativity,
//! predicate ordering); the others stem from behaviours of the NLTK CCG
//! machinery (generalized composition, type raising, punctuation handling)
//! that we deliberately emulate here rather than re-implement, so that the
//! disambiguation stage (crate `sage-disambig`) faces the same input
//! distribution as in the paper.  Each expansion is tagged with the
//! ambiguity class it models.

use sage_logic::{IdSet, Lf, LfArena, LfId, PredName};

/// Which over-generation behaviours to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OvergenConfig {
    /// Swap `@If` condition and consequence (argument-ordering ambiguity).
    pub swap_if_arguments: bool,
    /// Swap `@Is` arguments (argument-ordering ambiguity).
    pub swap_is_arguments: bool,
    /// Regroup "A of B is C" so `@Is` nests under `@Of` and vice versa
    /// (predicate-ordering ambiguity).
    pub regroup_of_is: bool,
    /// Distribute an assignment over a conjoined subject
    /// ("A and B is C" → "(A is C) and (B is C)") and the converse
    /// (distributivity ambiguity).
    pub distribute_coordination: bool,
    /// Regroup associative `@Of`/`@And` chains (associativity ambiguity).
    pub regroup_associative: bool,
    /// Swap an `@Action`'s function name with a constant argument, yielding
    /// a badly-typed LF (inconsistent-argument-type ambiguity, LF1/LF3/LF4
    /// in Figure 2).
    pub confuse_action_types: bool,
}

impl Default for OvergenConfig {
    fn default() -> Self {
        OvergenConfig {
            swap_if_arguments: true,
            swap_is_arguments: true,
            regroup_of_is: true,
            distribute_coordination: true,
            regroup_associative: true,
            confuse_action_types: true,
        }
    }
}

impl OvergenConfig {
    /// Disable every expansion (the parser's raw output only).
    pub fn none() -> OvergenConfig {
        OvergenConfig {
            swap_if_arguments: false,
            swap_is_arguments: false,
            regroup_of_is: false,
            distribute_coordination: false,
            regroup_associative: false,
            confuse_action_types: false,
        }
    }
}

/// Expand a set of base logical forms with the spurious variants CCG would
/// also produce.  The original forms are always retained and returned first;
/// duplicates are removed.
pub fn overgenerate(base: &[Lf], config: OvergenConfig) -> Vec<Lf> {
    overgenerate_with(base, config, &mut LfArena::new())
}

/// [`overgenerate`] through a caller-supplied hash-consing arena: membership
/// of the growing variant set is one interning walk plus an id-set probe per
/// candidate, instead of a linear scan of deep tree comparisons.  Using the
/// analysis workspace's arena also pre-interns every surviving form for the
/// winnowing stage that follows.  Output is identical to [`overgenerate`].
pub fn overgenerate_with(base: &[Lf], config: OvergenConfig, arena: &mut LfArena) -> Vec<Lf> {
    let mut out: Vec<Lf> = Vec::new();
    let mut seen: IdSet<LfId> = IdSet::default();
    for lf in base {
        if seen.insert(arena.intern_lf(lf)) {
            out.push(lf.clone());
        }
    }
    // Expand transitively: variants of variants, up to a small bound to
    // mirror how multiple parser choices multiply.
    let mut frontier: Vec<Lf> = out.clone();
    for _round in 0..2 {
        let mut next = Vec::new();
        for lf in &frontier {
            for v in variants(lf, config) {
                if seen.insert(arena.intern_lf(&v)) {
                    out.push(v.clone());
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

/// Single-step variants of one logical form.
fn variants(lf: &Lf, config: OvergenConfig) -> Vec<Lf> {
    let mut out = Vec::new();
    if config.swap_if_arguments {
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::If, args) if args.len() == 2 => Some(Lf::Pred(
                PredName::If,
                vec![args[1].clone(), args[0].clone()],
            )),
            _ => None,
        }));
    }
    if config.swap_is_arguments {
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Is, args) if args.len() == 2 && args[1].is_leaf() => Some(Lf::Pred(
                PredName::Is,
                vec![args[1].clone(), args[0].clone()],
            )),
            _ => None,
        }));
    }
    if config.regroup_of_is {
        // @Is(@Of(a, b), c)  →  @Of(a, @Is(b, c))   ("A of (B is C)")
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Is, args) if args.len() == 2 => match &args[0] {
                Lf::Pred(PredName::Of, of_args) if of_args.len() == 2 => Some(Lf::Pred(
                    PredName::Of,
                    vec![
                        of_args[0].clone(),
                        Lf::Pred(PredName::Is, vec![of_args[1].clone(), args[1].clone()]),
                    ],
                )),
                _ => None,
            },
            _ => None,
        }));
        // and the converse regrouping
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Of, args) if args.len() == 2 => match &args[1] {
                Lf::Pred(PredName::Is, is_args) if is_args.len() == 2 => Some(Lf::Pred(
                    PredName::Is,
                    vec![
                        Lf::Pred(PredName::Of, vec![args[0].clone(), is_args[0].clone()]),
                        is_args[1].clone(),
                    ],
                )),
                _ => None,
            },
            _ => None,
        }));
    }
    if config.distribute_coordination {
        // @Is(@And(a, b), c)  →  @And(@Is(a, c), @Is(b, c))
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Is, args) if args.len() == 2 => match &args[0] {
                Lf::Pred(PredName::And, items) if items.len() == 2 => Some(Lf::Pred(
                    PredName::And,
                    items
                        .iter()
                        .map(|i| Lf::Pred(PredName::Is, vec![i.clone(), args[1].clone()]))
                        .collect(),
                )),
                _ => None,
            },
            _ => None,
        }));
        // @And(@Is(a, c), @Is(b, c))  →  @Is(@And(a, b), c)
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::And, items) if items.len() == 2 => match (&items[0], &items[1]) {
                (Lf::Pred(PredName::Is, l), Lf::Pred(PredName::Is, r))
                    if l.len() == 2 && r.len() == 2 && l[1] == r[1] =>
                {
                    Some(Lf::Pred(
                        PredName::Is,
                        vec![
                            Lf::Pred(PredName::And, vec![l[0].clone(), r[0].clone()]),
                            l[1].clone(),
                        ],
                    ))
                }
                _ => None,
            },
            _ => None,
        }));
    }
    if config.regroup_associative {
        // @Of(@Of(a, b), c)  ↔  @Of(a, @Of(b, c))
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Of, args) if args.len() == 2 => match &args[0] {
                Lf::Pred(PredName::Of, inner) if inner.len() == 2 => Some(Lf::Pred(
                    PredName::Of,
                    vec![
                        inner[0].clone(),
                        Lf::Pred(PredName::Of, vec![inner[1].clone(), args[1].clone()]),
                    ],
                )),
                _ => None,
            },
            _ => None,
        }));
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Of, args) if args.len() == 2 => match &args[1] {
                Lf::Pred(PredName::Of, inner) if inner.len() == 2 => Some(Lf::Pred(
                    PredName::Of,
                    vec![
                        Lf::Pred(PredName::Of, vec![args[0].clone(), inner[0].clone()]),
                        inner[1].clone(),
                    ],
                )),
                _ => None,
            },
            _ => None,
        }));
    }
    if config.confuse_action_types {
        // @Action('compute', X)  →  @Action(X, 'compute')  (badly typed when
        // X is a constant — mirrors LF1 in Figure 2) and
        // @Action('compute', X) → @Action('compute', '0') type confusion.
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Action, args) if args.len() == 2 => Some(Lf::Pred(
                PredName::Action,
                vec![args[0].clone(), Lf::atom("0")],
            )),
            _ => None,
        }));
        out.extend(rewrite_nodes(lf, &|n| match n {
            Lf::Pred(PredName::Action, args) if args.len() >= 2 => {
                let mut swapped = args.clone();
                swapped.swap(0, 1);
                Some(Lf::Pred(PredName::Action, swapped))
            }
            _ => None,
        }));
    }
    out.retain(|v| v != lf);
    out
}

/// Apply `rule` to every node of the tree; each applicable node yields one
/// whole-tree variant with just that node rewritten.
fn rewrite_nodes(lf: &Lf, rule: &impl Fn(&Lf) -> Option<Lf>) -> Vec<Lf> {
    let mut out = Vec::new();
    // Rewrite at the root.
    if let Some(new_root) = rule(lf) {
        out.push(new_root);
    }
    // Rewrite within each child.
    if let Lf::Pred(p, args) = lf {
        for (i, child) in args.iter().enumerate() {
            for rewritten_child in rewrite_nodes(child, rule) {
                let mut new_args = args.clone();
                new_args[i] = rewritten_child;
                out.push(Lf::Pred(p.clone(), new_args));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_arguments_are_swapped() {
        let base = Lf::if_then(
            Lf::is(Lf::atom("code"), Lf::num(0)),
            Lf::is(Lf::atom("identifier"), Lf::num(0)),
        );
        let out = overgenerate(std::slice::from_ref(&base), OvergenConfig::default());
        let swapped = Lf::if_then(
            Lf::is(Lf::atom("identifier"), Lf::num(0)),
            Lf::is(Lf::atom("code"), Lf::num(0)),
        );
        assert!(out.contains(&base));
        assert!(out.contains(&swapped));
        assert!(out.len() > 2);
    }

    #[test]
    fn base_forms_are_retained_first() {
        let base = Lf::is(Lf::atom("checksum"), Lf::num(0));
        let out = overgenerate(std::slice::from_ref(&base), OvergenConfig::default());
        assert_eq!(out[0], base);
    }

    #[test]
    fn none_config_is_identity() {
        let base = vec![Lf::if_then(Lf::atom("a"), Lf::atom("b"))];
        let out = overgenerate(&base, OvergenConfig::none());
        assert_eq!(out, base);
    }

    #[test]
    fn distributivity_generates_both_readings() {
        // "(A and B) is C"
        let grouped = Lf::is(
            Lf::and(vec![
                Lf::atom("source_address"),
                Lf::atom("destination_address"),
            ]),
            Lf::atom("reversed"),
        );
        let out = overgenerate(std::slice::from_ref(&grouped), OvergenConfig::default());
        let distributed = Lf::and(vec![
            Lf::is(Lf::atom("source_address"), Lf::atom("reversed")),
            Lf::is(Lf::atom("destination_address"), Lf::atom("reversed")),
        ]);
        assert!(out.contains(&distributed));
    }

    #[test]
    fn of_chains_regroup() {
        let left = Lf::Pred(
            PredName::Of,
            vec![
                Lf::Pred(PredName::Of, vec![Lf::atom("a"), Lf::atom("b")]),
                Lf::atom("c"),
            ],
        );
        let out = overgenerate(std::slice::from_ref(&left), OvergenConfig::default());
        let right = Lf::Pred(
            PredName::Of,
            vec![
                Lf::atom("a"),
                Lf::Pred(PredName::Of, vec![Lf::atom("b"), Lf::atom("c")]),
            ],
        );
        assert!(out.contains(&right));
    }

    #[test]
    fn action_type_confusion_produces_badly_typed_variant() {
        let base = Lf::action("compute", vec![Lf::atom("checksum")]);
        let out = overgenerate(&[base], OvergenConfig::default());
        // A variant with a constant where the function name should be.
        assert!(out
            .iter()
            .any(|lf| matches!(lf, Lf::Pred(PredName::Action, args) if args[0].as_number().is_some() || args[1].as_number().is_some() || args.iter().any(|a| a.as_atom() == Some("0")))));
    }

    #[test]
    fn figure2_sentence_produces_several_lfs() {
        // The base LF for "For computing the checksum, the checksum field
        // should be zero" expands to a handful of variants, as in Figure 2.
        let base = Lf::Pred(
            PredName::AdvBefore,
            vec![
                Lf::action("compute", vec![Lf::atom("checksum")]),
                Lf::is(Lf::atom("checksum_field"), Lf::num(0)),
            ],
        );
        let out = overgenerate(&[base], OvergenConfig::default());
        assert!(out.len() >= 4, "got {} variants", out.len());
    }

    #[test]
    fn arena_dedup_matches_linear_dedup() {
        let mut arena = LfArena::new();
        let fixtures: Vec<Vec<Lf>> = vec![
            vec![Lf::if_then(
                Lf::is(Lf::atom("code"), Lf::num(0)),
                Lf::is(Lf::atom("identifier"), Lf::num(0)),
            )],
            vec![Lf::Pred(
                PredName::AdvBefore,
                vec![
                    Lf::action("compute", vec![Lf::atom("checksum")]),
                    Lf::is(Lf::atom("checksum_field"), Lf::num(0)),
                ],
            )],
            vec![
                Lf::is(Lf::atom("a"), Lf::num(1)),
                Lf::is(Lf::atom("a"), Lf::num(1)), // duplicate in base
            ],
            vec![],
        ];
        for base in fixtures {
            let plain = overgenerate(&base, OvergenConfig::default());
            let interned = overgenerate_with(&base, OvergenConfig::default(), &mut arena);
            assert_eq!(interned, plain);
        }
    }

    #[test]
    fn no_duplicates_in_output() {
        let base = Lf::if_then(Lf::atom("a"), Lf::atom("b"));
        let out = overgenerate(&[base], OvergenConfig::default());
        let mut dedup = out.clone();
        dedup.dedup();
        let unique: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(unique.len(), out.len());
    }
}
