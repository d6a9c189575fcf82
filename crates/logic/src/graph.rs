//! Isomorphism of logical forms modulo associativity and commutativity.
//!
//! The associativity check (§4.2, Figure 3) treats two logical forms as
//! equivalent when their trees are isomorphic *modulo* the algebraic
//! properties of their predicates: associative predicates may be regrouped
//! (`@Of(@Of(a, b), c)` ≡ `@Of(a, @Of(b, c))`) and commutative predicates may
//! have their children reordered.  We implement this by flattening
//! associative chains and sorting commutative children into a canonical form;
//! two forms are isomorphic iff their canonical forms are equal.

use crate::lf::Lf;
use crate::pred::PredName;

/// Compute the canonical form of a logical form: associative chains are
/// flattened and commutative children sorted, recursively.
pub fn canonical_form(lf: &Lf) -> Lf {
    match lf {
        Lf::Atom(_) | Lf::Number(_) => lf.clone(),
        Lf::Pred(p, args) => {
            let props = p.properties();
            let mut canon_args: Vec<Lf> = Vec::new();
            for a in args {
                let ca = canonical_form(a);
                // Flatten nested uses of the same associative predicate.
                if props.associative {
                    if let Lf::Pred(cp, inner) = &ca {
                        if cp == p {
                            canon_args.extend(inner.clone());
                            continue;
                        }
                    }
                }
                canon_args.push(ca);
            }
            if props.commutative {
                canon_args.sort();
            }
            Lf::Pred(p.clone(), canon_args)
        }
    }
}

/// True when the two logical forms are isomorphic modulo the associativity
/// and commutativity of their predicates (the paper's associativity check).
pub fn isomorphic(a: &Lf, b: &Lf) -> bool {
    canonical_form(a) == canonical_form(b)
}

/// Deduplicate a set of logical forms, keeping one representative per
/// isomorphism class.  The representative kept is the first encountered, so
/// the caller's ordering is preserved.
pub fn dedup_isomorphic(forms: &[Lf]) -> Vec<Lf> {
    let mut kept: Vec<Lf> = Vec::new();
    let mut canon: Vec<Lf> = Vec::new();
    for f in forms {
        let c = canonical_form(f);
        if !canon.contains(&c) {
            canon.push(c);
            kept.push(f.clone());
        }
    }
    kept
}

/// Grouping helper used by tests and by Figure-3 style analyses: build the
/// two groupings of "A of B of C".
pub fn of_chain_left(a: Lf, b: Lf, c: Lf) -> Lf {
    Lf::Pred(PredName::Of, vec![Lf::Pred(PredName::Of, vec![a, b]), c])
}

/// Right-grouped variant of [`of_chain_left`].
pub fn of_chain_right(a: Lf, b: Lf, c: Lf) -> Lf {
    Lf::Pred(PredName::Of, vec![a, Lf::Pred(PredName::Of, vec![b, c])])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Lf, Lf, Lf) {
        (
            Lf::atom("Ones"),
            Lf::atom("OnesSum"),
            Lf::atom("icmp_message"),
        )
    }

    #[test]
    fn figure3_groupings_are_isomorphic() {
        let (a, b, c) = abc();
        let left = of_chain_left(a.clone(), b.clone(), c.clone());
        let right = of_chain_right(a, b, c);
        assert_ne!(left, right, "syntactically distinct");
        assert!(isomorphic(&left, &right), "associativity makes them equal");
    }

    #[test]
    fn and_child_order_does_not_matter() {
        let x = Lf::and(vec![Lf::atom("a"), Lf::atom("b")]);
        let y = Lf::and(vec![Lf::atom("b"), Lf::atom("a")]);
        assert!(isomorphic(&x, &y));
    }

    #[test]
    fn is_argument_order_matters() {
        let x = Lf::is(Lf::atom("code"), Lf::num(0));
        let y = Lf::is(Lf::num(0), Lf::atom("code"));
        assert!(!isomorphic(&x, &y));
    }

    #[test]
    fn nested_and_flattens() {
        let x = Lf::and(vec![
            Lf::and(vec![Lf::atom("a"), Lf::atom("b")]),
            Lf::atom("c"),
        ]);
        let y = Lf::and(vec![
            Lf::atom("a"),
            Lf::and(vec![Lf::atom("b"), Lf::atom("c")]),
        ]);
        assert!(isomorphic(&x, &y));
        // Canonical form is the flat 3-ary @And.
        assert_eq!(
            canonical_form(&x),
            Lf::and(vec![Lf::atom("a"), Lf::atom("b"), Lf::atom("c")])
        );
    }

    #[test]
    fn different_predicates_never_isomorphic() {
        let x = Lf::and(vec![Lf::atom("a"), Lf::atom("b")]);
        let y = Lf::Pred(PredName::Or, vec![Lf::atom("a"), Lf::atom("b")]);
        assert!(!isomorphic(&x, &y));
    }

    #[test]
    fn dedup_keeps_one_per_class() {
        let (a, b, c) = abc();
        let forms = vec![
            of_chain_left(a.clone(), b.clone(), c.clone()),
            of_chain_right(a.clone(), b.clone(), c.clone()),
            Lf::is(Lf::atom("x"), Lf::num(1)),
        ];
        let out = dedup_isomorphic(&forms);
        assert_eq!(out.len(), 2);
        // The first representative of each class is kept.
        assert_eq!(out[0], forms[0]);
        assert_eq!(out[1], forms[2]);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let (a, b, c) = abc();
        let lf = Lf::and(vec![of_chain_left(a, b, c), Lf::atom("z")]);
        let once = canonical_form(&lf);
        let twice = canonical_form(&once);
        assert_eq!(once, twice);
    }
}
