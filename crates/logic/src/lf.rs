//! The logical-form tree itself: construction, traversal and display.

use crate::pred::PredName;
use std::fmt;

/// A logical form: either a scalar leaf (atom, number, string) or a
/// predicate node with child forms.
///
/// Atoms are quoted with single quotes when displayed, matching the notation
/// used in the paper: `@Is('checksum_field', '0')`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lf {
    /// A scalar symbol: a field name, a noun phrase, a constant token.
    Atom(String),
    /// A numeric literal.
    Number(i64),
    /// A predicate applied to arguments.
    Pred(PredName, Vec<Lf>),
}

impl Lf {
    /// Construct an atom leaf.
    pub fn atom(s: impl Into<String>) -> Lf {
        Lf::Atom(s.into())
    }

    /// Construct a numeric leaf wrapped the way the paper writes it
    /// (`@Num(0)`), i.e. as a `Number` node.
    pub fn num(n: i64) -> Lf {
        Lf::Number(n)
    }

    /// Construct a predicate node.
    pub fn pred(name: PredName, args: Vec<Lf>) -> Lf {
        Lf::Pred(name, args)
    }

    /// Convenience constructor for `@Is(lhs, rhs)`.
    pub fn is(lhs: Lf, rhs: Lf) -> Lf {
        Lf::Pred(PredName::Is, vec![lhs, rhs])
    }

    /// Convenience constructor for `@If(cond, then)`.
    pub fn if_then(cond: Lf, then: Lf) -> Lf {
        Lf::Pred(PredName::If, vec![cond, then])
    }

    /// Convenience constructor for `@And(items...)`.
    pub fn and(items: Vec<Lf>) -> Lf {
        Lf::Pred(PredName::And, items)
    }

    /// Convenience constructor for `@Action(name, args...)`.
    pub fn action(name: &str, args: Vec<Lf>) -> Lf {
        let mut all = vec![Lf::atom(name)];
        all.extend(args);
        Lf::Pred(PredName::Action, all)
    }

    /// The predicate name if this node is a predicate.
    pub fn pred_name(&self) -> Option<&PredName> {
        match self {
            Lf::Pred(p, _) => Some(p),
            _ => None,
        }
    }

    /// The children of a predicate node (empty slice for leaves).
    pub fn args(&self) -> &[Lf] {
        match self {
            Lf::Pred(_, args) => args,
            _ => &[],
        }
    }

    /// True if this is a leaf (atom or number).
    pub fn is_leaf(&self) -> bool {
        !matches!(self, Lf::Pred(..))
    }

    /// The atom text if this is an atom leaf.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Lf::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number leaf, or an atom that parses as
    /// a number (RFC text often writes numerals as bare tokens).
    pub fn as_number(&self) -> Option<i64> {
        match self {
            Lf::Number(n) => Some(*n),
            Lf::Atom(s) => s.trim().parse().ok(),
            Lf::Pred(PredName::Num, args) if args.len() == 1 => args[0].as_number(),
            _ => None,
        }
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.args().iter().map(Lf::node_count).sum::<usize>()
    }

    /// Depth of the tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.args().iter().map(Lf::depth).max().unwrap_or(0)
    }

    /// Post-order traversal, visiting children before parents.
    pub fn visit_postorder<'a>(&'a self, f: &mut impl FnMut(&'a Lf)) {
        for a in self.args() {
            a.visit_postorder(f);
        }
        f(self);
    }

    /// Pre-order traversal.
    pub fn visit_preorder<'a>(&'a self, f: &mut impl FnMut(&'a Lf)) {
        f(self);
        for a in self.args() {
            a.visit_preorder(f);
        }
    }

    /// Collect every predicate name appearing in the tree (with repeats).
    pub fn predicates(&self) -> Vec<PredName> {
        let mut out = Vec::new();
        self.visit_preorder(&mut |n| {
            if let Lf::Pred(p, _) = n {
                out.push(p.clone());
            }
        });
        out
    }

    /// Collect every atom appearing in the tree (with repeats).
    pub fn atoms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_preorder(&mut |n| {
            if let Lf::Atom(s) = n {
                out.push(s.as_str());
            }
        });
        out
    }

    /// True if any node satisfies the predicate.
    pub fn contains(&self, f: &impl Fn(&Lf) -> bool) -> bool {
        if f(self) {
            return true;
        }
        self.args().iter().any(|a| a.contains(f))
    }

    /// True if the tree contains a node with the given predicate name.
    pub fn contains_pred(&self, name: &PredName) -> bool {
        self.contains(&|n| n.pred_name() == Some(name))
    }

    /// Replace every atom equal to `from` with `to`, returning a new tree.
    /// Used when re-parsing field-description sentences with a supplied
    /// subject (§4.1, "zero logical forms").
    pub fn substitute_atom(&self, from: &str, to: &str) -> Lf {
        match self {
            Lf::Atom(s) if s == from => Lf::Atom(to.to_string()),
            Lf::Atom(_) | Lf::Number(_) => self.clone(),
            Lf::Pred(p, args) => Lf::Pred(
                p.clone(),
                args.iter().map(|a| a.substitute_atom(from, to)).collect(),
            ),
        }
    }

    /// Apply a transformation bottom-up to every node.
    pub fn map_bottom_up(&self, f: &impl Fn(Lf) -> Lf) -> Lf {
        let rebuilt = match self {
            Lf::Pred(p, args) => {
                Lf::Pred(p.clone(), args.iter().map(|a| a.map_bottom_up(f)).collect())
            }
            other => other.clone(),
        };
        f(rebuilt)
    }
}

impl fmt::Display for Lf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lf::Atom(s) => write!(f, "'{s}'"),
            Lf::Number(n) => write!(f, "@Num({n})"),
            Lf::Pred(p, args) => {
                write!(f, "{p}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum_zero() -> Lf {
        Lf::is(Lf::atom("checksum"), Lf::num(0))
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(checksum_zero().to_string(), "@Is('checksum', @Num(0))");
    }

    #[test]
    fn figure2_lf2_display() {
        // LF 2 from Figure 2.
        let lf = Lf::pred(
            PredName::AdvBefore,
            vec![
                Lf::action("compute", vec![Lf::atom("checksum")]),
                Lf::is(Lf::atom("checksum_field"), Lf::atom("0")),
            ],
        );
        assert_eq!(
            lf.to_string(),
            "@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))"
        );
    }

    #[test]
    fn node_count_and_depth() {
        let lf = checksum_zero();
        assert_eq!(lf.node_count(), 3);
        assert_eq!(lf.depth(), 2);
        assert_eq!(Lf::atom("x").node_count(), 1);
        assert_eq!(Lf::atom("x").depth(), 1);
    }

    #[test]
    fn postorder_visits_children_first() {
        let lf = checksum_zero();
        let mut order = Vec::new();
        lf.visit_postorder(&mut |n| order.push(n.is_leaf()));
        assert_eq!(order, vec![true, true, false]);
    }

    #[test]
    fn preorder_visits_root_first() {
        let lf = checksum_zero();
        let mut order = Vec::new();
        lf.visit_preorder(&mut |n| order.push(n.is_leaf()));
        assert_eq!(order, vec![false, true, true]);
    }

    #[test]
    fn predicates_and_atoms_are_collected() {
        let lf = Lf::if_then(
            Lf::is(Lf::atom("code"), Lf::num(0)),
            Lf::is(Lf::atom("identifier"), Lf::num(0)),
        );
        assert_eq!(
            lf.predicates(),
            vec![PredName::If, PredName::Is, PredName::Is]
        );
        assert_eq!(lf.atoms(), vec!["code", "identifier"]);
    }

    #[test]
    fn contains_pred_finds_nested_predicates() {
        let lf = Lf::if_then(Lf::atom("a"), Lf::action("send", vec![]));
        assert!(lf.contains_pred(&PredName::Action));
        assert!(!lf.contains_pred(&PredName::Of));
    }

    #[test]
    fn substitute_atom_replaces_all_occurrences() {
        let lf = Lf::and(vec![Lf::atom("it"), Lf::is(Lf::atom("it"), Lf::num(3))]);
        let out = lf.substitute_atom("it", "type");
        assert_eq!(out.atoms(), vec!["type", "type"]);
    }

    #[test]
    fn as_number_handles_atoms_and_num_nodes() {
        assert_eq!(Lf::atom("16").as_number(), Some(16));
        assert_eq!(Lf::num(3).as_number(), Some(3));
        assert_eq!(
            Lf::pred(PredName::Num, vec![Lf::num(8)]).as_number(),
            Some(8)
        );
        assert_eq!(Lf::atom("checksum").as_number(), None);
    }

    #[test]
    fn map_bottom_up_rewrites_nodes() {
        let lf = Lf::is(Lf::atom("type code"), Lf::num(16));
        let out = lf.map_bottom_up(&|n| match n {
            Lf::Atom(s) if s == "type code" => Lf::atom("type"),
            other => other,
        });
        assert_eq!(out, Lf::is(Lf::atom("type"), Lf::num(16)));
    }

    #[test]
    fn action_constructor_puts_function_name_first() {
        let lf = Lf::action("compute", vec![Lf::atom("checksum")]);
        assert_eq!(lf.args()[0], Lf::atom("compute"));
        assert_eq!(lf.args().len(), 2);
    }
}
