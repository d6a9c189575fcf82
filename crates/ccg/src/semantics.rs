//! Lambda-calculus semantic terms attached to CCG lexical entries.
//!
//! Lexical entries pair a syntactic category with a semantic term, e.g. the
//! copula *is* carries `λx.λy.@Is(y, x)` (§3).  When the parser combines two
//! constituents, it applies one term to the other and beta-reduces; a parse
//! that spans the whole sentence yields a closed term, which converts to a
//! logical form.
//!
//! The lexicon is written in boxed [`SemTerm`]s; the parser interns them
//! into a [`SemArena`], which does the beta reduction and the conversion to
//! a logical form.

use sage_logic::{IdMap, Lf, LfArena, LfId, LfNode, PredName, Symbol};
use std::fmt;

/// A semantic term: lambda calculus over logical-form fragments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SemTerm {
    /// A bound variable, identified by name.
    Var(String),
    /// Lambda abstraction `λv. body`.
    Lam(String, Box<SemTerm>),
    /// Application `f a`.
    App(Box<SemTerm>, Box<SemTerm>),
    /// A ground logical form (atom, number or fully-built predicate).
    Ground(Lf),
    /// A predicate whose arguments may still contain variables; becomes a
    /// [`Lf::Pred`] once all arguments are ground.
    Pred(PredName, Vec<SemTerm>),
}

impl SemTerm {
    /// A ground atom.
    pub fn atom(s: impl Into<String>) -> SemTerm {
        SemTerm::Ground(Lf::atom(s))
    }

    /// A ground number.
    pub fn num(n: i64) -> SemTerm {
        SemTerm::Ground(Lf::num(n))
    }

    /// A variable.
    pub fn var(name: &str) -> SemTerm {
        SemTerm::Var(name.to_string())
    }

    /// `λname. body`.
    pub fn lam(name: &str, body: SemTerm) -> SemTerm {
        SemTerm::Lam(name.to_string(), Box::new(body))
    }

    /// Application (not yet reduced).
    pub fn app(f: SemTerm, a: SemTerm) -> SemTerm {
        SemTerm::App(Box::new(f), Box::new(a))
    }

    /// A predicate over sub-terms.
    pub fn pred(name: PredName, args: Vec<SemTerm>) -> SemTerm {
        SemTerm::Pred(name, args)
    }
}

/// Id of a semantic term in a [`SemArena`].
///
/// The arena hash-conses, so two ids from the same arena are equal iff the
/// terms they denote are structurally equal — the chart parser's per-cell
/// duplicate check is therefore a hash of two `u32`s instead of a deep
/// [`SemTerm`] comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SemId(u32);

impl SemId {
    /// The raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena-resident semantic-term node.  Variable names are [`Symbol`]s,
/// ground logical forms are [`LfId`]s into the arena's embedded [`LfArena`],
/// and sub-terms are [`SemId`]s into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SemNode {
    Var(Symbol),
    Lam(Symbol, SemId),
    App(SemId, SemId),
    Ground(LfId),
    Pred(PredName, Vec<SemId>),
}

/// Hash-consed arena of lambda-calculus semantic terms.
///
/// This is the zero-clone backing store of the interned chart parser: the
/// combination rules build *new nodes* (`app`, `lam`, `pred`) instead of
/// cloning sub-trees, and beta reduction ([`SemArena::normalize`]) rebuilds
/// only the spine it rewrites, sharing every untouched subtree.  Reduction
/// results and ground conversions are memoized by id, so re-normalizing a
/// chart item is a table lookup.
///
/// A workspace owns one `SemArena` and recycles it across sentences; nodes
/// are immutable and deduplicated, so the arena grows with the number of
/// *distinct* terms the corpus produces, not with the number of parses.
#[derive(Debug, Clone)]
pub struct SemArena {
    lfs: LfArena,
    nodes: Vec<SemNode>,
    dedup: IdMap<SemNode, u32>,
    norm_memo: IdMap<SemId, SemId>,
    lf_memo: IdMap<SemId, Option<LfId>>,
}

impl Default for SemArena {
    fn default() -> Self {
        SemArena::new()
    }
}

impl SemArena {
    /// An empty arena with a fresh embedded [`LfArena`].
    pub fn new() -> SemArena {
        SemArena {
            lfs: LfArena::new(),
            nodes: Vec::new(),
            dedup: IdMap::default(),
            norm_memo: IdMap::default(),
            lf_memo: IdMap::default(),
        }
    }

    /// The embedded logical-form arena (ground terms resolve through it).
    pub fn lf_arena(&self) -> &LfArena {
        &self.lfs
    }

    /// Mutable access to the embedded logical-form arena.
    pub fn lf_arena_mut(&mut self) -> &mut LfArena {
        &mut self.lfs
    }

    /// Number of distinct semantic-term nodes stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn insert(&mut self, node: SemNode) -> SemId {
        if let Some(&id) = self.dedup.get(&node) {
            return SemId(id);
        }
        let id = u32::try_from(self.nodes.len()).expect("semantic arena overflow");
        self.dedup.insert(node.clone(), id);
        self.nodes.push(node);
        SemId(id)
    }

    /// Intern a variable name and build its `Var` node.
    pub fn var(&mut self, name: &str) -> SemId {
        let sym = self.lfs.intern_symbol(name);
        self.var_sym(sym)
    }

    /// `Var` node over an already-interned name.
    pub fn var_sym(&mut self, name: Symbol) -> SemId {
        self.insert(SemNode::Var(name))
    }

    /// `λname. body` over an already-interned name.
    pub fn lam(&mut self, name: Symbol, body: SemId) -> SemId {
        self.insert(SemNode::Lam(name, body))
    }

    /// Application node (not reduced).
    pub fn app(&mut self, f: SemId, a: SemId) -> SemId {
        self.insert(SemNode::App(f, a))
    }

    /// Predicate node over sub-terms.
    pub fn pred(&mut self, name: PredName, args: Vec<SemId>) -> SemId {
        self.insert(SemNode::Pred(name, args))
    }

    /// Ground node over an already-interned logical form.
    pub fn ground(&mut self, lf: LfId) -> SemId {
        self.insert(SemNode::Ground(lf))
    }

    /// Ground atom.
    pub fn atom(&mut self, s: &str) -> SemId {
        let lf = self.lfs.atom(s);
        self.ground(lf)
    }

    /// Ground number.
    pub fn num(&mut self, n: i64) -> SemId {
        let lf = self.lfs.num(n);
        self.ground(lf)
    }

    /// Intern a boxed [`SemTerm`] tree, sharing equal subtrees.
    pub fn intern_term(&mut self, term: &SemTerm) -> SemId {
        match term {
            SemTerm::Var(v) => self.var(v),
            SemTerm::Lam(v, body) => {
                let sym = self.lfs.intern_symbol(v);
                let b = self.intern_term(body);
                self.lam(sym, b)
            }
            SemTerm::App(f, a) => {
                let fi = self.intern_term(f);
                let ai = self.intern_term(a);
                self.app(fi, ai)
            }
            SemTerm::Ground(lf) => {
                let id = self.lfs.intern_lf(lf);
                self.ground(id)
            }
            SemTerm::Pred(p, args) => {
                let kids: Vec<SemId> = args.iter().map(|a| self.intern_term(a)).collect();
                self.pred(p.clone(), kids)
            }
        }
    }

    /// Rebuild the boxed [`SemTerm`] for an arena id.
    pub fn resolve(&self, id: SemId) -> SemTerm {
        match &self.nodes[id.index()] {
            SemNode::Var(v) => SemTerm::Var(self.lfs.interner().resolve(*v).to_string()),
            SemNode::Lam(v, body) => SemTerm::Lam(
                self.lfs.interner().resolve(*v).to_string(),
                Box::new(self.resolve(*body)),
            ),
            SemNode::App(f, a) => {
                SemTerm::App(Box::new(self.resolve(*f)), Box::new(self.resolve(*a)))
            }
            SemNode::Ground(lf) => SemTerm::Ground(self.lfs.resolve(*lf)),
            SemNode::Pred(p, args) => {
                SemTerm::Pred(p.clone(), args.iter().map(|a| self.resolve(*a)).collect())
            }
        }
    }

    /// Rebuild the boxed [`Lf`] for a logical form in the embedded arena.
    pub fn resolve_lf(&self, id: LfId) -> Lf {
        self.lfs.resolve(id)
    }

    /// Substitute `value` for free occurrences of variable `name`,
    /// rebuilding only the rewritten spine.
    fn substitute(&mut self, id: SemId, name: Symbol, value: SemId) -> SemId {
        match self.nodes[id.index()].clone() {
            SemNode::Var(v) if v == name => value,
            SemNode::Var(_) | SemNode::Ground(_) => id,
            SemNode::Lam(v, body) => {
                if v == name {
                    // Shadowed; do not substitute inside.
                    id
                } else {
                    let b = self.substitute(body, name, value);
                    self.lam(v, b)
                }
            }
            SemNode::App(f, a) => {
                let fr = self.substitute(f, name, value);
                let ar = self.substitute(a, name, value);
                self.app(fr, ar)
            }
            SemNode::Pred(p, args) => {
                let mut kids = Vec::with_capacity(args.len());
                for a in args {
                    kids.push(self.substitute(a, name, value));
                }
                self.pred(p, kids)
            }
        }
    }

    /// One parallel reduction pass: both sides of an application reduce,
    /// then a lambda on the left is applied to the reduced argument.
    fn step(&mut self, id: SemId) -> (SemId, bool) {
        match self.nodes[id.index()].clone() {
            SemNode::App(f, a) => {
                let (f_r, f_changed) = self.step(f);
                let (a_r, a_changed) = self.step(a);
                if let SemNode::Lam(v, body) = self.nodes[f_r.index()] {
                    (self.substitute(body, v, a_r), true)
                } else {
                    (self.app(f_r, a_r), f_changed || a_changed)
                }
            }
            SemNode::Lam(v, body) => {
                let (b, changed) = self.step(body);
                (self.lam(v, b), changed)
            }
            SemNode::Pred(p, args) => {
                let mut changed = false;
                let mut kids = Vec::with_capacity(args.len());
                for a in args {
                    let (r, c) = self.step(a);
                    changed |= c;
                    kids.push(r);
                }
                (self.pred(p, kids), changed)
            }
            SemNode::Var(_) | SemNode::Ground(_) => (id, false),
        }
    }

    /// Beta-reduce to normal form in at most 64 reduction passes, so
    /// malformed inputs such as self-application terminate.  Results are
    /// memoized by id.
    pub fn normalize(&mut self, id: SemId) -> SemId {
        if let Some(&n) = self.norm_memo.get(&id) {
            return n;
        }
        let mut term = id;
        for _ in 0..64 {
            let (next, changed) = self.step(term);
            term = next;
            if !changed {
                break;
            }
        }
        self.norm_memo.insert(id, term);
        term
    }

    /// Normalize a closed term and convert it to a logical form in the
    /// embedded arena.  Returns `None` if lambdas, variables or unreduced
    /// applications remain; memoized by id.
    pub fn to_lf_id(&mut self, id: SemId) -> Option<LfId> {
        if let Some(&cached) = self.lf_memo.get(&id) {
            return cached;
        }
        let normal = self.normalize(id);
        let result = match self.nodes[normal.index()].clone() {
            SemNode::Ground(lf) => Some(lf),
            SemNode::Pred(p, args) => {
                let mut kids = Vec::with_capacity(args.len());
                let mut ok = true;
                for a in args {
                    match self.to_lf_id(a) {
                        Some(k) => kids.push(k),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                ok.then(|| self.lfs.pred(&p, kids))
            }
            SemNode::Var(_) | SemNode::Lam(..) | SemNode::App(..) => None,
        };
        self.lf_memo.insert(id, result);
        result
    }

    /// The atom symbol of a term that converts to a ground atom, if any —
    /// used by the coordination rule to pick `@And` vs `@Or` without
    /// rebuilding a boxed tree.
    pub fn ground_atom(&mut self, id: SemId) -> Option<Symbol> {
        let lf = self.to_lf_id(id)?;
        match self.lfs.node(lf) {
            LfNode::Atom(sym) => Some(*sym),
            _ => None,
        }
    }
}

impl fmt::Display for SemTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemTerm::Var(v) => write!(f, "{v}"),
            SemTerm::Lam(v, body) => write!(f, "λ{v}.{body}"),
            SemTerm::App(g, a) => write!(f, "({g} {a})"),
            SemTerm::Ground(lf) => write!(f, "{lf}"),
            SemTerm::Pred(p, args) => {
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

    /// The paper's lexical entry for "is": λx.λy.@Is(y, x).
    fn is_semantics() -> SemTerm {
        SemTerm::lam(
            "x",
            SemTerm::lam(
                "y",
                SemTerm::pred(PredName::Is, vec![SemTerm::var("y"), SemTerm::var("x")]),
            ),
        )
    }

    /// Intern `term`, reduce it and read back its logical form.
    fn to_lf(arena: &mut SemArena, term: &SemTerm) -> Option<Lf> {
        let id = arena.intern_term(term);
        arena.to_lf_id(id).map(|lf| arena.resolve_lf(lf))
    }

    /// Intern `term` and read back its normal form.
    fn normalize(arena: &mut SemArena, term: &SemTerm) -> SemTerm {
        let id = arena.intern_term(term);
        let normal = arena.normalize(id);
        arena.resolve(normal)
    }

    #[test]
    fn checksum_is_zero_reduces_to_paper_lf() {
        // "checksum is zero" — apply `is` to the object then the subject.
        let mut arena = SemArena::new();
        let applied = SemTerm::app(
            SemTerm::app(is_semantics(), SemTerm::num(0)),
            SemTerm::atom("checksum"),
        );
        assert_eq!(
            to_lf(&mut arena, &applied),
            Some(Lf::is(Lf::atom("checksum"), Lf::num(0)))
        );
        // The reduced term and the literal predicate hash-cons to one LF id.
        let applied = arena.intern_term(&applied);
        let literal = arena.intern_term(&SemTerm::pred(
            PredName::Is,
            vec![SemTerm::atom("checksum"), SemTerm::num(0)],
        ));
        assert_eq!(arena.to_lf_id(applied), arena.to_lf_id(literal));
    }

    #[test]
    fn normalization_is_stable() {
        let mut arena = SemArena::new();
        let t = arena.intern_term(&SemTerm::app(is_semantics(), SemTerm::num(3)));
        let n1 = arena.normalize(t);
        assert_ne!(n1, t);
        assert_eq!(arena.normalize(n1), n1);
    }

    #[test]
    fn unreduced_terms_are_not_ground() {
        let mut arena = SemArena::new();
        assert_eq!(to_lf(&mut arena, &is_semantics()), None);
        assert_eq!(
            to_lf(&mut arena, &SemTerm::atom("checksum")),
            Some(Lf::atom("checksum"))
        );
        let partial = SemTerm::app(is_semantics(), SemTerm::num(0));
        assert_eq!(to_lf(&mut arena, &partial), None);
    }

    #[test]
    fn shadowed_variables_are_not_substituted() {
        // λx.(λx. x) applied to 'a' must leave the inner x bound.
        let mut arena = SemArena::new();
        let inner = SemTerm::lam("x", SemTerm::var("x"));
        let outer = SemTerm::lam("x", inner.clone());
        let applied = SemTerm::app(outer, SemTerm::atom("a"));
        assert_eq!(normalize(&mut arena, &applied), inner);
    }

    #[test]
    fn pred_arguments_reduce() {
        let mut arena = SemArena::new();
        let t = SemTerm::pred(
            PredName::And,
            vec![
                SemTerm::app(SemTerm::lam("x", SemTerm::var("x")), SemTerm::atom("a")),
                SemTerm::atom("b"),
            ],
        );
        assert_eq!(
            to_lf(&mut arena, &t),
            Some(Lf::and(vec![Lf::atom("a"), Lf::atom("b")]))
        );
    }

    #[test]
    fn display_shows_lambdas() {
        let s = is_semantics().to_string();
        assert!(s.contains('λ'));
        assert!(s.contains("@Is"));
    }

    fn sem_fixtures() -> Vec<SemTerm> {
        vec![
            SemTerm::atom("checksum"),
            SemTerm::num(0),
            is_semantics(),
            SemTerm::app(
                SemTerm::app(is_semantics(), SemTerm::num(0)),
                SemTerm::atom("checksum"),
            ),
            SemTerm::app(is_semantics(), SemTerm::num(3)),
            SemTerm::lam(
                "z",
                SemTerm::app(
                    is_semantics(),
                    SemTerm::app(SemTerm::lam("x", SemTerm::var("x")), SemTerm::var("z")),
                ),
            ),
            SemTerm::pred(
                PredName::And,
                vec![
                    SemTerm::app(SemTerm::lam("x", SemTerm::var("x")), SemTerm::atom("a")),
                    SemTerm::atom("b"),
                ],
            ),
            // Shadowing: λx.(λx. x) applied to 'a'.
            SemTerm::app(
                SemTerm::lam("x", SemTerm::lam("x", SemTerm::var("x"))),
                SemTerm::atom("a"),
            ),
        ]
    }

    #[test]
    fn arena_round_trips_and_hash_conses() {
        let mut arena = SemArena::new();
        for term in sem_fixtures() {
            let a = arena.intern_term(&term);
            let b = arena.intern_term(&term);
            assert_eq!(a, b, "equal terms must share one id: {term}");
            assert_eq!(arena.resolve(a), term, "round trip failed for {term}");
        }
        assert!(!arena.is_empty());
        assert!(arena.len() >= sem_fixtures().len());
    }

    #[test]
    fn arena_ground_atom_reads_conjunction_markers() {
        let mut arena = SemArena::new();
        let and = arena.intern_term(&SemTerm::atom("and"));
        let or = arena.intern_term(&SemTerm::atom("or"));
        let open = arena.intern_term(&is_semantics());
        let a = arena.ground_atom(and).unwrap();
        let o = arena.ground_atom(or).unwrap();
        assert_eq!(arena.lf_arena().interner().resolve(a), "and");
        assert_eq!(arena.lf_arena().interner().resolve(o), "or");
        assert_eq!(arena.ground_atom(open), None);
        let num = arena.intern_term(&SemTerm::num(1));
        assert_eq!(arena.ground_atom(num), None);
    }

    #[test]
    fn arena_clone_preserves_ids() {
        let mut arena = SemArena::new();
        let term = SemTerm::app(
            SemTerm::app(is_semantics(), SemTerm::num(0)),
            SemTerm::atom("checksum"),
        );
        let id = arena.intern_term(&term);
        let mut clone = arena.clone();
        assert_eq!(clone.intern_term(&term), id);
        assert_eq!(clone.resolve(id), arena.resolve(id));
    }

    #[test]
    fn arena_bounded_reduction_does_not_hang() {
        // Self-application reduces to itself on every pass; the pass bound
        // stops it, leaving the term as it was and without a logical form.
        let mut arena = SemArena::new();
        let omega = SemTerm::lam("x", SemTerm::app(SemTerm::var("x"), SemTerm::var("x")));
        let t = SemTerm::app(omega.clone(), omega);
        assert_eq!(normalize(&mut arena, &t), t);
        assert_eq!(to_lf(&mut arena, &t), None);
    }
}
