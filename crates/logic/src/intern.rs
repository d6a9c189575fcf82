//! String interning and arena-backed logical forms.
//!
//! The boxed [`Lf`] tree is convenient but allocation-heavy: chart parsing
//! and winnowing clone, hash and compare thousands of small trees per
//! sentence, each carrying `String` atoms.  This module provides the cheap
//! representation the batch pipeline runs on:
//!
//! * [`Interner`] maps strings to dense [`Symbol`] ids (insertion-ordered,
//!   so a given interner is deterministic for a given input sequence);
//! * [`LfArena`] stores logical-form nodes in a hash-consed arena: equal
//!   subtrees always share one [`LfId`], so structural equality, hashing and
//!   "cloning" are all O(1) id operations.
//!
//! Symbols and ids are only meaningful relative to the interner/arena that
//! produced them; the batch pipeline therefore gives each worker its own
//! arena and resolves back to plain [`Lf`] values before merging results.

use crate::hash::{IdMap, IdSet};
use crate::lf::Lf;
use crate::pred::PredName;
use crate::types::{infer_atom_type, AtomType};
use std::collections::HashMap;

/// An interned string: a dense id into an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index (dense, starting at 0, in interning order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a symbol from a raw index (crate-internal: used by
    /// [`crate::pred::PredName::builtin_symbol`], whose indices are pinned
    /// to the arena pre-seeding order by a unit test).
    pub(crate) fn from_raw(index: u32) -> Symbol {
        Symbol(index)
    }
}

/// Insertion-ordered string interner.
///
/// Two strings are equal iff their symbols are equal — the invariant the
/// property tests pin (`Symbol` equality ⇔ string equality).  Its map keeps
/// std's hasher, as its keys are text from outside the program; the tables
/// keyed by what it and the arena assign use [`crate::IdHasher`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern a string, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        self.map.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        Symbol(id)
    }

    /// The symbol for `s`, if it has been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied().map(Symbol)
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// Panics if the symbol came from a different interner (out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Id of a node in an [`LfArena`].  Because the arena hash-conses, two ids
/// from the same arena are equal iff the logical forms they denote are
/// structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LfId(u32);

impl LfId {
    /// The raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena-resident logical-form node.  Atoms and predicate names are
/// [`Symbol`]s; children are [`LfId`]s into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LfNode {
    /// Interned scalar symbol.
    Atom(Symbol),
    /// Numeric literal.
    Num(i64),
    /// Predicate (name symbol) applied to arena children.
    Pred(Symbol, Vec<LfId>),
}

/// Hash-consed arena of logical forms with an embedded string interner.
///
/// Beyond storage, the arena carries the **per-node memo tables** of the
/// memoized check engine: the semantic type and numeric value of leaves
/// (keyed by [`Symbol`]), the canonical-form id of every node, a subtree
/// predicate-containment bitmask, and one violation-bitset plane per
/// disambiguation check family (keyed by [`LfId`]).  All of these are sound
/// to cache forever because the arena hash-conses: a node is immutable once
/// inserted, ids are never reused, and equal subtrees share one id — so a
/// memoized fact about `LfId` holds for every occurrence of that subtree
/// across all logical forms, sentences and (within one worker) corpora.
#[derive(Debug, Clone)]
pub struct LfArena {
    interner: Interner,
    nodes: Vec<LfNode>,
    dedup: IdMap<LfNode, u32>,
    canonical: IdMap<LfId, LfId>,
    atom_types: IdMap<Symbol, AtomType>,
    atom_numbers: IdMap<Symbol, Option<i64>>,
    pred_masks: Vec<Option<u64>>,
    verdicts: Vec<Vec<Option<u64>>>,
    verdict_hits: u64,
    verdict_misses: u64,
}

impl Default for LfArena {
    fn default() -> Self {
        LfArena::new()
    }
}

impl LfArena {
    /// An empty arena.  The interner is pre-seeded with
    /// [`PredName::BUILTIN_NAMES`], so every worker's arena assigns the
    /// same symbols to the core predicate vocabulary.
    pub fn new() -> LfArena {
        let mut interner = Interner::new();
        for name in PredName::BUILTIN_NAMES {
            interner.intern(name);
        }
        LfArena {
            interner,
            nodes: Vec::new(),
            dedup: IdMap::default(),
            canonical: IdMap::default(),
            atom_types: IdMap::default(),
            atom_numbers: IdMap::default(),
            pred_masks: Vec::new(),
            verdicts: Vec::new(),
            verdict_hits: 0,
            verdict_misses: 0,
        }
    }

    /// The embedded string interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of distinct nodes stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look at a node.
    pub fn node(&self, id: LfId) -> &LfNode {
        &self.nodes[id.index()]
    }

    fn insert(&mut self, node: LfNode) -> LfId {
        if let Some(&id) = self.dedup.get(&node) {
            return LfId(id);
        }
        let id = u32::try_from(self.nodes.len()).expect("arena overflow");
        self.dedup.insert(node.clone(), id);
        self.nodes.push(node);
        LfId(id)
    }

    /// Intern an atom leaf.
    pub fn atom(&mut self, s: &str) -> LfId {
        let sym = self.interner.intern(s);
        self.insert(LfNode::Atom(sym))
    }

    /// Intern a number leaf.
    pub fn num(&mut self, n: i64) -> LfId {
        self.insert(LfNode::Num(n))
    }

    /// Intern a bare string, without creating a node.
    pub fn intern_symbol(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Intern a predicate node over already-interned children.
    pub fn pred(&mut self, name: &PredName, args: Vec<LfId>) -> LfId {
        let sym = self.interner.intern(name.name());
        self.insert(LfNode::Pred(sym, args))
    }

    /// Intern a predicate node whose name symbol is already known.
    pub fn pred_from_symbol(&mut self, name: Symbol, args: Vec<LfId>) -> LfId {
        self.insert(LfNode::Pred(name, args))
    }

    /// Intern a whole [`Lf`] tree, sharing equal subtrees.
    pub fn intern_lf(&mut self, lf: &Lf) -> LfId {
        match lf {
            Lf::Atom(s) => self.atom(s),
            Lf::Number(n) => self.num(*n),
            Lf::Pred(p, args) => {
                let kids: Vec<LfId> = args.iter().map(|a| self.intern_lf(a)).collect();
                self.pred(p, kids)
            }
        }
    }

    /// Rebuild the boxed [`Lf`] tree for an arena node.
    pub fn resolve(&self, id: LfId) -> Lf {
        match self.node(id) {
            LfNode::Atom(sym) => Lf::Atom(self.interner.resolve(*sym).to_string()),
            LfNode::Num(n) => Lf::Number(*n),
            LfNode::Pred(sym, args) => {
                let name = PredName::from_name(self.interner.resolve(*sym));
                let kids = args.iter().map(|a| self.resolve(*a)).collect();
                Lf::Pred(name, kids)
            }
        }
    }

    /// The predicate name of a node, if it is a predicate.
    pub fn pred_name(&self, id: LfId) -> Option<PredName> {
        match self.node(id) {
            LfNode::Pred(sym, _) => Some(PredName::from_name(self.interner.resolve(*sym))),
            _ => None,
        }
    }

    /// Child ids of a predicate node (empty for leaves).
    pub fn args(&self, id: LfId) -> &[LfId] {
        match self.node(id) {
            LfNode::Pred(_, args) => args,
            _ => &[],
        }
    }

    /// Total node count of the tree rooted at `id` (shared subtrees are
    /// counted once per occurrence, matching [`Lf::node_count`]).
    pub fn node_count(&self, id: LfId) -> usize {
        1 + self
            .args(id)
            .iter()
            .map(|a| self.node_count(*a))
            .sum::<usize>()
    }

    /// The canonical representative of `id`'s isomorphism class: associative
    /// chains flattened, commutative children sorted.
    ///
    /// Because the arena hash-conses, canonical ids of two forms are equal
    /// iff [`crate::graph::canonical_form`]s of the resolved trees are equal:
    /// after recursive canonicalisation, structurally equal subtrees share
    /// one id, so sorting commutative children by id is a total order that
    /// matches sorting the resolved trees by their derived `Ord` up to
    /// permutation — the sorted child *sets* coincide, hence so do the
    /// rebuilt parent nodes.
    pub fn canonical(&mut self, id: LfId) -> LfId {
        if let Some(&c) = self.canonical.get(&id) {
            return c;
        }
        let canon = match self.node(id).clone() {
            LfNode::Atom(_) | LfNode::Num(_) => id,
            LfNode::Pred(sym, args) => {
                let name = self.interner.resolve(sym).to_string();
                let props = PredName::from_name(&name).properties();
                let mut canon_args: Vec<LfId> = Vec::with_capacity(args.len());
                for a in args {
                    let ca = self.canonical(a);
                    // Flatten nested uses of the same associative predicate,
                    // mirroring `graph::canonical_form`.
                    if props.associative {
                        if let LfNode::Pred(csym, inner) = self.node(ca) {
                            if *csym == sym {
                                canon_args.extend(inner.clone());
                                continue;
                            }
                        }
                    }
                    canon_args.push(ca);
                }
                if props.commutative {
                    // Sort by the resolved trees' `Ord`, so the canonical
                    // child order matches `graph::canonical_form` exactly
                    // and mixed interned/boxed comparisons agree.
                    canon_args.sort_by_cached_key(|a| self.resolve(*a));
                }
                self.insert(LfNode::Pred(sym, canon_args))
            }
        };
        self.canonical.insert(id, canon);
        canon
    }

    /// True when two arena forms are isomorphic modulo associativity and
    /// commutativity (id-compare of canonical representatives).
    pub fn isomorphic(&mut self, a: LfId, b: LfId) -> bool {
        self.canonical(a) == self.canonical(b)
    }

    /// Deduplicate ids, keeping the first representative of each
    /// isomorphism class (the interned counterpart of
    /// [`crate::graph::dedup_isomorphic`]).
    pub fn dedup_isomorphic(&mut self, ids: &[LfId]) -> Vec<LfId> {
        let mut seen = IdSet::default();
        let mut kept = Vec::new();
        for &id in ids {
            let c = self.canonical(id);
            if seen.insert(c) {
                kept.push(id);
            }
        }
        kept
    }

    // ---- per-node memo tables (the memoized check engine's storage) -------

    /// The semantic type of a node, memoized per leaf symbol: numbers are
    /// constants, predicates are untyped (`None`), atoms classify through
    /// [`infer_atom_type`] exactly once per distinct symbol.  The interned
    /// counterpart of [`crate::types::infer_lf_type`].
    pub fn type_of(&mut self, id: LfId) -> Option<AtomType> {
        match &self.nodes[id.index()] {
            LfNode::Num(_) => Some(AtomType::Constant),
            LfNode::Pred(..) => None,
            LfNode::Atom(sym) => {
                let sym = *sym;
                if let Some(&t) = self.atom_types.get(&sym) {
                    return Some(t);
                }
                let t = infer_atom_type(self.interner.resolve(sym));
                self.atom_types.insert(sym, t);
                Some(t)
            }
        }
    }

    /// The numeric value of a node, memoized per atom symbol — the interned
    /// counterpart of [`Lf::as_number`]: number leaves directly, atoms whose
    /// trimmed text parses as `i64`, and unary `@Num(...)` wrappers.
    pub fn number_of(&mut self, id: LfId) -> Option<i64> {
        match &self.nodes[id.index()] {
            LfNode::Num(n) => Some(*n),
            LfNode::Atom(sym) => {
                let sym = *sym;
                if let Some(&n) = self.atom_numbers.get(&sym) {
                    return n;
                }
                let n = self.interner.resolve(sym).trim().parse::<i64>().ok();
                self.atom_numbers.insert(sym, n);
                n
            }
            LfNode::Pred(sym, args) => {
                let num_sym = PredName::Num.builtin_symbol().expect("builtin");
                if *sym == num_sym && args.len() == 1 {
                    let child = args[0];
                    self.number_of(child)
                } else {
                    None
                }
            }
        }
    }

    /// Bitmask of the predicate-head symbols occurring anywhere in the
    /// subtree rooted at `id`, memoized per node.  Symbols with index < 63
    /// get their own bit (exact — in particular every builtin predicate);
    /// rarer high-index heads share the overflow bit 63.  This answers the
    /// `contains_pred` queries of the ordering checks in O(1) after the
    /// first visit.
    pub fn pred_mask(&mut self, id: LfId) -> u64 {
        if let Some(Some(m)) = self.pred_masks.get(id.index()) {
            return *m;
        }
        let mask = match &self.nodes[id.index()] {
            LfNode::Atom(_) | LfNode::Num(_) => 0,
            LfNode::Pred(sym, args) => {
                let (sym, args) = (*sym, args.clone());
                let mut m = Self::sym_bit(sym);
                for a in args {
                    m |= self.pred_mask(a);
                }
                m
            }
        };
        if self.pred_masks.len() <= id.index() {
            self.pred_masks.resize(self.nodes.len(), None);
        }
        self.pred_masks[id.index()] = Some(mask);
        mask
    }

    fn sym_bit(sym: Symbol) -> u64 {
        if sym.index() < 63 {
            1u64 << sym.index()
        } else {
            1u64 << 63
        }
    }

    /// Read a memoized verdict bitset for `(family, id)`.  Families are
    /// small dense indices chosen by the check engine; a plane is grown on
    /// first write.  Returns `None` when the verdict has not been computed
    /// yet.
    pub fn verdict_get(&mut self, family: usize, id: LfId) -> Option<u64> {
        let v = self
            .verdicts
            .get(family)
            .and_then(|plane| plane.get(id.index()))
            .copied()
            .flatten();
        if v.is_some() {
            self.verdict_hits += 1;
        }
        v
    }

    /// Record the verdict bitset for `(family, id)`.  Sound to keep forever:
    /// hash-consed nodes are immutable and ids are never reused.
    pub fn verdict_set(&mut self, family: usize, id: LfId, bits: u64) {
        if self.verdicts.len() <= family {
            self.verdicts.resize_with(family + 1, Vec::new);
        }
        let plane = &mut self.verdicts[family];
        if plane.len() <= id.index() {
            plane.resize(self.nodes.len().max(id.index() + 1), None);
        }
        plane[id.index()] = Some(bits);
        self.verdict_misses += 1;
    }

    /// `(hits, misses)` of the verdict memo — hits are reads answered from a
    /// plane, misses are verdicts computed and stored.  Over a corpus with
    /// repeated sub-structure the hit count should dominate.
    pub fn verdict_stats(&self) -> (u64, u64) {
        (self.verdict_hits, self.verdict_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{canonical_form, isomorphic, of_chain_left, of_chain_right};
    use crate::parse::parse_lf;

    #[test]
    fn interner_round_trips_and_dedups() {
        let mut i = Interner::new();
        let a = i.intern("checksum");
        let b = i.intern("type");
        let a2 = i.intern("checksum");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "checksum");
        assert_eq!(i.resolve(b), "type");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("checksum"), Some(a));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn fresh_arenas_assign_identical_symbols_to_builtins() {
        let a = LfArena::new();
        let b = LfArena::new();
        for name in PredName::BUILTIN_NAMES {
            assert_eq!(
                a.interner().get(name),
                b.interner().get(name),
                "workers must agree on {name}"
            );
            assert!(a.interner().get(name).is_some(), "{name} pre-seeded");
        }
    }

    #[test]
    fn arena_hash_conses_equal_trees() {
        let mut arena = LfArena::new();
        let lf = parse_lf("@Is('checksum', @Num(0))").unwrap();
        let a = arena.intern_lf(&lf);
        let b = arena.intern_lf(&lf);
        assert_eq!(a, b, "equal trees must share one id");
        let other = arena.intern_lf(&parse_lf("@Is('checksum', @Num(1))").unwrap());
        assert_ne!(a, other);
    }

    #[test]
    fn resolve_round_trips() {
        let mut arena = LfArena::new();
        for text in [
            "@Is('checksum', @Num(0))",
            "@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))",
            "@StartsWith(@Is('checksum', @Of('Ones', @Of('OnesSum', 'icmp_message'))), 'icmp_type')",
            "'bare_atom'",
            "@Num(-7)",
        ] {
            let lf = parse_lf(text).unwrap();
            let id = arena.intern_lf(&lf);
            assert_eq!(arena.resolve(id), lf, "round trip failed for {text}");
            assert_eq!(arena.node_count(id), lf.node_count());
        }
    }

    #[test]
    fn shared_subtrees_share_ids() {
        let mut arena = LfArena::new();
        let lf = parse_lf("@And(@Is('a', '0'), @Is('a', '0'))").unwrap();
        let id = arena.intern_lf(&lf);
        let kids = arena.args(id);
        assert_eq!(kids[0], kids[1], "identical children must be one node");
    }

    #[test]
    fn canonical_matches_boxed_canonicalization() {
        let mut arena = LfArena::new();
        let a = of_chain_left(Lf::atom("x"), Lf::atom("y"), Lf::atom("z"));
        let b = of_chain_right(Lf::atom("x"), Lf::atom("y"), Lf::atom("z"));
        let ia = arena.intern_lf(&a);
        let ib = arena.intern_lf(&b);
        assert!(arena.isomorphic(ia, ib));
        let ca = arena.canonical(ia);
        assert_eq!(arena.resolve(ca), canonical_form(&a));
    }

    #[test]
    fn commutative_sorting_agrees_with_boxed_form() {
        let mut arena = LfArena::new();
        let x = Lf::and(vec![Lf::atom("b"), Lf::atom("a"), Lf::num(3)]);
        let ix = arena.intern_lf(&x);
        let canon = arena.canonical(ix);
        assert_eq!(arena.resolve(canon), canonical_form(&x));
    }

    #[test]
    fn isomorphism_agrees_with_boxed_implementation() {
        let mut arena = LfArena::new();
        let pairs = [
            ("@And('a', 'b')", "@And('b', 'a')"),
            ("@Is('a', 'b')", "@Is('b', 'a')"),
            ("@Of(@Of('a', 'b'), 'c')", "@Of('a', @Of('b', 'c'))"),
            ("@Is('x', @Num(0))", "@Is('x', @Num(1))"),
        ];
        for (ta, tb) in pairs {
            let a = parse_lf(ta).unwrap();
            let b = parse_lf(tb).unwrap();
            let ia = arena.intern_lf(&a);
            let ib = arena.intern_lf(&b);
            assert_eq!(
                arena.isomorphic(ia, ib),
                isomorphic(&a, &b),
                "disagreement on ({ta}, {tb})"
            );
        }
    }

    #[test]
    fn type_and_number_memos_agree_with_boxed_inference() {
        use crate::lf::Lf as BoxedLf;
        use crate::types::infer_lf_type;
        let mut arena = LfArena::new();
        for text in [
            "'checksum'",
            "'compute'",
            "'3'",
            "@Num(-7)",
            "@Num('8')",
            "@Is('checksum', @Num(0))",
            "'bfd.SessionState'",
        ] {
            let lf = crate::parse::parse_lf(text).unwrap();
            let id = arena.intern_lf(&lf);
            assert_eq!(arena.type_of(id), infer_lf_type(&lf), "type_of({text})");
            assert_eq!(
                arena.number_of(id),
                BoxedLf::as_number(&lf),
                "number_of({text})"
            );
            // Second query answers from the memo and must agree.
            assert_eq!(arena.type_of(id), infer_lf_type(&lf));
            assert_eq!(arena.number_of(id), BoxedLf::as_number(&lf));
        }
    }

    #[test]
    fn pred_mask_answers_containment_queries() {
        let mut arena = LfArena::new();
        let lf = parse_lf("@If(@Is('code', @Num(0)), @May(@Is('identifier', @Num(0))))").unwrap();
        let id = arena.intern_lf(&lf);
        for (pred, expect) in [
            (PredName::If, true),
            (PredName::Is, true),
            (PredName::May, true),
            (PredName::Must, false),
            (PredName::AdvBefore, false),
        ] {
            let sym = pred.builtin_symbol().unwrap();
            let contained = arena.pred_mask(id) & (1u64 << sym.index()) != 0;
            assert_eq!(
                contained,
                lf.contains_pred(&pred),
                "containment of {pred:?}"
            );
            assert_eq!(contained, expect);
        }
        // A leaf contains no predicates.
        let leaf = arena.atom("checksum");
        assert_eq!(arena.pred_mask(leaf), 0);
    }

    #[test]
    fn verdict_planes_store_and_count() {
        let mut arena = LfArena::new();
        let id = arena.atom("x");
        assert_eq!(arena.verdict_get(0, id), None);
        arena.verdict_set(0, id, 0b101);
        assert_eq!(arena.verdict_get(0, id), Some(0b101));
        // A different family is an independent plane.
        assert_eq!(arena.verdict_get(3, id), None);
        arena.verdict_set(3, id, 0);
        assert_eq!(arena.verdict_get(3, id), Some(0));
        let (hits, misses) = arena.verdict_stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 2);
    }

    #[test]
    fn dedup_isomorphic_keeps_first_representative() {
        let mut arena = LfArena::new();
        let l = of_chain_left(Lf::atom("a"), Lf::atom("b"), Lf::atom("c"));
        let r = of_chain_right(Lf::atom("a"), Lf::atom("b"), Lf::atom("c"));
        let other = Lf::is(Lf::atom("x"), Lf::num(1));
        let ids = vec![
            arena.intern_lf(&l),
            arena.intern_lf(&r),
            arena.intern_lf(&other),
        ];
        let kept = arena.dedup_isomorphic(&ids);
        assert_eq!(kept, vec![ids[0], ids[2]]);
    }
}
