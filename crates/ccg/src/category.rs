//! CCG syntactic categories.
//!
//! A category is either *primitive* (`N`, `NP`, `S`, `PP`, `CONJ`, `PUNCT`)
//! or *complex*: `X/Y` (looks for a `Y` to its right to form an `X`) or
//! `X\Y` (looks for a `Y` to its left).  Complex categories nest, e.g. the
//! transitive-verb category `(S\NP)/NP`.

use std::collections::HashMap;
use std::fmt;

/// Direction of the argument a complex category is looking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slash {
    /// `X/Y`: the argument appears to the right.
    Forward,
    /// `X\Y`: the argument appears to the left.
    Backward,
}

/// A CCG category.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Category {
    /// Noun.
    N,
    /// Noun phrase.
    NP,
    /// Sentence.
    S,
    /// Prepositional phrase.
    PP,
    /// Coordinating conjunction (special-cased by the coordination rule).
    Conj,
    /// Punctuation (absorbed by punctuation rules).
    Punct,
    /// A complex category `result/arg` or `result\arg`.
    Complex {
        /// The category produced once the argument is found.
        result: Box<Category>,
        /// Which side the argument is expected on.
        slash: Slash,
        /// The category of the expected argument.
        arg: Box<Category>,
    },
}

impl Category {
    /// Build `result / arg` (argument expected to the right).
    pub fn forward(result: Category, arg: Category) -> Category {
        Category::Complex {
            result: Box::new(result),
            slash: Slash::Forward,
            arg: Box::new(arg),
        }
    }

    /// Build `result \ arg` (argument expected to the left).
    pub fn backward(result: Category, arg: Category) -> Category {
        Category::Complex {
            result: Box::new(result),
            slash: Slash::Backward,
            arg: Box::new(arg),
        }
    }

    /// The intransitive-verb category `S\NP`.
    pub fn verb_intrans() -> Category {
        Category::backward(Category::S, Category::NP)
    }

    /// The transitive-verb category `(S\NP)/NP`.
    pub fn verb_trans() -> Category {
        Category::forward(Category::verb_intrans(), Category::NP)
    }

    /// The noun-modifier category `NP/NP`.
    pub fn np_modifier() -> Category {
        Category::forward(Category::NP, Category::NP)
    }

    /// The post-modifier category `NP\NP` (used by "of"-phrases once they
    /// have consumed their object).
    pub fn np_postmodifier() -> Category {
        Category::backward(Category::NP, Category::NP)
    }

    /// The sentence-modifier category `S/S`.
    pub fn sentence_modifier() -> Category {
        Category::forward(Category::S, Category::S)
    }

    /// True for primitive (non-complex) categories.
    pub fn is_primitive(&self) -> bool {
        !matches!(self, Category::Complex { .. })
    }
}

/// Id of a category in a [`CatArena`].
///
/// Because the arena hash-conses, two ids from the same arena are equal iff
/// the categories they denote are structurally equal, so the chart parser's
/// unification is an integer compare (plus the `N`/`NP` coercion check)
/// instead of a tree walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CatId(u32);

impl CatId {
    /// The raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena-resident category node: a primitive, or a complex category whose
/// result/argument are [`CatId`]s into the same arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CatNode {
    Prim(u8),
    Complex {
        result: CatId,
        slash: Slash,
        arg: CatId,
    },
}

/// Hash-consed arena of CCG categories.
///
/// The six primitive categories are pre-seeded at fixed ids (the associated
/// constants [`CatArena::N`] … [`CatArena::PUNCT`]), so every arena — and
/// every clone of an arena — agrees on them.  Complex categories are
/// deduplicated on insert: equal category trees always share one [`CatId`].
#[derive(Debug, Clone)]
pub struct CatArena {
    nodes: Vec<CatNode>,
    dedup: HashMap<CatNode, u32>,
}

impl Default for CatArena {
    fn default() -> Self {
        CatArena::new()
    }
}

impl CatArena {
    /// Fixed id of the primitive noun category.
    pub const N: CatId = CatId(0);
    /// Fixed id of the primitive noun-phrase category.
    pub const NP: CatId = CatId(1);
    /// Fixed id of the primitive sentence category.
    pub const S: CatId = CatId(2);
    /// Fixed id of the primitive prepositional-phrase category.
    pub const PP: CatId = CatId(3);
    /// Fixed id of the conjunction category.
    pub const CONJ: CatId = CatId(4);
    /// Fixed id of the punctuation category.
    pub const PUNCT: CatId = CatId(5);

    /// An arena pre-seeded with the six primitive categories.
    pub fn new() -> CatArena {
        let mut arena = CatArena {
            nodes: Vec::new(),
            dedup: HashMap::new(),
        };
        for prim in 0..6u8 {
            arena.insert(CatNode::Prim(prim));
        }
        arena
    }

    fn insert(&mut self, node: CatNode) -> CatId {
        if let Some(&id) = self.dedup.get(&node) {
            return CatId(id);
        }
        let id = u32::try_from(self.nodes.len()).expect("category arena overflow");
        self.dedup.insert(node, id);
        self.nodes.push(node);
        CatId(id)
    }

    /// Number of distinct categories stored (≥ 6: the primitives).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// False: the primitives are always present.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Intern `result / arg` (argument expected to the right).
    pub fn forward(&mut self, result: CatId, arg: CatId) -> CatId {
        self.insert(CatNode::Complex {
            result,
            slash: Slash::Forward,
            arg,
        })
    }

    /// Intern `result \ arg` (argument expected to the left).
    pub fn backward(&mut self, result: CatId, arg: CatId) -> CatId {
        self.insert(CatNode::Complex {
            result,
            slash: Slash::Backward,
            arg,
        })
    }

    /// Intern a boxed [`Category`] tree, sharing equal subtrees.
    pub fn intern(&mut self, cat: &Category) -> CatId {
        match cat {
            Category::N => Self::N,
            Category::NP => Self::NP,
            Category::S => Self::S,
            Category::PP => Self::PP,
            Category::Conj => Self::CONJ,
            Category::Punct => Self::PUNCT,
            Category::Complex { result, slash, arg } => {
                let r = self.intern(result);
                let a = self.intern(arg);
                self.insert(CatNode::Complex {
                    result: r,
                    slash: *slash,
                    arg: a,
                })
            }
        }
    }

    /// If complex, the `(result, slash, arg)` id triple.
    pub fn as_complex(&self, id: CatId) -> Option<(CatId, Slash, CatId)> {
        match self.nodes[id.index()] {
            CatNode::Complex { result, slash, arg } => Some((result, slash, arg)),
            CatNode::Prim(_) => None,
        }
    }

    /// Categories unify if they are equal, or one is `N` and the other `NP`
    /// (RFC prose freely uses bare nouns where noun phrases are expected).
    /// Pure id arithmetic — no arena access — because hash-consing makes id
    /// equality coincide with structural equality.
    pub fn unifies(a: CatId, b: CatId) -> bool {
        a == b || (a == Self::N && b == Self::NP) || (a == Self::NP && b == Self::N)
    }

    /// Rebuild the boxed [`Category`] tree for an arena id.
    pub fn resolve(&self, id: CatId) -> Category {
        match self.nodes[id.index()] {
            CatNode::Prim(0) => Category::N,
            CatNode::Prim(1) => Category::NP,
            CatNode::Prim(2) => Category::S,
            CatNode::Prim(3) => Category::PP,
            CatNode::Prim(4) => Category::Conj,
            CatNode::Prim(_) => Category::Punct,
            CatNode::Complex { result, slash, arg } => Category::Complex {
                result: Box::new(self.resolve(result)),
                slash,
                arg: Box::new(self.resolve(arg)),
            },
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::N => write!(f, "N"),
            Category::NP => write!(f, "NP"),
            Category::S => write!(f, "S"),
            Category::PP => write!(f, "PP"),
            Category::Conj => write!(f, "CONJ"),
            Category::Punct => write!(f, "PUNCT"),
            Category::Complex { result, slash, arg } => {
                let slash_ch = match slash {
                    Slash::Forward => '/',
                    Slash::Backward => '\\',
                };
                let fmt_side = |c: &Category| {
                    if c.is_primitive() {
                        format!("{c}")
                    } else {
                        format!("({c})")
                    }
                };
                write!(f, "{}{}{}", fmt_side(result), slash_ch, fmt_side(arg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_ccg_notation() {
        assert_eq!(Category::verb_intrans().to_string(), "S\\NP");
        assert_eq!(Category::verb_trans().to_string(), "(S\\NP)/NP");
        assert_eq!(Category::np_modifier().to_string(), "NP/NP");
        assert_eq!(Category::sentence_modifier().to_string(), "S/S");
    }

    #[test]
    fn unification_allows_n_np_coercion() {
        let mut arena = CatArena::new();
        let vi = arena.intern(&Category::verb_intrans());
        let vt = arena.intern(&Category::verb_trans());
        assert!(CatArena::unifies(CatArena::N, CatArena::NP));
        assert!(CatArena::unifies(CatArena::NP, CatArena::N));
        assert!(CatArena::unifies(CatArena::NP, CatArena::NP));
        assert!(CatArena::unifies(vt, vt));
        assert!(!CatArena::unifies(CatArena::S, CatArena::NP));
        assert!(!CatArena::unifies(CatArena::N, CatArena::S));
        assert!(!CatArena::unifies(vi, vt));
        assert!(!CatArena::unifies(vi, CatArena::NP));
    }

    #[test]
    fn primitive_check() {
        assert!(Category::S.is_primitive());
        assert!(!Category::verb_intrans().is_primitive());
    }

    #[test]
    fn arena_hash_conses_and_round_trips() {
        let mut arena = CatArena::new();
        for cat in [
            Category::N,
            Category::NP,
            Category::S,
            Category::PP,
            Category::Conj,
            Category::Punct,
            Category::verb_intrans(),
            Category::verb_trans(),
            Category::np_modifier(),
            Category::np_postmodifier(),
            Category::sentence_modifier(),
        ] {
            let a = arena.intern(&cat);
            let b = arena.intern(&cat);
            assert_eq!(a, b, "equal categories must share one id: {cat}");
            assert_eq!(arena.resolve(a), cat, "round trip failed for {cat}");
        }
        assert_ne!(
            arena.intern(&Category::verb_intrans()),
            arena.intern(&Category::verb_trans())
        );
    }

    #[test]
    fn arena_primitives_have_fixed_ids() {
        let mut a = CatArena::new();
        let mut b = CatArena::new();
        assert_eq!(a.intern(&Category::N), CatArena::N);
        assert_eq!(a.intern(&Category::NP), CatArena::NP);
        assert_eq!(a.intern(&Category::S), CatArena::S);
        assert_eq!(a.intern(&Category::PP), CatArena::PP);
        assert_eq!(a.intern(&Category::Conj), CatArena::CONJ);
        assert_eq!(a.intern(&Category::Punct), CatArena::PUNCT);
        // Two independent arenas agree on any category interned in the same
        // order — and clones preserve ids by construction.
        let ca = a.intern(&Category::verb_trans());
        let cb = b.intern(&Category::verb_trans());
        assert_eq!(ca, cb);
        assert_eq!(a.clone().intern(&Category::verb_trans()), ca);
    }

    #[test]
    fn arena_as_complex_exposes_parts() {
        let mut arena = CatArena::new();
        let vt = arena.intern(&Category::verb_trans());
        let (result, slash, arg) = arena.as_complex(vt).unwrap();
        assert_eq!(slash, Slash::Forward);
        assert_eq!(arg, CatArena::NP);
        assert_eq!(arena.resolve(result), Category::verb_intrans());
        assert!(arena.as_complex(CatArena::S).is_none());
        assert_eq!(arena.forward(result, CatArena::NP), vt);
        assert!(!arena.is_empty());
        assert!(arena.len() >= 6);
    }
}
