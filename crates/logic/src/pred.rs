//! Predicate names and their domain properties.
//!
//! Every internal node of a logical form carries a [`PredName`].  The
//! disambiguation checks (§4.2) rely on per-predicate properties: whether the
//! argument order matters, whether the predicate is associative or
//! commutative, which predicates it may (not) be nested under, and what
//! argument types it expects.

use crate::intern::{Interner, Symbol};
use std::fmt;

/// The predicate vocabulary used by SAGE logical forms.
///
/// The first group mirrors the predicates shown in the paper (Figures 2 and
/// 3, Table 4); the second group covers the additional operations needed to
/// express the IGMP/NTP/BFD state-management sentences of §6.3–§6.4.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredName {
    /// Assignment or equality of a field and a value: `@Is(field, value)`.
    Is,
    /// Logical conjunction of two or more sub-forms.
    And,
    /// Logical disjunction.
    Or,
    /// Negation.
    Not,
    /// Conditional: `@If(condition, consequence)`.
    If,
    /// Attribute / genitive relation: `@Of(part, whole)` ("A of B").
    Of,
    /// A named action whose first argument is the function name:
    /// `@Action('compute', 'checksum')`.
    Action,
    /// Numeric literal wrapper: `@Num(0)`.
    Num,
    /// String literal wrapper.
    Str,
    /// Advice that must execute *before* the associated function (§5.1).
    AdvBefore,
    /// Advice that must execute *after* the associated function.
    AdvAfter,
    /// Marks a non-actionable sentence; the code generator skips it (§5.2).
    AdvComment,
    /// "starting with" relation used by the ICMP checksum sentence (Fig. 3).
    StartsWith,
    /// Comparison with an explicit operator: `@Compare('>=', a, b)`.
    Compare,
    /// Field update on reception: `@Update(state_var, value)`.
    Update,
    /// Sequence of sub-forms that must execute in order.
    Seq,
    /// A reference to a protocol header field: `@Field('icmp', 'type')`.
    Field,
    /// A value copied from another packet or field: `@From(source)`.
    From,
    /// Modal obligation ("MUST", "SHOULD"): `@Must(form)`, `@May(form)`.
    Must,
    /// Optional behaviour ("MAY").
    May,
    /// Send a message / packet.
    Send,
    /// Discard a packet.
    Discard,
    /// Select / look up an entity (e.g. a BFD session).
    Select,
    /// Cease an ongoing activity (e.g. periodic transmission).
    Cease,
    /// Reverse two fields (e.g. source/destination addresses).
    Reverse,
    /// Recompute a derived field (e.g. checksum).
    Recompute,
    /// Any other predicate, preserved by name.
    Custom(String),
}

impl PredName {
    /// The canonical names of every built-in predicate, in declaration
    /// order.  Pre-seeding an [`Interner`] with these gives every pipeline
    /// worker identical symbols for the core vocabulary.
    pub const BUILTIN_NAMES: &'static [&'static str] = &[
        "Is",
        "And",
        "Or",
        "Not",
        "If",
        "Of",
        "Action",
        "Num",
        "Str",
        "AdvBefore",
        "AdvAfter",
        "AdvComment",
        "StartsWith",
        "Compare",
        "Update",
        "Seq",
        "Field",
        "From",
        "Must",
        "May",
        "Send",
        "Discard",
        "Select",
        "Cease",
        "Reverse",
        "Recompute",
    ];

    /// Intern this predicate's canonical name.
    pub fn intern(&self, interner: &mut Interner) -> Symbol {
        interner.intern(self.name())
    }

    /// The [`Symbol`] every [`crate::intern::LfArena`] assigns to a builtin
    /// predicate, or `None` for [`PredName::Custom`].
    ///
    /// Arenas pre-seed their interner with [`PredName::BUILTIN_NAMES`] in
    /// declaration order, so a builtin's symbol is its position in that list
    /// — identical across arenas and available without touching one.  The
    /// id-native check engine leans on this to compare predicate heads with
    /// plain integer equality.
    pub fn builtin_symbol(&self) -> Option<Symbol> {
        let index = match self {
            PredName::Is => 0,
            PredName::And => 1,
            PredName::Or => 2,
            PredName::Not => 3,
            PredName::If => 4,
            PredName::Of => 5,
            PredName::Action => 6,
            PredName::Num => 7,
            PredName::Str => 8,
            PredName::AdvBefore => 9,
            PredName::AdvAfter => 10,
            PredName::AdvComment => 11,
            PredName::StartsWith => 12,
            PredName::Compare => 13,
            PredName::Update => 14,
            PredName::Seq => 15,
            PredName::Field => 16,
            PredName::From => 17,
            PredName::Must => 18,
            PredName::May => 19,
            PredName::Send => 20,
            PredName::Discard => 21,
            PredName::Select => 22,
            PredName::Cease => 23,
            PredName::Reverse => 24,
            PredName::Recompute => 25,
            PredName::Custom(_) => return None,
        };
        Some(Symbol::from_raw(index))
    }

    /// Rebuild a predicate name from an interned symbol.
    pub fn from_symbol(sym: Symbol, interner: &Interner) -> PredName {
        PredName::from_name(interner.resolve(sym))
    }

    /// Parse a predicate name as it appears in textual LFs (without the `@`).
    pub fn from_name(name: &str) -> PredName {
        match name {
            "Is" => PredName::Is,
            "And" => PredName::And,
            "Or" => PredName::Or,
            "Not" => PredName::Not,
            "If" => PredName::If,
            "Of" => PredName::Of,
            "Action" => PredName::Action,
            "Num" => PredName::Num,
            "Str" => PredName::Str,
            "AdvBefore" => PredName::AdvBefore,
            "AdvAfter" => PredName::AdvAfter,
            "AdvComment" => PredName::AdvComment,
            "StartsWith" => PredName::StartsWith,
            "Compare" => PredName::Compare,
            "Update" => PredName::Update,
            "Seq" => PredName::Seq,
            "Field" => PredName::Field,
            "From" => PredName::From,
            "Must" => PredName::Must,
            "May" => PredName::May,
            "Send" => PredName::Send,
            "Discard" => PredName::Discard,
            "Select" => PredName::Select,
            "Cease" => PredName::Cease,
            "Reverse" => PredName::Reverse,
            "Recompute" => PredName::Recompute,
            other => PredName::Custom(other.to_string()),
        }
    }

    /// The canonical textual name (what follows the `@`).
    pub fn name(&self) -> &str {
        match self {
            PredName::Is => "Is",
            PredName::And => "And",
            PredName::Or => "Or",
            PredName::Not => "Not",
            PredName::If => "If",
            PredName::Of => "Of",
            PredName::Action => "Action",
            PredName::Num => "Num",
            PredName::Str => "Str",
            PredName::AdvBefore => "AdvBefore",
            PredName::AdvAfter => "AdvAfter",
            PredName::AdvComment => "AdvComment",
            PredName::StartsWith => "StartsWith",
            PredName::Compare => "Compare",
            PredName::Update => "Update",
            PredName::Seq => "Seq",
            PredName::Field => "Field",
            PredName::From => "From",
            PredName::Must => "Must",
            PredName::May => "May",
            PredName::Send => "Send",
            PredName::Discard => "Discard",
            PredName::Select => "Select",
            PredName::Cease => "Cease",
            PredName::Reverse => "Reverse",
            PredName::Recompute => "Recompute",
            PredName::Custom(s) => s.as_str(),
        }
    }

    /// Domain properties of this predicate (used by the disambiguation checks).
    pub fn properties(&self) -> PredProperties {
        match self {
            PredName::Is => PredProperties {
                min_arity: 2,
                max_arity: Some(2),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::And | PredName::Or => PredProperties {
                min_arity: 2,
                max_arity: None,
                order_sensitive: false,
                associative: true,
                commutative: true,
            },
            PredName::Not => PredProperties {
                min_arity: 1,
                max_arity: Some(1),
                order_sensitive: false,
                associative: false,
                commutative: false,
            },
            PredName::If => PredProperties {
                min_arity: 2,
                max_arity: Some(3),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Of => PredProperties {
                min_arity: 2,
                max_arity: Some(2),
                order_sensitive: true,
                associative: true,
                commutative: false,
            },
            PredName::Action => PredProperties {
                min_arity: 1,
                max_arity: None,
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Num | PredName::Str => PredProperties {
                min_arity: 1,
                max_arity: Some(1),
                order_sensitive: false,
                associative: false,
                commutative: false,
            },
            PredName::AdvBefore | PredName::AdvAfter => PredProperties {
                min_arity: 2,
                max_arity: Some(2),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::AdvComment => PredProperties {
                min_arity: 1,
                max_arity: Some(1),
                order_sensitive: false,
                associative: false,
                commutative: false,
            },
            PredName::StartsWith => PredProperties {
                min_arity: 2,
                max_arity: Some(2),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Compare => PredProperties {
                min_arity: 3,
                max_arity: Some(3),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Update => PredProperties {
                min_arity: 2,
                max_arity: Some(2),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Seq => PredProperties {
                min_arity: 1,
                max_arity: None,
                order_sensitive: true,
                associative: true,
                commutative: false,
            },
            PredName::Field => PredProperties {
                min_arity: 1,
                max_arity: Some(2),
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::From => PredProperties {
                min_arity: 1,
                max_arity: Some(1),
                order_sensitive: false,
                associative: false,
                commutative: false,
            },
            PredName::Must | PredName::May => PredProperties {
                min_arity: 1,
                max_arity: Some(1),
                order_sensitive: false,
                associative: false,
                commutative: false,
            },
            PredName::Send
            | PredName::Discard
            | PredName::Select
            | PredName::Cease
            | PredName::Reverse
            | PredName::Recompute => PredProperties {
                min_arity: 0,
                max_arity: None,
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
            PredName::Custom(_) => PredProperties {
                min_arity: 0,
                max_arity: None,
                order_sensitive: true,
                associative: false,
                commutative: false,
            },
        }
    }

    /// True for predicates that describe an executable effect.
    pub fn is_effect(&self) -> bool {
        matches!(
            self,
            PredName::Is
                | PredName::Action
                | PredName::Update
                | PredName::Send
                | PredName::Discard
                | PredName::Select
                | PredName::Cease
                | PredName::Reverse
                | PredName::Recompute
        )
    }
}

impl fmt::Display for PredName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.name())
    }
}

/// Structural and algebraic properties of a predicate, used during
/// disambiguation (§4.2) and code generation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredProperties {
    /// Minimum number of arguments for a well-formed use.
    pub min_arity: usize,
    /// Maximum number of arguments, if bounded.
    pub max_arity: Option<usize>,
    /// Whether swapping arguments changes meaning (argument-ordering check).
    pub order_sensitive: bool,
    /// Whether nested uses are equivalent regardless of grouping
    /// (associativity check / Figure 3).
    pub associative: bool,
    /// Whether argument order is semantically irrelevant; commutative
    /// predicates get their children sorted during canonicalisation.
    pub commutative: bool,
}

impl PredProperties {
    /// Check an argument count against the arity bounds.
    pub fn arity_ok(&self, n: usize) -> bool {
        n >= self.min_arity && self.max_arity.map_or(true, |m| n <= m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_known_names() {
        for name in [
            "Is",
            "And",
            "Or",
            "Not",
            "If",
            "Of",
            "Action",
            "Num",
            "Str",
            "AdvBefore",
            "AdvAfter",
            "AdvComment",
            "StartsWith",
            "Compare",
            "Update",
            "Seq",
            "Field",
            "From",
            "Must",
            "May",
            "Send",
            "Discard",
            "Select",
            "Cease",
            "Reverse",
            "Recompute",
        ] {
            let p = PredName::from_name(name);
            assert_eq!(p.name(), name);
            assert!(!matches!(p, PredName::Custom(_)), "{name} became Custom");
        }
    }

    #[test]
    fn unknown_names_become_custom() {
        let p = PredName::from_name("Frobnicate");
        assert_eq!(p, PredName::Custom("Frobnicate".into()));
        assert_eq!(p.name(), "Frobnicate");
    }

    #[test]
    fn display_prefixes_at_sign() {
        assert_eq!(PredName::Is.to_string(), "@Is");
        assert_eq!(PredName::Custom("X".into()).to_string(), "@X");
    }

    #[test]
    fn and_is_associative_and_commutative() {
        let p = PredName::And.properties();
        assert!(p.associative);
        assert!(p.commutative);
        assert!(!p.order_sensitive);
    }

    #[test]
    fn of_is_associative_but_not_commutative() {
        let p = PredName::Of.properties();
        assert!(p.associative);
        assert!(!p.commutative);
        assert!(p.order_sensitive);
    }

    #[test]
    fn is_predicate_is_binary_and_ordered() {
        let p = PredName::Is.properties();
        assert!(p.order_sensitive);
        assert!(p.arity_ok(2));
        assert!(!p.arity_ok(1));
        assert!(!p.arity_ok(3));
    }

    #[test]
    fn if_allows_optional_else() {
        let p = PredName::If.properties();
        assert!(p.arity_ok(2));
        assert!(p.arity_ok(3));
        assert!(!p.arity_ok(4));
    }

    #[test]
    fn effect_classification() {
        assert!(PredName::Is.is_effect());
        assert!(PredName::Action.is_effect());
        assert!(!PredName::If.is_effect());
        assert!(!PredName::Num.is_effect());
    }

    #[test]
    fn builtin_symbols_match_arena_preseeding() {
        let arena = crate::intern::LfArena::new();
        for name in PredName::BUILTIN_NAMES {
            let p = PredName::from_name(name);
            assert_eq!(
                p.builtin_symbol(),
                arena.interner().get(name),
                "builtin_symbol disagrees with the arena interner for {name}"
            );
        }
        assert_eq!(PredName::Custom("X".into()).builtin_symbol(), None);
    }

    #[test]
    fn builtin_names_round_trip_through_symbols() {
        let mut interner = crate::intern::Interner::new();
        for name in PredName::BUILTIN_NAMES {
            let p = PredName::from_name(name);
            assert!(!matches!(p, PredName::Custom(_)), "{name} became Custom");
            let sym = p.intern(&mut interner);
            assert_eq!(PredName::from_symbol(sym, &interner), p);
        }
        assert_eq!(interner.len(), PredName::BUILTIN_NAMES.len());
        // Custom predicates intern by their preserved name.
        let custom = PredName::Custom("Frobnicate".into());
        let sym = custom.intern(&mut interner);
        assert_eq!(PredName::from_symbol(sym, &interner), custom);
    }

    #[test]
    fn action_requires_at_least_one_argument() {
        let p = PredName::Action.properties();
        assert!(!p.arity_ok(0));
        assert!(p.arity_ok(1));
        assert!(p.arity_ok(5));
    }
}
