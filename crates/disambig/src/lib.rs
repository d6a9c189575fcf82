//! Disambiguation: winnowing ambiguous logical forms (§4.2).
//!
//! The semantic parser frequently produces several logical forms for one
//! sentence.  SAGE applies five families of domain-knowledge checks to
//! eliminate spurious interpretations:
//!
//! 1. **Type** — predicates receive arguments of the wrong semantic type
//!    (e.g. a numeric constant where `@Action` expects a function name);
//! 2. **Argument ordering** — order-sensitive predicates with their
//!    arguments swapped (`@If(B, A)`);
//! 3. **Predicate ordering** — one predicate nested under another in a way
//!    the domain forbids (`@Of(A, @Is(B, C))`);
//! 4. **Distributivity** — the spurious distributed reading of
//!    comma/`and` coordination;
//! 5. **Associativity** — logically identical regroupings of associative
//!    predicates, detected by graph isomorphism.
//!
//! [`winnow()`] applies the families in the order shown in Figure 5 and
//! records the number of surviving LFs after each stage; [`stats`] applies
//! each family in isolation, as in Figure 6.

#![deny(missing_docs)]

pub mod checks;
pub mod stats;
pub mod winnow;

pub use checks::{
    argument_ordering_checks, distributed_assignment_interned, distributivity_checks,
    predicate_ordering_checks, type_checks, Check, CheckKind, IdChecks,
};
pub use stats::{
    all_check_effects, all_check_effects_interned, apply_single_family,
    apply_single_family_interned, per_check_effect, CheckEffect,
};
pub use winnow::{winnow, IdWinnowTrace, WinnowStage, WinnowTrace, Winnower};
