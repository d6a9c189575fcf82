//! Logical forms (LFs) — the intermediate representation produced by SAGE's
//! semantic parser and consumed by disambiguation and code generation.
//!
//! A logical form is a tree of *predicates* whose internal nodes are logical
//! relationships (`@And`), assignments (`@Is`), conditionals (`@If`),
//! actions (`@Action`), and so on, and whose leaves are scalar arguments
//! (field names, numbers, strings).  See §4.1 and Figure 2 of the paper.
//!
//! ```
//! use sage_logic::{Lf, PredName};
//!
//! // @Is("checksum", @Num(0))  — "checksum is zero"
//! let lf = Lf::pred(PredName::Is, vec![Lf::atom("checksum"), Lf::num(0)]);
//! assert_eq!(lf.to_string(), "@Is('checksum', @Num(0))");
//! ```

#![deny(missing_docs)]

pub mod graph;
pub mod intern;
pub mod lf;
pub mod parse;
pub mod pred;
pub mod types;

pub use graph::{canonical_form, isomorphic};
pub use intern::{Interner, LfArena, LfId, LfNode, Symbol};
pub use lf::Lf;
pub use parse::{parse_lf, ParseError};
pub use pred::{PredName, PredProperties};
pub use types::{infer_atom_type, AtomType};
