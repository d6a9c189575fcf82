//! A Combinatory Categorial Grammar (CCG) semantic parser for RFC prose.
//!
//! This crate is the Rust substitute for the NLTK-based CCG parser used by
//! the paper (§3).  It provides:
//!
//! * [`category`] — primitive (`N`, `NP`, `S`, …) and complex (`S\NP`,
//!   `(S\NP)/NP`) syntactic categories;
//! * [`semantics`] — simply-typed lambda terms over logical forms, and the
//!   hash-consed arena that beta-reduces them;
//! * [`lexicon`] — the base English lexicon plus the domain-specific entries
//!   added for ICMP (71), IGMP (+8), NTP (+5) and BFD (+15), mirroring §6;
//! * [`parser`] — a CKY chart parser with forward/backward application,
//!   composition and coordination, returning *all* logical forms of a
//!   sentence.  The engine is interned and zero-clone: chart items are
//!   `Copy` pairs of arena ids on a packed flat chart, built through a
//!   recyclable [`ParserWorkspace`]; `tests/parser_parity.rs` pins its
//!   output over all four RFC corpora in a committed golden;
//! * [`overgenerate`] — reproduction of CCG's well-known over-generation
//!   behaviours (argument-order swaps for `If`-sentences, comma
//!   distributivity), which the disambiguation stage then winnows.
//!
//! ```
//! use sage_ccg::{Lexicon, parse_sentence, ParserConfig};
//! use sage_nlp::{TermDictionary, ChunkerConfig};
//!
//! let lexicon = Lexicon::icmp();
//! let dict = TermDictionary::networking();
//! let result = parse_sentence(
//!     "The checksum is zero.",
//!     &lexicon,
//!     &dict,
//!     ChunkerConfig::default(),
//!     ParserConfig::default(),
//! );
//! assert!(!result.logical_forms.is_empty());
//! ```

#![deny(missing_docs)]

pub mod category;
pub mod lexicon;
pub mod overgenerate;
pub mod parser;
pub mod semantics;

pub use category::{CatArena, CatId, Category, Slash};
pub use lexicon::{InternedEntry, LexEntry, Lexicon, LookupCache};
pub use parser::{parse_phrases, parse_sentence, ParseResult, ParserConfig, ParserWorkspace};
pub use semantics::{SemArena, SemId, SemTerm};
