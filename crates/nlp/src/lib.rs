//! Natural-language preprocessing for RFC text.
//!
//! This crate is SAGE's substitute for the SpaCy + term-dictionary stage of
//! the paper (§3, "Specifying domain-specific syntax"):
//!
//! * [`token`] — a tokenizer tailored to RFC prose (keeps `bfd.SessionState`,
//!   `10.0.1.1/24`, `16-bit` and `=` together as single tokens);
//! * [`dict`] — the ~400-term networking dictionary built, as in the paper,
//!   from a networking-textbook index;
//! * [`pos`] — a heuristic part-of-speech tagger for the closed-class words
//!   that matter to CCG category assignment;
//! * [`chunker`] — the noun-phrase chunker whose labels drive CCG lexicon
//!   lookup (Table 7 / Table 8 study the impact of this component).

#![deny(missing_docs)]

pub mod chunker;
pub mod dict;
pub mod pos;
pub mod token;

pub use chunker::{chunk, ChunkerConfig, Phrase, PhraseKind};
pub use dict::TermDictionary;
pub use pos::{tag, PosTag};
pub use token::{tokenize, Token, TokenKind};
