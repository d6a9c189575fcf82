//! Noun-phrase chunking.
//!
//! Before CCG parsing, SAGE labels noun phrases so that multi-word domain
//! terms ("echo reply message", "one's complement sum") enter the parser as
//! single NP symbols (§3; Table 7 shows how much labelling quality matters,
//! and Table 8 ablates the component entirely).
//!
//! The chunker works in two passes over the tokenized sentence:
//!
//! 1. **Dictionary pass** — longest-first match of multi-word terms from the
//!    [`TermDictionary`].
//! 2. **Pattern pass** — a determiner-adjective-noun pattern (`DET? ADJ* NOUN+`)
//!    groups remaining content words into generic noun phrases.
//!
//! Either pass can be disabled through [`ChunkerConfig`] to reproduce the
//! paper's ablation study.

use crate::dict::TermDictionary;
use crate::pos::{tag, PosTag};
use crate::token::{Token, TokenKind};

/// What a phrase in the chunked sentence represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhraseKind {
    /// A noun phrase matched against the domain dictionary.
    DomainTerm,
    /// A noun phrase built by the generic pattern pass.
    NounPhrase,
    /// A single token passed through unchanged (verb, preposition, …).
    Word,
    /// Punctuation.
    Punct,
    /// A numeric literal.
    Number,
}

/// One unit of the chunked sentence: either a merged noun phrase or a single
/// pass-through token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phrase {
    /// Surface text, single-space normalised (e.g. `"echo reply message"`).
    pub text: String,
    /// Lower-cased text used for lexicon lookup.
    pub lower: String,
    /// The kind of phrase.
    pub kind: PhraseKind,
    /// Number of original tokens merged into this phrase.
    pub token_count: usize,
}

impl Phrase {
    fn from_tokens(tokens: &[Token], kind: PhraseKind) -> Phrase {
        let text = tokens
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        Phrase {
            lower: text.to_ascii_lowercase(),
            text,
            kind,
            token_count: tokens.len(),
        }
    }
}

/// Configuration of the chunking stage; both switches default to `true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Use the domain-specific term dictionary (Table 8, row 1).
    pub use_dictionary: bool,
    /// Use noun-phrase labelling at all (Table 8, row 2).  When false, every
    /// token is passed through individually.
    pub use_np_labeling: bool,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig {
            use_dictionary: true,
            use_np_labeling: true,
        }
    }
}

/// Chunk a tokenized sentence into phrases.
pub fn chunk(tokens: &[Token], dict: &TermDictionary, config: ChunkerConfig) -> Vec<Phrase> {
    if !config.use_np_labeling {
        // Ablation: no NP labelling at all; every token stands alone.
        return tokens
            .iter()
            .map(|t| Phrase::from_tokens(std::slice::from_ref(t), passthrough_kind(t)))
            .collect();
    }

    let tags = tag(tokens);
    let mut phrases = Vec::new();
    let mut i = 0;
    let max_look = dict.max_phrase_words().max(1);
    // Every dictionary probe is built here from the tokens' lower-cased
    // text, so a probe allocates nothing once the buffer has grown.
    let mut probe = String::new();

    while i < tokens.len() {
        // Pass 1: longest dictionary match starting at i.
        if config.use_dictionary {
            let mut matched = 0;
            let upper = (i + max_look).min(tokens.len());
            for j in (i + 1..=upper).rev() {
                if tokens[i..j].iter().any(|t| t.kind == TokenKind::Punct) {
                    continue;
                }
                probe.clear();
                for (offset, t) in tokens[i..j].iter().enumerate() {
                    if offset > 0 {
                        probe.push(' ');
                    }
                    probe.push_str(&t.lower);
                }
                if dict.contains(&probe) {
                    matched = j - i;
                    break;
                }
            }
            if matched > 0 {
                phrases.push(Phrase::from_tokens(
                    &tokens[i..i + matched],
                    PhraseKind::DomainTerm,
                ));
                i += matched;
                continue;
            }
        }

        // Pass 2: generic DET? ADJ* NOUN+ pattern.  The determiner is kept
        // out of the phrase (CCG handles "the" with its own category).
        let t = &tokens[i];
        let tag_i = tags[i];
        if matches!(tag_i, PosTag::Noun | PosTag::Adjective) && t.kind != TokenKind::Punct {
            let mut j = i;
            // adjectives then nouns
            while j < tokens.len() && tags[j] == PosTag::Adjective {
                j += 1;
            }
            let noun_start = j;
            while j < tokens.len() && tags[j] == PosTag::Noun && tokens[j].kind != TokenKind::Punct
            {
                j += 1;
            }
            if j > noun_start {
                // At least one noun: emit ADJ* NOUN+ as a noun phrase.
                phrases.push(Phrase::from_tokens(&tokens[i..j], PhraseKind::NounPhrase));
                i = j;
                continue;
            }
        }

        phrases.push(Phrase::from_tokens(
            std::slice::from_ref(t),
            passthrough_kind(t),
        ));
        i += 1;
    }
    phrases
}

fn passthrough_kind(t: &Token) -> PhraseKind {
    match t.kind {
        TokenKind::Punct => PhraseKind::Punct,
        TokenKind::Number => PhraseKind::Number,
        _ => PhraseKind::Word,
    }
}

/// Convenience: tokenize and chunk a sentence with the default dictionary.
pub fn chunk_sentence(sentence: &str, dict: &TermDictionary, config: ChunkerConfig) -> Vec<Phrase> {
    chunk(&crate::token::tokenize(sentence), dict, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn default_chunks(s: &str) -> Vec<Phrase> {
        chunk(
            &tokenize(s),
            &TermDictionary::networking(),
            ChunkerConfig::default(),
        )
    }

    fn texts(phrases: &[Phrase]) -> Vec<&str> {
        phrases.iter().map(|p| p.text.as_str()).collect()
    }

    #[test]
    fn merges_domain_terms() {
        let p = default_chunks("the echo reply message will be sent");
        assert!(texts(&p).contains(&"echo reply message"));
        let term = p.iter().find(|x| x.text == "echo reply message").unwrap();
        assert_eq!(term.kind, PhraseKind::DomainTerm);
        assert_eq!(term.token_count, 3);
    }

    #[test]
    fn longest_match_wins() {
        // "one's complement sum" should win over "one's complement".
        let p = default_chunks("the one's complement sum of the ICMP message");
        assert!(texts(&p).contains(&"one's complement sum"));
        assert!(!texts(&p).contains(&"one's complement"));
    }

    #[test]
    fn table7_good_labeling_groups_echo_reply_message() {
        let p = default_chunks(
            "The address of the source in an echo message will be the destination of the echo reply message.",
        );
        assert!(texts(&p).contains(&"echo reply message"));
        assert!(texts(&p).contains(&"echo message"));
    }

    #[test]
    fn pattern_pass_groups_unknown_nouns() {
        let p = default_chunks("the widget header contains a frobnicator value");
        // "widget header" is not in the dictionary but should be grouped by
        // the ADJ*/NOUN+ pattern.
        assert!(texts(&p).iter().any(|t| t.contains("widget header")));
    }

    #[test]
    fn determiners_and_verbs_pass_through() {
        let p = default_chunks("the checksum is zero");
        assert_eq!(p[0].text, "the");
        assert_eq!(p[0].kind, PhraseKind::Word);
        assert!(p
            .iter()
            .any(|x| x.text == "is" && x.kind == PhraseKind::Word));
    }

    #[test]
    fn punctuation_is_preserved_separately() {
        let p = default_chunks("For computing the checksum, the checksum field should be zero.");
        assert!(p
            .iter()
            .any(|x| x.kind == PhraseKind::Punct && x.text == ","));
        assert!(p
            .iter()
            .any(|x| x.kind == PhraseKind::Punct && x.text == "."));
    }

    #[test]
    fn dictionary_disabled_still_chunks_generic_nps() {
        let cfg = ChunkerConfig {
            use_dictionary: false,
            use_np_labeling: true,
        };
        let p = chunk(
            &tokenize("the echo reply message is sent"),
            &TermDictionary::networking(),
            cfg,
        );
        // Without the dictionary the phrase may still be grouped by the
        // pattern pass, but it must not be labelled as a DomainTerm.
        assert!(p.iter().all(|x| x.kind != PhraseKind::DomainTerm));
    }

    #[test]
    fn np_labeling_disabled_passes_tokens_through() {
        let cfg = ChunkerConfig {
            use_dictionary: true,
            use_np_labeling: false,
        };
        let toks = tokenize("the echo reply message is sent");
        let p = chunk(&toks, &TermDictionary::networking(), cfg);
        assert_eq!(p.len(), toks.len());
        assert!(p.iter().all(|x| x.token_count == 1));
    }

    #[test]
    fn numbers_are_nominal() {
        let p = default_chunks("the type code changed to 16");
        let num = p.iter().find(|x| x.text == "16").unwrap();
        assert_eq!(num.kind, PhraseKind::Number);
    }

    #[test]
    fn dictionary_match_does_not_cross_punctuation() {
        // "checksum , field" must not match "checksum field" across the comma.
        let p = default_chunks("the checksum, field values are unchanged");
        assert!(!texts(&p).contains(&"checksum , field"));
    }

    #[test]
    fn bfd_state_variables_survive_chunking() {
        let p = default_chunks("If bfd.RemoteDemandMode is 1, bfd.SessionState is Up");
        assert!(texts(&p).contains(&"bfd.RemoteDemandMode"));
        assert!(texts(&p).contains(&"bfd.SessionState"));
    }
}
