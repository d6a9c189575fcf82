//! RFC-aware tokenizer.
//!
//! RFC prose mixes ordinary English with protocol notation: dotted state
//! variables (`bfd.SessionState`), numeric field values (`0`, `16-bit`),
//! CIDR blocks (`10.0.1.1/24`), idioms such as `code = 0`, and punctuation
//! that matters to parsing (commas separating clauses).  The tokenizer keeps
//! those units intact so the chunker and CCG lexicon see them as single
//! symbols.

use std::fmt;

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An alphabetic word, possibly with internal hyphens or apostrophes.
    Word,
    /// A number, possibly with a unit suffix kept by a later merge
    /// (`64`, `16-bit`).
    Number,
    /// A dotted identifier such as `bfd.SessionState` or `peer.timer`.
    DottedIdent,
    /// Punctuation that is meaningful to parsing (`,`, `.`, `;`, `:`).
    Punct,
    /// A symbol such as `=`, `+`, `/`.
    Symbol,
}

/// A single token with its original text and position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Original text of the token.
    pub text: String,
    /// Lower-cased text, used for dictionary and lexicon lookup.
    pub lower: String,
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first character in the source sentence.
    pub start: usize,
}

impl Token {
    fn new(text: &str, kind: TokenKind, start: usize) -> Token {
        Token {
            text: text.to_string(),
            lower: text.to_ascii_lowercase(),
            kind,
            start,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '\'' || c == '-' || c == '_'
}

/// Tokenize a sentence of RFC prose.
pub fn tokenize(input: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let chars: Vec<(usize, char)> = input.char_indices().collect();
    let mut i = 0;
    while i < chars.len() {
        let (start, c) = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            // Word, possibly a dotted identifier (bfd.SessionState).
            let mut j = i;
            let mut has_dot = false;
            while j < chars.len() {
                let cj = chars[j].1;
                if is_word_char(cj) {
                    j += 1;
                } else if cj == '.' && j + 1 < chars.len() && chars[j + 1].1.is_ascii_alphanumeric()
                {
                    // A dot followed by an alphanumeric continues a dotted
                    // identifier; a dot followed by space/EOL ends a sentence.
                    has_dot = true;
                    j += 1;
                } else {
                    break;
                }
            }
            let end = if j < chars.len() {
                chars[j].0
            } else {
                input.len()
            };
            let text = &input[start..end];
            let kind = if has_dot {
                TokenKind::DottedIdent
            } else {
                TokenKind::Word
            };
            tokens.push(Token::new(text, kind, start));
            i = j;
        } else if c.is_ascii_digit() {
            // Number; may include dots (IP addresses, versions), slashes
            // (CIDR), and hyphenated unit suffixes such as `16-bit`.
            let mut j = i;
            while j < chars.len() {
                let cj = chars[j].1;
                if cj.is_ascii_digit()
                    || (cj == '.' || cj == '/')
                        && j + 1 < chars.len()
                        && chars[j + 1].1.is_ascii_digit()
                {
                    j += 1;
                } else if (cj == '-' || cj.is_ascii_alphabetic())
                    && j > i
                    && chars[j - 1].1.is_ascii_digit()
                    && j + 1 < chars.len()
                    && chars[j + 1].1.is_ascii_alphabetic()
                {
                    // `16-bit`, `64bits` style suffixes
                    while j < chars.len() && (chars[j].1 == '-' || chars[j].1.is_ascii_alphabetic())
                    {
                        j += 1;
                    }
                    break;
                } else {
                    break;
                }
            }
            let end = if j < chars.len() {
                chars[j].0
            } else {
                input.len()
            };
            tokens.push(Token::new(&input[start..end], TokenKind::Number, start));
            i = j;
        } else if c == ',' || c == '.' || c == ';' || c == ':' || c == '(' || c == ')' || c == '"' {
            tokens.push(Token::new(
                &input[start..start + c.len_utf8()],
                TokenKind::Punct,
                start,
            ));
            i += 1;
        } else {
            tokens.push(Token::new(
                &input[start..start + c.len_utf8()],
                TokenKind::Symbol,
                start,
            ));
            i += 1;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn simple_sentence() {
        let toks = tokenize("The checksum is zero.");
        assert_eq!(texts(&toks), vec!["The", "checksum", "is", "zero", "."]);
        assert_eq!(toks[0].lower, "the");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Punct);
    }

    #[test]
    fn code_equals_zero_idiom() {
        let toks = tokenize("If code = 0, identifies the octet");
        assert_eq!(
            texts(&toks),
            vec!["If", "code", "=", "0", ",", "identifies", "the", "octet"]
        );
        assert_eq!(toks[2].kind, TokenKind::Symbol);
        assert_eq!(toks[3].kind, TokenKind::Number);
    }

    #[test]
    fn dotted_state_variables_stay_whole() {
        let toks = tokenize("If bfd.RemoteDemandMode is 1, bfd.SessionState is Up");
        assert_eq!(toks[1].text, "bfd.RemoteDemandMode");
        assert_eq!(toks[1].kind, TokenKind::DottedIdent);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::DottedIdent)
            .collect();
        assert_eq!(idents.len(), 2);
    }

    #[test]
    fn sentence_final_dot_is_not_part_of_word() {
        let toks = tokenize("the value of the timer threshold variable.");
        assert_eq!(toks.last().unwrap().text, ".");
        assert_eq!(toks[toks.len() - 2].text, "variable");
    }

    #[test]
    fn ip_addresses_and_cidr() {
        let toks = tokenize("the router recognizes 10.0.1.1/24 only");
        assert!(texts(&toks).contains(&"10.0.1.1/24"));
    }

    #[test]
    fn bit_width_suffix() {
        let toks = tokenize("the 16-bit one's complement of the sum");
        assert!(texts(&toks).contains(&"16-bit"));
        assert!(texts(&toks).contains(&"one's"));
    }

    #[test]
    fn numbers_keep_kind() {
        let toks = tokenize("changed to 16, and the checksum recomputed");
        let n: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .collect();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].text, "16");
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t  ").is_empty());
    }

    #[test]
    fn byte_offsets_are_correct() {
        let s = "Type is 3";
        let toks = tokenize(s);
        for t in &toks {
            assert_eq!(&s[t.start..t.start + t.text.len()], t.text);
        }
    }
}
