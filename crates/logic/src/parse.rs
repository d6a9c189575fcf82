//! A small recursive-descent parser for the textual LF notation used in the
//! paper and throughout this repository's corpora and tests, e.g.
//! `@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))`.

use crate::lf::Lf;
use crate::pred::PredName;
use std::fmt;

/// Errors produced while parsing textual logical forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LF parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a textual logical form.
pub fn parse_lf(input: &str) -> Result<Lf, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let lf = p.parse_form()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing input after logical form"));
    }
    Ok(lf)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_form(&mut self) -> Result<Lf, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'@') => self.parse_pred(),
            Some(b'\'') | Some(b'"') => self.parse_quoted(),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.parse_number(),
            Some(_) => self.parse_bare_atom(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_pred(&mut self) -> Result<Lf, ParseError> {
        self.expect(b'@')?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected predicate name after '@'"));
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii slice")
            .to_string();
        self.skip_ws();
        let mut args = Vec::new();
        if self.peek() == Some(b'(') {
            self.bump();
            self.skip_ws();
            if self.peek() != Some(b')') {
                loop {
                    args.push(self.parse_form()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b')') => break,
                        _ => return Err(self.error("expected ',' or ')' in argument list")),
                    }
                }
            }
            self.expect(b')')?;
        }
        // `@Num(3)` collapses to a number leaf so that the two notations
        // compare equal.
        if name == "Num" && args.len() == 1 {
            if let Some(n) = args[0].as_number() {
                return Ok(Lf::Number(n));
            }
        }
        Ok(Lf::Pred(PredName::from_name(&name), args))
    }

    fn parse_quoted(&mut self) -> Result<Lf, ParseError> {
        let quote = self.bump().expect("caller checked quote");
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("atom is not valid UTF-8"))?
                    .to_string();
                self.bump();
                return Ok(Lf::Atom(text));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated quoted atom"))
    }

    fn parse_number(&mut self) -> Result<Lf, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<i64>()
            .map(Lf::Number)
            .map_err(|_| self.error("invalid number literal"))
    }

    fn parse_bare_atom(&mut self) -> Result<Lf, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected an atom"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii")
            .to_string();
        Ok(Lf::Atom(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredName;

    #[test]
    fn parses_simple_assignment() {
        let lf = parse_lf("@Is('checksum', @Num(0))").unwrap();
        assert_eq!(lf, Lf::is(Lf::atom("checksum"), Lf::num(0)));
    }

    #[test]
    fn parses_figure2_lf2() {
        let text = "@AdvBefore(@Action('compute', 'checksum'), @Is('checksum_field', '0'))";
        let lf = parse_lf(text).unwrap();
        assert_eq!(lf.pred_name(), Some(&PredName::AdvBefore));
        assert_eq!(lf.args().len(), 2);
        assert_eq!(lf.to_string(), text);
    }

    #[test]
    fn parses_nested_of_chain_from_figure3() {
        let text = "@StartsWith(@Is('checksum', @Of('Ones', @Of('OnesSum', 'icmp_message'))), 'icmp_type')";
        let lf = parse_lf(text).unwrap();
        assert_eq!(lf.node_count(), 9);
        assert_eq!(lf.to_string(), text);
    }

    #[test]
    fn display_parse_round_trip() {
        let lf = Lf::if_then(
            Lf::pred(
                PredName::Compare,
                vec![
                    Lf::atom(">="),
                    Lf::atom("peer.timer"),
                    Lf::atom("peer.threshold"),
                ],
            ),
            Lf::action("timeout_procedure", vec![]),
        );
        let reparsed = parse_lf(&lf.to_string()).unwrap();
        assert_eq!(reparsed, lf);
    }

    #[test]
    fn bare_atoms_and_numbers() {
        assert_eq!(parse_lf("checksum").unwrap(), Lf::atom("checksum"));
        assert_eq!(parse_lf("42").unwrap(), Lf::num(42));
        assert_eq!(parse_lf("-7").unwrap(), Lf::num(-7));
        assert_eq!(
            parse_lf("bfd.SessionState").unwrap(),
            Lf::atom("bfd.SessionState")
        );
    }

    #[test]
    fn double_quotes_accepted() {
        assert_eq!(parse_lf("\"checksum\"").unwrap(), Lf::atom("checksum"));
    }

    #[test]
    fn whitespace_is_insignificant() {
        let lf = parse_lf("  @And( 'a' ,\n 'b' )  ").unwrap();
        assert_eq!(lf, Lf::and(vec![Lf::atom("a"), Lf::atom("b")]));
    }

    #[test]
    fn errors_report_positions() {
        let err = parse_lf("@Is('a', ").unwrap_err();
        assert!(err.position > 0);
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_lf("@Is('a', 'b')) extra").is_err());
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse_lf("'abc").is_err());
    }

    #[test]
    fn zero_argument_predicate() {
        let lf = parse_lf("@Discard()").unwrap();
        assert_eq!(lf, Lf::Pred(PredName::Discard, vec![]));
        let lf2 = parse_lf("@Discard").unwrap();
        assert_eq!(lf2, Lf::Pred(PredName::Discard, vec![]));
    }

    #[test]
    fn num_notation_collapses_to_number() {
        assert_eq!(parse_lf("@Num(5)").unwrap(), Lf::Number(5));
        assert_eq!(parse_lf("@Num('5')").unwrap(), Lf::Number(5));
    }
}
