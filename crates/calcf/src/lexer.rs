//! The tokenizer of the whole language family: CALC_F formulas, the
//! server's statements and session commands, Datalog¬ rules and the storage
//! format all lex here, and [`crate::parser::Parser`] is the one cursor
//! they parse with.
//!
//! Whitespace (any Unicode whitespace) separates tokens; `--` starts a
//! comment to end of line. Every token carries its byte span, and
//! identifiers and numbers borrow the source. Positions are bytes until an
//! error is built: [`ParseError::at`] counts line and column then, so the
//! lexer keeps no per-character counters.

use std::fmt;

/// A token. Keywords of the formula grammar (`and`, `or`, `not`, `exists`,
/// `forall`, `true`, `false`) are lowercase and reserved; the statement
/// grammar's keywords are plain identifiers matched case-insensitively by
/// [`crate::parser::Parser::keyword`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(&'a str),
    /// Unsigned number: digits, optionally `.` and more digits (a `.`
    /// belongs to a number only when a digit follows it).
    Number(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;` (statement terminator)
    Semi,
    /// `.` (Datalog¬ rule terminator)
    Dot,
    /// `:-` (Datalog¬ rule neck)
    ColonDash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// keyword `and`
    And,
    /// keyword `or`
    Or,
    /// keyword `not`
    Not,
    /// keyword `exists`
    Exists,
    /// keyword `forall`
    Forall,
    /// keyword `true`
    True,
    /// keyword `false`
    False,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Token::Ident(s) | Token::Number(s) => s,
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::LBrace => "{",
            Token::RBrace => "}",
            Token::Comma => ",",
            Token::Semi => ";",
            Token::Dot => ".",
            Token::ColonDash => ":-",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::Caret => "^",
            Token::Eq => "=",
            Token::Ne => "!=",
            Token::Lt => "<",
            Token::Le => "<=",
            Token::Gt => ">",
            Token::Ge => ">=",
            Token::And => "and",
            Token::Or => "or",
            Token::Not => "not",
            Token::Exists => "exists",
            Token::Forall => "forall",
            Token::True => "true",
            Token::False => "false",
        })
    }
}

/// A token and its byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// What was lexed.
    pub token: Token<'a>,
    /// Byte offset of its first character.
    pub start: usize,
    /// Byte offset one past its last character.
    pub end: usize,
}

/// A lexing or parsing failure, at a 1-based line and column (in
/// characters) of the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl ParseError {
    /// An error at byte `offset` of `src` (clamped to its end).
    #[must_use]
    pub fn at(src: &str, offset: usize, message: impl Into<String>) -> ParseError {
        let before = src.get(..offset).unwrap_or(src);
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        ParseError {
            message: message.into(),
            line: count(before.bytes().filter(|&b| b == b'\n').count() + 1),
            col: count(before[line_start..].chars().count() + 1),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Byte index of the first non-digit at or after `i`.
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// Tokenize `src`. The only error is a character outside the alphabet.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let token = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                i = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'0'..=b'9' => {
                i = digits_end(bytes, i);
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i = digits_end(bytes, i + 1);
                }
                Token::Number(&src[start..i])
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while bytes
                    .get(i)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    i += 1;
                }
                match &src[start..i] {
                    "and" => Token::And,
                    "or" => Token::Or,
                    "not" => Token::Not,
                    "exists" => Token::Exists,
                    "forall" => Token::Forall,
                    "true" => Token::True,
                    "false" => Token::False,
                    word => Token::Ident(word),
                }
            }
            b => {
                let (token, width) = match (b, bytes.get(i + 1)) {
                    (b'<', Some(b'=')) => (Token::Le, 2),
                    (b'<', Some(b'>')) | (b'!', Some(b'=')) => (Token::Ne, 2),
                    (b'>', Some(b'=')) => (Token::Ge, 2),
                    (b':', Some(b'-')) => (Token::ColonDash, 2),
                    (b'(', _) => (Token::LParen, 1),
                    (b')', _) => (Token::RParen, 1),
                    (b'[', _) => (Token::LBracket, 1),
                    (b']', _) => (Token::RBracket, 1),
                    (b'{', _) => (Token::LBrace, 1),
                    (b'}', _) => (Token::RBrace, 1),
                    (b',', _) => (Token::Comma, 1),
                    (b';', _) => (Token::Semi, 1),
                    (b'.', _) => (Token::Dot, 1),
                    (b'+', _) => (Token::Plus, 1),
                    (b'-', _) => (Token::Minus, 1),
                    (b'*', _) => (Token::Star, 1),
                    (b'/', _) => (Token::Slash, 1),
                    (b'^', _) => (Token::Caret, 1),
                    (b'=', _) => (Token::Eq, 1),
                    (b'<', _) => (Token::Lt, 1),
                    (b'>', _) => (Token::Gt, 1),
                    _ => {
                        let c = src[i..]
                            .chars()
                            .next()
                            .unwrap_or(char::REPLACEMENT_CHARACTER);
                        if c.is_whitespace() {
                            i += c.len_utf8();
                            continue;
                        }
                        return Err(ParseError::at(
                            src,
                            i,
                            format!("unexpected character `{c}`"),
                        ));
                    }
                };
                i += width;
                token
            }
        };
        out.push(Spanned {
            token,
            start,
            end: i,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn figure1_query() {
        assert_eq!(
            kinds("exists y (S(x, y) and y <= 0)"),
            vec![
                Token::Exists,
                Token::Ident("y"),
                Token::LParen,
                Token::Ident("S"),
                Token::LParen,
                Token::Ident("x"),
                Token::Comma,
                Token::Ident("y"),
                Token::RParen,
                Token::And,
                Token::Ident("y"),
                Token::Le,
                Token::Number("0"),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn aggregate_syntax() {
        let toks = kinds("z = SURFACE[x, y]{ S(x, y) and y <= 9 }");
        assert!(toks.contains(&Token::LBracket));
        assert!(toks.contains(&Token::LBrace));
        assert!(toks.contains(&Token::Ident("SURFACE")));
    }

    #[test]
    fn operators_and_numbers() {
        let toks = kinds("4*x^2 - 20*x + 25 >= 0.5");
        assert!(toks.contains(&Token::Caret));
        assert!(toks.contains(&Token::Number("0.5")));
        assert!(toks.contains(&Token::Ge));
        assert_eq!(kinds("a <> b")[1], Token::Ne);
        assert_eq!(kinds("a != b")[1], Token::Ne);
    }

    /// A `.` is part of a number only when a digit follows it, so a rule
    /// may end right after a number.
    #[test]
    fn dots_and_rule_punctuation() {
        assert_eq!(
            kinds("T(x) :- x <= 1.5, x >= 1."),
            vec![
                Token::Ident("T"),
                Token::LParen,
                Token::Ident("x"),
                Token::RParen,
                Token::ColonDash,
                Token::Ident("x"),
                Token::Le,
                Token::Number("1.5"),
                Token::Comma,
                Token::Ident("x"),
                Token::Ge,
                Token::Number("1"),
                Token::Dot,
            ]
        );
        assert_eq!(
            kinds("1.2.3 ;"),
            vec![
                Token::Number("1.2"),
                Token::Dot,
                Token::Number("3"),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("x -- this is a comment\n <= 1"),
            vec![Token::Ident("x"), Token::Le, Token::Number("1")]
        );
    }

    #[test]
    fn bad_byte_errors() {
        assert!(tokenize("x # y").is_err());
        assert!(tokenize("x ! y").is_err());
        assert!(tokenize("x : y").is_err());
        // Unicode whitespace separates; other non-ASCII is an error.
        assert_eq!(kinds("x\u{a0}<=\u{2003}1").len(), 3);
        assert!(tokenize("x <= é").is_err());
    }

    // Moved from the server's lexer: spans, comments and error positions.

    #[test]
    fn spans_track_lines_and_columns() {
        let src = "SELECT S(x);\n  DROP";
        let toks = tokenize(src).unwrap();
        let drop = toks.last().unwrap();
        assert_eq!(drop.token, Token::Ident("DROP"));
        let at = ParseError::at(src, drop.start, "");
        assert_eq!((at.line, at.col), (2, 3));
    }

    #[test]
    fn byte_offsets_slice_source() {
        let src = "SELECT  4*x^2 - y <= 0;";
        let toks = tokenize(src).unwrap();
        // Reconstruct the formula text between the SELECT keyword and `;`.
        let start = toks[1].start;
        let end = toks[toks.len() - 2].end;
        assert_eq!(&src[start..end], "4*x^2 - y <= 0");
    }

    #[test]
    fn comments_are_skipped() {
        let src = "SHOW -- a comment ; with punctuation\nRELATIONS;";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].token, Token::Ident("RELATIONS"));
        assert_eq!(ParseError::at(src, toks[1].start, "").line, 2);
    }

    #[test]
    fn rejects_unknown_character_with_position() {
        let err = tokenize("SELECT S(x) @ 3;").unwrap_err();
        assert!(err.message.contains('@'), "{err}");
        assert_eq!((err.line, err.col), (1, 13));
    }
}
