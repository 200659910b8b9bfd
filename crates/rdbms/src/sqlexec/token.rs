//! Tokenizer for the generated-SQL dialect.
//!
//! The token set is exactly what [`crate::sql::SqlGenerator`] emits (plus
//! the `JOIN … ON` forms the parser accepts for hand-written statements):
//! identifiers, unsigned integer literals, a handful of punctuation
//! marks, and case-insensitive keywords.

use super::SqlError;

/// One lexical token. Keywords are matched case-insensitively; anything
/// identifier-shaped that is not a keyword stays an [`Tok::Ident`]
/// (table names like `c_PhDStudent` keep their case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Num(u32),
    LParen,
    RParen,
    Comma,
    Dot,
    Eq,
    Select,
    Distinct,
    As,
    From,
    Where,
    And,
    Or,
    Union,
    All,
    Case,
    When,
    Then,
    Else,
    End,
    Null,
    With,
    Join,
    On,
    Inner,
    Cross,
}

fn keyword(word: &str) -> Option<Tok> {
    // The generator emits uppercase keywords; accept any case for
    // hand-written statements.
    Some(match word.to_ascii_uppercase().as_str() {
        "SELECT" => Tok::Select,
        "DISTINCT" => Tok::Distinct,
        "AS" => Tok::As,
        "FROM" => Tok::From,
        "WHERE" => Tok::Where,
        "AND" => Tok::And,
        "OR" => Tok::Or,
        "UNION" => Tok::Union,
        "ALL" => Tok::All,
        "CASE" => Tok::Case,
        "WHEN" => Tok::When,
        "THEN" => Tok::Then,
        "ELSE" => Tok::Else,
        "END" => Tok::End,
        "NULL" => Tok::Null,
        "WITH" => Tok::With,
        "JOIN" => Tok::Join,
        "ON" => Tok::On,
        "INNER" => Tok::Inner,
        "CROSS" => Tok::Cross,
        _ => return None,
    })
}

/// Tokenize a whole statement, reporting the byte offset of any
/// unrecognized character or out-of-range literal.
pub fn tokenize(sql: &str) -> Result<Vec<(Tok, usize)>, SqlError> {
    let bytes = sql.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            b',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            b'.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            b'=' => {
                out.push((Tok::Eq, i));
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &sql[start..i];
                let n: u32 = text.parse().map_err(|_| SqlError::Tokenize {
                    pos: start,
                    message: format!("integer literal out of range: {text}"),
                })?;
                out.push((Tok::Num(n), start));
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &sql[start..i];
                let tok = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_owned()));
                out.push((tok, start));
            }
            other => {
                return Err(SqlError::Tokenize {
                    pos: i,
                    message: format!("unexpected character {:?}", other as char),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive_and_identifiers_keep_case() {
        let toks = tokenize("select c_PhDStudent FROM t0").unwrap();
        assert_eq!(toks[0].0, Tok::Select);
        assert_eq!(toks[1].0, Tok::Ident("c_PhDStudent".into()));
        assert_eq!(toks[2].0, Tok::From);
    }

    #[test]
    fn punctuation_and_numbers() {
        let toks = tokenize("(a.b = 42, 7)").unwrap();
        let kinds: Vec<Tok> = toks.into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            kinds,
            vec![
                Tok::LParen,
                Tok::Ident("a".into()),
                Tok::Dot,
                Tok::Ident("b".into()),
                Tok::Eq,
                Tok::Num(42),
                Tok::Comma,
                Tok::Num(7),
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn bad_character_reports_position() {
        let err = tokenize("SELECT *").unwrap_err();
        match err {
            SqlError::Tokenize { pos, .. } => assert_eq!(pos, 7),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn out_of_range_literal_is_rejected() {
        assert!(tokenize("SELECT 99999999999").is_err());
    }
}
