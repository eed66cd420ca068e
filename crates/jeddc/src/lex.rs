//! Lexer for the mini-Jedd language.
//!
//! The token set covers the grammar productions the paper adds to Java
//! (Fig. 5): relation types `<a:T1, b>`, the join/compose symbols `><` and
//! `<>`, replacement casts `(a=>b)`, tuple literals `new { ... }`, and the
//! constants `0B`/`1B`, plus the statement syntax the analyses need.

use crate::diag::{Allow, CompileError, LineMap, Pos};

/// A lexical token kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier.
    Ident(String),
    /// An integer literal.
    Int(u64),
    /// The empty-relation constant `0B`.
    ZeroB,
    /// The full-relation constant `1B`.
    OneB,
    /// `new`
    New,
    /// `domain`
    Domain,
    /// `attribute`
    Attribute,
    /// `physdom`
    Physdom,
    /// `relation`
    RelationKw,
    /// `rule`
    Rule,
    /// `do`
    Do,
    /// `while`
    While,
    /// `if`
    If,
    /// `else`
    Else,
    /// `interleaved`
    Interleaved,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `><`
    JoinSym,
    /// `<>`
    ComposeSym,
    /// `=>`
    Arrow,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `|=`
    OrAssign,
    /// `&=`
    AndAssign,
    /// `-=`
    MinusAssign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `|`
    Pipe,
    /// `&`
    Amp,
    /// `-`
    Minus,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(n) => write!(f, "integer `{n}`"),
            Tok::ZeroB => write!(f, "`0B`"),
            Tok::OneB => write!(f, "`1B`"),
            Tok::New => write!(f, "`new`"),
            Tok::Domain => write!(f, "`domain`"),
            Tok::Attribute => write!(f, "`attribute`"),
            Tok::Physdom => write!(f, "`physdom`"),
            Tok::RelationKw => write!(f, "`relation`"),
            Tok::Rule => write!(f, "`rule`"),
            Tok::Do => write!(f, "`do`"),
            Tok::While => write!(f, "`while`"),
            Tok::If => write!(f, "`if`"),
            Tok::Else => write!(f, "`else`"),
            Tok::Interleaved => write!(f, "`interleaved`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::JoinSym => write!(f, "`><`"),
            Tok::ComposeSym => write!(f, "`<>`"),
            Tok::Arrow => write!(f, "`=>`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::OrAssign => write!(f, "`|=`"),
            Tok::AndAssign => write!(f, "`&=`"),
            Tok::MinusAssign => write!(f, "`-=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Source position of the first character.
    pub pos: Pos,
}

/// Tokenizes mini-Jedd source.
///
/// # Errors
///
/// Returns a [`CompileError`] on unrecognised characters or malformed
/// numbers.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    lex_with_allows(src).map(|(toks, _)| toks)
}

/// Tokenizes mini-Jedd source, also collecting `// jedd:allow(<lint>)`
/// annotations from line comments.
///
/// Positions come from a [`LineMap`] built up front, so every token —
/// including those inside `new { ... }` tuple literals that span
/// newlines — is located by its char offset rather than by counters
/// threaded through the dispatch loop.
///
/// # Errors
///
/// Returns a [`CompileError`] on unrecognised characters or malformed
/// numbers.
pub fn lex_with_allows(src: &str) -> Result<(Vec<Token>, Vec<Allow>), CompileError> {
    let mut out = Vec::new();
    let mut allows = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let map = LineMap::new(src);
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let p = map.pos_at(i);
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let body: String = chars[start..i].iter().collect();
                parse_allow(body.trim(), p.line, &mut allows);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                i += 2;
                while i < chars.len() && !(chars[i] == '*' && chars.get(i + 1) == Some(&'/')) {
                    i += 1;
                }
                if i < chars.len() {
                    i += 2;
                }
            }
            '>' if chars.get(i + 1) == Some(&'<') => {
                out.push(Token {
                    tok: Tok::JoinSym,
                    pos: p,
                });
                i += 2;
            }
            '<' if chars.get(i + 1) == Some(&'>') => {
                out.push(Token {
                    tok: Tok::ComposeSym,
                    pos: p,
                });
                i += 2;
            }
            '=' if chars.get(i + 1) == Some(&'>') => {
                out.push(Token {
                    tok: Tok::Arrow,
                    pos: p,
                });
                i += 2;
            }
            '=' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    tok: Tok::EqEq,
                    pos: p,
                });
                i += 2;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    tok: Tok::NotEq,
                    pos: p,
                });
                i += 2;
            }
            '|' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    tok: Tok::OrAssign,
                    pos: p,
                });
                i += 2;
            }
            '&' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    tok: Tok::AndAssign,
                    pos: p,
                });
                i += 2;
            }
            '-' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    tok: Tok::MinusAssign,
                    pos: p,
                });
                i += 2;
            }
            '<' | '>' | '(' | ')' | '{' | '}' | ',' | ';' | ':' | '=' | '|' | '&' | '-' => {
                let tok = match c {
                    '<' => Tok::Lt,
                    '>' => Tok::Gt,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    ',' => Tok::Comma,
                    ';' => Tok::Semi,
                    ':' => Tok::Colon,
                    '=' => Tok::Assign,
                    '|' => Tok::Pipe,
                    '&' => Tok::Amp,
                    _ => Tok::Minus,
                };
                out.push(Token { tok, pos: p });
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // `0B` / `1B` constants.
                if i < chars.len() && chars[i] == 'B' && (text == "0" || text == "1") {
                    i += 1;
                    out.push(Token {
                        tok: if text == "0" { Tok::ZeroB } else { Tok::OneB },
                        pos: p,
                    });
                } else {
                    let n: u64 = text.parse().map_err(|_| CompileError {
                        pos: p,
                        message: format!("integer literal `{text}` out of range"),
                    })?;
                    out.push(Token {
                        tok: Tok::Int(n),
                        pos: p,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let tok = match text.as_str() {
                    "new" => Tok::New,
                    "domain" => Tok::Domain,
                    "attribute" => Tok::Attribute,
                    "physdom" => Tok::Physdom,
                    "relation" => Tok::RelationKw,
                    "rule" => Tok::Rule,
                    "do" => Tok::Do,
                    "while" => Tok::While,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "interleaved" => Tok::Interleaved,
                    _ => Tok::Ident(text),
                };
                out.push(Token { tok, pos: p });
            }
            other => {
                return Err(CompileError {
                    pos: p,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: map.pos_at(chars.len()),
    });
    Ok((out, allows))
}

/// Recognises `jedd:allow(<lint>, ...)` in a trimmed comment body and
/// records one [`Allow`] per listed lint name. Anything else is ignored.
fn parse_allow(body: &str, line: u32, allows: &mut Vec<Allow>) {
    let Some(rest) = body.strip_prefix("jedd:allow(") else {
        return;
    };
    let Some(inner) = rest.strip_suffix(')') else {
        return;
    };
    for name in inner.split(',') {
        let name = name.trim();
        if !name.is_empty() {
            allows.push(Allow {
                line,
                lint: name.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn operators_and_constants() {
        let toks = kinds("a >< b <> c => 0B 1B |= &= -= == != | & - = < >");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("a".into()),
                Tok::JoinSym,
                Tok::Ident("b".into()),
                Tok::ComposeSym,
                Tok::Ident("c".into()),
                Tok::Arrow,
                Tok::ZeroB,
                Tok::OneB,
                Tok::OrAssign,
                Tok::AndAssign,
                Tok::MinusAssign,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Pipe,
                Tok::Amp,
                Tok::Minus,
                Tok::Assign,
                Tok::Lt,
                Tok::Gt,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn keywords_and_idents() {
        let toks = kinds("rule domain attribute physdom relation do while if else new rectype");
        assert!(matches!(toks[0], Tok::Rule));
        assert!(matches!(toks[9], Tok::New));
        assert_eq!(toks[10], Tok::Ident("rectype".into()));
    }

    #[test]
    fn dotted_idents_for_method_names() {
        let toks = kinds("A.foo B.bar");
        assert_eq!(toks[0], Tok::Ident("A.foo".into()));
        assert_eq!(toks[1], Tok::Ident("B.bar".into()));
    }

    #[test]
    fn comments_skipped_and_positions_tracked() {
        let tokens = lex("// hello\n  a /* b\nc */ d").unwrap();
        assert_eq!(tokens[0].tok, Tok::Ident("a".into()));
        assert_eq!(tokens[0].pos.line, 2);
        assert_eq!(tokens[0].pos.col, 3);
        assert_eq!(tokens[1].tok, Tok::Ident("d".into()));
        assert_eq!(tokens[1].pos.line, 3);
    }

    #[test]
    fn numbers_and_0b() {
        let toks = kinds("42 0 1 0B 1B");
        assert_eq!(toks[0], Tok::Int(42));
        assert_eq!(toks[1], Tok::Int(0));
        assert_eq!(toks[2], Tok::Int(1));
        assert_eq!(toks[3], Tok::ZeroB);
        assert_eq!(toks[4], Tok::OneB);
    }

    #[test]
    fn bad_character_errors() {
        assert!(lex("a $ b").is_err());
    }

    #[test]
    fn multiline_tuple_literal_spans() {
        // Tokens inside a `new { ... }` literal spanning newlines must be
        // anchored on their own lines — the lint passes point at them.
        let src = "s = new {\n  A => x,\n  B => y\n};";
        let toks = lex(src).unwrap();
        let find = |name: &str| {
            toks.iter()
                .find(|t| t.tok == Tok::Ident(name.into()))
                .unwrap()
                .pos
        };
        assert_eq!(find("A"), Pos { line: 2, col: 3 });
        assert_eq!(find("x"), Pos { line: 2, col: 8 });
        assert_eq!(find("B"), Pos { line: 3, col: 3 });
        assert_eq!(find("y"), Pos { line: 3, col: 8 });
        // The closing `};` sits on line 4.
        let rbrace = toks.iter().find(|t| t.tok == Tok::RBrace).unwrap();
        assert_eq!(rbrace.pos, Pos { line: 4, col: 1 });
    }

    #[test]
    fn position_after_line_comment_without_newline_reset() {
        // A token on the line after a trailing comment keeps a correct
        // column (the old counter-threading lexer got this wrong when an
        // arm forgot to update `col`).
        let toks = lex("a // trailing\n   b").unwrap();
        assert_eq!(toks[1].pos, Pos { line: 2, col: 4 });
    }

    #[test]
    fn allow_annotations_are_carried() {
        let src = "\
// jedd:allow(dead-store)
x = y;
z = w; // jedd:allow(projection-pushdown, replace-cost)
// not an annotation
// jedd:allow() \n";
        let (_, allows) = lex_with_allows(src).unwrap();
        assert_eq!(
            allows,
            vec![
                Allow {
                    line: 1,
                    lint: "dead-store".into()
                },
                Allow {
                    line: 3,
                    lint: "projection-pushdown".into()
                },
                Allow {
                    line: 3,
                    lint: "replace-cost".into()
                },
            ]
        );
    }
}
