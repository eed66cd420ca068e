//! Recursive-descent parser for mini-Jedd, implementing the productions of
//! the paper's Fig. 5 grammar (plus the standalone declaration/rule
//! syntax).

use crate::ast::*;
use crate::diag::{CompileError, Pos};
use crate::lex::{lex_with_allows, Tok, Token};

/// How deeply source may nest. Around any point there may be at most
/// this many enclosing statement bodies, parentheses and casts; and no
/// expression tree may be so high that its height plus the statement
/// bodies around it exceeds this. Deeper input is rejected with a
/// [`CompileError`] at the token that crosses the limit: the parser, the
/// checker, the physical-domain assignment and the executor all recurse
/// over statements and expressions, and past the limit they could
/// overflow a thread's stack. At the limit, every pass fits in a 2 MiB
/// stack even in an unoptimised build.
pub const MAX_NESTING: usize = 100;

struct Parser {
    toks: Vec<Token>,
    i: usize,
    /// Enclosing statement bodies, parentheses and casts.
    depth: usize,
    /// Enclosing statement bodies.
    bodies: usize,
}

/// Parses a mini-Jedd source file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its position.
pub fn parse(src: &str) -> Result<Program, CompileError> {
    let (toks, allows) = lex_with_allows(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        bodies: 0,
    };
    let mut prog = p.program()?;
    prog.allows = allows;
    Ok(prog)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.toks[(self.i + n).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i < self.toks.len() - 1 {
            self.i += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), CompileError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn error(&self, message: String) -> CompileError {
        CompileError {
            pos: self.pos(),
            message,
        }
    }

    /// Steps one level deeper into the source, failing past
    /// [`MAX_NESTING`]. Every `enter` is paired with a [`Parser::leave`]
    /// on the success path; an error abandons the whole parse.
    fn enter(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Checks the height of an expression tree just built, counting the
    /// statement bodies around it.
    fn check_height(&self, height: usize) -> Result<(), CompileError> {
        if self.bodies + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn too_deep(&self) -> CompileError {
        self.error(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// `{ stmt* }` — a nested statement body.
    fn body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.enter()?;
        self.bodies += 1;
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while *self.peek() != Tok::RBrace {
            body.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        self.bodies -= 1;
        self.leave();
        Ok(body)
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut decls = Vec::new();
        while *self.peek() != Tok::Eof {
            decls.push(self.decl()?);
        }
        Ok(Program {
            decls,
            allows: Vec::new(),
        })
    }

    fn decl(&mut self) -> Result<Decl, CompileError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Domain => {
                self.bump();
                let name = self.ident()?;
                let spec = match self.peek().clone() {
                    Tok::Int(n) => {
                        self.bump();
                        DomainSpec::Fixed(n)
                    }
                    Tok::LBrace => {
                        self.bump();
                        let mut elements = vec![self.ident()?];
                        while *self.peek() == Tok::Comma {
                            self.bump();
                            elements.push(self.ident()?);
                        }
                        self.expect(&Tok::RBrace)?;
                        DomainSpec::Enumerated(elements)
                    }
                    _ => DomainSpec::Deferred,
                };
                self.expect(&Tok::Semi)?;
                Ok(Decl::Domain { name, spec, pos })
            }
            Tok::Attribute => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Colon)?;
                let domain = self.ident()?;
                self.expect(&Tok::Semi)?;
                Ok(Decl::Attribute { name, domain, pos })
            }
            Tok::Physdom => {
                self.bump();
                let interleaved = if *self.peek() == Tok::Interleaved {
                    self.bump();
                    true
                } else {
                    false
                };
                let mut names = vec![self.ident()?];
                while *self.peek() == Tok::Comma {
                    self.bump();
                    names.push(self.ident()?);
                }
                self.expect(&Tok::Semi)?;
                Ok(Decl::Physdom {
                    names,
                    interleaved,
                    pos,
                })
            }
            Tok::RelationKw => {
                self.bump();
                let schema = self.schema()?;
                let name = self.ident()?;
                self.expect(&Tok::Semi)?;
                Ok(Decl::Relation { name, schema, pos })
            }
            Tok::Rule => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::LBrace)?;
                let mut body = Vec::new();
                while *self.peek() != Tok::RBrace {
                    body.push(self.stmt()?);
                }
                self.expect(&Tok::RBrace)?;
                Ok(Decl::Rule { name, body, pos })
            }
            other => Err(self.error(format!(
                "expected a declaration (domain/attribute/physdom/relation/rule), found {other}"
            ))),
        }
    }

    /// `<a:T1, b>`
    fn schema(&mut self) -> Result<SchemaAst, CompileError> {
        let pos = self.pos();
        self.expect(&Tok::Lt)?;
        let mut attrs = Vec::new();
        loop {
            let attr = self.ident()?;
            let phys = if *self.peek() == Tok::Colon {
                self.bump();
                Some(self.ident()?)
            } else {
                None
            };
            attrs.push((attr, phys));
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Gt)?;
        Ok(SchemaAst { attrs, pos })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Lt => {
                let schema = self.schema()?;
                let name = self.ident()?;
                let init = if *self.peek() == Tok::Assign {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Local {
                    name,
                    schema,
                    init,
                    pos,
                })
            }
            Tok::Do => {
                self.bump();
                let body = self.body()?;
                self.expect(&Tok::While)?;
                self.expect(&Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond, pos })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(&Tok::RParen)?;
                let body = self.body()?;
                Ok(Stmt::While { cond, body, pos })
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(&Tok::RParen)?;
                let then_body = self.body()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.bump();
                    self.body()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                })
            }
            Tok::Ident(_) => {
                let name = self.ident()?;
                let op = match self.peek() {
                    Tok::Assign => AssignOp::Set,
                    Tok::OrAssign => AssignOp::Union,
                    Tok::AndAssign => AssignOp::Intersect,
                    Tok::MinusAssign => AssignOp::Minus,
                    other => {
                        return Err(self.error(format!(
                            "expected an assignment operator after `{name}`, found {other}"
                        )))
                    }
                };
                self.bump();
                let expr = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Assign {
                    name,
                    op,
                    expr,
                    pos,
                })
            }
            other => Err(self.error(format!("expected a statement, found {other}"))),
        }
    }

    fn cond(&mut self) -> Result<Cond, CompileError> {
        let pos = self.pos();
        let left = self.expr()?;
        let eq = match self.peek() {
            Tok::EqEq => true,
            Tok::NotEq => false,
            other => {
                return Err(self.error(format!("expected `==` or `!=` in condition, found {other}")))
            }
        };
        self.bump();
        let right = self.expr()?;
        Ok(Cond {
            left,
            right,
            eq,
            pos,
        })
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        Ok(self.set_expr()?.0)
    }

    /// `joinExpr (('|' | '&' | '-') joinExpr)*`. Like every expression
    /// production below, returns the expression with its tree height.
    fn set_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        let (mut left, mut height) = self.join_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Pipe => SetOp::Union,
                Tok::Amp => SetOp::Intersect,
                Tok::Minus => SetOp::Minus,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let (right, right_height) = self.join_expr()?;
            height = height.max(right_height) + 1;
            self.check_height(height)?;
            left = Expr::SetOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
                pos,
            };
        }
        Ok((left, height))
    }

    /// `unary (attrList ('><' | '<>') unary attrList)*` — left associative,
    /// matching the Fig. 5 `RelExprJoin` production.
    fn join_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        let (mut left, mut height) = self.unary()?;
        while *self.peek() == Tok::LBrace {
            let pos = self.pos();
            let left_attrs = self.attr_list()?;
            let is_join = match self.peek() {
                Tok::JoinSym => true,
                Tok::ComposeSym => false,
                other => {
                    return Err(self.error(format!(
                        "expected `><` or `<>` after attribute list, found {other}"
                    )))
                }
            };
            self.bump();
            let (right, right_height) = self.unary()?;
            let right_attrs = self.attr_list()?;
            height = height.max(right_height) + 1;
            self.check_height(height)?;
            left = Expr::JoinLike {
                left: Box::new(left),
                left_attrs,
                right: Box::new(right),
                right_attrs,
                is_join,
                pos,
            };
        }
        Ok((left, height))
    }

    /// `{a, b}`
    fn attr_list(&mut self) -> Result<Vec<String>, CompileError> {
        self.expect(&Tok::LBrace)?;
        let mut attrs = vec![self.ident()?];
        while *self.peek() == Tok::Comma {
            self.bump();
            attrs.push(self.ident()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(attrs)
    }

    /// Replacement cast or primary. A `(` followed by `ident =>` starts a
    /// cast; otherwise it parenthesises an expression.
    fn unary(&mut self) -> Result<(Expr, usize), CompileError> {
        self.enter()?;
        let parsed = if *self.peek() == Tok::LParen
            && matches!(self.peek_at(1), Tok::Ident(_))
            && *self.peek_at(2) == Tok::Arrow
        {
            let pos = self.pos();
            self.bump(); // (
            let mut replacements = vec![self.replacement()?];
            while *self.peek() == Tok::Comma {
                self.bump();
                replacements.push(self.replacement()?);
            }
            self.expect(&Tok::RParen)?;
            let (operand, height) = self.unary()?;
            let replace = Expr::Replace {
                replacements,
                operand: Box::new(operand),
                pos,
            };
            (replace, height + 1)
        } else {
            self.primary()?
        };
        self.check_height(parsed.1)?;
        self.leave();
        Ok(parsed)
    }

    /// `a=>`, `a=>b` or `a=>b c`
    fn replacement(&mut self) -> Result<Replacement, CompileError> {
        let from = self.ident()?;
        self.expect(&Tok::Arrow)?;
        match self.peek().clone() {
            Tok::Ident(to1) => {
                self.bump();
                if let Tok::Ident(to2) = self.peek().clone() {
                    self.bump();
                    Ok(Replacement::Copy(from, to1, to2))
                } else {
                    Ok(Replacement::Rename(from, to1))
                }
            }
            _ => Ok(Replacement::Project(from)),
        }
    }

    fn primary(&mut self) -> Result<(Expr, usize), CompileError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok((Expr::Var { name, pos }, 1))
            }
            Tok::ZeroB => {
                self.bump();
                Ok((Expr::Empty { pos }, 1))
            }
            Tok::OneB => {
                self.bump();
                Ok((Expr::Full { pos }, 1))
            }
            Tok::New => {
                self.bump();
                self.expect(&Tok::LBrace)?;
                let mut fields = Vec::new();
                loop {
                    let obj = match self.peek().clone() {
                        Tok::Ident(s) => {
                            self.bump();
                            LiteralObj::Label(s)
                        }
                        Tok::Int(n) => {
                            self.bump();
                            LiteralObj::Index(n)
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected an object label or index in literal, found {other}"
                            )))
                        }
                    };
                    self.expect(&Tok::Arrow)?;
                    let attr = self.ident()?;
                    let phys = if *self.peek() == Tok::Colon {
                        self.bump();
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    fields.push((obj, attr, phys));
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok((Expr::Literal { fields, pos }, 1))
            }
            Tok::LParen => {
                self.bump();
                let parsed = self.set_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(parsed)
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_declarations() {
        let src = "
            domain Type { A, B };
            domain Method 1024;
            domain Site;
            attribute rectype : Type;
            physdom T1;
            physdom interleaved V1, V2;
            relation <rectype:T1, signature> receiverTypes;
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.decls.len(), 7);
        assert!(matches!(
            &p.decls[0],
            Decl::Domain { spec: DomainSpec::Enumerated(e), .. } if e.len() == 2
        ));
        assert!(matches!(
            &p.decls[1],
            Decl::Domain {
                spec: DomainSpec::Fixed(1024),
                ..
            }
        ));
        assert!(matches!(
            &p.decls[2],
            Decl::Domain {
                spec: DomainSpec::Deferred,
                ..
            }
        ));
        assert!(matches!(
            &p.decls[5],
            Decl::Physdom { interleaved: true, names, .. } if names.len() == 2
        ));
    }

    #[test]
    fn parse_figure4_body() {
        // The resolve rule of Fig. 4, lines 3-11, in mini-Jedd.
        let src = "
        rule resolve {
            <rectype, signature, tgttype> toResolve =
                (rectype => rectype tgttype) receiverTypes;
            do {
                <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =
                    toResolve {tgttype, signature} >< declaresMethod {type, signature};
                answer |= resolved;
                toResolve -= (method=>) resolved;
                toResolve = (supertype=>tgttype) (toResolve {tgttype} <> extend {subtype});
            } while (toResolve != 0B);
        }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!("expected rule");
        };
        assert_eq!(body.len(), 2);
        let Stmt::Local { schema, init, .. } = &body[0] else {
            panic!("expected local");
        };
        assert_eq!(schema.attrs.len(), 3);
        assert!(matches!(init, Some(Expr::Replace { .. })));
        let Stmt::DoWhile {
            body: loop_body,
            cond,
            ..
        } = &body[1]
        else {
            panic!("expected do-while");
        };
        assert_eq!(loop_body.len(), 4);
        assert!(!cond.eq);
        // The join in the loop.
        let Stmt::Local {
            schema,
            init:
                Some(Expr::JoinLike {
                    is_join,
                    left_attrs,
                    ..
                }),
            ..
        } = &loop_body[0]
        else {
            panic!("expected join local");
        };
        assert!(*is_join);
        assert_eq!(
            left_attrs,
            &vec!["tgttype".to_string(), "signature".to_string()]
        );
        assert_eq!(schema.attrs[0].1.as_deref(), Some("T1"));
    }

    #[test]
    fn parse_literals() {
        let src = "rule r { x = new { B => rectype:T1, 2 => signature }; }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!()
        };
        let Stmt::Assign {
            expr: Expr::Literal { fields, .. },
            ..
        } = &body[0]
        else {
            panic!("expected literal assignment")
        };
        assert_eq!(fields.len(), 2);
        assert!(matches!(fields[0].0, LiteralObj::Label(_)));
        assert!(matches!(fields[1].0, LiteralObj::Index(2)));
        assert_eq!(fields[0].2.as_deref(), Some("T1"));
    }

    #[test]
    fn parse_set_ops_and_parens() {
        let src = "rule r { x = (a | b) & c - d; }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!()
        };
        // Left associativity: ((a|b) & c) - d.
        let Stmt::Assign { expr, .. } = &body[0] else {
            panic!()
        };
        let Expr::SetOp {
            op: SetOp::Minus,
            left,
            ..
        } = expr
        else {
            panic!("outermost should be -")
        };
        assert!(matches!(
            **left,
            Expr::SetOp {
                op: SetOp::Intersect,
                ..
            }
        ));
    }

    #[test]
    fn parse_replacement_variants() {
        let src = "rule r { x = (a=>, b=>c, d=>e f) y; }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!()
        };
        let Stmt::Assign {
            expr: Expr::Replace { replacements, .. },
            ..
        } = &body[0]
        else {
            panic!()
        };
        assert_eq!(replacements.len(), 3);
        assert!(matches!(&replacements[0], Replacement::Project(a) if a == "a"));
        assert!(matches!(&replacements[1], Replacement::Rename(b, c) if b == "b" && c == "c"));
        assert!(
            matches!(&replacements[2], Replacement::Copy(d, e, f) if d == "d" && e == "e" && f == "f")
        );
    }

    #[test]
    fn parse_if_else_and_while() {
        let src = "
        rule r {
            while (x != 0B) { x = x - y; }
            if (x == 0B) { x = y; } else { x = z; }
        }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(&body[0], Stmt::While { .. }));
        assert!(matches!(&body[1], Stmt::If { else_body, .. } if else_body.len() == 1));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse("rule r { x = ; }").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("expected an expression"));
    }

    #[test]
    fn chained_joins_are_left_associative() {
        let src = "rule r { x = a {p} >< b {q} {r} <> c {s}; }";
        let p = parse(src).unwrap();
        let Decl::Rule { body, .. } = &p.decls[0] else {
            panic!()
        };
        let Stmt::Assign {
            expr:
                Expr::JoinLike {
                    is_join: false,
                    left,
                    ..
                },
            ..
        } = &body[0]
        else {
            panic!("outermost should be compose")
        };
        assert!(matches!(**left, Expr::JoinLike { is_join: true, .. }));
    }
}
