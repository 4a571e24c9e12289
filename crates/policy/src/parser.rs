//! Recursive-descent parser for the policy language.
//!
//! Grammar (brace-delimited blocks; the paper's figures use indentation
//! pseudo-code, which DESIGN.md transcribes into this concrete syntax):
//!
//! ```text
//! policy  := stmt*
//! stmt    := "if" expr block ("else" (stmt_if | block))?
//!          | "return" ("grant" | "deny" STRING?)
//!          | "attach" IDENT "=" expr
//! block   := "{" stmt* "}"
//! expr    := or_expr
//! or_expr := and_expr ("or" and_expr)*
//! and_expr:= not_expr ("and" not_expr)*
//! not_expr:= "not" not_expr | cmp
//! cmp     := primary (("="|"!="|"<"|"<="|">"|">=") primary)?
//! primary := literal | IDENT ("(" args ")")? | "(" expr ")"
//! ```
//!
//! A bare identifier in value position is an attribute reference; bare
//! identifiers on the right of `=` (e.g. `User = Alice`) fall back to
//! string literals when the environment has no such attribute — this
//! mirrors the figures, which quote nothing.

use crate::ast::{CmpOp, Decision, Expr, Policy, Stmt};
use crate::attr::Value;
use crate::token::{lex, LexError, Token};
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parse policy source text into a [`Policy`].
pub fn parse(src: &str) -> Result<Policy, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.stmt()?);
    }
    Ok(Policy {
        stmts,
        source: src.to_string(),
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.advance() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(ParseError {
                message: format!("expected {want}, found {t}"),
            }),
            None => Err(ParseError {
                message: format!("expected {want}, found end of input"),
            }),
        }
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.advance() {
            Some(Token::If) => self.if_tail(),
            Some(Token::Return) => {
                let d = match self.advance() {
                    Some(Token::Grant) => Decision::Grant,
                    Some(Token::Deny) => {
                        let reason = if let Some(Token::Str(_)) = self.peek() {
                            match self.advance() {
                                Some(Token::Str(s)) => Some(s),
                                _ => unreachable!(),
                            }
                        } else {
                            None
                        };
                        Decision::Deny(reason)
                    }
                    other => {
                        return Err(ParseError {
                            message: format!(
                                "expected grant or deny after return, found {}",
                                other.map_or_else(|| "end of input".into(), |t| t.to_string())
                            ),
                        })
                    }
                };
                Ok(Stmt::Return(d))
            }
            Some(Token::Attach) => {
                let key = match self.advance() {
                    Some(Token::Ident(k)) => k,
                    other => {
                        return Err(ParseError {
                            message: format!(
                                "expected attribute name after attach, found {}",
                                other.map_or_else(|| "end of input".into(), |t| t.to_string())
                            ),
                        })
                    }
                };
                self.expect(&Token::Eq)?;
                let value = self.expr()?;
                Ok(Stmt::Attach { key, value })
            }
            other => Err(ParseError {
                message: format!(
                    "expected statement, found {}",
                    other.map_or_else(|| "end of input".into(), |t| t.to_string())
                ),
            }),
        }
    }

    /// Parse the remainder of an `if` after the keyword.
    fn if_tail(&mut self) -> Result<Stmt, ParseError> {
        let cond = self.expr()?;
        let then = self.block()?;
        let otherwise = if self.eat(&Token::Else) {
            if self.eat(&Token::If) {
                vec![self.if_tail()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then,
            otherwise,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.at_end() {
                return Err(ParseError {
                    message: "unterminated block (missing '}')".into(),
                });
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(stmts)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Token::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp()
        }
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.primary()?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.primary()?;
        Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Token::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Token::Bandwidth(b)) => Ok(Expr::Lit(Value::Bandwidth(b))),
            Some(Token::Time(t)) => Ok(Expr::Lit(Value::TimeOfDay(t))),
            Some(Token::True) => Ok(Expr::Lit(Value::Bool(true))),
            Some(Token::False) => Ok(Expr::Lit(Value::Bool(false))),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Attr(name))
                }
            }
            other => Err(ParseError {
                message: format!(
                    "expected expression, found {}",
                    other.map_or_else(|| "end of input".into(), |t| t.to_string())
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_policy_a() {
        // "If User = Alice … Return GRANT; if User = Bob … Return DENY"
        let p = parse(
            r#"
            if User = Alice and Reservation_Type = Network { return grant }
            if User = Bob { return deny "Bob is not allowed" }
            return deny
            "#,
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 3);
        assert_eq!(p.rule_count(), 5);
    }

    #[test]
    fn parses_nested_if_else_chain() {
        let p = parse(
            r#"
            if User = Alice {
                if Time > 8am and Time < 5pm {
                    if BW <= 10Mb/s { return grant } else { return deny "cap" }
                } else if BW <= Avail_BW {
                    return grant
                } else {
                    return deny
                }
            }
            return deny
            "#,
        )
        .unwrap();
        match &p.stmts[0] {
            Stmt::If { then, .. } => match &then[0] {
                Stmt::If { otherwise, .. } => {
                    assert!(matches!(otherwise[0], Stmt::If { .. }), "else-if chains");
                }
                s => panic!("unexpected {s:?}"),
            },
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parses_calls_and_attach() {
        let p = parse(
            r#"
            if Accredited_Physicist(requestor) {
                attach required_group = "physicists"
                return grant
            }
            if Issued_by(Capability) = ESnet and HasValidCPUResv(RAR) { return grant }
            return deny "no rule matched"
            "#,
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 3);
        match &p.stmts[1] {
            Stmt::If { cond, .. } => match cond {
                Expr::And(l, r) => {
                    assert!(matches!(**l, Expr::Cmp(_, CmpOp::Eq, _)));
                    assert!(matches!(**r, Expr::Call(ref n, _) if n == "HasValidCPUResv"));
                }
                e => panic!("unexpected {e:?}"),
            },
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn operator_precedence_not_and_or() {
        let p = parse("if not a and b or c { return grant } return deny").unwrap();
        // ((not a) and b) or c
        match &p.stmts[0] {
            Stmt::If {
                cond: Expr::Or(l, _),
                ..
            } => {
                assert!(matches!(**l, Expr::And(_, _)));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn error_messages_are_specific() {
        let e = parse("if { return grant }").unwrap_err();
        assert!(e.message.contains("expected expression"), "{e}");
        let e = parse("return maybe").unwrap_err();
        assert!(e.message.contains("grant or deny"), "{e}");
        let e = parse("if x { return grant").unwrap_err();
        assert!(
            e.message.contains("unterminated") || e.message.contains("expected"),
            "{e}"
        );
    }

    #[test]
    fn parenthesized_expressions() {
        let p = parse("if (a or b) and c { return grant } return deny").unwrap();
        match &p.stmts[0] {
            Stmt::If {
                cond: Expr::And(l, _),
                ..
            } => {
                assert!(matches!(**l, Expr::Or(_, _)));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn double_equals_accepted() {
        assert_eq!(
            parse("if a == b { return grant } return deny")
                .unwrap()
                .stmts,
            parse("if a = b { return grant } return deny")
                .unwrap()
                .stmts
        );
    }
}
