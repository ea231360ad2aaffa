//! Recursive-descent parser for the FPIR mini-language.
//!
//! Grammar (simplified):
//!
//! ```text
//! module     := function*
//! function   := type IDENT '(' params? ')' block
//! params     := type IDENT (',' type IDENT)*
//! block      := '{' stmt* '}'
//! stmt       := type IDENT ('=' expr)? ';'
//!             | IDENT '=' expr ';'
//!             | 'if' '(' expr ')' block ('else' (block | if-stmt))?
//!             | 'while' '(' expr ')' block
//!             | 'return' expr? ';'
//!             | expr ';'
//! expr       := logical_or
//! logical_or := logical_and ('||' logical_and)*
//! logical_and:= bit_or ('&&' bit_or)*
//! bit_or     := bit_xor ('|' bit_xor)*
//! bit_xor    := bit_and ('^' bit_and)*
//! bit_and    := equality ('&' equality)*
//! equality   := relational (('==' | '!=') relational)*
//! relational := shift (('<' | '<=' | '>' | '>=') shift)*
//! shift      := additive (('<<' | '>>') additive)*
//! additive   := multiplicative (('+' | '-') multiplicative)*
//! multiplicative := unary (('*' | '/' | '%') unary)*
//! unary      := ('-' | '~' | '!') unary | cast
//! cast       := '(' type ')' unary | primary
//! primary    := INT | FLOAT | IDENT | IDENT '(' args? ')' | '(' expr ')'
//! ```

use coverme_runtime::Cmp;

use crate::ast::{BinOp, Block, Expr, FunctionDef, Module, Param, Stmt, Ty, UnOp};
use crate::error::{CompileError, ErrorKind};
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses a complete module from source text.
///
/// # Errors
///
/// Returns the first lexing or parsing error.
pub fn parse(source: &str) -> Result<Module, CompileError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser::new(tokens).parse_module()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Consumes the token under the cursor. Its slot is never read again,
    /// so the token moves out; only the final `Eof`, which the cursor
    /// never passes, is copied.
    fn bump(&mut self) -> TokenKind {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
        } else {
            self.tokens[self.pos].kind.clone()
        }
    }

    /// Consumes the identifier under the cursor, which the caller peeked.
    fn bump_ident(&mut self) -> String {
        match self.bump() {
            TokenKind::Ident(name) => name,
            other => unreachable!("peeked an identifier, found {other:?}"),
        }
    }

    fn expect(&mut self, expected: &TokenKind, what: &str) -> Result<(), CompileError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(CompileError::at(
                ErrorKind::Parse,
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn parse_module(&mut self) -> Result<Module, CompileError> {
        let mut functions = Vec::new();
        while *self.peek() != TokenKind::Eof {
            functions.push(self.parse_function()?);
        }
        Ok(Module { functions })
    }

    fn parse_type(&mut self) -> Result<Ty, CompileError> {
        match self.peek() {
            TokenKind::KwDouble => {
                self.bump();
                Ok(Ty::Double)
            }
            TokenKind::KwInt => {
                self.bump();
                Ok(Ty::Int)
            }
            TokenKind::KwVoid => {
                self.bump();
                Ok(Ty::Void)
            }
            other => Err(CompileError::at(
                ErrorKind::Parse,
                self.line(),
                format!("expected a type, found {other:?}"),
            )),
        }
    }

    fn parse_ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(self.bump_ident()),
            other => Err(CompileError::at(
                ErrorKind::Parse,
                self.line(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn parse_function(&mut self) -> Result<FunctionDef, CompileError> {
        let line = self.line();
        let ret = self.parse_type()?;
        let name = self.parse_ident("function name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let ty = self.parse_type()?;
                let pname = self.parse_ident("parameter name")?;
                params.push(Param { ty, name: pname });
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        let body = self.parse_block()?;
        Ok(FunctionDef {
            ret,
            name,
            params,
            body,
            line,
        })
    }

    fn parse_block(&mut self) -> Result<Block, CompileError> {
        self.expect(&TokenKind::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(CompileError::at(
                    ErrorKind::Parse,
                    self.line(),
                    "unexpected end of input inside a block",
                ));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace, "'}'")?;
        Ok(Block { stmts })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            TokenKind::KwDouble | TokenKind::KwInt => {
                let ty = self.parse_type()?;
                let name = self.parse_ident("variable name")?;
                let init = if *self.peek() == TokenKind::Assign {
                    self.bump();
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Stmt::Decl {
                    ty,
                    name,
                    init,
                    line,
                })
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(&TokenKind::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                let then_block = self.parse_block_or_single()?;
                let else_block = if *self.peek() == TokenKind::KwElse {
                    self.bump();
                    if *self.peek() == TokenKind::KwIf {
                        // `else if` chains become a nested single-statement block.
                        let nested = self.parse_stmt()?;
                        Some(Block {
                            stmts: vec![nested],
                        })
                    } else {
                        Some(self.parse_block_or_single()?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    line,
                    site: None,
                })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen, "'('")?;
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                let body = self.parse_block_or_single()?;
                Ok(Stmt::While {
                    cond,
                    body,
                    line,
                    site: None,
                })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if *self.peek() == TokenKind::Semicolon {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&TokenKind::Semicolon, "';'")?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Ident(_) => {
                // Lookahead: assignment or expression statement.
                if self.tokens[self.pos + 1].kind == TokenKind::Assign {
                    let name = self.bump_ident();
                    self.bump(); // '='
                    let value = self.parse_expr()?;
                    self.expect(&TokenKind::Semicolon, "';'")?;
                    Ok(Stmt::Assign { name, value, line })
                } else {
                    let expr = self.parse_expr()?;
                    self.expect(&TokenKind::Semicolon, "';'")?;
                    Ok(Stmt::ExprStmt { expr, line })
                }
            }
            other => Err(CompileError::at(
                ErrorKind::Parse,
                line,
                format!("unexpected token {other:?} at start of statement"),
            )),
        }
    }

    /// Parses either a braced block or a single statement (C allows both as
    /// `if`/`while` bodies; Fdlibm uses both styles).
    fn parse_block_or_single(&mut self) -> Result<Block, CompileError> {
        if *self.peek() == TokenKind::LBrace {
            self.parse_block()
        } else {
            let stmt = self.parse_stmt()?;
            Ok(Block { stmts: vec![stmt] })
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        self.parse_logical_or()
    }

    fn parse_logical_or(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_logical_and()?;
        while *self.peek() == TokenKind::OrOr {
            self.bump();
            let rhs = self.parse_logical_and()?;
            lhs = Expr::Binary {
                op: BinOp::LogicalOr,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_logical_and(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_bit_or()?;
        while *self.peek() == TokenKind::AndAnd {
            self.bump();
            let rhs = self.parse_bit_or()?;
            lhs = Expr::Binary {
                op: BinOp::LogicalAnd,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bit_or(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_bit_xor()?;
        while *self.peek() == TokenKind::Pipe {
            self.bump();
            let rhs = self.parse_bit_xor()?;
            lhs = Expr::Binary {
                op: BinOp::BitOr,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bit_xor(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_bit_and()?;
        while *self.peek() == TokenKind::Caret {
            self.bump();
            let rhs = self.parse_bit_and()?;
            lhs = Expr::Binary {
                op: BinOp::BitXor,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_bit_and(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_equality()?;
        while *self.peek() == TokenKind::Amp {
            self.bump();
            let rhs = self.parse_equality()?;
            lhs = Expr::Binary {
                op: BinOp::BitAnd,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => Cmp::Eq,
                TokenKind::NotEq => Cmp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_relational()?;
            lhs = Expr::Binary {
                op: BinOp::Cmp(op),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_shift()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => Cmp::Lt,
                TokenKind::Le => Cmp::Le,
                TokenKind::Gt => Cmp::Gt,
                TokenKind::Ge => Cmp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_shift()?;
            lhs = Expr::Binary {
                op: BinOp::Cmp(op),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_shift(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Shl => BinOp::Shl,
                TokenKind::Shr => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_additive()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, CompileError> {
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Tilde => Some(UnOp::BitNot),
            TokenKind::Bang => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        self.parse_cast()
    }

    fn parse_cast(&mut self) -> Result<Expr, CompileError> {
        // `(int) expr` / `(double) expr`.
        if *self.peek() == TokenKind::LParen {
            if let TokenKind::KwInt | TokenKind::KwDouble = self.tokens[self.pos + 1].kind {
                if self.tokens[self.pos + 2].kind == TokenKind::RParen {
                    self.bump(); // (
                    let ty = self.parse_type()?;
                    self.bump(); // )
                    let expr = self.parse_unary()?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(expr),
                    });
                }
            }
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match *self.peek() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            TokenKind::Ident(_) => {
                let name = self.bump_ident();
                if *self.peek() == TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if *self.peek() == TokenKind::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "')'")?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let expr = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(expr)
            }
            ref other => Err(CompileError::at(
                ErrorKind::Parse,
                line,
                format!("unexpected token {other:?} in expression"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let m = parse(
            r#"
            double foo(double x) {
                double y;
                y = x * x;
                return y;
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[0];
        assert_eq!(f.name, "foo");
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.body.stmts.len(), 3);
    }

    #[test]
    fn parses_if_else_chains() {
        let m = parse(
            r#"
            double f(double x) {
                if (x < 0.0) { return -x; }
                else if (x == 0.0) { return 0.0; }
                else { return x; }
            }
            "#,
        )
        .unwrap();
        let Stmt::If { else_block, .. } = &m.functions[0].body.stmts[0] else {
            panic!("expected if");
        };
        let nested = else_block.as_ref().unwrap();
        assert!(matches!(nested.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_while_and_compound_conditions() {
        let m = parse(
            r#"
            int f(int n) {
                int i = 0;
                while (i < n && n > 0) { i = i + 1; }
                return i;
            }
            "#,
        )
        .unwrap();
        let Stmt::While { cond, .. } = &m.functions[0].body.stmts[1] else {
            panic!("expected while");
        };
        assert!(matches!(
            cond,
            Expr::Binary {
                op: BinOp::LogicalAnd,
                ..
            }
        ));
    }

    #[test]
    fn parses_bit_manipulation_and_hex() {
        let m = parse(
            r#"
            int f(double x) {
                int ix = high_word(x) & 0x7fffffff;
                if (ix >= 0x7ff00000) { return 1; }
                return (ix >> 20) - 1023;
            }
            "#,
        )
        .unwrap();
        let f = &m.functions[0];
        assert_eq!(f.body.stmts.len(), 3);
        let Stmt::Decl {
            init: Some(init), ..
        } = &f.body.stmts[0]
        else {
            panic!("expected decl with init");
        };
        assert!(matches!(
            init,
            Expr::Binary {
                op: BinOp::BitAnd,
                ..
            }
        ));
    }

    #[test]
    fn parses_casts_and_unary() {
        let m = parse(
            r#"
            double f(double x) {
                int i = (int) x;
                double y = (double) (~i);
                return -y;
            }
            "#,
        )
        .unwrap();
        let Stmt::Decl {
            init: Some(init), ..
        } = &m.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(init, Expr::Cast { ty: Ty::Int, .. }));
    }

    #[test]
    fn operator_precedence_mul_binds_tighter_than_add() {
        let m = parse("double f(double x) { return x + x * 2.0; }").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &m.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn comparison_produces_cmp_binop() {
        let m = parse("int f(double x) { if (x <= 1.0) { return 1; } return 0; }").unwrap();
        let Stmt::If { cond, site, .. } = &m.functions[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(
            cond,
            Expr::Binary {
                op: BinOp::Cmp(Cmp::Le),
                ..
            }
        ));
        assert!(site.is_none(), "site ids are assigned by instrumentation");
    }

    #[test]
    fn single_statement_bodies_are_allowed() {
        let m = parse("double f(double x) { if (x < 0.0) return -x; return x; }").unwrap();
        let Stmt::If { then_block, .. } = &m.functions[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(then_block.stmts.len(), 1);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse("double f(double x) { return x }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
    }

    #[test]
    fn error_on_garbage_statement() {
        let err = parse("double f(double x) { + ; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
    }

    #[test]
    fn error_on_unclosed_block() {
        let err = parse("double f(double x) { return x;").unwrap_err();
        assert!(err.message.contains("end of input") || err.message.contains("expected"));
    }

    #[test]
    fn parses_multiple_functions_with_calls() {
        let m = parse(
            r#"
            double square(double x) { return x * x; }
            double foo(double x) {
                if (x <= 1.0) { x = x + 1.0; }
                double y = square(x);
                if (y == -1.0) { return 1.0; }
                return 0.0;
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 2);
        assert!(m.function("square").is_some());
    }
}
