//! Lexer for the FPIR mini-language.
//!
//! The token set is the C subset floating-point kernels need: identifiers,
//! integer literals (decimal and hex), floating literals, the arithmetic /
//! bitwise / comparison operators, and the keywords `double`, `int`, `if`,
//! `else`, `while`, `return`. Comments (`// ...` and `/* ... */`) are
//! skipped.

use crate::error::{CompileError, ErrorKind};

/// The kind of a token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword-candidate name.
    Ident(String),
    /// An integer literal (decimal or `0x...` hex).
    IntLit(i64),
    /// A floating-point literal.
    FloatLit(f64),
    /// `double`
    KwDouble,
    /// `int`
    KwInt,
    /// `void`
    KwVoid,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `for`
    KwFor,
    /// `return`
    KwReturn,
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
    Semicolon,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `=`
    Assign,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

/// A token together with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// A simple hand-written scanner.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Tokenizes the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on the first unrecognized character or
    /// malformed literal.
    pub fn tokenize(mut self) -> Result<Vec<Token>, CompileError> {
        // About one token per four source bytes: sized once, the vector
        // is not regrown and copied as it fills.
        let mut tokens = Vec::with_capacity(self.src.len() / 4);
        loop {
            let token = self.next_token()?;
            let is_eof = token.kind == TokenKind::Eof;
            tokens.push(token);
            if is_eof {
                break;
            }
        }
        Ok(tokens)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start_line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(CompileError::at(
                                    ErrorKind::Lex,
                                    start_line,
                                    "unterminated block comment",
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, CompileError> {
        self.skip_whitespace_and_comments()?;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
            });
        };

        let kind = match c {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b';' => {
                self.bump();
                TokenKind::Semicolon
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                TokenKind::Minus
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'~' => {
                self.bump();
                TokenKind::Tilde
            }
            b'^' => {
                self.bump();
                TokenKind::Caret
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Le
                    }
                    Some(b'<') => {
                        self.bump();
                        TokenKind::Shl
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Ge
                    }
                    Some(b'>') => {
                        self.bump();
                        TokenKind::Shr
                    }
                    _ => TokenKind::Gt,
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            c if c.is_ascii_digit()
                || (c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit())) =>
            {
                self.lex_number(line)?
            }
            c if c.is_ascii_alphabetic() || c == b'_' => self.lex_ident(),
            other => {
                return Err(CompileError::at(
                    ErrorKind::Lex,
                    line,
                    format!("unexpected character '{}'", other as char),
                ));
            }
        };
        Ok(Token { kind, line })
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii identifiers");
        match text {
            "double" => TokenKind::KwDouble,
            "int" => TokenKind::KwInt,
            "void" => TokenKind::KwVoid,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            _ => TokenKind::Ident(text.to_string()),
        }
    }

    fn lex_number(&mut self, line: u32) -> Result<TokenKind, CompileError> {
        let start = self.pos;
        // Hex literal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() {
                    self.bump();
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).unwrap();
            if text.is_empty() {
                return Err(CompileError::at(ErrorKind::Lex, line, "empty hex literal"));
            }
            // Fdlibm writes masks like 0xffffffff that exceed i32 but fit u32;
            // parse as u64 then reinterpret within i64.
            let value = u64::from_str_radix(text, 16).map_err(|_| {
                CompileError::at(
                    ErrorKind::Lex,
                    line,
                    format!("invalid hex literal 0x{text}"),
                )
            })?;
            return Ok(TokenKind::IntLit(value as i64));
        }

        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !saw_dot && !saw_exp => {
                    saw_dot = true;
                    self.bump();
                }
                b'e' | b'E' if !saw_exp => {
                    saw_exp = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if saw_dot || saw_exp {
            let value: f64 = text.parse().map_err(|_| {
                CompileError::at(
                    ErrorKind::Lex,
                    line,
                    format!("invalid float literal {text}"),
                )
            })?;
            Ok(TokenKind::FloatLit(value))
        } else {
            let value: i64 = text.parse().map_err(|_| {
                CompileError::at(ErrorKind::Lex, line, format!("invalid int literal {text}"))
            })?;
            Ok(TokenKind::IntLit(value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind> {
        Lexer::new(source)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        let k = kinds("double foo int _bar if else while return void for");
        assert_eq!(
            k,
            vec![
                TokenKind::KwDouble,
                TokenKind::Ident("foo".into()),
                TokenKind::KwInt,
                TokenKind::Ident("_bar".into()),
                TokenKind::KwIf,
                TokenKind::KwElse,
                TokenKind::KwWhile,
                TokenKind::KwReturn,
                TokenKind::KwVoid,
                TokenKind::KwFor,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        let k = kinds("42 3.5 0x7ff00000 1e-3 2.5e2 0xffffffff");
        assert_eq!(
            k,
            vec![
                TokenKind::IntLit(42),
                TokenKind::FloatLit(3.5),
                TokenKind::IntLit(0x7ff0_0000),
                TokenKind::FloatLit(1e-3),
                TokenKind::FloatLit(2.5e2),
                TokenKind::IntLit(0xffff_ffff),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let k = kinds("+ - * / % & | ^ ~ ! << >> < <= > >= == != = && ||");
        assert_eq!(
            k,
            vec![
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Amp,
                TokenKind::Pipe,
                TokenKind::Caret,
                TokenKind::Tilde,
                TokenKind::Bang,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Assign,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let tokens = Lexer::new("// line comment\nx /* block\ncomment */ y")
            .tokenize()
            .unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(tokens[0].line, 2);
        assert_eq!(tokens[1].kind, TokenKind::Ident("y".into()));
        assert_eq!(tokens[1].line, 3);
    }

    #[test]
    fn reports_unexpected_character() {
        let err = Lexer::new("x @ y").tokenize().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Lex);
        assert!(err.message.contains('@'));
    }

    #[test]
    fn reports_unterminated_block_comment() {
        let err = Lexer::new("/* never ends").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn leading_dot_float() {
        assert_eq!(kinds(".5")[0], TokenKind::FloatLit(0.5));
    }
}
