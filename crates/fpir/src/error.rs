//! Compilation errors for the FPIR mini-language.

use std::fmt;

/// The phase/category of a compilation problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Invalid character sequence or malformed literal.
    Lex,
    /// The token stream does not match the grammar.
    Parse,
    /// Name resolution or type mismatch.
    Type,
    /// Instrumentation-time problems (missing entry function, unsupported
    /// parameter types, ...).
    Instrument,
    /// Lowering to the instruction tape: a function needs more registers
    /// than the tape has, or an unchecked module holds what type checking
    /// rules out.
    Lower,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            ErrorKind::Lex => "lex error",
            ErrorKind::Parse => "parse error",
            ErrorKind::Type => "type error",
            ErrorKind::Instrument => "instrumentation error",
            ErrorKind::Lower => "lowering error",
        };
        write!(f, "{label}")
    }
}

/// A compilation error with location information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Which phase rejected the program.
    pub kind: ErrorKind,
    /// 1-based source line, when known (0 = unknown).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    /// Creates an error with a known source line.
    pub fn at(kind: ErrorKind, line: u32, message: impl Into<String>) -> CompileError {
        CompileError {
            kind,
            line,
            message: message.into(),
        }
    }

    /// Creates an error without location information.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> CompileError {
        CompileError::at(kind, 0, message)
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {}: {}", self.kind, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.kind, self.message)
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_when_known() {
        let e = CompileError::at(ErrorKind::Parse, 3, "expected ')'");
        assert_eq!(e.to_string(), "parse error at line 3: expected ')'");
    }

    #[test]
    fn display_omits_line_when_unknown() {
        let e = CompileError::new(ErrorKind::Type, "unknown variable `y`");
        assert_eq!(e.to_string(), "type error: unknown variable `y`");
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&CompileError::new(ErrorKind::Lex, "bad char"));
    }
}
