//! A C-like floating-point mini-language ("FPIR") with an instrumentation
//! pass, standing in for the paper's Clang + LLVM-pass front end.
//!
//! The original CoverMe compiles the program under test to LLVM IR and uses
//! an LLVM pass to inject `r = pen(i, op, a, b)` before every conditional.
//! This crate provides the equivalent pipeline for a self-contained
//! language:
//!
//! 1. [`lexer`] / [`parser`] — parse a C-like source text into an AST
//!    ([`ast`]); the subset covers exactly what floating-point kernels like
//!    Fdlibm need (doubles, 64-bit ints, bit manipulation of the double
//!    representation, `if`/`while`/`return`, function calls);
//! 2. [`typeck`] — checks and annotates the AST (int vs. double, implicit
//!    promotions, call signatures);
//! 3. [`instrument`] — the analogue of the LLVM pass: identifies every
//!    conditional whose condition is an arithmetic comparison, assigns it a
//!    site id, and computes the static descendant relation used by
//!    saturation tracking;
//! 4. [`interp`] — a tree-walking interpreter that executes the instrumented
//!    program against a [`coverme_runtime::ExecCtx`], reporting every
//!    instrumented conditional through `ExecCtx::branch` (the runtime then
//!    plays the role of the injected `pen` calls);
//! 5. [`pretty`] — prints the instrumented program with the injected
//!    `r = pen(...)` assignments made explicit, reproducing the paper's
//!    Fig. 3 view of `FOO_I`.
//!
//! The end product, [`IrProgram`], implements
//! [`coverme_runtime::Program`], so the CoverMe driver (and every baseline
//! tester) can run mini-language programs exactly like natively ported ones.
//!
//! # Example
//!
//! ```
//! use coverme_fpir::compile;
//!
//! let source = r#"
//!     double foo(double x) {
//!         double y;
//!         if (x <= 1.0) { x = x + 2.5; }
//!         y = x * x;
//!         if (y == 4.0) { return 1.0; }
//!         return 0.0;
//!     }
//! "#;
//! let program = compile(source, "foo").expect("compiles");
//! assert_eq!(coverme_runtime::Program::num_sites(&program), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod generate;
pub mod instrument;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod typeck;

pub use ast::{BinOp, Block, Expr, FunctionDef, Module, Stmt, Ty, UnOp};
pub use error::{CompileError, ErrorKind};
pub use generate::{generate_module, generate_source, ENTRY_NAME};
pub use instrument::{instrument, InstrumentedModule, SiteInfo};
pub use interp::IrProgram;
pub use lexer::{Lexer, Token, TokenKind};
pub use lower::{lower, LowerError, Tape, TapeBackend};
pub use parser::parse;
pub use pretty::to_source;
pub use typeck::check;

/// Compiles `source` into an executable, instrumented program whose entry
/// point is the function named `entry`.
///
/// This is the convenience front door: lex + parse + type-check +
/// instrument, returning an [`IrProgram`] that implements
/// [`coverme_runtime::Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexing, parsing, typing
/// or instrumentation problem encountered.
pub fn compile(source: &str, entry: &str) -> Result<IrProgram, CompileError> {
    let module = parse(source)?;
    let module = check(module)?;
    let instrumented = instrument(module, entry)?;
    IrProgram::new(instrumented)
}

/// The entry function to run `module` from when the caller names none:
/// the function named like the file stem of `path`, else the module's only
/// function, else [`ENTRY_NAME`] (the entry of every
/// [`generate_source`] module). `None` when none of them exists.
pub fn infer_entry(module: &Module, path: &str) -> Option<String> {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|stem| stem.to_str())
        .unwrap_or("");
    let defined = |name: &str| module.function(name).map(|f| f.name.clone());
    defined(stem)
        .or_else(|| match module.functions.as_slice() {
            [only] => Some(only.name.clone()),
            _ => None,
        })
        .or_else(|| defined(ENTRY_NAME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_inference_prefers_the_stem_then_the_only_function_then_entry() {
        let pair =
            parse("double a(double x) { return x; } double entry(double x) { return a(x); }")
                .unwrap();
        assert_eq!(infer_entry(&pair, "dir/a.fpir").as_deref(), Some("a"));
        assert_eq!(
            infer_entry(&pair, "dir/gen_7.fpir").as_deref(),
            Some("entry")
        );
        assert_eq!(infer_entry(&pair, "<submitted>").as_deref(), Some("entry"));

        let only = parse("double f(double x) { return x; }").unwrap();
        assert_eq!(infer_entry(&only, "g.fpir").as_deref(), Some("f"));

        let neither =
            parse("double f(double x) { return x; } double g(double x) { return x; }").unwrap();
        assert_eq!(infer_entry(&neither, "h.fpir"), None);
        assert_eq!(infer_entry(&neither, "g.fpir").as_deref(), Some("g"));

        let generated = parse(&generate_source(1000)).unwrap();
        assert_eq!(
            infer_entry(&generated, "seed_1000.fpir").as_deref(),
            Some(ENTRY_NAME)
        );
    }
}
