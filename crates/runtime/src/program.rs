//! The `Program` trait: anything CoverMe (or a baseline tester) can test.
//!
//! A program under test takes a fixed number of `f64` inputs and executes
//! against an [`ExecCtx`], reporting every conditional through
//! [`ExecCtx::branch`] and its sibling helpers. The paper's relaxations of
//! Sect. 5.3 are reflected here:
//!
//! * pointer inputs (`double*`) are flattened into additional scalar inputs
//!   by the port (the paper's loader does the same),
//! * conditionals over integers are reported through the promotion helpers,
//! * conditionals the port cannot express as an arithmetic comparison may be
//!   skipped entirely (not reported), exactly as CoverMe "ignores these
//!   conditional statements by not injecting pen before them".

use crate::backend::{BackendMode, ExecBackend};
use crate::context::ExecCtx;

/// A program under test.
pub trait Program {
    /// Human-readable name of the program (e.g. `"ieee754_acos"`). Used as
    /// the row label of the evaluation tables.
    fn name(&self) -> &str;

    /// Number of `f64` inputs the program takes.
    fn arity(&self) -> usize;

    /// Number of instrumented conditional sites (`N` in the paper). Branch
    /// identifiers passed to [`ExecCtx::branch`] must lie in `0..N`.
    fn num_sites(&self) -> usize;

    /// Executes the program on `input`, reporting branches through `ctx`.
    ///
    /// Implementations must be deterministic functions of `input`: CoverMe
    /// evaluates the representing function many times and relies on two
    /// executions on the same input taking the same path.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `input.len() != self.arity()`.
    fn execute(&self, input: &[f64], ctx: &mut ExecCtx);

    /// Number of source lines of the original program, when known. Only
    /// used as table metadata (Table 5 reports line counts of the C
    /// sources); defaults to zero for programs without a meaningful figure.
    fn source_lines(&self) -> usize {
        0
    }

    /// Offers a program-specific [`ExecBackend`] for the requested mode.
    ///
    /// Returning `None` (the default) means "run me through the generic
    /// backend" — [`Program::execute`] per evaluation. Programs that carry
    /// a compiled form (the FPIR instruction tape) return their own backend
    /// for [`BackendMode::Auto`]; whatever is returned must be observably
    /// bit-identical to [`Program::execute`]. The `mode` parameter stays
    /// because the end-to-end benchmark harness (`perfbench/`) passes it
    /// through; see [`BackendMode`].
    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        let _ = mode;
        None
    }

    /// A stable 64-bit identity of the program *as the search sees it*,
    /// used as the key of the persistent corpus store. Two programs with
    /// the same fingerprint are assumed to have the same branch structure,
    /// so corpus entries recorded under one may warm-start the other.
    ///
    /// The default hashes the observable shape a native port exposes —
    /// name, arity and conditional-site count (a body change that keeps
    /// all three collides, which for hand-written ports is the accepted
    /// trade-off). Programs with a compiled form should override this
    /// with a hash of that form; FPIR programs fingerprint their lowered
    /// instruction tape, so any semantic edit to the source changes the
    /// key and invalidates stale corpus entries.
    ///
    /// This is a cache key, not a cryptographic digest.
    fn fingerprint(&self) -> u64 {
        native_fingerprint(self.name(), self.arity(), self.num_sites())
    }
}

/// FNV-1a over a program's externally visible shape — the default
/// [`Program::fingerprint`] for native (closure-backed) programs.
pub fn native_fingerprint(name: &str, arity: usize, num_sites: usize) -> u64 {
    let mut hash = fingerprint_seed();
    hash = fingerprint_bytes(hash, name.as_bytes());
    hash = fingerprint_bytes(hash, &(arity as u64).to_le_bytes());
    fingerprint_bytes(hash, &(num_sites as u64).to_le_bytes())
}

/// The FNV-1a offset basis — the starting hash for fingerprint folds.
pub fn fingerprint_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Folds `bytes` into an FNV-1a fingerprint accumulator. Exposed so
/// compiled-form programs (the FPIR tape) can build their override out of
/// the same primitive and stay comparable across crates.
pub fn fingerprint_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A [`Program`] built from a closure. This is how the Fdlibm ports and the
/// quickstart examples define programs.
pub struct FnProgram<F> {
    name: String,
    arity: usize,
    num_sites: usize,
    source_lines: usize,
    body: F,
}

impl<F> FnProgram<F>
where
    F: Fn(&[f64], &mut ExecCtx),
{
    /// Creates a program from a closure.
    ///
    /// `num_sites` must match the largest site id reported by the closure
    /// plus one; the [`crate::CoverageMap`] uses it as the denominator of
    /// the coverage percentage.
    pub fn new(name: impl Into<String>, arity: usize, num_sites: usize, body: F) -> Self {
        FnProgram {
            name: name.into(),
            arity,
            num_sites,
            source_lines: 0,
            body,
        }
    }

    /// Attaches a source-line count (table metadata).
    pub fn with_source_lines(mut self, lines: usize) -> Self {
        self.source_lines = lines;
        self
    }
}

impl<F> Program for FnProgram<F>
where
    F: Fn(&[f64], &mut ExecCtx),
{
    fn name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn num_sites(&self) -> usize {
        self.num_sites
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        assert_eq!(
            input.len(),
            self.arity,
            "program {} expects {} inputs, got {}",
            self.name,
            self.arity,
            input.len()
        );
        (self.body)(input, ctx);
    }

    fn source_lines(&self) -> usize {
        self.source_lines
    }
}

impl<F> std::fmt::Debug for FnProgram<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnProgram")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .field("num_sites", &self.num_sites)
            .finish_non_exhaustive()
    }
}

/// Blanket implementation so `&P`, `Box<P>` and `Rc<P>` are programs too.
impl<P: Program + ?Sized> Program for &P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn num_sites(&self) -> usize {
        (**self).num_sites()
    }
    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        (**self).execute(input, ctx)
    }
    fn source_lines(&self) -> usize {
        (**self).source_lines()
    }
    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        (**self).backend(mode)
    }
    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

impl<P: Program + ?Sized> Program for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn num_sites(&self) -> usize {
        (**self).num_sites()
    }
    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        (**self).execute(input, ctx)
    }
    fn source_lines(&self) -> usize {
        (**self).source_lines()
    }
    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        (**self).backend(mode)
    }
    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchId;
    use crate::distance::Cmp;

    fn toy() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("toy", 2, 1, |input: &[f64], ctx: &mut ExecCtx| {
            if ctx.branch(0, Cmp::Lt, input[0], input[1]) {
                // then
            }
        })
        .with_source_lines(12)
    }

    #[test]
    fn fn_program_exposes_metadata() {
        let p = toy();
        assert_eq!(p.name(), "toy");
        assert_eq!(p.arity(), 2);
        assert_eq!(p.num_sites(), 1);
        assert_eq!(p.source_lines(), 12);
        assert!(format!("{p:?}").contains("toy"));
    }

    #[test]
    fn fn_program_executes_and_reports_branches() {
        let p = toy();
        let mut ctx = ExecCtx::observe();
        p.execute(&[1.0, 2.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::true_of(0)));
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn fn_program_checks_arity() {
        let p = toy();
        let mut ctx = ExecCtx::observe();
        p.execute(&[1.0], &mut ctx);
    }

    #[test]
    fn native_fingerprint_keys_on_name_and_shape() {
        let p = toy();
        assert_eq!(
            p.fingerprint(),
            native_fingerprint("toy", 2, 1),
            "default fingerprint is the native shape hash"
        );
        // Forwarding impls preserve the fingerprint.
        fn by_ref_fingerprint<P: Program>(p: &P) -> u64 {
            // Calls `<&P as Program>::fingerprint`, the forwarding impl.
            <&P as Program>::fingerprint(&p)
        }
        assert_eq!(by_ref_fingerprint(&p), p.fingerprint());
        let boxed: Box<dyn Program> = Box::new(toy());
        assert_eq!(boxed.fingerprint(), p.fingerprint());
        // Any shape component changes the key.
        assert_ne!(
            native_fingerprint("toy", 2, 1),
            native_fingerprint("toy2", 2, 1)
        );
        assert_ne!(
            native_fingerprint("toy", 2, 1),
            native_fingerprint("toy", 3, 1)
        );
        assert_ne!(
            native_fingerprint("toy", 2, 1),
            native_fingerprint("toy", 2, 2)
        );
    }

    #[test]
    fn references_and_boxes_are_programs() {
        let p = toy();
        let by_ref: &dyn Program = &p;
        assert_eq!(by_ref.name(), "toy");
        assert_eq!(p.arity(), 2);

        let boxed: Box<dyn Program> = Box::new(toy());
        assert_eq!(boxed.num_sites(), 1);
        let mut ctx = ExecCtx::observe();
        boxed.execute(&[3.0, 1.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::false_of(0)));
        assert_eq!(boxed.source_lines(), 12);
    }
}
