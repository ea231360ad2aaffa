//! Tree-walking interpreter for instrumented FPIR programs.
//!
//! The interpreter executes the entry function on a vector of `f64` inputs
//! against a [`coverme_runtime::ExecCtx`]. Every instrumented conditional
//! reports through [`ExecCtx::branch`], which is the runtime realization of
//! the injected `r = pen(site, op, a, b)` assignment followed by the branch
//! on `a op b`.
//!
//! Semantics follow C on the `double`/`int` pair: mixed arithmetic promotes
//! to `double`, `(int)` casts truncate toward zero, integer overflow wraps
//! (two's complement), and the bit-level builtins (`high_word`, `low_word`,
//! `from_words`, ...) give direct access to the IEEE-754 representation the
//! way Fdlibm's `__HI`/`__LO` macros do.
//!
//! # Run outcomes
//!
//! Interpreted programs are untrusted: a search submits inputs chosen to
//! *maximize* branch divergence, so loops that terminate on benign inputs
//! routinely spin forever on adversarial ones. Every execution is therefore
//! bounded by a step **fuel** ([`DEFAULT_FUEL`] statements/expressions,
//! configurable per program via [`IrProgram::with_fuel`]) and a call-depth
//! limit, and classified on the [`ExecCtx`]:
//!
//! * fuel exhausted → [`RunOutcome::Timeout`](coverme_runtime::RunOutcome),
//! * depth exhausted or a missing call target →
//!   [`RunOutcome::Trap`](coverme_runtime::RunOutcome),
//! * otherwise → [`RunOutcome::Done`](coverme_runtime::RunOutcome).
//!
//! An aborted run unwinds immediately; its truncated trace, partial
//! coverage and accumulator value are *not* meaningful and consumers (the
//! objective engine, the search driver) must discard them.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use coverme_runtime::{BackendMode, ExecBackend, ExecCtx, Program};

use crate::ast::{BinOp, Block, Expr, FunctionDef, Stmt, Ty, UnOp};
use crate::error::{CompileError, ErrorKind};
use crate::instrument::{as_comparison, InstrumentedModule};
use crate::lower::{lower, Tape};

/// Default step fuel per top-level call. A search performs 100k+ evaluations
/// per function, so the old 2M-step ceiling meant a single looping program
/// could burn minutes before aborting once; 100k steps is still ~3 orders of
/// magnitude above what any real corpus function needs per run.
pub const DEFAULT_FUEL: usize = 100_000;
/// Maximum call depth (shared with the lowered-tape executors, which must
/// classify depth exhaustion at exactly the same nesting level).
pub(crate) const MAX_DEPTH: usize = 128;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Int(i64),
    Double(f64),
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Double(v) => v,
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Double(v) => {
                if v.is_nan() {
                    0
                } else {
                    // C truncation toward zero, saturating at the i64 range.
                    v.trunc().clamp(i64::MIN as f64, i64::MAX as f64) as i64
                }
            }
        }
    }

    fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Double(v) => v != 0.0,
        }
    }

    fn coerce(self, ty: Ty) -> Value {
        match ty {
            Ty::Int => Value::Int(self.as_i64()),
            Ty::Double => Value::Double(self.as_f64()),
            Ty::Void => self,
        }
    }
}

/// How a statement finished.
enum Flow {
    Normal,
    Return(Option<Value>),
    /// The run was classified Timeout/Trap on the context; unwind
    /// immediately.
    Abort,
}

/// An executable, instrumented FPIR program.
///
/// Implements [`coverme_runtime::Program`], so it can be handed to the
/// CoverMe driver or to any baseline tester.
#[derive(Debug, Clone)]
pub struct IrProgram {
    inst: InstrumentedModule,
    arity: usize,
    line_count: usize,
    fuel: usize,
    /// The lowered tape (`None` when lowering bails), built on first use
    /// and shared by every backend, clone and fingerprint of this program.
    /// The fuel is part of the tape, so [`with_fuel`](Self::with_fuel)
    /// drops it.
    tape: OnceLock<Option<Arc<Tape>>>,
}

impl IrProgram {
    /// Wraps an instrumented module, validating the entry signature.
    pub fn new(inst: InstrumentedModule) -> Result<IrProgram, CompileError> {
        let entry = inst.entry_function();
        let arity = entry.params.len();
        if arity == 0 {
            return Err(CompileError::at(
                ErrorKind::Instrument,
                entry.line,
                "entry function takes no inputs",
            ));
        }
        let mut lines = BTreeSet::new();
        collect_lines(&entry.body, &mut lines);
        Ok(IrProgram {
            arity,
            line_count: lines.len(),
            inst,
            fuel: DEFAULT_FUEL,
            tape: OnceLock::new(),
        })
    }

    /// Overrides the per-execution step fuel (statements + expressions
    /// evaluated before the run is classified
    /// [`Timeout`](coverme_runtime::RunOutcome::Timeout)).
    ///
    /// # Panics
    ///
    /// Panics if `fuel` is zero.
    pub fn with_fuel(mut self, fuel: usize) -> IrProgram {
        assert!(fuel > 0, "fuel must be positive");
        self.fuel = fuel;
        self.tape = OnceLock::new();
        self
    }

    /// The per-execution step fuel in effect.
    pub fn fuel(&self) -> usize {
        self.fuel
    }

    /// The program's tape, lowered on the first call; `None` when the
    /// program stays on the interpreter.
    pub(crate) fn tape(&self) -> Option<Arc<Tape>> {
        self.tape
            .get_or_init(|| lower(self).ok().map(Arc::new))
            .clone()
    }

    /// The instrumented module backing this program.
    pub fn instrumented(&self) -> &InstrumentedModule {
        &self.inst
    }

    /// The static descendant relation (indexed by
    /// [`coverme_runtime::BranchId::index`]), ready to seed
    /// `SaturationTracker::with_static_descendants`.
    pub fn descendants(&self) -> Vec<coverme_runtime::BranchSet> {
        self.inst.descendants.clone()
    }

    /// Executes the program on `input` and returns the set of entry-function
    /// source lines whose statements were executed — the mini-language's
    /// exact line coverage (the analogue of Gcov line data).
    pub fn executed_lines(&self, input: &[f64]) -> BTreeSet<u32> {
        let mut ctx = ExecCtx::observe().without_trace();
        let mut interp = Interp::new(&self.inst, self.fuel, true);
        interp.run(input, &mut ctx);
        interp.executed_lines
    }

    /// Total number of distinct statement lines in the entry function.
    pub fn line_total(&self) -> usize {
        self.line_count
    }
}

impl Program for IrProgram {
    fn name(&self) -> &str {
        &self.inst.entry
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn num_sites(&self) -> usize {
        self.inst.num_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        assert_eq!(
            input.len(),
            self.arity,
            "program {} expects {} inputs, got {}",
            self.inst.entry,
            self.arity,
            input.len()
        );
        // `execute` takes `&self` (programs are shared across campaign
        // worker threads), so the interpreter scratch cannot live on the
        // program. `Interp::new` is allocation-free — its vectors start
        // empty and grow once within the run — and the flat `Env` below
        // replaces the old per-call `HashMap<String, Value>` chain, so the
        // per-evaluation setup cost is a few empty-vec constructions.
        let mut interp = Interp::new(&self.inst, self.fuel, false);
        interp.run(input, ctx);
    }

    fn source_lines(&self) -> usize {
        self.line_count
    }

    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        crate::lower::program_backend(self, mode)
    }

    fn fingerprint(&self) -> u64 {
        // Key the corpus on the compiled form: any semantic edit to the
        // source changes the lowered tape and invalidates stale entries.
        // The rare program the tape cannot mirror falls back to the native
        // shape hash, exactly like a closure-backed port.
        match self.tape() {
            Some(tape) => tape.fingerprint64(),
            None => coverme_runtime::native_fingerprint(self.name(), self.arity, self.num_sites()),
        }
    }
}

fn collect_lines(block: &Block, lines: &mut BTreeSet<u32>) {
    for stmt in &block.stmts {
        lines.insert(stmt.line());
        match stmt {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                collect_lines(then_block, lines);
                if let Some(e) = else_block {
                    collect_lines(e, lines);
                }
            }
            Stmt::While { body, .. } => collect_lines(body, lines),
            _ => {}
        }
    }
}

struct Interp<'a> {
    inst: &'a InstrumentedModule,
    steps: usize,
    fuel: usize,
    track_lines: bool,
    executed_lines: BTreeSet<u32>,
    env: Env<'a>,
    /// Evaluated call arguments, all frames flattened (indexed by base
    /// offset). Reused across calls so argument passing allocates at most
    /// once per run.
    args: Vec<Value>,
}

impl<'a> Interp<'a> {
    fn new(inst: &'a InstrumentedModule, fuel: usize, track_lines: bool) -> Interp<'a> {
        Interp {
            inst,
            steps: 0,
            fuel,
            track_lines,
            executed_lines: BTreeSet::new(),
            env: Env::new(),
            args: Vec::new(),
        }
    }

    fn run(&mut self, input: &[f64], ctx: &mut ExecCtx) -> Option<f64> {
        let entry = self.inst.entry_function();
        self.steps = 0;
        self.env.reset();
        self.args.clear();
        self.args.extend(input.iter().map(|&v| Value::Double(v)));
        match self.call(entry, 0, ctx, 0) {
            Some(Some(value)) => Some(value.as_f64()),
            _ => None,
        }
    }

    /// Checks the step fuel, classifying an exhausted run as a timeout.
    /// Returns `false` when the run must abort.
    #[inline]
    fn burn_step(&mut self, ctx: &mut ExecCtx) -> bool {
        self.steps += 1;
        if self.steps > self.fuel {
            ctx.mark_timeout();
            return false;
        }
        true
    }

    /// Calls a function whose evaluated arguments sit at
    /// `self.args[args_base..]`; `None` means aborted, `Some(ret)` normal
    /// completion.
    fn call(
        &mut self,
        function: &'a FunctionDef,
        args_base: usize,
        ctx: &mut ExecCtx,
        depth: usize,
    ) -> Option<Option<Value>> {
        if depth > MAX_DEPTH {
            ctx.mark_trap();
            return None;
        }
        self.env.push_frame();
        for (index, param) in function.params.iter().enumerate() {
            let arg = self.args[args_base + index];
            self.env.define(&param.name, arg.coerce(param.ty));
        }
        let flow = self.exec_block(&function.body, ctx, depth, true);
        self.env.pop_frame();
        match flow {
            Flow::Return(v) => Some(v),
            Flow::Normal => Some(None),
            Flow::Abort => None,
        }
    }

    fn exec_block(
        &mut self,
        block: &'a Block,
        ctx: &mut ExecCtx,
        depth: usize,
        track: bool,
    ) -> Flow {
        self.env.push_scope();
        for stmt in &block.stmts {
            let flow = self.exec_stmt(stmt, ctx, depth, track);
            match flow {
                Flow::Normal => {}
                other => {
                    self.env.pop_scope();
                    return other;
                }
            }
        }
        self.env.pop_scope();
        Flow::Normal
    }

    fn exec_stmt(&mut self, stmt: &'a Stmt, ctx: &mut ExecCtx, depth: usize, track: bool) -> Flow {
        if !self.burn_step(ctx) {
            return Flow::Abort;
        }
        if self.track_lines && track {
            self.executed_lines.insert(stmt.line());
        }
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let value = match init {
                    Some(init) => match self.eval(init, ctx, depth) {
                        Some(v) => v.coerce(*ty),
                        None => return Flow::Abort,
                    },
                    None => match ty {
                        Ty::Int => Value::Int(0),
                        _ => Value::Double(0.0),
                    },
                };
                self.env.define(name, value);
                Flow::Normal
            }
            Stmt::Assign { name, value, .. } => {
                let Some(v) = self.eval(value, ctx, depth) else {
                    return Flow::Abort;
                };
                self.env.assign(name, v);
                Flow::Normal
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                site,
                ..
            } => {
                let Some(outcome) = self.eval_condition(cond, *site, ctx, depth) else {
                    return Flow::Abort;
                };
                if outcome {
                    self.exec_block(then_block, ctx, depth, track)
                } else if let Some(else_block) = else_block {
                    self.exec_block(else_block, ctx, depth, track)
                } else {
                    Flow::Normal
                }
            }
            Stmt::While {
                cond, body, site, ..
            } => {
                loop {
                    let Some(outcome) = self.eval_condition(cond, *site, ctx, depth) else {
                        return Flow::Abort;
                    };
                    if !outcome {
                        break;
                    }
                    match self.exec_block(body, ctx, depth, track) {
                        Flow::Normal => {}
                        other => return other,
                    }
                    if !self.burn_step(ctx) {
                        return Flow::Abort;
                    }
                }
                Flow::Normal
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(expr) => match self.eval(expr, ctx, depth) {
                        Some(v) => Some(v),
                        None => return Flow::Abort,
                    },
                    None => None,
                };
                Flow::Return(v)
            }
            Stmt::ExprStmt { expr, .. } => match self.eval(expr, ctx, depth) {
                Some(_) => Flow::Normal,
                None => Flow::Abort,
            },
        }
    }

    /// Evaluates a conditional's condition. For instrumented sites the
    /// operands are evaluated once and reported through `ExecCtx::branch`
    /// (integer operands are promoted to doubles, Sect. 5.3 of the paper);
    /// uninstrumented conditions fall back to plain truthiness.
    fn eval_condition(
        &mut self,
        cond: &'a Expr,
        site: Option<u32>,
        ctx: &mut ExecCtx,
        depth: usize,
    ) -> Option<bool> {
        if let (Some(site), Some((op, lhs, rhs))) = (site, as_comparison(cond)) {
            let lhs = self.eval(lhs, ctx, depth)?;
            let rhs = self.eval(rhs, ctx, depth)?;
            Some(ctx.branch(site, op, lhs.as_f64(), rhs.as_f64()))
        } else {
            let v = self.eval(cond, ctx, depth)?;
            Some(v.truthy())
        }
    }

    fn eval(&mut self, expr: &'a Expr, ctx: &mut ExecCtx, depth: usize) -> Option<Value> {
        if !self.burn_step(ctx) {
            return None;
        }
        match expr {
            Expr::Int(v) => Some(Value::Int(*v)),
            Expr::Float(v) => Some(Value::Double(*v)),
            Expr::Var(name) => Some(self.env.get(name).unwrap_or(Value::Double(0.0))),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, ctx, depth)?;
                Some(match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        Value::Double(d) => Value::Double(-d),
                    },
                    UnOp::BitNot => Value::Int(!v.as_i64()),
                    UnOp::Not => Value::Int(i64::from(!v.truthy())),
                })
            }
            Expr::Cast { ty, expr } => {
                let v = self.eval(expr, ctx, depth)?;
                Some(v.coerce(*ty))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, ctx, depth),
            Expr::Call { name, args } => self.eval_call(name, args, ctx, depth),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &'a Expr,
        rhs: &'a Expr,
        ctx: &mut ExecCtx,
        depth: usize,
    ) -> Option<Value> {
        // Short-circuit operators first.
        if op == BinOp::LogicalAnd {
            let l = self.eval(lhs, ctx, depth)?;
            if !l.truthy() {
                return Some(Value::Int(0));
            }
            let r = self.eval(rhs, ctx, depth)?;
            return Some(Value::Int(i64::from(r.truthy())));
        }
        if op == BinOp::LogicalOr {
            let l = self.eval(lhs, ctx, depth)?;
            if l.truthy() {
                return Some(Value::Int(1));
            }
            let r = self.eval(rhs, ctx, depth)?;
            return Some(Value::Int(i64::from(r.truthy())));
        }

        let l = self.eval(lhs, ctx, depth)?;
        let r = self.eval(rhs, ctx, depth)?;
        let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
        Some(match op {
            BinOp::Add => {
                if both_int {
                    Value::Int(l.as_i64().wrapping_add(r.as_i64()))
                } else {
                    Value::Double(l.as_f64() + r.as_f64())
                }
            }
            BinOp::Sub => {
                if both_int {
                    Value::Int(l.as_i64().wrapping_sub(r.as_i64()))
                } else {
                    Value::Double(l.as_f64() - r.as_f64())
                }
            }
            BinOp::Mul => {
                if both_int {
                    Value::Int(l.as_i64().wrapping_mul(r.as_i64()))
                } else {
                    Value::Double(l.as_f64() * r.as_f64())
                }
            }
            BinOp::Div => {
                if both_int {
                    let divisor = r.as_i64();
                    if divisor == 0 {
                        Value::Int(0)
                    } else {
                        Value::Int(l.as_i64().wrapping_div(divisor))
                    }
                } else {
                    Value::Double(l.as_f64() / r.as_f64())
                }
            }
            BinOp::Rem => {
                let divisor = r.as_i64();
                if divisor == 0 {
                    Value::Int(0)
                } else {
                    Value::Int(l.as_i64().wrapping_rem(divisor))
                }
            }
            BinOp::BitAnd => Value::Int(l.as_i64() & r.as_i64()),
            BinOp::BitOr => Value::Int(l.as_i64() | r.as_i64()),
            BinOp::BitXor => Value::Int(l.as_i64() ^ r.as_i64()),
            BinOp::Shl => Value::Int(l.as_i64().wrapping_shl(r.as_i64() as u32 & 63)),
            BinOp::Shr => Value::Int(l.as_i64().wrapping_shr(r.as_i64() as u32 & 63)),
            BinOp::Cmp(cmp) => {
                // Uninstrumented comparisons inside larger expressions; the
                // instrumented top-level comparisons never reach this path.
                let holds = if both_int {
                    int_compare(cmp, l.as_i64(), r.as_i64())
                } else {
                    cmp.eval(l.as_f64(), r.as_f64())
                };
                Value::Int(i64::from(holds))
            }
            BinOp::LogicalAnd | BinOp::LogicalOr => unreachable!("handled above"),
        })
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &'a [Expr],
        ctx: &mut ExecCtx,
        depth: usize,
    ) -> Option<Value> {
        let base = self.args.len();
        for arg in args {
            match self.eval(arg, ctx, depth) {
                Some(v) => self.args.push(v),
                None => {
                    self.args.truncate(base);
                    return None;
                }
            }
        }
        if let Some(result) = eval_builtin(name, &self.args[base..]) {
            self.args.truncate(base);
            return Some(result);
        }
        let Some(function) = self.inst.module.function(name) else {
            // The type checker validates call targets at compile time, so
            // this is unreachable for compiled modules — but a trap (not a
            // panic) keeps hand-assembled or corrupted modules classified.
            ctx.mark_trap();
            self.args.truncate(base);
            return None;
        };
        for (index, param) in function.params.iter().enumerate() {
            let v = self.args[base + index];
            self.args[base + index] = v.coerce(param.ty);
        }
        let result = self.call(function, base, ctx, depth + 1);
        self.args.truncate(base);
        match result? {
            Some(v) => Some(v),
            None => Some(Value::Double(0.0)),
        }
    }
}

pub(crate) fn int_compare(cmp: coverme_runtime::Cmp, a: i64, b: i64) -> bool {
    use coverme_runtime::Cmp;
    match cmp {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
    }
}

fn eval_builtin(name: &str, args: &[Value]) -> Option<Value> {
    let d = |i: usize| args[i].as_f64();
    let n = |i: usize| args[i].as_i64();
    Some(match name {
        "sqrt" => Value::Double(d(0).sqrt()),
        "fabs" => Value::Double(d(0).abs()),
        "floor" => Value::Double(d(0).floor()),
        "sin" => Value::Double(d(0).sin()),
        "cos" => Value::Double(d(0).cos()),
        "exp" => Value::Double(d(0).exp()),
        "log" => Value::Double(d(0).ln()),
        "pow" => Value::Double(d(0).powf(d(1))),
        "high_word" => Value::Int(i64::from((d(0).to_bits() >> 32) as u32 as i32)),
        "low_word" => Value::Int(i64::from(d(0).to_bits() as u32)),
        "from_words" => {
            let hi = (n(0) as u32 as u64) << 32;
            let lo = n(1) as u32 as u64;
            Value::Double(f64::from_bits(hi | lo))
        }
        "with_high_word" => {
            let bits = (d(0).to_bits() & 0x0000_0000_ffff_ffff) | ((n(1) as u32 as u64) << 32);
            Value::Double(f64::from_bits(bits))
        }
        "with_low_word" => {
            let bits = (d(0).to_bits() & 0xffff_ffff_0000_0000) | (n(1) as u32 as u64);
            Value::Double(f64::from_bits(bits))
        }
        "scalbn" => Value::Double(d(0) * 2f64.powi(n(1).clamp(-2100, 2100) as i32)),
        _ => return None,
    })
}

/// Lexically scoped variable environment, flattened into one entry stack.
///
/// The previous implementation kept a `Vec<HashMap<String, Value>>` per
/// call frame: every call allocated a map chain and every `define` cloned
/// the variable name. On the FPIR hot path (100k+ evaluations per search,
/// each walking the whole program) that allocation traffic dominated. The
/// flat form pushes `(&str, Value)` pairs borrowing the names from the
/// instrumented module, with scope and frame boundaries as saved lengths;
/// lookups scan backward to the current frame base, which for the
/// handful of live variables a mini-language function has is faster than
/// hashing.
struct Env<'a> {
    entries: Vec<(&'a str, Value)>,
    /// Start index (into `entries`) of each open lexical scope.
    scopes: Vec<usize>,
    /// Start index (into `entries`) of each active call frame; lookups do
    /// not cross the innermost base.
    frames: Vec<usize>,
}

impl<'a> Env<'a> {
    fn new() -> Env<'a> {
        Env {
            entries: Vec::new(),
            scopes: Vec::new(),
            frames: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.scopes.clear();
        self.frames.clear();
    }

    fn push_frame(&mut self) {
        self.frames.push(self.entries.len());
        self.push_scope();
    }

    fn pop_frame(&mut self) {
        self.pop_scope();
        let base = self.frames.pop().expect("at least one frame");
        self.entries.truncate(base);
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.entries.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("at least one scope");
        self.entries.truncate(start);
    }

    fn define(&mut self, name: &'a str, value: Value) {
        self.entries.push((name, value));
    }

    fn frame_base(&self) -> usize {
        *self.frames.last().expect("at least one frame")
    }

    fn assign(&mut self, name: &'a str, value: Value) {
        let base = self.frame_base();
        for (entry_name, slot) in self.entries[base..].iter_mut().rev() {
            if *entry_name == name {
                // Preserve the declared representation: assigning a double to
                // an int-typed variable truncates, as in C.
                *slot = match slot {
                    Value::Int(_) => Value::Int(value.as_i64()),
                    Value::Double(_) => Value::Double(value.as_f64()),
                };
                return;
            }
        }
        // Type checking guarantees this does not happen; degrade gracefully.
        self.define(name, value);
    }

    fn get(&self, name: &str) -> Option<Value> {
        let base = self.frame_base();
        self.entries[base..]
            .iter()
            .rev()
            .find(|(entry_name, _)| *entry_name == name)
            .map(|&(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use coverme_runtime::{BranchId, Cmp, RunOutcome};

    fn run_value(program: &IrProgram, input: &[f64]) -> Option<f64> {
        let mut ctx = ExecCtx::observe();
        let mut interp = Interp::new(program.instrumented(), program.fuel(), false);
        interp.run(input, &mut ctx)
    }

    #[test]
    fn evaluates_arithmetic_and_calls() {
        let p = compile(
            r#"
            double square(double x) { return x * x; }
            double f(double x) {
                double y = square(x) + 1.0;
                if (y >= 5.0) { return y; }
                return -y;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(run_value(&p, &[2.0]), Some(5.0));
        assert_eq!(run_value(&p, &[1.0]), Some(-2.0));
    }

    #[test]
    fn reports_branches_through_the_context() {
        let p = compile(
            r#"
            double f(double x) {
                if (x <= 1.0) { return 0.0; }
                if (x == 4.0) { return 1.0; }
                return 2.0;
            }
            "#,
            "f",
        )
        .unwrap();
        let mut ctx = ExecCtx::observe();
        p.execute(&[4.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::false_of(0)));
        assert!(ctx.covered().contains(BranchId::true_of(1)));
        assert_eq!(ctx.trace().len(), 2);
        assert_eq!(ctx.trace().last().unwrap().op, Cmp::Eq);
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
    }

    #[test]
    fn bit_level_builtins_match_ieee754() {
        let p = compile(
            r#"
            int f(double x) {
                int hx = high_word(x);
                int lx = low_word(x);
                double y = from_words(hx, lx);
                if (y == x) { return 1; }
                return 0;
            }
            "#,
            "f",
        )
        .unwrap();
        for v in [1.0, -2.5, 1e300, 5e-324, 0.1] {
            assert_eq!(run_value(&p, &[v]), Some(1.0), "roundtrip failed for {v}");
        }
    }

    #[test]
    fn high_word_matches_fdlibm_convention() {
        let p = compile(
            r#"
            int f(double x) {
                int ix = high_word(x) & 0x7fffffff;
                if (ix >= 0x7ff00000) { return 1; }
                return 0;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(run_value(&p, &[f64::INFINITY]), Some(1.0));
        assert_eq!(run_value(&p, &[f64::NAN]), Some(1.0));
        assert_eq!(run_value(&p, &[1.5]), Some(0.0));
    }

    #[test]
    fn while_loops_execute_and_report_each_iteration() {
        let p = compile(
            r#"
            double f(double x) {
                int i = 0;
                double acc = 0.0;
                while (i < 4) {
                    acc = acc + x;
                    i = i + 1;
                }
                return acc;
            }
            "#,
            "f",
        )
        .unwrap();
        let mut ctx = ExecCtx::observe();
        p.execute(&[2.5], &mut ctx);
        // 4 true iterations + 1 false exit.
        assert_eq!(ctx.trace().len(), 5);
        assert_eq!(run_value(&p, &[2.5]), Some(10.0));
    }

    #[test]
    fn infinite_loops_are_classified_as_timeouts() {
        let p = compile(
            r#"
            double f(double x) {
                while (x > 0.0) { x = x + 1.0; }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        let mut ctx = ExecCtx::observe().without_trace();
        // Must terminate (abort) rather than loop forever, and say why.
        p.execute(&[1.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::true_of(0)));
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
        // A non-looping input on the same program is Done.
        let mut clean = ExecCtx::observe();
        p.execute(&[-1.0], &mut clean);
        assert_eq!(clean.run_outcome(), RunOutcome::Done);
    }

    #[test]
    fn fuel_is_configurable_per_program() {
        let p = compile(
            r#"
            double f(double x) {
                int i = 0;
                while (i < 1000) { i = i + 1; }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(p.fuel(), DEFAULT_FUEL);
        // Generous fuel: the loop finishes.
        let mut ctx = ExecCtx::observe().without_trace();
        p.execute(&[1.0], &mut ctx);
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
        // Starved fuel: the same program times out.
        let starved = p.with_fuel(100);
        assert_eq!(starved.fuel(), 100);
        let mut ctx = ExecCtx::observe().without_trace();
        starved.execute(&[1.0], &mut ctx);
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
    }

    #[test]
    fn casts_truncate_toward_zero() {
        let p = compile(
            r#"
            int f(double x) { return (int) x; }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(run_value(&p, &[2.9]), Some(2.0));
        assert_eq!(run_value(&p, &[-2.9]), Some(-2.0));
    }

    #[test]
    fn executed_lines_reflect_the_path_taken() {
        let source = r#"double f(double x) {
    if (x > 0.0) {
        x = x + 1.0;
    } else {
        x = x - 1.0;
    }
    return x;
}"#;
        let p = compile(source, "f").unwrap();
        let pos_lines = p.executed_lines(&[5.0]);
        let neg_lines = p.executed_lines(&[-5.0]);
        assert!(pos_lines.contains(&3));
        assert!(!pos_lines.contains(&5));
        assert!(neg_lines.contains(&5));
        assert!(!neg_lines.contains(&3));
        assert!(p.line_total() >= 4);
    }

    #[test]
    fn recursion_depth_is_bounded_and_classified_as_trap() {
        let p = compile(
            r#"
            double f(double x) {
                if (x > 0.0) { return f(x); }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        let mut ctx = ExecCtx::observe();
        p.execute(&[1.0], &mut ctx); // must not overflow the stack
        assert_eq!(ctx.run_outcome(), RunOutcome::Trap);
        let mut clean = ExecCtx::observe();
        p.execute(&[-1.0], &mut clean);
        assert_eq!(clean.run_outcome(), RunOutcome::Done);
    }

    #[test]
    fn shadowing_resolves_to_the_innermost_scope() {
        let p = compile(
            r#"
            double f(double x) {
                double y = 1.0;
                if (x > 0.0) {
                    double y = 10.0;
                    x = x + y;
                }
                return x + y;
            }
            "#,
            "f",
        )
        .unwrap();
        // Inner y (10) applies inside the block, outer y (1) at the return.
        assert_eq!(run_value(&p, &[2.0]), Some(13.0));
        assert_eq!(run_value(&p, &[-2.0]), Some(-1.0));
    }

    #[test]
    fn callee_locals_do_not_leak_into_the_caller() {
        // `helper` defines `z`; after it returns, `z` in `f` must resolve
        // to f's own `z`, not a stale callee entry.
        let p = compile(
            r#"
            double helper(double a) { double z = 99.0; return a + z; }
            double f(double x) {
                double z = 1.0;
                double w = helper(x);
                return z + w;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(run_value(&p, &[1.0]), Some(101.0));
    }

    #[test]
    fn program_trait_metadata() {
        let p = compile(
            "double f(double x, double y) { if (x < y) { return x; } return y; }",
            "f",
        )
        .unwrap();
        assert_eq!(p.name(), "f");
        assert_eq!(Program::arity(&p), 2);
        assert_eq!(Program::num_sites(&p), 1);
        // Everything is on one source line in this one-liner definition.
        assert_eq!(Program::source_lines(&p), 1);
        assert_eq!(p.descendants().len(), 2);
    }
}
