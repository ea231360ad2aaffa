//! Lowering instrumented FPIR modules to a flat, register-based
//! instruction tape, plus its executor.
//!
//! The tree-walking [`interp`](crate::interp) re-traverses the AST on every
//! evaluation — fine for one run, wasteful for the 100k+ evaluations a
//! search performs per function. This pass compiles the type-checked,
//! instrumented module **once** into a [`Tape`]: straight-line basic blocks
//! of register ops with explicit terminators (jumps, instrumented branch
//! sites, calls, returns, traps). [`Tape::execute`] runs it against any
//! [`ExecCtx`] mode (observe, eager representing, deferred) exactly like
//! the interpreter. [`TapeBackend`] uses it for scalar evaluations and, as
//! the lane execution of the shared [`LaneCtx`] protocol, for batches.
//!
//! # Bit-exactness
//!
//! The tape is a *throughput* representation, never a semantic one: values
//! (bit-for-bit), coverage, traces,
//! [`RunOutcome`](coverme_runtime::RunOutcome) classification and step
//! accounting all match the interpreter exactly. Three mechanics let the
//! tape do less work than the tree walk without moving a single fuel step:
//!
//! * **Burn folding.** The interpreter burns one fuel step per statement
//!   and per expression node, checking the budget after each burn. The
//!   tape folds all burns of a basic block into one `cost` checked at the
//!   block header. This is observably equivalent because blocks are
//!   straight-line and contain no observable events (branch reports, pen
//!   updates, traps): within such a segment, "fuel ran out" is detected
//!   before the next observable either way, and nothing else distinguishes
//!   *where* inside the segment the budget tripped. Calls terminate their
//!   block, so the argument-evaluation burns are checked **before** the
//!   callee depth check — preserving the interpreter's Timeout-before-Trap
//!   classification order.
//! * **Short-circuit burns are control flow.** `&&`/`||` burn their right
//!   operand only when it is evaluated; the tape lowers them to branches,
//!   so the right operand's cost sits in a block that is only entered (and
//!   therefore only charged) when the interpreter would evaluate it.
//! * **Constant folding.** An op that writes a fresh expression temporary
//!   from sources that are all folded constants (literals, and unary ops,
//!   casts, non-logical binaries and builtins over them) runs once at
//!   lowering time; its result goes into the function's initial register
//!   image and no op is emitted. This is exact: ops are pure and total, an
//!   expression temporary has exactly one writer and is read only after
//!   it, so every read sees the folded value, and the folded node's burn
//!   stays in its block's `cost`. Variables, parameters, call results and
//!   `&&`/`||` results are never folded: they can have several writers.
//!
//! Every frame starts as a copy of its function's image. [`TapeBackend`]
//! keeps one register file and frame stack across executions, cleared but
//! not freed, so a search's millions of runs do not allocate.
//!
//! Lowering is conservative: anything the (type-checked) module should
//! rule out but this pass cannot mirror statically — unknown variables,
//! register overflow — aborts with a [`LowerError`] and the program simply
//! keeps using the interpreter backend.

use std::collections::HashMap;
use std::sync::Arc;

use coverme_runtime::{
    BackendMode, BranchSet, Cmp, ExecBackend, ExecCtx, LaneCtx, LaneEval, Program,
};

use crate::ast::{BinOp, Block as AstBlock, Expr, Module, Stmt, Ty, UnOp};
use crate::instrument::as_comparison;
use crate::interp::{int_compare, IrProgram, MAX_DEPTH};

/// A runtime register value. Mirrors the interpreter's `Value` exactly —
/// same tag dynamics, same conversions — so the executor inherits its
/// semantics by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Int(i64),
    Double(f64),
}

impl Slot {
    fn as_f64(self) -> f64 {
        match self {
            Slot::Int(v) => v as f64,
            Slot::Double(v) => v,
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Slot::Int(v) => v,
            Slot::Double(v) => {
                if v.is_nan() {
                    0
                } else {
                    v.trunc().clamp(i64::MIN as f64, i64::MAX as f64) as i64
                }
            }
        }
    }

    fn truthy(self) -> bool {
        match self {
            Slot::Int(v) => v != 0,
            Slot::Double(v) => v != 0.0,
        }
    }

    fn coerce(self, ty: Ty) -> Slot {
        match ty {
            Ty::Int => Slot::Int(self.as_i64()),
            Ty::Double => Slot::Double(self.as_f64()),
            Ty::Void => self,
        }
    }
}

/// A builtin callable, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Sqrt,
    Fabs,
    Floor,
    Sin,
    Cos,
    Exp,
    Log,
    Pow,
    HighWord,
    LowWord,
    FromWords,
    WithHighWord,
    WithLowWord,
    Scalbn,
}

impl Builtin {
    fn from_name(name: &str) -> Option<(Builtin, usize)> {
        Some(match name {
            "sqrt" => (Builtin::Sqrt, 1),
            "fabs" => (Builtin::Fabs, 1),
            "floor" => (Builtin::Floor, 1),
            "sin" => (Builtin::Sin, 1),
            "cos" => (Builtin::Cos, 1),
            "exp" => (Builtin::Exp, 1),
            "log" => (Builtin::Log, 1),
            "pow" => (Builtin::Pow, 2),
            "high_word" => (Builtin::HighWord, 1),
            "low_word" => (Builtin::LowWord, 1),
            "from_words" => (Builtin::FromWords, 2),
            "with_high_word" => (Builtin::WithHighWord, 2),
            "with_low_word" => (Builtin::WithLowWord, 2),
            "scalbn" => (Builtin::Scalbn, 2),
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Builtin::Sqrt => "sqrt",
            Builtin::Fabs => "fabs",
            Builtin::Floor => "floor",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Exp => "exp",
            Builtin::Log => "log",
            Builtin::Pow => "pow",
            Builtin::HighWord => "high_word",
            Builtin::LowWord => "low_word",
            Builtin::FromWords => "from_words",
            Builtin::WithHighWord => "with_high_word",
            Builtin::WithLowWord => "with_low_word",
            Builtin::Scalbn => "scalbn",
        }
    }

    /// Applies the builtin — formula-for-formula the interpreter's
    /// `eval_builtin`.
    fn eval(self, a: Slot, b: Slot) -> Slot {
        match self {
            Builtin::Sqrt => Slot::Double(a.as_f64().sqrt()),
            Builtin::Fabs => Slot::Double(a.as_f64().abs()),
            Builtin::Floor => Slot::Double(a.as_f64().floor()),
            Builtin::Sin => Slot::Double(a.as_f64().sin()),
            Builtin::Cos => Slot::Double(a.as_f64().cos()),
            Builtin::Exp => Slot::Double(a.as_f64().exp()),
            Builtin::Log => Slot::Double(a.as_f64().ln()),
            Builtin::Pow => Slot::Double(a.as_f64().powf(b.as_f64())),
            Builtin::HighWord => Slot::Int(i64::from((a.as_f64().to_bits() >> 32) as u32 as i32)),
            Builtin::LowWord => Slot::Int(i64::from(a.as_f64().to_bits() as u32)),
            Builtin::FromWords => {
                let hi = (a.as_i64() as u32 as u64) << 32;
                let lo = b.as_i64() as u32 as u64;
                Slot::Double(f64::from_bits(hi | lo))
            }
            Builtin::WithHighWord => {
                let bits = (a.as_f64().to_bits() & 0x0000_0000_ffff_ffff)
                    | ((b.as_i64() as u32 as u64) << 32);
                Slot::Double(f64::from_bits(bits))
            }
            Builtin::WithLowWord => {
                let bits =
                    (a.as_f64().to_bits() & 0xffff_ffff_0000_0000) | (b.as_i64() as u32 as u64);
                Slot::Double(f64::from_bits(bits))
            }
            Builtin::Scalbn => {
                Slot::Double(a.as_f64() * 2f64.powi(b.as_i64().clamp(-2100, 2100) as i32))
            }
        }
    }
}

/// A straight-line register operation.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    ConstInt {
        dst: u16,
        value: i64,
    },
    ConstDouble {
        dst: u16,
        value: f64,
    },
    Move {
        dst: u16,
        src: u16,
    },
    CoerceInt {
        dst: u16,
        src: u16,
    },
    CoerceDouble {
        dst: u16,
        src: u16,
    },
    Truth {
        dst: u16,
        src: u16,
    },
    Unary {
        op: UnOp,
        dst: u16,
        src: u16,
    },
    Binary {
        op: BinOp,
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    Builtin {
        which: Builtin,
        dst: u16,
        a: u16,
        b: u16,
    },
}

/// How a basic block hands off control.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// Unconditional jump.
    Jump(usize),
    /// An instrumented conditional: report through the context, then
    /// branch on `op(lhs, rhs)`.
    BranchSite {
        site: u32,
        op: Cmp,
        lhs: u16,
        rhs: u16,
        on_true: usize,
        on_false: usize,
    },
    /// An uninstrumented conditional: branch on truthiness.
    BranchTruth {
        cond: u16,
        on_true: usize,
        on_false: usize,
    },
    /// Call a tape function; execution resumes at `ret` with the result
    /// (coerced per the interpreter's void-call rule) in `dst`.
    Call {
        func: u32,
        args: Vec<u16>,
        dst: Option<u16>,
        ret: usize,
    },
    /// Return from the current frame.
    Return { value: Option<u16> },
    /// Abort the run as a trap (statically-unresolvable call target).
    Trap,
}

/// A basic block: a fused fuel burn, straight-line ops, one terminator.
#[derive(Debug, Clone)]
struct TapeBlock {
    /// Fuel steps the interpreter would burn across this block's ops and
    /// the segment of control flow it models; charged (and checked) once
    /// at the block header.
    cost: u32,
    ops: Vec<Op>,
    term: Term,
}

/// A lowered function: parameter signature, initial register image and
/// its slice of the block graph (blocks are globally indexed across the
/// whole tape).
#[derive(Debug, Clone)]
struct TapeFunc {
    name: String,
    params: Vec<Ty>,
    /// The register window every frame of this function starts from:
    /// folded constants in their registers, `Slot::Double(0.0)` everywhere
    /// else. Its length is the function's register count.
    init: Vec<Slot>,
    entry_block: usize,
}

/// Why lowering bailed out. A failed lowering is not a program error —
/// the program transparently stays on the interpreter backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A function needs more than `u16::MAX + 1` virtual registers.
    TooManyRegisters {
        /// The function being lowered.
        function: String,
    },
    /// An expression references a variable with no visible declaration
    /// (unreachable for type-checked modules).
    UnknownVariable {
        /// The function being lowered.
        function: String,
        /// The unresolved name.
        name: String,
    },
    /// A declaration form the tape cannot mirror statically (e.g. a
    /// `void`-typed local, which type checking rejects anyway).
    UnsupportedDecl {
        /// The function being lowered.
        function: String,
        /// The declared name.
        name: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::TooManyRegisters { function } => {
                write!(f, "function `{function}` exceeds the tape register budget")
            }
            LowerError::UnknownVariable { function, name } => {
                write!(f, "unknown variable `{name}` in function `{function}`")
            }
            LowerError::UnsupportedDecl { function, name } => {
                write!(
                    f,
                    "unsupported declaration `{name}` in function `{function}`"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// A compiled FPIR program: flat blocks of register ops with explicit
/// control flow, bit-identical in behavior to the tree-walking
/// interpreter.
#[derive(Debug, Clone)]
pub struct Tape {
    name: String,
    arity: usize,
    num_sites: usize,
    fuel: usize,
    entry: usize,
    funcs: Vec<TapeFunc>,
    blocks: Vec<TapeBlock>,
}

/// A call frame of the tape executor.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: usize,
    ret_block: usize,
    ret_dst: Option<u16>,
}

/// The executor's working memory: the register file (one window per live
/// frame) and the frame stack. Each execution clears both but keeps their
/// capacity, so a reused scratch stops allocating once it has seen the
/// deepest call stack.
#[derive(Debug, Clone, Default)]
struct TapeScratch {
    regs: Vec<Slot>,
    frames: Vec<Frame>,
}

impl Tape {
    /// Entry function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of `f64` inputs the entry function takes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of instrumented sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Step fuel per execution (inherited from the source program).
    pub fn fuel(&self) -> usize {
        self.fuel
    }

    /// Number of lowered functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Number of basic blocks across all functions.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Always 0: the tape has no vectorized blocks. Kept for the
    /// end-to-end benchmark harness (`perfbench/`), which reports it as
    /// `fpir.soa_blocks`.
    pub fn num_soa_blocks(&self) -> usize {
        0
    }

    /// Serializes the tape to its stable textual listing (the same text
    /// [`Display`](std::fmt::Display) produces) — one block per paragraph,
    /// one op per line, suitable for snapshotting and debugging.
    pub fn serialize(&self) -> String {
        self.to_string()
    }

    /// A stable 64-bit fingerprint of the compiled form: FNV-1a over the
    /// serialized listing plus the fuel allowance. This is what
    /// [`Program::fingerprint`](coverme_runtime::Program::fingerprint)
    /// returns for FPIR programs — any semantic edit to the source changes
    /// the lowered tape and therefore the key, so stale corpus entries
    /// never warm-start a changed function. A cache key, not a
    /// cryptographic digest.
    pub fn fingerprint64(&self) -> u64 {
        let mut hash = coverme_runtime::fingerprint_seed();
        hash = coverme_runtime::fingerprint_bytes(hash, self.serialize().as_bytes());
        coverme_runtime::fingerprint_bytes(hash, &(self.fuel as u64).to_le_bytes())
    }

    /// Executes the tape on `input` against `ctx` — the scalar path.
    /// Observably identical to interpreting the source program: branch
    /// reports, coverage, trace, outcome classification and fuel behavior
    /// all match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`Tape::arity`].
    pub fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        self.execute_in(input, ctx, &mut TapeScratch::default());
    }

    /// [`execute`](Self::execute) on a caller-owned scratch. Nothing of a
    /// previous execution survives: the scratch is cleared on entry and
    /// every frame starts as a copy of its function's image.
    fn execute_in(&self, input: &[f64], ctx: &mut ExecCtx, scratch: &mut TapeScratch) {
        assert_eq!(
            input.len(),
            self.arity,
            "tape {} expects {} inputs, got {}",
            self.name,
            self.arity,
            input.len()
        );
        let TapeScratch { regs, frames } = scratch;
        regs.clear();
        frames.clear();
        let entry = &self.funcs[self.entry];
        regs.extend_from_slice(&entry.init);
        for (reg, &v) in regs.iter_mut().zip(input) {
            *reg = Slot::Double(v);
        }
        frames.push(Frame {
            base: 0,
            ret_block: usize::MAX,
            ret_dst: None,
        });
        let mut base = 0usize;
        let mut pc = entry.entry_block;
        let mut steps = 0usize;
        loop {
            let block = &self.blocks[pc];
            steps += block.cost as usize;
            if steps > self.fuel {
                ctx.mark_timeout();
                return;
            }
            for op in &block.ops {
                exec_op(op, base, regs);
            }
            match block.term {
                Term::Jump(target) => pc = target,
                Term::BranchTruth {
                    cond,
                    on_true,
                    on_false,
                } => {
                    pc = if regs[base + cond as usize].truthy() {
                        on_true
                    } else {
                        on_false
                    };
                }
                Term::BranchSite {
                    site,
                    op,
                    lhs,
                    rhs,
                    on_true,
                    on_false,
                } => {
                    let a = regs[base + lhs as usize].as_f64();
                    let b = regs[base + rhs as usize].as_f64();
                    pc = if ctx.branch(site, op, a, b) {
                        on_true
                    } else {
                        on_false
                    };
                }
                Term::Call {
                    func,
                    ref args,
                    dst,
                    ret,
                } => {
                    if frames.len() > MAX_DEPTH {
                        ctx.mark_trap();
                        return;
                    }
                    let callee = &self.funcs[func as usize];
                    let new_base = regs.len();
                    regs.extend_from_slice(&callee.init);
                    for (index, (&arg, &ty)) in args.iter().zip(&callee.params).enumerate() {
                        let value = regs[base + arg as usize].coerce(ty);
                        regs[new_base + index] = value;
                    }
                    frames.push(Frame {
                        base: new_base,
                        ret_block: ret,
                        ret_dst: dst,
                    });
                    base = new_base;
                    pc = callee.entry_block;
                }
                Term::Return { value } => {
                    let result = match value {
                        Some(reg) => regs[base + reg as usize],
                        None => Slot::Double(0.0),
                    };
                    let frame = frames.pop().expect("at least the entry frame");
                    regs.truncate(frame.base);
                    match frames.last() {
                        Some(caller) => {
                            base = caller.base;
                            if let Some(dst) = frame.ret_dst {
                                regs[base + dst as usize] = result;
                            }
                            pc = frame.ret_block;
                        }
                        None => return,
                    }
                }
                Term::Trap => {
                    ctx.mark_trap();
                    return;
                }
            }
        }
    }
}

impl std::fmt::Display for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tape {} arity={} sites={} fuel={} funcs={} blocks={}",
            self.name,
            self.arity,
            self.num_sites,
            self.fuel,
            self.funcs.len(),
            self.blocks.len()
        )?;
        for (index, func) in self.funcs.iter().enumerate() {
            let params: Vec<String> = func.params.iter().map(|t| t.to_string()).collect();
            writeln!(
                f,
                "fn{index} {}({}) regs={} entry=b{}",
                func.name,
                params.join(","),
                func.init.len(),
                func.entry_block
            )?;
            // The image, minus slots holding the `+0.0` default. With the
            // ops this pins the image exactly, so the fingerprint sees
            // every folded constant.
            for (reg, slot) in func.init.iter().enumerate() {
                match *slot {
                    Slot::Double(value) if value.to_bits() == 0 => {}
                    Slot::Double(value) => writeln!(f, "  r{reg} = const.f {value:?}")?,
                    Slot::Int(value) => writeln!(f, "  r{reg} = const.i {value}")?,
                }
            }
        }
        for (index, block) in self.blocks.iter().enumerate() {
            writeln!(f, "b{index}: cost={}", block.cost)?;
            for op in &block.ops {
                writeln!(f, "  {}", format_op(op))?;
            }
            writeln!(f, "  {}", format_term(&block.term))?;
        }
        Ok(())
    }
}

fn cmp_str(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "eq",
        Cmp::Ne => "ne",
        Cmp::Lt => "lt",
        Cmp::Le => "le",
        Cmp::Gt => "gt",
        Cmp::Ge => "ge",
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::BitAnd => "and",
        BinOp::BitOr => "or",
        BinOp::BitXor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Cmp(cmp) => cmp_str(cmp),
        BinOp::LogicalAnd => "land",
        BinOp::LogicalOr => "lor",
    }
}

fn format_op(op: &Op) -> String {
    match *op {
        Op::ConstInt { dst, value } => format!("r{dst} = const.i {value}"),
        Op::ConstDouble { dst, value } => format!("r{dst} = const.f {value:?}"),
        Op::Move { dst, src } => format!("r{dst} = r{src}"),
        Op::CoerceInt { dst, src } => format!("r{dst} = int r{src}"),
        Op::CoerceDouble { dst, src } => format!("r{dst} = double r{src}"),
        Op::Truth { dst, src } => format!("r{dst} = truth r{src}"),
        Op::Unary { op, dst, src } => {
            let name = match op {
                UnOp::Neg => "neg",
                UnOp::BitNot => "bnot",
                UnOp::Not => "not",
            };
            format!("r{dst} = {name} r{src}")
        }
        Op::Binary { op, dst, lhs, rhs } => {
            format!("r{dst} = {} r{lhs}, r{rhs}", bin_str(op))
        }
        Op::Builtin { which, dst, a, b } => {
            format!("r{dst} = {} r{a}, r{b}", which.name())
        }
    }
}

fn format_term(term: &Term) -> String {
    match term {
        Term::Jump(target) => format!("jump b{target}"),
        Term::BranchSite {
            site,
            op,
            lhs,
            rhs,
            on_true,
            on_false,
        } => format!(
            "branch.site s{site} {} r{lhs}, r{rhs} ? b{on_true} : b{on_false}",
            cmp_str(*op)
        ),
        Term::BranchTruth {
            cond,
            on_true,
            on_false,
        } => format!("branch.truth r{cond} ? b{on_true} : b{on_false}"),
        Term::Call {
            func,
            args,
            dst,
            ret,
        } => {
            let args: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            let dst = match dst {
                Some(d) => format!("r{d}"),
                None => "_".to_string(),
            };
            format!("{dst} = call fn{func}({}) ret b{ret}", args.join(", "))
        }
        Term::Return { value: Some(reg) } => format!("ret r{reg}"),
        Term::Return { value: None } => "ret".to_string(),
        Term::Trap => "trap".to_string(),
    }
}

/// The op that converts `src` to `ty` into `dst`.
fn coerce_op(ty: Ty, dst: u16, src: u16) -> Op {
    match ty {
        Ty::Int => Op::CoerceInt { dst, src },
        Ty::Double => Op::CoerceDouble { dst, src },
        Ty::Void => Op::Move { dst, src },
    }
}

/// Applies one straight-line op on the register window at `base`.
#[inline]
fn exec_op(op: &Op, base: usize, regs: &mut [Slot]) {
    match *op {
        Op::ConstInt { dst, value } => regs[base + dst as usize] = Slot::Int(value),
        Op::ConstDouble { dst, value } => regs[base + dst as usize] = Slot::Double(value),
        Op::Move { dst, src } => {
            let v = regs[base + src as usize];
            regs[base + dst as usize] = v;
        }
        Op::CoerceInt { dst, src } => {
            let v = regs[base + src as usize].as_i64();
            regs[base + dst as usize] = Slot::Int(v);
        }
        Op::CoerceDouble { dst, src } => {
            let v = regs[base + src as usize].as_f64();
            regs[base + dst as usize] = Slot::Double(v);
        }
        Op::Truth { dst, src } => {
            let v = regs[base + src as usize].truthy();
            regs[base + dst as usize] = Slot::Int(i64::from(v));
        }
        Op::Unary { op, dst, src } => {
            let v = regs[base + src as usize];
            regs[base + dst as usize] = match op {
                UnOp::Neg => match v {
                    Slot::Int(i) => Slot::Int(i.wrapping_neg()),
                    Slot::Double(d) => Slot::Double(-d),
                },
                UnOp::BitNot => Slot::Int(!v.as_i64()),
                UnOp::Not => Slot::Int(i64::from(!v.truthy())),
            };
        }
        Op::Binary { op, dst, lhs, rhs } => {
            let l = regs[base + lhs as usize];
            let r = regs[base + rhs as usize];
            regs[base + dst as usize] = eval_binary(op, l, r);
        }
        Op::Builtin { which, dst, a, b } => {
            let a = regs[base + a as usize];
            let b = regs[base + b as usize];
            regs[base + dst as usize] = which.eval(a, b);
        }
    }
}

/// Non-short-circuit binary evaluation — arm-for-arm the interpreter's
/// `eval_binary` tail.
fn eval_binary(op: BinOp, l: Slot, r: Slot) -> Slot {
    let both_int = matches!((l, r), (Slot::Int(_), Slot::Int(_)));
    match op {
        BinOp::Add => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_add(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() + r.as_f64())
            }
        }
        BinOp::Sub => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_sub(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() - r.as_f64())
            }
        }
        BinOp::Mul => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_mul(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() * r.as_f64())
            }
        }
        BinOp::Div => {
            if both_int {
                let divisor = r.as_i64();
                if divisor == 0 {
                    Slot::Int(0)
                } else {
                    Slot::Int(l.as_i64().wrapping_div(divisor))
                }
            } else {
                Slot::Double(l.as_f64() / r.as_f64())
            }
        }
        BinOp::Rem => {
            let divisor = r.as_i64();
            if divisor == 0 {
                Slot::Int(0)
            } else {
                Slot::Int(l.as_i64().wrapping_rem(divisor))
            }
        }
        BinOp::BitAnd => Slot::Int(l.as_i64() & r.as_i64()),
        BinOp::BitOr => Slot::Int(l.as_i64() | r.as_i64()),
        BinOp::BitXor => Slot::Int(l.as_i64() ^ r.as_i64()),
        BinOp::Shl => Slot::Int(l.as_i64().wrapping_shl(r.as_i64() as u32 & 63)),
        BinOp::Shr => Slot::Int(l.as_i64().wrapping_shr(r.as_i64() as u32 & 63)),
        BinOp::Cmp(cmp) => {
            let holds = if both_int {
                int_compare(cmp, l.as_i64(), r.as_i64())
            } else {
                cmp.eval(l.as_f64(), r.as_f64())
            };
            Slot::Int(i64::from(holds))
        }
        BinOp::LogicalAnd | BinOp::LogicalOr => {
            unreachable!("short-circuit operators are lowered to control flow")
        }
    }
}

/// Lowers an instrumented program to its instruction tape.
///
/// # Errors
///
/// Returns a [`LowerError`] when the module uses something the tape cannot
/// mirror statically (see the variant docs); callers should treat that as
/// "stay on the interpreter", not as a failure.
pub fn lower(program: &IrProgram) -> Result<Tape, LowerError> {
    let inst = program.instrumented();
    let module = &inst.module;
    let mut func_ids: HashMap<&str, u32> = HashMap::new();
    for (index, func) in module.functions.iter().enumerate() {
        // Keep the first occurrence: `Module::function` resolves by first
        // match, so duplicate names (rejected upstream anyway) must not
        // rebind to a later definition.
        func_ids.entry(func.name.as_str()).or_insert(index as u32);
    }
    let mut blocks = Vec::new();
    let mut funcs = Vec::with_capacity(module.functions.len());
    for func in &module.functions {
        let lowered = FuncLowerer::lower_function(module, &func_ids, func, &mut blocks)?;
        funcs.push(lowered);
    }
    let entry = func_ids[inst.entry.as_str()] as usize;
    Ok(Tape {
        name: inst.entry.clone(),
        arity: program.arity(),
        num_sites: inst.num_sites(),
        fuel: program.fuel(),
        entry,
        funcs,
        blocks,
    })
}

/// Per-function lowering state.
struct FuncLowerer<'m, 'b> {
    func_name: &'m str,
    func_ids: &'b HashMap<&'m str, u32>,
    blocks: &'b mut Vec<TapeBlock>,
    /// Flat lexically-scoped symbol stack: name, register, declared type.
    symbols: Vec<(&'m str, u16, Ty)>,
    scopes: Vec<usize>,
    /// The function's initial register image, one slot per allocated
    /// register.
    init: Vec<Slot>,
    /// Which registers hold a folded constant in `init`.
    folded: Vec<bool>,
    current: usize,
}

impl<'m, 'b> FuncLowerer<'m, 'b> {
    fn lower_function(
        _module: &'m Module,
        func_ids: &'b HashMap<&'m str, u32>,
        func: &'m crate::ast::FunctionDef,
        blocks: &'b mut Vec<TapeBlock>,
    ) -> Result<TapeFunc, LowerError> {
        let entry_block = blocks.len();
        blocks.push(TapeBlock {
            cost: 0,
            ops: Vec::new(),
            term: Term::Return { value: None },
        });
        let mut lowerer = FuncLowerer {
            func_name: &func.name,
            func_ids,
            blocks,
            symbols: Vec::new(),
            scopes: Vec::new(),
            init: Vec::new(),
            folded: Vec::new(),
            current: entry_block,
        };
        for param in &func.params {
            let reg = lowerer.alloc_reg()?;
            lowerer.symbols.push((&param.name, reg, param.ty));
        }
        lowerer.lower_ast_block(&func.body)?;
        // Falling off the end of a function returns "no value" (the caller
        // substitutes 0.0), exactly like the interpreter's `Flow::Normal`.
        lowerer.terminate(Term::Return { value: None });
        Ok(TapeFunc {
            name: func.name.clone(),
            params: func.params.iter().map(|p| p.ty).collect(),
            init: lowerer.init,
            entry_block,
        })
    }

    fn alloc_reg(&mut self) -> Result<u16, LowerError> {
        let Ok(reg) = u16::try_from(self.init.len()) else {
            return Err(LowerError::TooManyRegisters {
                function: self.func_name.to_string(),
            });
        };
        self.init.push(Slot::Double(0.0));
        self.folded.push(false);
        Ok(reg)
    }

    fn new_block(&mut self) -> usize {
        let id = self.blocks.len();
        self.blocks.push(TapeBlock {
            cost: 0,
            ops: Vec::new(),
            // Placeholder; overwritten by `terminate`. An unterminated
            // unreachable block (after a `return`) keeps this harmless
            // no-value return.
            term: Term::Return { value: None },
        });
        id
    }

    fn emit(&mut self, op: Op) {
        self.blocks[self.current].ops.push(op);
    }

    /// Emits `op`, which writes the fresh expression temporary `dst` —
    /// unless every register in `sources` holds a folded constant: then
    /// `op` runs once, now, its result goes into the initial image and
    /// nothing is emitted. Exact because ops are pure and total, and `dst`
    /// has no other writer, so every read of it sees this value.
    fn emit_or_fold(&mut self, dst: u16, sources: &[u16], op: Op) {
        if sources.iter().all(|&src| self.folded[src as usize]) {
            exec_op(&op, 0, &mut self.init);
            self.folded[dst as usize] = true;
        } else {
            self.emit(op);
        }
    }

    /// Adds interpreter fuel burns to the current block's header charge.
    fn add_cost(&mut self, steps: u32) {
        self.blocks[self.current].cost += steps;
    }

    fn terminate(&mut self, term: Term) {
        self.blocks[self.current].term = term;
    }

    fn lookup(&self, name: &str) -> Option<(u16, Ty)> {
        self.symbols
            .iter()
            .rev()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, reg, ty)| (reg, ty))
    }

    fn lower_ast_block(&mut self, block: &'m AstBlock) -> Result<(), LowerError> {
        self.scopes.push(self.symbols.len());
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        let start = self.scopes.pop().expect("scope underflow");
        self.symbols.truncate(start);
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &'m Stmt) -> Result<(), LowerError> {
        // `exec_stmt` burns one step on entry, before dispatch.
        self.add_cost(1);
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let slot_ty = match ty {
                    Ty::Int => Ty::Int,
                    Ty::Double => Ty::Double,
                    Ty::Void => {
                        return Err(LowerError::UnsupportedDecl {
                            function: self.func_name.to_string(),
                            name: name.clone(),
                        })
                    }
                };
                let dst = self.alloc_reg()?;
                match init {
                    Some(init) => {
                        let value = self.lower_expr(init)?;
                        self.emit(coerce_op(slot_ty, dst, value));
                    }
                    None => {
                        // No initializer: no eval burn, zero of the
                        // declared representation.
                        match slot_ty {
                            Ty::Int => self.emit(Op::ConstInt { dst, value: 0 }),
                            _ => self.emit(Op::ConstDouble { dst, value: 0.0 }),
                        }
                    }
                }
                self.symbols.push((name, dst, slot_ty));
                Ok(())
            }
            Stmt::Assign { name, value, .. } => {
                let v = self.lower_expr(value)?;
                let Some((reg, ty)) = self.lookup(name) else {
                    return Err(LowerError::UnknownVariable {
                        function: self.func_name.to_string(),
                        name: name.clone(),
                    });
                };
                // The interpreter coerces to the slot's current tag, which
                // (invariantly, post-typecheck) is the declared type.
                self.emit(coerce_op(ty, reg, v));
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                site,
                ..
            } => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.lower_condition(cond, *site, then_bb, else_bb)?;
                self.current = then_bb;
                self.lower_ast_block(then_block)?;
                self.terminate(Term::Jump(join));
                self.current = else_bb;
                if let Some(else_block) = else_block {
                    self.lower_ast_block(else_block)?;
                }
                self.terminate(Term::Jump(join));
                self.current = join;
                Ok(())
            }
            Stmt::While {
                cond, body, site, ..
            } => {
                let head = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Term::Jump(head));
                self.current = head;
                self.lower_condition(cond, *site, body_bb, exit)?;
                self.current = body_bb;
                self.lower_ast_block(body)?;
                // The interpreter burns one latch step after each completed
                // body iteration, before re-evaluating the condition. The
                // stretch from here to the head's branch is observable-free,
                // so folding the burn into the back-edge block's header is
                // exact.
                self.add_cost(1);
                self.terminate(Term::Jump(head));
                self.current = exit;
                Ok(())
            }
            Stmt::Return { value, .. } => {
                let reg = match value {
                    Some(expr) => Some(self.lower_expr(expr)?),
                    None => None,
                };
                self.terminate(Term::Return { value: reg });
                // Anything lowered after a return lands in an unreachable
                // continuation block.
                self.current = self.new_block();
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                self.lower_expr(expr)?;
                Ok(())
            }
        }
    }

    /// Lowers a conditional's condition into the current block(s) and
    /// terminates with the branch. Mirrors `eval_condition`: instrumented
    /// comparisons burn only their operand subtrees and report through the
    /// site; everything else evaluates the full expression and branches on
    /// truthiness.
    fn lower_condition(
        &mut self,
        cond: &'m Expr,
        site: Option<u32>,
        on_true: usize,
        on_false: usize,
    ) -> Result<(), LowerError> {
        if let (Some(site), Some((op, lhs, rhs))) = (site, as_comparison(cond)) {
            let lhs = self.lower_expr(lhs)?;
            let rhs = self.lower_expr(rhs)?;
            self.terminate(Term::BranchSite {
                site,
                op,
                lhs,
                rhs,
                on_true,
                on_false,
            });
        } else {
            let cond = self.lower_expr(cond)?;
            self.terminate(Term::BranchTruth {
                cond,
                on_true,
                on_false,
            });
        }
        Ok(())
    }

    /// Lowers an expression, returning the register holding its value.
    /// Charges the interpreter's one-burn-per-node pre-order accounting as
    /// it goes.
    fn lower_expr(&mut self, expr: &'m Expr) -> Result<u16, LowerError> {
        self.add_cost(1);
        match expr {
            Expr::Int(value) => {
                let dst = self.alloc_reg()?;
                self.emit_or_fold(dst, &[], Op::ConstInt { dst, value: *value });
                Ok(dst)
            }
            Expr::Float(value) => {
                let dst = self.alloc_reg()?;
                self.emit_or_fold(dst, &[], Op::ConstDouble { dst, value: *value });
                Ok(dst)
            }
            Expr::Var(name) => match self.lookup(name) {
                // Reading a variable is just its register: the language has
                // no assignment expressions, so nothing can clobber the
                // register between this read and the consuming op.
                Some((reg, _)) => Ok(reg),
                None => Err(LowerError::UnknownVariable {
                    function: self.func_name.to_string(),
                    name: name.clone(),
                }),
            },
            Expr::Unary { op, expr } => {
                let src = self.lower_expr(expr)?;
                let dst = self.alloc_reg()?;
                self.emit_or_fold(dst, &[src], Op::Unary { op: *op, dst, src });
                Ok(dst)
            }
            Expr::Cast { ty, expr } => {
                let src = self.lower_expr(expr)?;
                let dst = self.alloc_reg()?;
                self.emit_or_fold(dst, &[src], coerce_op(*ty, dst, src));
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::LogicalAnd => self.lower_logical(lhs, rhs, true),
                BinOp::LogicalOr => self.lower_logical(lhs, rhs, false),
                _ => {
                    let l = self.lower_expr(lhs)?;
                    let r = self.lower_expr(rhs)?;
                    let dst = self.alloc_reg()?;
                    let op = Op::Binary {
                        op: *op,
                        dst,
                        lhs: l,
                        rhs: r,
                    };
                    self.emit_or_fold(dst, &[l, r], op);
                    Ok(dst)
                }
            },
            Expr::Call { name, args } => self.lower_call(name, args),
        }
    }

    /// Lowers `&&` / `||` to control flow so the right operand's burns (and
    /// effects) happen exactly when the interpreter would evaluate it.
    fn lower_logical(
        &mut self,
        lhs: &'m Expr,
        rhs: &'m Expr,
        is_and: bool,
    ) -> Result<u16, LowerError> {
        let l = self.lower_expr(lhs)?;
        let dst = self.alloc_reg()?;
        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let join = self.new_block();
        let (on_true, on_false) = if is_and {
            (rhs_bb, short_bb)
        } else {
            (short_bb, rhs_bb)
        };
        self.terminate(Term::BranchTruth {
            cond: l,
            on_true,
            on_false,
        });
        self.current = rhs_bb;
        let r = self.lower_expr(rhs)?;
        self.emit(Op::Truth { dst, src: r });
        self.terminate(Term::Jump(join));
        self.current = short_bb;
        self.emit(Op::ConstInt {
            dst,
            value: i64::from(!is_and),
        });
        self.terminate(Term::Jump(join));
        self.current = join;
        Ok(dst)
    }

    fn lower_call(&mut self, name: &'m str, args: &'m [Expr]) -> Result<u16, LowerError> {
        let mut arg_regs = Vec::with_capacity(args.len());
        for arg in args {
            arg_regs.push(self.lower_expr(arg)?);
        }
        // Builtins shadow user functions, exactly like the interpreter's
        // `eval_builtin`-first dispatch.
        if let Some((which, builtin_arity)) = Builtin::from_name(name) {
            if args.len() >= builtin_arity {
                let dst = self.alloc_reg()?;
                let a = arg_regs[0];
                let b = if builtin_arity > 1 { arg_regs[1] } else { a };
                self.emit_or_fold(dst, &[a, b], Op::Builtin { which, dst, a, b });
                return Ok(dst);
            }
            // Under-applied builtin: the interpreter would panic indexing
            // the argument slice; type checking rejects this, so refuse to
            // lower rather than invent a behavior.
            return Err(LowerError::UnknownVariable {
                function: self.func_name.to_string(),
                name: name.to_string(),
            });
        }
        let dst = self.alloc_reg()?;
        match self.func_ids.get(name) {
            Some(&func) => {
                let ret = self.new_block();
                self.terminate(Term::Call {
                    func,
                    args: arg_regs,
                    dst: Some(dst),
                    ret,
                });
                self.current = ret;
            }
            None => {
                // Unknown call target: arguments evaluate (and burn), then
                // the run traps — the interpreter's exact order.
                self.terminate(Term::Trap);
                self.current = self.new_block();
            }
        }
        Ok(dst)
    }
}

/// The compiled execution backend for FPIR programs: scalar evaluations
/// run the tape against the caller's [`ExecCtx`], and batches run it once
/// per lane through the shared deferred-penalty [`LaneCtx`] protocol. Both
/// reuse the backend's one register file and frame stack.
/// Installed automatically by [`IrProgram`]'s [`Program::backend`] under
/// [`BackendMode::Auto`].
#[derive(Debug, Clone)]
pub struct TapeBackend {
    tape: Arc<Tape>,
    lane: LaneCtx,
    scratch: TapeScratch,
}

impl TapeBackend {
    /// Wraps a lowered tape with the default `ε` and the empty saturation
    /// snapshot; the objective engine injects both on installation.
    pub fn new(tape: Tape) -> TapeBackend {
        TapeBackend {
            tape: Arc::new(tape),
            lane: LaneCtx::new(BranchSet::new()),
            scratch: TapeScratch::default(),
        }
    }

    /// The tape this backend executes.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }
}

impl ExecBackend for TapeBackend {
    fn name(&self) -> &'static str {
        "tape"
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        let lane = std::mem::take(&mut self.lane);
        self.lane = lane.with_epsilon(epsilon);
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.lane.retarget(saturated.clone());
    }

    fn run(&mut self, _program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        self.tape.execute_in(input, ctx, &mut self.scratch);
    }

    fn run_lanes(
        &mut self,
        _program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        let (tape, scratch) = (&self.tape, &mut self.scratch);
        self.lane.run_lanes(points, indices, out, |input, ctx| {
            tape.execute_in(input, ctx, scratch)
        });
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

/// Builds the backend [`IrProgram::backend`] hands out: `None` for
/// [`BackendMode::Interp`], the lowered tape for `Auto` (or `None` when
/// lowering bails, which transparently keeps the interpreter).
pub(crate) fn program_backend(
    program: &IrProgram,
    mode: BackendMode,
) -> Option<Box<dyn ExecBackend>> {
    match mode {
        BackendMode::Interp => None,
        BackendMode::Auto => lower(program)
            .ok()
            .map(|tape| Box::new(TapeBackend::new(tape)) as Box<dyn ExecBackend>),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use coverme_runtime::{BranchId, InterpBackend, RunOutcome, DEFAULT_EPSILON, LANE_WIDTH};

    /// Runs `program` both ways on `input` in observe mode and asserts the
    /// full observable state matches: coverage, trace, outcome.
    fn assert_observably_equal(program: &IrProgram, input: &[f64]) {
        let tape = lower(program).expect("lowers");
        let mut interp_ctx = ExecCtx::observe();
        program.execute(input, &mut interp_ctx);
        let mut tape_ctx = ExecCtx::observe();
        tape.execute(input, &mut tape_ctx);
        assert_eq!(
            tape_ctx.run_outcome(),
            interp_ctx.run_outcome(),
            "outcome diverged on {input:?}"
        );
        let interp_cov: Vec<BranchId> = interp_ctx.covered().iter().collect();
        let tape_cov: Vec<BranchId> = tape_ctx.covered().iter().collect();
        assert_eq!(tape_cov, interp_cov, "coverage diverged on {input:?}");
        assert_eq!(
            format!("{:?}", tape_ctx.trace()),
            format!("{:?}", interp_ctx.trace()),
            "trace diverged on {input:?}"
        );
    }

    #[test]
    fn tape_matches_interpreter_on_arithmetic_and_calls() {
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
        for v in [-3.0, -1.0, 0.0, 1.0, 2.0, 4.5, f64::NAN, f64::INFINITY] {
            assert_observably_equal(&p, &[v]);
        }
    }

    #[test]
    fn tape_matches_interpreter_on_loops_and_bit_builtins() {
        let p = compile(
            r#"
            double f(double x) {
                int hx = high_word(x) & 0x7fffffff;
                double acc = 0.0;
                int i = 0;
                while (i < 6) {
                    acc = acc + scalbn(x, i % 3);
                    i = i + 1;
                }
                if (hx >= 0x7ff00000) { return acc; }
                if (acc != 0.0 && x > 0.5) { return acc * 2.0; }
                return from_words(hx, low_word(acc));
            }
            "#,
            "f",
        )
        .unwrap();
        for v in [0.0, 0.3, 0.7, -2.5, 1e300, f64::NAN, f64::INFINITY, 5e-324] {
            assert_observably_equal(&p, &[v]);
        }
    }

    #[test]
    fn tape_preserves_timeout_and_trap_classification() {
        let spin = compile(
            "double f(double x) { while (x > 0.0) { x = x + 1.0; } return x; }",
            "f",
        )
        .unwrap();
        assert_observably_equal(&spin, &[1.0]);
        assert_observably_equal(&spin, &[-1.0]);
        // Same program, starved fuel: the exact step where the budget trips
        // must classify identically.
        let starved = spin.with_fuel(17);
        assert_observably_equal(&starved, &[1.0]);

        let recurse = compile(
            "double f(double x) { if (x > 0.0) { return f(x); } return x; }",
            "f",
        )
        .unwrap();
        assert_observably_equal(&recurse, &[1.0]);
        assert_observably_equal(&recurse, &[-1.0]);
    }

    #[test]
    fn tape_representing_values_are_bit_identical() {
        let p = compile(
            r#"
            double f(double x) {
                if (x <= 1.0) { x = x + 2.5; }
                double y = x * x;
                if (y == 4.0) { return 1.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        for i in 0..40 {
            let input = [i as f64 * 0.37 - 6.0];
            let mut interp_ctx = ExecCtx::representing(saturated.clone());
            p.execute(&input, &mut interp_ctx);
            let mut tape_ctx = ExecCtx::representing(saturated.clone());
            tape.execute(&input, &mut tape_ctx);
            assert_eq!(
                tape_ctx.representing_value().to_bits(),
                interp_ctx.representing_value().to_bits(),
                "representing value diverged on {input:?}"
            );
        }
    }

    #[test]
    fn lane_backend_matches_the_interp_backend_bit_for_bit() {
        let p = compile(
            r#"
            double helper(double a, int k) { return scalbn(a, k) - 1.0; }
            double f(double x) {
                double y = helper(x, 2);
                if (y <= 1.0) { y = y + 2.5; }
                if (y * y == 4.0) { return 1.0; }
                return y;
            }
            "#,
            "f",
        )
        .unwrap();
        let saturated: BranchSet = [BranchId::false_of(0), BranchId::true_of(0)]
            .into_iter()
            .collect();
        let mut tape_backend = p
            .backend(BackendMode::Auto)
            .expect("tape backend available");
        assert_eq!(tape_backend.name(), "tape");
        let mut interp_backend: Box<dyn ExecBackend> = Box::new(InterpBackend::new());
        for backend in [&mut tape_backend, &mut interp_backend] {
            backend.set_epsilon(DEFAULT_EPSILON);
            backend.retarget(&saturated);
        }
        let points: Vec<Vec<f64>> = (0..29).map(|i| vec![i as f64 * 0.23 - 3.0]).collect();
        let indices: Vec<usize> = (0..points.len()).collect();
        let mut tape_out = Vec::new();
        tape_backend.run_lanes(&p, &points, &indices, &mut tape_out);
        let mut interp_out = Vec::new();
        interp_backend.run_lanes(&p, &points, &indices, &mut interp_out);
        assert_eq!(tape_out.len(), interp_out.len());
        for (t, i) in tape_out.iter().zip(&interp_out) {
            assert_eq!(t.outcome, i.outcome);
            assert_eq!(t.value.to_bits(), i.value.to_bits());
        }
    }

    #[test]
    fn backend_discovery_respects_the_mode() {
        let p = compile(
            "double f(double x) { if (x < 1.0) { return x; } return 1.0; }",
            "f",
        )
        .unwrap();
        assert!(p.backend(BackendMode::Interp).is_none());
        let auto = p.backend(BackendMode::Auto).expect("auto resolves to tape");
        assert_eq!(auto.name(), "tape");
        assert_eq!(auto.lane_width(), LANE_WIDTH);
    }

    #[test]
    fn tapes_serialize_to_a_readable_listing() {
        let p = compile(
            r#"
            double f(double x) {
                if (x <= 1.0) { x = sqrt(x) + sqrt(16.0); }
                while (x > 0.0 && x < 9.0) { x = x * 2.0; }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        let listing = tape.serialize();
        assert!(listing.contains("tape f arity=1"));
        assert!(listing.contains("branch.site s0 le"));
        // `sqrt(16.0)` is folded: the image lists the literal and the
        // result, and the only `sqrt` left in a block is `sqrt(x)`.
        let (image, blocks) = listing.split_at(listing.find("b0:").unwrap());
        assert!(image.contains("= const.f 16.0"), "{listing}");
        assert!(image.contains("= const.f 4.0"), "{listing}");
        assert!(!blocks.contains("const.f"), "{listing}");
        assert_eq!(blocks.matches(" sqrt ").count(), 1, "{listing}");
        assert!(listing.contains("branch.truth"));
        assert!(listing.contains("jump b"));
        assert!(listing.contains("ret"));
        assert_eq!(listing, tape.to_string());
        assert!(tape.num_blocks() > 4);
        assert_eq!(tape.num_funcs(), 1);
        assert_eq!(tape.name(), "f");
        assert_eq!(tape.arity(), 1);
        // Only the `<=` conditional is instrumentable; the `&&` condition
        // stays uninstrumented (truthiness branch).
        assert_eq!(tape.num_sites(), 1);
        assert_eq!(tape.fuel(), crate::interp::DEFAULT_FUEL);
    }

    #[test]
    fn arithmetic_lane_path_matches_the_eager_scalar_path() {
        let p = compile(
            r#"
            double f(double x, double y) {
                double a = x * y + 2.0;
                double b = sqrt(fabs(a)) - x / 3.0;
                double c = sin(b) * cos(a) + exp(x * 0.001);
                if (c <= 1.0) { return c + a; }
                if (a == b) { return 0.0; }
                return c - b;
            }
            "#,
            "f",
        )
        .unwrap();
        let saturated: BranchSet = [BranchId::false_of(0), BranchId::true_of(1)]
            .into_iter()
            .collect();
        let specials = [
            -3.5,
            0.25,
            1.0,
            7.5,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1e300,
        ];
        let mut points = Vec::new();
        for &a in &specials {
            for &b in &specials {
                points.push(vec![a, b]);
            }
        }
        let indices: Vec<usize> = (0..points.len()).collect();
        // Reference: the eager scalar path, one eval per point.
        let reference: Vec<u64> = points
            .iter()
            .map(|point| {
                let mut ctx = ExecCtx::representing(saturated.clone());
                p.execute(point, &mut ctx);
                ctx.representing_value().to_bits()
            })
            .collect();
        let mut backend = p.backend(BackendMode::Auto).expect("tape available");
        assert_eq!(backend.name(), "tape");
        backend.set_epsilon(DEFAULT_EPSILON);
        backend.retarget(&saturated);
        let mut evals = Vec::new();
        backend.run_lanes(&p, &points, &indices, &mut evals);
        assert_eq!(evals.len(), points.len());
        for ((eval, &expect), point) in evals.iter().zip(&reference).zip(&points) {
            assert_eq!(eval.outcome, RunOutcome::Done);
            assert_eq!(
                eval.value.to_bits(),
                expect,
                "lane path diverged from eager scalar on {point:?}"
            );
        }
    }

    #[test]
    fn a_reused_scratch_stops_growing_at_the_deepest_frame_stack() {
        let p = compile(
            "double f(double x) { if (x > 0.0) { return f(x); } return x; }",
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        // Positive inputs recurse until the depth limit traps.
        let sweep = |scratch: &mut TapeScratch, inputs: &[f64]| {
            for &x in inputs {
                tape.execute_in(&[x], &mut ExecCtx::observe(), scratch);
            }
            (scratch.regs.capacity(), scratch.frames.capacity())
        };
        let mut scratch = TapeScratch::default();
        let capacity = sweep(&mut scratch, &[1.0]);
        assert!(capacity.1 > MAX_DEPTH);
        let mixed = [1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -2.0];
        assert_eq!(sweep(&mut scratch, &mixed), capacity);
    }

    #[test]
    fn fingerprints_see_folded_constants() {
        let fingerprints: Vec<(u64, u64)> = ["4.0", "9.0"]
            .iter()
            .map(|literal| {
                let source = format!(
                    "double f(double x) {{ if (x < sqrt({literal})) {{ return x; }} return 0.0; }}"
                );
                let p = compile(&source, "f").unwrap();
                (lower(&p).unwrap().fingerprint64(), p.fingerprint())
            })
            .collect();
        assert_eq!(fingerprints[0].0, fingerprints[0].1);
        assert_ne!(fingerprints[0], fingerprints[1]);
    }

    #[test]
    fn folding_moves_no_fuel_burn() {
        // Constant subexpressions in a loop body and in a helper: folding
        // drops their ops but not their burns, so at every fuel value the
        // budget trips at the same observable as in the interpreter.
        let hand = compile(
            r#"
            double scale(double a) { return a * sqrt(4.0) + (double) low_word(22.538); }
            double f(double x) {
                double acc = 0.0;
                int i = 0;
                while (i < 5) {
                    acc = acc + (double) 20 * 0.5 - exp(-(1.0 + 2.0));
                    if (acc > x) { acc = scale(acc); }
                    i = i + 1;
                }
                return acc;
            }
            "#,
            "f",
        )
        .unwrap();
        assert!(lower(&hand).unwrap().to_string().contains("const.i 20"));
        let mut programs = vec![(hand, vec![vec![-1.0], vec![40.0], vec![1e9]])];
        for seed in 0..10 {
            let source = crate::generate::generate_source(seed);
            let p = compile(&source, crate::generate::ENTRY_NAME).unwrap();
            let inputs = [0.5, -3.0]
                .iter()
                .map(|&v| vec![v; Program::arity(&p)])
                .collect();
            programs.push((p, inputs));
        }
        for (program, inputs) in &programs {
            for fuel in 1..=300 {
                let starved = program.clone().with_fuel(fuel);
                for input in inputs {
                    assert_observably_equal(&starved, input);
                }
            }
        }
    }

    #[test]
    fn short_circuit_burns_follow_the_taken_path() {
        // The rhs of `&&` burns fuel only when evaluated; with fuel tuned
        // to the boundary, interpreter and tape must classify identically
        // on both the short-circuiting and the full-evaluation path.
        let p = compile(
            r#"
            double g(double a) { return a + 1.0; }
            double f(double x) {
                if (x > 0.0 && g(x) > 2.0) { return 1.0; }
                if (x < 0.0 || g(x) < 0.5) { return 2.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        for fuel in 1..40 {
            let starved = p.clone().with_fuel(fuel);
            for v in [-1.0, 0.2, 3.0] {
                assert_observably_equal(&starved, &[v]);
            }
        }
    }
}
