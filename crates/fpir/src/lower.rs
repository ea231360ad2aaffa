//! Lowering instrumented FPIR modules to a flat, register-based
//! instruction tape, plus its executor.
//!
//! The tree-walking [`interp`](crate::interp) re-traverses the AST on every
//! evaluation — fine for one run, wasteful for the 100k+ evaluations a
//! search performs per function. This pass compiles the type-checked,
//! instrumented module **once** into a [`Tape`]: straight-line basic blocks
//! of register ops with explicit terminators (jumps, instrumented branch
//! sites, calls, returns, traps). [`Tape::execute`] runs it against any
//! [`ExecCtx`] mode (observe or representing) exactly like the
//! interpreter, and [`TapeBackend`] runs it for every evaluation of a
//! search. [`IrProgram::new`] lowers every checked program once and shares
//! that tape between its backends and its fingerprint.
//!
//! # Static tags
//!
//! The interpreter's `Value` carries a runtime tag, `Int` or `Double`, and
//! every operation tests it. The tape carries none: a register is an
//! untyped `u64` (an `i64`, or an `f64`'s bits), and each register has a
//! static tag fixed at lowering — the tag the interpreter's `Value` holds
//! there on every execution. The tags come from:
//!
//! * variables and parameters: the declared type, to which the interpreter
//!   coerces every store;
//! * literals and casts: their own type;
//! * builtins: their result type (`high_word` and `low_word` are `int`,
//!   the rest `double`);
//! * comparisons, `!`, `~`, `%`, the bitwise operators, the shifts, `&&`
//!   and `||`: `int`;
//! * `+ - * /` and `-x`: `int` when every operand is, else `double`;
//! * call results: the callee's declared return type, where `void` is
//!   `double` (the interpreter's "no value" is `0.0`).
//!
//! Ops and terminators specialize on these tags (`fadd`/`iadd`,
//! `fcmp`/`icmp`, `fsite`/`isite`, `ftruth`/`itruth`), and every change of
//! tag — the interpreter's promotions and coercions — is an explicit
//! `itof`/`ftoi` op. The executor takes one match per op and tests no tag.
//!
//! A `return` coerces its value to the declared return type, as a
//! declaration or an assignment coerces to the variable's type, so the tape
//! converts a `return` of another tag before it returns. Falling off the
//! end returns zero bits: the `int` zero or the `double` `0.0`, whichever
//! the function declares. Like every conversion, neither burns fuel.
//!
//! # Bit-exactness
//!
//! The tape is a *throughput* representation, never a semantic one: values
//! (bit-for-bit), coverage, traces,
//! [`RunOutcome`](coverme_runtime::RunOutcome) classification and step
//! accounting all match the interpreter exactly. Four mechanics let the
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
//!   conversions, casts, non-logical binaries and builtins over them) runs
//!   once at lowering time; its result goes into the function's initial
//!   register image and no op is emitted. This is exact: ops are pure and
//!   total, an expression temporary has exactly one writer and is read
//!   only after it, so every read sees the folded value, and the folded
//!   node's burn stays in its block's `cost`.
//! * **Folding into producers.** A store of an expression temporary into a
//!   variable of the same tag copies nothing: the op that produced the
//!   temporary writes the variable instead, so `x = x + 1.0;` is one
//!   `fadd` into `x`. This is exact because that op is the last one
//!   emitted before the store and the store is the temporary's only
//!   reader.
//!
//! Variables, parameters, call results and `&&`/`||` results are neither
//! folded nor retargeted: they can have several writers.
//!
//! Once every function is lowered, three passes run once over the whole
//! tape, each in time linear in it (liveness sweeps a loop once more per
//! level of loop nesting):
//!
//! * **Dead-op elimination.** A backward register liveness pass per
//!   function drops every op whose `dst` no later op or terminator reads
//!   (site and truth operands, call arguments, return values; a call's
//!   `dst` is written at its return), and every copy of a register onto
//!   itself. A dropped op reads nothing, so what fed only dead ops goes
//!   too. This is exact because ops are pure and total: a value nobody
//!   reads changes nothing. Sites, calls, returns, traps and every
//!   block's `cost` stay.
//! * **Superblocks.** A block ending in a jump takes in the jump's
//!   target: its ops are appended, the costs add and the target's
//!   terminator is taken over. It merges a target that has no other way
//!   in, and copies one of at most a few ops (so empty and cost-only
//!   blocks go, and a loop's header is copied into the latch that jumps
//!   back to it). This is exact by burn folding: between the two block
//!   headers lies no observable event, so one check of the summed cost at
//!   the first header trips in exactly the runs where one of the two
//!   checks would, before the same observable.
//! * **Compaction.** Blocks nothing reaches any more are dropped and the
//!   rest renumbered, so the block count and the listing (and with it the
//!   fingerprint) show what runs.
//!
//! Every frame starts as a copy of its function's image. [`TapeBackend`]
//! keeps one register file and frame stack across executions, cleared but
//! not freed, so a search's millions of runs do not allocate.
//!
//! Every type-checked module lowers, unless a function needs more than
//! 65,536 registers: that limit, and the unknown variables and `void`
//! declarations only unchecked modules can contain, are a
//! [`CompileError`] of kind [`ErrorKind::Lower`].

use std::collections::HashMap;
use std::sync::Arc;

use coverme_runtime::backend::run_each;
use coverme_runtime::{BackendMode, BranchSet, Cmp, ExecBackend, ExecCtx, LaneEval, Program};

use crate::ast::{
    builtin_signature, BinOp, Block as AstBlock, Expr, FunctionDef, Module, Param, Stmt, Ty, UnOp,
};
use crate::error::{CompileError, ErrorKind};
use crate::instrument::{as_comparison, InstrumentedModule};
use crate::interp::{int_compare, IrProgram, MAX_DEPTH};

/// A register's static tag: the variant of the interpreter's `Value` the
/// register holds on every execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Int,
    Double,
}

impl Tag {
    /// The runtime tag of a value of declared type `ty`. `void` is
    /// `double`: the interpreter's "no value" is `0.0`.
    fn of(ty: Ty) -> Tag {
        match ty {
            Ty::Int => Tag::Int,
            Ty::Double | Ty::Void => Tag::Double,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tag::Int => "int",
            Tag::Double => "double",
        }
    }
}

/// Reads a `double` register.
#[inline(always)]
fn load_f(frame: &[u64], reg: u16) -> f64 {
    f64::from_bits(frame[reg as usize])
}

/// Reads an `int` register.
#[inline(always)]
fn load_i(frame: &[u64], reg: u16) -> i64 {
    frame[reg as usize] as i64
}

/// Writes a C truth value (`int` 0 or 1).
#[inline(always)]
fn store_bool(frame: &mut [u64], reg: u16, holds: bool) {
    frame[reg as usize] = u64::from(holds);
}

/// The interpreter's `double` → `int` conversion: C truncation toward
/// zero, saturating at the `i64` range, NaN to 0.
fn f_to_i(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else {
        v.trunc().clamp(i64::MIN as f64, i64::MAX as f64) as i64
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
    /// Every builtin, in `ast::BUILTINS` order.
    const ALL: [Builtin; 14] = [
        Builtin::Sqrt,
        Builtin::Fabs,
        Builtin::Floor,
        Builtin::Sin,
        Builtin::Cos,
        Builtin::Exp,
        Builtin::Log,
        Builtin::Pow,
        Builtin::HighWord,
        Builtin::LowWord,
        Builtin::FromWords,
        Builtin::WithHighWord,
        Builtin::WithLowWord,
        Builtin::Scalbn,
    ];

    /// The builtin a call to `name` resolves to, with its parameter and
    /// result types from [`builtin_signature`], the table type checking
    /// uses. The builtin reads operand `i` at `Tag::of(params[i])`, the
    /// interpreter's `as_f64`/`as_i64` per argument.
    fn from_name(name: &str) -> Option<(Builtin, &'static [Ty], Ty)> {
        let (params, ret) = builtin_signature(name)?;
        let which = Builtin::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .expect("every ast builtin has a tape builtin");
        Some((which, params, ret))
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

    /// Applies the builtin to operands of its signature's tags — formula for
    /// formula the interpreter's `eval_builtin`. A unary builtin's second
    /// operand is its first.
    fn eval(self, frame: &[u64], a: u16, b: u16) -> u64 {
        let d = |reg| load_f(frame, reg);
        let n = |reg| load_i(frame, reg);
        match self {
            Builtin::Sqrt => d(a).sqrt().to_bits(),
            Builtin::Fabs => d(a).abs().to_bits(),
            Builtin::Floor => d(a).floor().to_bits(),
            Builtin::Sin => d(a).sin().to_bits(),
            Builtin::Cos => d(a).cos().to_bits(),
            Builtin::Exp => d(a).exp().to_bits(),
            Builtin::Log => d(a).ln().to_bits(),
            Builtin::Pow => d(a).powf(d(b)).to_bits(),
            Builtin::HighWord => i64::from((d(a).to_bits() >> 32) as u32 as i32) as u64,
            Builtin::LowWord => i64::from(d(a).to_bits() as u32) as u64,
            Builtin::FromWords => ((n(a) as u32 as u64) << 32) | (n(b) as u32 as u64),
            Builtin::WithHighWord => {
                (d(a).to_bits() & 0x0000_0000_ffff_ffff) | ((n(b) as u32 as u64) << 32)
            }
            Builtin::WithLowWord => (d(a).to_bits() & 0xffff_ffff_0000_0000) | (n(b) as u32 as u64),
            Builtin::Scalbn => (d(a) * 2f64.powi(n(b).clamp(-2100, 2100) as i32)).to_bits(),
        }
    }
}

/// A straight-line register operation. `i…` ops read and write `int`
/// registers and `f…` ops `double` ones; comparisons, `!` and truth tests
/// write an `int` 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// All-zero bits: `int` 0 or `double` `+0.0`, the value of a
    /// declaration without initializer.
    Zero {
        dst: u16,
    },
    /// An `int` constant: the short-circuited value of `&&`/`||`.
    IConst {
        dst: u16,
        value: i32,
    },
    Move {
        dst: u16,
        src: u16,
    },
    /// `int` → `double`.
    IToF {
        dst: u16,
        src: u16,
    },
    /// `double` → `int`, see [`f_to_i`].
    FToI {
        dst: u16,
        src: u16,
    },
    /// `src != 0`.
    IBool {
        dst: u16,
        src: u16,
    },
    FBool {
        dst: u16,
        src: u16,
    },
    /// `!src`.
    INot {
        dst: u16,
        src: u16,
    },
    FNot {
        dst: u16,
        src: u16,
    },
    INeg {
        dst: u16,
        src: u16,
    },
    FNeg {
        dst: u16,
        src: u16,
    },
    /// `~src`.
    IBitNot {
        dst: u16,
        src: u16,
    },
    IAdd {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    ISub {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IMul {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IDiv {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IRem {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IAnd {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IOr {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IXor {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IShl {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    IShr {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    FAdd {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    FSub {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    FMul {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    FDiv {
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    ICmp {
        cmp: Cmp,
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    FCmp {
        cmp: Cmp,
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

impl Op {
    /// Converts the other tag's `src` into `dst` of tag `to`.
    fn conversion(to: Tag, dst: u16, src: u16) -> Op {
        match to {
            Tag::Int => Op::FToI { dst, src },
            Tag::Double => Op::IToF { dst, src },
        }
    }

    /// The register the op writes.
    fn dst_mut(&mut self) -> &mut u16 {
        match self {
            Op::Zero { dst }
            | Op::IConst { dst, .. }
            | Op::Move { dst, .. }
            | Op::IToF { dst, .. }
            | Op::FToI { dst, .. }
            | Op::IBool { dst, .. }
            | Op::FBool { dst, .. }
            | Op::INot { dst, .. }
            | Op::FNot { dst, .. }
            | Op::INeg { dst, .. }
            | Op::FNeg { dst, .. }
            | Op::IBitNot { dst, .. }
            | Op::IAdd { dst, .. }
            | Op::ISub { dst, .. }
            | Op::IMul { dst, .. }
            | Op::IDiv { dst, .. }
            | Op::IRem { dst, .. }
            | Op::IAnd { dst, .. }
            | Op::IOr { dst, .. }
            | Op::IXor { dst, .. }
            | Op::IShl { dst, .. }
            | Op::IShr { dst, .. }
            | Op::FAdd { dst, .. }
            | Op::FSub { dst, .. }
            | Op::FMul { dst, .. }
            | Op::FDiv { dst, .. }
            | Op::ICmp { dst, .. }
            | Op::FCmp { dst, .. }
            | Op::Builtin { dst, .. } => dst,
        }
    }
}

/// How a basic block hands off control.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// Unconditional jump.
    Jump(usize),
    /// An instrumented conditional on `double` operands: report through
    /// the context, then branch on `op(lhs, rhs)`.
    FSite {
        site: u32,
        op: Cmp,
        lhs: u16,
        rhs: u16,
        on_true: usize,
        on_false: usize,
    },
    /// The same on `int` operands, which the report promotes to `double`
    /// (Sect. 5.3 of the paper).
    ISite {
        site: u32,
        op: Cmp,
        lhs: u16,
        rhs: u16,
        on_true: usize,
        on_false: usize,
    },
    /// An uninstrumented conditional on a `double`: branch on `cond != 0`.
    FTruth {
        cond: u16,
        on_true: usize,
        on_false: usize,
    },
    /// The same on an `int`.
    ITruth {
        cond: u16,
        on_true: usize,
        on_false: usize,
    },
    /// Call a tape function on `args`, already converted to its parameter
    /// tags; execution resumes at `ret` with the result in `dst`.
    Call {
        func: u32,
        args: Vec<u16>,
        dst: u16,
        ret: usize,
    },
    /// Return from the current frame; no value is zero bits, the declared
    /// return type's zero.
    Return { value: Option<u16> },
    /// Abort the run as a trap (statically-unresolvable call target).
    Trap,
}

impl Term {
    /// The blocks control can go to next in this frame: a call's return
    /// block, not the callee.
    fn targets(&self) -> impl Iterator<Item = usize> {
        let (first, second) = match *self {
            Term::Jump(target) | Term::Call { ret: target, .. } => (Some(target), None),
            Term::FSite {
                on_true, on_false, ..
            }
            | Term::ISite {
                on_true, on_false, ..
            }
            | Term::FTruth {
                on_true, on_false, ..
            }
            | Term::ITruth {
                on_true, on_false, ..
            } => (Some(on_true), Some(on_false)),
            Term::Return { .. } | Term::Trap => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Replaces each target `b` by `map(b)`.
    fn retarget(&mut self, map: impl Fn(usize) -> usize) {
        match self {
            Term::Jump(target) | Term::Call { ret: target, .. } => *target = map(*target),
            Term::FSite {
                on_true, on_false, ..
            }
            | Term::ISite {
                on_true, on_false, ..
            }
            | Term::FTruth {
                on_true, on_false, ..
            }
            | Term::ITruth {
                on_true, on_false, ..
            } => {
                *on_true = map(*on_true);
                *on_false = map(*on_false);
            }
            Term::Return { .. } | Term::Trap => {}
        }
    }

    /// Calls `read` on each register the terminator reads. A call's `dst`
    /// is not read: it is written when the callee returns.
    fn for_each_read(&self, mut read: impl FnMut(u16)) {
        match self {
            Term::FSite { lhs, rhs, .. } | Term::ISite { lhs, rhs, .. } => {
                read(*lhs);
                read(*rhs);
            }
            Term::FTruth { cond, .. } | Term::ITruth { cond, .. } => read(*cond),
            Term::Call { args, .. } => args.iter().for_each(|&arg| read(arg)),
            Term::Return { value } => value.iter().for_each(|&reg| read(reg)),
            Term::Jump(_) | Term::Trap => {}
        }
    }
}

/// A basic block: a fused fuel burn, straight-line ops, one terminator.
#[derive(Debug, Clone)]
struct TapeBlock {
    /// Fuel steps the interpreter would burn across this block's ops and
    /// the segment of control flow it models; charged (and checked) once
    /// at the block header.
    cost: u32,
    /// The block's ops: `Tape::ops[start..end]`.
    start: u32,
    end: u32,
    term: Term,
}

/// A lowered function: its register tags, initial register image and its
/// slice of the block graph (blocks are globally indexed across the whole
/// tape).
#[derive(Debug, Clone)]
struct TapeFunc {
    name: String,
    /// The parameters are the first `num_params` registers.
    num_params: usize,
    /// Each register's static tag.
    tags: Vec<Tag>,
    /// The register window every frame of this function starts from:
    /// folded constants in their registers, zero bits everywhere else.
    init: Vec<u64>,
    entry_block: usize,
}

/// A compiled FPIR program: flat blocks of register ops with explicit
/// control flow, bit-identical in behavior to the tree-walking
/// interpreter.
#[derive(Debug, Clone)]
pub struct Tape {
    name: String,
    arity: usize,
    num_sites: usize,
    /// Set in place by [`IrProgram::with_fuel`], which never lowers again.
    pub(crate) fuel: usize,
    entry: usize,
    funcs: Vec<TapeFunc>,
    blocks: Vec<TapeBlock>,
    /// Every block's ops, block after block.
    ops: Vec<Op>,
}

/// A call frame of the tape executor.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: usize,
    ret_block: usize,
    ret_dst: u16,
}

/// The executor's working memory: the register file (one window per live
/// frame) and the frame stack. Each execution clears both but keeps their
/// capacity, so a reused scratch stops allocating once it has seen the
/// deepest call stack.
#[derive(Debug, Clone, Default)]
struct TapeScratch {
    regs: Vec<u64>,
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

    /// Always 0: the tape has no vectorized blocks. No product code calls
    /// it; the end-to-end benchmark harness (`perfbench/`) reports it as
    /// `fpir.soa_blocks`, and the benchmark-archetype change deletes it.
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
    /// [`Program::fingerprint`] returns for FPIR programs — any semantic
    /// edit to the source changes the lowered tape and therefore the key,
    /// so stale corpus entries never warm-start a changed function. A cache
    /// key, not a cryptographic digest.
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
        // The entry parameters are `double` registers (`lower` checks it).
        for (reg, &v) in regs.iter_mut().zip(input) {
            *reg = v.to_bits();
        }
        frames.push(Frame {
            base: 0,
            ret_block: usize::MAX,
            ret_dst: 0,
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
            let frame = &mut regs[base..];
            for op in &self.ops[block.start as usize..block.end as usize] {
                exec_op(op, frame);
            }
            match block.term {
                Term::Jump(target) => pc = target,
                Term::FTruth {
                    cond,
                    on_true,
                    on_false,
                } => {
                    pc = if load_f(frame, cond) != 0.0 {
                        on_true
                    } else {
                        on_false
                    }
                }
                Term::ITruth {
                    cond,
                    on_true,
                    on_false,
                } => {
                    pc = if load_i(frame, cond) != 0 {
                        on_true
                    } else {
                        on_false
                    }
                }
                Term::FSite {
                    site,
                    op,
                    lhs,
                    rhs,
                    on_true,
                    on_false,
                } => {
                    let holds = ctx.branch(site, op, load_f(frame, lhs), load_f(frame, rhs));
                    pc = if holds { on_true } else { on_false };
                }
                Term::ISite {
                    site,
                    op,
                    lhs,
                    rhs,
                    on_true,
                    on_false,
                } => {
                    let (a, b) = (load_i(frame, lhs) as f64, load_i(frame, rhs) as f64);
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
                    for (index, &arg) in args.iter().enumerate() {
                        regs[new_base + index] = regs[base + arg as usize];
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
                    let result = value.map_or(0, |reg| frame[reg as usize]);
                    let done = frames.pop().expect("at least the entry frame");
                    regs.truncate(done.base);
                    match frames.last() {
                        Some(caller) => {
                            base = caller.base;
                            regs[base + done.ret_dst as usize] = result;
                            pc = done.ret_block;
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
            let params: Vec<&str> = func.tags[..func.num_params]
                .iter()
                .map(|tag| tag.name())
                .collect();
            writeln!(
                f,
                "fn{index} {}({}) regs={} entry=b{}",
                func.name,
                params.join(","),
                func.init.len(),
                func.entry_block
            )?;
            // The image, minus registers holding zero bits. With the ops
            // this pins the image exactly, so the fingerprint sees every
            // folded constant.
            for (reg, (&bits, &tag)) in func.init.iter().zip(&func.tags).enumerate() {
                match tag {
                    _ if bits == 0 => {}
                    Tag::Double => writeln!(f, "  r{reg} = const.f {:?}", f64::from_bits(bits))?,
                    Tag::Int => writeln!(f, "  r{reg} = const.i {}", bits as i64)?,
                }
            }
        }
        for (index, block) in self.blocks.iter().enumerate() {
            writeln!(f, "b{index}: cost={}", block.cost)?;
            for op in &self.ops[block.start as usize..block.end as usize] {
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

fn format_op(op: &Op) -> String {
    let unary = |name: &str, dst: u16, src: u16| format!("r{dst} = {name} r{src}");
    let binary =
        |name: &str, dst: u16, lhs: u16, rhs: u16| format!("r{dst} = {name} r{lhs}, r{rhs}");
    match *op {
        Op::Zero { dst } => format!("r{dst} = zero"),
        Op::IConst { dst, value } => format!("r{dst} = const.i {value}"),
        Op::Move { dst, src } => format!("r{dst} = r{src}"),
        Op::IToF { dst, src } => unary("itof", dst, src),
        Op::FToI { dst, src } => unary("ftoi", dst, src),
        Op::IBool { dst, src } => unary("ibool", dst, src),
        Op::FBool { dst, src } => unary("fbool", dst, src),
        Op::INot { dst, src } => unary("inot", dst, src),
        Op::FNot { dst, src } => unary("fnot", dst, src),
        Op::INeg { dst, src } => unary("ineg", dst, src),
        Op::FNeg { dst, src } => unary("fneg", dst, src),
        Op::IBitNot { dst, src } => unary("ibitnot", dst, src),
        Op::IAdd { dst, lhs, rhs } => binary("iadd", dst, lhs, rhs),
        Op::ISub { dst, lhs, rhs } => binary("isub", dst, lhs, rhs),
        Op::IMul { dst, lhs, rhs } => binary("imul", dst, lhs, rhs),
        Op::IDiv { dst, lhs, rhs } => binary("idiv", dst, lhs, rhs),
        Op::IRem { dst, lhs, rhs } => binary("irem", dst, lhs, rhs),
        Op::IAnd { dst, lhs, rhs } => binary("iand", dst, lhs, rhs),
        Op::IOr { dst, lhs, rhs } => binary("ior", dst, lhs, rhs),
        Op::IXor { dst, lhs, rhs } => binary("ixor", dst, lhs, rhs),
        Op::IShl { dst, lhs, rhs } => binary("ishl", dst, lhs, rhs),
        Op::IShr { dst, lhs, rhs } => binary("ishr", dst, lhs, rhs),
        Op::FAdd { dst, lhs, rhs } => binary("fadd", dst, lhs, rhs),
        Op::FSub { dst, lhs, rhs } => binary("fsub", dst, lhs, rhs),
        Op::FMul { dst, lhs, rhs } => binary("fmul", dst, lhs, rhs),
        Op::FDiv { dst, lhs, rhs } => binary("fdiv", dst, lhs, rhs),
        Op::ICmp { cmp, dst, lhs, rhs } => binary(&format!("icmp.{}", cmp_str(cmp)), dst, lhs, rhs),
        Op::FCmp { cmp, dst, lhs, rhs } => binary(&format!("fcmp.{}", cmp_str(cmp)), dst, lhs, rhs),
        Op::Builtin { which, dst, a, b } => binary(which.name(), dst, a, b),
    }
}

fn format_term(term: &Term) -> String {
    match term {
        Term::Jump(target) => format!("jump b{target}"),
        Term::FSite {
            site,
            op,
            lhs,
            rhs,
            on_true,
            on_false,
        } => format!(
            "fsite s{site} {} r{lhs}, r{rhs} ? b{on_true} : b{on_false}",
            cmp_str(*op)
        ),
        Term::ISite {
            site,
            op,
            lhs,
            rhs,
            on_true,
            on_false,
        } => format!(
            "isite s{site} {} r{lhs}, r{rhs} ? b{on_true} : b{on_false}",
            cmp_str(*op)
        ),
        Term::FTruth {
            cond,
            on_true,
            on_false,
        } => format!("ftruth r{cond} ? b{on_true} : b{on_false}"),
        Term::ITruth {
            cond,
            on_true,
            on_false,
        } => format!("itruth r{cond} ? b{on_true} : b{on_false}"),
        Term::Call {
            func,
            args,
            dst,
            ret,
        } => {
            let args: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            format!("r{dst} = call fn{func}({}) ret b{ret}", args.join(", "))
        }
        Term::Return { value: Some(reg) } => format!("ret r{reg}"),
        Term::Return { value: None } => "ret".to_string(),
        Term::Trap => "trap".to_string(),
    }
}

/// Applies one straight-line op on a frame's register window.
#[inline]
fn exec_op(op: &Op, frame: &mut [u64]) {
    match *op {
        Op::Zero { dst } => frame[dst as usize] = 0,
        Op::IConst { dst, value } => frame[dst as usize] = i64::from(value) as u64,
        Op::Move { dst, src } => frame[dst as usize] = frame[src as usize],
        Op::IToF { dst, src } => frame[dst as usize] = (load_i(frame, src) as f64).to_bits(),
        Op::FToI { dst, src } => frame[dst as usize] = f_to_i(load_f(frame, src)) as u64,
        Op::IBool { dst, src } => store_bool(frame, dst, load_i(frame, src) != 0),
        Op::FBool { dst, src } => store_bool(frame, dst, load_f(frame, src) != 0.0),
        Op::INot { dst, src } => store_bool(frame, dst, load_i(frame, src) == 0),
        Op::FNot { dst, src } => store_bool(frame, dst, load_f(frame, src) == 0.0),
        Op::INeg { dst, src } => frame[dst as usize] = load_i(frame, src).wrapping_neg() as u64,
        Op::FNeg { dst, src } => frame[dst as usize] = (-load_f(frame, src)).to_bits(),
        Op::IBitNot { dst, src } => frame[dst as usize] = !frame[src as usize],
        Op::IAdd { dst, lhs, rhs } => {
            frame[dst as usize] = load_i(frame, lhs).wrapping_add(load_i(frame, rhs)) as u64;
        }
        Op::ISub { dst, lhs, rhs } => {
            frame[dst as usize] = load_i(frame, lhs).wrapping_sub(load_i(frame, rhs)) as u64;
        }
        Op::IMul { dst, lhs, rhs } => {
            frame[dst as usize] = load_i(frame, lhs).wrapping_mul(load_i(frame, rhs)) as u64;
        }
        Op::IDiv { dst, lhs, rhs } => {
            let divisor = load_i(frame, rhs);
            frame[dst as usize] = if divisor == 0 {
                0
            } else {
                load_i(frame, lhs).wrapping_div(divisor) as u64
            };
        }
        Op::IRem { dst, lhs, rhs } => {
            let divisor = load_i(frame, rhs);
            frame[dst as usize] = if divisor == 0 {
                0
            } else {
                load_i(frame, lhs).wrapping_rem(divisor) as u64
            };
        }
        Op::IAnd { dst, lhs, rhs } => {
            frame[dst as usize] = frame[lhs as usize] & frame[rhs as usize]
        }
        Op::IOr { dst, lhs, rhs } => {
            frame[dst as usize] = frame[lhs as usize] | frame[rhs as usize]
        }
        Op::IXor { dst, lhs, rhs } => {
            frame[dst as usize] = frame[lhs as usize] ^ frame[rhs as usize]
        }
        Op::IShl { dst, lhs, rhs } => {
            let shift = load_i(frame, rhs) as u32 & 63;
            frame[dst as usize] = load_i(frame, lhs).wrapping_shl(shift) as u64;
        }
        Op::IShr { dst, lhs, rhs } => {
            let shift = load_i(frame, rhs) as u32 & 63;
            frame[dst as usize] = load_i(frame, lhs).wrapping_shr(shift) as u64;
        }
        Op::FAdd { dst, lhs, rhs } => {
            frame[dst as usize] = (load_f(frame, lhs) + load_f(frame, rhs)).to_bits();
        }
        Op::FSub { dst, lhs, rhs } => {
            frame[dst as usize] = (load_f(frame, lhs) - load_f(frame, rhs)).to_bits();
        }
        Op::FMul { dst, lhs, rhs } => {
            frame[dst as usize] = (load_f(frame, lhs) * load_f(frame, rhs)).to_bits();
        }
        Op::FDiv { dst, lhs, rhs } => {
            frame[dst as usize] = (load_f(frame, lhs) / load_f(frame, rhs)).to_bits();
        }
        Op::ICmp { cmp, dst, lhs, rhs } => store_bool(
            frame,
            dst,
            int_compare(cmp, load_i(frame, lhs), load_i(frame, rhs)),
        ),
        Op::FCmp { cmp, dst, lhs, rhs } => {
            store_bool(frame, dst, cmp.eval(load_f(frame, lhs), load_f(frame, rhs)))
        }
        Op::Builtin { which, dst, a, b } => frame[dst as usize] = which.eval(frame, a, b),
    }
}

/// Lowers `program` to its instruction tape again. [`IrProgram::new`]
/// already holds the tape every backend shares, so no product code calls
/// this; the end-to-end benchmark harness (`perfbench/`) times it.
///
/// # Errors
///
/// None for a program that exists: [`IrProgram::new`] lowered it already.
pub fn lower(program: &IrProgram) -> Result<Tape, CompileError> {
    lower_module(program.instrumented(), program.fuel())
}

/// Lowers an instrumented module to its instruction tape with the given
/// step fuel.
///
/// # Errors
///
/// A [`CompileError`] of kind [`ErrorKind::Lower`] when a function needs
/// more than 65,536 registers, or when an unchecked module has what type
/// checking rules out (see the module docs).
pub(crate) fn lower_module(inst: &InstrumentedModule, fuel: usize) -> Result<Tape, CompileError> {
    let module = &inst.module;
    let mut func_ids: HashMap<&str, u32> = HashMap::new();
    for (index, func) in module.functions.iter().enumerate() {
        // Keep the first occurrence: `Module::function` resolves by first
        // match, so duplicate names (rejected upstream anyway) must not
        // rebind to a later definition.
        func_ids.entry(func.name.as_str()).or_insert(index as u32);
    }
    let entry = func_ids[inst.entry.as_str()] as usize;
    let entry_fn = &module.functions[entry];
    // Inputs enter as `double` registers; the instrumentation pass admits
    // no other entry parameter.
    if let Some(param) = entry_fn.params.iter().find(|p| p.ty != Ty::Double) {
        return Err(lower_error(
            entry_fn,
            format!("entry parameter `{}` is not a double", param.name),
        ));
    }
    let mut blocks = Vec::new();
    let mut ops = Vec::new();
    let mut funcs = Vec::with_capacity(module.functions.len());
    for func in &module.functions {
        funcs.push(FuncLowerer::lower_function(
            module,
            &func_ids,
            func,
            &mut blocks,
            &mut ops,
        )?);
    }
    let (blocks, ops) = optimize(&mut funcs, blocks, ops);
    Ok(Tape {
        name: inst.entry.clone(),
        arity: entry_fn.params.len(),
        num_sites: inst.num_sites(),
        fuel,
        entry,
        funcs,
        blocks,
        ops,
    })
}

/// The largest block, in ops, that a jump into it copies (see
/// [`build_superblocks`]).
const DUPLICATE_MAX_OPS: u32 = 8;

/// Runs the three exact passes (see the module docs) over freshly lowered
/// blocks: dead-op elimination, superblocks, compaction.
fn optimize(
    funcs: &mut [TapeFunc],
    mut blocks: Vec<TapeBlock>,
    mut ops: Vec<Op>,
) -> (Vec<TapeBlock>, Vec<Op>) {
    let mut liveness = Liveness::new(blocks.len(), ops.len());
    let mut order = Vec::with_capacity(blocks.len());
    for func in funcs.iter() {
        liveness.eliminate_dead_ops(func, &mut blocks, &mut ops);
        order.extend_from_slice(&liveness.order);
    }
    let entries: Vec<usize> = funcs.iter().map(|func| func.entry_block).collect();
    let chains = build_superblocks(&entries, &order, &mut blocks);
    compact(funcs, blocks, &chains, &ops)
}

/// A block's state in [`Liveness::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    New,
    /// On the walk's stack: an edge to it closes a cycle.
    Open,
    Done,
}

/// How [`Liveness`] tracks a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// No op or call writes it (a folded constant, say): nothing to drop.
    Unwritten,
    /// Written, and read only after a write in the same block: never live
    /// across a block boundary.
    Local,
    /// Read somewhere before a write in the same block: bit `n` of the
    /// live sets.
    Bit(u32),
}

/// An op's registers, read out of the op once by [`Liveness::walk`] so
/// that the sweeps need not match on it again.
#[derive(Debug, Clone, Copy, Default)]
struct Operands {
    dst: u16,
    sources: [u16; 2],
    count: u8,
}

impl Operands {
    /// The registers `op` writes and reads.
    fn of(op: &Op) -> Operands {
        let (sources, count) = match *op {
            Op::Zero { .. } | Op::IConst { .. } => ([0, 0], 0),
            Op::Move { src, .. }
            | Op::IToF { src, .. }
            | Op::FToI { src, .. }
            | Op::IBool { src, .. }
            | Op::FBool { src, .. }
            | Op::INot { src, .. }
            | Op::FNot { src, .. }
            | Op::INeg { src, .. }
            | Op::FNeg { src, .. }
            | Op::IBitNot { src, .. } => ([src, 0], 1),
            Op::IAdd { lhs, rhs, .. }
            | Op::ISub { lhs, rhs, .. }
            | Op::IMul { lhs, rhs, .. }
            | Op::IDiv { lhs, rhs, .. }
            | Op::IRem { lhs, rhs, .. }
            | Op::IAnd { lhs, rhs, .. }
            | Op::IOr { lhs, rhs, .. }
            | Op::IXor { lhs, rhs, .. }
            | Op::IShl { lhs, rhs, .. }
            | Op::IShr { lhs, rhs, .. }
            | Op::FAdd { lhs, rhs, .. }
            | Op::FSub { lhs, rhs, .. }
            | Op::FMul { lhs, rhs, .. }
            | Op::FDiv { lhs, rhs, .. }
            | Op::ICmp { lhs, rhs, .. }
            | Op::FCmp { lhs, rhs, .. }
            | Op::Builtin { a: lhs, b: rhs, .. } => ([lhs, rhs], 2),
        };
        let mut op = *op;
        Operands {
            dst: *op.dst_mut(),
            sources,
            count,
        }
    }

    fn sources(&self) -> &[u16] {
        &self.sources[..self.count as usize]
    }
}

/// What [`Liveness`] knows of a block.
#[derive(Debug, Clone, Copy)]
struct Node {
    visit: Visit,
    /// An edge to it closes a cycle: it heads a loop.
    header: bool,
    /// Its position in its function's order.
    position: u32,
    /// The position where the subtree the walk entered at it starts.
    start: u32,
}

/// Backward register liveness and dead-op elimination, one function at a
/// time. The buffers are kept across functions, so a tape allocates them
/// once.
#[derive(Default)]
struct Liveness {
    nodes: Vec<Node>,
    /// The function's reachable blocks in postorder of a depth-first walk
    /// from its entry: each block after every block it reaches, but along
    /// an edge that closes a cycle.
    order: Vec<usize>,
    stack: Vec<(usize, usize)>,
    /// Per op, its registers.
    operands: Vec<Operands>,
    slot: Vec<Slot>,
    /// `mark[reg] == stamp`: the `Local` register `reg` is live (or, in
    /// the walk, written) at this point of the block at hand.
    mark: Vec<u32>,
    stamp: u32,
    /// Registers read before a write in their block, with repeats.
    exposed: Vec<u16>,
    words: usize,
    /// Per position, the `Bit` registers live on entry, `words` per block.
    live_in: Vec<u64>,
    /// The `Bit` registers live at this point of the block at hand.
    live: Vec<u64>,
    /// Per position, whether the block's live-out set is final.
    settled: Vec<bool>,
    /// The positions not settled yet, ascending.
    unsettled: Vec<usize>,
}

impl Liveness {
    fn new(num_blocks: usize, num_ops: usize) -> Liveness {
        let node = Node {
            visit: Visit::New,
            header: false,
            position: 0,
            start: 0,
        };
        Liveness {
            nodes: vec![node; num_blocks],
            order: Vec::with_capacity(num_blocks),
            operands: vec![Operands::default(); num_ops],
            ..Liveness::default()
        }
    }

    /// Drops every op of `func` whose `dst` nothing reads later. Exact
    /// because ops are pure and total: a value nobody reads changes
    /// nothing, and the blocks' costs stay. The reads are the sources of
    /// kept ops and the terminators' operands: site and truth operands,
    /// call arguments and return values. A call's `dst` is written at its
    /// return. A copy of a register onto itself goes too.
    ///
    /// A dropped op reads nothing, so a chain of ops that feeds only dead
    /// ops goes too, and so does a loop variable that feeds only itself.
    ///
    /// One backward sweep in postorder settles every block whose
    /// successors were all settled before it: its live-out set is final,
    /// so it drops at once. That is every block of an acyclic function.
    /// A block that reaches a loop's back edge waits for the loop's
    /// header, which comes after the whole loop in postorder; there the
    /// loop sweeps again without dropping until no live set grows, then
    /// drops. So a block outside loops is swept once.
    fn eliminate_dead_ops(&mut self, func: &TapeFunc, blocks: &mut [TapeBlock], ops: &mut [Op]) {
        let num_regs = func.init.len();
        self.slot.clear();
        self.slot.resize(num_regs, Slot::Unwritten);
        self.mark.clear();
        self.mark.resize(num_regs, 0);
        self.exposed.clear();
        self.order.clear();
        self.walk(func.entry_block, blocks, ops);
        let mut bits = 0;
        for &reg in &self.exposed {
            let slot = &mut self.slot[reg as usize];
            if *slot == Slot::Local {
                *slot = Slot::Bit(bits);
                bits += 1;
            }
        }
        self.words = (bits as usize).div_ceil(64);
        let len = self.order.len();
        self.live_in.clear();
        self.live_in.resize(len * self.words, 0);
        self.live.resize(self.words, 0);
        self.settled.clear();
        self.settled.resize(len, false);
        self.unsettled.clear();
        for index in 0..len {
            let block = self.order[index];
            let settled = blocks[block]
                .term
                .targets()
                .all(|target| self.settled[self.nodes[target].position as usize]);
            self.sweep(index, &mut blocks[block], ops, settled);
            if settled {
                self.settled[index] = true;
                continue;
            }
            self.unsettled.push(index);
            if self.nodes[block].header {
                // The loop is every unsettled block of the header's
                // subtree. It settles unless it also waits for another
                // header, an enclosing loop's.
                let from = self.nodes[block].start as usize;
                let first = self.unsettled.partition_point(|&at| at < from);
                let closed = self.unsettled[first..].iter().all(|&at| {
                    blocks[self.order[at]].term.targets().all(|target| {
                        let to = self.nodes[target].position as usize;
                        self.settled[to] || (from..=index).contains(&to)
                    })
                });
                if closed {
                    let members = self.unsettled.split_off(first);
                    self.settle(&members, blocks, ops);
                }
            }
        }
        // Structured loops leave nothing here (none did over generator
        // seeds 0-4,999); anything else settles over all of it.
        let rest = std::mem::take(&mut self.unsettled);
        self.settle(&rest, blocks, ops);
        self.unsettled = rest;
    }

    /// Sweeps the blocks at `members` without dropping until no live set
    /// grows, then drops. In postorder, only an edge to a loop header can
    /// lead to a set not yet recomputed in the same sweep, so a sweep in
    /// which no header's set grew has reached the fixed point.
    fn settle(&mut self, members: &[usize], blocks: &mut [TapeBlock], ops: &mut [Op]) {
        let mut changed = !members.is_empty();
        while changed {
            changed = false;
            for &index in members {
                let block = self.order[index];
                let grew = self.sweep(index, &mut blocks[block], ops, false);
                changed |= grew && self.nodes[block].header;
            }
        }
        for &index in members {
            self.sweep(index, &mut blocks[self.order[index]], ops, true);
            self.settled[index] = true;
        }
    }

    /// Appends the blocks reachable from `entry` to `order` in postorder,
    /// notes each block's position and subtree start and the loop
    /// headers, and walks each block forward once to give every register
    /// its [`Slot`], note each op's [`Operands`] and drop each copy of a
    /// register onto itself, which does nothing.
    fn walk(&mut self, entry: usize, blocks: &mut [TapeBlock], ops: &mut [Op]) {
        self.enter(entry, blocks, ops);
        while let Some(top) = self.stack.last_mut() {
            let (block, next) = *top;
            match blocks[block].term.targets().nth(next) {
                Some(target) => {
                    top.1 += 1;
                    match self.nodes[target].visit {
                        Visit::New => self.enter(target, blocks, ops),
                        Visit::Open => self.nodes[target].header = true,
                        Visit::Done => {}
                    }
                }
                None => {
                    self.stack.pop();
                    let node = &mut self.nodes[block];
                    node.visit = Visit::Done;
                    node.position = self.order.len() as u32;
                    self.order.push(block);
                }
            }
        }
    }

    /// Pushes `block` on the walk's stack and scans it (see [`walk`]).
    ///
    /// [`walk`]: Liveness::walk
    fn enter(&mut self, block: usize, blocks: &mut [TapeBlock], ops: &mut [Op]) {
        let node = &mut self.nodes[block];
        node.visit = Visit::Open;
        node.start = self.order.len() as u32;
        self.stack.push((block, 0));
        self.stamp += 1;
        let Liveness {
            operands,
            slot,
            mark,
            stamp,
            exposed,
            ..
        } = self;
        let stamp = *stamp;
        let block = &mut blocks[block];
        let mut write = block.start as usize;
        for read in block.start as usize..block.end as usize {
            let op = ops[read];
            if matches!(op, Op::Move { dst, src } if dst == src) {
                continue;
            }
            let regs = Operands::of(&op);
            for &reg in regs.sources() {
                if mark[reg as usize] != stamp {
                    exposed.push(reg);
                }
            }
            mark[regs.dst as usize] = stamp;
            slot[regs.dst as usize] = Slot::Local;
            ops[write] = op;
            operands[write] = regs;
            write += 1;
        }
        block.end = write as u32;
        block.term.for_each_read(|reg| {
            if mark[reg as usize] != stamp {
                exposed.push(reg);
            }
        });
        if let Term::Call { dst, .. } = block.term {
            slot[dst as usize] = Slot::Local;
        }
    }

    /// Walks `block` (at `index` in the order) backward from the union of
    /// its successors' live-in sets and stores its own; returns whether
    /// that grew. With `drop`, the block keeps only its live ops, moved to
    /// the end of its run of `ops`.
    fn sweep(&mut self, index: usize, block: &mut TapeBlock, ops: &mut [Op], drop: bool) -> bool {
        self.stamp += 1;
        let Liveness {
            nodes,
            operands,
            slot,
            mark,
            stamp,
            live_in,
            live,
            words,
            ..
        } = self;
        let words = *words;
        let mut targets = block
            .term
            .targets()
            .map(|target| nodes[target].position as usize * words);
        let (first, second) = (targets.next(), targets.next());
        for (word, live) in live.iter_mut().enumerate() {
            let row = |at: Option<usize>| at.map_or(0, |at| live_in[at + word]);
            *live = row(first) | row(second);
        }
        let mut set = LiveSet {
            slot,
            mark,
            stamp: *stamp,
            live,
        };
        if let Term::Call { dst, .. } = block.term {
            set.kill(dst);
        }
        block.term.for_each_read(|reg| set.gen(reg));
        let mut write = block.end as usize;
        for read in (block.start as usize..block.end as usize).rev() {
            let regs = operands[read];
            if !set.holds(regs.dst) {
                continue;
            }
            set.kill(regs.dst);
            for &reg in regs.sources() {
                set.gen(reg);
            }
            if drop {
                write -= 1;
                ops[write] = ops[read];
            }
        }
        if drop {
            block.start = write as u32;
        }
        let mut grew = false;
        for (old, &new) in live_in[index * words..(index + 1) * words]
            .iter_mut()
            .zip(live.iter())
        {
            grew |= *old != new;
            *old = new;
        }
        grew
    }
}

/// The registers live at one point of a block, during [`Liveness::sweep`].
struct LiveSet<'a> {
    slot: &'a [Slot],
    mark: &'a mut [u32],
    stamp: u32,
    live: &'a mut [u64],
}

impl LiveSet<'_> {
    fn holds(&self, reg: u16) -> bool {
        match self.slot[reg as usize] {
            Slot::Unwritten => false,
            Slot::Local => self.mark[reg as usize] == self.stamp,
            Slot::Bit(bit) => self.live[bit as usize / 64] & (1 << (bit % 64)) != 0,
        }
    }

    /// Adds `reg`: a read.
    fn gen(&mut self, reg: u16) {
        match self.slot[reg as usize] {
            Slot::Unwritten => {}
            Slot::Local => self.mark[reg as usize] = self.stamp,
            Slot::Bit(bit) => self.live[bit as usize / 64] |= 1 << (bit % 64),
        }
    }

    /// Removes `reg`: a write.
    fn kill(&mut self, reg: u16) {
        match self.slot[reg as usize] {
            Slot::Unwritten => {}
            Slot::Local => self.mark[reg as usize] = 0,
            Slot::Bit(bit) => self.live[bit as usize / 64] &= !(1 << (bit % 64)),
        }
    }
}

/// A block's ops during [`build_superblocks`]: a linked list of runs of
/// `ops`, so that a merge appends a whole block in constant time.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// First and last run, `NO_RUN` when the block has no ops.
    head: usize,
    tail: usize,
    len: u32,
}

/// One nonempty run of `ops` in a [`Chain`].
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    end: u32,
    next: usize,
}

const NO_RUN: usize = usize::MAX;

/// The chains of every block, and the runs they link.
struct Chains {
    by_block: Vec<Chain>,
    runs: Vec<Run>,
}

impl Chains {
    /// Appends a run to `block`'s chain.
    fn push(&mut self, block: usize, start: u32, end: u32) {
        let run = self.runs.len();
        self.runs.push(Run {
            start,
            end,
            next: NO_RUN,
        });
        self.link(block, run, run, end - start);
    }

    /// Moves `from`'s runs to the end of `block`'s chain.
    fn append(&mut self, block: usize, from: usize) {
        let Chain { head, tail, len } = self.by_block[from];
        if head != NO_RUN {
            self.link(block, head, tail, len);
        }
    }

    /// Appends a copy of `from`'s runs to `block`'s chain.
    fn copy(&mut self, block: usize, from: usize) {
        let mut at = self.by_block[from].head;
        while at != NO_RUN {
            let Run { start, end, next } = self.runs[at];
            self.push(block, start, end);
            at = next;
        }
    }

    /// Appends the runs `head..=tail` holding `len` ops to `block`'s chain.
    fn link(&mut self, block: usize, head: usize, tail: usize, len: u32) {
        let chain = &mut self.by_block[block];
        match chain.tail {
            NO_RUN => chain.head = head,
            last => self.runs[last].next = head,
        }
        chain.tail = tail;
        chain.len += len;
    }

    /// The runs of `block`'s chain, in order.
    fn runs(&self, block: usize) -> impl Iterator<Item = Run> + '_ {
        let mut at = self.by_block[block].head;
        std::iter::from_fn(move || {
            let run = *self.runs.get(at)?;
            at = run.next;
            Some(run)
        })
    }
}

/// Builds superblocks over the blocks reachable from `entries`, visited
/// in `order` (postorder, so a jump's target has mostly taken in its own
/// successors when the jump considers it). A block ending in a jump takes
/// in its target, ops appended, costs added, terminator taken over:
///
/// * by **merging** when the jump is the target's only way in: the
///   target is gone, and the block goes on with the target's terminator;
/// * by **duplication**, once per block, when the target has at most
///   [`DUPLICATE_MAX_OPS`] ops: the block takes in a copy. This removes
///   empty and cost-only blocks, and copies a loop's header into the
///   latch that jumps back to it.
///
/// Both are exact under burn folding: between the two block headers lies
/// no observable event, so one fuel check of the summed cost at the first
/// header trips in exactly the runs where one of the two checks would,
/// before the same observable. Linear time: a merge links two chains, and
/// a block copies at most one chain of at most [`DUPLICATE_MAX_OPS`] ops.
fn build_superblocks(entries: &[usize], order: &[usize], blocks: &mut [TapeBlock]) -> Chains {
    let mut chains = Chains {
        by_block: vec![
            Chain {
                head: NO_RUN,
                tail: NO_RUN,
                len: 0,
            };
            blocks.len()
        ],
        runs: Vec::with_capacity(order.len()),
    };
    // The ways into each block: jumps and branches of live blocks, plus
    // the call that enters a function at its entry block.
    let mut preds = vec![0u32; blocks.len()];
    for &entry in entries {
        preds[entry] += 1;
    }
    for &block in order {
        let TapeBlock {
            start, end, term, ..
        } = &blocks[block];
        if start < end {
            chains.push(block, *start, *end);
        }
        for target in term.targets() {
            preds[target] += 1;
        }
    }
    for &block in order {
        if preds[block] == 0 {
            continue;
        }
        let mut duplicated = false;
        while let Term::Jump(target) = blocks[block].term {
            if target == block {
                break;
            }
            let Some(cost) = blocks[block].cost.checked_add(blocks[target].cost) else {
                break;
            };
            if preds[target] == 1 {
                chains.append(block, target);
                blocks[block].term = std::mem::replace(&mut blocks[target].term, Term::Trap);
                preds[target] = 0;
            } else if !duplicated && chains.by_block[target].len <= DUPLICATE_MAX_OPS {
                duplicated = true;
                chains.copy(block, target);
                blocks[block].term = blocks[target].term.clone();
                for next in blocks[block].term.targets() {
                    preds[next] += 1;
                }
                preds[target] -= 1;
            } else {
                break;
            }
            blocks[block].cost = cost;
        }
    }
    chains
}

/// Keeps the blocks still reachable from the function entries, in their
/// old order, and lays their chains out as one contiguous run of ops each.
fn compact(
    funcs: &mut [TapeFunc],
    blocks: Vec<TapeBlock>,
    chains: &Chains,
    ops: &[Op],
) -> (Vec<TapeBlock>, Vec<Op>) {
    let mut renumber = vec![usize::MAX; blocks.len()];
    let mut stack: Vec<usize> = funcs.iter().map(|func| func.entry_block).collect();
    for &entry in &stack {
        renumber[entry] = 0;
    }
    while let Some(block) = stack.pop() {
        for target in blocks[block].term.targets() {
            if renumber[target] == usize::MAX {
                renumber[target] = 0;
                stack.push(target);
            }
        }
    }
    let mut kept = 0;
    for index in renumber.iter_mut().filter(|index| **index == 0) {
        *index = kept;
        kept += 1;
    }
    let mut new_ops = Vec::with_capacity(ops.len());
    let mut new_blocks = Vec::with_capacity(kept);
    for (index, block) in blocks.into_iter().enumerate() {
        if renumber[index] == usize::MAX {
            continue;
        }
        let start = new_ops.len() as u32;
        for run in chains.runs(index) {
            new_ops.extend_from_slice(&ops[run.start as usize..run.end as usize]);
        }
        let mut term = block.term;
        term.retarget(|target| renumber[target]);
        new_blocks.push(TapeBlock {
            cost: block.cost,
            start,
            end: new_ops.len() as u32,
            term,
        });
    }
    for func in funcs {
        func.entry_block = renumber[func.entry_block];
    }
    (new_blocks, new_ops)
}

/// A lowering failure in `func`.
fn lower_error(func: &FunctionDef, message: impl std::fmt::Display) -> CompileError {
    CompileError::at(
        ErrorKind::Lower,
        func.line,
        format!("function `{}`: {message}", func.name),
    )
}

/// The tag of `param` of `func`. A `void` parameter (which type checking
/// rejects) would keep its argument's tag in the interpreter, so it has
/// none.
fn param_tag(func: &FunctionDef, param: &Param) -> Result<Tag, CompileError> {
    match param.ty {
        Ty::Void => Err(lower_error(
            func,
            format!("parameter `{}` is void", param.name),
        )),
        ty => Ok(Tag::of(ty)),
    }
}

/// Per-function lowering state.
struct FuncLowerer<'m, 'b> {
    module: &'m Module,
    func: &'m FunctionDef,
    func_ids: &'b HashMap<&'m str, u32>,
    blocks: &'b mut Vec<TapeBlock>,
    ops: &'b mut Vec<Op>,
    /// Flat lexically-scoped symbol stack: name and register.
    symbols: Vec<(&'m str, u16)>,
    scopes: Vec<usize>,
    /// Each register's static tag.
    tags: Vec<Tag>,
    /// The function's initial register image, one entry per register.
    init: Vec<u64>,
    /// Which registers hold a folded constant in `init`.
    folded: Vec<bool>,
    /// Which registers are expression temporaries: one writer, one reader.
    temp: Vec<bool>,
    /// The tag every `return` hands the caller.
    ret_tag: Tag,
    current: usize,
}

impl<'m, 'b> FuncLowerer<'m, 'b> {
    /// Lowers `func` onto the shared block and op lists.
    fn lower_function(
        module: &'m Module,
        func_ids: &'b HashMap<&'m str, u32>,
        func: &'m FunctionDef,
        blocks: &'b mut Vec<TapeBlock>,
        ops: &'b mut Vec<Op>,
    ) -> Result<TapeFunc, CompileError> {
        let entry_block = blocks.len();
        let mut lowerer = FuncLowerer {
            module,
            func,
            func_ids,
            blocks,
            ops,
            symbols: Vec::new(),
            scopes: Vec::new(),
            tags: Vec::new(),
            init: Vec::new(),
            folded: Vec::new(),
            temp: Vec::new(),
            ret_tag: Tag::of(func.ret),
            current: entry_block,
        };
        let entry = lowerer.new_block();
        lowerer.enter(entry);
        for param in &func.params {
            let tag = param_tag(func, param)?;
            let reg = lowerer.alloc_reg(tag, false)?;
            lowerer.symbols.push((&param.name, reg));
        }
        lowerer.lower_ast_block(&func.body)?;
        // Falling off the end returns the declared type's zero, exactly
        // like the interpreter's `Flow::Normal`.
        lowerer.lower_return(None)?;
        Ok(TapeFunc {
            name: func.name.clone(),
            num_params: func.params.len(),
            tags: lowerer.tags,
            init: lowerer.init,
            entry_block,
        })
    }

    fn alloc_reg(&mut self, tag: Tag, temp: bool) -> Result<u16, CompileError> {
        // Registers are `u16` indices: 65,536 per function.
        let Ok(reg) = u16::try_from(self.init.len()) else {
            return Err(lower_error(
                self.func,
                "needs more than 65,536 registers, the limit per function",
            ));
        };
        self.tags.push(tag);
        self.init.push(0);
        self.folded.push(false);
        self.temp.push(temp);
        Ok(reg)
    }

    fn tag(&self, reg: u16) -> Tag {
        self.tags[reg as usize]
    }

    fn new_block(&mut self) -> usize {
        let id = self.blocks.len();
        self.blocks.push(TapeBlock {
            cost: 0,
            start: 0,
            end: 0,
            // Placeholder; every block is terminated before it is left.
            term: Term::Return { value: None },
        });
        id
    }

    /// Makes `block` the one ops go to. Every block is entered once, and
    /// only the block entered last receives ops, so each block's ops are
    /// one contiguous run of `ops`.
    fn enter(&mut self, block: usize) {
        let at = self.ops.len() as u32;
        let entered = &mut self.blocks[block];
        entered.start = at;
        entered.end = at;
        self.current = block;
    }

    fn emit(&mut self, op: Op) {
        let block = &mut self.blocks[self.current];
        debug_assert_eq!(
            block.end as usize,
            self.ops.len(),
            "ops of a block interleaved"
        );
        self.ops.push(op);
        block.end += 1;
    }

    /// Emits `op`, which writes the fresh expression temporary `dst` —
    /// unless every register in `sources` holds a folded constant: then
    /// `op` runs once, now, its result goes into the initial image and
    /// nothing is emitted. Exact because ops are pure and total, and `dst`
    /// has no other writer, so every read of it sees this value.
    fn emit_or_fold(&mut self, dst: u16, sources: &[u16], op: Op) {
        if sources.iter().all(|&src| self.folded[src as usize]) {
            exec_op(&op, &mut self.init);
            self.folded[dst as usize] = true;
        } else {
            self.emit(op);
        }
    }

    /// A folded constant of `tag` with the given bits.
    fn constant(&mut self, tag: Tag, bits: u64) -> Result<u16, CompileError> {
        let dst = self.alloc_reg(tag, true)?;
        self.init[dst as usize] = bits;
        self.folded[dst as usize] = true;
        Ok(dst)
    }

    /// `src` read at `tag`: `src` itself, or a temporary holding its
    /// conversion — the interpreter's `as_f64`/`as_i64`.
    fn convert(&mut self, src: u16, tag: Tag) -> Result<u16, CompileError> {
        if self.tag(src) == tag {
            return Ok(src);
        }
        let dst = self.alloc_reg(tag, true)?;
        self.emit_or_fold(dst, &[src], Op::conversion(tag, dst, src));
        Ok(dst)
    }

    /// Stores `src` into the variable register `dst`, converting to its
    /// tag. A same-tag expression temporary produced by the last op is not
    /// copied: that op writes `dst` instead.
    fn store(&mut self, dst: u16, src: u16) {
        let (to, from) = (self.tag(dst), self.tag(src));
        if to != from {
            self.emit(Op::conversion(to, dst, src));
            return;
        }
        let block = &self.blocks[self.current];
        if self.temp[src as usize] && block.end > block.start {
            let producer = self.ops.last_mut().expect("the block has ops").dst_mut();
            if *producer == src {
                *producer = dst;
                return;
            }
        }
        self.emit(Op::Move { dst, src });
    }

    /// Adds interpreter fuel burns to the current block's header charge.
    fn add_cost(&mut self, steps: u32) {
        self.blocks[self.current].cost += steps;
    }

    fn terminate(&mut self, term: Term) {
        self.blocks[self.current].term = term;
    }

    /// Terminates the current block with a `return` of `value` coerced to
    /// the declared return tag; no value is that tag's zero.
    fn lower_return(&mut self, value: Option<u16>) -> Result<(), CompileError> {
        let value = value
            .map(|reg| self.convert(reg, self.ret_tag))
            .transpose()?;
        self.terminate(Term::Return { value });
        Ok(())
    }

    /// A conditional branch on the truth of `cond`.
    fn truth(&self, cond: u16, on_true: usize, on_false: usize) -> Term {
        match self.tag(cond) {
            Tag::Int => Term::ITruth {
                cond,
                on_true,
                on_false,
            },
            Tag::Double => Term::FTruth {
                cond,
                on_true,
                on_false,
            },
        }
    }

    fn lookup(&self, name: &str) -> Result<u16, CompileError> {
        self.symbols
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, reg)| reg)
            .ok_or_else(|| lower_error(self.func, format!("unknown variable `{name}`")))
    }

    fn lower_ast_block(&mut self, block: &'m AstBlock) -> Result<(), CompileError> {
        self.scopes.push(self.symbols.len());
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        let start = self.scopes.pop().expect("scope underflow");
        self.symbols.truncate(start);
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &'m Stmt) -> Result<(), CompileError> {
        // `exec_stmt` burns one step on entry, before dispatch.
        self.add_cost(1);
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let tag = match ty {
                    Ty::Int => Tag::Int,
                    Ty::Double => Tag::Double,
                    Ty::Void => {
                        return Err(lower_error(self.func, format!("variable `{name}` is void")))
                    }
                };
                let dst = self.alloc_reg(tag, false)?;
                match init {
                    Some(init) => {
                        let value = self.lower_expr(init)?;
                        self.store(dst, value);
                    }
                    // No initializer: no eval burn, zero of the declared
                    // representation.
                    None => self.emit(Op::Zero { dst }),
                }
                self.symbols.push((name, dst));
                Ok(())
            }
            Stmt::Assign { name, value, .. } => {
                let v = self.lower_expr(value)?;
                // The interpreter coerces to the slot's current tag, which
                // (invariantly, post-typecheck) is the declared type.
                let reg = self.lookup(name)?;
                self.store(reg, v);
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
                self.enter(then_bb);
                self.lower_ast_block(then_block)?;
                self.terminate(Term::Jump(join));
                self.enter(else_bb);
                if let Some(else_block) = else_block {
                    self.lower_ast_block(else_block)?;
                }
                self.terminate(Term::Jump(join));
                self.enter(join);
                Ok(())
            }
            Stmt::While {
                cond, body, site, ..
            } => {
                let head = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Term::Jump(head));
                self.enter(head);
                self.lower_condition(cond, *site, body_bb, exit)?;
                self.enter(body_bb);
                self.lower_ast_block(body)?;
                // The interpreter burns one latch step after each completed
                // body iteration, before re-evaluating the condition. The
                // stretch from here to the head's branch is observable-free,
                // so folding the burn into the back-edge block's header is
                // exact.
                self.add_cost(1);
                self.terminate(Term::Jump(head));
                self.enter(exit);
                Ok(())
            }
            Stmt::Return { value, .. } => {
                let reg = match value {
                    Some(expr) => Some(self.lower_expr(expr)?),
                    None => None,
                };
                self.lower_return(reg)?;
                // Anything lowered after a return lands in an unreachable
                // continuation block.
                let next = self.new_block();
                self.enter(next);
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
    /// site (as doubles); everything else evaluates the full expression and
    /// branches on truthiness.
    fn lower_condition(
        &mut self,
        cond: &'m Expr,
        site: Option<u32>,
        on_true: usize,
        on_false: usize,
    ) -> Result<(), CompileError> {
        let term = if let (Some(site), Some((op, lhs, rhs))) = (site, as_comparison(cond)) {
            let lhs = self.lower_expr(lhs)?;
            let rhs = self.lower_expr(rhs)?;
            if self.tag(lhs) == Tag::Int && self.tag(rhs) == Tag::Int {
                Term::ISite {
                    site,
                    op,
                    lhs,
                    rhs,
                    on_true,
                    on_false,
                }
            } else {
                Term::FSite {
                    site,
                    op,
                    lhs: self.convert(lhs, Tag::Double)?,
                    rhs: self.convert(rhs, Tag::Double)?,
                    on_true,
                    on_false,
                }
            }
        } else {
            let cond = self.lower_expr(cond)?;
            self.truth(cond, on_true, on_false)
        };
        self.terminate(term);
        Ok(())
    }

    /// Lowers an expression, returning the register holding its value.
    /// Charges the interpreter's one-burn-per-node pre-order accounting as
    /// it goes.
    fn lower_expr(&mut self, expr: &'m Expr) -> Result<u16, CompileError> {
        self.add_cost(1);
        match expr {
            Expr::Int(value) => self.constant(Tag::Int, *value as u64),
            Expr::Float(value) => self.constant(Tag::Double, value.to_bits()),
            // Reading a variable is just its register: the language has no
            // assignment expressions, so nothing can clobber the register
            // between this read and the consuming op.
            Expr::Var(name) => self.lookup(name),
            Expr::Unary { op, expr } => {
                let src = self.lower_expr(expr)?;
                let (src, tag) = match op {
                    UnOp::BitNot => (self.convert(src, Tag::Int)?, Tag::Int),
                    UnOp::Neg => (src, self.tag(src)),
                    UnOp::Not => (src, Tag::Int),
                };
                let dst = self.alloc_reg(tag, true)?;
                let op = match (op, self.tag(src)) {
                    (UnOp::Neg, Tag::Int) => Op::INeg { dst, src },
                    (UnOp::Neg, Tag::Double) => Op::FNeg { dst, src },
                    (UnOp::Not, Tag::Int) => Op::INot { dst, src },
                    (UnOp::Not, Tag::Double) => Op::FNot { dst, src },
                    (UnOp::BitNot, _) => Op::IBitNot { dst, src },
                };
                self.emit_or_fold(dst, &[src], op);
                Ok(dst)
            }
            Expr::Cast { ty, expr } => {
                let src = self.lower_expr(expr)?;
                match ty {
                    Ty::Int => self.convert(src, Tag::Int),
                    Ty::Double => self.convert(src, Tag::Double),
                    // The interpreter's `coerce(Void)` keeps the value.
                    Ty::Void => Ok(src),
                }
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::LogicalAnd => self.lower_logical(lhs, rhs, true),
                BinOp::LogicalOr => self.lower_logical(lhs, rhs, false),
                _ => {
                    let l = self.lower_expr(lhs)?;
                    let r = self.lower_expr(rhs)?;
                    self.lower_binary(*op, l, r)
                }
            },
            Expr::Call { name, args } => self.lower_call(name, args),
        }
    }

    /// A non-short-circuit binary on evaluated operands — arm-for-arm the
    /// interpreter's `eval_binary` tail, with its promotions made explicit:
    /// `+ - * /` and comparisons are `int` ops when both operands are
    /// `int` and `double` ops otherwise; `%`, the bitwise operators and
    /// the shifts read both operands as `int`.
    fn lower_binary(&mut self, op: BinOp, l: u16, r: u16) -> Result<u16, CompileError> {
        let both_int = self.tag(l) == Tag::Int && self.tag(r) == Tag::Int;
        let operand_tag = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Cmp(_) if !both_int => {
                Tag::Double
            }
            _ => Tag::Int,
        };
        let lhs = self.convert(l, operand_tag)?;
        let rhs = self.convert(r, operand_tag)?;
        let result_tag = match op {
            BinOp::Cmp(_) => Tag::Int,
            _ => operand_tag,
        };
        let dst = self.alloc_reg(result_tag, true)?;
        let op = match (op, operand_tag) {
            (BinOp::Add, Tag::Int) => Op::IAdd { dst, lhs, rhs },
            (BinOp::Sub, Tag::Int) => Op::ISub { dst, lhs, rhs },
            (BinOp::Mul, Tag::Int) => Op::IMul { dst, lhs, rhs },
            (BinOp::Div, Tag::Int) => Op::IDiv { dst, lhs, rhs },
            (BinOp::Add, Tag::Double) => Op::FAdd { dst, lhs, rhs },
            (BinOp::Sub, Tag::Double) => Op::FSub { dst, lhs, rhs },
            (BinOp::Mul, Tag::Double) => Op::FMul { dst, lhs, rhs },
            (BinOp::Div, Tag::Double) => Op::FDiv { dst, lhs, rhs },
            (BinOp::Rem, _) => Op::IRem { dst, lhs, rhs },
            (BinOp::BitAnd, _) => Op::IAnd { dst, lhs, rhs },
            (BinOp::BitOr, _) => Op::IOr { dst, lhs, rhs },
            (BinOp::BitXor, _) => Op::IXor { dst, lhs, rhs },
            (BinOp::Shl, _) => Op::IShl { dst, lhs, rhs },
            (BinOp::Shr, _) => Op::IShr { dst, lhs, rhs },
            (BinOp::Cmp(cmp), Tag::Int) => Op::ICmp { cmp, dst, lhs, rhs },
            (BinOp::Cmp(cmp), Tag::Double) => Op::FCmp { cmp, dst, lhs, rhs },
            (BinOp::LogicalAnd | BinOp::LogicalOr, _) => {
                unreachable!("short-circuit operators are lowered to control flow")
            }
        };
        self.emit_or_fold(dst, &[lhs, rhs], op);
        Ok(dst)
    }

    /// Lowers `&&` / `||` to control flow so the right operand's burns (and
    /// effects) happen exactly when the interpreter would evaluate it.
    fn lower_logical(
        &mut self,
        lhs: &'m Expr,
        rhs: &'m Expr,
        is_and: bool,
    ) -> Result<u16, CompileError> {
        let l = self.lower_expr(lhs)?;
        let dst = self.alloc_reg(Tag::Int, false)?;
        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let join = self.new_block();
        let (on_true, on_false) = if is_and {
            (rhs_bb, short_bb)
        } else {
            (short_bb, rhs_bb)
        };
        self.terminate(self.truth(l, on_true, on_false));
        self.enter(rhs_bb);
        let src = self.lower_expr(rhs)?;
        self.emit(match self.tag(src) {
            Tag::Int => Op::IBool { dst, src },
            Tag::Double => Op::FBool { dst, src },
        });
        self.terminate(Term::Jump(join));
        self.enter(short_bb);
        self.emit(Op::IConst {
            dst,
            value: i32::from(!is_and),
        });
        self.terminate(Term::Jump(join));
        self.enter(join);
        Ok(dst)
    }

    fn lower_call(&mut self, name: &'m str, args: &'m [Expr]) -> Result<u16, CompileError> {
        let mut arg_regs = Vec::with_capacity(args.len());
        for arg in args {
            arg_regs.push(self.lower_expr(arg)?);
        }
        // Builtins shadow user functions, exactly like the interpreter's
        // `eval_builtin`-first dispatch.
        if let Some((which, params, ret)) = Builtin::from_name(name) {
            if args.len() >= params.len() {
                let a = self.convert(arg_regs[0], Tag::of(params[0]))?;
                let b = match params.get(1) {
                    Some(&ty) => self.convert(arg_regs[1], Tag::of(ty))?,
                    None => a,
                };
                let dst = self.alloc_reg(Tag::of(ret), true)?;
                self.emit_or_fold(dst, &[a, b], Op::Builtin { which, dst, a, b });
                return Ok(dst);
            }
            // Under-applied builtin: the interpreter would panic indexing
            // the argument slice; type checking rejects this, so refuse to
            // lower rather than invent a behavior.
            return Err(lower_error(
                self.func,
                format!("too few arguments to `{name}`"),
            ));
        }
        let Some(&func) = self.func_ids.get(name) else {
            // Unknown call target: arguments evaluate (and burn), then the
            // run traps — the interpreter's exact order.
            let dst = self.alloc_reg(Tag::Double, false)?;
            self.terminate(Term::Trap);
            let next = self.new_block();
            self.enter(next);
            return Ok(dst);
        };
        let callee = &self.module.functions[func as usize];
        if arg_regs.len() < callee.params.len() {
            // The interpreter would panic reading the missing argument.
            return Err(lower_error(
                self.func,
                format!("too few arguments to `{name}`"),
            ));
        }
        // The interpreter coerces each argument to its parameter's type.
        let mut call_args = Vec::with_capacity(callee.params.len());
        for (&reg, param) in arg_regs.iter().zip(&callee.params) {
            let tag = param_tag(callee, param)?;
            call_args.push(self.convert(reg, tag)?);
        }
        let dst = self.alloc_reg(Tag::of(callee.ret), false)?;
        let ret = self.new_block();
        self.terminate(Term::Call {
            func,
            args: call_args,
            dst,
            ret,
        });
        self.enter(ret);
        Ok(dst)
    }
}

/// The compiled execution backend for FPIR programs: every evaluation runs
/// the tape against the caller's [`ExecCtx`], reusing the backend's one
/// register file and frame stack. Installed automatically by
/// [`IrProgram`]'s [`Program::backend`] under [`BackendMode::Auto`].
#[derive(Debug, Clone)]
pub struct TapeBackend {
    tape: Arc<Tape>,
    /// The context behind [`ExecBackend::run_lanes`].
    lanes: ExecCtx,
    scratch: TapeScratch,
}

impl TapeBackend {
    /// Wraps a lowered tape.
    pub fn new(tape: Tape) -> TapeBackend {
        TapeBackend::shared(Arc::new(tape))
    }

    /// Wraps a tape other backends may share.
    fn shared(tape: Arc<Tape>) -> TapeBackend {
        TapeBackend {
            tape,
            lanes: ExecCtx::representing(BranchSet::new())
                .without_trace()
                .without_coverage(),
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
        self.lanes = self.lanes.clone().with_epsilon(epsilon);
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.lanes.retarget(saturated.clone());
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
        run_each(&mut self.lanes, points, indices, out, |input, ctx| {
            tape.execute_in(input, ctx, scratch)
        });
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

/// Builds the backend [`IrProgram::backend`] hands out: the program's
/// tape for [`BackendMode::Auto`], `None` (the interpreter oracle) for
/// `Interp`.
pub(crate) fn program_backend(
    program: &IrProgram,
    mode: BackendMode,
) -> Option<Box<dyn ExecBackend>> {
    match mode {
        BackendMode::Interp => None,
        BackendMode::Auto => Some(Box::new(TapeBackend::shared(Arc::clone(program.tape())))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::interp::DEFAULT_FUEL;
    use coverme_runtime::{BranchId, InterpBackend, RunOutcome, DEFAULT_EPSILON};

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
            tape_ctx.trace(),
            interp_ctx.trace(),
            "trace diverged on {input:?}"
        );
    }

    #[test]
    fn tape_builtins_and_the_ast_signature_table_name_the_same_set() {
        let tape_names: Vec<&str> = Builtin::ALL.iter().map(|b| b.name()).collect();
        let ast_names: Vec<&str> = crate::ast::BUILTINS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(tape_names, ast_names);
        // `Op::Builtin` carries at most two operands.
        for (name, params, _) in crate::ast::BUILTINS {
            assert!(
                matches!(params.len(), 1 | 2),
                "`{name}` takes 1 or 2 operands"
            );
        }
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
        assert_eq!(auto.lane_width(), 1);
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
        assert!(listing.contains("fsite s0 le"));
        // `sqrt(16.0)` is folded: the image lists the literal and the
        // result, and the only `sqrt` left in a block is `sqrt(x)`.
        let (image, blocks) = listing.split_at(listing.find("b0:").unwrap());
        assert!(image.contains("= const.f 16.0"), "{listing}");
        assert!(image.contains("= const.f 4.0"), "{listing}");
        assert!(!blocks.contains("const.f"), "{listing}");
        assert_eq!(blocks.matches(" sqrt ").count(), 1, "{listing}");
        // `x > 0.0 && x < 9.0` is an `int` truth value.
        assert!(listing.contains("itruth"));
        // Superblocks took in every jump target: the `if`'s join went into
        // both arms, the loop's header into the blocks that enter it.
        assert!(!listing.contains("jump"), "{listing}");
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

    /// Compiles without the type checker, for operand tags it rejects
    /// (`~` on a `double`) but the interpreter still defines.
    fn compile_unchecked(source: &str, entry: &str) -> IrProgram {
        let module = crate::parse(source).expect("parses");
        IrProgram::new(crate::instrument(module, entry).expect("instruments")).expect("program")
    }

    /// Tape and interpreter agree on every input at every fuel from 1 to
    /// `max_fuel`: outcome, coverage and trace in observe mode, and the
    /// representing value bit for bit.
    fn assert_agrees_at_every_fuel(program: &IrProgram, inputs: &[Vec<f64>], max_fuel: usize) {
        for fuel in 1..=max_fuel {
            let starved = program.clone().with_fuel(fuel);
            let tape = lower(&starved).expect("lowers");
            for input in inputs {
                assert_observably_equal(&starved, input);
                let saturated = BranchSet::with_sites(starved.num_sites());
                let mut interp_ctx = ExecCtx::representing(saturated.clone());
                starved.execute(input, &mut interp_ctx);
                let mut tape_ctx = ExecCtx::representing(saturated);
                tape.execute(input, &mut tape_ctx);
                assert_eq!(
                    tape_ctx.representing_value().to_bits(),
                    interp_ctx.representing_value().to_bits(),
                    "representing value diverged at fuel {fuel} on {input:?}"
                );
            }
        }
    }

    /// Inputs that cross zero, truncate, saturate the `int` range and
    /// carry NaN and signed zeros.
    fn edge_inputs(arity: usize) -> Vec<Vec<f64>> {
        [-7.5, -1.0, -0.0, 0.0, 0.3, 2.9, 4.0, 1e10, -1e300, f64::NAN]
            .iter()
            .map(|&v| vec![v; arity])
            .collect()
    }

    // The entry function's value is not observable: a computed value shows
    // only through an instrumented site, which reports both operands. So
    // the programs below compare everything they compute in a site.

    #[test]
    fn int_helper_parameters_convert_at_the_call_site() {
        let p = compile(
            r#"
            double scale(int k, double a) {
                int m = k * 3 - 7 / k;
                return a * m + k % 4 - (k / 2) * 0.5;
            }
            double f(double x) {
                double y = scale(x, 2);
                int n = x;
                if (n < 3) { y = y + scale(n, x); }
                if (y > n) { y = y / n; }
                double z = scale(n * 2, y - 1.5);
                if (z <= y) { z = 0.0; }
                return z;
            }
            "#,
            "f",
        )
        .unwrap();
        let listing = lower(&p).unwrap().to_string();
        assert!(listing.contains("fn0 scale(int,double)"), "{listing}");
        assert!(listing.contains("ftoi"), "{listing}");
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 120);
    }

    #[test]
    fn int_returning_and_void_helpers_match_the_interpreter() {
        // Each `int` helper ends in a `return` on every path, so its
        // fall-off block is dead and it lowers.
        let p = compile(
            r#"
            int sgn(double a) { if (a > 0.0) { return 1; } else { return -1; } }
            int clamp3(int k) { if (k > 3) { return 3; } return k; }
            void touch(double a) {
                if (a < -1.0) { return; }
                double z = a * 2.0;
                if (z > 3.0) { z = 3.0; }
            }
            double f(double x) {
                touch(x);
                int s = sgn(x) + clamp3(x);
                double q = sgn(x) / 2;
                if (s == 2) { q = q + 1.0; }
                if (clamp3(s * 5) <= sgn(-x)) { q = x / s; }
                double r = (double) sgn(x) / 4 + q;
                if (r < q) { r = q; }
                return r;
            }
            "#,
            "f",
        )
        .unwrap();
        let listing = lower(&p).unwrap().to_string();
        assert!(listing.contains("isite"), "{listing}");
        assert!(listing.contains("idiv"), "{listing}");
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 120);
    }

    #[test]
    fn mixed_int_and_double_arithmetic_and_comparisons_match() {
        let p = compile(
            r#"
            double f(double x, double y) {
                int i = high_word(x);
                int j = low_word(y) % 7;
                double a = i + x;
                double b = j * y - i;
                double c = (i - j) / 3 + x / 3;
                int k = (i < j) + (x < j) + (i == y);
                if (i < x) { a = a - c; }
                if (j != k) { b = b * k; }
                if (a >= b) { a = a + k; }
                int m = (i & 255) + (j | 2) + (i ^ j) + (j << 2) + (i >> 3);
                if (m > c) { m = 0; }
                if (k == 1) { k = 0; }
                return a + b;
            }
            "#,
            "f",
        )
        .unwrap();
        let listing = lower(&p).unwrap().to_string();
        for mnemonic in ["icmp.lt", "fcmp.lt", "fcmp.eq", "itof", "isite", "fsite"] {
            assert!(listing.contains(mnemonic), "{mnemonic}: {listing}");
        }
        let mut inputs = edge_inputs(2);
        inputs.extend([
            vec![3.0, -3.5],
            vec![-2.0, 1e-310],
            vec![f64::INFINITY, 6.0],
        ]);
        assert_agrees_at_every_fuel(&p, &inputs, 100);
    }

    #[test]
    fn casts_of_call_results_match() {
        let p = compile(
            r#"
            int h(double a) { return (int) (a * 3.0); }
            double g(double a) { return a / 3.0; }
            double f(double x) {
                double p = (double) h(x);
                int q = (int) g(x);
                int r = (int) h(x);
                double s = (double) g(x);
                if ((int) g(x) < h(x)) { p = p + q; }
                if (p > s) { p = s; }
                if (r != q) { r = q; }
                return r - s;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 100);
    }

    #[test]
    fn unary_operators_match_on_both_tags() {
        // `~x` on a `double` fails type checking but is defined by the
        // interpreter (it truncates first), so the tape must agree.
        let p = compile_unchecked(
            r#"
            double f(double x) {
                int i = x;
                double a = -x;
                int b = -i;
                int c = !x;
                int d = !i;
                int e = ~i;
                int g = ~x;
                if (a < b) { a = b; }
                if (c == d) { c = 0; }
                if (e >= g) { e = 0; }
                double h = -(-x) + !(!i) + ~(~3) + -(2.5);
                if (h > a) { h = a; }
                return h;
            }
            "#,
            "f",
        );
        let listing = lower(&p).unwrap().to_string();
        for mnemonic in ["fneg", "ineg", "fnot", "inot", "ibitnot"] {
            assert!(listing.contains(mnemonic), "{mnemonic}: {listing}");
        }
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 80);
    }

    #[test]
    fn logical_operators_on_doubles_match() {
        let p = compile(
            r#"
            double f(double x, double y) {
                double z = x && y;
                int w = x || y - 1.0;
                if (x && y) { z = z + 1.0; }
                if (x - 1.0 || y) { w = w + 2; }
                while (z && x > 0.0) { z = z - 1.0; x = x - 1.0; }
                if (z < w) { z = w; }
                return z + w;
            }
            "#,
            "f",
        )
        .unwrap();
        let listing = lower(&p).unwrap().to_string();
        assert!(listing.contains("ftruth"), "{listing}");
        assert!(listing.contains("fbool"), "{listing}");
        let mut inputs = edge_inputs(2);
        inputs.extend([
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![f64::NAN, 0.0],
            vec![2.0, -0.0],
        ]);
        assert_agrees_at_every_fuel(&p, &inputs, 80);
    }

    #[test]
    fn an_int_helper_that_can_fall_off_its_end_lowers() {
        // Falling off `pick` returns the `int` 0, so at x = -1 the product
        // is the `int` 0 and 1.0 / 0 is +inf: the site goes false. A
        // `double` 0.0 would give -0.0 and -inf.
        let p = compile(
            r#"
            int pick(double a) { if (a > 0.0) { return 1; } }
            double f(double x) {
                if (1.0 / (pick(x) * -1) < 0.0) { return 1.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        assert_eq!(p.backend(BackendMode::Auto).unwrap().name(), "tape");
        let mut ctx = ExecCtx::observe();
        p.execute(&[-1.0], &mut ctx);
        let site = ctx.trace().last().expect("the site reports").branch();
        assert_eq!(site, BranchId::false_of(1));
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 30);
    }

    #[test]
    fn a_double_function_returning_an_int_lowers() {
        // `half(1.0)` returns the `int` 1 coerced to the `double` 1.0, so
        // `half(1.0) / 2` is 0.5, not the `int` 0.
        let source = r#"
            double half(double a) { if (a > 0.0) { return 1; } return a / 2.0; }
            double f(double x) {
                if (half(x) / 2 > 0.25) { return 1.0; }
                return 0.0;
            }
            "#;
        let p = compile(source, "f").unwrap();
        let listing = lower(&p).unwrap().to_string();
        assert!(listing.contains("const.f 1.0"), "{listing}");
        let mut ctx = ExecCtx::observe();
        p.execute(&[1.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::true_of(1)));
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 30);
        // An `int` expression returned from a `double` entry converts too.
        let entry = compile(
            "double f(double x) { if (x > 0.0) { return high_word(x); } return x; }",
            "f",
        )
        .unwrap();
        assert!(lower(&entry).unwrap().to_string().contains("itof"));
        assert_agrees_at_every_fuel(&entry, &edge_inputs(1), 10);
    }

    #[test]
    fn a_read_void_helper_is_the_double_zero() {
        // Type checking rejects reading a `void` call; the interpreter
        // reads it as the `double` 0.0, so 0.0 * -1 is -0.0 and the site
        // sees -inf.
        let p = compile_unchecked(
            r#"
            void touch(double a) {
                if (a < -1.0) { return; }
                double z = a * 2.0;
                if (z > 3.0) { z = 3.0; }
            }
            double f(double x) {
                if (1.0 / (touch(x) * -1) < 0.0) { return 1.0; }
                return 0.0;
            }
            "#,
            "f",
        );
        let mut ctx = ExecCtx::observe();
        p.execute(&[-2.0], &mut ctx);
        let site = ctx.trace().last().expect("the site reports").branch();
        assert_eq!(site, BranchId::true_of(2));
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 40);
    }

    #[test]
    fn a_function_needing_more_than_65536_registers_does_not_compile() {
        // Each declaration takes two registers: the folded constant and
        // the variable. With the parameter that is 65,537.
        let body: String = (0..32_768)
            .map(|i| format!("double a{i} = 1.0;\n"))
            .collect();
        let source = format!("double f(double x) {{\n{body}return x;\n}}");
        let error = compile(&source, "f").unwrap_err();
        assert_eq!(error.kind, ErrorKind::Lower);
        assert!(error.message.contains("65,536 registers"), "{error}");
        assert!(error.message.contains("`f`"), "{error}");
        // One declaration fewer fits.
        let fits = source.replacen("double a0 = 1.0;\n", "", 1);
        assert!(compile(&fits, "f").is_ok());
    }

    #[test]
    fn a_same_tag_store_folds_into_its_producer() {
        let p = compile("double f(double x) { x = x + 1.0; return x; }", "f").unwrap();
        let listing = lower(&p).unwrap().to_string();
        let blocks = &listing[listing.find("b0:").unwrap()..];
        let ops: Vec<&str> = blocks
            .lines()
            .map(str::trim)
            .filter(|line| line.contains(" = "))
            .collect();
        // `x` is r0 and the folded `1.0` is r1.
        assert_eq!(ops, ["r0 = fadd r0, r1"], "{listing}");
        // A variable is never retargeted: `z = y` right after the op that
        // writes `y` stays a copy.
        let p = compile(
            r#"
            double f(double x) {
                double y = x * 2.0;
                double z = y;
                y = y + 1.0;
                x = y;
                if (z < y) { z = 0.0; }
                if (x > z) { x = 0.0; }
                return z;
            }
            "#,
            "f",
        )
        .unwrap();
        let listing = lower(&p).unwrap().to_string();
        // `y` is r1, `z` r4.
        assert!(
            listing.contains("  r4 = r1\n  r1 = fadd r1, r5\n  r0 = r1\n"),
            "{listing}"
        );
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 40);
    }

    /// The blocks of `program`'s listing, without the register image.
    fn block_listing(program: &IrProgram) -> String {
        let listing = lower(program).expect("lowers").to_string();
        listing[listing.find("b0:").expect("a block")..].to_string()
    }

    #[test]
    fn an_unread_value_leaves_no_op() {
        // `v` and `w` are never read, `y`'s first two values are
        // overwritten before any read, and `n` feeds only itself.
        let p = compile(
            r#"
            double f(double x) {
                double v = sin(x);
                double w = floor(x) * 2.0;
                double y = x;
                y = cos(x);
                y = scalbn(x, 3);
                int n = 0;
                while (x < 10.0) { n = n + 1; x = x + 4.0; }
                if (y > x) { return y; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        let blocks = block_listing(&p);
        for dead in [" sin ", " floor ", " fmul ", " cos ", " iadd ", "= r0\n"] {
            assert!(!blocks.contains(dead), "{dead}: {blocks}");
        }
        assert!(blocks.contains(" scalbn "), "{blocks}");
        assert!(blocks.contains(" fadd "), "{blocks}");
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 60);
    }

    #[test]
    fn values_read_by_a_site_a_call_a_return_or_a_live_op_are_kept() {
        let p = compile(
            r#"
            double g(double a) { if (a > 0.5) { return a; } return 0.0; }
            double h(double a) { double e = exp(a); return e; }
            double f(double x) {
                double s = sin(x);
                double c = cos(x);
                double l = log(x);
                double t = l * 2.0;
                if (s < t) { x = g(c); }
                if (h(x) > 2.0) { return 1.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        let blocks = block_listing(&p);
        for live in [" sin ", " cos ", " exp ", " log ", " fmul "] {
            assert!(blocks.contains(live), "{live}: {blocks}");
        }
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 60);
    }

    #[test]
    fn a_value_carried_around_a_loop_several_times_stays_live() {
        // `w` reaches `y`, which is read after the loop, two iterations
        // after it is written: liveness must sweep the loop more than once.
        let p = compile(
            r#"
            double f(double x) {
                double y = 0.0;
                double z = 0.0;
                double w = 0.0;
                int i = 0;
                while (i < 4) { y = z; z = w; w = x * 2.0; i = i + 1; }
                if (y > 1.0) { return y; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        assert!(block_listing(&p).contains(" fmul "));
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 100);
    }

    #[test]
    fn merged_and_copied_blocks_trip_their_fuel_at_the_same_observable() {
        // The `if`'s join is small, so each arm takes in a copy; the loop
        // header is copied into the latch; and what follows the loop has
        // one way in, so the header's exit takes it in.
        let p = compile(
            r#"
            double f(double x) {
                double y = x;
                if (x < 0.0) { y = -x; } else { y = x * 0.5; }
                while (y < 100.0) { y = y * 3.0 + 1.0; }
                if (y > x) { return y; }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        let blocks = block_listing(&p);
        assert!(!blocks.contains("jump"), "{blocks}");
        assert_eq!(blocks.matches("fsite s1 ").count(), 3, "{blocks}");
        let mut inputs = edge_inputs(1);
        inputs.extend([vec![99.0], vec![-33.0], vec![100.0]]);
        assert_agrees_at_every_fuel(&p, &inputs, 120);
        // A join too large to copy stays a block both arms jump to.
        let p = compile(
            r#"
            double f(double x) {
                if (x < 0.0) { x = -x; }
                double a = x * 2.0 + 1.0;
                double b = a * a - x;
                double c = b / 3.0 + a * x;
                double d = sqrt(c) - b * 0.5;
                if (d > 3.0) { return d; }
                return a;
            }
            "#,
            "f",
        )
        .unwrap();
        let blocks = block_listing(&p);
        assert_eq!(blocks.matches("jump").count(), 2, "{blocks}");
        assert_agrees_at_every_fuel(&p, &edge_inputs(1), 60);
    }

    #[test]
    fn generated_programs_never_fall_back() {
        // `compile` lowers, so a program that did not lower would fail it.
        for seed in 0..500 {
            let source = crate::generate::generate_source(seed);
            if let Err(error) = compile(&source, crate::generate::ENTRY_NAME) {
                panic!("seed {seed}: {error}\n{source}");
            }
        }
    }

    #[test]
    fn a_program_lowers_once_until_its_fuel_changes() {
        let p = compile(
            "double f(double x) { if (x < 1.0) { return x; } return 1.0; }",
            "f",
        )
        .unwrap();
        let tape = Arc::clone(p.tape());
        assert!(Arc::ptr_eq(&tape, p.clone().tape()));
        assert_eq!(p.fingerprint(), tape.fingerprint64());
        // A shared tape is copied, not lowered again, to change its fuel.
        let starved = p.clone().with_fuel(7);
        assert_eq!(starved.tape().fuel(), 7);
        assert_eq!(p.fuel(), DEFAULT_FUEL);
        assert_ne!(starved.fingerprint(), p.fingerprint());
        let relisted = starved.tape().to_string();
        assert_eq!(relisted, tape.to_string().replace("fuel=100000", "fuel=7"));
        // A tape nobody else holds changes in place.
        drop(tape);
        let at = Arc::as_ptr(p.tape());
        let refueled = p.with_fuel(9);
        assert_eq!(Arc::as_ptr(refueled.tape()), at);
        assert_eq!(refueled.fuel(), 9);
    }
}
