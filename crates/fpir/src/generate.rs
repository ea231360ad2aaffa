//! Seeded random generation of well-typed FPIR modules.
//!
//! The differential test suites need *many* programs, not a handful of
//! hand-written ones: interpreter-vs-tape bit-identity, scalar-vs-batch
//! bit-identity and outcome classification are invariants over the whole language, and the
//! hand corpus only exercises the corners someone thought of. This module
//! generates modules that are well-typed **by construction** — fresh names
//! (no redeclarations, no builtin shadowing), int-only operators applied to
//! ints, every call matching a real signature — so every output passes
//! [`crate::typeck::check`] and instruments cleanly, and a failure
//! downstream is a real interpreter or engine bug, never generator junk.
//!
//! The generated programs deliberately include hazards whose *classified*
//! failure is defined behavior the suites must see, not something to
//! generate around: loops that may not terminate (a counter loop whose
//! step is zero, classified [`coverme_runtime::RunOutcome::Timeout`] when
//! the fuel runs out) and, with ~8% probability, a helper that recurses
//! unboundedly on part of its domain — inputs landing there blow the
//! interpreter's call-depth limit and classify
//! [`coverme_runtime::RunOutcome::Trap`].
//!
//! Helpers form call graphs: each helper may call any earlier helper (and
//! the recursive hazard calls itself), so generated modules exercise
//! multi-frame call stacks, not just entry → leaf dispatch.
//!
//! Generation is deterministic per seed (an inline SplitMix64 stream), so a
//! failing seed reproduces exactly.

use coverme_runtime::Cmp;

use crate::ast::{BinOp, Block, Expr, FunctionDef, Module, Param, Stmt, Ty, UnOp};

/// Name of the generated entry function (always defined last).
pub const ENTRY_NAME: &str = "entry";

/// Generates a well-typed module from `seed`: zero to four `double` helper
/// functions (forming call graphs into earlier helpers; ~8% of slots hold
/// the recursive trap hazard) followed by an entry function [`ENTRY_NAME`]
/// taking one to three parameters (the first always `double`), whose body
/// starts with an instrumented conditional on the first parameter — so the
/// instrumented program always has at least one site.
pub fn generate_module(seed: u64) -> Module {
    Generator::new(seed).module()
}

/// Renders [`generate_module`]'s output back to source text (see
/// [`crate::pretty::to_source`]).
pub fn generate_source(seed: u64) -> String {
    crate::pretty::to_source(&generate_module(seed))
}

/// SplitMix64 — the same deterministic stream the optimizer crate uses,
/// inlined so the front end stays dependency-free.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`; `lo` when the range is empty.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

struct Generator {
    rng: Rng,
    /// Variables in scope of the function currently being generated.
    vars: Vec<(String, Ty)>,
    /// Helper functions generated so far: `(name, param count)`, all
    /// `double(double, ...)`, callable from later functions.
    helpers: Vec<(String, usize)>,
    /// Fresh-name counter — globally unique names make redeclaration and
    /// accidental shadowing impossible by construction.
    next_var: usize,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed),
            vars: Vec::new(),
            helpers: Vec::new(),
            next_var: 0,
        }
    }

    fn module(mut self) -> Module {
        let mut functions = Vec::new();
        for index in 0..self.rng.usize_in(0, 5) {
            // ~8% of helper slots hold the recursive trap hazard instead
            // of a plain straight-line helper.
            if self.rng.chance(0.08) {
                functions.push(self.recursive_helper(index));
            } else {
                functions.push(self.helper(index));
            }
        }
        functions.push(self.entry());
        Module { functions }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}{}", self.next_var);
        self.next_var += 1;
        name
    }

    /// The recursive trap hazard: a helper that returns immediately below a
    /// threshold but recurses unboundedly at or above it —
    ///
    /// ```text
    /// double hN(double q) {
    ///     if (q < T) { return <base expr>; }
    ///     return hN(q + 1.0) + <literal>;
    /// }
    /// ```
    ///
    /// `q + 1.0` never drops below `T`, so any execution entering the
    /// recursive arm blows the interpreter's call-depth limit and is
    /// classified [`coverme_runtime::RunOutcome::Trap`]; inputs below the
    /// threshold return normally, so the hazard splits the input domain
    /// instead of poisoning every execution.
    fn recursive_helper(&mut self, index: usize) -> FunctionDef {
        self.vars.clear();
        let name = format!("h{index}");
        let param = Param {
            ty: Ty::Double,
            name: self.fresh("q"),
        };
        self.vars.push((param.name.clone(), param.ty));
        let threshold = self.double_literal();
        let base = self.expr(Ty::Double, 2);
        let recurse = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Call {
                name: name.clone(),
                args: vec![Expr::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::Var(param.name.clone())),
                    rhs: Box::new(Expr::Float(1.0)),
                }],
            }),
            rhs: Box::new(self.double_literal()),
        };
        let body = Block {
            stmts: vec![
                Stmt::If {
                    cond: Expr::Binary {
                        op: BinOp::Cmp(Cmp::Lt),
                        lhs: Box::new(Expr::Var(param.name.clone())),
                        rhs: Box::new(threshold),
                    },
                    then_block: Block {
                        stmts: vec![Stmt::Return {
                            value: Some(base),
                            line: 0,
                        }],
                    },
                    else_block: None,
                    line: 0,
                    site: None,
                },
                Stmt::Return {
                    value: Some(recurse),
                    line: 0,
                },
            ],
        };
        self.helpers.push((name.clone(), 1));
        FunctionDef {
            ret: Ty::Double,
            name,
            params: vec![param],
            body,
            line: 0,
        }
    }

    /// A small side-effect-free helper: declarations plus a return and no
    /// loops, but free to call any *earlier* helper (directly in its
    /// expressions, and with extra bias through the chaining wrap below) —
    /// so later helpers sit on top of real multi-frame call graphs.
    fn helper(&mut self, index: usize) -> FunctionDef {
        self.vars.clear();
        let name = format!("h{index}");
        let arity = self.rng.usize_in(1, 3);
        let params: Vec<Param> = (0..arity)
            .map(|_| {
                let param = Param {
                    ty: Ty::Double,
                    name: self.fresh("q"),
                };
                self.vars.push((param.name.clone(), param.ty));
                param
            })
            .collect();
        let mut stmts = Vec::new();
        for _ in 0..self.rng.usize_in(0, 3) {
            stmts.push(self.decl_stmt());
        }
        let mut value = self.expr(Ty::Double, 2);
        // Half the time, chain the result through an earlier helper: this
        // is what grows deep call graphs (h3 → h2 → h1 → h0) instead of a
        // flat entry-calls-leaves shape.
        if self.rng.chance(0.5) {
            if let Some((callee, callee_arity)) = self.pick_helper() {
                let mut args = vec![value];
                for _ in 1..callee_arity {
                    args.push(self.expr(Ty::Double, 1));
                }
                value = Expr::Call { name: callee, args };
            }
        }
        stmts.push(Stmt::Return {
            value: Some(value),
            line: 0,
        });
        let body = Block { stmts };
        self.helpers.push((name.clone(), arity));
        FunctionDef {
            ret: Ty::Double,
            name,
            params,
            body,
            line: 0,
        }
    }

    fn entry(&mut self) -> FunctionDef {
        self.vars.clear();
        let arity = self.rng.usize_in(1, 4);
        let params: Vec<Param> = (0..arity)
            .map(|_| {
                // Entry parameters are all doubles: the instrumentation
                // pass (like the paper's front end) only admits
                // double-typed inputs to the function under test.
                let param = Param {
                    ty: Ty::Double,
                    name: self.fresh("p"),
                };
                self.vars.push((param.name.clone(), param.ty));
                param
            })
            .collect();

        let mut stmts = Vec::new();
        // Guaranteed instrumented site: a conditional on the first
        // parameter, so no generated program degenerates to zero sites.
        let cond = Expr::Binary {
            op: BinOp::Cmp(self.cmp()),
            lhs: Box::new(Expr::Var(params[0].name.clone())),
            rhs: Box::new(self.double_literal()),
        };
        let then_budget = self.rng.usize_in(1, 3);
        let then_block = self.block(then_budget, 1);
        stmts.push(Stmt::If {
            cond,
            then_block,
            else_block: None,
            line: 0,
            site: None,
        });
        let tail_budget = self.rng.usize_in(2, 7);
        stmts.extend(self.stmts(tail_budget, 0));
        let value = self.expr(Ty::Double, 2);
        stmts.push(Stmt::Return {
            value: Some(value),
            line: 0,
        });

        FunctionDef {
            ret: Ty::Double,
            name: ENTRY_NAME.to_string(),
            params,
            body: Block { stmts },
            line: 0,
        }
    }

    /// A block with its own scope: names declared inside go out of scope
    /// with it, exercising the interpreter's scope stack.
    fn block(&mut self, budget: usize, depth: usize) -> Block {
        let mark = self.vars.len();
        let stmts = self.stmts(budget, depth);
        self.vars.truncate(mark);
        Block { stmts }
    }

    fn stmts(&mut self, budget: usize, depth: usize) -> Vec<Stmt> {
        let mut stmts = Vec::new();
        for _ in 0..budget {
            let roll = self.rng.next_f64();
            if roll < 0.35 {
                stmts.push(self.decl_stmt());
            } else if roll < 0.55 {
                match self.assign_stmt() {
                    Some(stmt) => stmts.push(stmt),
                    None => stmts.push(self.decl_stmt()),
                }
            } else if roll < 0.8 || depth >= 2 {
                let cond = self.cond_expr();
                let then_budget = self.rng.usize_in(1, 3);
                let then_block = self.block(then_budget, depth + 1);
                let else_block = if self.rng.chance(0.3) {
                    let else_budget = self.rng.usize_in(1, 3);
                    Some(self.block(else_budget, depth + 1))
                } else {
                    None
                };
                stmts.push(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    line: 0,
                    site: None,
                });
            } else {
                stmts.extend(self.counter_loop(depth));
            }
        }
        stmts
    }

    fn decl_stmt(&mut self) -> Stmt {
        let ty = if self.rng.chance(0.6) {
            Ty::Double
        } else {
            Ty::Int
        };
        let name = self.fresh("v");
        let init = self.expr(ty, 2);
        self.vars.push((name.clone(), ty));
        Stmt::Decl {
            ty,
            name,
            init: Some(init),
            line: 0,
        }
    }

    fn assign_stmt(&mut self) -> Option<Stmt> {
        if self.vars.is_empty() {
            return None;
        }
        let index = self.rng.usize_in(0, self.vars.len());
        let (name, ty) = self.vars[index].clone();
        let value = self.expr(ty, 2);
        Some(Stmt::Assign {
            name,
            value,
            line: 0,
        })
    }

    /// A counter loop `int c = 0; while (c < bound) { ...; c = c + step; }`.
    /// With ~10% probability the step is zero: the loop never terminates
    /// and every execution reaching it burns its fuel — the Timeout
    /// classification the suites must exercise.
    fn counter_loop(&mut self, depth: usize) -> Vec<Stmt> {
        let counter = self.fresh("c");
        let bound = self.rng.usize_in(2, 9) as i64;
        let step = if self.rng.chance(0.1) { 0 } else { 1 };
        let decl = Stmt::Decl {
            ty: Ty::Int,
            name: counter.clone(),
            init: Some(Expr::Int(0)),
            line: 0,
        };
        // The counter is visible inside the body (declared before the
        // loop), but the body must not reassign it: generate the body
        // without the counter in scope, then append the step.
        let body_budget = self.rng.usize_in(1, 3);
        let mut body = self.block(body_budget, depth + 1);
        body.stmts.push(Stmt::Assign {
            name: counter.clone(),
            value: Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::Var(counter.clone())),
                rhs: Box::new(Expr::Int(step)),
            },
            line: 0,
        });
        let cond = Expr::Binary {
            op: BinOp::Cmp(Cmp::Lt),
            lhs: Box::new(Expr::Var(counter)),
            rhs: Box::new(Expr::Int(bound)),
        };
        vec![
            decl,
            Stmt::While {
                cond,
                body,
                line: 0,
                site: None,
            },
        ]
    }

    fn cmp(&mut self) -> Cmp {
        match self.rng.usize_in(0, 6) {
            0 => Cmp::Eq,
            1 => Cmp::Ne,
            2 => Cmp::Lt,
            3 => Cmp::Le,
            4 => Cmp::Gt,
            _ => Cmp::Ge,
        }
    }

    /// A comparison condition for an `if`/`while` — both operands of the
    /// same numeric type, so the instrumentation pass always accepts it.
    fn cond_expr(&mut self) -> Expr {
        let ty = if self.rng.chance(0.7) {
            Ty::Double
        } else {
            Ty::Int
        };
        Expr::Binary {
            op: BinOp::Cmp(self.cmp()),
            lhs: Box::new(self.expr(ty, 1)),
            rhs: Box::new(self.expr(ty, 1)),
        }
    }

    fn var_of(&mut self, ty: Ty) -> Option<Expr> {
        let candidates: Vec<&String> = self
            .vars
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(name, _)| name)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let index = self.rng.usize_in(0, candidates.len());
        Some(Expr::Var(candidates[index].clone()))
    }

    fn double_literal(&mut self) -> Expr {
        const POOL: &[f64] = &[0.0, 0.5, 1.0, 2.0, 4.0, 10.0, 0.25, 100.0];
        if self.rng.chance(0.5) {
            Expr::Float(POOL[self.rng.usize_in(0, POOL.len())])
        } else {
            // A few decimals, so printing and reparsing is exact.
            let raw = (self.rng.next_f64() * 32.0 * 1000.0).round() / 1000.0;
            Expr::Float(raw)
        }
    }

    fn int_literal(&mut self) -> Expr {
        const MASKS: &[i64] = &[0x1, 0xff, 0x7fffffff, 0x100000, 0x3ff];
        if self.rng.chance(0.25) {
            Expr::Int(MASKS[self.rng.usize_in(0, MASKS.len())])
        } else {
            Expr::Int(self.rng.usize_in(0, 65) as i64)
        }
    }

    /// A well-typed expression of type `ty` with nesting bounded by
    /// `depth`. Negative constants appear as unary negation of a positive
    /// literal — the only shape the parser itself produces.
    fn expr(&mut self, ty: Ty, depth: usize) -> Expr {
        if depth == 0 || self.rng.chance(0.3) {
            let leaf = match (self.var_of(ty), self.rng.chance(0.65)) {
                (Some(var), true) => var,
                _ if ty == Ty::Double => self.double_literal(),
                _ => self.int_literal(),
            };
            return if self.rng.chance(0.15) {
                Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(leaf),
                }
            } else {
                leaf
            };
        }
        match ty {
            Ty::Double => match self.rng.usize_in(0, 10) {
                0..=4 => {
                    let op = match self.rng.usize_in(0, 4) {
                        0 => BinOp::Add,
                        1 => BinOp::Sub,
                        2 => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    Expr::Binary {
                        op,
                        lhs: Box::new(self.expr(Ty::Double, depth - 1)),
                        rhs: Box::new(self.expr(Ty::Double, depth - 1)),
                    }
                }
                5 | 6 => {
                    const UNARY: &[&str] = &["sqrt", "fabs", "sin", "cos", "floor"];
                    Expr::Call {
                        name: UNARY[self.rng.usize_in(0, UNARY.len())].to_string(),
                        args: vec![self.expr(Ty::Double, depth - 1)],
                    }
                }
                7 => Expr::Cast {
                    ty: Ty::Double,
                    expr: Box::new(self.expr(Ty::Int, depth - 1)),
                },
                8 => Expr::Call {
                    name: "scalbn".to_string(),
                    args: vec![
                        self.expr(Ty::Double, depth - 1),
                        self.expr(Ty::Int, depth - 1),
                    ],
                },
                _ => {
                    if let Some((name, arity)) = self.pick_helper() {
                        let args = (0..arity)
                            .map(|_| self.expr(Ty::Double, depth - 1))
                            .collect();
                        Expr::Call { name, args }
                    } else {
                        self.expr(Ty::Double, 0)
                    }
                }
            },
            Ty::Int => match self.rng.usize_in(0, 10) {
                0..=4 => {
                    let op = match self.rng.usize_in(0, 6) {
                        0 => BinOp::Add,
                        1 => BinOp::Sub,
                        2 => BinOp::Mul,
                        3 => BinOp::BitAnd,
                        4 => BinOp::BitOr,
                        _ => BinOp::BitXor,
                    };
                    Expr::Binary {
                        op,
                        lhs: Box::new(self.expr(Ty::Int, depth - 1)),
                        rhs: Box::new(self.expr(Ty::Int, depth - 1)),
                    }
                }
                5 => Expr::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(self.expr(Ty::Int, depth - 1)),
                },
                6 => Expr::Cast {
                    ty: Ty::Int,
                    expr: Box::new(self.expr(Ty::Double, depth - 1)),
                },
                7 | 8 => {
                    let word = if self.rng.chance(0.5) {
                        "high_word"
                    } else {
                        "low_word"
                    };
                    Expr::Call {
                        name: word.to_string(),
                        args: vec![self.expr(Ty::Double, depth - 1)],
                    }
                }
                // An uninstrumented comparison inside a larger expression —
                // the interpreter path instrumented conditionals never take.
                _ => Expr::Binary {
                    op: BinOp::Cmp(self.cmp()),
                    lhs: Box::new(self.expr(Ty::Double, depth - 1)),
                    rhs: Box::new(self.expr(Ty::Double, depth - 1)),
                },
            },
            Ty::Void => unreachable!("no void expressions are generated"),
        }
    }

    fn pick_helper(&mut self) -> Option<(String, usize)> {
        if self.helpers.is_empty() {
            return None;
        }
        let index = self.rng.usize_in(0, self.helpers.len());
        Some(self.helpers[index].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::IrProgram;
    use crate::{check, instrument};
    use coverme_runtime::{ExecCtx, Program, RunOutcome};

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(generate_module(7), generate_module(7));
        assert_eq!(generate_source(123), generate_source(123));
        // Different seeds almost surely differ.
        assert_ne!(generate_source(1), generate_source(2));
    }

    #[test]
    fn generated_modules_typecheck_instrument_and_execute() {
        let mut timeouts = 0usize;
        let mut traps = 0usize;
        for seed in 0..150u64 {
            let module = generate_module(seed);
            let module = check(module).unwrap_or_else(|e| panic!("seed {seed}: typeck: {e}"));
            let inst = instrument(module, ENTRY_NAME)
                .unwrap_or_else(|e| panic!("seed {seed}: instrument: {e}"));
            let program = IrProgram::new(inst)
                .unwrap_or_else(|e| panic!("seed {seed}: program: {e}"))
                .with_fuel(20_000);
            assert!(program.num_sites() >= 1, "seed {seed}: no sites");
            for input_seed in 0..3u64 {
                let mut rng = Rng::new(seed ^ (input_seed.wrapping_mul(0x9E37_79B9)));
                let input: Vec<f64> = (0..program.arity())
                    .map(|_| (rng.next_f64() - 0.5) * 20.0)
                    .collect();
                let mut ctx = ExecCtx::observe();
                program.execute(&input, &mut ctx);
                match ctx.run_outcome() {
                    RunOutcome::Timeout => timeouts += 1,
                    RunOutcome::Trap => traps += 1,
                    RunOutcome::Done => {}
                }
            }
        }
        // Both hazard kinds must actually fire somewhere in 150 programs:
        // the zero-step loop (timeout) and the unbounded recursion (trap).
        assert!(timeouts > 0, "no generated program ever timed out");
        assert!(traps > 0, "no generated program ever trapped");
    }

    #[test]
    fn helper_call_graphs_reach_depth_two() {
        // Some generated module must contain a helper calling an earlier
        // helper (entry → hN → hM), or the chaining logic regressed.
        fn block_calls_helper(block: &Block, out: &mut Vec<String>) {
            for stmt in &block.stmts {
                match stmt {
                    Stmt::Decl { init: Some(e), .. }
                    | Stmt::Assign { value: e, .. }
                    | Stmt::Return { value: Some(e), .. }
                    | Stmt::ExprStmt { expr: e, .. } => expr_calls(e, out),
                    Stmt::If {
                        cond,
                        then_block,
                        else_block,
                        ..
                    } => {
                        expr_calls(cond, out);
                        block_calls_helper(then_block, out);
                        if let Some(e) = else_block {
                            block_calls_helper(e, out);
                        }
                    }
                    Stmt::While { cond, body, .. } => {
                        expr_calls(cond, out);
                        block_calls_helper(body, out);
                    }
                    _ => {}
                }
            }
        }
        fn expr_calls(expr: &Expr, out: &mut Vec<String>) {
            match expr {
                Expr::Call { name, args } => {
                    if name.starts_with('h') {
                        out.push(name.clone());
                    }
                    for a in args {
                        expr_calls(a, out);
                    }
                }
                Expr::Binary { lhs, rhs, .. } => {
                    expr_calls(lhs, out);
                    expr_calls(rhs, out);
                }
                Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr_calls(expr, out),
                _ => {}
            }
        }
        let mut chained = false;
        let mut recursive = false;
        for seed in 0..200u64 {
            let module = generate_module(seed);
            for f in &module.functions {
                if f.name == ENTRY_NAME {
                    continue;
                }
                let mut calls = Vec::new();
                block_calls_helper(&f.body, &mut calls);
                if calls.iter().any(|c| c == &f.name) {
                    recursive = true;
                } else if !calls.is_empty() {
                    chained = true;
                }
            }
        }
        assert!(chained, "no helper ever called another helper");
        assert!(recursive, "no recursive hazard helper was generated");
    }

    #[test]
    fn generated_sources_reparse() {
        for seed in 0..50u64 {
            let source = generate_source(seed);
            let module =
                crate::parse(&source).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
            check(module).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        }
    }
}
