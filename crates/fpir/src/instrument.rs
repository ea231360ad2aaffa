//! The instrumentation pass — the analogue of the paper's LLVM pass.
//!
//! The pass walks every function of the module, assigns a site id to each
//! conditional (`if`/`while`) whose condition is an arithmetic comparison
//! `a op b`, and records per-site metadata. Conceptually each such
//! conditional is preceded by the injected assignment
//! `r = pen(site, op, a, b)`; the interpreter performs that assignment by
//! calling [`coverme_runtime::ExecCtx::branch`], and the pretty printer can
//! render it textually (Fig. 3's `FOO_I` view).
//!
//! The pass computes no control-flow facts beyond site ids. The branch
//! descendant relation that saturation needs (Definition 3.2) is learned
//! from executed traces by the search's saturation tracker, for FPIR
//! programs exactly as for native ports.
//!
//! Conditionals whose condition is not a comparison (e.g. `if (flag)` or a
//! `&&` combination) are left uninstrumented, exactly as CoverMe "ignores
//! these conditional statements by not injecting pen before them"
//! (Sect. 5.3).

use coverme_runtime::Cmp;

use crate::ast::{BinOp, Block, Expr, FunctionDef, Module, Stmt, Ty};
use crate::error::{CompileError, ErrorKind};

/// Metadata about one instrumented conditional site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteInfo {
    /// The site id (dense, starting at 0).
    pub site: u32,
    /// The function the conditional lives in.
    pub function: String,
    /// Source line of the conditional.
    pub line: u32,
    /// The comparison operator of the condition.
    pub op: Cmp,
    /// Whether the conditional is a loop header (`while`) rather than `if`.
    pub is_loop: bool,
}

/// An instrumented module: the annotated AST plus per-site metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedModule {
    /// The annotated module (site ids filled in on `If`/`While` nodes).
    pub module: Module,
    /// Name of the entry function.
    pub entry: String,
    /// Per-site metadata, indexed by site id.
    pub sites: Vec<SiteInfo>,
}

impl InstrumentedModule {
    /// Number of instrumented conditional sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// The entry function definition.
    pub fn entry_function(&self) -> &FunctionDef {
        self.module
            .function(&self.entry)
            .expect("entry existence was checked during instrumentation")
    }
}

/// Runs the instrumentation pass.
///
/// # Errors
///
/// Fails when the entry function does not exist, or when its parameters are
/// not all `double` (the paper excludes such benchmark functions; see its
/// Table 4 "unsupported input type").
pub fn instrument(mut module: Module, entry: &str) -> Result<InstrumentedModule, CompileError> {
    let Some(entry_fn) = module.function(entry) else {
        return Err(CompileError::new(
            ErrorKind::Instrument,
            format!("entry function `{entry}` not found"),
        ));
    };
    if entry_fn.params.is_empty() {
        return Err(CompileError::at(
            ErrorKind::Instrument,
            entry_fn.line,
            format!("entry function `{entry}` takes no inputs"),
        ));
    }
    if entry_fn.params.iter().any(|p| p.ty != Ty::Double) {
        return Err(CompileError::at(
            ErrorKind::Instrument,
            entry_fn.line,
            format!("entry function `{entry}` has non-double parameters (unsupported input type)"),
        ));
    }

    // Assign site ids, function by function in source order.
    let mut sites = Vec::new();
    for function in &mut module.functions {
        let name = function.name.clone();
        assign_sites(&mut function.body, &name, &mut sites);
    }

    Ok(InstrumentedModule {
        module,
        entry: entry.to_string(),
        sites,
    })
}

/// Extracts `(op, lhs, rhs)` when the expression is a top-level comparison.
pub(crate) fn as_comparison(expr: &Expr) -> Option<(Cmp, &Expr, &Expr)> {
    if let Expr::Binary {
        op: BinOp::Cmp(cmp),
        lhs,
        rhs,
    } = expr
    {
        Some((*cmp, lhs, rhs))
    } else {
        None
    }
}

fn assign_sites(block: &mut Block, function: &str, sites: &mut Vec<SiteInfo>) {
    for stmt in &mut block.stmts {
        match stmt {
            Stmt::If {
                cond,
                then_block,
                else_block,
                line,
                site,
            } => {
                if let Some((op, _, _)) = as_comparison(cond) {
                    let id = sites.len() as u32;
                    *site = Some(id);
                    sites.push(SiteInfo {
                        site: id,
                        function: function.to_string(),
                        line: *line,
                        op,
                        is_loop: false,
                    });
                }
                assign_sites(then_block, function, sites);
                if let Some(else_block) = else_block {
                    assign_sites(else_block, function, sites);
                }
            }
            Stmt::While {
                cond,
                body,
                line,
                site,
            } => {
                if let Some((op, _, _)) = as_comparison(cond) {
                    let id = sites.len() as u32;
                    *site = Some(id);
                    sites.push(SiteInfo {
                        site: id,
                        function: function.to_string(),
                        line: *line,
                        op,
                        is_loop: true,
                    });
                }
                assign_sites(body, function, sites);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;

    fn instrument_src(src: &str, entry: &str) -> InstrumentedModule {
        instrument(check(parse(src).unwrap()).unwrap(), entry).unwrap()
    }

    const PAPER_EXAMPLE: &str = r#"
        double square(double x) { return x * x; }
        double foo(double x) {
            if (x <= 1.0) { x = x + 2.5; }
            double y = square(x);
            if (y == 4.0) { return 1.0; }
            return 0.0;
        }
    "#;

    #[test]
    fn assigns_site_ids_in_source_order() {
        let inst = instrument_src(PAPER_EXAMPLE, "foo");
        assert_eq!(inst.num_sites(), 2);
        assert_eq!(inst.sites[0].op, Cmp::Le);
        assert_eq!(inst.sites[1].op, Cmp::Eq);
        assert_eq!(inst.sites[0].function, "foo");
        assert!(!inst.sites[0].is_loop);
    }

    #[test]
    fn loop_headers_and_callee_sites_are_numbered_in_source_order() {
        let inst = instrument_src(
            r#"
            double goo(double x) {
                if (sin(x) <= 0.99) { return 1.0; }
                return 0.0;
            }
            double foo(double x) {
                int i = 0;
                while (i < 10) {
                    if (x > 0.5) { x = x - goo(x); }
                    i = i + 1;
                }
                return x;
            }
            "#,
            "foo",
        );
        assert_eq!(inst.num_sites(), 3);
        // Site 0 is goo's conditional, then foo's loop header and inner if.
        let placement: Vec<(&str, bool)> = inst
            .sites
            .iter()
            .map(|s| (s.function.as_str(), s.is_loop))
            .collect();
        assert_eq!(placement, [("goo", false), ("foo", true), ("foo", false)]);
        assert_eq!(inst.sites[1].op, Cmp::Lt);
    }

    #[test]
    fn non_comparison_conditions_are_not_instrumented() {
        let inst = instrument_src(
            r#"
            double f(double x) {
                int flag = 1;
                if (flag && x > 0.0) { return 1.0; }
                if (x >= 2.0) { return 2.0; }
                return 0.0;
            }
            "#,
            "f",
        );
        // Only the plain comparison is instrumented.
        assert_eq!(inst.num_sites(), 1);
        assert_eq!(inst.sites[0].op, Cmp::Ge);
    }

    #[test]
    fn rejects_missing_entry() {
        let module = check(parse("double f(double x) { return x; }").unwrap()).unwrap();
        let err = instrument(module, "nope").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Instrument);
    }

    #[test]
    fn rejects_non_double_entry_parameters() {
        let module = check(parse("double f(int n) { return 1.0; }").unwrap()).unwrap();
        let err = instrument(module, "f").unwrap_err();
        assert!(err.message.contains("unsupported input type"));
    }

    #[test]
    fn rejects_nullary_entry() {
        let module = check(parse("double f() { return 1.0; }").unwrap()).unwrap();
        let err = instrument(module, "f").unwrap_err();
        assert!(err.message.contains("no inputs"));
    }
}
