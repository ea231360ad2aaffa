//! The benchmark suite registry: the 40 Fdlibm entry functions of the
//! paper's Tables 2, 3 and 5, each exposed as a [`Benchmark`] implementing
//! [`coverme_runtime::Program`].

use coverme_runtime::{ExecCtx, Program};

use crate::{bessel, erf, exp_log, hyper, power, rounding, trig};

/// One benchmark function of the suite.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// Fdlibm source file the port corresponds to.
    pub file: &'static str,
    /// Entry function name as the paper's tables print it.
    pub name: &'static str,
    /// Number of `f64` inputs.
    pub arity: usize,
    /// Number of instrumented conditional sites in the port.
    pub sites: usize,
    /// Number of branches the paper's Table 2 reports for the original C
    /// function (Gcov counting). Useful as table metadata; the port's own
    /// branch count is `2 * sites`.
    pub paper_branches: usize,
    /// Number of source lines the paper's Table 5 reports.
    pub paper_lines: usize,
    /// The instrumented port.
    pub func: fn(&[f64], &mut ExecCtx),
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("file", &self.file)
            .field("name", &self.name)
            .field("arity", &self.arity)
            .field("sites", &self.sites)
            .finish_non_exhaustive()
    }
}

impl Program for Benchmark {
    fn name(&self) -> &str {
        self.name
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn num_sites(&self) -> usize {
        self.sites
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        assert_eq!(
            input.len(),
            self.arity,
            "benchmark {} expects {} inputs, got {}",
            self.name,
            self.arity,
            input.len()
        );
        (self.func)(input, ctx);
    }

    fn source_lines(&self) -> usize {
        self.paper_lines
    }
}

macro_rules! benchmark {
    ($file:literal, $name:literal, $arity:expr, $sites:expr, $paper_branches:expr, $paper_lines:expr, $func:path) => {
        Benchmark {
            file: $file,
            name: $name,
            arity: $arity,
            sites: $sites,
            paper_branches: $paper_branches,
            paper_lines: $paper_lines,
            func: $func,
        }
    };
}

/// The 40 benchmark functions, in the order of the paper's Table 2.
pub const BENCHMARKS: &[Benchmark] = &[
    benchmark!(
        "e_acos.c",
        "ieee754_acos",
        1,
        trig::sites::ACOS,
        12,
        33,
        trig::acos
    ),
    benchmark!(
        "e_acosh.c",
        "ieee754_acosh",
        1,
        hyper::sites::ACOSH,
        10,
        15,
        hyper::acosh
    ),
    benchmark!(
        "e_asin.c",
        "ieee754_asin",
        1,
        trig::sites::ASIN,
        14,
        31,
        trig::asin
    ),
    benchmark!(
        "e_atan2.c",
        "ieee754_atan2",
        2,
        trig::sites::ATAN2,
        44,
        39,
        trig::atan2
    ),
    benchmark!(
        "e_atanh.c",
        "ieee754_atanh",
        1,
        hyper::sites::ATANH,
        12,
        15,
        hyper::atanh
    ),
    benchmark!(
        "e_cosh.c",
        "ieee754_cosh",
        1,
        hyper::sites::COSH,
        16,
        20,
        hyper::cosh
    ),
    benchmark!(
        "e_exp.c",
        "ieee754_exp",
        1,
        exp_log::sites::EXP,
        24,
        31,
        exp_log::exp
    ),
    benchmark!(
        "e_fmod.c",
        "ieee754_fmod",
        2,
        rounding::sites::FMOD,
        60,
        70,
        rounding::fmod
    ),
    benchmark!(
        "e_hypot.c",
        "ieee754_hypot",
        2,
        power::sites::HYPOT,
        22,
        50,
        power::hypot
    ),
    benchmark!(
        "e_j0.c",
        "ieee754_j0",
        1,
        bessel::sites::J0,
        18,
        29,
        bessel::j0
    ),
    benchmark!(
        "e_j0.c",
        "ieee754_y0",
        1,
        bessel::sites::Y0,
        16,
        26,
        bessel::y0
    ),
    benchmark!(
        "e_j1.c",
        "ieee754_j1",
        1,
        bessel::sites::J1,
        16,
        26,
        bessel::j1
    ),
    benchmark!(
        "e_j1.c",
        "ieee754_y1",
        1,
        bessel::sites::Y1,
        16,
        26,
        bessel::y1
    ),
    benchmark!(
        "e_log.c",
        "ieee754_log",
        1,
        exp_log::sites::LOG,
        22,
        39,
        exp_log::log
    ),
    benchmark!(
        "e_log10.c",
        "ieee754_log10",
        1,
        exp_log::sites::LOG10,
        8,
        18,
        exp_log::log10
    ),
    benchmark!(
        "e_pow.c",
        "ieee754_pow",
        2,
        power::sites::POW,
        114,
        139,
        power::pow
    ),
    benchmark!(
        "e_rem_pio2.c",
        "ieee754_rem_pio2",
        1,
        trig::sites::REM_PIO2,
        30,
        64,
        trig::rem_pio2
    ),
    benchmark!(
        "e_remainder.c",
        "ieee754_remainder",
        2,
        rounding::sites::REMAINDER,
        22,
        27,
        rounding::remainder
    ),
    benchmark!(
        "e_scalb.c",
        "ieee754_scalb",
        2,
        power::sites::SCALB,
        14,
        9,
        power::scalb
    ),
    benchmark!(
        "e_sinh.c",
        "ieee754_sinh",
        1,
        hyper::sites::SINH,
        20,
        19,
        hyper::sinh
    ),
    benchmark!(
        "e_sqrt.c",
        "ieee754_sqrt",
        1,
        power::sites::SQRT,
        46,
        68,
        power::sqrt
    ),
    benchmark!(
        "k_cos.c",
        "kernel_cos",
        2,
        trig::sites::KERNEL_COS,
        8,
        15,
        trig::kernel_cos
    ),
    benchmark!(
        "s_asinh.c",
        "asinh",
        1,
        hyper::sites::ASINH,
        12,
        14,
        hyper::asinh
    ),
    benchmark!("s_atan.c", "atan", 1, trig::sites::ATAN, 26, 28, trig::atan),
    benchmark!(
        "s_cbrt.c",
        "cbrt",
        1,
        power::sites::CBRT,
        6,
        24,
        power::cbrt
    ),
    benchmark!(
        "s_ceil.c",
        "ceil",
        1,
        rounding::sites::CEIL,
        30,
        29,
        rounding::ceil
    ),
    benchmark!("s_cos.c", "cos", 1, trig::sites::COS, 8, 12, trig::cos),
    benchmark!("s_erf.c", "erf", 1, erf::sites::ERF, 20, 38, erf::erf),
    benchmark!("s_erf.c", "erfc", 1, erf::sites::ERFC, 24, 43, erf::erfc),
    benchmark!(
        "s_expm1.c",
        "expm1",
        1,
        exp_log::sites::EXPM1,
        42,
        56,
        exp_log::expm1
    ),
    benchmark!(
        "s_floor.c",
        "floor",
        1,
        rounding::sites::FLOOR,
        30,
        30,
        rounding::floor
    ),
    benchmark!(
        "s_ilogb.c",
        "ilogb",
        1,
        rounding::sites::ILOGB,
        12,
        12,
        rounding::ilogb
    ),
    benchmark!(
        "s_log1p.c",
        "log1p",
        1,
        exp_log::sites::LOG1P,
        36,
        46,
        exp_log::log1p
    ),
    benchmark!(
        "s_logb.c",
        "logb",
        1,
        rounding::sites::LOGB,
        6,
        8,
        rounding::logb
    ),
    benchmark!(
        "s_modf.c",
        "modf",
        1,
        rounding::sites::MODF,
        10,
        32,
        rounding::modf
    ),
    benchmark!(
        "s_nextafter.c",
        "nextafter",
        2,
        rounding::sites::NEXTAFTER,
        44,
        36,
        rounding::nextafter
    ),
    benchmark!(
        "s_rint.c",
        "rint",
        1,
        rounding::sites::RINT,
        20,
        34,
        rounding::rint
    ),
    benchmark!("s_sin.c", "sin", 1, trig::sites::SIN, 8, 12, trig::sin),
    benchmark!("s_tan.c", "tan", 1, trig::sites::TAN, 4, 8, trig::tan),
    benchmark!(
        "s_tanh.c",
        "tanh",
        1,
        hyper::sites::TANH,
        12,
        16,
        hyper::tanh
    ),
];

/// Returns the full benchmark suite in table order.
pub fn all() -> Vec<Benchmark> {
    BENCHMARKS.to_vec()
}

/// Looks up a benchmark by its (case-sensitive) name. Both the full name
/// (`"ieee754_tanh"` style, as registered) and the short suffix (`"tanh"`)
/// are accepted.
pub fn by_name(name: &str) -> Option<Benchmark> {
    BENCHMARKS
        .iter()
        .find(|b| b.name == name || b.name.strip_prefix("ieee754_") == Some(name))
        .copied()
}

/// Resolves a front end's function names to benchmarks, in the order
/// given: no names is the whole suite, and an unknown name is an error
/// naming it, never a silently shorter inventory.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Benchmark>, String> {
    if names.is_empty() {
        return Ok(all());
    }
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            by_name(name).ok_or_else(|| format!("unknown fdlibm function `{name}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverme_optim::rng::SplitMix64;
    use coverme_runtime::CoverageMap;

    #[test]
    fn suite_has_exactly_forty_benchmarks() {
        assert_eq!(BENCHMARKS.len(), 40);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for b in BENCHMARKS {
            assert!(seen.insert(b.name), "duplicate benchmark name {}", b.name);
        }
    }

    #[test]
    fn lookup_accepts_short_and_full_names() {
        assert!(by_name("tanh").is_some());
        assert!(by_name("ieee754_pow").is_some());
        assert!(by_name("pow").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn select_keeps_order_and_rejects_unknown_names() {
        assert_eq!(select::<&str>(&[]).unwrap().len(), 40);
        let picked = select(&["pow", "tanh"]).unwrap();
        let names: Vec<&str> = picked.iter().map(|b| b.name).collect();
        assert_eq!(names, ["ieee754_pow", "tanh"]);
        let error = select(&["tanh", "tnah"]).unwrap_err();
        assert!(error.contains("`tnah`"), "{error}");
    }

    #[test]
    fn every_benchmark_executes_on_representative_inputs() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            2.5,
            -2.5,
            1e300,
            -1e300,
            1e-320,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for b in BENCHMARKS {
            let mut coverage = CoverageMap::new(b.sites);
            for &x in &specials {
                let input: Vec<f64> = std::iter::repeat_n(x, b.arity).collect();
                let mut ctx = ExecCtx::observe();
                b.execute(&input, &mut ctx);
                for event in ctx.trace() {
                    assert!(
                        (event.site as usize) < b.sites,
                        "{}: site {} out of declared range {}",
                        b.name,
                        event.site,
                        b.sites
                    );
                }
                coverage.record(&ctx);
            }
            assert!(
                coverage.covered_count() > 0,
                "{}: no branch executed at all",
                b.name
            );
        }
    }

    #[test]
    fn random_bit_patterns_do_not_panic_or_escape_site_ranges() {
        let mut rng = SplitMix64::new(0xFD11B);
        for b in BENCHMARKS {
            for _ in 0..200 {
                let input: Vec<f64> = (0..b.arity)
                    .map(|_| {
                        let v = f64::from_bits(rng.next_u64());
                        if v.is_finite() {
                            v
                        } else {
                            v
                        }
                    })
                    .collect();
                let mut ctx = ExecCtx::observe();
                b.execute(&input, &mut ctx);
                for event in ctx.trace() {
                    assert!(
                        (event.site as usize) < b.sites,
                        "{} site {}",
                        b.name,
                        event.site
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_metadata_is_sane() {
        for b in BENCHMARKS {
            assert!(b.arity == 1 || b.arity == 2, "{}", b.name);
            assert!(b.sites > 0, "{}", b.name);
            assert!(b.paper_branches >= 4, "{}", b.name);
            assert!(b.paper_lines >= 8, "{}", b.name);
            assert!(!format!("{b:?}").is_empty());
        }
    }
}
