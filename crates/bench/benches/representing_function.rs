//! Micro-benchmark: cost of one representing-function evaluation (the unit
//! of work every minimization step pays) on representative benchmarks —
//! the legacy `RepresentingFunction::eval` path next to the objective
//! engine's scalar fast path (`benches/objective_engine.rs` measures the
//! throughput picture across functions and backends).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coverme::objective::ObjectiveEngine;
use coverme::{BranchSet, RepresentingFunction};
use coverme_fdlibm::by_name;
use coverme_runtime::DEFAULT_EPSILON;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("representing_function_eval");
    group.sample_size(30);
    for name in ["tanh", "pow", "fmod", "erf"] {
        let b = by_name(name).unwrap();
        let foo_r = RepresentingFunction::new(b, BranchSet::new());
        let input = vec![0.37; coverme_runtime::Program::arity(&b)];
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(foo_r.eval(black_box(&input))))
        });

        let mut engine = ObjectiveEngine::new(b, DEFAULT_EPSILON);
        group.bench_function(format!("{name}/engine"), |bench| {
            bench.iter(|| black_box(engine.eval_scalar(black_box(&input))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
