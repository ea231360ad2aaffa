//! Benchmarks the unconstrained-programming backends on the paper's Fig. 2
//! objectives and a 2-D Rastrigin function.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coverme_optim::{BasinHopping, CompassSearch, FnObjective, LocalMethod, NelderMead, Powell};

fn fig2b(x: f64) -> f64 {
    if x <= 1.0 {
        ((x + 1.0).powi(2) - 4.0).powi(2)
    } else {
        (x * x - 4.0).powi(2)
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizers");
    group.sample_size(20);
    group.bench_function("powell_fig2b", |b| {
        b.iter(|| {
            let mut f = FnObjective(|p: &[f64]| fig2b(p[0]));
            black_box(Powell::new().minimize_objective(&mut f, &[-8.0]))
        })
    });
    group.bench_function("nelder_mead_fig2b", |b| {
        b.iter(|| {
            let mut f = FnObjective(|p: &[f64]| fig2b(p[0]));
            black_box(NelderMead::new().minimize_objective(&mut f, &[-8.0]))
        })
    });
    group.bench_function("compass_fig2b", |b| {
        b.iter(|| {
            let mut f = FnObjective(|p: &[f64]| fig2b(p[0]));
            black_box(CompassSearch::new().minimize_objective(&mut f, &[-8.0]))
        })
    });
    group.bench_function("basinhopping_fig2b", |b| {
        b.iter(|| {
            let mut f = FnObjective(|p: &[f64]| fig2b(p[0]));
            black_box(
                BasinHopping::new()
                    .iterations(5)
                    .local_method(LocalMethod::Powell)
                    .seed(7)
                    .minimize_objective(&mut f, &[-8.0]),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
