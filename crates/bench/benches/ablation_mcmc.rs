//! Ablation: MCMC parameters — number of Monte-Carlo
//! iterations per start and the perturbation distribution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coverme::{CoverMe, CoverMeConfig};
use coverme_fdlibm::by_name;
use coverme_optim::PerturbationKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mcmc");
    group.sample_size(10);
    let b = by_name("asinh").unwrap();
    for n_iter in [1usize, 5, 15] {
        group.bench_function(format!("n_iter_{n_iter}"), |bench| {
            bench.iter(|| {
                let config = CoverMeConfig::default()
                    .with_n_start(30)
                    .with_n_iter(n_iter)
                    .with_seed(1);
                black_box(CoverMe::new(config).run(&b))
            })
        });
    }
    group.bench_function("gaussian_perturbation", |bench| {
        bench.iter(|| {
            let config = CoverMeConfig::default()
                .with_n_start(30)
                .with_perturbation(PerturbationKind::Gaussian { stddev: 1.0 })
                .with_seed(1);
            black_box(CoverMe::new(config).run(&b))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
