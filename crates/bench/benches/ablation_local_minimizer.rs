//! Ablation: which local minimizer should Basinhopping use?
//! Runs CoverMe on s_tanh with Powell, Nelder-Mead and compass search.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coverme::{CoverMe, CoverMeConfig, LocalMethod};
use coverme_fdlibm::by_name;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_local_minimizer");
    group.sample_size(10);
    let b = by_name("tanh").unwrap();
    for method in [
        LocalMethod::Powell,
        LocalMethod::NelderMead,
        LocalMethod::Compass,
    ] {
        group.bench_function(method.name(), |bench| {
            bench.iter(|| {
                let config = CoverMeConfig::default()
                    .with_n_start(40)
                    .with_local_method(method)
                    .with_seed(1);
                black_box(CoverMe::new(config).run(&b))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
