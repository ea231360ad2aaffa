//! Ablation: the near-miss polish step, on and off.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coverme::{CoverMe, CoverMeConfig};
use coverme_fdlibm::by_name;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_polish");
    group.sample_size(10);
    let b = by_name("erf").unwrap();
    group.bench_function("polish_enabled", |bench| {
        bench.iter(|| {
            let config = CoverMeConfig::default().with_n_start(40).with_seed(1);
            black_box(CoverMe::new(config).run(&b))
        })
    });
    group.bench_function("polish_disabled", |bench| {
        bench.iter(|| {
            let config = CoverMeConfig::default()
                .with_n_start(40)
                .with_polish(false)
                .with_seed(1);
            black_box(CoverMe::new(config).run(&b))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
