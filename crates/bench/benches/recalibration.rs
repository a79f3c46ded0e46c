//! Criterion micro-benchmarks: the cost of the HDR4ME one-off closed-form
//! solvers across dimensionalities. This quantifies the paper's claim that
//! the re-calibration adds essentially no computational burden at the
//! collector.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdldp_core::solver::{solve_l1, solve_l2};

fn inputs(dims: usize) -> (Vec<f64>, Vec<f64>) {
    let estimate: Vec<f64> = (0..dims).map(|j| ((j as f64) * 0.37).sin() * 5.0).collect();
    let weights: Vec<f64> = (0..dims).map(|j| 1.0 + ((j % 7) as f64) * 0.3).collect();
    (estimate, weights)
}

fn bench_closed_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdr4me_closed_form");
    for &dims in &[100usize, 1_000, 10_000, 100_000] {
        let (estimate, weights) = inputs(dims);
        group.bench_with_input(BenchmarkId::new("l1", dims), &dims, |b, _| {
            b.iter(|| black_box(solve_l1(&estimate, &weights).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("l2", dims), &dims, |b, _| {
            b.iter(|| black_box(solve_l2(&estimate, &weights).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closed_form);
criterion_main!(benches);
