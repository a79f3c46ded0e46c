//! Criterion micro-benchmarks: single-value perturbation throughput of every
//! mechanism at a representative per-dimension budget, and whole-report
//! perturbation through `Mechanism::perturb_values`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hdldp_mechanisms::{build_mechanism, MechanismKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_perturbation(c: &mut Criterion) {
    let mut group = c.benchmark_group("perturb");
    for kind in MechanismKind::ALL {
        let mechanism = build_mechanism(kind, 0.5).expect("valid budget");
        group.bench_function(kind.name(), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut t = -1.0;
            b.iter(|| {
                t = if t > 1.0 { -1.0 } else { t + 0.001 };
                black_box(mechanism.perturb(black_box(t), &mut rng))
            })
        });
    }
    group.finish();
}

/// One 100-entry report per iteration, at the per-dimension budgets of the
/// `figure_sweep` benchmark (Laplace and Piecewise at ε = 0.4/100, Square
/// Wave at 10/100) and at ε = 1 for Duchi and Hybrid (where Hybrid mixes
/// both components). The inputs span `[-1, 1]`; the buffer is reused, so
/// each iteration is one copy of the inputs plus one dynamic dispatch. The
/// group keeps its `perturb_entries` ids, from before reports held their
/// values in a column of their own.
fn bench_report_perturbation(c: &mut Criterion) {
    const ENTRIES: usize = 100;
    let inputs: Vec<f64> = (0..ENTRIES).map(|j| (j as f64).sin()).collect();
    let mut group = c.benchmark_group("perturb_entries");
    for (kind, epsilon) in [
        (MechanismKind::Laplace, 0.004),
        (MechanismKind::Piecewise, 0.004),
        (MechanismKind::SquareWave, 0.1),
        (MechanismKind::Duchi, 1.0),
        (MechanismKind::Hybrid, 1.0),
    ] {
        let mechanism = build_mechanism(kind, epsilon).expect("valid budget");
        group.bench_function(format!("{}/{ENTRIES}", kind.name()), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut report = inputs.clone();
            b.iter(|| {
                report.copy_from_slice(&inputs);
                mechanism.perturb_values(black_box(&mut report), &mut rng);
                black_box(&report);
            })
        });
    }
    group.finish();
}

fn bench_closed_form_moments(c: &mut Criterion) {
    let mut group = c.benchmark_group("closed_form_variance");
    for kind in MechanismKind::ALL {
        let mechanism = build_mechanism(kind, 0.5).expect("valid budget");
        group.bench_function(kind.name(), |b| {
            let mut t = -1.0;
            b.iter(|| {
                t = if t > 1.0 { -1.0 } else { t + 0.001 };
                black_box(mechanism.variance(black_box(t)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_perturbation,
    bench_report_perturbation,
    bench_closed_form_moments
);
criterion_main!(benches);
