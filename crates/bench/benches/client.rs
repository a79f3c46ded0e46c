//! Criterion micro-benchmarks: the client's per-user report path. Each
//! iteration seeds a user's RNG, then samples `m` of `d` dimensions and
//! perturbs them with Laplace at `ε/m` into a reused buffer, as
//! `IngestEngine::ingest_partitioned` workers do.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdldp_mechanisms::LaplaceMechanism;
use hdldp_protocol::{BudgetSplit, Client, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_client_perturb_lazy(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_perturb_lazy");
    // One shape per allocation-free sampling branch: the sparse
    // displaced-position table (256x8), the dense in-buffer partial shuffle
    // (100x60), and every dimension in order at m = d (100x100, no draw).
    for (branch, dims, m) in [
        ("sparse", 256usize, 8usize),
        ("dense", 100, 60),
        ("dense", 100, 100),
    ] {
        let budget = BudgetSplit::new(1.0, m).expect("valid budget");
        let mechanism = LaplaceMechanism::new(budget.per_dimension()).expect("valid budget");
        let client = Client::new(&mechanism, budget, dims).expect("valid client");
        let value_of = |dim: usize| dim as f64 / dims as f64 * 2.0 - 1.0;
        group.bench_function(BenchmarkId::new(branch, format!("{dims}x{m}")), |b| {
            let mut out = Report::default();
            let mut user = 0u64;
            b.iter(|| {
                user += 1;
                let mut rng = StdRng::seed_from_u64(black_box(user));
                client.perturb_lazy_into(value_of, &mut rng, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_client_perturb_lazy);
criterion_main!(benches);
