//! Criterion micro-benchmarks: single-value perturbation throughput of every
//! mechanism at a representative per-dimension budget, and the per-user cost
//! of the client layer (dimension sampling plus `m` perturbations).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hdldp_mechanisms::{build_mechanism, LaplaceMechanism, MechanismKind};
use hdldp_protocol::{BudgetSplit, Client};
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

/// One simulated user through `Client::perturb_lazy_into` with Laplace at
/// ε = 1, one row per sampler layout: inline at the ingest shape (d = 256,
/// m = 8), pool at the Figure 4 shape (d = m = 100), and hashed at the
/// Figure 2 paper shape (d = 5000, m = 50). The output buffer is reused, as
/// the ingest engine reuses its per-worker scratch.
fn bench_client_perturb_lazy(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_perturb_lazy");
    for (dims, m) in [(256, 8), (100, 100), (5_000, 50)] {
        let budget = BudgetSplit::new(1.0, m).expect("valid split");
        let mechanism = LaplaceMechanism::new(budget.per_dimension()).expect("valid budget");
        let client = Client::new(&mechanism, budget, dims).expect("valid client");
        group.bench_function(format!("d{dims}_m{m}"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut out = Vec::with_capacity(dims);
            b.iter(|| {
                out.clear();
                client.perturb_lazy_into(|j| j as f64 / dims as f64, &mut rng, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_perturbation,
    bench_closed_form_moments,
    bench_client_perturb_lazy
);
criterion_main!(benches);
