//! The client's dimension sampler against its reference oracle.
//!
//! `hdldp_protocol::DimensionSampler` must be bit-identical to the vendored
//! `rand::seq::index::sample`: the same indices in the same order and the
//! same generator state afterwards, in each of its layouts (the pool
//! shuffled inside the caller's buffer, the inline stack table, and the hash
//! table laid out in the caller's buffer). The client
//! and the frequency pipeline, which both sample through it, are replayed
//! with the reference sampler, and `Client::perturb_lazy_into` is shown to
//! allocate nothing once its output buffer is warm.
//!
//! This binary installs a counting [`std::alloc::System`] wrapper as the
//! global allocator. The counter is thread-local, so tests running
//! concurrently on sibling threads never perturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdldp_data::CategoricalDataset;
use hdldp_mechanisms::{build_mechanism, LaplaceMechanism, Mechanism, MechanismKind};
use hdldp_protocol::sampler::INLINE_SAMPLE_MAX;
use hdldp_protocol::{
    user_seed, BudgetSplit, Client, DimensionSampler, FrequencyPipeline, IngestConfig,
    IngestEngine, PipelineConfig, ProtocolError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{RngCore, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] allocator wrapper that counts allocations per thread.
struct CountingAllocator;

// SAFETY: every method delegates to `System` with its arguments unchanged,
// so `System`'s GlobalAlloc contract carries over verbatim; the counter bump
// via `try_with` cannot allocate, unwind, or reenter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero-size
    // layout); forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: caller passes a block previously returned by this allocator
    // with its original layout; `System.dealloc` requires exactly that.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (live block,
    // matching layout, nonzero new size); forwarded to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on the current thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, result)
}

/// `(d, m)` shapes at every layout boundary: empty samples, `d = 1`,
/// `m = 1`, `2m = d − 1` (the largest sparse sample), `2m = d` (the smallest
/// pool sample), `m = d`, `m` at the inline bound and one above it (the
/// smallest hashed sample), the ingest and frequency workload shapes, and
/// large sparse samples: the Figure 2 shape (d = 5000, m = 50) and samples
/// from huge ranges.
fn boundary_shapes() -> Vec<(usize, usize)> {
    let k = INLINE_SAMPLE_MAX;
    vec![
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 1),
        (3, 1),
        (9, 4),
        (10, 5),
        (256, 1),
        (256, 8),
        (8, 2),
        (100, 100),
        (2 * k + 1, k),
        (2 * k, k),
        (1_000, k),
        (2 * k + 3, k + 1),
        (2 * k + 2, k + 1),
        (1_000, k + 1),
        (201, 100),
        (5_000, 50),
        (1_000_000, 64),
        (100_000, 1_000),
    ]
}

/// Sample with `DimensionSampler`, after a sentinel entry it must preserve,
/// and check the result and the generator state against the reference.
fn assert_matches_reference(seed: u64, length: usize, amount: usize) {
    let mut ours = StdRng::seed_from_u64(seed);
    let mut reference = StdRng::seed_from_u64(seed);
    let mut out = vec![(usize::MAX, -1.0)];
    let sampler = DimensionSampler::new(length, amount).unwrap();
    let appended = sampler.sample_into(&mut ours, &mut out).len();
    let expected = sample(&mut reference, length, amount).into_vec();
    assert_eq!(appended, amount);
    assert_eq!(out[0], (usize::MAX, -1.0), "d={length} m={amount}");
    let got: Vec<usize> = out[1..].iter().map(|&(j, _)| j).collect();
    assert_eq!(got, expected, "d={length} m={amount} seed={seed}");
    assert!(out[1..].iter().all(|&(_, value)| value == 0.0));
    assert_eq!(
        ours.next_u64(),
        reference.next_u64(),
        "generator state after d={length} m={amount} seed={seed}"
    );
}

#[test]
fn sampler_matches_the_reference_at_every_branch_boundary() {
    for (length, amount) in boundary_shapes() {
        for seed in 0..500 {
            assert_matches_reference(seed, length, amount);
        }
    }
}

#[test]
fn sampler_rejects_more_dimensions_than_it_samples_from() {
    assert!(matches!(
        DimensionSampler::new(3, 4),
        Err(ProtocolError::InvalidConfig {
            name: "reported_dims",
            ..
        })
    ));
    let sampler = DimensionSampler::new(4, 4).unwrap();
    assert_eq!((sampler.length(), sampler.amount()), (4, 4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary shapes up to d = 300, every `m` from 0 to `d` reachable.
    #[test]
    fn sampler_matches_the_reference_on_random_shapes(
        shape in (1usize..300).prop_flat_map(|d| (Just(d), 0usize..=d)),
        seed in 0u64..u64::MAX,
    ) {
        let (length, amount) = shape;
        assert_matches_reference(seed, length, amount);
    }
}

/// The pre-sampler client path: draw the reference sample, then perturb each
/// sampled dimension in draw order.
fn reference_lazy_report(
    mechanism: &dyn Mechanism,
    dims: usize,
    m: usize,
    value_of: impl Fn(usize) -> f64,
    rng: &mut StdRng,
) -> Vec<(usize, f64)> {
    let chosen = sample(rng, dims, m);
    chosen
        .into_iter()
        .map(|j| (j, mechanism.perturb(value_of(j), rng)))
        .collect()
}

#[test]
fn perturb_lazy_into_equals_the_reference_replay() {
    let value_of = |j: usize| ((j * 37) % 101) as f64 / 50.0 - 1.0;
    for (dims, m) in boundary_shapes() {
        if m == 0 {
            continue;
        }
        let budget = BudgetSplit::new(1.0, m).unwrap();
        for kind in [MechanismKind::Laplace, MechanismKind::Piecewise] {
            let mechanism = build_mechanism(kind, budget.per_dimension()).unwrap();
            let client = Client::new(mechanism.as_ref(), budget, dims).unwrap();
            let mut out = Vec::new();
            for user in 0..200 {
                let mut rng = StdRng::seed_from_u64(user_seed(5, user));
                let mut replay_rng = rng.clone();
                out.clear();
                client.perturb_lazy_into(value_of, &mut rng, &mut out);
                let expected =
                    reference_lazy_report(mechanism.as_ref(), dims, m, value_of, &mut replay_rng);
                let bits = |r: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    r.iter().map(|&(j, v)| (j, v.to_bits())).collect()
                };
                assert_eq!(bits(&out), bits(&expected), "{kind:?} d={dims} m={m}");
                assert_eq!(rng.next_u64(), replay_rng.next_u64());
            }
        }
    }
}

#[test]
fn perturb_lazy_into_allocates_nothing_after_warm_up() {
    for (dims, m) in [(256, 8), (100, 100), (5_000, 50)] {
        let budget = BudgetSplit::new(1.0, m).unwrap();
        let mechanism = LaplaceMechanism::new(budget.per_dimension()).unwrap();
        let client = Client::new(&mechanism, budget, dims).unwrap();
        let value_of = |j: usize| j as f64 / dims as f64;
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        client.perturb_lazy_into(value_of, &mut rng, &mut out);
        let (allocations, reports) = allocations_during(|| {
            let mut reports = 0;
            for _ in 0..1_000 {
                out.clear();
                client.perturb_lazy_into(value_of, &mut rng, &mut out);
                reports += out.len();
            }
            reports
        });
        assert_eq!(reports, 1_000 * m);
        assert_eq!(allocations, 0, "d={dims} m={m}: {allocations} allocations");
    }
}

#[test]
fn frequency_pipeline_equals_a_reference_sampler_replay_bit_for_bit() {
    // m = 2 of 8 is the inline layout, m = 5 of 8 the pool layout, and
    // m = 17 of 40 the hashed layout.
    let narrow = vec![16, 4, 9, 16, 2, 11, 16, 7];
    let wide: Vec<usize> = (0..40).map(|j| 2 + j % 5).collect();
    for (categories, m, seed) in [(&narrow, 2, 71), (&narrow, 5, 72), (&wide, 17, 73)] {
        assert_frequency_replay(categories, m, seed);
    }
}

/// Run `FrequencyPipeline` at `m` of `categories.len()` dimensions and
/// compare every estimate bit for bit with a serial replay that samples
/// through the reference.
fn assert_frequency_replay(categories: &[usize], m: usize, seed: u64) {
    let data = CategoricalDataset::generate_zipf(
        4_000,
        categories.to_vec(),
        &mut StdRng::seed_from_u64(2),
    )
    .unwrap();
    let offsets: Vec<usize> = categories
        .iter()
        .scan(0, |next, &v| {
            let offset = *next;
            *next += v;
            Some(offset)
        })
        .collect();
    let entries: usize = categories.iter().sum();
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(2.0, m, seed)).unwrap();
    let estimate = pipeline.run(&data).unwrap();

    let config = IngestConfig::new(
        IngestConfig::DEFAULT_SHARDS,
        IngestConfig::DEFAULT_BATCH_CAPACITY,
    )
    .unwrap();
    let mut replay = IngestEngine::new(entries, config).unwrap();
    let mut report = Vec::new();
    for user in 0..data.users() as u64 {
        let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
        report.clear();
        for j in sample(&mut rng, data.dims(), m) {
            let value = data.value(user as usize, j).unwrap();
            for c in 0..categories[j] {
                let raw = if c == value { 1.0 } else { 0.0 };
                report.push((offsets[j] + c, pipeline.mechanism().perturb(raw, &mut rng)));
            }
        }
        replay.submit_entries(user, &report).unwrap();
    }
    let sums = replay.merged().unwrap();
    let counts = replay.report_counts().unwrap();
    for (j, (&offset, &v)) in offsets.iter().zip(categories).enumerate() {
        assert_eq!(estimate.report_counts[j], counts[offset], "m={m} dim {j}");
        for c in 0..v {
            let want = sums.sums()[offset + c] / counts[offset] as f64;
            assert_eq!(
                estimate.estimated[j][c].to_bits(),
                want.to_bits(),
                "m={m} dim {j} category {c}"
            );
        }
    }
}
