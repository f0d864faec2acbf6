//! Population-scale collection: one million simulated clients stream
//! perturbed reports into the sharded ingest engine.
//!
//! ```text
//! cargo run --release -p hdldp-examples --example million_user_ingest
//! cargo run --release -p hdldp-examples --example million_user_ingest -- \
//!     --users 4000000 --shards 8
//! ```
//!
//! This is the aggregator of Section III-B at the scale the paper assumes:
//! each user samples `m` of her `d` dimensions, perturbs each with budget
//! `ε/m`, and the collector ingests the reports through hash-partitioned
//! shards — each report added straight into its shard's partial sums, merged
//! on read.
//! The simulated population is lazy (a user's value in a dimension is a pure
//! function of her id), so no gigabyte-scale dataset is materialized and the
//! per-dimension population means are known exactly; the example prints
//! ingest throughput in reports/sec alongside the MSE of the sharded
//! estimate against that ground truth.

use hdldp_mechanisms::{build_mechanism, MechanismKind};
use hdldp_protocol::{BudgetSplit, Client, IngestConfig, IngestEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Dimensions per user tuple.
const DIMS: usize = 256;
/// Dimensions each user samples and reports.
const REPORTED: usize = 8;
/// Total per-user privacy budget ε.
const EPSILON: f64 = 1.0;
/// Seed of the deterministic simulation.
const SEED: u64 = 2022;

/// SplitMix64 finalizer: the per-(user, dimension) randomness of the
/// simulated population.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` derived from a mixed state.
fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The exact population mean of dimension `j` (in `[-0.45, 0.45]`, so user
/// values mean ± 0.5 never leave the mechanisms' `[-1, 1]` input domain).
fn population_mean(dim: usize) -> f64 {
    0.9 * (unit(dim as u64 ^ 0x5151_5151_5151_5151) - 0.5)
}

/// User `u`'s raw value in dimension `j`: uniform in a width-1 window centred
/// on the population mean — generated on demand, never stored.
fn user_value(user: u64, dim: usize) -> f64 {
    population_mean(dim) + unit(SEED ^ mix(user) ^ (dim as u64).rotate_left(32)) - 0.5
}

/// Run the collection for `users` simulated clients over `shards` ingest
/// shards and print throughput + estimate quality.
pub fn run(users: u64, shards: usize) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    println!(
        "collecting from {users} users: d = {DIMS}, m = {REPORTED}, eps = {EPSILON}, {shards} shards"
    );

    // Client side: every user perturbs her m sampled dimensions with eps/m.
    let budget = BudgetSplit::new(EPSILON, REPORTED)?;
    let mechanism = build_mechanism(MechanismKind::Piecewise, budget.per_dimension())?;
    let client = Client::new(mechanism.as_ref(), budget, DIMS)?;

    // Collector side: reports hash-partition across shards, accumulate
    // shard-locally, and the estimate is produced by merge-on-read.
    let mut engine = IngestEngine::new(
        DIMS,
        IngestConfig::new(shards, IngestConfig::DEFAULT_BATCH_CAPACITY)?,
    )?;
    let start = Instant::now();
    engine.ingest_partitioned(0..users, |user, out| {
        let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(mix(user)));
        client.perturb_lazy_into(|dim| user_value(user, dim), &mut rng, out);
        Ok(())
    })?;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let merged = engine.merged()?;
    let means = merged.means()?;
    let mse = means
        .iter()
        .enumerate()
        .map(|(dim, &estimate)| (estimate - population_mean(dim)).powi(2))
        .sum::<f64>()
        / DIMS as f64;

    let loads = engine.shard_loads();
    println!(
        "ingested {} reports ({} entries) in {elapsed:.2}s",
        merged.reports(),
        merged.counts().iter().sum::<u64>(),
    );
    println!(
        "throughput: {:.0} reports/sec ({:.0} perturbed entries/sec)",
        merged.reports() as f64 / elapsed,
        merged.counts().iter().sum::<u64>() as f64 / elapsed,
    );
    println!(
        "shard loads: min {} / max {} reports",
        loads.iter().min().unwrap(),
        loads.iter().max().unwrap(),
    );
    println!("estimated-mean MSE vs ground truth: {mse:.6}");

    // Sharding is lossless: per-dimension partial sums and counts merge
    // exactly, so any shard count recovers the single-loop estimate (up to
    // the last ulps of floating-point summation order). Demonstrate by
    // re-running single-shard at a small scale.
    if users <= 100_000 {
        let mut single = IngestEngine::new(DIMS, IngestConfig::new(1, 64)?)?;
        single.ingest_partitioned(0..users, |user, out| {
            let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(mix(user)));
            client.perturb_lazy_into(|dim| user_value(user, dim), &mut rng, out);
            Ok(())
        })?;
        for (sharded, reference) in means.iter().zip(single.estimated_means()?) {
            assert!(
                (sharded - reference).abs() <= 1e-12,
                "sharded estimate {sharded} diverged from single-loop {reference}"
            );
        }
        println!("single-shard re-run reproduced the sharded estimated means");
    }
    Ok(())
}

#[cfg_attr(test, allow(dead_code))]
fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let users: u64 = match value_of("--users") {
        Some(v) => v.parse()?,
        None => 1_000_000,
    };
    let shards: usize = match value_of("--shards") {
        Some(v) => v.parse()?,
        None => rayon::current_num_threads().max(1) * 2,
    };
    run(users, shards)
}
