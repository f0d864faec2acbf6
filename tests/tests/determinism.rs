//! Every estimate is a pure function of `(config, seed)`.
//!
//! Each pipeline's output is compared bit for bit (`f64::to_bits`) with a
//! serial replay: user `u` draws from `StdRng::seed_from_u64(user_seed(seed,
//! u))` and the replay submits the users one at a time, in increasing id
//! order, into an engine with the default shard count. The replay runs on the
//! calling thread only, so a pipeline that let the host's core count pick its
//! shard count or its summation order would fail here on some host; CI runs
//! this file both unpinned and pinned to one CPU.

use hdldp_data::{CategoricalDataset, UniformDataset};
use hdldp_mechanisms::{build_mechanism, MechanismKind};
use hdldp_protocol::{
    user_seed, BudgetSplit, Client, FrequencyPipeline, IngestConfig, IngestEngine,
    MeanEstimationPipeline, PipelineConfig,
};
use hdldp_workloads::{CategoricalOracle, OracleKind, OraclePipeline};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// An engine with the pipelines' default shard count, built explicitly.
fn default_sharded_engine(dims: usize) -> IngestEngine {
    let config = IngestConfig::new(
        IngestConfig::DEFAULT_SHARDS,
        IngestConfig::DEFAULT_BATCH_CAPACITY,
    )
    .unwrap();
    IngestEngine::new(dims, config).unwrap()
}

/// Submit user `0..users` serially; `fill` writes user `u`'s entries from
/// its own `user_seed` stream.
fn serial_replay(
    dims: usize,
    users: u64,
    seed: u64,
    fill: impl Fn(u64, &mut StdRng, &mut Vec<(usize, f64)>),
) -> IngestEngine {
    let mut engine = default_sharded_engine(dims);
    let mut entries = Vec::new();
    for user in 0..users {
        let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
        entries.clear();
        fill(user, &mut rng, &mut entries);
        engine.submit_entries(user, &entries).unwrap();
    }
    engine
}

#[test]
fn mean_pipeline_equals_its_serial_replay_bit_for_bit() {
    // Piecewise on Uniform data: the per-report path has no libm calls.
    let (users, dims, epsilon, m, seed) = (20_000, 30, 1.0, 5, 3);
    let data = UniformDataset::new(users, dims)
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(17));
    let pipeline = MeanEstimationPipeline::new(
        MechanismKind::Piecewise,
        PipelineConfig::new(epsilon, m, seed),
    )
    .unwrap();
    let estimate = pipeline.run(&data).unwrap();

    let budget = BudgetSplit::new(epsilon, m).unwrap();
    let mechanism = build_mechanism(MechanismKind::Piecewise, budget.per_dimension()).unwrap();
    let client = Client::new(mechanism.as_ref(), budget, dims).unwrap();
    let replay = serial_replay(dims, users as u64, seed, |user, rng, out| {
        let row = data.row(user as usize).unwrap();
        client.perturb_tuple_into(row, rng, out).unwrap();
    });
    assert_eq!(
        bits(&estimate.estimated_means),
        bits(&replay.estimated_means().unwrap())
    );
    assert_eq!(estimate.report_counts, replay.report_counts().unwrap());
}

#[test]
fn mean_pipeline_trials_equal_single_runs_at_the_shifted_seed() {
    let data = UniformDataset::new(2_000, 12)
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(5));
    let config = PipelineConfig::new(2.0, 3, 40);
    let pipeline = MeanEstimationPipeline::new(MechanismKind::Piecewise, config).unwrap();
    let trials = pipeline.run_trials(&data, 3).unwrap();
    for (t, trial) in trials.iter().enumerate() {
        let shifted = PipelineConfig::new(2.0, 3, 40 + t as u64);
        let single = MeanEstimationPipeline::new(MechanismKind::Piecewise, shifted)
            .unwrap()
            .run(&data)
            .unwrap();
        assert_eq!(bits(&trial.estimated_means), bits(&single.estimated_means));
        assert_eq!(trial.report_counts, single.report_counts);
    }
}

#[test]
fn frequency_pipeline_equals_its_serial_replay_bit_for_bit() {
    let data =
        CategoricalDataset::generate_zipf(6_000, vec![8, 5, 16, 3], &mut StdRng::seed_from_u64(23))
            .unwrap();
    let (m, seed) = (2, 61);
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(2.0, m, seed))
            .unwrap();
    let estimate = pipeline.run(&data).unwrap();

    let categories = data.categories();
    let offsets: Vec<usize> = categories
        .iter()
        .scan(0, |next, &v| {
            let offset = *next;
            *next += v;
            Some(offset)
        })
        .collect();
    let replay = serial_replay(
        categories.iter().sum(),
        data.users() as u64,
        seed,
        |user, rng, out| {
            for j in sample(rng, data.dims(), m) {
                let value = data.value(user as usize, j).unwrap();
                for c in 0..categories[j] {
                    let raw = if c == value { 1.0 } else { 0.0 };
                    out.push((offsets[j] + c, pipeline.mechanism().perturb(raw, rng)));
                }
            }
        },
    );
    let means = replay.estimated_means().unwrap();
    let counts = replay.report_counts().unwrap();
    for (j, (&offset, &v)) in offsets.iter().zip(categories).enumerate() {
        assert_eq!(estimate.report_counts[j], counts[offset], "dim {j}");
        assert_eq!(
            bits(&estimate.estimated[j]),
            bits(&means[offset..offset + v]),
            "dim {j}"
        );
    }
}

#[test]
fn oracle_pipeline_equals_its_serial_replay_bit_for_bit() {
    let (k, seed) = (12, 8);
    let mut rng = StdRng::seed_from_u64(29);
    let values: Vec<usize> = (0..5_000).map(|_| rng.gen_range(0..k)).collect();
    for kind in OracleKind::ALL {
        let estimate = OraclePipeline::new(kind, k, 1.5, seed)
            .unwrap()
            .run(&values)
            .unwrap();
        let oracle = CategoricalOracle::new(kind, k, 1.5).unwrap();
        let replay = serial_replay(k, values.len() as u64, seed, |user, rng, out| {
            oracle
                .perturb_into(values[user as usize], rng, out)
                .unwrap();
        });
        assert_eq!(
            bits(&estimate.estimated[0]),
            bits(&replay.estimated_means().unwrap()),
            "{kind:?}"
        );
    }
}

#[test]
fn partitioned_ingest_equals_serial_submit_at_every_shard_count() {
    // Arbitrary floats, so any change of per-shard summation order would
    // show in the last bits.
    let users = 3_001u64;
    let dims = 9;
    let report = |user: u64, out: &mut Vec<(usize, f64)>| {
        let mut rng = StdRng::seed_from_u64(user_seed(77, user));
        for _ in 0..3 {
            out.push((rng.gen_range(0..dims), rng.gen_range(-1.7..2.3)));
        }
    };
    for shards in [1, 3, 4, 7] {
        let config = IngestConfig::new(shards, 16).unwrap();
        let mut serial = IngestEngine::new(dims, config).unwrap();
        let mut entries = Vec::new();
        for user in 0..users {
            entries.clear();
            report(user, &mut entries);
            serial.submit_entries(user, &entries).unwrap();
        }
        let mut parallel = IngestEngine::new(dims, config).unwrap();
        parallel
            .ingest_partitioned(0..users, |user, out| {
                report(user, out);
                Ok(())
            })
            .unwrap();
        assert_eq!(serial.shards(), parallel.shards(), "{shards} shards");
        assert_eq!(
            bits(&serial.estimated_means().unwrap()),
            bits(&parallel.estimated_means().unwrap()),
            "{shards} shards"
        );
    }
}
