//! The four benchmark workloads.
//!
//! Each workload is built once per set-up from the run's seed, then runs
//! *passes*: a fixed sequence of ops (one block of users, one (mechanism, ε,
//! trial), one analytic evaluation, one frequency round). Every op is timed
//! from the benchmark's side and its output checked against the paper's error
//! model; the checks themselves are not timed.

use crate::check;
use crate::timing::{secs, Spans};
use hdldp_bench::ingest_driver::{population_mean, user_value};
use hdldp_core::solver::{solve_l1, solve_l2};
use hdldp_core::{Hdr4me, LambdaSelector, Regularization};
use hdldp_data::{CategoricalDataset, Dataset, DiscreteValueDistribution};
use hdldp_data::{GaussianDataset, UniformDataset};
use hdldp_framework::{DeviationApproximation, DeviationModel};
use hdldp_math::Normal;
use hdldp_mechanisms::{build_mechanism, Mechanism, MechanismKind};
use hdldp_protocol::{
    BudgetSplit, Client, FrequencyPipeline, IngestConfig, IngestEngine, MeanEstimationPipeline,
    PipelineConfig,
};
use hdldp_telemetry::Registry;
use hdldp_workloads::{
    planted_dataset, precision_recall, HeavyHitterConfig, HeavyHitterDetector, OracleKind,
    SelectionRule,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::time::Instant;

/// Boxed error type shared by the benchmark.
pub type BoxError = Box<dyn Error + Send + Sync>;

/// The worker budget: the most threads any op may run at once. Every shard
/// count the benchmark itself chooses is pinned to this constant rather than
/// to the host's thread count, so a result does not depend on the host.
pub const WORKERS: usize = 2;

/// Bucket count the deviation model uses for column profiles.
pub const PROFILE_BUCKETS: usize = 64;

/// The workload names, in the order the benchmark declares them.
pub const NAMES: [&str; 4] = [
    "ingest_sparse",
    "fig4_dense",
    "analytic_sweep",
    "frequency_oracles",
];

/// Input sizes. `full` is what a benchmark run measures; `smoke` is the
/// tiny size the self-test runs every workload at.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Users per ingest block.
    pub ingest_block: u64,
    /// Ingest blocks per pass (a pass starts from an empty engine).
    pub ingest_blocks: u64,
    /// Users of the Figure 4 dataset.
    pub fig4_users: usize,
    /// Dimensions of the Figure 4 dataset.
    pub fig4_dims: usize,
    /// Users of the analytic sweep's dataset.
    pub analytic_users: usize,
    /// Dimensions of the analytic sweep's dataset.
    pub analytic_dims: usize,
    /// Users of each frequency-oracle dataset.
    pub freq_users: usize,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        ingest_block: 250_000,
        ingest_blocks: 4,
        fig4_users: 100_000,
        fig4_dims: 100,
        analytic_users: 20_000,
        analytic_dims: 1_000,
        freq_users: 50_000,
    };

    /// The self-test size.
    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        ingest_block: 4_000,
        ingest_blocks: 2,
        fig4_users: 4_000,
        fig4_dims: 20,
        analytic_users: 500,
        analytic_dims: 50,
        freq_users: 20_000,
    };
}

/// `ingest_sparse`: lazy population, d = 256, m = 8, ε = 1, Laplace.
pub const INGEST_DIMS: usize = 256;
/// Reported dimensions per user in `ingest_sparse`.
pub const INGEST_M: usize = 8;
/// Total per-user budget in `ingest_sparse`.
pub const INGEST_EPS: f64 = 1.0;
/// Fixed shard count of `ingest_sparse`: one per worker.
pub const INGEST_SHARDS: usize = WORKERS;

/// Figure 4's ε grid for a mechanism (the grid of `fig4_mse_vs_epsilon`).
pub fn fig4_grid(kind: MechanismKind) -> &'static [f64] {
    match kind {
        MechanismKind::SquareWave => &[0.1, 10.0, 100.0, 500.0, 1000.0, 5000.0],
        _ => &[0.1, 0.2, 0.4, 0.8, 1.6, 3.2],
    }
}

/// The mid-grid total budget at which the traced run measures the
/// Figure 4 per-user layers.
pub const FIG4_TRACE_EPS: f64 = 0.8;

/// Total budgets of the analytic sweep.
pub const ANALYTIC_EPS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
/// Reported dimensions per user assumed by the analytic sweep.
pub const ANALYTIC_M: usize = 10;
/// Fixed naive estimates per analytic configuration. The L1 solution's error
/// is set by the few dimensions whose noise exceeds λ, so one estimate gives
/// a ratio that swings with the draw; cycling through many steadies the mean.
pub const ANALYTIC_ESTIMATES: usize = 32;
/// Practical-supremum multiplier `z` for the analytic box probability.
pub const ANALYTIC_Z: f64 = 3.0;

/// `frequency_oracles`: Zipf categorical data, 8 dimensions × 16 categories.
pub const FREQ_DIMS: usize = 8;
/// Categories per dimension of the Zipf dataset.
pub const FREQ_CATEGORIES: usize = 16;
/// Reported dimensions per user of the frequency pipeline.
pub const FREQ_M: usize = 2;
/// Total budget of the frequency pipeline.
pub const FREQ_EPS: f64 = 2.0;
/// Heavy-hitter domain size.
pub const HH_CATEGORIES: usize = 256;
/// Planted heavy hitters, also the top-k the detector selects.
pub const HH_HEAVY: usize = 10;
/// Probability mass of the planted heavy hitters.
pub const HH_MASS: f64 = 0.5;
/// Heavy-hitter budget.
pub const HH_EPS: f64 = 4.0;
/// Shards of the heavy-hitter collector (fixed inside `OraclePipeline`).
pub const HH_SHARDS: usize = 4;
/// Lowest heavy-hitter recall an op may report.
pub const HH_MIN_RECALL: f64 = 0.9;

/// Per-user seed, the same mixing the library's pipelines use.
pub fn user_seed(seed: u64, user: u64) -> u64 {
    seed.wrapping_add((user + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Latency of every op, in nanoseconds.
    pub op_ns: Vec<f64>,
    /// Timed duration of every completed pass (sum of its ops), in seconds.
    pub pass_s: Vec<f64>,
    current_pass: f64,
    /// Users collected (or, for the analytic sweep, modelled) per second of
    /// collection calls, one entry per op.
    pub user_rates: Vec<f64>,
    /// The same rate over each completed pass: its users over the seconds of
    /// its collection calls.
    pub pass_rates: Vec<f64>,
    current_users: u64,
    current_collect_s: f64,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The first few check failures, for the report.
    pub failures: Vec<String>,
    /// HDR4ME-L1 MSE over naive MSE, one entry per op that recalibrates.
    pub l1_ratios: Vec<f64>,
    /// HDR4ME-L2 MSE over naive MSE.
    pub l2_ratios: Vec<f64>,
    /// Whether the checker rejected a deliberately corrupted estimate (set by
    /// the first op of workloads that check an MSE).
    pub corruption_caught: Option<bool>,
}

impl RunStats {
    fn op_done(&mut self, ns: f64) {
        self.op_ns.push(ns);
        self.current_pass += ns * 1e-9;
    }

    fn collected(&mut self, users: u64, secs: f64) {
        self.user_rates.push(users as f64 / secs);
        self.current_users += users;
        self.current_collect_s += secs;
    }

    /// Close the current pass.
    pub fn end_pass(&mut self) {
        self.pass_s.push(self.current_pass);
        self.pass_rates
            .push(self.current_users as f64 / self.current_collect_s);
        self.current_pass = 0.0;
        self.current_users = 0;
        self.current_collect_s = 0.0;
    }

    fn checked(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(msg);
            }
        }
    }
}

/// A workload ready to run passes.
pub trait Workload {
    /// Run one pass of ops, timing each through `spans` as well.
    fn pass(&mut self, spans: &mut Spans, stats: &mut RunStats) -> Result<(), BoxError>;

    /// Untimed work after the timed phase (default: none).
    fn finish(&mut self, _stats: &mut RunStats) -> Result<(), BoxError> {
        Ok(())
    }

    /// Run one collection of this workload with telemetry recorded into
    /// `registry`; returns `false` for a workload that collects nothing.
    fn collect_with(&self, registry: &Registry) -> Result<bool, BoxError>;
}

/// Time spent in set-up, split by phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Input generation, in seconds (0 for the lazy population).
    pub generate_s: f64,
    /// Cold column-profile build, in milliseconds (0 where none is built).
    pub profiles_ms: f64,
}

/// Build workload `name` from `seed` at `scale`.
pub fn setup(
    name: &str,
    seed: u64,
    scale: Scale,
) -> Result<(Box<dyn Workload>, SetupTimes), BoxError> {
    Ok(match name {
        "ingest_sparse" => {
            let w = IngestSparse::new(seed, scale)?;
            (Box::new(w), SetupTimes::default())
        }
        "fig4_dense" => {
            let (w, t) = Fig4Dense::new(seed, scale)?;
            (Box::new(w), t)
        }
        "analytic_sweep" => {
            let (w, t) = AnalyticSweep::new(seed, scale)?;
            (Box::new(w), t)
        }
        "frequency_oracles" => {
            let (w, t) = FrequencyOracles::new(seed, scale)?;
            (Box::new(w), t)
        }
        other => return Err(format!("unknown workload `{other}`").into()),
    })
}

// ---------------------------------------------------------------- ingest_sparse

/// The lazy ingest population's per-user fill: sample `m` of `d` dimensions,
/// value each through `user_value`, perturb.
pub fn lazy_fill<'a>(
    client: &'a Client<'a>,
    seed: u64,
) -> impl Fn(u64, &mut Vec<(usize, f64)>) -> hdldp_protocol::Result<()> + Sync + 'a {
    move |user, out| {
        let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
        client.perturb_lazy_into(|dim| user_value(seed, user, dim), &mut rng, out);
        Ok(())
    }
}

/// An empty engine at the `ingest_sparse` configuration.
pub fn ingest_engine(registry: &Registry) -> Result<IngestEngine, BoxError> {
    let config = IngestConfig::new(INGEST_SHARDS, IngestConfig::DEFAULT_BATCH_CAPACITY)?;
    Ok(IngestEngine::with_telemetry(INGEST_DIMS, config, registry)?)
}

struct IngestSparse {
    seed: u64,
    scale: Scale,
    budget: BudgetSplit,
    mechanism: Box<dyn Mechanism>,
    engine: IngestEngine,
    /// Lemma 2 moments of the Laplace noise (value-independent).
    noise: DeviationApproximation,
    truth: Vec<f64>,
    next_user: u64,
    /// Final (means, counts) of every pass, for the post-run HDR4ME ratio.
    finals: Vec<(Vec<f64>, Vec<u64>)>,
}

impl IngestSparse {
    fn new(seed: u64, scale: Scale) -> Result<Self, BoxError> {
        let budget = BudgetSplit::new(INGEST_EPS, INGEST_M)?;
        let mechanism = build_mechanism(MechanismKind::Laplace, budget.per_dimension())?;
        let engine = ingest_engine(&Registry::disabled())?;
        let trivial = DiscreteValueDistribution::new(vec![0.0], vec![1.0])?;
        let noise = DeviationApproximation::for_dimension(mechanism.as_ref(), &trivial, 1.0)?;
        let mut w = Self {
            seed,
            scale,
            budget,
            mechanism,
            engine,
            noise,
            truth: (0..INGEST_DIMS).map(population_mean).collect(),
            next_user: 0,
            finals: Vec::new(),
        };
        // Warm-up: one block through the engine, then start empty.
        w.ingest_block(&mut Spans::off())?;
        w.engine.clear();
        w.next_user = 0;
        Ok(w)
    }

    fn ingest_block(&mut self, spans: &mut Spans) -> Result<(), BoxError> {
        let client = Client::new(self.mechanism.as_ref(), self.budget, INGEST_DIMS)?;
        let users = self.next_user..self.next_user + self.scale.ingest_block;
        self.next_user = users.end;
        let fill = lazy_fill(&client, self.seed);
        spans.time("protocol.ingest.ingest_partitioned", || {
            self.engine.ingest_partitioned(users, fill)
        })?;
        Ok(())
    }

    fn model(&self, counts: &[u64]) -> Result<DeviationModel, BoxError> {
        let dims = counts
            .iter()
            .map(|&c| {
                DeviationApproximation::from_moments(
                    self.noise.delta(),
                    self.noise.per_sample_variance(),
                    c as f64,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DeviationModel::new(dims)?)
    }
}

impl Workload for IngestSparse {
    fn pass(&mut self, spans: &mut Spans, stats: &mut RunStats) -> Result<(), BoxError> {
        self.engine.clear();
        for block in 0..self.scale.ingest_blocks {
            let start = Instant::now();
            self.ingest_block(spans)?;
            let merged = spans.time("protocol.ingest.estimate", || self.engine.merged())?;
            let means = merged.means()?;
            let op_s = secs(start);
            stats.op_done(op_s * 1e9);
            stats.collected(self.scale.ingest_block, op_s);

            let in_pass = (block + 1) * self.scale.ingest_block;
            let counts = merged.counts();
            let model = self.model(&counts)?;
            let (deltas, sigmas) = (model.deltas(), model.std_devs());
            if stats.corruption_caught.is_none() {
                stats.corruption_caught = Some(check::corrupted_estimate_fails(
                    &means,
                    &self.truth,
                    &deltas,
                    &sigmas,
                ));
            }
            stats.checked((|| {
                check::check_count("reports", merged.reports() as u64, in_pass)?;
                check::check_count("entries", counts.iter().sum(), in_pass * INGEST_M as u64)?;
                check::check_mse(&means, &self.truth, &deltas, &sigmas).map(|_| ())
            })());
            if block + 1 == self.scale.ingest_blocks {
                self.finals.push((means, counts));
            }
        }
        stats.end_pass();
        Ok(())
    }

    fn collect_with(&self, registry: &Registry) -> Result<bool, BoxError> {
        let mut engine = ingest_engine(registry)?;
        let client = Client::new(self.mechanism.as_ref(), self.budget, INGEST_DIMS)?;
        engine.ingest_partitioned(0..self.scale.ingest_block, lazy_fill(&client, self.seed))?;
        engine.merged()?;
        Ok(true)
    }

    /// HDR4ME plays no part in this workload's timed phase; its L1/L2 ratios
    /// are computed afterwards on each pass's final estimate.
    fn finish(&mut self, stats: &mut RunStats) -> Result<(), BoxError> {
        for (means, counts) in &self.finals {
            let model = self.model(counts)?;
            let naive = check::mse(means, &self.truth);
            let l1 = Hdr4me::l1().recalibrate(means, &model)?;
            let l2 = Hdr4me::l2().recalibrate(means, &model)?;
            stats
                .l1_ratios
                .push(check::mse(&l1.enhanced_means, &self.truth) / naive);
            stats
                .l2_ratios
                .push(check::mse(&l2.enhanced_means, &self.truth) / naive);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- fig4_dense

struct Fig4Dense {
    seed: u64,
    data: Dataset,
    truth: Vec<f64>,
    ops: u64,
}

impl Fig4Dense {
    fn new(seed: u64, scale: Scale) -> Result<(Self, SetupTimes), BoxError> {
        let start = Instant::now();
        let data = GaussianDataset::new(scale.fig4_users, scale.fig4_dims)?
            .generate(&mut StdRng::seed_from_u64(seed));
        let generate_s = secs(start);
        let start = Instant::now();
        data.column_profiles(PROFILE_BUCKETS)?;
        let profiles_ms = secs(start) * 1e3;
        let truth = data.true_means();
        Ok((
            Self {
                seed,
                data,
                truth,
                ops: 0,
            },
            SetupTimes {
                generate_s,
                profiles_ms,
            },
        ))
    }
}

impl Workload for Fig4Dense {
    fn pass(&mut self, spans: &mut Spans, stats: &mut RunStats) -> Result<(), BoxError> {
        let (users, dims) = (self.data.users(), self.data.dims());
        for kind in MechanismKind::PAPER_EVALUATED {
            for &epsilon in fig4_grid(kind) {
                self.ops += 1;
                let trial_seed = self.seed.wrapping_mul(0x100_0001).wrapping_add(self.ops);
                let pipeline = MeanEstimationPipeline::new(
                    kind,
                    PipelineConfig::new(epsilon, dims, trial_seed),
                )?;
                let start = Instant::now();
                let estimate = spans.time("protocol.pipeline.run", || pipeline.run(&self.data))?;
                let collect_s = secs(start);
                let model = spans.time("framework.deviation_model", || {
                    DeviationModel::for_dataset(pipeline.mechanism(), &self.data, users as f64)
                })?;
                let l1 = spans.time("core.hdr4me", || {
                    Hdr4me::l1().recalibrate(&estimate.estimated_means, &model)
                })?;
                let l2 = spans.time("core.hdr4me", || {
                    Hdr4me::l2().recalibrate(&estimate.estimated_means, &model)
                })?;
                stats.op_done(secs(start) * 1e9);
                stats.collected(users as u64, collect_s);

                let (deltas, sigmas) = (model.deltas(), model.std_devs());
                let means = &estimate.estimated_means;
                if stats.corruption_caught.is_none() {
                    stats.corruption_caught = Some(check::corrupted_estimate_fails(
                        means,
                        &self.truth,
                        &deltas,
                        &sigmas,
                    ));
                }
                let result = (|| {
                    // m = d: every user reports every dimension once.
                    for (j, &c) in estimate.report_counts.iter().enumerate() {
                        check::check_count(&format!("reports[{j}]"), c, users as u64)?;
                    }
                    check::check_finite("l1", &l1.enhanced_means, dims)?;
                    check::check_finite("l2", &l2.enhanced_means, dims)?;
                    check::check_mse(means, &self.truth, &deltas, &sigmas)
                })();
                if let Ok(naive) = result {
                    stats
                        .l1_ratios
                        .push(check::mse(&l1.enhanced_means, &self.truth) / naive);
                    stats
                        .l2_ratios
                        .push(check::mse(&l2.enhanced_means, &self.truth) / naive);
                }
                stats.checked(
                    result
                        .map(|_| ())
                        .map_err(|e| format!("{kind:?} ε={epsilon}: {e}")),
                );
            }
        }
        stats.end_pass();
        Ok(())
    }

    fn collect_with(&self, registry: &Registry) -> Result<bool, BoxError> {
        let config = PipelineConfig::new(FIG4_TRACE_EPS, self.data.dims(), self.seed);
        MeanEstimationPipeline::new(MechanismKind::Piecewise, config)?
            .with_telemetry(registry)
            .run(&self.data)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------- analytic_sweep

struct AnalyticConfig {
    kind: MechanismKind,
    epsilon: f64,
    mechanism: Box<dyn Mechanism>,
    /// Naive estimates drawn once from the model, truth + N(δ_j, σ_j²);
    /// pass `p` uses estimate `p mod ANALYTIC_ESTIMATES`.
    estimates: Vec<Vec<f64>>,
}

struct AnalyticSweep {
    data: Dataset,
    truth: Vec<f64>,
    reports: f64,
    configs: Vec<AnalyticConfig>,
    passes: usize,
}

impl AnalyticSweep {
    fn new(seed: u64, scale: Scale) -> Result<(Self, SetupTimes), BoxError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        let data =
            UniformDataset::new(scale.analytic_users, scale.analytic_dims)?.generate(&mut rng);
        let generate_s = secs(start);
        let start = Instant::now();
        data.column_profiles(PROFILE_BUCKETS)?;
        let profiles_ms = secs(start) * 1e3;
        let truth = data.true_means();
        let reports = (data.users() * ANALYTIC_M) as f64 / data.dims() as f64;
        let mut configs = Vec::new();
        for epsilon in ANALYTIC_EPS {
            for kind in MechanismKind::ALL {
                let mechanism = build_mechanism(kind, epsilon / ANALYTIC_M as f64)?;
                let model = DeviationModel::for_dataset(mechanism.as_ref(), &data, reports)?;
                let noise = model
                    .deltas()
                    .iter()
                    .zip(model.std_devs())
                    .map(|(&delta, sigma)| Normal::new(delta, sigma))
                    .collect::<Result<Vec<_>, _>>()?;
                let estimates = (0..ANALYTIC_ESTIMATES)
                    .map(|_| {
                        truth
                            .iter()
                            .zip(&noise)
                            .map(|(t, n)| t + n.sample(&mut rng))
                            .collect()
                    })
                    .collect();
                configs.push(AnalyticConfig {
                    kind,
                    epsilon,
                    mechanism,
                    estimates,
                });
            }
        }
        Ok((
            Self {
                data,
                truth,
                reports,
                configs,
                passes: 0,
            },
            SetupTimes {
                generate_s,
                profiles_ms,
            },
        ))
    }
}

impl Workload for AnalyticSweep {
    /// One op benchmarks every mechanism kind at one budget (Section IV-C):
    /// each kind's model, box probability at its practical suprema,
    /// improvement probabilities, λ weights and solutions, and the winner by
    /// box probability.
    fn pass(&mut self, spans: &mut Spans, stats: &mut RunStats) -> Result<(), BoxError> {
        let dims = self.data.dims();
        let selector = LambdaSelector::default();
        let pick = self.passes % ANALYTIC_ESTIMATES;
        self.passes += 1;
        for configs in self.configs.chunks(MechanismKind::ALL.len()) {
            let start = Instant::now();
            let mut outputs = Vec::with_capacity(configs.len());
            for config in configs {
                let estimate = &config.estimates[pick];
                let model = spans.time("framework.deviation_model", || {
                    DeviationModel::for_dataset(config.mechanism.as_ref(), &self.data, self.reports)
                })?;
                let p_box = spans.time("framework.box_probability", || {
                    model.box_probability(&model.suprema(ANALYTIC_Z))
                })?;
                let (p_l1, p_l2) = spans.time("framework.improvement_probability", || {
                    (
                        model.l1_improvement_probability(),
                        model.l2_improvement_probability(),
                    )
                });
                let (w1, w2) = spans.time("core.lambda_weights", || {
                    (
                        selector.weights(&model, Regularization::L1),
                        selector.weights(&model, Regularization::L2),
                    )
                });
                let (s1, s2) = spans.time("core.solve", || {
                    (solve_l1(estimate, &w1), solve_l2(estimate, &w2))
                });
                outputs.push((config, [p_box, p_l1, p_l2], [w1, w2, s1?, s2?]));
            }
            let winner = outputs
                .iter()
                .max_by(|a, b| a.1[0].total_cmp(&b.1[0]))
                .map(|o| o.0.kind);
            let op_s = secs(start);
            stats.op_done(op_s * 1e9);
            stats.collected((self.data.users() * configs.len()) as u64, op_s);

            let mut result = winner.map(|_| ()).ok_or_else(|| "no winner".to_string());
            for (config, probabilities, vectors) in &outputs {
                let checked = (|| -> Result<(), String> {
                    for (name, p) in ["box", "l1 improvement", "l2 improvement"]
                        .iter()
                        .zip(probabilities)
                    {
                        check::check_probability(name, *p)?;
                    }
                    for (name, v) in ["l1 weights", "l2 weights", "l1 solution", "l2 solution"]
                        .iter()
                        .zip(vectors)
                    {
                        check::check_finite(name, v, dims)?;
                    }
                    Ok(())
                })();
                match checked {
                    Ok(()) => {
                        let estimate = &config.estimates[pick];
                        let naive = check::mse(estimate, &self.truth);
                        stats
                            .l1_ratios
                            .push(check::mse(&vectors[2], &self.truth) / naive);
                        stats
                            .l2_ratios
                            .push(check::mse(&vectors[3], &self.truth) / naive);
                    }
                    Err(e) => {
                        result =
                            result.and(Err(format!("{:?} ε={}: {e}", config.kind, config.epsilon)))
                    }
                }
            }
            stats.checked(result);
        }
        stats.end_pass();
        Ok(())
    }

    fn collect_with(&self, _registry: &Registry) -> Result<bool, BoxError> {
        Ok(false)
    }
}

// ---------------------------------------------------------------- frequency_oracles

struct FrequencyOracles {
    seed: u64,
    data: CategoricalDataset,
    values: Vec<usize>,
    heavy: Vec<usize>,
    ops: u64,
}

impl FrequencyOracles {
    fn new(seed: u64, scale: Scale) -> Result<(Self, SetupTimes), BoxError> {
        let start = Instant::now();
        let data = CategoricalDataset::generate_zipf(
            scale.freq_users,
            vec![FREQ_CATEGORIES; FREQ_DIMS],
            &mut StdRng::seed_from_u64(seed),
        )?;
        let (values, heavy) = planted_dataset(
            scale.freq_users,
            HH_CATEGORIES,
            HH_HEAVY,
            HH_MASS,
            seed ^ 0x5EED,
        )?;
        let generate_s = secs(start);
        Ok((
            Self {
                seed,
                data,
                values,
                heavy,
                ops: 0,
            },
            SetupTimes {
                generate_s,
                profiles_ms: 0.0,
            },
        ))
    }

    /// The deviation model of the frequency estimate: one dimension per
    /// (categorical dimension, category), over that entry's {0, 1} values.
    fn model(
        mechanism: &dyn Mechanism,
        truth: &[Vec<f64>],
        counts: &[u64],
    ) -> Result<DeviationModel, BoxError> {
        let mut dims = Vec::new();
        for (freqs, &reports) in truth.iter().zip(counts) {
            for &f in freqs {
                let values = DiscreteValueDistribution::new(vec![0.0, 1.0], vec![1.0 - f, f])?;
                dims.push(DeviationApproximation::for_dimension(
                    mechanism,
                    &values,
                    reports as f64,
                )?);
            }
        }
        Ok(DeviationModel::new(dims)?)
    }
}

/// The heavy-hitter configuration of `frequency_oracles`: OUE, HDR4ME-L1 with
/// the sparse-vector supremum z = 1, top-k over the planted count.
fn heavy_hitter_config(seed: u64) -> HeavyHitterConfig {
    HeavyHitterConfig {
        kind: OracleKind::Oue,
        categories: HH_CATEGORIES,
        epsilon: HH_EPS,
        seed,
        rule: SelectionRule::TopK(HH_HEAVY),
        recalibration: Some(Regularization::L1),
        supremum_z: 1.0,
    }
}

impl Workload for FrequencyOracles {
    fn pass(&mut self, spans: &mut Spans, stats: &mut RunStats) -> Result<(), BoxError> {
        self.ops += 1;
        let op_seed = self.seed.wrapping_mul(0x100_0001).wrapping_add(self.ops);
        let n = self.data.users() as u64;
        let pipeline = FrequencyPipeline::new(
            MechanismKind::Piecewise,
            PipelineConfig::new(FREQ_EPS, FREQ_M, op_seed),
        )?;
        let detector = HeavyHitterDetector::new(heavy_hitter_config(op_seed))?;

        let start = Instant::now();
        let estimate = spans.time("protocol.frequency.run", || pipeline.run(&self.data))?;
        let freq_s = secs(start);
        let recal = spans.time("core.recalibrate_frequencies", || {
            (0..FREQ_DIMS)
                .map(|j| {
                    Ok((
                        Hdr4me::l1().recalibrate_frequencies(&estimate, j, pipeline.mechanism())?,
                        Hdr4me::l2().recalibrate_frequencies(&estimate, j, pipeline.mechanism())?,
                    ))
                })
                .collect::<Result<Vec<_>, hdldp_core::CoreError>>()
        })?;
        let hh_start = Instant::now();
        let report = spans.time("workloads.heavy_hitters", || {
            detector.identify(&self.values)
        })?;
        let hh_s = secs(hh_start);
        stats.op_done(secs(start) * 1e9);
        stats.collected(2 * n, freq_s + hh_s);

        let model = Self::model(
            pipeline.mechanism(),
            &estimate.true_frequencies,
            &estimate.report_counts,
        )?;
        let observed: Vec<f64> = estimate.estimated.concat();
        let truth: Vec<f64> = estimate.true_frequencies.concat();
        let (deltas, sigmas) = (model.deltas(), model.std_devs());
        if stats.corruption_caught.is_none() {
            stats.corruption_caught = Some(check::corrupted_estimate_fails(
                &observed, &truth, &deltas, &sigmas,
            ));
        }
        let result = (|| {
            check::check_count(
                "frequency reports",
                estimate.report_counts.iter().sum(),
                n * FREQ_M as u64,
            )?;
            check::check_count(
                "heavy-hitter reports",
                report.estimate.report_counts.iter().sum(),
                self.values.len() as u64,
            )?;
            check::check_finite(
                "heavy-hitter frequencies",
                &report.frequencies,
                HH_CATEGORIES,
            )?;
            let recall = precision_recall(&report.selected, &self.heavy).recall;
            if recall < HH_MIN_RECALL {
                return Err(format!("heavy-hitter recall {recall} < {HH_MIN_RECALL}"));
            }
            check::check_mse(&observed, &truth, &deltas, &sigmas).map(|_| ())
        })();
        if result.is_ok() {
            // Mean over dimensions of enhanced MSE / naive MSE.
            let ratio = |enhanced: &[&Vec<f64>]| {
                enhanced
                    .iter()
                    .enumerate()
                    .map(|(j, e)| {
                        let t = &estimate.true_frequencies[j];
                        check::mse(e, t) / check::mse(&estimate.estimated[j], t)
                    })
                    .sum::<f64>()
                    / FREQ_DIMS as f64
            };
            let l1: Vec<&Vec<f64>> = recal.iter().map(|r| &r.0.enhanced).collect();
            let l2: Vec<&Vec<f64>> = recal.iter().map(|r| &r.1.enhanced).collect();
            stats.l1_ratios.push(ratio(&l1));
            stats.l2_ratios.push(ratio(&l2));
        }
        stats.checked(result);
        stats.end_pass();
        Ok(())
    }

    fn collect_with(&self, registry: &Registry) -> Result<bool, BoxError> {
        HeavyHitterDetector::with_telemetry(heavy_hitter_config(self.seed), registry)?
            .identify(&self.values)?;
        Ok(true)
    }
}
