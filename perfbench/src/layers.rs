//! The traced run: per-layer costs, measured from the benchmark's side.
//!
//! Three sources feed the per-layer metrics:
//!
//! * **Spans** around each library call an op makes, recorded by running the
//!   workload's own op loop with [`Spans::on`]. A call the traced workload
//!   does not make is measured the same way on its *home* workload (the one
//!   that exercises it most): `fig4_dense` for the pipeline,
//!   `analytic_sweep` for the framework and solver, `frequency_oracles` for
//!   the frequency pipeline and heavy hitters.
//! * **Isolated per-user and per-entry costs** of each stage of a report's
//!   lifecycle (seed, sample, value, perturb, route, batch, accumulate,
//!   merge, estimate), timed in tight loops at the traced workload's own
//!   `(d, m, mechanism, entries per user)`. `analytic_sweep` collects nothing,
//!   so it measures them at `ingest_sparse`'s configuration.
//! * **One telemetry pass**: a collection with a live registry, for the
//!   flush and reject counters and the registry's throughput cost.
//!
//! The ledger then sets the sum of the isolated per-user costs against the
//! measured cost per user of the workload's collection calls.

use crate::timing::{median, ns_per_call, percentile, secs, Spans};
use crate::workloads::{self as wl, BoxError, RunStats, Scale, Workload};
use hdldp_bench::ingest_driver::user_value;
use hdldp_math::RunningMoments;
use hdldp_mechanisms::{build_mechanism, MechanismKind};
use hdldp_protocol::{
    BudgetSplit, Client, IngestConfig, IngestEngine, ReportBatch, ShardAccumulator, ShardRouter,
};
use hdldp_telemetry::Registry;
use hdldp_workloads::{CategoricalOracle, OracleKind};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each isolated measurement; the median is reported.
const REPS: usize = 9;
/// Pre-generated reports the batch/accumulate loops cycle through.
const REPORT_POOL: usize = 4_096;

/// Everything the traced run produced.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Per-layer metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable notes: the span summary and the ledger.
    pub notes: Vec<String>,
    /// Ops attempted and failed across the traced run's loops.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Check-failure messages.
    pub failures: Vec<String>,
    /// Whether the checker rejected a deliberately corrupted estimate.
    pub corruption_caught: bool,
}

/// Run workload `name` for `budget_s` seconds of whole passes.
fn run_loop(
    w: &mut dyn Workload,
    spans: &mut Spans,
    budget_s: f64,
    max_passes: usize,
) -> Result<RunStats, BoxError> {
    let mut stats = RunStats::default();
    let start = Instant::now();
    while stats.pass_s.is_empty() || (secs(start) < budget_s && stats.pass_s.len() < max_passes) {
        w.pass(spans, &mut stats)?;
    }
    Ok(stats)
}

/// Home workloads, each set up and run for one traced pass on first use.
#[derive(Default)]
struct Homes(BTreeMap<&'static str, (Spans, wl::SetupTimes)>);

impl Homes {
    /// Spans and set-up times of home workload `name`.
    fn get(
        &mut self,
        name: &'static str,
        seed: u64,
        scale: Scale,
    ) -> Result<&(Spans, wl::SetupTimes), BoxError> {
        if !self.0.contains_key(name) {
            let (mut w, times) = wl::setup(name, seed, scale)?;
            let mut spans = Spans::on();
            run_loop(w.as_mut(), &mut spans, 0.0, 1)?;
            self.0.insert(name, (spans, times));
        }
        Ok(&self.0[name])
    }
}

/// The isolated costs of the ingest path for one population of reports.
struct EngineLayers {
    fill_ns: f64,
    route_ns: f64,
    push_ns: f64,
    accumulate_ns: f64,
    ingest_batch_ns: f64,
    merge_us: f64,
    estimate_us: f64,
    shard_skew: f64,
    speedup: f64,
    entries_per_user: f64,
}

/// Time each stage of the ingest path at `dims` with `shards` shards, for
/// users whose reports `fill` produces; `block` users go through the engine
/// for the skew and speed-up figures.
fn engine_layers<F>(
    dims: usize,
    shards: usize,
    block: u64,
    fill: F,
) -> Result<EngineLayers, BoxError>
where
    F: Fn(u64, &mut Vec<(usize, f64)>) -> hdldp_protocol::Result<()> + Sync,
{
    let mut scratch = Vec::new();
    let fill_ns = ns_per_call(REPS, REPORT_POOL, |i| {
        scratch.clear();
        fill(i as u64, &mut scratch).map(|_| scratch.len())
    });

    let mut pool: Vec<Vec<(usize, f64)>> = Vec::with_capacity(REPORT_POOL);
    for user in 0..REPORT_POOL as u64 {
        let mut out = Vec::new();
        fill(user, &mut out)?;
        pool.push(out);
    }
    let entries_per_user = pool.iter().map(Vec::len).sum::<usize>() as f64 / REPORT_POOL as f64;

    let router = ShardRouter::new(shards)?;
    let route_ns = ns_per_call(REPS, 1 << 20, |i| router.route(i as u64));

    let capacity = IngestConfig::DEFAULT_BATCH_CAPACITY;
    let mut batch = ReportBatch::new(dims, capacity)?;
    let push_ns = ns_per_call(REPS, REPORT_POOL, |i| {
        if batch.is_full() {
            batch.clear();
        }
        batch.push_entries(&pool[i]).is_ok()
    });

    let mut acc = ShardAccumulator::new(dims)?;
    let accumulate_ns = ns_per_call(REPS, REPORT_POOL, |i| acc.accumulate(&pool[i]).is_ok());

    let batches: Vec<ReportBatch> = pool
        .chunks(capacity)
        .map(|chunk| {
            let mut b = ReportBatch::new(dims, capacity)?;
            for report in chunk {
                b.push_entries(report)?;
            }
            Ok(b)
        })
        .collect::<Result<_, BoxError>>()?;
    let ingest_batch_ns = ns_per_call(REPS, 1, |_| {
        for b in &batches {
            black_box(acc.ingest_batch(b).is_ok());
        }
    }) / REPORT_POOL as f64;

    let other = acc.clone();
    let merge_us = ns_per_call(REPS, 64, |_| acc.merge(&other).is_ok()) / 1e3;

    let ingest = |shard_count: usize| -> Result<(f64, IngestEngine), BoxError> {
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shard_count, capacity)?)?;
        let start = Instant::now();
        engine.ingest_partitioned(0..block, &fill)?;
        Ok((secs(start), engine))
    };
    let mut one = Vec::new();
    let mut many = Vec::new();
    let mut engine = None;
    for _ in 0..3 {
        one.push(ingest(1)?.0);
        let (t, e) = ingest(shards)?;
        many.push(t);
        engine = Some(e);
    }
    let engine = engine.ok_or("no engine")?;
    let loads = engine.shard_loads();
    let shard_skew = *loads.iter().max().ok_or("no shards")? as f64
        / (*loads.iter().min().ok_or("no shards")?).max(1) as f64;
    let estimate_us = ns_per_call(REPS, 16, |_| engine.estimated_means().map(|m| m.len())) / 1e3;

    Ok(EngineLayers {
        fill_ns,
        route_ns,
        push_ns,
        accumulate_ns,
        ingest_batch_ns,
        merge_us,
        estimate_us,
        shard_skew,
        speedup: median(&one) / median(&many),
        entries_per_user,
    })
}

/// Per-entry perturbation cost of `kind` at per-dimension budget `eps`.
fn perturb_ns(kind: MechanismKind, eps: f64) -> Result<f64, BoxError> {
    let mechanism = build_mechanism(kind, eps)?;
    let mut rng = StdRng::seed_from_u64(7);
    Ok(ns_per_call(REPS, 1 << 16, |i| {
        mechanism.perturb((i % 64) as f64 / 64.0 - 0.25, &mut rng)
    }))
}

/// Per-user cost of a categorical oracle's report at the heavy-hitter
/// configuration.
fn oracle_perturb_ns(kind: OracleKind) -> Result<f64, BoxError> {
    let oracle = CategoricalOracle::new(kind, wl::HH_CATEGORIES, wl::HH_EPS)?;
    let mut rng = StdRng::seed_from_u64(11);
    let mut out = Vec::with_capacity(wl::HH_CATEGORIES);
    Ok(ns_per_call(REPS, 2_048, |i| {
        out.clear();
        oracle
            .perturb_into(i % wl::HH_CATEGORIES, &mut rng, &mut out)
            .map(|_| out.len())
    }))
}

/// Per-user cost of choosing `m` of `d` dimensions.
fn sample_ns(d: usize, m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    ns_per_call(REPS, 1 << 14, |_| sample(&mut rng, d, m).len())
}

/// Run the traced measurement of workload `name`.
pub fn trace(name: &str, seed: u64, seconds: f64, scale: Scale) -> Result<TraceReport, BoxError> {
    let mut report = TraceReport {
        corruption_caught: true,
        ..TraceReport::default()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The workload's own op loop, untraced then traced, a third of the run each.
    let (mut w, own_times) = wl::setup(name, seed, scale)?;
    let plain = run_loop(w.as_mut(), &mut Spans::off(), seconds / 3.0, usize::MAX)?;
    let mut spans = Spans::on();
    let traced = run_loop(w.as_mut(), &mut spans, seconds / 3.0, usize::MAX)?;
    for stats in [&plain, &traced] {
        report.attempted += stats.attempted;
        report.failed += stats.failed;
        report.failures.extend(stats.failures.iter().cloned());
        report.corruption_caught &= stats.corruption_caught.unwrap_or(true);
    }
    report.notes.extend(spans.summary());
    let v = &mut report.values;
    v.insert(
        "trace.overhead_ratio",
        percentile(&traced.op_ns, 0.5) / percentile(&plain.op_ns, 0.5),
    );

    // Spans: the workload's own where it makes the call, else its home's.
    let mut homes = Homes::default();
    let calls: [(&'static str, &str, &'static str, f64); 9] = [
        (
            "protocol.pipeline.run_ms",
            "protocol.pipeline.run",
            "fig4_dense",
            1e6,
        ),
        (
            "protocol.frequency.run_ms",
            "protocol.frequency.run",
            "frequency_oracles",
            1e6,
        ),
        (
            "workloads.heavy_hitters_ms",
            "workloads.heavy_hitters",
            "frequency_oracles",
            1e6,
        ),
        (
            "core.recalibrate_frequencies_us",
            "core.recalibrate_frequencies",
            "frequency_oracles",
            1e3 * 2.0 * wl::FREQ_DIMS as f64,
        ),
        (
            "framework.deviation_model_ms",
            "framework.deviation_model",
            "analytic_sweep",
            1e6,
        ),
        (
            "framework.box_probability_us",
            "framework.box_probability",
            "analytic_sweep",
            1e3,
        ),
        (
            "framework.improvement_probability_us",
            "framework.improvement_probability",
            "analytic_sweep",
            1e3,
        ),
        (
            "core.lambda_weights_us",
            "core.lambda_weights",
            "analytic_sweep",
            1e3,
        ),
        ("core.solve_us", "core.solve", "analytic_sweep", 1e3),
    ];
    for (metric, span, home, scale_to) in calls {
        let ns = match spans.median_ns(span) {
            Some(ns) => ns,
            None => homes
                .get(home, seed, scale)?
                .0
                .median_ns(span)
                .ok_or_else(|| format!("{metric}: span `{span}` not recorded on {home}"))?,
        };
        v.insert(metric, ns / scale_to);
    }

    // Set-up phases: the workload's own inputs, else its data's home.
    let generate_s = match name {
        "ingest_sparse" => homes.get("fig4_dense", seed, scale)?.1.generate_s,
        _ => own_times.generate_s,
    };
    let profiles_ms = match name {
        "fig4_dense" | "analytic_sweep" => own_times.profiles_ms,
        _ => homes.get("analytic_sweep", seed, scale)?.1.profiles_ms,
    };
    v.insert("data.generate_s", generate_s);
    v.insert("data.column_profiles_ms", profiles_ms);

    // Isolated per-user and per-entry costs.
    v.insert(
        "rand.seed_ns",
        ns_per_call(REPS, 1 << 16, |i| StdRng::seed_from_u64(i as u64)),
    );
    v.insert(
        "ingest_driver.user_value_ns",
        ns_per_call(REPS, 1 << 16, |i| {
            user_value(seed, i as u64, i % wl::INGEST_DIMS)
        }),
    );
    v.insert(
        "workloads.oracle_perturb_ns.grr",
        oracle_perturb_ns(OracleKind::Grr)?,
    );
    v.insert(
        "workloads.oracle_perturb_ns.oue",
        oracle_perturb_ns(OracleKind::Oue)?,
    );
    {
        let mut moments = RunningMoments::new();
        v.insert(
            "math.running_moments_push_ns",
            ns_per_call(REPS, 1 << 16, |i| moments.push(i as f64 * 1e-6)),
        );
    }

    // The ingest configuration, shared by ingest_sparse and (as its home)
    // analytic_sweep, and the home of the client cost on frequency_oracles.
    let ingest_budget = BudgetSplit::new(wl::INGEST_EPS, wl::INGEST_M)?;
    let laplace = build_mechanism(MechanismKind::Laplace, ingest_budget.per_dimension())?;
    let ingest_client = Client::new(laplace.as_ref(), ingest_budget, wl::INGEST_DIMS)?;
    let lazy = wl::lazy_fill(&ingest_client, seed);

    // The client alone, with one generator across calls so that no seeding
    // is counted.
    let mut client_rng = StdRng::seed_from_u64(seed);
    let mut client_out = Vec::new();
    let lazy_client_ns = ns_per_call(REPS, REPORT_POOL, |i| {
        client_out.clear();
        ingest_client.perturb_lazy_into(
            |dim| user_value(seed, i as u64, dim),
            &mut client_rng,
            &mut client_out,
        );
        client_out.len()
    });

    let (sample_dm, per_dim_eps, client_ns, engine, engine_shards) = match name {
        "fig4_dense" => {
            let data = hdldp_data::GaussianDataset::new(scale.fig4_users, scale.fig4_dims)?
                .generate(&mut StdRng::seed_from_u64(seed));
            let d = data.dims();
            let budget = BudgetSplit::new(wl::FIG4_TRACE_EPS, d)?;
            let rows = (0..REPORT_POOL)
                .map(|i| data.row(i % data.users()))
                .collect::<Result<Vec<_>, _>>()?;
            let mut client_ns = Vec::new();
            let mut fill_ns = Vec::new();
            let mut layers = None;
            for kind in MechanismKind::PAPER_EVALUATED {
                let mechanism = build_mechanism(kind, budget.per_dimension())?;
                let client = Client::new(mechanism.as_ref(), budget, d)?;
                client_ns.push(ns_per_call(REPS, REPORT_POOL, |i| {
                    client_out.clear();
                    client
                        .perturb_tuple_into(rows[i], &mut client_rng, &mut client_out)
                        .map(|_| client_out.len())
                }));
                let row_fill = |user: u64, out: &mut Vec<(usize, f64)>| {
                    let mut rng = StdRng::seed_from_u64(wl::user_seed(seed, user));
                    let row = data
                        .row(user as usize % data.users())
                        .map_err(hdldp_protocol::ProtocolError::from)?;
                    client.perturb_tuple_into(row, &mut rng, out)
                };
                let l = engine_layers(d, wl::WORKERS, data.users() as u64 / 5, row_fill)?;
                fill_ns.push(l.fill_ns);
                layers = Some(l);
            }
            // The op loop mixes the three mechanisms evenly, so the client and
            // fill costs are their mean; the ingest path does not depend on them.
            let mut layers = layers.ok_or("no mechanisms")?;
            layers.fill_ns = crate::timing::mean(&fill_ns);
            (
                (d, d),
                budget.per_dimension(),
                crate::timing::mean(&client_ns),
                layers,
                // MeanEstimationPipeline shards by host threads.
                nproc,
            )
        }
        "frequency_oracles" => {
            let oracle = CategoricalOracle::new(OracleKind::Oue, wl::HH_CATEGORIES, wl::HH_EPS)?;
            let values = hdldp_workloads::planted_dataset(
                scale.freq_users,
                wl::HH_CATEGORIES,
                wl::HH_HEAVY,
                wl::HH_MASS,
                seed ^ 0x5EED,
            )?
            .0;
            let oue_fill = |user: u64, out: &mut Vec<(usize, f64)>| {
                let mut rng = StdRng::seed_from_u64(wl::user_seed(seed, user));
                oracle
                    .perturb_into(values[user as usize % values.len()], &mut rng, out)
                    .map_err(|e| hdldp_protocol::ProtocolError::InvalidConfig {
                        name: "oracle",
                        reason: e.to_string(),
                    })
            };
            let layers = engine_layers(
                wl::HH_CATEGORIES,
                wl::HH_SHARDS,
                scale.freq_users as u64,
                oue_fill,
            )?;
            (
                (wl::FREQ_DIMS, wl::FREQ_M),
                BudgetSplit::new(wl::FREQ_EPS, wl::FREQ_M)?.per_frequency_entry(),
                // No `Client` here: its home is the ingest configuration.
                lazy_client_ns,
                layers,
                wl::HH_SHARDS,
            )
        }
        _ => (
            (wl::INGEST_DIMS, wl::INGEST_M),
            ingest_budget.per_dimension(),
            lazy_client_ns,
            engine_layers(
                wl::INGEST_DIMS,
                wl::INGEST_SHARDS,
                scale.ingest_block,
                &lazy,
            )?,
            wl::INGEST_SHARDS,
        ),
    };

    v.insert("rand.sample_ns", sample_ns(sample_dm.0, sample_dm.1));
    v.insert(
        "mechanisms.perturb_ns.laplace",
        perturb_ns(MechanismKind::Laplace, per_dim_eps)?,
    );
    v.insert(
        "mechanisms.perturb_ns.piecewise",
        perturb_ns(MechanismKind::Piecewise, per_dim_eps)?,
    );
    v.insert(
        "mechanisms.perturb_ns.square_wave",
        perturb_ns(MechanismKind::SquareWave, per_dim_eps)?,
    );
    v.insert("protocol.client.perturb_ns", client_ns);
    v.insert("protocol.shard.route_ns", engine.route_ns);
    v.insert("protocol.ingest.push_ns", engine.push_ns);
    v.insert("protocol.shard.accumulate_ns", engine.accumulate_ns);
    v.insert("protocol.shard.ingest_batch_ns", engine.ingest_batch_ns);
    v.insert("protocol.shard.merge_us", engine.merge_us);
    v.insert("protocol.ingest.estimate_us", engine.estimate_us);
    v.insert("protocol.ingest.shard_skew", engine.shard_skew);
    v.insert("protocol.ingest.speedup_1_to_n", engine.speedup);
    // Computed from the configuration: every worker walks every user and
    // keeps the ones routed to it, so 1 route call in S is useful.
    v.insert(
        "protocol.ingest.route_useful_ratio",
        1.0 / engine_shards as f64,
    );

    // Telemetry: registry cost on the ingest path, and the counters of one
    // collection of this workload (ingest_sparse's for analytic_sweep).
    let ingest_users_per_s = |registry: &Registry| -> Result<f64, BoxError> {
        let mut engine = wl::ingest_engine(registry)?;
        let start = Instant::now();
        engine.ingest_partitioned(0..scale.ingest_block, &lazy)?;
        Ok(scale.ingest_block as f64 / secs(start))
    };
    let mut live = Vec::new();
    let mut off = Vec::new();
    for _ in 0..REPS {
        live.push(ingest_users_per_s(&Registry::new())?);
        off.push(ingest_users_per_s(&Registry::disabled())?);
    }
    v.insert("telemetry.overhead_ratio", median(&live) / median(&off));
    let registry = Registry::new();
    if !w.collect_with(&registry)? {
        ingest_users_per_s(&registry)?;
    }
    let snapshot = registry.snapshot();
    v.insert(
        "telemetry.flushes",
        snapshot.counter("ingest_batch_flushes_total").unwrap_or(0) as f64,
    );
    v.insert(
        "telemetry.rejects",
        snapshot.counter("ingest_rejects_total").unwrap_or(0) as f64,
    );

    // Ledger: isolated per-user costs against the measured cost per user.
    let seed_ns = v["rand.seed_ns"];
    let engine_per_user = |l: &EngineLayers, shards: usize, users_per_op: f64| {
        shards as f64 * l.route_ns
            + l.push_ns
            + l.ingest_batch_ns
            + (shards as f64 * l.merge_us + l.estimate_us) * 1e3 / users_per_op
    };
    let (measured, isolated, parts) = match name {
        "ingest_sparse" => {
            let workers = nproc.min(wl::INGEST_SHARDS) as f64;
            let measured = 1e9 * workers / median(&plain.user_rates);
            let path = engine_per_user(&engine, wl::INGEST_SHARDS, scale.ingest_block as f64);
            let isolated = engine.fill_ns + path;
            let parts = format!(
                "fill {:.1} (seed {seed_ns:.1}, client {client_ns:.1}: sample {:.1}, {m}×value {:.1}, {m}×perturb {:.1}) + ingest path {path:.1}",
                engine.fill_ns,
                v["rand.sample_ns"],
                wl::INGEST_M as f64 * v["ingest_driver.user_value_ns"],
                wl::INGEST_M as f64 * v["mechanisms.perturb_ns.laplace"],
                m = wl::INGEST_M,
            );
            (measured, isolated, parts)
        }
        "fig4_dense" => {
            let users = scale.fig4_users as f64;
            let measured = spans
                .mean_ns("protocol.pipeline.run")
                .ok_or("no pipeline span")?
                * nproc as f64
                / users;
            let path = engine_per_user(&engine, engine_shards, users);
            let isolated = engine.fill_ns + path;
            let parts = format!(
                "fill {:.1} (seed {seed_ns:.1}, client {client_ns:.1}, {:.0} entries) + ingest path {path:.1} at {engine_shards} shards",
                engine.fill_ns, engine.entries_per_user
            );
            (measured, isolated, parts)
        }
        "frequency_oracles" => {
            let users = scale.freq_users as f64;
            let measured = (spans
                .mean_ns("protocol.frequency.run")
                .ok_or("no frequency span")?
                + spans
                    .mean_ns("workloads.heavy_hitters")
                    .ok_or("no heavy-hitter span")?)
                * nproc as f64
                / users;
            let entries = (wl::FREQ_M * wl::FREQ_CATEGORIES) as f64;
            let frequency = seed_ns
                + v["rand.sample_ns"]
                + entries
                    * (v["mechanisms.perturb_ns.piecewise"] + v["math.running_moments_push_ns"]);
            let heavy = seed_ns
                + v["workloads.oracle_perturb_ns.oue"]
                + engine_per_user(&engine, wl::HH_SHARDS, users);
            let parts = format!(
                "frequency pipeline {frequency:.1} + heavy hitters {heavy:.1} ({:.0} entries)",
                engine.entries_per_user
            );
            (measured, frequency + heavy, parts)
        }
        _ => {
            // An op evaluates every mechanism kind once, each for `users`.
            let users = scale.analytic_users as f64;
            let kinds = MechanismKind::ALL.len() as f64;
            let measured = crate::timing::mean(&traced.op_ns) / (users * kinds);
            let mut isolated = 0.0;
            for span in [
                "framework.deviation_model",
                "framework.box_probability",
                "framework.improvement_probability",
                "core.lambda_weights",
                "core.solve",
            ] {
                isolated += spans.mean_ns(span).ok_or("missing analytic span")?;
            }
            (
                measured,
                isolated / users,
                "sum of the op's call spans".to_string(),
            )
        }
    };
    v.insert("ledger.ns_per_user", measured);
    v.insert("ledger.isolated_ns_per_user", isolated);
    v.insert("ledger.unattributed_share", 1.0 - isolated / measured);
    report.notes.push(format!(
        "ledger {name}: measured {measured:.1} ns/user, isolated {isolated:.1} ns/user = {parts}; unattributed {:.1}%",
        100.0 * (1.0 - isolated / measured)
    ));
    Ok(report)
}
