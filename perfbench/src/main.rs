//! End-to-end and per-layer benchmark of the hdldp workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up time), runs whole passes of ops for `--seconds`, checks every
//! op's output, and prints the end-to-end metrics. With `--trace 1` it runs
//! the traced measurement of `layers` instead and prints the per-layer
//! metrics. The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any error exits non-zero
//! without printing a result.

mod check;
mod layers;
mod timing;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use timing::{geometric_mean, median, peak_rss_mb, percentile, secs, Spans};
use workloads::{BoxError, RunStats, Scale};

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET_S` seconds of set-up, at most `SETUP_MAX_REPS`. `setup_s` is
/// their median, so a cheap set-up is sampled across more of the run.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;

/// Note printed when the checker's own self-check fails.
const CORRUPTION_MISSED: &str = "self-check: an estimate scaled by 2 passed the MSE check";

/// End-to-end metrics: name and unit, printed with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("users_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("recal_l1_mse_ratio", "ratio"),
    ("recal_l2_mse_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, printed by the traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("rand.seed_ns", "ns"),
    ("rand.sample_ns", "ns"),
    ("mechanisms.perturb_ns.laplace", "ns"),
    ("mechanisms.perturb_ns.piecewise", "ns"),
    ("mechanisms.perturb_ns.square_wave", "ns"),
    ("ingest_driver.user_value_ns", "ns"),
    ("protocol.client.perturb_ns", "ns"),
    ("protocol.shard.route_ns", "ns"),
    ("protocol.shard.accumulate_ns", "ns"),
    ("protocol.shard.ingest_batch_ns", "ns"),
    ("protocol.shard.merge_us", "us"),
    ("protocol.ingest.push_ns", "ns"),
    ("protocol.ingest.route_useful_ratio", "ratio"),
    ("protocol.ingest.shard_skew", "ratio"),
    ("protocol.ingest.speedup_1_to_n", "ratio"),
    ("protocol.ingest.estimate_us", "us"),
    ("protocol.pipeline.run_ms", "ms"),
    ("protocol.frequency.run_ms", "ms"),
    ("workloads.heavy_hitters_ms", "ms"),
    ("workloads.oracle_perturb_ns.grr", "ns"),
    ("workloads.oracle_perturb_ns.oue", "ns"),
    ("math.running_moments_push_ns", "ns"),
    ("data.generate_s", "s"),
    ("data.column_profiles_ms", "ms"),
    ("framework.deviation_model_ms", "ms"),
    ("framework.box_probability_us", "us"),
    ("framework.improvement_probability_us", "us"),
    ("core.lambda_weights_us", "us"),
    ("core.solve_us", "us"),
    ("core.recalibrate_frequencies_us", "us"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.flushes", "count"),
    ("telemetry.rejects", "count"),
    ("ledger.ns_per_user", "ns"),
    ("ledger.isolated_ns_per_user", "ns"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, BoxError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}").into()),
                })
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`").into());
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}").into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

/// Untraced run: set up several times, then whole passes for `seconds`.
fn run_end_to_end(args: &Args, scale: Scale) -> Result<Outcome, BoxError> {
    let mut setups = Vec::with_capacity(SETUP_MAX_REPS);
    let mut workload = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::setup(&args.workload, args.seed, scale)?.0);
        setups.push(secs(start));
    }
    let mut w = workload.ok_or("no set-up ran")?;

    let mut stats = RunStats::default();
    let mut spans = Spans::off();
    let start = Instant::now();
    while stats.pass_s.is_empty() || secs(start) < args.seconds {
        w.pass(&mut spans, &mut stats)?;
    }
    w.finish(&mut stats)?;

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setups));
    // A shared host drifts between a fast and a slow state every few
    // seconds, and the share of the run spent in each varies from run to run.
    // A median or a minimum then lands in either state depending on the run;
    // the slow tail (the 90th-percentile pass and op, the 10th-percentile
    // rate) is held by the slow state, which every run reaches.
    metrics.insert("wall_s", percentile(&stats.pass_s, 0.9));
    metrics.insert("users_per_s", percentile(&stats.pass_rates, 0.1));
    metrics.insert("op_ms_p90", percentile(&stats.op_ns, 0.9) / 1e6);
    metrics.insert("recal_l1_mse_ratio", geometric_mean(&stats.l1_ratios));
    metrics.insert("recal_l2_mse_ratio", geometric_mean(&stats.l2_ratios));
    metrics.insert("peak_rss_mb", peak_rss_mb());

    let mut notes = vec![
        format!(
            "ops {} in {} passes; error_rate {}",
            stats.op_ns.len(),
            stats.pass_s.len(),
            stats.failed as f64 / stats.attempted.max(1) as f64
        ),
        format!("setup_s samples {setups:?}"),
    ];
    let corruption_ok = stats.corruption_caught.unwrap_or(true);
    if !corruption_ok {
        notes.push(CORRUPTION_MISSED.into());
    }
    notes.extend(stats.failures.iter().map(|f| format!("check failed: {f}")));
    Ok(Outcome {
        correct: stats.failed == 0 && corruption_ok && stats.attempted > 0,
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        notes,
    })
}

/// Traced run: the per-layer metrics.
fn run_traced(args: &Args, scale: Scale) -> Result<Outcome, BoxError> {
    let report = layers::trace(&args.workload, args.seed, args.seconds, scale)?;
    let mut notes = report.notes;
    if !report.corruption_caught {
        notes.push(CORRUPTION_MISSED.into());
    }
    notes.extend(report.failures.iter().map(|f| format!("check failed: {f}")));
    Ok(Outcome {
        correct: report.failed == 0 && report.corruption_caught && report.attempted > 0,
        attempted: report.attempted,
        failed: report.failed,
        metrics: report.values,
        notes,
    })
}

fn run(args: &Args, scale: Scale) -> Result<Outcome, BoxError> {
    if args.trace {
        run_traced(args, scale)
    } else {
        run_end_to_end(args, scale)
    }
}

/// Escape a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run manifest: everything besides the code that a result depends on.
fn manifest(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"workers\": {}, \"ingest_shards\": {}, \"heavy_hitter_shards\": {}, \
         \"pipeline_shards\": {nproc}, \"nproc\": {nproc}, \"rustc\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::WORKERS,
        workloads::INGEST_SHARDS,
        workloads::HH_SHARDS,
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

/// The result line, with exactly the declared metrics of the run's kind.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, BoxError> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}").into());
        }
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, Scale::FULL) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&outcome, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        println!("{name:<40} {:>16.6} {unit}", outcome.metrics[name]);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", manifest(&args));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let args = Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.2,
            trace,
        };
        run(&args, Scale::SMOKE).unwrap()
    }

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Declaration {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    #[derive(serde::Deserialize)]
    struct ResultLine {
        correct: bool,
        attempted: u64,
        failed: u64,
    }

    /// Names and units declared in the repository's BENCHMARK.json.
    fn declared(trace: bool) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let decl: Declaration = serde_json::from_str(text).unwrap();
        let section = if trace {
            decl.per_layer
        } else {
            decl.end_to_end
        };
        section.into_iter().map(|m| (m.name, m.unit)).collect()
    }

    fn table(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_the_benchmark_declaration() {
        assert_eq!(declared(false), table(&END_TO_END));
        assert_eq!(declared(true), table(&PER_LAYER));
    }

    /// Every workload at tiny size: every declared metric present with its
    /// unit and a finite value, and error_rate 0.
    #[test]
    fn smoke_every_workload() {
        for workload in workloads::NAMES {
            for trace in [false, true] {
                let outcome = smoke(workload, trace);
                let context = format!("{workload} trace={trace}: {:?}", outcome.notes);
                let line = result_line(&outcome, trace).unwrap();
                let parsed: ResultLine = serde_json::from_str(&line).unwrap();
                assert!(parsed.correct, "{context}");
                assert!(parsed.attempted > 0, "{context}");
                assert_eq!(parsed.failed, 0, "{context}");
                for (name, unit) in declared(trace) {
                    let value = outcome.metrics.get(name.as_str()).copied();
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{context}: {name} = {value:?}"
                    );
                    let key = format!("\"{name}\": {{\"value\": ");
                    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing"));
                    let rest = &line[at + key.len()..];
                    let end = rest.find('}').unwrap();
                    assert!(
                        rest[..=end].ends_with(&format!(", \"unit\": \"{unit}\"}}")),
                        "{name}: {}",
                        &rest[..=end]
                    );
                }
            }
        }
    }

    #[test]
    fn result_line_rejects_missing_and_non_finite_metrics() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(name, _)| (name, 1.5)).collect(),
            notes: Vec::new(),
        };
        assert!(result_line(&outcome, false).is_ok());
        assert!(result_line(&outcome, true).is_err());
        outcome.metrics.insert("wall_s", f64::NAN);
        assert!(result_line(&outcome, false).is_err());
        outcome.metrics.remove("wall_s");
        assert!(result_line(&outcome, false).is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload fig4_dense --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload fig4_dense --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fig4_dense --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload fig4_dense --seed 1 --seconds 10").is_err());
        assert!(parse("--workload fig4_dense --seed 1 --seconds 10 --trace 0 --x 1").is_err());
    }
}
