//! Timing helpers: order statistics, per-call microbenchmarks, the span
//! recorder the traced run wraps around each library call, and peak memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (which need not be
/// sorted). Returns `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive `values`: the average for ratios, under which
/// a 10× gain and a 10× loss cancel (`NaN` for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    mean(&values.iter().map(|v| v.ln()).collect::<Vec<_>>()).exp()
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds per call of `f`: the median over `reps` repetitions of the
/// mean over `iters` back-to-back calls. `f` receives the call index so that
/// inputs can vary per call; its result goes through `black_box`.
pub fn ns_per_call<T>(reps: usize, iters: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                black_box(f(black_box(i)));
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Span recorder for the traced run.
///
/// Each call wrapped in [`Spans::time`] is timed and its duration appended
/// under the span's name; with recording off, `time` only calls the
/// closure, so the untimed and traced loops run identical code.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// A recorder that times every wrapped call.
    pub fn on() -> Self {
        Self {
            on: true,
            samples: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// Run `f`, recording its duration in nanoseconds under `name` when on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.samples.entry(name).or_default().push(ns);
        out
    }

    /// Median duration of span `name` in nanoseconds, if it was recorded.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// One line per recorded span: name, call count and median duration.
    pub fn summary(&self) -> Vec<String> {
        self.samples
            .iter()
            .map(|(name, v)| {
                format!(
                    "span {name}: {} calls, median {:.1} us",
                    v.len(),
                    median(v) / 1e3
                )
            })
            .collect()
    }

    /// Mean duration of span `name` in nanoseconds, if it was recorded.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| mean(v))
    }
}

/// Peak resident set size of this process image in MiB: `VmHWM` from
/// `/proc/self/status` (`NaN` where that is unavailable). `getrusage`'s
/// `ru_maxrss` would not do: Linux carries it across `exec`, so it would
/// report the launching `cargo` process's footprint whenever that is larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert!((geometric_mean(&[0.1, 10.0]) - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn spans_record_only_when_on() {
        let mut off = Spans::off();
        assert_eq!(off.time("a", || 7), 7);
        assert!(off.median_ns("a").is_none());
        let mut on = Spans::on();
        on.time("a", || 1);
        on.time("a", || 2);
        assert!(on.median_ns("a").is_some());
    }

    #[test]
    fn peak_rss_is_positive() {
        let rss = peak_rss_mb();
        assert!(rss > 0.0 && rss.is_finite(), "{rss}");
    }
}
