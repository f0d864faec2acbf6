//! The sharded ingest engine: the collector-side path that scales the
//! paper's aggregation to millions of users.
//!
//! The single-loop [`crate::Aggregator`] is the *reference* implementation of
//! the calibration + aggregation phase (Section IV-B), kept as a test
//! oracle; this module is the production path, built on two pieces:
//!
//! * [`crate::ShardRouter`] — hash-partitions reports across shards by user
//!   id, independent of arrival order and thread count.
//! * [`crate::ShardAccumulator`] — per-shard partial sums/counts per
//!   dimension, merged **on read**.
//!
//! Every report is accumulated straight into its shard, so the hot loop is
//! one indexed add per entry, shard-local and allocation-free. The resulting
//! [`IngestEngine`] produces exactly the same estimated means as the single
//! loop — per-dimension sums and counts are order-insensitive up to
//! floating-point rounding, and the integration tests assert bit-for-bit
//! equality on inputs where addition is exact.
//!
//! Floating-point summation order does depend on the shard count, so this
//! module is the one place that fixes it ([`IngestConfig::DEFAULT_SHARDS`])
//! and the one place that seeds users ([`IngestEngine::collect`]). Worker
//! threads only decide which shards run side by side, never which reports a
//! shard sees or in what order, so a pipeline's estimate depends only on its
//! `(config, seed)`, not on the host's core count.
//!
//! ```
//! use hdldp_protocol::{IngestConfig, IngestEngine, Report};
//!
//! let mut engine = IngestEngine::new(4, IngestConfig::new(8, 256).unwrap()).unwrap();
//! engine.submit(7, &Report::new(vec![(0, 0.5), (3, -1.0)])).unwrap();
//! engine.submit(8, &Report::new(vec![(1, 1.0), (2, 0.0)])).unwrap();
//! assert_eq!(engine.reports(), 2);
//! let merged = engine.merged().unwrap();
//! assert_eq!(merged.counts(), &[1, 1, 1, 1]);
//! ```

use crate::shard::{ShardAccumulator, ShardRouter};
use crate::telemetry::{IngestMetrics, Tick};
use crate::{user_seed, ProtocolError, Report};
use hdldp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// A bounded, flat batch of reports.
///
/// [`IngestEngine`] does not use it: the engine accumulates every report
/// directly into its shard. The type remains for callers that buffer reports
/// themselves and drain them with [`ShardAccumulator::ingest_batch`].
///
/// Entries are stored as one contiguous array of `(u32 dimension index,
/// f64 perturbed value)` pairs plus report-boundary offsets, so pushing a
/// report never allocates and the accumulate loop scans contiguous memory.
/// Capacity is bounded in *reports*; a full batch must be drained (ingested
/// into a [`ShardAccumulator`] and [`cleared`](ReportBatch::clear)) before
/// more reports are pushed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBatch {
    dims: usize,
    capacity: usize,
    entries: Vec<(u32, f64)>,
    offsets: Vec<u32>,
}

impl ReportBatch {
    /// Create an empty batch for `dims`-dimensional reports holding at most
    /// `capacity` reports.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` or `capacity` is
    /// zero, or when `dims` exceeds `u32::MAX` (the index storage width).
    pub fn new(dims: usize, capacity: usize) -> crate::Result<Self> {
        if dims == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: "dimensionality must be positive".into(),
            });
        }
        if dims > u32::MAX as usize {
            return Err(ProtocolError::InvalidConfig {
                name: "dims",
                reason: format!("dimensionality {dims} exceeds the u32 index range"),
            });
        }
        if capacity == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "batch_capacity",
                reason: "batch capacity must be positive".into(),
            });
        }
        Ok(Self {
            dims,
            capacity,
            entries: Vec::new(),
            offsets: vec![0],
        })
    }

    /// The dimensionality `d` entries are validated against.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Maximum number of reports the batch holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of reports currently buffered.
    pub fn reports(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of `(dimension, value)` entries currently buffered.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no report is buffered.
    pub fn is_empty(&self) -> bool {
        self.reports() == 0
    }

    /// `true` when the batch holds `capacity` reports and must be drained.
    pub fn is_full(&self) -> bool {
        self.reports() >= self.capacity
    }

    /// Append one report given as `(dimension, value)` entries.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when the batch is full and
    /// [`ProtocolError::DimensionOutOfRange`] when an entry mentions a
    /// dimension `>= dims`; the batch is untouched in both cases.
    pub fn push_entries(&mut self, entries: &[(usize, f64)]) -> crate::Result<()> {
        if self.is_full() {
            return Err(ProtocolError::InvalidConfig {
                name: "batch",
                reason: format!("batch is full ({} reports)", self.capacity),
            });
        }
        // Validate while copying; a partial append is rolled back below, so
        // the batch is still untouched on error without a second scan.
        let base = self.entries.len();
        for &(dim, value) in entries {
            if dim >= self.dims {
                self.entries.truncate(base);
                return Err(ProtocolError::DimensionOutOfRange {
                    dimension: dim,
                    dims: self.dims,
                });
            }
            self.entries.push((dim as u32, value));
        }
        self.offsets.push(self.entries.len() as u32);
        Ok(())
    }

    /// Append one wire-format [`Report`].
    ///
    /// # Errors
    /// Same conditions as [`ReportBatch::push_entries`].
    pub fn push_report(&mut self, report: &Report) -> crate::Result<()> {
        self.push_entries(report.entries())
    }

    /// The flat `(dimension index, value)` entries across all buffered
    /// reports (report boundaries are irrelevant to sum/count accumulation).
    pub fn flat_entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The entries of the `i`-th buffered report.
    ///
    /// Returns `None` when `i >= reports()`.
    pub fn report(&self, i: usize) -> Option<&[(u32, f64)]> {
        if i >= self.reports() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        Some(&self.entries[lo..hi])
    }

    /// Drop all buffered reports, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.offsets.truncate(1);
    }
}

/// Configuration of an [`IngestEngine`]: shard count and telemetry tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    shards: usize,
    batch_capacity: usize,
}

impl IngestConfig {
    /// Default shard count. The merge-on-read summation order, and with it
    /// the floating-point estimate, depends on the shard count, so the
    /// default is a constant rather than the host's core count.
    pub const DEFAULT_SHARDS: usize = 4;

    /// Default number of reports per shard between two telemetry ticks.
    pub const DEFAULT_BATCH_CAPACITY: usize = 256;

    /// Create a config with `shards` shards that publish their ingest
    /// counters once every `batch_capacity` reports.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when either is zero.
    pub fn new(shards: usize, batch_capacity: usize) -> crate::Result<Self> {
        if shards == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "shards",
                reason: "shard count must be positive".into(),
            });
        }
        if batch_capacity == 0 {
            return Err(ProtocolError::InvalidConfig {
                name: "batch_capacity",
                reason: "batch capacity must be positive".into(),
            });
        }
        Ok(Self {
            shards,
            batch_capacity,
        })
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The telemetry tick: reports per shard between two publications of
    /// the ingest counters.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }
}

impl Default for IngestConfig {
    /// [`IngestConfig::DEFAULT_SHARDS`] shards, each ticking every
    /// [`IngestConfig::DEFAULT_BATCH_CAPACITY`] reports.
    fn default() -> Self {
        Self {
            shards: Self::DEFAULT_SHARDS,
            batch_capacity: Self::DEFAULT_BATCH_CAPACITY,
        }
    }
}

/// The sharded ingest engine.
///
/// Reports enter either one at a time via [`submit`](IngestEngine::submit)
/// or in bulk via [`ingest_partitioned`](IngestEngine::ingest_partitioned)
/// and [`collect`](IngestEngine::collect) (parallel workers, each owning a
/// block of shards — no locks, no cross-shard traffic). Either way a report
/// is accumulated straight into its shard's [`ShardAccumulator`], so the
/// shards are always current. Estimates are produced by **merge-on-read**:
/// [`merged`](IngestEngine::merged) folds the per-shard partials into one
/// accumulator without disturbing ingest state.
///
/// Both paths accumulate each shard's reports in increasing user-id order,
/// so for a fixed shard count the engine's state is a pure function of the
/// submitted reports — independent of thread count and scheduling. The shard
/// count itself comes from the [`IngestConfig`], never from the host.
///
/// Engines built with [`IngestEngine::with_telemetry`] record runtime metrics
/// (reports, rejects, merge latency, per-shard load) into the given
/// [`Registry`] once per *tick* — every [`IngestConfig::batch_capacity`]
/// reports per shard — so the per-report paths perform no atomic traffic.
/// [`IngestEngine::new`] wires the engine to a disabled registry, which
/// reduces every recording site to one branch.
#[derive(Debug, Clone)]
pub struct IngestEngine {
    dims: usize,
    router: ShardRouter,
    batch_capacity: usize,
    shards: Vec<ShardAccumulator>,
    /// The submit path's unpublished telemetry tick, per shard.
    ticks: Vec<Tick>,
    metrics: IngestMetrics,
}

impl IngestEngine {
    /// Create an engine for `dims`-dimensional reports with telemetry
    /// disabled (equivalent to [`IngestEngine::with_telemetry`] against
    /// [`Registry::disabled`]).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] when `dims` is zero.
    pub fn new(dims: usize, config: IngestConfig) -> crate::Result<Self> {
        Self::with_telemetry(dims, config, &Registry::disabled())
    }

    /// Create an engine that records runtime metrics into `registry` (see the
    /// metric table in [`crate::telemetry`]).
    ///
    /// # Errors
    /// Same conditions as [`IngestEngine::new`].
    pub fn with_telemetry(
        dims: usize,
        config: IngestConfig,
        registry: &Registry,
    ) -> crate::Result<Self> {
        let router = ShardRouter::new(config.shards())?;
        let shards = (0..config.shards())
            .map(|_| ShardAccumulator::new(dims))
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(Self {
            dims,
            router,
            batch_capacity: config.batch_capacity(),
            shards,
            ticks: vec![Tick::default(); config.shards()],
            metrics: IngestMetrics::register(registry, config.shards()),
        })
    }

    /// The configured dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The number of shards reports are partitioned over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The telemetry tick, in reports per shard.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Total reports ingested so far.
    pub fn reports(&self) -> usize {
        self.shards.iter().map(ShardAccumulator::reports).sum()
    }

    /// Reports per shard, for load inspection.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards.iter().map(ShardAccumulator::reports).collect()
    }

    /// Submit one report for `user_id`: route it to its shard and accumulate
    /// it there.
    ///
    /// # Errors
    /// Returns [`ProtocolError::DimensionOutOfRange`] when the report
    /// mentions a dimension `>= dims`; the engine is untouched in that case.
    pub fn submit(&mut self, user_id: u64, report: &Report) -> crate::Result<()> {
        self.submit_entries(user_id, report.entries())
    }

    /// [`submit`](IngestEngine::submit) for a report given directly as
    /// `(dimension, value)` entries.
    ///
    /// # Errors
    /// Same conditions as [`submit`](IngestEngine::submit).
    pub fn submit_entries(&mut self, user_id: u64, entries: &[(usize, f64)]) -> crate::Result<()> {
        let shard = self.router.route(user_id);
        if let Err(e) = self.shards[shard].accumulate(entries) {
            self.metrics.rejects.inc();
            return Err(e);
        }
        self.ticks[shard].count(&self.metrics, shard, entries.len(), self.batch_capacity);
        Ok(())
    }

    /// Publish the submit path's partial ticks into the telemetry registry.
    ///
    /// The shard accumulators are always current, so reading paths never
    /// need a flush; only the ingest counters lag behind by less than one
    /// tick per shard until this is called.
    ///
    /// # Errors
    /// Never fails; the `Result` keeps the signature callers already use.
    pub fn flush(&mut self) -> crate::Result<()> {
        for (shard, tick) in self.ticks.iter_mut().enumerate() {
            tick.publish(&self.metrics, shard);
        }
        Ok(())
    }

    /// Bulk-ingest the user range `users` in parallel.
    ///
    /// `fill` produces user `u`'s report by appending `(dimension, value)`
    /// entries to the scratch vector it is handed (cleared between users).
    /// `min(threads, shards)` workers each own a contiguous block of shards:
    /// a worker walks the range once, generates reports only for the users
    /// that hash into its block and accumulates them shard-locally. No locks,
    /// no cross-thread report traffic, and every shard still receives its
    /// users in increasing id order, so the result is bit-for-bit identical
    /// to calling [`submit_entries`](IngestEngine::submit_entries) for every
    /// user in increasing id order, whatever the host's thread count.
    ///
    /// # Errors
    /// Propagates the first `fill` or validation error; the engine is
    /// untouched when any worker fails.
    pub fn ingest_partitioned<F>(&mut self, users: Range<u64>, fill: F) -> crate::Result<()>
    where
        F: Fn(u64, &mut Vec<(usize, f64)>) -> crate::Result<()> + Sync,
    {
        // Publish the submit path's partial ticks first, so the counters
        // stay in arrival order.
        self.flush()?;
        let dims = self.dims;
        let router = self.router;
        let capacity = self.batch_capacity;
        let shards = self.shard_count();
        let metrics = &self.metrics;

        let blocks: Vec<crate::Result<Vec<ShardAccumulator>>> = rayon::broadcast(|ctx| {
            // Worker w of W owns shards [w·S/W, (w+1)·S/W); workers beyond
            // the shard count own none and return at once.
            let workers = ctx.num_threads().min(shards);
            if ctx.index() >= workers {
                return Ok(Vec::new());
            }
            let lo = ctx.index() * shards / workers;
            let hi = (ctx.index() + 1) * shards / workers;
            let mut block = (lo..hi)
                .map(|_| Ok((ShardAccumulator::new(dims)?, Tick::default())))
                .collect::<crate::Result<Vec<_>>>()?;
            let mut scratch: Vec<(usize, f64)> = Vec::new();
            for user_id in users.clone() {
                let shard = router.route(user_id);
                let Some((acc, tick)) = shard.checked_sub(lo).and_then(|i| block.get_mut(i)) else {
                    continue;
                };
                scratch.clear();
                fill(user_id, &mut scratch)?;
                acc.accumulate(&scratch)?;
                tick.count(metrics, shard, scratch.len(), capacity);
            }
            for (shard, (_, tick)) in (lo..).zip(&mut block) {
                tick.publish(metrics, shard);
            }
            Ok(block.into_iter().map(|(acc, _)| acc).collect())
        });

        // Only merge once every worker succeeded, so a failed bulk ingest
        // leaves the engine exactly as it was. Blocks arrive in worker order,
        // so flattening them restores shard order.
        let blocks = blocks.into_iter().collect::<crate::Result<Vec<_>>>()?;
        for (shard, partial) in self.shards.iter_mut().zip(blocks.iter().flatten()) {
            shard.merge(partial)?;
        }
        Ok(())
    }

    /// Bulk-ingest the user range `users` with per-user randomness: `fill`
    /// is handed user `u`'s own generator, seeded with [`user_seed`]`(seed,
    /// u)`, and appends the report's entries as in
    /// [`ingest_partitioned`](IngestEngine::ingest_partitioned).
    ///
    /// This is the collection step of every pipeline: a user's report depends
    /// only on `(seed, u)` and the engine's state only on the reports and the
    /// shard count, so the estimate is a pure function of the configuration
    /// and the seed.
    ///
    /// # Errors
    /// Same conditions as [`ingest_partitioned`](IngestEngine::ingest_partitioned).
    pub fn collect<F>(&mut self, users: Range<u64>, seed: u64, fill: F) -> crate::Result<()>
    where
        F: Fn(u64, &mut StdRng, &mut Vec<(usize, f64)>) -> crate::Result<()> + Sync,
    {
        self.ingest_partitioned(users, |user, out| {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, user));
            fill(user, &mut rng, out)
        })
    }

    /// The shard accumulators.
    pub fn shards(&self) -> &[ShardAccumulator] {
        &self.shards
    }

    /// Merge-on-read: fold every shard's partials into one accumulator,
    /// leaving ingest state untouched.
    ///
    /// # Errors
    /// Propagates accumulator errors (impossible for a well-formed engine).
    pub fn merged(&self) -> crate::Result<ShardAccumulator> {
        self.metrics.merges.inc();
        let _timer = self.metrics.merge_ns.start();
        let mut total = ShardAccumulator::new(self.dims)?;
        for shard in &self.shards {
            total.merge(shard)?;
        }
        Ok(total)
    }

    /// The naive estimated mean `θ̂` per dimension over all shards.
    ///
    /// # Errors
    /// Returns [`ProtocolError::EmptyDimension`] if any dimension received no
    /// reports.
    pub fn estimated_means(&self) -> crate::Result<Vec<f64>> {
        self.merged()?.means()
    }

    /// Number of values received in each dimension (`r_j`), over all shards.
    ///
    /// # Errors
    /// Propagates merge errors (impossible for a well-formed engine).
    pub fn report_counts(&self) -> crate::Result<Vec<u64>> {
        Ok(self.merged()?.counts())
    }

    /// Reset every shard to empty, keeping allocations. Unpublished ticks are
    /// dropped with the reports they counted.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
        self.ticks.fill(Tick::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(usize, f64)]) -> Report {
        Report::new(entries.to_vec())
    }

    #[test]
    fn batch_validates_construction() {
        assert!(ReportBatch::new(0, 4).is_err());
        assert!(ReportBatch::new(4, 0).is_err());
        let batch = ReportBatch::new(4, 2).unwrap();
        assert_eq!(batch.dims(), 4);
        assert_eq!(batch.capacity(), 2);
        assert!(batch.is_empty());
        assert!(!batch.is_full());
    }

    #[test]
    fn batch_stores_reports_in_flat_arrays() {
        let mut batch = ReportBatch::new(4, 3).unwrap();
        batch.push_entries(&[(0, 1.0), (3, -1.0)]).unwrap();
        batch.push_report(&report(&[(1, 0.5)])).unwrap();
        batch.push_entries(&[]).unwrap();
        assert_eq!(batch.reports(), 3);
        assert_eq!(batch.entries(), 3);
        assert!(batch.is_full());
        assert_eq!(batch.flat_entries(), &[(0, 1.0), (3, -1.0), (1, 0.5)]);
        assert_eq!(batch.report(0), Some(&[(0u32, 1.0), (3, -1.0)][..]));
        assert_eq!(batch.report(1), Some(&[(1u32, 0.5)][..]));
        assert_eq!(batch.report(2), Some(&[][..]));
        assert_eq!(batch.report(3), None);
    }

    #[test]
    fn batch_rejects_overflow_and_bad_dims_atomically() {
        let mut batch = ReportBatch::new(2, 1).unwrap();
        assert!(batch.push_entries(&[(0, 1.0), (7, 1.0)]).is_err());
        assert!(batch.is_empty(), "failed push must not leave partial state");
        batch.push_entries(&[(0, 1.0)]).unwrap();
        assert!(batch.push_entries(&[(1, 1.0)]).is_err(), "batch is full");
        batch.clear();
        assert!(batch.is_empty());
        batch.push_entries(&[(1, 2.0)]).unwrap();
        assert_eq!(batch.entries(), 1);
    }

    #[test]
    fn config_validates_and_defaults() {
        assert!(IngestConfig::new(0, 1).is_err());
        assert!(IngestConfig::new(1, 0).is_err());
        let config = IngestConfig::new(4, 16).unwrap();
        assert_eq!(config.shards(), 4);
        assert_eq!(config.batch_capacity(), 16);
        let default = IngestConfig::default();
        assert_eq!(default.shards(), IngestConfig::DEFAULT_SHARDS);
        assert_eq!(
            default.batch_capacity(),
            IngestConfig::DEFAULT_BATCH_CAPACITY
        );
    }

    #[test]
    fn engine_matches_single_loop_means() {
        let reports = [
            report(&[(0, 1.0), (2, -1.0)]),
            report(&[(0, 3.0), (1, 0.5)]),
            report(&[(1, 1.5), (2, 1.0)]),
            report(&[(0, 2.0)]),
        ];
        let mut engine = IngestEngine::new(3, IngestConfig::new(4, 2).unwrap()).unwrap();
        for (uid, r) in reports.iter().enumerate() {
            engine.submit(uid as u64, r).unwrap();
        }
        assert_eq!(engine.reports(), 4);
        assert_eq!(engine.report_counts().unwrap(), vec![3, 2, 2]);
        assert_eq!(engine.estimated_means().unwrap(), vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn submitted_reports_are_accumulated_immediately() {
        // A tick of 100 reports is never reached, yet the shards are current.
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 100).unwrap()).unwrap();
        engine.submit(0, &report(&[(0, 1.0)])).unwrap();
        engine.submit(1, &report(&[(1, 3.0)])).unwrap();
        assert_eq!(
            engine.shards().iter().map(|s| s.reports()).sum::<usize>(),
            2
        );
        let merged = engine.merged().unwrap();
        assert_eq!(merged.reports(), 2);
        assert_eq!(merged.means().unwrap(), vec![1.0, 3.0]);
        engine.flush().unwrap();
        assert_eq!(engine.merged().unwrap(), merged);
    }

    #[test]
    fn bad_report_is_rejected_without_state_change() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
        engine.submit(0, &report(&[(0, 1.0)])).unwrap();
        assert!(engine.submit(1, &report(&[(9, 1.0)])).is_err());
        assert_eq!(engine.reports(), 1);
    }

    #[test]
    fn ingest_partitioned_matches_serial_submit() {
        let entries: Vec<Vec<(usize, f64)>> = (0..57)
            .map(|i| vec![(i % 5, i as f64 * 0.25), ((i + 2) % 5, -(i as f64) * 0.5)])
            .collect();
        let config = IngestConfig::new(3, 4).unwrap();
        let mut serial = IngestEngine::new(5, config).unwrap();
        for (uid, e) in entries.iter().enumerate() {
            serial.submit_entries(uid as u64, e).unwrap();
        }
        serial.flush().unwrap();
        let mut parallel = IngestEngine::new(5, config).unwrap();
        parallel
            .ingest_partitioned(0..entries.len() as u64, |uid, out| {
                out.extend_from_slice(&entries[uid as usize]);
                Ok(())
            })
            .unwrap();
        assert_eq!(serial.shards(), parallel.shards());
        assert_eq!(
            serial.estimated_means().unwrap(),
            parallel.estimated_means().unwrap()
        );
    }

    #[test]
    fn ingest_partitioned_error_leaves_engine_untouched() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
        engine.submit(0, &report(&[(0, 1.0)])).unwrap();
        let before = engine.merged().unwrap();
        let result = engine.ingest_partitioned(0..10, |uid, out| {
            if uid == 7 {
                return Err(ProtocolError::EmptyDimension { dimension: 0 });
            }
            out.push((0, 1.0));
            Ok(())
        });
        assert!(result.is_err());
        assert_eq!(engine.merged().unwrap(), before);
    }

    #[test]
    fn clear_resets_everything() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(2, 1).unwrap()).unwrap();
        engine.submit(0, &report(&[(0, 1.0)])).unwrap();
        engine.submit(1, &report(&[(1, 1.0)])).unwrap();
        engine.clear();
        assert_eq!(engine.reports(), 0);
        assert_eq!(engine.shard_loads(), vec![0, 0]);
    }

    #[test]
    fn shard_loads_cover_all_reports() {
        let mut engine = IngestEngine::new(2, IngestConfig::new(4, 2).unwrap()).unwrap();
        for uid in 0..37u64 {
            engine.submit(uid, &report(&[(0, 1.0)])).unwrap();
        }
        let loads = engine.shard_loads();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().sum::<usize>(), 37);
    }
}
