//! Cross-crate tests pinning the sharded ingest engine to the single-loop
//! aggregation it replaces: same sums, same counts, same estimated means.
//!
//! The bit-for-bit property tests draw report values from the dyadic grid
//! `k/16` with small `k`, where floating-point addition is exact and therefore
//! order-free — so *any* shard count, batch capacity, and batch boundary must
//! reproduce the single-loop result down to the last bit. Arbitrary-float
//! agreement (where only the summation order differs) is covered by the
//! tolerance-based test against the legacy `Aggregator`.

use hdldp_protocol::{Aggregator, IngestConfig, IngestEngine, ProtocolError, Report};
use proptest::prelude::*;

/// Plain single-loop reference: per-dimension sums and counts over `reports`.
fn single_loop_sums(dims: usize, reports: &[Vec<(usize, f64)>]) -> (Vec<f64>, Vec<u64>) {
    let mut sums = vec![0.0f64; dims];
    let mut counts = vec![0u64; dims];
    for report in reports {
        for &(dim, value) in report {
            sums[dim] += value;
            counts[dim] += 1;
        }
    }
    (sums, counts)
}

/// Strategy: a population of reports over `dims` dimensions whose values lie
/// on the dyadic grid `k/16` with `|k| <= 32`, so sums are exact in `f64`.
fn dyadic_reports(dims: usize) -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..dims, -32i32..33), 0..6),
        0..40,
    )
    .prop_map(|reports| {
        reports
            .into_iter()
            .map(|entries| {
                entries
                    .into_iter()
                    .map(|(dim, k)| (dim, f64::from(k) / 16.0))
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On exact-addition inputs, the sharded engine reproduces the
    /// single-loop sums and counts bit-for-bit for every shard count and
    /// batch capacity — including shard counts far above the report count.
    #[test]
    fn sharded_merge_equals_single_loop_bit_for_bit(
        population in (1usize..12).prop_flat_map(|dims| (Just(dims), dyadic_reports(dims))),
        shards in 1usize..20,
        batch_capacity in 1usize..5,
    ) {
        let (dims, reports) = population;
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, batch_capacity).unwrap()).unwrap();
        for (user, entries) in reports.iter().enumerate() {
            engine.submit_entries(user as u64, entries).unwrap();
        }
        let merged = engine.merged().unwrap();
        let (sums, counts) = single_loop_sums(dims, &reports);
        prop_assert_eq!(merged.sums(), sums);
        prop_assert_eq!(merged.counts(), counts);
        prop_assert_eq!(merged.reports(), reports.len());
    }

    /// The parallel bulk path is bit-for-bit identical to serial submission
    /// on the same engine configuration, for arbitrary shard counts.
    #[test]
    fn parallel_bulk_ingest_matches_serial_submission(
        population in (1usize..12).prop_flat_map(|dims| (Just(dims), dyadic_reports(dims))),
        shards in 1usize..6,
    ) {
        let (dims, reports) = population;
        let config = IngestConfig::new(shards, 3).unwrap();
        let mut serial = IngestEngine::new(dims, config).unwrap();
        for (user, entries) in reports.iter().enumerate() {
            serial.submit_entries(user as u64, entries).unwrap();
        }
        let mut bulk = IngestEngine::new(dims, config).unwrap();
        bulk.ingest_partitioned(0..reports.len() as u64, |user, out| {
            out.extend_from_slice(&reports[user as usize]);
            Ok(())
        }).unwrap();
        prop_assert_eq!(serial.merged().unwrap(), bulk.merged().unwrap());
        prop_assert_eq!(serial.shard_loads(), bulk.shard_loads());
    }

    /// On arbitrary floats the sharded estimate agrees with the legacy
    /// Welford-based `Aggregator` up to summation-order rounding.
    #[test]
    fn sharded_means_agree_with_legacy_aggregator(
        values in proptest::collection::vec(-1.0f64..1.0, 1..120),
        dims in 1usize..8,
        shards in 1usize..7,
    ) {
        let reports: Vec<Vec<(usize, f64)>> = values
            .chunks(dims)
            .map(|chunk| chunk.iter().enumerate().map(|(dim, &v)| (dim, v)).collect())
            .collect();
        let mut engine = IngestEngine::new(dims, IngestConfig::new(shards, 4).unwrap()).unwrap();
        let mut aggregator = Aggregator::new(dims).unwrap();
        for (user, entries) in reports.iter().enumerate() {
            engine.submit_entries(user as u64, entries).unwrap();
            aggregator.ingest(&Report::new(entries.clone())).unwrap();
        }
        // Only the full leading chunks cover every dimension; skip configs
        // where some dimension got no reports.
        if aggregator.report_counts().iter().all(|&c| c > 0) {
            let sharded = engine.estimated_means().unwrap();
            let legacy = aggregator.estimated_means().unwrap();
            for (s, l) in sharded.iter().zip(&legacy) {
                prop_assert!((s - l).abs() <= 1e-12, "sharded {s} vs legacy {l}");
            }
        }
    }
}

#[test]
fn empty_engine_reports_empty_dimensions() {
    let engine = IngestEngine::new(3, IngestConfig::new(4, 8).unwrap()).unwrap();
    let merged = engine.merged().unwrap();
    assert_eq!(merged.counts(), &[0, 0, 0]);
    assert_eq!(merged.reports(), 0);
    assert!(matches!(
        engine.estimated_means(),
        Err(ProtocolError::EmptyDimension { dimension: 0 })
    ));
}

#[test]
fn more_shards_than_reports_leaves_idle_shards_harmless() {
    let mut engine = IngestEngine::new(2, IngestConfig::new(16, 4).unwrap()).unwrap();
    engine.submit_entries(0, &[(0, 1.0), (1, -0.5)]).unwrap();
    engine.submit_entries(1, &[(0, 3.0)]).unwrap();
    let loads = engine.shard_loads();
    assert_eq!(loads.len(), 16);
    assert_eq!(loads.iter().sum::<usize>(), 2);
    let merged = engine.merged().unwrap();
    assert_eq!(merged.sums(), &[4.0, -0.5]);
    assert_eq!(merged.counts(), &[2, 1]);
}

#[test]
fn batch_capacity_one_flushes_every_report() {
    let mut tight = IngestEngine::new(2, IngestConfig::new(3, 1).unwrap()).unwrap();
    let mut roomy = IngestEngine::new(2, IngestConfig::new(3, 64).unwrap()).unwrap();
    for user in 0..50u64 {
        let entries = [(0, 0.25), ((user % 2) as usize, -0.5)];
        tight.submit_entries(user, &entries).unwrap();
        roomy.submit_entries(user, &entries).unwrap();
    }
    // Capacity only sets the telemetry tick: both engines hold every report.
    assert_eq!(tight.shard_loads().iter().sum::<usize>(), 50);
    assert_eq!(tight.merged().unwrap(), roomy.merged().unwrap());
    roomy.flush().unwrap();
    assert_eq!(tight.merged().unwrap(), roomy.merged().unwrap());
}

#[test]
fn reports_without_entries_count_as_reports_but_not_samples() {
    let mut engine = IngestEngine::new(2, IngestConfig::new(2, 4).unwrap()).unwrap();
    engine.submit_entries(0, &[]).unwrap();
    engine.submit_entries(1, &[(1, 1.0)]).unwrap();
    let merged = engine.merged().unwrap();
    assert_eq!(merged.reports(), 2);
    assert_eq!(merged.counts(), &[0, 1]);
}
