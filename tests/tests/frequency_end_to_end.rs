//! Cross-crate integration tests for the Section V-C frequency-estimation
//! extension: histogram encoding → LDP collection → naive frequencies →
//! HDR4ME re-calibration.

use hdldp_core::Hdr4me;
use hdldp_data::CategoricalDataset;
use hdldp_integration_tests::test_rng;
use hdldp_math::stats;
use hdldp_mechanisms::MechanismKind;
use hdldp_protocol::{user_seed, Aggregator, FrequencyPipeline, PipelineConfig, Report};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

fn survey(users: usize) -> CategoricalDataset {
    CategoricalDataset::generate_zipf(users, vec![6, 4, 10], &mut test_rng(55)).unwrap()
}

#[test]
fn generous_budget_recovers_frequencies_for_every_mechanism() {
    let data = survey(5_000);
    for kind in MechanismKind::PAPER_EVALUATED {
        let pipeline = FrequencyPipeline::new(kind, PipelineConfig::new(100.0, 3, 2)).unwrap();
        let estimate = pipeline.run(&data).unwrap();
        for dim in 0..3 {
            let mse = estimate.utility(dim).unwrap().mse;
            assert!(mse < 5e-3, "{kind:?} dim {dim}: mse = {mse}");
        }
    }
}

#[test]
fn recalibrated_frequencies_are_valid_distributions() {
    let data = survey(3_000);
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Piecewise, PipelineConfig::new(0.5, 3, 9)).unwrap();
    let estimate = pipeline.run(&data).unwrap();
    for hdr in [Hdr4me::l1(), Hdr4me::l2()] {
        for dim in 0..3 {
            let result = hdr
                .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
                .unwrap();
            let total: f64 = result.enhanced.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(result.enhanced.iter().all(|f| (0.0..=1.0).contains(f)));
        }
    }
}

#[test]
fn recalibration_helps_noisy_frequency_estimates_on_average() {
    // Tight budget: the raw one-hot means are very noisy. Average the MSE over
    // dimensions and compare raw vs HDR4ME-enhanced.
    let data = survey(8_000);
    let pipeline =
        FrequencyPipeline::new(MechanismKind::Laplace, PipelineConfig::new(0.4, 3, 4)).unwrap();
    let estimate = pipeline.run(&data).unwrap();
    let mut raw_total = 0.0;
    let mut enhanced_total = 0.0;
    for dim in 0..3 {
        let truth = &estimate.true_frequencies[dim];
        raw_total += stats::mse(&estimate.estimated[dim], truth).unwrap();
        let result = Hdr4me::l1()
            .recalibrate_frequencies(&estimate, dim, pipeline.mechanism())
            .unwrap();
        enhanced_total += stats::mse(&result.enhanced, truth).unwrap();
    }
    assert!(
        enhanced_total < raw_total,
        "enhanced {enhanced_total} vs raw {raw_total}"
    );
}

#[test]
fn true_frequencies_match_encoded_column_means() {
    // Consistency between the categorical dataset and its histogram encoding:
    // this is the identity that lets frequency estimation reuse the mean
    // estimation machinery.
    let data = survey(1_000);
    let (encoded, offsets) = data.encode_all();
    let means = encoded.true_means();
    for (j, &offset) in offsets.iter().enumerate() {
        let freqs = data.true_frequencies(j).unwrap();
        for (c, &f) in freqs.iter().enumerate() {
            assert!((means[offset + c] - f).abs() < 1e-12);
        }
    }
}

/// The pipeline's collection replayed serially through the Welford reference
/// `Aggregator`: user `i` draws from `user_seed(seed, i)`, samples `m`
/// dimensions, and perturbs every one-hot entry of each in order.
#[test]
fn pipeline_matches_a_serial_aggregator_replay() {
    let data = survey(2_000);
    let (seed, m) = (31, 2);
    for kind in [MechanismKind::Piecewise, MechanismKind::Duchi] {
        let pipeline = FrequencyPipeline::new(kind, PipelineConfig::new(2.0, m, seed)).unwrap();
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
        let mut aggregator = Aggregator::new(categories.iter().sum()).unwrap();
        for user in 0..data.users() {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, user as u64));
            let mut entries = Vec::new();
            for j in sample(&mut rng, data.dims(), m) {
                let value = data.value(user, j).unwrap();
                for c in 0..categories[j] {
                    let raw = if c == value { 1.0 } else { 0.0 };
                    entries.push((offsets[j] + c, pipeline.mechanism().perturb(raw, &mut rng)));
                }
            }
            aggregator.ingest(&Report::new(entries)).unwrap();
        }

        let counts = aggregator.report_counts();
        let means = aggregator.estimated_means().unwrap();
        for (j, (&offset, &v)) in offsets.iter().zip(categories).enumerate() {
            assert_eq!(
                estimate.report_counts[j], counts[offset],
                "{kind:?} dim {j}"
            );
            for c in 0..v {
                let (got, want) = (estimate.estimated[j][c], means[offset + c]);
                assert!(
                    (got - want).abs() <= 1e-12,
                    "{kind:?} dim {j} category {c}: {got} vs {want}"
                );
            }
        }
    }
}
