//! Output checks, judged against the paper's own error model.
//!
//! Theorem 1 models the deviation of each naive per-dimension estimate as an
//! independent `N(δ_j, σ_j²)`. The mean squared error over `d` dimensions then
//! has expectation `mean(δ_j² + σ_j²)` and variance
//! `Σ (2σ_j⁴ + 4δ_j²σ_j²) / d²`. An observed MSE passes when it lies within
//! [`Z_TOL`] standard deviations of that expectation, widened by [`REL_TOL`]
//! of the expectation for what the model leaves out: bucketed value
//! distributions, the CLT approximation, and the sampling variance of the
//! users who report a dimension.

/// Standard deviations of the predicted MSE an observation may stray.
pub const Z_TOL: f64 = 6.0;
/// Relative allowance for the model's own approximation error.
pub const REL_TOL: f64 = 0.10;

/// Expected MSE and its standard deviation under the deviation model.
pub fn predicted_mse(deltas: &[f64], sigmas: &[f64]) -> (f64, f64) {
    let d = deltas.len() as f64;
    let mut expected = 0.0;
    let mut variance = 0.0;
    for (&delta, &sigma) in deltas.iter().zip(sigmas) {
        let (d2, s2) = (delta * delta, sigma * sigma);
        expected += d2 + s2;
        variance += 2.0 * s2 * s2 + 4.0 * d2 * s2;
    }
    (expected / d, variance.sqrt() / d)
}

/// Mean squared error of `estimate` against `truth`.
pub fn mse(estimate: &[f64], truth: &[f64]) -> f64 {
    let sum: f64 = estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum();
    sum / truth.len() as f64
}

/// Check the naive estimate's MSE against the model's prediction; returns
/// the observed MSE.
pub fn check_mse(
    estimate: &[f64],
    truth: &[f64],
    deltas: &[f64],
    sigmas: &[f64],
) -> Result<f64, String> {
    if estimate.len() != truth.len() || truth.len() != deltas.len() || deltas.len() != sigmas.len()
    {
        return Err(format!(
            "length mismatch: estimate {}, truth {}, model {}/{}",
            estimate.len(),
            truth.len(),
            deltas.len(),
            sigmas.len()
        ));
    }
    let observed = mse(estimate, truth);
    let (expected, sd) = predicted_mse(deltas, sigmas);
    let allowed = Z_TOL * sd + REL_TOL * expected;
    if observed.is_finite() && (observed - expected).abs() <= allowed {
        Ok(observed)
    } else {
        Err(format!(
            "observed MSE {observed:.6e} vs model {expected:.6e} ± {allowed:.3e}"
        ))
    }
}

/// Check that `p` is a finite probability.
pub fn check_probability(name: &str, p: f64) -> Result<(), String> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{name} = {p} is not a probability"))
    }
}

/// Check that every value is finite and that there are `len` of them.
pub fn check_finite(name: &str, values: &[f64], len: usize) -> Result<(), String> {
    if values.len() != len {
        return Err(format!("{name}: {} values, expected {len}", values.len()));
    }
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("{name}[{i}] = {} is not finite", values[i])),
    }
}

/// Check that a count is conserved.
pub fn check_count(name: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{name}: {got}, expected {want}"))
    }
}

/// The benchmark's check on its own checker: an estimate with every entry
/// doubled must fail [`check_mse`] where the true estimate passes.
pub fn corrupted_estimate_fails(
    estimate: &[f64],
    truth: &[f64],
    deltas: &[f64],
    sigmas: &[f64],
) -> bool {
    let doubled: Vec<f64> = estimate.iter().map(|v| 2.0 * v).collect();
    check_mse(estimate, truth, deltas, sigmas).is_ok()
        && check_mse(&doubled, truth, deltas, sigmas).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An estimate drawn from the model itself: truth + N(δ, σ²) per entry.
    fn modelled(truth: &[f64], delta: f64, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        truth
            .iter()
            .map(|t| {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                t + delta + sigma * z
            })
            .collect()
    }

    #[test]
    fn model_consistent_estimates_pass() {
        let truth: Vec<f64> = (0..256).map(|j| (j as f64 / 256.0) - 0.5).collect();
        let deltas = vec![0.01; 256];
        let sigmas = vec![0.2; 256];
        for seed in 0..50 {
            let est = modelled(&truth, 0.01, 0.2, seed);
            check_mse(&est, &truth, &deltas, &sigmas).unwrap();
        }
    }

    #[test]
    fn estimate_scaled_by_two_fails() {
        let truth: Vec<f64> = (0..100).map(|j| 0.9 * (j as f64 / 100.0) - 0.45).collect();
        let deltas = vec![0.0; 100];
        let sigmas = vec![0.3; 100];
        let est = modelled(&truth, 0.0, 0.3, 3);
        assert!(corrupted_estimate_fails(&est, &truth, &deltas, &sigmas));
    }

    #[test]
    fn too_accurate_or_too_noisy_estimates_fail() {
        let truth = vec![0.0; 200];
        let deltas = vec![0.0; 200];
        let sigmas = vec![0.5; 200];
        assert!(check_mse(&truth, &truth, &deltas, &sigmas).is_err());
        let noisy = modelled(&truth, 0.0, 1.0, 9);
        assert!(check_mse(&noisy, &truth, &deltas, &sigmas).is_err());
        let nan = vec![f64::NAN; 200];
        assert!(check_mse(&nan, &truth, &deltas, &sigmas).is_err());
    }

    #[test]
    fn probability_and_count_checks() {
        assert!(check_probability("p", 0.5).is_ok());
        assert!(check_probability("p", 1.0 + 1e-9).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
        assert!(check_finite("v", &[1.0, 2.0], 2).is_ok());
        assert!(check_finite("v", &[1.0, f64::INFINITY], 2).is_err());
        assert!(check_finite("v", &[1.0], 2).is_err());
        assert!(check_count("n", 3, 3).is_ok());
        assert!(check_count("n", 3, 4).is_err());
    }
}
