//! Measurement-noise modeling for the timing channel.
//!
//! The paper's simulator attacker reads a clean last-round time; a real
//! remote attacker sees that signal buried in network and scheduling
//! noise (which is why Jiang et al. needed ~10⁶ samples on hardware).
//! This module injects controlled Gaussian noise so the library can
//! reproduce that regime and validate the Eq. 4 attenuation prediction:
//! adding noise of variance σ² to a signal of variance v scales every
//! correlation by `√(v / (v + σ²))`.

use crate::error::AttackError;
use crate::recover::AttackSample;
use rcoal_rng::StdRng;
use rcoal_rng::{Rng, SeedableRng};

/// Additive Gaussian measurement noise.
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    sigma: f64,
    rng: StdRng,
}

impl GaussianNoise {
    /// Noise with standard deviation `sigma`, reproducible from `seed`.
    ///
    /// # Errors
    ///
    /// [`AttackError::Domain`] if `sigma` is negative or not finite.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, AttackError> {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(AttackError::Domain(format!(
                "noise sigma must be finite and >= 0, got {sigma}"
            )));
        }
        Ok(GaussianNoise {
            sigma,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one noise value (Box–Muller over the workspace `rcoal-rng`
    /// uniform API).
    pub fn sample(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        self.sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Adds noise to every sample's timing in place.
    pub fn apply(&mut self, samples: &mut [AttackSample]) {
        for s in samples {
            s.time += self.sample();
        }
    }

    /// Returns a noisy copy of the samples.
    pub fn applied(&mut self, samples: &[AttackSample]) -> Vec<AttackSample> {
        let mut out = samples.to_vec();
        self.apply(&mut out);
        out
    }
}

/// Predicted correlation after adding noise of standard deviation `sigma`
/// to a timing signal whose clean correlation is `rho` and whose variance
/// is `signal_variance`:
///
/// `rho' = rho · √(v / (v + σ²))`
///
/// # Errors
///
/// [`AttackError::Domain`] if `signal_variance` is not positive (or any
/// argument is not finite).
pub fn attenuated_correlation(
    rho: f64,
    signal_variance: f64,
    sigma: f64,
) -> Result<f64, AttackError> {
    if !(signal_variance.is_finite() && signal_variance > 0.0) {
        return Err(AttackError::Domain(format!(
            "signal variance must be finite and positive, got {signal_variance}"
        )));
    }
    if !rho.is_finite() || !sigma.is_finite() {
        return Err(AttackError::Domain(format!(
            "attenuation arguments must be finite (rho {rho}, sigma {sigma})"
        )));
    }
    Ok(rho * (signal_variance / (signal_variance + sigma * sigma)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::pearson;

    fn variance(xs: &[f64]) -> f64 {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn zero_sigma_is_identity() {
        let samples = vec![
            AttackSample {
                ciphertexts: std::sync::Arc::new(vec![]),
                time: 10.0,
            };
            5
        ];
        let mut noise = GaussianNoise::new(0.0, 1).unwrap();
        let noisy = noise.applied(&samples);
        assert_eq!(noisy, samples);
    }

    #[test]
    fn sample_moments_match_configuration() {
        let mut noise = GaussianNoise::new(3.0, 7).unwrap();
        let draws: Vec<f64> = (0..20_000).map(|_| noise.sample()).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        let sd = variance(&draws).sqrt();
        assert!((sd - 3.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let a: Vec<f64> = {
            let mut n = GaussianNoise::new(1.0, 9).unwrap();
            (0..10).map(|_| n.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut n = GaussianNoise::new(1.0, 9).unwrap();
            (0..10).map(|_| n.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn attenuation_formula_matches_empirical() {
        // Signal x, measurement y = x + noise: corr should attenuate by
        // sqrt(v/(v+sigma^2)).
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|i: u64| ((i * 48271) % 101) as f64).collect();
        let v = variance(&xs);
        let sigma = 40.0;
        let mut noise = GaussianNoise::new(sigma, 3).unwrap();
        let ys: Vec<f64> = xs.iter().map(|x| x + noise.sample()).collect();
        let measured = pearson(&xs, &ys);
        let predicted = attenuated_correlation(1.0, v, sigma).unwrap();
        assert!(
            (measured - predicted).abs() < 0.02,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn attenuation_degenerates_sensibly() {
        assert_eq!(attenuated_correlation(0.5, 4.0, 0.0).unwrap(), 0.5);
        assert!(attenuated_correlation(0.5, 1.0, 100.0).unwrap() < 0.01);
    }

    #[test]
    fn domain_violations_are_typed_errors() {
        assert!(matches!(
            GaussianNoise::new(-1.0, 0),
            Err(AttackError::Domain(_))
        ));
        assert!(matches!(
            GaussianNoise::new(f64::NAN, 0),
            Err(AttackError::Domain(_))
        ));
        assert!(matches!(
            attenuated_correlation(0.5, 0.0, 1.0),
            Err(AttackError::Domain(_))
        ));
        assert!(matches!(
            attenuated_correlation(f64::NAN, 1.0, 1.0),
            Err(AttackError::Domain(_))
        ));
    }
}
