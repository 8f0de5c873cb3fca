//! Spike sources for input groups.
//!
//! Input groups do not integrate currents — their spike trains are produced
//! by a [`Generator`]: Poisson processes (the paper's synthetic workloads use
//! Poisson inputs at 10–100 Hz), per-neuron rate arrays (rate-coded images),
//! or explicit precomputed trains (temporal coding, e.g.
//! level-crossing-encoded ECG).

use crate::spikes::SpikeTrain;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A spike source for one input group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Generator {
    /// Homogeneous Poisson process, identical mean rate (Hz) for all neurons.
    Poisson {
        /// Mean firing rate in Hz.
        rate_hz: f64,
    },
    /// Inhomogeneous-per-neuron Poisson: one mean rate per neuron.
    RateArray {
        /// Mean firing rate in Hz for each neuron of the group.
        rates_hz: Vec<f64>,
    },
    /// Explicit spike trains, one per neuron.
    Explicit {
        /// Precomputed spike trains (one per neuron of the group).
        trains: Vec<SpikeTrain>,
    },
}

impl Generator {
    /// Homogeneous Poisson source at `rate_hz`.
    pub fn poisson(rate_hz: f64) -> Self {
        Generator::Poisson { rate_hz }
    }

    /// Per-neuron Poisson source.
    pub fn rates(rates_hz: Vec<f64>) -> Self {
        Generator::RateArray { rates_hz }
    }

    /// Explicit trains, one per neuron.
    pub fn explicit(trains: Vec<SpikeTrain>) -> Self {
        Generator::Explicit { trains }
    }

    /// Number of neurons the generator prescribes, if it is size-bound
    /// (`RateArray` and `Explicit`); `None` for size-agnostic sources.
    pub fn prescribed_size(&self) -> Option<usize> {
        match self {
            Generator::RateArray { rates_hz } => Some(rates_hz.len()),
            Generator::Explicit { trains } => Some(trains.len()),
            _ => None,
        }
    }

    /// Decides whether neuron `idx` of the group spikes at step `t`.
    ///
    /// `dt_ms` is the timestep length in milliseconds; Poisson sources use it
    /// to convert rates into per-step Bernoulli probabilities (`p = r·dt`,
    /// the standard discrete-time approximation).
    pub fn fires<R: Rng + ?Sized>(&self, idx: usize, t: u32, dt_ms: f64, rng: &mut R) -> bool {
        match self {
            Generator::Poisson { rate_hz } => rng.gen_bool(prob(*rate_hz, dt_ms)),
            Generator::RateArray { rates_hz } => {
                let r = rates_hz.get(idx).copied().unwrap_or(0.0);
                r > 0.0 && rng.gen_bool(prob(r, dt_ms))
            }
            Generator::Explicit { trains } => trains
                .get(idx)
                .is_some_and(|tr| tr.times().binary_search(&t).is_ok()),
        }
    }
}

/// Per-step spike probability for a Poisson rate, clamped to [0, 1].
fn prob(rate_hz: f64, dt_ms: f64) -> f64 {
    (rate_hz * dt_ms / 1000.0).clamp(0.0, 1.0)
}

/// Samples a full Poisson spike train of `steps` timesteps at `rate_hz`.
///
/// Convenience for building explicit stimuli and tests.
///
/// ```
/// use neuromap_snn::generator::poisson_train;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let train = poisson_train(100.0, 1000, 1.0, &mut rng);
/// // ≈100 spikes over 1 s at 100 Hz
/// assert!((50..200).contains(&train.len()));
/// ```
pub fn poisson_train<R: Rng + ?Sized>(
    rate_hz: f64,
    steps: u32,
    dt_ms: f64,
    rng: &mut R,
) -> SpikeTrain {
    let p = prob(rate_hz, dt_ms);
    (0..steps).filter(|_| rng.gen_bool(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_is_approximately_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Generator::poisson(50.0);
        let n: usize = (0..10_000)
            .filter(|&t| g.fires(0, t, 1.0, &mut rng))
            .count();
        // 50 Hz over 10 s → expect ~500, allow generous tolerance
        assert!((350..650).contains(&n), "got {n} spikes");
    }

    #[test]
    fn rate_array_is_per_neuron() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Generator::rates(vec![0.0, 1000.0]);
        let silent: usize = (0..1000).filter(|&t| g.fires(0, t, 1.0, &mut rng)).count();
        let loud: usize = (0..1000).filter(|&t| g.fires(1, t, 1.0, &mut rng)).count();
        assert_eq!(silent, 0);
        assert_eq!(loud, 1000); // p clamps to 1.0
    }

    #[test]
    fn rate_array_out_of_range_neuron_is_silent() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Generator::rates(vec![100.0]);
        assert!(!g.fires(5, 0, 1.0, &mut rng));
    }

    #[test]
    fn explicit_replays_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        let tr = SpikeTrain::from_times(vec![1, 4, 8]);
        let g = Generator::explicit(vec![tr.clone()]);
        let got: Vec<u32> = (0..10).filter(|&t| g.fires(0, t, 1.0, &mut rng)).collect();
        assert_eq!(got, vec![1, 4, 8]);
    }

    #[test]
    fn prescribed_sizes() {
        assert_eq!(Generator::poisson(10.0).prescribed_size(), None);
        assert_eq!(Generator::rates(vec![1.0; 4]).prescribed_size(), Some(4));
        assert_eq!(
            Generator::explicit(vec![SpikeTrain::new(); 3]).prescribed_size(),
            Some(3)
        );
    }

    #[test]
    fn poisson_train_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(
            poisson_train(30.0, 500, 1.0, &mut a),
            poisson_train(30.0, 500, 1.0, &mut b)
        );
    }
}
