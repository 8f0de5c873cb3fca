//! Spike coding schemes: rate coding and level-crossing temporal coding.
//!
//! The paper's Table I distinguishes *rate-coded* applications (hello world,
//! image smoothing, digit recognition) from *temporally coded* ones
//! (heartbeat estimation). Rate coding carries information in spike counts,
//! so it is robust to interconnect jitter; temporal coding carries it in
//! precise spike timing, which is exactly what ISI distortion on a congested
//! NoC corrupts (Section V-B). This module provides the two encoders the
//! apps use — [`rate_encode`] (with its decoder [`rate_decode`]) and the
//! [`level_crossing_encode`] spike generator of the heartbeat app.

use crate::spikes::SpikeTrain;

/// Maps normalized intensities `[0, 1]` to Poisson firing rates in
/// `[0, max_rate_hz]` — the standard rate encoding for images.
///
/// Values outside `[0, 1]` are clamped.
///
/// ```
/// use neuromap_snn::coding::rate_encode;
/// let rates = rate_encode(&[0.0, 0.5, 1.0, 2.0], 100.0);
/// assert_eq!(rates, vec![0.0, 50.0, 100.0, 100.0]);
/// ```
pub fn rate_encode(intensities: &[f64], max_rate_hz: f64) -> Vec<f64> {
    intensities
        .iter()
        .map(|&v| v.clamp(0.0, 1.0) * max_rate_hz)
        .collect()
}

/// Estimates the normalized intensity a spike train encodes under rate
/// coding: `rate / max_rate`, clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics if `duration_ms` is zero or `max_rate_hz` is not positive.
pub fn rate_decode(train: &SpikeTrain, duration_ms: u32, max_rate_hz: f64) -> f64 {
    assert!(max_rate_hz > 0.0, "max rate must be positive");
    (train.rate_hz(duration_ms) / max_rate_hz).clamp(0.0, 1.0)
}

/// Level-crossing (delta) encoder — the spike generator sketched in the
/// paper's Fig. 3 for the heartbeat application: an analog signal emits an
/// *up* spike whenever it rises by `delta` above the tracked level and a
/// *down* spike when it falls by `delta` below.
///
/// Returns `(up_train, down_train)` over the sample index domain.
///
/// # Panics
///
/// Panics if `delta` is not positive.
///
/// ```
/// use neuromap_snn::coding::level_crossing_encode;
/// let ramp: Vec<f64> = (0..10).map(|i| i as f64).collect();
/// let (up, down) = level_crossing_encode(&ramp, 2.0);
/// assert_eq!(up.len(), 4);       // crossings at 2,4,6,8
/// assert!(down.is_empty());
/// ```
pub fn level_crossing_encode(signal: &[f64], delta: f64) -> (SpikeTrain, SpikeTrain) {
    assert!(delta > 0.0, "delta must be positive");
    let mut up = SpikeTrain::new();
    let mut down = SpikeTrain::new();
    let Some(&first) = signal.first() else {
        return (up, down);
    };
    let mut upper = first + delta;
    let mut lower = first - delta;
    for (i, &v) in signal.iter().enumerate().skip(1) {
        // a large swing may cross several levels within one sample; emit one
        // spike per sample (trains are per-timestep binary) but re-center the
        // band at the current value so tracking resumes correctly
        if v >= upper {
            up.push(i as u32);
            upper = v + delta;
            lower = v - delta;
        } else if v <= lower {
            down.push(i as u32);
            upper = v + delta;
            lower = v - delta;
        }
    }
    (up, down)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_roundtrip_statistics() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let rates = rate_encode(&[0.3], 200.0);
        let train = crate::generator::poisson_train(rates[0], 5000, 1.0, &mut rng);
        let decoded = rate_decode(&train, 5000, 200.0);
        assert!((decoded - 0.3).abs() < 0.08, "decoded {decoded}");
    }

    #[test]
    fn jitter_shows_as_isi_distortion() {
        // jittering a temporal code shifts its intervals — the effect the
        // paper measures on the heartbeat workload
        let clean: SpikeTrain = (0..400).step_by(28).collect();
        let jittered: SpikeTrain = clean
            .iter()
            .enumerate()
            .map(|(k, &t)| if k % 2 == 1 { t + 8 } else { t })
            .collect();
        assert!(crate::spikes::isi_distortion(&clean, &jittered) >= 8);
    }

    #[test]
    fn level_crossing_detects_both_directions() {
        let tri: Vec<f64> = (0..10)
            .map(|i| if i < 5 { i as f64 } else { (10 - i) as f64 })
            .collect();
        let (up, down) = level_crossing_encode(&tri, 1.5);
        assert!(!up.is_empty());
        assert!(!down.is_empty());
    }

    #[test]
    fn level_crossing_flat_signal_is_silent() {
        let flat = vec![3.0; 100];
        let (up, down) = level_crossing_encode(&flat, 0.5);
        assert!(up.is_empty() && down.is_empty());
    }

    #[test]
    fn level_crossing_empty_signal() {
        let (up, down) = level_crossing_encode(&[], 1.0);
        assert!(up.is_empty() && down.is_empty());
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn level_crossing_rejects_bad_delta() {
        let _ = level_crossing_encode(&[1.0], 0.0);
    }
}
