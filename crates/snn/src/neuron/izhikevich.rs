//! The Izhikevich (2003) point-neuron model.

use super::NeuronModel;

/// Izhikevich neuron:
///
/// ```text
/// v' = 0.04 v² + 5 v + 140 − u + I
/// u' = a (b v − u)
/// if v ≥ 30 mV:  v ← c,  u ← u + d
/// ```
///
/// The model reproduces a wide catalog of cortical firing patterns with four
/// parameters and is the neuron CARLsim simulates natively, which is why the
/// rate-coded workloads of the paper use it.
///
/// Integration uses two half-steps of `dt/2` for `v` (the scheme CARLsim and
/// Izhikevich's reference implementation use for 1 ms timesteps) and a full
/// step for `u`.
///
/// ```
/// use neuromap_snn::neuron::NeuronKind;
/// let mut n = NeuronKind::izhikevich_rs().build();
/// let spikes: usize = (0..1000).filter(|_| n.step(10.0, 1.0)).count();
/// assert!(spikes > 5 && spikes < 200, "RS cell tonic-fires moderately: {spikes}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Izhikevich {
    a: f32,
    b: f32,
    c: f32,
    d: f32,
    v: f32,
    u: f32,
}

impl Izhikevich {
    /// Spike cutoff potential (mV).
    pub const V_PEAK: f32 = 30.0;

    /// Creates a model with explicit `(a, b, c, d)` parameters, starting at
    /// the canonical rest state `v = −65`, `u = b·v`.
    pub fn new(a: f32, b: f32, c: f32, d: f32) -> Self {
        let v = -65.0;
        Self {
            a,
            b,
            c,
            d,
            v,
            u: b * v,
        }
    }
}

impl NeuronModel for Izhikevich {
    fn step(&mut self, i_syn: f32, dt: f32) -> bool {
        // Two half-steps for v improve stability at dt = 1 ms.
        let half = 0.5 * dt;
        for _ in 0..2 {
            self.v += half * (0.04 * self.v * self.v + 5.0 * self.v + 140.0 - self.u + i_syn);
            if self.v >= Self::V_PEAK {
                break;
            }
        }
        self.u += dt * self.a * (self.b * self.v - self.u);
        if self.v >= Self::V_PEAK {
            self.v = self.c;
            self.u += self.d;
            true
        } else {
            false
        }
    }

    fn reset(&mut self) {
        self.v = -65.0;
        self.u = self.b * self.v;
    }

    fn potential(&self) -> f32 {
        self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::NeuronKind;

    fn rs_cell() -> Box<dyn NeuronModel + Send> {
        NeuronKind::izhikevich_rs().build()
    }

    fn count_spikes(n: &mut dyn NeuronModel, i: f32, steps: usize) -> usize {
        (0..steps).filter(|_| n.step(i, 1.0)).count()
    }

    #[test]
    fn rest_is_stable_without_input() {
        // the RS fixed point with u = b·v is v = −70 (0.04v² + 4.8v + 140 = 0)
        let mut n = rs_cell();
        for _ in 0..500 {
            assert!(!n.step(0.0, 1.0));
        }
        assert!((n.potential() + 70.0).abs() < 2.0, "v = {}", n.potential());
    }

    #[test]
    fn firing_rate_increases_with_current() {
        let r_lo = count_spikes(&mut *rs_cell(), 6.0, 1000);
        let r_hi = count_spikes(&mut *rs_cell(), 14.0, 1000);
        assert!(
            r_hi > r_lo,
            "f-I curve must be increasing: {r_lo} !< {r_hi}"
        );
    }

    #[test]
    fn spike_resets_to_c() {
        let mut n = rs_cell();
        let mut fired = false;
        for _ in 0..300 {
            if n.step(20.0, 1.0) {
                fired = true;
                assert!((n.potential() + 65.0).abs() < 1e-5);
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn potential_never_exceeds_peak_after_step() {
        let mut n = rs_cell();
        for _ in 0..2000 {
            n.step(25.0, 1.0);
            assert!(n.potential() < Izhikevich::V_PEAK + 1.0);
        }
    }
}
