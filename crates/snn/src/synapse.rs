//! Synapses: weighted, delayed connections between neurons.

use serde::{Deserialize, Serialize};

/// Maximum axonal delay in timesteps supported by the simulator's ring
/// buffer. CARLsim supports delays of 1..=20 ms; we match that bound.
pub const MAX_DELAY: u16 = 20;

/// A single synapse: a weighted, delayed connection `pre → post`.
///
/// Weights are dimensionless input currents delivered to the postsynaptic
/// model (negative = inhibitory). Delays are in whole timesteps, at least 1
/// (a spike emitted at step `t` arrives at `t + delay`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Synapse {
    /// Global index of the presynaptic neuron.
    pub pre: u32,
    /// Global index of the postsynaptic neuron.
    pub post: u32,
    /// Synaptic efficacy (current injected per presynaptic spike).
    pub weight: f32,
    /// Axonal delay in timesteps (≥ 1).
    pub delay: u16,
    /// Whether this synapse is subject to STDP.
    pub plastic: bool,
}

impl Synapse {
    /// Creates a static (non-plastic) synapse.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is 0 or exceeds [`MAX_DELAY`].
    pub fn new(pre: u32, post: u32, weight: f32, delay: u16) -> Self {
        assert!(
            (1..=MAX_DELAY).contains(&delay),
            "delay {delay} outside 1..={MAX_DELAY}"
        );
        Self {
            pre,
            post,
            weight,
            delay,
            plastic: false,
        }
    }

    /// Marks the synapse as plastic (STDP-managed). Builder-style.
    pub fn plastic(mut self) -> Self {
        self.plastic = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_fields() {
        let s = Synapse::new(3, 7, 1.5, 2);
        assert_eq!((s.pre, s.post, s.weight, s.delay), (3, 7, 1.5, 2));
        assert!(!s.plastic);
    }

    #[test]
    fn plastic_builder_flags() {
        let s = Synapse::new(0, 1, 0.5, 1).plastic();
        assert!(s.plastic);
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn zero_delay_rejected() {
        let _ = Synapse::new(0, 1, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn oversized_delay_rejected() {
        let _ = Synapse::new(0, 1, 1.0, MAX_DELAY + 1);
    }
}
