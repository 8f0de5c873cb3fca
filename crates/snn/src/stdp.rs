//! Spike-timing-dependent plasticity (pair-based, trace implementation).
//!
//! The digit-recognition workload (Diehl & Cook 2015) trains its input →
//! excitatory projection with unsupervised STDP. We implement the standard
//! pair rule with exponential traces:
//!
//! ```text
//! on pre spike  at synapse (i → j):  w ← w − A₋ · x_post(j)   (depression)
//! on post spike at synapse (i → j):  w ← w + A₊ · x_pre(i)    (potentiation)
//! traces:  x ← x·exp(−dt/τ),  incremented to +1 on the owner's spike
//! ```
//!
//! Weights are clamped to `[w_min, w_max]`, and an optional divisive
//! normalization keeps each postsynaptic neuron's total inbound plastic
//! weight constant — the competition mechanism Diehl & Cook rely on.

use serde::{Deserialize, Serialize};

/// Presynaptic trace time constant τ₊ (ms).
pub const TAU_PLUS_MS: f32 = 20.0;

/// Postsynaptic trace time constant τ₋ (ms).
pub const TAU_MINUS_MS: f32 = 20.0;

/// Parameters of the pair-based STDP rule. The trace time constants are
/// fixed at [`TAU_PLUS_MS`] and [`TAU_MINUS_MS`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StdpConfig {
    /// Potentiation amplitude A₊.
    pub a_plus: f32,
    /// Depression amplitude A₋.
    pub a_minus: f32,
    /// Lower weight bound.
    pub w_min: f32,
    /// Upper weight bound.
    pub w_max: f32,
    /// If set, after every `normalize_every` steps each postsynaptic
    /// neuron's inbound plastic weights are rescaled to sum to
    /// `normalize_target`.
    pub normalize_every: Option<u32>,
    /// Target inbound weight sum for divisive normalization.
    pub normalize_target: f32,
}

impl Default for StdpConfig {
    fn default() -> Self {
        Self {
            a_plus: 0.01,
            a_minus: 0.012,
            w_min: 0.0,
            w_max: 1.0,
            normalize_every: None,
            normalize_target: 78.0,
        }
    }
}

/// Runtime trace state for STDP (one pre/post trace per neuron).
#[derive(Debug, Clone)]
pub struct StdpState {
    config: StdpConfig,
    x_pre: Vec<f32>,
    x_post: Vec<f32>,
    decay_pre: f32,
    decay_post: f32,
}

impl StdpState {
    /// Creates trace state for `num_neurons` neurons stepped at `dt_ms`.
    pub fn new(config: StdpConfig, num_neurons: usize, dt_ms: f32) -> Self {
        Self {
            config,
            x_pre: vec![0.0; num_neurons],
            x_post: vec![0.0; num_neurons],
            decay_pre: (-dt_ms / TAU_PLUS_MS).exp(),
            decay_post: (-dt_ms / TAU_MINUS_MS).exp(),
        }
    }

    /// The rule's parameters.
    pub fn config(&self) -> &StdpConfig {
        &self.config
    }

    /// Decays all traces by one timestep.
    pub fn decay(&mut self) {
        for x in &mut self.x_pre {
            *x *= self.decay_pre;
        }
        for x in &mut self.x_post {
            *x *= self.decay_post;
        }
    }

    /// Registers that neuron `id` spiked (bumps both of its traces).
    pub fn on_spike(&mut self, id: usize) {
        self.x_pre[id] = 1.0;
        self.x_post[id] = 1.0;
    }

    /// Weight change when the *presynaptic* side of `(pre → post)` fires.
    pub fn dw_on_pre(&self, post: usize) -> f32 {
        -self.config.a_minus * self.x_post[post]
    }

    /// Weight change when the *postsynaptic* side of `(pre → post)` fires.
    pub fn dw_on_post(&self, pre: usize) -> f32 {
        self.config.a_plus * self.x_pre[pre]
    }

    /// Clamps a weight to the configured bounds.
    pub fn clamp(&self, w: f32) -> f32 {
        w.clamp(self.config.w_min, self.config.w_max)
    }

    /// Presynaptic trace of neuron `id` (introspection/tests).
    pub fn pre_trace(&self, id: usize) -> f32 {
        self.x_pre[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_decay_exponentially() {
        let mut s = StdpState::new(StdpConfig::default(), 2, 1.0);
        s.on_spike(0);
        let x0 = s.pre_trace(0);
        s.decay();
        let x1 = s.pre_trace(0);
        assert!(x1 < x0);
        let expected = (-1.0f32 / 20.0).exp();
        assert!((x1 - expected).abs() < 1e-6);
    }

    #[test]
    fn pre_after_post_depresses() {
        let mut s = StdpState::new(StdpConfig::default(), 2, 1.0);
        s.on_spike(1); // post fires first
        s.decay();
        let dw = s.dw_on_pre(1); // then pre fires
        assert!(dw < 0.0);
    }

    #[test]
    fn post_after_pre_potentiates() {
        let mut s = StdpState::new(StdpConfig::default(), 2, 1.0);
        s.on_spike(0); // pre fires first
        s.decay();
        let dw = s.dw_on_post(0); // then post fires
        assert!(dw > 0.0);
    }

    #[test]
    fn causality_window_fades() {
        let mut s = StdpState::new(StdpConfig::default(), 2, 1.0);
        s.on_spike(0);
        s.decay();
        let dw_close = s.dw_on_post(0);
        for _ in 0..100 {
            s.decay();
        }
        let dw_far = s.dw_on_post(0);
        assert!(dw_far < dw_close * 0.1);
    }

    #[test]
    fn clamp_respects_bounds() {
        let s = StdpState::new(StdpConfig::default(), 1, 1.0);
        assert_eq!(s.clamp(2.0), 1.0);
        assert_eq!(s.clamp(-0.5), 0.0);
        assert_eq!(s.clamp(0.25), 0.25);
    }
}
