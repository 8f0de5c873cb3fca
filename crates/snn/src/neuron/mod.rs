//! Neuron dynamics models.
//!
//! Three models cover the workloads of the paper:
//!
//! * [`Izhikevich`] — the model CARLsim is built around; used by the
//!   feedforward and synthetic workloads.
//! * [`Lif`] — leaky integrate-and-fire, used for liquid-state-machine
//!   reservoirs (heartbeat estimation).
//! * [`AdaptiveLif`] — LIF with an adaptive threshold, the excitatory-neuron
//!   model of Diehl & Cook's unsupervised digit-recognition network.
//!
//! Models are usually selected through [`NeuronKind`], which is a plain-data
//! description suitable for network construction and serialization; the
//! simulator instantiates concrete state from it via [`NeuronKind::build`].
//! One preset per model carries the parameters the workloads use:
//! [`NeuronKind::izhikevich_rs`] (regular spiking),
//! [`NeuronKind::lif_default`] and [`NeuronKind::adaptive_lif_default`].

mod izhikevich;
mod lif;

pub use izhikevich::Izhikevich;
pub use lif::{AdaptiveLif, Lif};

use serde::{Deserialize, Serialize};

/// Common interface for point-neuron dynamics.
///
/// A model integrates its state by one timestep `dt` (milliseconds) under an
/// input current `i_syn` (model units) and reports whether it fired.
pub trait NeuronModel {
    /// Advances the state by `dt` ms under input current `i_syn`.
    /// Returns `true` if the neuron emitted a spike during this step.
    fn step(&mut self, i_syn: f32, dt: f32) -> bool;

    /// Resets dynamic state to the resting condition (keeps parameters).
    fn reset(&mut self);

    /// Current membrane potential in mV (model-specific scale).
    fn potential(&self) -> f32;
}

/// Plain-data description of a neuron model and its parameters.
///
/// ```
/// use neuromap_snn::neuron::{NeuronKind, NeuronModel};
/// let mut n = NeuronKind::izhikevich_rs().build();
/// let fired = n.step(10.0, 1.0);
/// assert!(!fired || n.potential() < 35.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NeuronKind {
    /// Izhikevich model with parameters `(a, b, c, d)`.
    Izhikevich {
        /// Recovery time scale.
        a: f32,
        /// Recovery sensitivity.
        b: f32,
        /// Post-spike reset potential (mV).
        c: f32,
        /// Post-spike recovery increment.
        d: f32,
    },
    /// Leaky integrate-and-fire.
    Lif {
        /// Membrane time constant (ms).
        tau_m: f32,
        /// Resting potential (mV).
        v_rest: f32,
        /// Firing threshold (mV).
        v_th: f32,
        /// Post-spike reset potential (mV).
        v_reset: f32,
        /// Absolute refractory period (ms).
        refractory: f32,
    },
    /// LIF with adaptive threshold (Diehl & Cook excitatory neurons).
    AdaptiveLif {
        /// Membrane time constant (ms).
        tau_m: f32,
        /// Resting potential (mV).
        v_rest: f32,
        /// Base firing threshold (mV).
        v_th: f32,
        /// Post-spike reset potential (mV).
        v_reset: f32,
        /// Absolute refractory period (ms).
        refractory: f32,
        /// Threshold increment per output spike (mV).
        theta_plus: f32,
        /// Threshold decay time constant (ms).
        tau_theta: f32,
    },
}

impl NeuronKind {
    /// Izhikevich *regular spiking* (RS) — cortical excitatory default.
    pub fn izhikevich_rs() -> Self {
        NeuronKind::Izhikevich {
            a: 0.02,
            b: 0.2,
            c: -65.0,
            d: 8.0,
        }
    }

    /// A standard LIF parameterization (τm = 20 ms, threshold −52 mV).
    pub fn lif_default() -> Self {
        NeuronKind::Lif {
            tau_m: 20.0,
            v_rest: -65.0,
            v_th: -52.0,
            v_reset: -65.0,
            refractory: 2.0,
        }
    }

    /// Diehl & Cook-style adaptive-threshold excitatory neuron.
    pub fn adaptive_lif_default() -> Self {
        NeuronKind::AdaptiveLif {
            tau_m: 100.0,
            v_rest: -65.0,
            v_th: -52.0,
            v_reset: -65.0,
            refractory: 5.0,
            theta_plus: 0.05,
            tau_theta: 1e4,
        }
    }

    /// Instantiates runtime state for this parameterization.
    pub fn build(&self) -> Box<dyn NeuronModel + Send> {
        match *self {
            NeuronKind::Izhikevich { a, b, c, d } => Box::new(Izhikevich::new(a, b, c, d)),
            NeuronKind::Lif {
                tau_m,
                v_rest,
                v_th,
                v_reset,
                refractory,
            } => Box::new(Lif::new(tau_m, v_rest, v_th, v_reset, refractory)),
            NeuronKind::AdaptiveLif {
                tau_m,
                v_rest,
                v_th,
                v_reset,
                refractory,
                theta_plus,
                tau_theta,
            } => Box::new(AdaptiveLif::new(
                Lif::new(tau_m, v_rest, v_th, v_reset, refractory),
                theta_plus,
                tau_theta,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_distinct_models() {
        for kind in [
            NeuronKind::izhikevich_rs(),
            NeuronKind::lif_default(),
            NeuronKind::adaptive_lif_default(),
        ] {
            let mut m = kind.build();
            // all models rest below threshold and don't fire without input
            for _ in 0..50 {
                assert!(!m.step(0.0, 1.0), "{kind:?} fired with zero input");
            }
        }
    }

    #[test]
    fn strong_current_fires_everything() {
        for kind in [
            NeuronKind::izhikevich_rs(),
            NeuronKind::lif_default(),
            NeuronKind::adaptive_lif_default(),
        ] {
            let mut m = kind.build();
            let fired = (0..200).any(|_| m.step(30.0, 1.0));
            assert!(fired, "{kind:?} never fired under strong current");
        }
    }

    #[test]
    fn reset_restores_rest() {
        let mut m = NeuronKind::izhikevich_rs().build();
        for _ in 0..100 {
            m.step(20.0, 1.0);
        }
        m.reset();
        let v = m.potential();
        assert!((-70.0..=-60.0).contains(&v), "potential after reset: {v}");
    }
}
