//! Crossbar geometry and capacity rules.
//!
//! A crossbar is a 3-D arrangement of nanowires: presynaptic neurons drive
//! the bottom wires, postsynaptic neurons read the top wires, and every
//! crosspoint is a two-terminal memristor storing one synaptic weight
//! (paper, Section II). A `W_in × W_out` crossbar therefore implements up to
//! `W_in · W_out` *local* synapses with point-to-point wiring, at very low
//! energy per event.

use crate::error::HwError;
use serde::{Deserialize, Serialize};

/// Geometry of one crossbar.
///
/// CxQuad's crossbars are 128 × 128 (16 K local synapses); use
/// [`CrossbarSpec::square`] for such symmetric designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CrossbarSpec {
    /// Number of presynaptic (input) wordlines.
    pub inputs: u32,
    /// Number of postsynaptic (output) bitlines.
    pub outputs: u32,
}

impl CrossbarSpec {
    /// A square `n × n` crossbar.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] if `n` is zero.
    pub fn square(n: u32) -> Result<Self, HwError> {
        if n == 0 {
            return Err(HwError::InvalidParameter {
                name: "n",
                value: "0".into(),
            });
        }
        Ok(Self {
            inputs: n,
            outputs: n,
        })
    }

    /// Maximum number of neurons hostable on this crossbar.
    ///
    /// Following the paper's formulation (one x-variable per neuron per
    /// crossbar, Eq. 5 bound `Nc`), a neuron mapped to a crossbar occupies
    /// one input *and* one output line — it must be able to both receive
    /// local input and project locally — so the capacity is
    /// `min(inputs, outputs)`.
    pub fn neuron_capacity(&self) -> u32 {
        self.inputs.min(self.outputs)
    }
}

impl Default for CrossbarSpec {
    /// The CxQuad crossbar: 128 × 128.
    fn default() -> Self {
        Self {
            inputs: 128,
            outputs: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_constructor() {
        let c = CrossbarSpec::square(256).unwrap();
        assert_eq!((c.inputs, c.outputs), (256, 256));
        assert_eq!(c.neuron_capacity(), 256);
    }

    #[test]
    fn zero_size_rejected() {
        assert!(CrossbarSpec::square(0).is_err());
    }

    #[test]
    fn default_is_cxquad_crossbar() {
        let c = CrossbarSpec::default();
        assert_eq!((c.inputs, c.outputs), (128, 128));
    }

    #[test]
    fn asymmetric_capacity_is_min() {
        let c = CrossbarSpec {
            inputs: 64,
            outputs: 256,
        };
        assert_eq!(c.neuron_capacity(), 64);
    }
}
