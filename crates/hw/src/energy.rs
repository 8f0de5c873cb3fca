//! Event-level energy model, loadable from JSON.
//!
//! Noxim reads its power numbers from an external YAML file so users can
//! re-target the simulator to their silicon; we reproduce the feature with
//! JSON via serde. All values are **picojoules per event**. The defaults are
//! anchored to published neuromorphic figures: TrueNorth reports ≈26 pJ per
//! (routed) synaptic event end to end, and analog crossbar events are one to
//! two orders of magnitude cheaper than packets traversing a NoC — the
//! local ≪ global asymmetry the paper's optimization exploits.

use crate::error::HwError;
use serde::{Deserialize, Serialize};

/// Energy per hardware event, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EnergyModel {
    /// One synaptic event inside a crossbar (memristor read + integration).
    pub local_synapse_pj: f64,
    /// One packet traversing one router (arbitration + switch).
    pub router_hop_pj: f64,
    /// One flit traversing one inter-router link.
    pub link_flit_pj: f64,
    /// One buffer write+read cycle for a queued flit.
    pub buffer_flit_pj: f64,
    /// AER encoding of one spike at the source crossbar boundary.
    pub encode_pj: f64,
    /// AER decoding of one spike at the destination crossbar boundary.
    pub decode_pj: f64,
    /// Crossbar dimension at which `local_synapse_pj` was characterized.
    /// Event energy scales linearly with the array dimension (wordline and
    /// bitline capacitance grow with the number of columns/rows), so a
    /// 256-wide crossbar costs `256 / reference_dim × local_synapse_pj`
    /// per event. This is what makes "few large crossbars" lose to an
    /// intermediate size in the paper's Fig. 6.
    #[serde(default = "default_reference_dim")]
    pub reference_dim: f64,
}

fn default_reference_dim() -> f64 {
    128.0
}

impl Default for EnergyModel {
    /// CxQuad-class defaults (in-house-chip-magnitude numbers).
    fn default() -> Self {
        Self {
            local_synapse_pj: 2.2,
            router_hop_pj: 11.3,
            link_flit_pj: 3.7,
            buffer_flit_pj: 1.9,
            encode_pj: 4.2,
            decode_pj: 4.2,
            reference_dim: 128.0,
        }
    }
}

impl EnergyModel {
    /// Parses an energy model from a JSON string.
    ///
    /// # Errors
    ///
    /// [`HwError::Config`] when the JSON is malformed, has unknown fields,
    /// or contains negative energies.
    ///
    /// ```
    /// use neuromap_hw::energy::EnergyModel;
    /// # fn main() -> Result<(), neuromap_hw::HwError> {
    /// let m = EnergyModel::from_json(r#"{
    ///     "local_synapse_pj": 1.0, "router_hop_pj": 10.0,
    ///     "link_flit_pj": 3.0, "buffer_flit_pj": 1.0,
    ///     "encode_pj": 4.0, "decode_pj": 4.0
    /// }"#)?;
    /// assert_eq!(m.local_synapse_pj, 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_json(json: &str) -> Result<Self, HwError> {
        let model: EnergyModel =
            serde_json::from_str(json).map_err(|e| HwError::Config(e.to_string()))?;
        model.validate()?;
        Ok(model)
    }

    /// Serializes the model to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("energy model serializes")
    }

    /// Checks all energies are non-negative.
    ///
    /// # Errors
    ///
    /// [`HwError::Config`] naming the negative field.
    pub fn validate(&self) -> Result<(), HwError> {
        let fields = [
            ("local_synapse_pj", self.local_synapse_pj),
            ("router_hop_pj", self.router_hop_pj),
            ("link_flit_pj", self.link_flit_pj),
            ("buffer_flit_pj", self.buffer_flit_pj),
            ("encode_pj", self.encode_pj),
            ("decode_pj", self.decode_pj),
            ("reference_dim", self.reference_dim),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v < 0.0 {
                return Err(HwError::Config(format!("{name} must be ≥ 0, got {v}")));
            }
        }
        Ok(())
    }

    /// Energy for `events` local synaptic events on crossbars of
    /// dimension `crossbar_dim` (linear wordline/bitline capacitance
    /// scaling; see [`EnergyModel::reference_dim`]).
    pub fn local_pj_scaled(&self, events: u64, crossbar_dim: u32) -> f64 {
        let ref_dim = if self.reference_dim > 0.0 {
            self.reference_dim
        } else {
            128.0
        };
        events as f64 * (self.local_synapse_pj * crossbar_dim as f64 / ref_dim)
    }
}

/// Converts picojoules to microjoules (the unit of the paper's Fig. 6).
pub fn pj_to_uj(pj: f64) -> f64 {
    pj * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let m = EnergyModel::default();
        let j = m.to_json();
        let back = EnergyModel::from_json(&j).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn unknown_fields_rejected() {
        let err = EnergyModel::from_json(r#"{"bogus": 1.0}"#).unwrap_err();
        assert!(matches!(err, HwError::Config(_)));
    }

    #[test]
    fn negative_energy_rejected() {
        let m = EnergyModel {
            router_hop_pj: -1.0,
            ..EnergyModel::default()
        };
        assert!(m.validate().is_err());
        let json = serde_json::to_string(&m).unwrap();
        assert!(EnergyModel::from_json(&json).is_err());
    }

    #[test]
    fn pj_to_uj_scale() {
        assert_eq!(pj_to_uj(2_000_000.0), 2.0);
    }
}
