//! # neuromap-hw — neuromorphic hardware model
//!
//! Models the class of hardware targeted by Das et al. (DATE 2018): multiple
//! fixed-size memristive **crossbars** of fully connected neurons joined by a
//! **time-multiplexed interconnect** (Figure 1 of the paper). Provides:
//!
//! * [`crossbar::CrossbarSpec`] — crossbar geometry and capacity rules;
//! * [`arch::Architecture`] — a full chip description (crossbar count/size +
//!   interconnect kind + energy model), with the preset
//!   [`arch::Architecture::cxquad`] (4 crossbars × 128 neurons, NoC-tree);
//! * [`energy::EnergyModel`] — pJ-level event energies, loadable from JSON
//!   (the counterpart of Noxim's external YAML power file);
//! * [`mapping::Mapping`] — a neuron → crossbar assignment with the paper's
//!   validity constraints (Eq. 4–5), and [`mapping::Placement`], the
//!   cluster → physical-crossbar permutation composed into it.
//!
//! Which synapses a mapping leaves local or global, and what their AER
//! packets cost on the interconnect, is derived downstream: by
//! `neuromap-core`'s traffic walk and `neuromap-noc`'s simulator.
//!
//! ```
//! use neuromap_hw::arch::Architecture;
//! use neuromap_hw::mapping::Mapping;
//!
//! let arch = Architecture::cxquad();
//! assert_eq!(arch.num_crossbars(), 4);
//! // map 6 neurons round-robin over the 4 crossbars
//! let m = Mapping::from_assignment(vec![0, 1, 2, 3, 0, 1], 4).unwrap();
//! assert!(m.validate(&arch).is_ok());
//! assert_eq!(m.occupancy(), vec![2, 2, 1, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod crossbar;
pub mod energy;
mod error;
pub mod mapping;

pub use arch::Architecture;
pub use energy::EnergyModel;
pub use error::HwError;
pub use mapping::Mapping;
