//! # neuromap-snn — spiking neural network simulation substrate
//!
//! A CARLsim-class, clock-driven spiking neural network (SNN) simulator.
//! This crate is the *application-level* substrate of the neuromap
//! reproduction of Das et al., *"Mapping of Local and Global Synapses on
//! Spiking Neuromorphic Hardware"* (DATE 2018): it produces the trained
//! SNN together with the spike times of every neuron, which downstream
//! crates turn into a *spike graph* and partition onto hardware.
//!
//! ## What is provided
//!
//! * **Neuron models** — [`neuron::Izhikevich`] (the model CARLsim is built
//!   around, with the regular-spiking preset),
//!   [`neuron::Lif`], and [`neuron::AdaptiveLif`] (Diehl & Cook-style
//!   adaptive threshold used by the digit-recognition workload).
//! * **Network construction** — [`network::NetworkBuilder`] with neuron
//!   groups and reusable connection patterns (full, one-to-one, fixed
//!   probability, 2-D neighborhood kernels, explicit lists).
//! * **Spike sources** — [`generator::Generator`]: Poisson, per-neuron rate
//!   arrays, and explicit spike trains.
//! * **Simulation** — [`simulator::Simulator`], a fixed-timestep engine with
//!   axonal delays and full spike recording.
//! * **Plasticity** — [`stdp::StdpConfig`], pair-based trace STDP with weight
//!   clamping and divisive normalization (unsupervised learning).
//! * **Coding** — [`coding`]: rate coding and level-crossing temporal
//!   coding, the two schemes distinguished in the paper's Table I.
//! * **Spike analysis** — [`spikes::SpikeTrain`] with inter-spike-interval
//!   (ISI) utilities that the paper's metrics are defined on.
//!
//! ## Quickstart
//!
//! ```
//! use neuromap_snn::network::{ConnectPattern, NetworkBuilder, WeightInit};
//! use neuromap_snn::neuron::NeuronKind;
//! use neuromap_snn::generator::Generator;
//! use neuromap_snn::simulator::Simulator;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), neuromap_snn::SnnError> {
//! let mut b = NetworkBuilder::new();
//! let input = b.add_input_group("in", 10, Generator::poisson(40.0))?;
//! let out = b.add_group("out", 5, NeuronKind::izhikevich_rs())?;
//! b.connect(input, out, ConnectPattern::Full, WeightInit::Constant(6.0), 1)?;
//! let net = b.build()?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut sim = Simulator::new(net);
//! let record = sim.run(500, &mut rng)?; // 500 ms
//! assert_eq!(record.num_neurons(), 15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coding;
mod error;
pub mod generator;
pub mod network;
pub mod neuron;
pub mod raster;
pub mod simulator;
pub mod spikes;
pub mod stdp;
pub mod synapse;

pub use error::SnnError;
pub use network::{GroupId, Network, NetworkBuilder};
pub use simulator::{SimConfig, Simulator, SpikeRecord};
pub use spikes::SpikeTrain;
