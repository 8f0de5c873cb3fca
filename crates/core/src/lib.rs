//! # neuromap-core — PSO-based partitioning of SNNs onto neuromorphic hardware
//!
//! The primary contribution of Das et al., *"Mapping of Local and Global
//! Synapses on Spiking Neuromorphic Hardware"* (DATE 2018): partition a
//! trained spiking neural network into **local synapses** (mapped inside
//! crossbars) and **global synapses** (mapped on the time-multiplexed
//! interconnect) such that spike traffic on the interconnect — and with it
//! energy, latency, spike disorder and ISI distortion — is minimized.
//!
//! ## The optimization problem (paper §III)
//!
//! Given a spike graph `G = (A, S)` where each synapse `(i, j)` carries the
//! spike count of its presynaptic neuron, assign every neuron to one of `C`
//! crossbars (Eq. 4) of capacity `Nc` (Eq. 5) minimizing the total number of
//! spikes crossing crossbar boundaries (Eq. 7–8).
//!
//! * [`graph::SpikeGraph`] — the trained-SNN representation (from
//!   `neuromap-snn` simulation output or built directly);
//! * [`partition::PartitionProblem`] — constraints + the cut-spike cost;
//! * [`pso::PsoPartitioner`] — the paper's binary particle swarm optimizer,
//!   with its re-binarization and repair kernel in [`decode`];
//! * [`baselines`] — the paper's two comparison points: PACMAN
//!   (SpiNNaker sequential packing) and NEUTRAMS (partition-oblivious
//!   round-robin);
//! * [`eval`] — the incremental fitness engine every optimizer prices
//!   with, and [`refine`], the greedy single-neuron local search on it;
//! * [`multilevel`] — coarsen, partition the coarsest level, refine;
//! * [`coopt`] — the joint partition ⇄ placement loop;
//! * [`pipeline`] — the staged flow: SNN → spike graph → partition →
//!   place → packetize → interconnect simulation → [`pipeline::Report`]
//!   ([`pipeline::MappingPipeline`]);
//! * [`place`] — the hop-aware cluster-placement stage (SpiNeMap-style):
//!   a deterministic QAP optimizer mapping logical clusters onto physical
//!   crossbars to minimize hop-weighted packets;
//! * [`explore`] — the architecture sweep of Fig. 6 and the swarm-size
//!   sweep of Fig. 7.
//!
//! ## Quickstart
//!
//! ```
//! use neuromap_core::graph::SpikeGraph;
//! use neuromap_core::partition::PartitionProblem;
//! use neuromap_core::pso::{PsoConfig, PsoPartitioner};
//! use neuromap_core::partition::Partitioner;
//!
//! # fn main() -> Result<(), neuromap_core::CoreError> {
//! // 4 neurons in a chain, neuron 0 spikes 10 times, the rest relay
//! let graph = SpikeGraph::from_parts(
//!     4,
//!     vec![(0, 1), (1, 2), (2, 3)],
//!     vec![10, 10, 10, 10],
//! )?;
//! let problem = PartitionProblem::new(&graph, 2, 2)?;
//! let pso = PsoPartitioner::new(PsoConfig { swarm_size: 20, iterations: 30, ..PsoConfig::default() });
//! let mapping = pso.partition(&problem)?;
//! // optimal: {0,1} and {2,3} — exactly one cut synapse, 10 spikes
//! assert_eq!(problem.cut_spikes(mapping.assignment()), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod coopt;
pub mod decode;
mod error;
pub mod eval;
pub mod explore;
pub mod graph;
pub mod multilevel;
pub mod partition;
pub mod pipeline;
pub mod place;
pub mod pool;
pub mod pso;
pub mod refine;
mod traffic;

pub use error::CoreError;
pub use graph::SpikeGraph;
pub use partition::{PartitionProblem, Partitioner};
pub use pipeline::{MappingPipeline, PipelineConfig, Report};
