//! # neuromap — mapping local and global synapses on spiking neuromorphic hardware
//!
//! A full Rust reproduction of Das et al., *"Mapping of Local and Global
//! Synapses on Spiking Neuromorphic Hardware"* (DATE 2018), including every
//! substrate the paper depends on:
//!
//! * [`snn`] — a CARLsim-class spiking-neural-network simulator
//!   (Izhikevich/LIF/adaptive-LIF neurons, STDP, Poisson sources, rate and
//!   temporal coding);
//! * [`hw`] — the hardware model (crossbars, CxQuad-class and custom
//!   architectures, JSON-loadable energy model, neuron → crossbar
//!   mappings);
//! * [`noc`] — a Noxim++-class interconnect simulator — an event-driven
//!   engine differentially verified against a cycle-accurate oracle
//!   (mesh/tree/torus/star, multicast, spike-disorder and ISI-distortion
//!   metrics);
//! * [`core`] — the paper's contribution: binary-PSO partitioning of an SNN
//!   into local and global synapses, the paper's baselines (PACMAN,
//!   NEUTRAMS), the end-to-end pipeline and the design-space explorations;
//! * [`apps`] — the evaluation workloads of Table I plus the synthetic
//!   m×n topologies.
//!
//! ## End-to-end example
//!
//! ```
//! use neuromap::apps::{synthetic::Synthetic, App};
//! use neuromap::core::baselines::PacmanPartitioner;
//! use neuromap::core::pso::{PsoConfig, PsoPartitioner};
//! use neuromap::core::{MappingPipeline, PipelineConfig};
//! use neuromap::hw::arch::{Architecture, InterconnectKind};
//!
//! # fn main() -> Result<(), neuromap::core::CoreError> {
//! // 1. simulate a small synthetic SNN and extract its spike graph
//! let app = Synthetic { steps: 200, ..Synthetic::new(2, 24) };
//! let graph = app.spike_graph(7)?;
//!
//! // 2. one pipeline per target: a 4-crossbar chip with a NoC-tree
//! //    (CxQuad-style); topology and hop table are built once here
//! let arch = Architecture::custom(4, 16, InterconnectKind::Tree { arity: 4 })?;
//! let pipeline = MappingPipeline::new(PipelineConfig::for_arch(arch));
//!
//! // 3. PSO against the PACMAN baseline
//! let pso = PsoPartitioner::new(PsoConfig { swarm_size: 20, iterations: 20, ..PsoConfig::default() });
//! let r_pso = pipeline.run(&graph, &pso)?;
//! let r_pacman = pipeline.run(&graph, &PacmanPartitioner::new())?;
//! assert!(r_pso.cut_spikes <= r_pacman.cut_spikes);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use neuromap_apps as apps;
pub use neuromap_core as core;
pub use neuromap_hw as hw;
pub use neuromap_noc as noc;
pub use neuromap_snn as snn;
