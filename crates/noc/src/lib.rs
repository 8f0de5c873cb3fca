//! # neuromap-noc — time-multiplexed interconnect simulator
//!
//! A Noxim-class network-on-chip simulator extended the way the paper
//! extends Noxim into **Noxim++** (Section IV):
//!
//! 1. *interconnect models for representative neuromorphic hardware* —
//!    [`topology::Mesh2D`] (TrueNorth/HiCANN), [`topology::NocTree`]
//!    (CxQuad), [`topology::Torus`], [`topology::Star`], and an idealized
//!    [`topology::PointToPoint`];
//! 2. *SNN-related metrics* — spike **disorder count** and **inter-spike
//!    interval (ISI) distortion** ([`stats::NocStats`]);
//! 3. *multicast* — spike packets delivered to a selected subset of
//!    crossbars: a packet's destination set is split at routing branch
//!    points, and since a neuron's destinations are fixed by the mapping,
//!    where each *net* (source crossbar, destination set) splits is
//!    planned once per run, not per spike (the packet model in the [`sim`]
//!    module docs).
//!
//! Routers are input-buffered with configurable depth, per-output
//! arbitration ([`router::Arbitration`]), link serialization by packet size
//! in flits, and backpressure — the congestion mechanisms that produce the
//! latency, disorder and distortion effects the paper measures.
//!
//! The model is written once and [`sim::NocSim`] runs it under one of two
//! schedulers ([`sim::EngineKind`]): the event-driven one (production —
//! it examines only the ports something could have enabled, so runtime
//! scales with traffic events, not simulated cycles) and the cycle-driven
//! reference (every port, every cycle, every route asked of the topology
//! afresh) it is differentially verified against, byte-for-byte. See the
//! [`sim`] module docs for the event model and the equivalence argument.
//!
//! ## Quickstart
//!
//! ```
//! use neuromap_noc::config::NocConfig;
//! use neuromap_noc::sim::NocSim;
//! use neuromap_noc::topology::Mesh2D;
//! use neuromap_noc::traffic::SpikeFlow;
//! use neuromap_hw::energy::EnergyModel;
//!
//! // 4 crossbars on a 2x2 mesh; one spike from crossbar 0 to 3
//! let topo = Mesh2D::for_crossbars(4);
//! let flows = vec![SpikeFlow::unicast(/*neuron*/ 7, /*src*/ 0, /*dst*/ 3, /*step*/ 0)];
//! let mut sim = NocSim::new(Box::new(topo), NocConfig::default(), EnergyModel::default());
//! let stats = sim.run(&flows).unwrap();
//! assert_eq!(stats.delivered, 1);
//! assert!(stats.max_latency_cycles >= 2); // two mesh hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod error;
mod plan;
pub mod router;
mod sched;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use config::NocConfig;
pub use error::NocError;
pub use sim::{EngineKind, NocSim};
pub use stats::NocStats;
pub use trace::{SpotterReport, TraceBuf, TraceEvent};
