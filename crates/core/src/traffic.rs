//! The traffic model: what a mapping sends over the interconnect, derived
//! in one place.
//!
//! Under a mapping, neuron `i` lives on its **home** crossbar and each of
//! its synapses `(i, j)` is **local** when `j` shares that crossbar (the
//! crossbar serves it; nothing leaves) and **remote** otherwise. Every
//! spike of `i` reaches all of `i`'s synapses, so per spike the
//! interconnect owes `i`'s **net**: the set of distinct remote crossbars
//! among its targets, each with the number of synapses behind it. Two
//! accountings turn nets into packets ([`crate::pipeline::TrafficMode`]):
//!
//! * `PerSynapse` — one packet per spike per remote *synapse* (paper
//!   Eq. 7): a net entry `(crossbar, synapses)` costs `synapses` packets;
//! * `PerCrossbar` — one packet per spike per distinct remote *crossbar*
//!   (AER): a net entry costs one, and the whole net may ride one
//!   multicast packet.
//!
//! [`walk`] is the only derivation of that net (its sort and run-length
//! fold is the only dedup of destination crossbars outside the
//! `PartitionProblem` cost functions, which stay independent as the
//! specification `tests/traffic_properties.rs` holds this module to).
//! Every stage view is a fold over it:
//!
//! | fold | consumed by |
//! |---|---|
//! | `pipeline::build_flows` — one flow per spike per packet, the flows of a net sharing one destination list | packetize → simulate, `hop_metrics` |
//! | `pipeline::local_events` — `Σ spikes · local synapses` | report (local energy) |
//! | `place::TrafficMatrix::from_mapping` — packets per cluster pair | placement, co-optimization |

use crate::graph::SpikeGraph;

/// One spiking neuron under a mapping, as [`walk`] hands it out.
pub(crate) struct Fanout<'a> {
    /// The neuron's id.
    pub neuron: u32,
    /// The crossbar hosting it.
    pub home: u32,
    /// Its spike count (never zero).
    pub spikes: u64,
    /// Synapses whose target shares `home`.
    pub local: u64,
    /// The net: `(crossbar, synapses)` per distinct remote target
    /// crossbar, ascending by crossbar. Empty when every target is local.
    pub remote: &'a [(u32, u32)],
}

/// Visits every spiking neuron of `graph` under `assignment`
/// (`assignment[i]` = crossbar of neuron `i`), in id order. Silent
/// neurons send nothing under either accounting and are skipped.
///
/// # Panics
///
/// Panics if `assignment.len() != graph.num_neurons()`.
pub(crate) fn walk(graph: &SpikeGraph, assignment: &[u32], mut visit: impl FnMut(Fanout<'_>)) {
    assert_eq!(
        assignment.len(),
        graph.num_neurons() as usize,
        "mapping must cover every neuron"
    );
    let mut dsts: Vec<u32> = Vec::new();
    let mut remote: Vec<(u32, u32)> = Vec::new();
    for neuron in 0..graph.num_neurons() {
        let spikes = u64::from(graph.count(neuron));
        if spikes == 0 {
            continue;
        }
        let home = assignment[neuron as usize];
        let targets = graph.targets(neuron);
        dsts.clear();
        dsts.extend(
            targets
                .iter()
                .map(|&j| assignment[j as usize])
                .filter(|&c| c != home),
        );
        dsts.sort_unstable();
        remote.clear();
        remote.extend(
            dsts.chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u32)),
        );
        visit(Fanout {
            neuron,
            home,
            spikes,
            local: (targets.len() - dsts.len()) as u64,
            remote: &remote,
        });
    }
}
