//! Spike traffic: the injection schedule derived from a partitioned SNN.
//!
//! A [`SpikeFlow`] is one spike of one neuron that must leave its crossbar:
//! the source crossbar, the set of destination crossbars holding its global
//! postsynaptic neurons, and the SNN timestep of the spike. The simulator
//! turns flows into AER packets, serializing simultaneous spikes of one
//! crossbar through its encoder (one packet per cycle), which fixes the
//! *intended* delivery order that the disorder metric is measured against.

use serde::{Deserialize, Serialize};

/// One spike event bound for one or more remote crossbars.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeFlow {
    /// Global id of the spiking neuron.
    pub source_neuron: u32,
    /// Crossbar hosting the neuron.
    pub src_crossbar: u32,
    /// Destination crossbars (deduplicated, excluding the source crossbar).
    pub dst_crossbars: Vec<u32>,
    /// SNN timestep at which the neuron fired.
    pub send_step: u32,
}

impl SpikeFlow {
    /// A flow to a single destination.
    pub fn unicast(source_neuron: u32, src: u32, dst: u32, send_step: u32) -> Self {
        Self {
            source_neuron,
            src_crossbar: src,
            dst_crossbars: vec![dst],
            send_step,
        }
    }

    /// A flow to several destinations (candidates for multicast).
    ///
    /// Destinations are deduplicated and the source crossbar is removed.
    pub fn multicast(source_neuron: u32, src: u32, mut dsts: Vec<u32>, send_step: u32) -> Self {
        dsts.sort_unstable();
        dsts.dedup();
        dsts.retain(|&d| d != src);
        Self {
            source_neuron,
            src_crossbar: src,
            dst_crossbars: dsts,
            send_step,
        }
    }
}

/// Sorts flows into canonical injection order: by step, then source
/// crossbar, then source neuron, then destination set — the order the AER
/// encoders see them.
///
/// The destination set participates so the order is *total*: per-synapse
/// traffic emits several flows with the same `(step, crossbar, neuron)`
/// key (one per cut synapse), and a key-only sort would let the caller's
/// input order leak into the injection schedule. With a total order,
/// permuting the input flows cannot change the simulation. The simulator
/// builds its schedule in this order without calling it (equal flows keep
/// their input order there, which no output can tell apart).
pub fn sort_canonical(flows: &mut [SpikeFlow]) {
    flows.sort_by(|a, b| {
        (
            a.send_step,
            a.src_crossbar,
            a.source_neuron,
            &a.dst_crossbars,
        )
            .cmp(&(
                b.send_step,
                b.src_crossbar,
                b.source_neuron,
                &b.dst_crossbars,
            ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_dedups_and_drops_source() {
        let f = SpikeFlow::multicast(1, 2, vec![3, 2, 3, 0], 5);
        assert_eq!(f.dst_crossbars, vec![0, 3]);
    }

    #[test]
    fn canonical_sort_orders_by_step_then_source() {
        let mut flows = vec![
            SpikeFlow::unicast(9, 1, 0, 2),
            SpikeFlow::unicast(1, 0, 1, 2),
            SpikeFlow::unicast(5, 0, 1, 1),
        ];
        sort_canonical(&mut flows);
        assert_eq!(flows[0].send_step, 1);
        assert_eq!(flows[1].src_crossbar, 0);
        assert_eq!(flows[2].src_crossbar, 1);
    }

    #[test]
    fn canonical_sort_is_total_over_destinations() {
        // same (step, crossbar, neuron) key, different destinations — the
        // per-synapse traffic shape; order must not depend on input order
        let a = SpikeFlow::unicast(5, 0, 3, 1);
        let b = SpikeFlow::unicast(5, 0, 1, 1);
        let mut fwd = vec![a.clone(), b.clone()];
        let mut rev = vec![b, a];
        sort_canonical(&mut fwd);
        sort_canonical(&mut rev);
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].dst_crossbars, vec![1]);
    }
}
