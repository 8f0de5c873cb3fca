//! Spike traffic: the injection schedule derived from a partitioned SNN.
//!
//! A [`SpikeFlow`] is one spike of one neuron that must leave its crossbar:
//! the source crossbar, the set of destination crossbars holding its global
//! postsynaptic neurons, and the SNN timestep of the spike. The simulator
//! turns each flow into one AER packet (split where its destinations'
//! routes part: multicast), serializing simultaneous spikes of one
//! crossbar through its encoder (one packet per cycle), which fixes the
//! *intended* delivery order that the disorder metric is measured against.
//!
//! Every spike of a neuron goes to the same crossbars, so the destination
//! list is shared: it is an `Arc<[u32]>`, one allocation per net however
//! many spikes ride it, and cloning a flow is O(1). Its JSON is the plain
//! array either way.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One spike event bound for one or more remote crossbars.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeFlow {
    /// Global id of the spiking neuron.
    pub source_neuron: u32,
    /// Crossbar hosting the neuron.
    pub src_crossbar: u32,
    /// Destination crossbars (deduplicated, excluding the source crossbar),
    /// shared by every flow of the same net.
    pub dst_crossbars: Arc<[u32]>,
    /// SNN timestep at which the neuron fired.
    pub send_step: u32,
}

impl SpikeFlow {
    /// A flow to a single destination.
    pub fn unicast(source_neuron: u32, src: u32, dst: u32, send_step: u32) -> Self {
        Self {
            source_neuron,
            src_crossbar: src,
            dst_crossbars: Arc::new([dst]),
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
            dst_crossbars: dsts.into(),
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
        assert_eq!(*f.dst_crossbars, [0, 3]);
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
        assert_eq!(*fwd[0].dst_crossbars, [1]);
    }

    #[test]
    fn json_is_the_plain_array_and_round_trips() {
        // the form a `Vec<u32>` field wrote, byte for byte
        #[derive(Serialize)]
        struct VecFlow {
            source_neuron: u32,
            src_crossbar: u32,
            dst_crossbars: Vec<u32>,
            send_step: u32,
        }
        for flow in [
            SpikeFlow::multicast(7, 2, vec![5, 0, 9], 11),
            SpikeFlow::unicast(1, 0, 3, 0),
            SpikeFlow::multicast(4, 1, vec![1], 2),
        ] {
            let json = serde_json::to_string(&flow).unwrap();
            let plain = VecFlow {
                source_neuron: flow.source_neuron,
                src_crossbar: flow.src_crossbar,
                dst_crossbars: flow.dst_crossbars.to_vec(),
                send_step: flow.send_step,
            };
            assert_eq!(json, serde_json::to_string(&plain).unwrap());
            let back: SpikeFlow = serde_json::from_str(&json).unwrap();
            assert_eq!(back, flow);
        }
        assert_eq!(
            serde_json::to_string(&SpikeFlow::unicast(1, 0, 3, 2)).unwrap(),
            r#"{"source_neuron":1,"src_crossbar":0,"dst_crossbars":[3],"send_step":2}"#
        );
    }

    #[test]
    fn clones_share_the_destination_list() {
        let flow = SpikeFlow::multicast(0, 0, vec![1, 2, 3], 0);
        let copy = flow.clone();
        assert!(Arc::ptr_eq(&flow.dst_crossbars, &copy.dst_crossbars));
    }
}
