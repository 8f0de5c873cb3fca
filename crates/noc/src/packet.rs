//! Spike packets carried by the interconnect.

use serde::{Deserialize, Serialize};

/// A spike packet in flight: one AER event travelling toward one or more
/// destination crossbars.
///
/// With multicast enabled a packet starts with the full destination set of
/// its spike; the router replicates it only at branch points, splitting the
/// set — the Noxim++ multicast extension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Monotonically increasing id of the originating spike event
    /// (stable across multicast splits; used for tracing).
    pub spike_id: u64,
    /// Global id of the source neuron.
    pub source_neuron: u32,
    /// Crossbar the spike originated from.
    pub src_crossbar: u32,
    /// Remaining destination crossbars.
    pub dests: Vec<u32>,
    /// SNN timestep of the spike.
    pub send_step: u32,
    /// Cycle at which the packet entered the network (after AER encoding).
    pub inject_cycle: u64,
}

impl Packet {
    /// Splits off every destination matching `pred` into a new packet,
    /// preserving relative order on both sides. Used at multicast branch
    /// points.
    ///
    /// The dominant case in the simulators is "every destination matches"
    /// (unicast, or a multicast with no branch here): that path moves the
    /// existing vector instead of allocating.
    pub fn take_dests_where(&mut self, pred: impl Fn(u32) -> bool) -> Packet {
        let taken = if self.dests.iter().all(|&d| pred(d)) {
            std::mem::take(&mut self.dests)
        } else {
            let mut taken = Vec::new();
            self.dests.retain(|&d| {
                if pred(d) {
                    taken.push(d);
                    false
                } else {
                    true
                }
            });
            taken
        };
        Packet {
            spike_id: self.spike_id,
            source_neuron: self.source_neuron,
            src_crossbar: self.src_crossbar,
            dests: taken,
            send_step: self.send_step,
            inject_cycle: self.inject_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(dests: Vec<u32>) -> Packet {
        Packet {
            spike_id: 1,
            source_neuron: 5,
            src_crossbar: 0,
            dests,
            send_step: 3,
            inject_cycle: 42,
        }
    }

    #[test]
    fn take_where_partitions_destinations_in_order() {
        let mut p = packet(vec![4, 1, 7, 2, 9]);
        let q = p.take_dests_where(|d| d % 2 == 1);
        assert_eq!(p.dests, vec![4, 2]);
        assert_eq!(q.dests, vec![1, 7, 9]);
        assert_eq!((q.spike_id, q.inject_cycle), (p.spike_id, p.inject_cycle));
    }

    #[test]
    fn take_where_none_leaves_packet_intact() {
        let mut p = packet(vec![1, 2, 3]);
        let q = p.take_dests_where(|_| false);
        assert!(q.dests.is_empty());
        assert_eq!(p.dests, vec![1, 2, 3]);
    }
}
