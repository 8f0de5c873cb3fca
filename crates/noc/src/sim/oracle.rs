//! The cycle-driven reference oracle.
//!
//! [`EngineKind::CycleOracle`] runs the one router model
//! (`super::simulate`) under the simplest scheduling policy there is,
//! `Sweep`: every `(router, port)` pair is examined every cycle while
//! anything is queued, the clock advances one cycle at a time
//! (fast-forwarding only across globally idle gaps, and stopping at a
//! wedge, after which no cycle can forward), and what a lane head
//! wants is worked out on the spot from [`Topology::route_next`] and
//! [`Topology::hop_vc`]. That makes it slow — runtime scales with
//! simulated cycles × routers — but `Sweep` keeps no state that could go
//! stale, which is exactly what a differential oracle needs.
//!
//! The production engine ([`EngineKind::EventDriven`]) must produce
//! byte-identical [`NocStats`] and delivery logs;
//! `tests/noc_properties.rs` enforces this over a randomized corpus of
//! topologies, buffer depths, multicast fan-outs, and backpressured
//! traffic, and `benches/noc.rs` measures the speedup the event model
//! buys. `Sweep` is the simple formulation the wake scheduler is judged
//! against: keep it free of tables, caches and notification handling —
//! anything it remembered between questions would be one more thing the
//! two policies could get wrong in the same way.
//!
//! That includes the forwarding plan (`crate::plan`) both engines move
//! their packets over. `Sweep` reads from it only *which destinations* a
//! lane head still carries; where each of them goes from here it asks the
//! topology, per destination, every time. If the plan grouped a
//! destination under the wrong slot, `Sweep` wants a slot the head's
//! chain has no member for and the run stops at the loop's `expect`; the
//! event engine, which trusts the chain, runs on — and the differential
//! suite sees one engine fail. The exception is tree routing, where the
//! only description of the route *is* the tree the plan was built from
//! ([`Topology::multicast_route`], asked once per net and validated
//! there): under trees `Sweep` reads the chain's slots, as both engines
//! read one shared tree table before the plan existed.
//!
//! [`EngineKind::CycleOracle`]: super::EngineKind::CycleOracle
//! [`EngineKind::EventDriven`]: super::EngineKind::EventDriven
//! [`NocStats`]: crate::stats::NocStats

use super::{Fabric, Queues};
use crate::sched::Sched;
use crate::topology::Topology;
use std::sync::Arc;

/// The exhaustive scheduling policy: ascending pair id over every
/// `(router, port)` of the fabric, every cycle. Every [`Sched`]
/// notification keeps its empty default.
pub(crate) struct Sweep {
    topo: Arc<dyn Topology>,
    vcs: usize,
    /// The plan follows multicast trees: a branch's slot is the tree's to
    /// say, not the unicast route's.
    tree: bool,
    /// The `(pair, router, port)` the sweep examines next this cycle.
    cursor: (u32, usize, usize),
}

impl Sched for Sweep {
    const SELECTIVE: bool = false;

    fn build(topo: &Arc<dyn Topology>, fabric: &Arc<Fabric>, tree: bool) -> Self {
        Self {
            topo: Arc::clone(topo),
            vcs: fabric.vcs,
            tree,
            cursor: (0, 0, 0),
        }
    }

    fn begin_cycle(&mut self, _now: u64) {
        self.cursor = (0, 0, 0);
    }

    fn next_pair(&mut self) -> Option<(u32, usize, usize)> {
        let (pair, mut r, mut o) = self.cursor;
        while r < self.topo.num_routers() && o == self.topo.neighbors(r).len() {
            (r, o) = (r + 1, 0);
        }
        self.cursor = (pair + 1, r, o + 1);
        (r < self.topo.num_routers()).then_some((pair, r, o))
    }

    fn wanted(&self, q: &Queues, pair: u32, w: usize) -> u32 {
        // only ever asked about the pair `next_pair` just handed out
        let (next, r, o) = self.cursor;
        debug_assert_eq!(pair + 1, next, "not the pair being examined");
        let bit = (o - 1) * self.vcs + w;
        (0..q.fabric.lanes(r))
            .filter(|&fi| self.head_wants(q, r, fi, bit))
            .count() as u32
    }

    /// Asks the topology where every destination the head still carries
    /// goes from here — not the plan, whose grouping of them into
    /// branches is what is being checked.
    fn head_wants(&self, q: &Queues, r: usize, fi: usize, bit: usize) -> bool {
        q.head(r, fi).any(|member| {
            if self.tree {
                return usize::from(member.bit) == bit;
            }
            let mut carried = q.plan().dests(member.node).iter();
            carried.any(|&d| self.route_bit(r, d) == bit)
        })
    }

    /// `now + 1`, unless cycle `now` was a wedge: it forwarded nothing,
    /// with nothing in transit, no injection pending and no output port
    /// busy past `now`. Then every later cycle sweeps the same state and
    /// forwards nothing either, so nothing can ever move again.
    fn next_cycle(&self, q: &Queues, now: u64, next_event: u64, progress: bool) -> u64 {
        let wedged = !progress && next_event == u64::MAX && q.busy_until.iter().all(|&b| b <= now);
        if wedged {
            u64::MAX
        } else {
            now + 1
        }
    }
}

impl Sweep {
    /// The `(output port, VC)` slot the unicast route from router `r` to
    /// the remote crossbar `d` leaves by, walked from the topology.
    pub(crate) fn route_bit(&self, r: usize, d: u32) -> usize {
        let dst = self.topo.endpoint(d);
        let next = self.topo.route_next(r, dst);
        let port = self.topo.neighbors(r).iter().position(|&n| n == next);
        port.expect("routes follow links") * self.vcs + self.topo.hop_vc(r, dst, self.vcs)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::NocConfig;
    use crate::sim::{EngineKind, NocSim};
    use crate::topology::Mesh2D;
    use crate::traffic::SpikeFlow;
    use neuromap_hw::energy::EnergyModel;

    fn oracle() -> NocSim {
        NocSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle)
    }

    #[test]
    fn oracle_single_packet_timing() {
        let mut s = oracle();
        let stats = s.run(&[SpikeFlow::unicast(1, 0, 3, 0)]).unwrap();
        assert_eq!(stats.delivered, 1);
        // 2 hops × (router_delay 1 + flits 2 − 1) = 4 cycles minimum
        assert_eq!(stats.max_latency_cycles, 4);
    }

    #[test]
    fn oracle_conserves_traffic() {
        let flows: Vec<SpikeFlow> = (0..100)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 1) % 4, i / 25))
            .collect();
        assert_eq!(oracle().run(&flows).unwrap().delivered, 100);
    }
}
