//! The cycle-driven reference oracle.
//!
//! [`CycleSim`] runs the one router model (`super::simulate`) under the
//! simplest scheduling policy there is, `Sweep`: every `(router, port)`
//! pair is examined every cycle while anything is queued, the clock
//! advances one cycle at a time (fast-forwarding only across globally
//! idle gaps), and what a lane head wants is worked out on the spot from
//! [`Topology::route_next`] and [`Topology::hop_vc`]. That makes it slow
//! — runtime scales with simulated cycles × routers — but `Sweep` keeps
//! no state that could go stale, which is exactly what a differential
//! oracle needs.
//!
//! The production engine ([`super::NocSim`]) must produce byte-identical
//! [`NocStats`] and delivery logs; `tests/noc_properties.rs` enforces this
//! over a randomized corpus of topologies, buffer depths, multicast
//! fan-outs, and backpressured traffic, and `benches/noc.rs` measures the
//! speedup the event model buys. `Sweep` is the simple formulation the
//! wake scheduler is judged against: keep it free of tables, caches and
//! notification handling — anything it remembered between questions would
//! be one more thing the two policies could get wrong in the same way.

use super::{inferred_duration, run_engine, Net};
use crate::config::NocConfig;
use crate::error::NocError;
use crate::sched::{Sched, TreeTable};
use crate::stats::{Delivery, NocStats, SimTrace};
use crate::topology::Topology;
use crate::trace::TraceBuf;
use crate::traffic::SpikeFlow;
use neuromap_hw::energy::EnergyModel;
use std::sync::Arc;

/// The exhaustive scheduling policy: ascending pair id over every
/// `(router, port)` of the fabric, every cycle. Every [`Sched`]
/// notification keeps its empty default.
pub(crate) struct Sweep {
    topo: Arc<dyn Topology>,
    vcs: usize,
    tree: Option<TreeTable>,
    /// The `(pair, router, port)` the sweep examines next this cycle.
    cursor: (u32, usize, usize),
}

impl Sched for Sweep {
    const SELECTIVE: bool = false;

    fn build(
        topo: &Arc<dyn Topology>,
        _ports: &[Vec<(usize, usize)>],
        vcs: usize,
        tree: Option<TreeTable>,
    ) -> Self {
        Self {
            topo: Arc::clone(topo),
            vcs,
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

    fn wanted(&self, net: &Net, pair: u32, w: usize) -> u32 {
        // only ever asked about the pair `next_pair` just handed out
        let (next, r, o) = self.cursor;
        debug_assert_eq!(pair + 1, next, "not the pair being examined");
        let bit = (o - 1) * self.vcs + w;
        (0..net.lanes(r))
            .filter(|&fi| self.head_wants(net, r, fi, bit))
            .count() as u32
    }

    fn head_wants(&self, net: &Net, r: usize, fi: usize, bit: usize) -> bool {
        net.head(r, fi).is_some_and(|head| {
            head.dests
                .iter()
                .any(|&d| self.route_bit(head.spike_id, r, d) == bit)
        })
    }

    fn head_inject(&self, net: &Net, r: usize, fi: usize) -> u64 {
        net.head(r, fi).expect("a candidate lane").inject_cycle
    }

    fn route_bit(&self, spike: u64, r: usize, d: u32) -> usize {
        if let Some(t) = &self.tree {
            return t.bit(spike, r, d);
        }
        let dst = self.topo.endpoint(d);
        let next = self.topo.route_next(r, dst);
        let port = self.topo.neighbors(r).iter().position(|&n| n == next);
        port.expect("routes follow links") * self.vcs + self.topo.hop_vc(r, dst, self.vcs)
    }

    fn next_cycle(&self, now: u64, _next_event: u64) -> u64 {
        now + 1
    }
}

/// The cycle-driven interconnect simulator (reference oracle).
///
/// Same public surface as [`super::NocSim`]; see the module docs for its
/// role.
pub struct CycleSim {
    topo: Arc<dyn Topology>,
    config: NocConfig,
    energy: EnergyModel,
    /// Event trace of the last successful run, present iff
    /// [`NocConfig::trace`] was set (see [`CycleSim::take_trace`]).
    trace: Option<TraceBuf>,
}

impl std::fmt::Debug for CycleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleSim")
            .field("topology", &self.topo.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl CycleSim {
    /// Creates a simulator over a topology with the given configuration and
    /// energy model.
    pub fn new(topo: Box<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self::shared(Arc::from(topo), config, energy)
    }

    /// Like [`CycleSim::new`], but over a topology already shared behind
    /// an `Arc` (see [`super::NocSim::shared`]).
    pub fn shared(topo: Arc<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self {
            topo,
            config,
            energy,
            trace: None,
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Takes the structured event trace of the last successful run
    /// (`Some` iff [`NocConfig::trace`] was set). The stream is
    /// byte-identical to [`super::NocSim::take_trace`]'s for the same
    /// workload — see [`crate::trace`].
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take()
    }

    /// Runs the spike schedule to completion and returns aggregate
    /// statistics. The SNN duration is inferred from the last send step.
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run(&mut self, flows: &[SpikeFlow]) -> Result<NocStats, NocError> {
        self.run_with_duration(flows, inferred_duration(flows))
            .map(|(stats, _)| stats)
    }

    /// Like [`CycleSim::run`], but with an explicit SNN duration
    /// (timesteps) and returning the raw delivery log alongside the
    /// statistics.
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run_with_duration(
        &mut self,
        flows: &[SpikeFlow],
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        let (topo, config, energy) = (&self.topo, &self.config, &self.energy);
        run_engine::<Sweep>(
            topo,
            config,
            energy,
            flows,
            duration_steps,
            &mut self.trace,
            None,
        )
    }

    /// Like [`CycleSim::run_with_duration`], but also returning a
    /// [`SimTrace`] with the forward-progress cycles filled in (the
    /// attended-cycle log and scheduler counters stay empty — the oracle
    /// attends every cycle and skips nothing). The liveness property in
    /// `tests/noc_properties.rs` compares this against
    /// [`super::NocSim::run_traced`].
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run_traced(
        &mut self,
        flows: &[SpikeFlow],
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>, SimTrace), NocError> {
        let (topo, config, energy) = (&self.topo, &self.config, &self.energy);
        let mut log = SimTrace::default();
        let traced = Some(&mut log);
        run_engine::<Sweep>(
            topo,
            config,
            energy,
            flows,
            duration_steps,
            &mut self.trace,
            traced,
        )
        .map(|(stats, deliveries)| (stats, deliveries, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;

    #[test]
    fn oracle_single_packet_timing() {
        let mut s = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
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
        let mut s = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        assert_eq!(s.run(&flows).unwrap().delivered, 100);
    }
}
