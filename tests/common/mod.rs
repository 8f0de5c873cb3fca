//! Helpers shared by the property-test suites. Compiled once per test
//! binary, and no suite uses all of it.
#![allow(dead_code)]

use neuromap::core::pipeline::build_topology;
use neuromap::core::SpikeGraph;
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::noc::topology::Topology;
use neuromap::noc::traffic::SpikeFlow;
use proptest::prelude::*;

/// Per-test proptest case count, overridable via `NEUROMAP_PROPTEST_CASES`
/// so CI can run a deeper pass over the same corpus without editing the
/// tests. `scripts/verify.sh` and the workflow run 256-case passes over
/// the differential suites; a plain `cargo test` uses each suite's
/// (cheaper) default.
///
/// # Panics
///
/// Panics when the variable is set but not a `u32` — a typo'd CI value
/// must fail the run loudly, not silently fall back to the small default
/// case count.
pub fn cases(default: u32) -> u32 {
    match std::env::var("NEUROMAP_PROPTEST_CASES") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("NEUROMAP_PROPTEST_CASES must be a u32, got {v:?}: {e}")),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("NEUROMAP_PROPTEST_CASES is not valid unicode: {e}"),
    }
}

/// Strategy: a random spike graph of `2..=n_max` neurons with self-loops,
/// duplicate synapses and silent neurons — up to 5 synapses per neuron,
/// spike counts below 25.
pub fn arb_graph(n_max: u32) -> impl Strategy<Value = SpikeGraph> {
    arb_graph_with(2, n_max, 5, 25)
}

/// [`arb_graph`] with every range spelled out: `n_min..=n_max` neurons,
/// fewer than `n × edges_per_neuron` synapses, spike counts below
/// `count_end`. The vendored `proptest` does not shrink, so a suite's
/// ranges decide which cases it runs: keep them as they are.
pub fn arb_graph_with(
    n_min: u32,
    n_max: u32,
    edges_per_neuron: usize,
    count_end: u32,
) -> impl Strategy<Value = SpikeGraph> {
    (n_min..=n_max).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n as usize * edges_per_neuron));
        let counts = proptest::collection::vec(0..count_end, n as usize);
        (edges, counts).prop_map(move |(edges, counts)| {
            SpikeGraph::from_parts(n, edges, counts).expect("endpoints in range")
        })
    })
}

/// Strategy: up to `max_flows` multicast flows among `crossbars`
/// crossbars, each to fewer than `fanout_end` destinations (duplicates
/// and the source included; `SpikeFlow::multicast` cleans them) at a
/// send step below `step_end`.
pub fn arb_flows(
    crossbars: u32,
    fanout_end: usize,
    step_end: u32,
    max_flows: usize,
) -> impl Strategy<Value = Vec<SpikeFlow>> {
    proptest::collection::vec(
        (
            0u32..1000,      // source neuron
            0u32..crossbars, // src crossbar
            proptest::collection::vec(0u32..crossbars, 1..fanout_end),
            0u32..step_end, // send step
        ),
        0..max_flows,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(neuron, src, dsts, step)| SpikeFlow::multicast(neuron, src, dsts, step))
            .collect()
    })
}

/// `flows` with every destination split off into a flow of its own, in
/// list order: the same spikes delivered as unicast packets.
pub fn single_destination(flows: &[SpikeFlow]) -> Vec<SpikeFlow> {
    let mut split = Vec::new();
    for f in flows {
        for &d in f.dst_crossbars.iter() {
            split.push(SpikeFlow {
                dst_crossbars: [d].into(),
                ..f.clone()
            });
        }
    }
    split
}

/// The router graph the pipeline builds for `kind` over `crossbars`
/// crossbars.
pub fn topology_for(kind: InterconnectKind, crossbars: usize) -> Box<dyn Topology> {
    build_topology(&Architecture::custom(crossbars, 1, kind).expect("valid architecture"))
}

/// A line of routers with several crossbars attached to each — the shape
/// no built-in topology has (they host one crossbar per router, or none):
/// crossbar `k` sits on router `k / per_router`, routes step along the
/// line, so one arrival can deliver to several crossbars at once.
pub struct SharedRouterLine {
    per_router: usize,
    neighbors: Vec<Vec<usize>>,
}

impl SharedRouterLine {
    /// `routers` routers in a line, `per_router` crossbars on each.
    pub fn new(routers: usize, per_router: usize) -> Self {
        let neighbors = (0..routers)
            .map(|r| {
                let left = r.checked_sub(1);
                let right = (r + 1 < routers).then_some(r + 1);
                left.into_iter().chain(right).collect()
            })
            .collect();
        Self {
            per_router,
            neighbors,
        }
    }
}

impl Topology for SharedRouterLine {
    fn num_routers(&self) -> usize {
        self.neighbors.len()
    }
    fn num_crossbars(&self) -> usize {
        self.neighbors.len() * self.per_router
    }
    fn endpoint(&self, k: u32) -> usize {
        assert!((k as usize) < self.num_crossbars(), "crossbar out of range");
        k as usize / self.per_router
    }
    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }
    fn route_next(&self, r: usize, dst: usize) -> usize {
        match r.cmp(&dst) {
            std::cmp::Ordering::Less => r + 1,
            std::cmp::Ordering::Equal => r,
            std::cmp::Ordering::Greater => r - 1,
        }
    }
    fn name(&self) -> String {
        format!(
            "line of {} routers x {} crossbars",
            self.neighbors.len(),
            self.per_router
        )
    }
}
