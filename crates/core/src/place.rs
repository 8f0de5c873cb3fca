//! Cluster placement — the second mapping stage.
//!
//! The partitioner (any [`crate::partition::Partitioner`]) decides *which
//! neurons share a crossbar*; until this module, cluster `k` was then
//! implicitly wired to router `k`, so every cut packet was priced the
//! same no matter how far it travelled. On a real NoC a packet's energy
//! and latency scale with the **hop distance** between its source and
//! destination crossbars, and SpiNeMap (Balaji et al., *"Mapping Spiking
//! Neural Networks to Neuromorphic Hardware"*) shows that a second,
//! placement-of-clusters stage on top of partitioning cuts both
//! substantially. This module implements that stage:
//!
//! 1. [`TrafficMatrix::from_mapping`] collapses the partitioned spike
//!    graph into cluster-to-cluster packet counts (respecting the
//!    pipeline's [`TrafficMode`] accounting);
//! 2. [`optimize_placement`] searches the space of cluster → physical
//!    crossbar permutations for one minimizing
//!    `Σ packets(k1, k2) · hops(π(k1), π(k2))` — a quadratic assignment
//!    problem — with deterministic, thread-spread simulated-annealing
//!    restarts polished by greedy swap local search.
//!
//! Both price pairs, even when the fabric routes a neuron's net along one
//! Steiner tree ([`NocConfig::multicast_trees`]) and shared hops are paid
//! once. Those tree forwards are counted in one place, the NoC's own
//! forwarding plan ([`NocSim::link_forwards`]), which is what
//! [`MappingPipeline::hop_metrics`] reports under tree routing.
//!
//! [`NocConfig::multicast_trees`]: neuromap_noc::config::NocConfig::multicast_trees
//! [`NocSim::link_forwards`]: neuromap_noc::sim::NocSim::link_forwards
//! [`MappingPipeline::hop_metrics`]: crate::pipeline::MappingPipeline::hop_metrics
//!
//! ## Incremental pricing: two pricers and their oracles
//!
//! Exchanging the physical slots of two clusters reprices only the
//! traffic those two clusters take part in, and most cluster pairs
//! exchange none: on `mapbench`'s 256-crossbar PSO partitions a cluster
//! talks to 46–84 of the 255 others, and the share falls as fabrics
//! grow. [`TrafficAdjacency`] lists each cluster's neighbours with the
//! folded weight `packets(x, k) + packets(k, x)`; it is built once per
//! [`optimize_placement`] call and shared by every restart. The two
//! phases of a restart price swaps differently, because they ask
//! different questions:
//!
//! - **Annealing** prices with [`TrafficAdjacency::swap_delta`] in
//!   O(deg(x) + deg(y)) gathers. On `mapbench`'s two placing workloads
//!   (256 clusters, mean degree 46 and 84) a restart proposes ≈ 3 980
//!   distinct pairs and accepts 431–472 of them, so keeping a per-slot
//!   table current would cost ≈ 19 M multiply-adds, against ≈ 0.7 M
//!   gathers for the adjacency.
//! - **The greedy polish** prices with [`SlotCostTable::swap_delta`] in
//!   O(1): the table holds, for every cluster `x` and slot `p`, what
//!   `x`'s traffic would cost with `x` at `p`. A sweep asks about all
//!   C(C−1)/2 pairs (32 640 at 256 clusters, up to eight sweeps) and the
//!   same workloads take 617–815 of them after annealing and 1–1 929
//!   from the identity; each taken swap updates the deg(a) + deg(b) rows
//!   of its neighbours, C entries each.
//!
//! Three functions stay as **oracles**, never as a second path:
//! [`placement_cost`] recomputes a placement from scratch in O(C²), the
//! dense [`swap_delta`] prices one swap in O(C) with out- and in-traffic
//! kept apart (so it is exact on asymmetric tables too), and the
//! adjacency pricer checks the table. Debug builds assert adjacency ≡
//! dense `swap_delta` on every annealing candidate, table ≡ adjacency on
//! every greedy candidate, and the accumulated cost ≡ `placement_cost` at
//! the end of every restart. This module's tests hold the table-priced
//! polish to an adjacency-priced one swap for swap;
//! `tests/placement_properties.rs` holds the pricers equal over random
//! fabrics, traffic densities from empty to full, and swap sequences,
//! and freezes the optimizer's default outcomes.
//!
//! All pricing is exact `i64`. [`optimize_placement`] checks once that
//! `Σ packets × max hops` fits, which bounds every cost, delta and table
//! entry, and returns a typed error when it does not.
//!
//! Folding both directions into one weight needs `hops(a, b) ==
//! hops(b, a)`. Every table this workspace builds has it — BFS over
//! undirected links, the hierarchical closed form — but a custom
//! [`Topology`](neuromap_noc::topology::Topology) with one-way links does
//! not, so [`optimize_placement`]
//! checks the crossbars the traffic matrix covers once per call (C²/2
//! compares) and returns a typed error instead of mispricing.
//!
//! ## Determinism contract
//!
//! Restart `k` derives its RNG stream from `seed` and `k` alone, restarts
//! are spread across workers by contiguous chunks, results are reduced in
//! restart order, and ties go to the lowest restart index — so `threads`
//! is purely an execution knob: any thread count produces byte-identical
//! placements (property-tested). Restart 0 starts from the identity
//! permutation and uses greedy descent only, which guarantees the
//! returned placement never prices worse than the identity wiring.

use crate::error::CoreError;
use crate::graph::SpikeGraph;
use crate::pipeline::TrafficMode;
use crate::pool;
use crate::traffic;
use neuromap_hw::mapping::{Mapping, Placement};
use neuromap_noc::topology::DistanceLut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Cluster-to-cluster packet counts under a mapping — the placement
/// stage's whole view of the application (neurons no longer appear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    c: usize,
    /// `packets[src * c + dst]`, diagonal zero (local traffic never
    /// touches the interconnect).
    packets: Vec<u64>,
}

impl TrafficMatrix {
    /// Collapses a partitioned spike graph into cluster-level traffic —
    /// the per-cluster-pair fold of the traffic model (`crate::traffic`):
    /// a spiking neuron adds its spike count to `(home, k)` once per
    /// remote synapse on cluster `k` under [`TrafficMode::PerSynapse`],
    /// once per distinct remote cluster under
    /// [`TrafficMode::PerCrossbar`]. Either way the matrix times the hop
    /// table prices exactly the flows `crate::pipeline::build_flows`
    /// will emit.
    ///
    /// # Panics
    ///
    /// Panics if the mapping does not cover exactly the graph's neurons.
    pub fn from_mapping(graph: &SpikeGraph, mapping: &Mapping, mode: TrafficMode) -> Self {
        let c = mapping.num_crossbars();
        let mut packets = vec![0u64; c * c];
        traffic::walk(graph, mapping.assignment(), |n| {
            for &(dst, synapses) in n.remote {
                let per_spike = match mode {
                    TrafficMode::PerSynapse => u64::from(synapses),
                    TrafficMode::PerCrossbar => 1,
                };
                packets[n.home as usize * c + dst as usize] += n.spikes * per_spike;
            }
        });
        Self { c, packets }
    }

    /// Builds a matrix from raw counts (tests and synthetic workloads).
    ///
    /// # Panics
    ///
    /// Panics if `packets.len() != c * c`.
    pub fn from_raw(c: usize, packets: Vec<u64>) -> Self {
        assert_eq!(packets.len(), c * c, "matrix must be c x c");
        Self { c, packets }
    }

    /// Number of clusters covered.
    pub fn num_crossbars(&self) -> usize {
        self.c
    }

    /// Packets from cluster `src` to cluster `dst`.
    #[inline]
    pub fn packets(&self, src: u32, dst: u32) -> u64 {
        self.packets[src as usize * self.c + dst as usize]
    }

    /// Total packets crossing the interconnect (placement-invariant).
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }
}

/// Reference kernel: the hop-weighted packet total of a placement,
/// recomputed from scratch in O(C²). [`swap_delta`] must always agree
/// with differences of this function (property-tested).
///
/// # Panics
///
/// Panics if `physical_of` and the matrix/table disagree on the cluster
/// count.
pub fn placement_cost(traffic: &TrafficMatrix, dist: &DistanceLut, physical_of: &[u32]) -> u64 {
    let c = traffic.c;
    assert_eq!(physical_of.len(), c, "placement must cover every cluster");
    assert!(dist.num_crossbars() >= c, "hop table too small");
    let mut cost = 0u64;
    for a in 0..c {
        let row = &traffic.packets[a * c..(a + 1) * c];
        let pa = physical_of[a];
        for (b, &t) in row.iter().enumerate() {
            if t != 0 {
                cost += t * u64::from(dist.hops(pa, physical_of[b]));
            }
        }
    }
    cost
}

/// Reference kernel: the exact cost change of exchanging the physical
/// slots of clusters `x` and `y` under `physical_of`, in O(C) — only the
/// rows and columns of the two clusters reprice. Out- and in-traffic are
/// priced separately, so it is exact for asymmetric hop tables too. Pure
/// — nothing is mutated. The optimizer prices with
/// [`TrafficAdjacency::swap_delta`] and checks it against this function
/// on every candidate in debug builds.
///
/// # Panics
///
/// Panics if `x`/`y` are out of range for the matrix.
pub fn swap_delta(
    traffic: &TrafficMatrix,
    dist: &DistanceLut,
    physical_of: &[u32],
    x: usize,
    y: usize,
) -> i64 {
    if x == y {
        return 0;
    }
    let c = traffic.c;
    let (px, py) = (physical_of[x], physical_of[y]);
    let w = |a: u32, b: u32| i64::from(dist.hops(a, b));
    let t = |a: usize, b: usize| traffic.packets[a * c + b] as i64;
    let mut d = 0i64;
    for (k, &pk) in physical_of.iter().enumerate() {
        if k == x || k == y {
            continue;
        }
        d += t(x, k) * (w(py, pk) - w(px, pk)) + t(k, x) * (w(pk, py) - w(pk, px));
        d += t(y, k) * (w(px, pk) - w(py, pk)) + t(k, y) * (w(pk, px) - w(pk, py));
    }
    // cross terms between x and y (zero for symmetric distance tables,
    // kept for exactness)
    d += t(x, y) * (w(py, px) - w(px, py)) + t(y, x) * (w(px, py) - w(py, px));
    d
}

/// The non-zero part of a [`TrafficMatrix`], folded for swap pricing:
/// for each cluster `x`, the clusters `k != x` it exchanges any packets
/// with and the combined weight `packets(x, k) + packets(k, x)`, in CSR
/// form. Built once per [`optimize_placement`] call and shared read-only
/// by every restart.
#[derive(Debug, Clone)]
pub struct TrafficAdjacency {
    /// `entries[offsets[x]..offsets[x + 1]]` are cluster `x`'s
    /// neighbours, ascending by id.
    offsets: Vec<usize>,
    /// `(k, packets(x, k) + packets(k, x))`, weight never zero.
    entries: Vec<(u32, i64)>,
}

impl TrafficAdjacency {
    /// Collects every cluster's neighbours in O(C²), once.
    pub fn new(traffic: &TrafficMatrix) -> Self {
        let c = traffic.c;
        let mut offsets = Vec::with_capacity(c + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for x in 0..c {
            for k in (0..c).filter(|&k| k != x) {
                let s = traffic.packets[x * c + k] + traffic.packets[k * c + x];
                if s != 0 {
                    entries.push((k as u32, s as i64));
                }
            }
            offsets.push(entries.len());
        }
        Self { offsets, entries }
    }

    /// Cluster `x`'s `(neighbour, folded weight)` entries.
    fn neighbours(&self, x: usize) -> &[(u32, i64)] {
        &self.entries[self.offsets[x]..self.offsets[x + 1]]
    }

    /// Exact cost change of exchanging the physical slots of clusters
    /// `x` and `y` under `physical_of`, in O(deg(x) + deg(y)): only
    /// traffic that exists reprices. Equals the dense [`swap_delta`]
    /// whenever `dist` is symmetric over the slots in `physical_of`
    /// (folding `packets(x, k)` and `packets(k, x)` into one weight
    /// prices both directions at `hops(p_x, p_k)`); on an asymmetric
    /// table the result is meaningless, which is why
    /// [`optimize_placement`] rejects one up front. Pure.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`y` are out of range or `physical_of` names a slot
    /// outside `dist`.
    pub fn swap_delta(&self, dist: &DistanceLut, physical_of: &[u32], x: usize, y: usize) -> i64 {
        if x == y {
            return 0;
        }
        let nc = dist.num_crossbars();
        let row = |p: u32| &dist.crossbar_matrix()[p as usize * nc..(p as usize + 1) * nc];
        let (row_px, row_py) = (row(physical_of[x]), row(physical_of[y]));
        // what moving `a` from the slot of `row_from` to the slot of
        // `row_to` costs over a's neighbours; `b` moves too, and the a-b
        // distance itself is unchanged by the exchange
        let one_side = |a: usize, b: usize, row_from: &[u32], row_to: &[u32]| {
            let mut d = 0i64;
            for &(k, s) in self.neighbours(a) {
                if k as usize != b {
                    let pk = physical_of[k as usize] as usize;
                    d += s * (i64::from(row_to[pk]) - i64::from(row_from[pk]));
                }
            }
            d
        };
        one_side(x, y, row_px, row_py) + one_side(y, x, row_py, row_px)
    }
}

/// The greedy polish's swap pricer: for the permutation it holds, what
/// each cluster's traffic would cost at each slot,
/// `costs[x · C + p] = Σ_{k~x} s_xk · hops(p, physical_of[k])` over the
/// folded weights `s` of a [`TrafficAdjacency`]. A swap prices in O(1)
/// from four entries and the pair's own traffic; taking it keeps the
/// table current in O((deg(a) + deg(b)) · C). Slots are `0..C`, so the
/// permutation must be one of `0..C`, as [`optimize_placement`]'s are,
/// and like the adjacency it reads the table needs a hop table that is
/// symmetric over those slots. Exact while `Σ packets × max hops` fits in
/// an `i64` (what [`optimize_placement`] checks up front).
#[derive(Debug, Clone)]
pub struct SlotCostTable<'a> {
    traffic: &'a TrafficMatrix,
    adj: &'a TrafficAdjacency,
    dist: &'a DistanceLut,
    physical_of: Vec<u32>,
    /// `costs[x * c + p]`, see the type docs.
    costs: Vec<i64>,
    /// Scratch for [`SlotCostTable::swap`]: the mover's change in hops to
    /// every slot.
    shift: Vec<i64>,
}

impl<'a> SlotCostTable<'a> {
    /// Builds the table for `physical_of` in Σ_x deg(x) · C.
    ///
    /// # Panics
    ///
    /// Panics if `adj` was not built from `traffic`, if `physical_of`
    /// names a slot outside `0..C` or has the wrong length, or if `dist`
    /// covers fewer than `C` crossbars.
    pub fn new(
        traffic: &'a TrafficMatrix,
        adj: &'a TrafficAdjacency,
        dist: &'a DistanceLut,
        physical_of: Vec<u32>,
    ) -> Self {
        let c = traffic.c;
        assert_eq!(adj.offsets.len(), c + 1, "adjacency of another matrix");
        assert_eq!(physical_of.len(), c, "placement must cover every cluster");
        assert!(
            physical_of.iter().all(|&p| (p as usize) < c),
            "slots are 0..C"
        );
        assert!(dist.num_crossbars() >= c, "hop table too small");
        let mut costs = vec![0i64; c * c];
        for x in 0..c {
            let row = &mut costs[x * c..(x + 1) * c];
            for &(k, s) in adj.neighbours(x) {
                for (g, &h) in row
                    .iter_mut()
                    .zip(slot_hops(dist, c, physical_of[k as usize]))
                {
                    *g += s * i64::from(h);
                }
            }
        }
        Self {
            traffic,
            adj,
            dist,
            physical_of,
            costs,
            shift: vec![0; c],
        }
    }

    /// Hands back the permutation.
    pub fn into_physical_of(self) -> Vec<u32> {
        self.physical_of
    }

    /// Exact cost change of exchanging the slots of clusters `a` and `b`,
    /// in O(1). Equals [`TrafficAdjacency::swap_delta`] (debug builds
    /// assert it on every call). Pure.
    ///
    /// # Panics
    ///
    /// Panics if `a`/`b` are out of range.
    #[inline]
    pub fn swap_delta(&self, a: usize, b: usize) -> i64 {
        if a == b {
            return 0;
        }
        let c = self.traffic.c;
        let (pa, pb) = (self.physical_of[a], self.physical_of[b]);
        let g = |x: usize, p: u32| self.costs[x * c + p as usize];
        // the a–b distance is unchanged by the exchange, but `g(a, pa)`
        // and `g(b, pb)` each count it once and `g(a, pb)`, `g(b, pa)`
        // not at all; each bracket is one side's repricing, so no partial
        // sum leaves the `Σ packets × max hops` bound
        let s_ab = (self.traffic.packets[a * c + b] + self.traffic.packets[b * c + a]) as i64;
        let pair = s_ab * i64::from(self.dist.hops(pa, pb));
        let d = (g(a, pb) - g(a, pa) + pair) + (g(b, pa) - g(b, pb) + pair);
        debug_assert_eq!(d, self.adj.swap_delta(self.dist, &self.physical_of, a, b));
        d
    }

    /// Exchanges the slots of clusters `a` and `b` and brings the table
    /// up to date: `a` moves from slot `p_a` to `p_b` and `b` the other
    /// way, so every neighbour of `a` gains its weight times
    /// `hops(·, p_b) − hops(·, p_a)` and every neighbour of `b` loses it.
    /// O((deg(a) + deg(b)) · C).
    ///
    /// # Panics
    ///
    /// Panics if `a`/`b` are out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        let c = self.traffic.c;
        let (pa, pb) = (self.physical_of[a], self.physical_of[b]);
        let (to, from) = (slot_hops(self.dist, c, pb), slot_hops(self.dist, c, pa));
        for (d, (&t, &f)) in self.shift.iter_mut().zip(to.iter().zip(from)) {
            *d = i64::from(t) - i64::from(f);
        }
        for (mover, sign) in [(a, 1), (b, -1)] {
            for &(z, s) in self.adj.neighbours(mover) {
                let row = &mut self.costs[z as usize * c..(z as usize + 1) * c];
                let s = sign * s;
                for (g, &d) in row.iter_mut().zip(&self.shift) {
                    *g += s * d;
                }
            }
        }
        self.physical_of.swap(a, b);
    }
}

/// Hops from slot `p` to each of the slots `0..c`.
fn slot_hops(dist: &DistanceLut, c: usize, p: u32) -> &[u32] {
    let nc = dist.num_crossbars();
    &dist.crossbar_matrix()[p as usize * nc..][..c]
}

/// Initial annealing temperature, in units of the objective.
pub const SA_T0: f64 = 50.0;

/// Geometric cooling factor per annealing proposal.
pub const SA_ALPHA: f64 = 0.999;

/// Maximum greedy first-improvement sweeps polishing each restart.
pub const GREEDY_PASSES: u32 = 8;

/// Placement-optimizer hyperparameters. The annealing schedule is fixed:
/// it starts at [`SA_T0`] and cools by [`SA_ALPHA`] per proposal, and
/// each restart ends with at most [`GREEDY_PASSES`] greedy sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaceConfig {
    /// Independent restarts; restart 0 is greedy descent from the
    /// identity permutation (so the result never loses to identity), the
    /// rest anneal from seeded random permutations. Ties go to the lowest
    /// restart index.
    pub restarts: u32,
    /// Annealing proposals per restart (random cluster-pair swaps).
    pub sa_moves: u32,
    /// RNG seed (restart `k` derives its stream from `seed` and `k`).
    pub seed: u64,
    /// Worker threads the restarts are spread across. Purely an execution
    /// knob: results depend on `restarts`, never on `threads`.
    pub threads: usize,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        Self {
            restarts: 4,
            sa_moves: 4_000,
            seed: 0x9A5E,
            threads: crate::pso::default_threads(),
        }
    }
}

impl PlaceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero restarts or threads.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.restarts == 0 {
            return Err(CoreError::InvalidParameter {
                name: "restarts",
                value: "0".into(),
            });
        }
        if self.threads == 0 {
            return Err(CoreError::InvalidParameter {
                name: "threads",
                value: "0".into(),
            });
        }
        Ok(())
    }
}

/// Result of a placement optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceOutcome {
    /// The winning cluster → physical crossbar permutation.
    pub placement: Placement,
    /// Hop-weighted packets under the identity placement (the implicit
    /// wiring of the single-stage pipeline).
    pub identity_cost: u64,
    /// Hop-weighted packets under [`PlaceOutcome::placement`]; never
    /// exceeds [`PlaceOutcome::identity_cost`].
    pub optimized_cost: u64,
    /// Index of the restart that produced the winner.
    pub winning_restart: u32,
}

/// One restart: anneal (restarts ≥ 1 only), then the greedy polish.
/// Annealing prices its random proposals with `adj` in O(deg) — it takes
/// too few of them to pay for keeping a table current — and the polish
/// prices every pair from a [`SlotCostTable`] in O(1) (module docs).
/// Deterministic for a fixed `(traffic, dist, cfg, k)`.
fn run_restart(
    traffic: &TrafficMatrix,
    adj: &TrafficAdjacency,
    dist: &DistanceLut,
    cfg: &PlaceConfig,
    k: u32,
    identity_cost: u64,
) -> (u64, Vec<u32>) {
    let c = traffic.c;
    let mut perm: Vec<u32> = (0..c as u32).collect();
    let mut cost = identity_cost as i64;

    // annealing needs two clusters to exchange
    if k > 0 && c > 1 {
        let seed = cfg
            .seed
            .wrapping_add(u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher–Yates scatter, then anneal
        for a in (1..c).rev() {
            let b = rng.gen_range(0..a + 1);
            perm.swap(a, b);
        }
        cost = placement_cost(traffic, dist, &perm) as i64;
        let mut temp = SA_T0;
        for _ in 0..cfg.sa_moves {
            let a = rng.gen_range(0..c);
            let b = rng.gen_range(0..c);
            if a != b {
                let d = adj.swap_delta(dist, &perm, a, b);
                debug_assert_eq!(d, swap_delta(traffic, dist, &perm, a, b));
                let accept = d <= 0 || {
                    temp > f64::EPSILON && rng.gen_range(0.0..1.0) < (-(d as f64) / temp).exp()
                };
                if accept {
                    perm.swap(a, b);
                    cost += d;
                }
            }
            temp *= SA_ALPHA;
        }
    }

    let mut table = SlotCostTable::new(traffic, adj, dist, perm);
    cost += greedy_polish(&mut table, GREEDY_PASSES, |_, _| {});
    let perm = table.into_physical_of();
    debug_assert_eq!(cost as u64, placement_cost(traffic, dist, &perm));
    (cost as u64, perm)
}

/// Greedy first-improvement sweeps over all cluster pairs `(a, b)`,
/// `a < b` in lexicographic order, taking every swap `table` prices
/// below zero, until a sweep takes none or `passes` sweeps are spent.
/// Returns the summed delta of the swaps taken and reports each one to
/// `taken`, in order.
fn greedy_polish(
    table: &mut SlotCostTable<'_>,
    passes: u32,
    mut taken: impl FnMut(usize, usize),
) -> i64 {
    let c = table.physical_of.len();
    let mut total = 0i64;
    for _ in 0..passes {
        let mut improved = false;
        for a in 0..c {
            for b in a + 1..c {
                let d = table.swap_delta(a, b);
                if d < 0 {
                    table.swap(a, b);
                    total += d;
                    taken(a, b);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    total
}

/// Searches cluster → physical crossbar permutations minimizing
/// hop-weighted packets. Restarts are spread over the worker pool
/// (`crate::pool`) in contiguous chunks; the reduction walks results in
/// restart order, so the outcome is byte-identical for every thread
/// count. The identity-seeded restart guarantees
/// `optimized_cost <= identity_cost`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for an invalid configuration, a hop
/// table covering fewer crossbars than the traffic matrix, one that is
/// not symmetric over the crossbars the matrix covers (no table this
/// workspace builds is; see the module docs), or traffic whose
/// off-diagonal packets times the table's largest hop count over those
/// crossbars exceeds `i64::MAX` (the bound that keeps every price exact).
///
/// A matrix of zero clusters is not an error: it returns the empty
/// placement at cost zero, from restart 0.
pub fn optimize_placement(
    traffic: &TrafficMatrix,
    dist: &DistanceLut,
    cfg: &PlaceConfig,
) -> Result<PlaceOutcome, CoreError> {
    cfg.validate()?;
    let c = traffic.c;
    if dist.num_crossbars() < c {
        return Err(CoreError::InvalidParameter {
            name: "dist",
            value: format!(
                "{} crossbars covered, traffic matrix has {c}",
                dist.num_crossbars()
            ),
        });
    }
    let nc = dist.num_crossbars();
    let hops = dist.crossbar_matrix();
    if let Some((a, b)) = (0..c)
        .flat_map(|a| (a + 1..c).map(move |b| (a, b)))
        .find(|&(a, b)| hops[a * nc + b] != hops[b * nc + a])
    {
        return Err(CoreError::InvalidParameter {
            name: "dist",
            value: format!(
                "asymmetric hop table: {a} -> {b} is {} hops, {b} -> {a} is {}",
                hops[a * nc + b],
                hops[b * nc + a]
            ),
        });
    }
    // no placement prices above `Σ packets × max hops`, and no table
    // entry or delta above it either (the diagonal never pays a hop)
    let packets: u128 = traffic
        .packets
        .iter()
        .enumerate()
        .filter(|&(i, _)| i % (c + 1) != 0)
        .map(|(_, &t)| u128::from(t))
        .sum();
    let max_hops = (0..c as u32)
        .flat_map(|p| slot_hops(dist, c, p))
        .max()
        .map_or(0, |&h| u128::from(h));
    if packets.saturating_mul(max_hops.max(1)) > i64::MAX as u128 {
        return Err(CoreError::InvalidParameter {
            name: "traffic",
            value: format!("{packets} packets over up to {max_hops} hops overflow an i64 cost"),
        });
    }
    let identity: Vec<u32> = (0..c as u32).collect();
    let identity_cost = placement_cost(traffic, dist, &identity);
    let adj = TrafficAdjacency::new(traffic);

    // per-restart results depend only on (traffic, dist, cfg, k) and come
    // back in restart order, so the chunking is invisible in the output
    let per_restart = pool::map_ranges(cfg.restarts as usize, cfg.threads, |restarts| {
        restarts
            .map(|k| {
                let (cost, perm) = run_restart(traffic, &adj, dist, cfg, k as u32, identity_cost);
                (cost, k as u32, perm)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten();

    let (optimized_cost, winning_restart, perm) = per_restart
        .min_by_key(|&(cost, k, _)| (cost, k))
        .expect("restarts >= 1");
    debug_assert!(optimized_cost <= identity_cost, "restart 0 covers identity");
    let placement = Placement::new(perm).map_err(CoreError::from)?;
    Ok(PlaceOutcome {
        placement,
        identity_cost,
        optimized_cost,
        winning_restart,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuromap_noc::topology::{Mesh2D, Topology, Torus};

    fn mesh_lut(c: usize) -> DistanceLut {
        DistanceLut::new(&Mesh2D::for_crossbars(c))
    }

    /// A router graph with one-way links: a custom [`Topology`] is the
    /// one way to hand this crate an asymmetric [`DistanceLut`].
    struct Directed(Vec<Vec<usize>>);

    impl Topology for Directed {
        fn num_routers(&self) -> usize {
            self.0.len()
        }
        fn num_crossbars(&self) -> usize {
            self.0.len()
        }
        fn endpoint(&self, k: u32) -> usize {
            k as usize
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            &self.0[r]
        }
        fn route_next(&self, _: usize, _: usize) -> usize {
            unreachable!("DistanceLut::new walks neighbors only")
        }
        fn name(&self) -> String {
            "directed".to_owned()
        }
    }

    /// Router `r` reaches `r + 1` in one hop and `r - 1` in `c - 1`.
    fn one_way_ring_lut(c: usize) -> DistanceLut {
        DistanceLut::new(&Directed((0..c).map(|r| vec![(r + 1) % c]).collect()))
    }

    /// A ring of heavy neighbor traffic, deliberately scattered: cluster
    /// `k` talks to cluster `(k + 1) % c`, so a placement following the
    /// grid's space-filling order prices far below identity-on-a-ring.
    fn ring_traffic(c: usize, weight: u64) -> TrafficMatrix {
        let mut packets = vec![0u64; c * c];
        for k in 0..c {
            packets[k * c + (k + 1) % c] = weight;
        }
        TrafficMatrix::from_raw(c, packets)
    }

    #[test]
    fn traffic_matrix_respects_modes() {
        use crate::graph::SpikeGraph;
        // neuron 0 (5 spikes) on cluster 0 hits two targets on cluster 1
        let g = SpikeGraph::from_parts(3, vec![(0, 1), (0, 2)], vec![5, 0, 0]).unwrap();
        let m = Mapping::from_assignment(vec![0, 1, 1], 2).unwrap();
        let per_packet = TrafficMatrix::from_mapping(&g, &m, TrafficMode::PerCrossbar);
        assert_eq!(per_packet.packets(0, 1), 5); // deduplicated
        let per_syn = TrafficMatrix::from_mapping(&g, &m, TrafficMode::PerSynapse);
        assert_eq!(per_syn.packets(0, 1), 10); // one per cut synapse
        assert_eq!(per_packet.packets(1, 0), 0);
        assert_eq!(per_packet.total_packets(), 5);
    }

    #[test]
    fn swap_delta_matches_reference_exhaustively() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for c in [2usize, 5, 9, 16] {
            let packets: Vec<u64> = (0..c * c)
                .enumerate()
                .map(|(i, _)| {
                    if i % (c + 1) == 0 {
                        0 // keep the diagonal empty like real matrices
                    } else {
                        rng.gen_range(0..50u64)
                    }
                })
                .collect();
            let traffic = TrafficMatrix::from_raw(c, packets);
            let adj = TrafficAdjacency::new(&traffic);
            let mut perm: Vec<u32> = (0..c as u32).collect();
            for a in (1..c).rev() {
                let b = rng.gen_range(0..a + 1);
                perm.swap(a, b);
            }
            // the dense kernel is exact on asymmetric tables too; the
            // adjacency pricer is only defined on symmetric ones
            for (dist, symmetric) in [(mesh_lut(c), true), (one_way_ring_lut(c), false)] {
                let base = placement_cost(&traffic, &dist, &perm) as i64;
                for x in 0..c {
                    for y in 0..c {
                        let mut swapped = perm.clone();
                        swapped.swap(x, y);
                        let expected = placement_cost(&traffic, &dist, &swapped) as i64 - base;
                        assert_eq!(
                            swap_delta(&traffic, &dist, &perm, x, y),
                            expected,
                            "c={c} swap {x}<->{y} symmetric={symmetric}"
                        );
                        if symmetric {
                            assert_eq!(adj.swap_delta(&dist, &perm, x, y), expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn asymmetric_hop_table_is_rejected_not_mispriced() {
        let traffic = ring_traffic(6, 5);
        let dist = one_way_ring_lut(6);
        assert_eq!((dist.hops(0, 1), dist.hops(1, 0)), (1, 5));
        let err = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidParameter { name: "dist", .. }),
            "{err}"
        );
        // only the slots the clusters can occupy are read: 0 <-> 1 is
        // one hop both ways here, the one-way detour through 2 is not
        // the two clusters' business
        let wide = DistanceLut::new(&Directed(vec![vec![1], vec![0, 2], vec![0]]));
        assert_eq!((wide.hops(0, 2), wide.hops(2, 0)), (2, 1));
        let out = optimize_placement(&ring_traffic(2, 5), &wide, &PlaceConfig::default()).unwrap();
        assert_eq!(out.optimized_cost, out.identity_cost);
    }

    #[test]
    fn optimizer_never_loses_to_identity_and_finds_ring_structure() {
        let c = 16;
        let traffic = ring_traffic(c, 10);
        let dist = mesh_lut(c);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert!(outcome.optimized_cost <= outcome.identity_cost);
        // identity on a 4x4 mesh prices the ring's wrap edge at 6 hops
        // (Manhattan distance corner to corner along the row-major order);
        // a snake placement brings every ring edge to 1-2 hops
        assert!(
            outcome.optimized_cost < outcome.identity_cost,
            "ring traffic must beat identity: {} !< {}",
            outcome.optimized_cost,
            outcome.identity_cost
        );
        assert_eq!(
            placement_cost(&traffic, &dist, outcome.placement.as_slice()),
            outcome.optimized_cost
        );
    }

    #[test]
    fn optimizer_is_deterministic_across_thread_counts() {
        let traffic = ring_traffic(12, 7);
        let dist = DistanceLut::new(&Torus::for_crossbars(12));
        let base = PlaceConfig {
            restarts: 6,
            ..PlaceConfig::default()
        };
        let one = optimize_placement(&traffic, &dist, &PlaceConfig { threads: 1, ..base }).unwrap();
        for threads in [2usize, 3, 8] {
            let multi =
                optimize_placement(&traffic, &dist, &PlaceConfig { threads, ..base }).unwrap();
            assert_eq!(one, multi, "threads={threads}");
        }
    }

    #[test]
    fn degenerate_inputs_handled() {
        // single cluster: identity is the only permutation
        let traffic = TrafficMatrix::from_raw(1, vec![0]);
        let dist = mesh_lut(1);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.placement, Placement::identity(1));
        assert_eq!(outcome.optimized_cost, 0);
        // empty traffic: every permutation costs zero; identity wins
        let traffic = TrafficMatrix::from_raw(4, vec![0; 16]);
        let dist = mesh_lut(4);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.optimized_cost, 0);
        assert_eq!(outcome.identity_cost, 0);
    }

    #[test]
    fn zero_clusters_place_to_the_empty_placement() {
        let traffic = TrafficMatrix::from_raw(0, vec![]);
        let outcome = optimize_placement(&traffic, &mesh_lut(1), &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.placement.num_crossbars(), 0);
        assert_eq!((outcome.identity_cost, outcome.optimized_cost), (0, 0));
        assert_eq!(outcome.winning_restart, 0);
    }

    #[test]
    fn traffic_that_overflows_an_i64_cost_is_rejected() {
        let traffic_error = |traffic: &TrafficMatrix, dist: &DistanceLut| {
            let err = optimize_placement(traffic, dist, &PlaceConfig::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidParameter {
                        name: "traffic",
                        ..
                    }
                ),
                "{err}"
            );
        };
        // counts near u64::MAX / 2 used to overflow the annealer's running
        // cost (debug) or report i64::MAX costs (release)
        traffic_error(&ring_traffic(4, u64::MAX / 2), &mesh_lut(4));
        // the bound is packets × the largest hop count, not packets alone
        let c = 16;
        let per_edge = i64::MAX as u64 / (c as u64 * 6);
        let fits = ring_traffic(c, per_edge);
        let outcome = optimize_placement(&fits, &mesh_lut(c), &PlaceConfig::default()).unwrap();
        assert!(outcome.optimized_cost < outcome.identity_cost);
        traffic_error(&ring_traffic(c, per_edge * 2), &mesh_lut(c));
        // exactly at the bound is exact; one packet past it is refused,
        // and the diagonal, which never pays a hop, does not count
        let pair = |t: u64, diagonal: u64| TrafficMatrix::from_raw(2, vec![diagonal, t, 0, 0]);
        let at_bound = pair(i64::MAX as u64, u64::MAX);
        let outcome = optimize_placement(&at_bound, &mesh_lut(2), &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.optimized_cost, i64::MAX as u64);
        traffic_error(&pair(i64::MAX as u64 + 1, 0), &mesh_lut(2));
    }

    /// The adjacency-priced greedy polish the table replaced, kept as its
    /// oracle: same sweep order, same stopping rule, every pair priced by
    /// [`TrafficAdjacency::swap_delta`] in O(deg).
    fn adjacency_polish(
        adj: &TrafficAdjacency,
        dist: &DistanceLut,
        passes: u32,
        perm: &mut [u32],
    ) -> (i64, Vec<(usize, usize)>) {
        let c = perm.len();
        let (mut total, mut taken) = (0i64, Vec::new());
        for _ in 0..passes {
            let mut improved = false;
            for a in 0..c {
                for b in a + 1..c {
                    let d = adj.swap_delta(dist, perm, a, b);
                    if d < 0 {
                        perm.swap(a, b);
                        total += d;
                        taken.push((a, b));
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (total, taken)
    }

    #[test]
    fn table_polish_takes_the_adjacency_polish_swaps() {
        use neuromap_noc::topology::{HierTopology, NocTree, Star};
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut swaps_taken = 0;
        // c == slots, and c below the fabric's crossbar count
        for (c, slots) in [(1, 1), (2, 2), (2, 5), (11, 16), (16, 16), (24, 30)] {
            let fabrics = [
                ("mesh", mesh_lut(slots)),
                ("torus", DistanceLut::new(&Torus::for_crossbars(slots))),
                ("tree", DistanceLut::new(&NocTree::new(slots, 4))),
                ("star", DistanceLut::new(&Star::new(slots))),
                (
                    "hier2x2",
                    HierTopology::for_crossbars(slots.max(4), 2, 2, 3, 2)
                        .unwrap()
                        .distance_lut(),
                ),
            ];
            for (fabric, dist) in &fabrics {
                assert!(dist.num_crossbars() >= c);
                for density in [0.0, 0.1, 0.5, 1.0] {
                    // clusters 0 and c - 1 exchange no traffic at all
                    let silent = |k: usize| c > 2 && (k == 0 || k == c - 1);
                    let packets = (0..c * c)
                        .map(|i| {
                            let (x, y) = (i / c, i % c);
                            if x == y || silent(x) || silent(y) || !rng.gen_bool(density) {
                                0
                            } else {
                                rng.gen_range(1..1_000u64)
                            }
                        })
                        .collect();
                    let traffic = TrafficMatrix::from_raw(c, packets);
                    let adj = TrafficAdjacency::new(&traffic);
                    let mut start: Vec<u32> = (0..c as u32).collect();
                    for a in (1..c).rev() {
                        start.swap(a, rng.gen_range(0..a + 1));
                    }
                    let before = placement_cost(&traffic, dist, &start) as i64;
                    let mut oracle = start.clone();
                    let (oracle_delta, oracle_taken) = adjacency_polish(&adj, dist, 8, &mut oracle);
                    let mut table = SlotCostTable::new(&traffic, &adj, dist, start);
                    let mut taken = Vec::new();
                    let delta = greedy_polish(&mut table, 8, |a, b| taken.push((a, b)));
                    let case = format!("{fabric} c={c} slots={slots} density={density}");
                    assert_eq!(taken, oracle_taken, "{case}");
                    assert_eq!(
                        (before + delta, &table.physical_of[..]),
                        (before + oracle_delta, &oracle[..]),
                        "{case}"
                    );
                    assert_eq!(
                        placement_cost(&traffic, dist, &oracle) as i64,
                        before + delta,
                        "{case}"
                    );
                    swaps_taken += taken.len();
                }
            }
        }
        assert!(swaps_taken > 100, "the cases must exercise the update");
    }

    #[test]
    fn more_threads_than_restarts_is_identical_and_well_formed() {
        // regression for the ceil-division chunking: threads > restarts
        // used to hand tail workers empty `lo >= hi` ranges. The clamped
        // base/extra split must keep results byte-identical and (in debug
        // builds) asserts the partition is exact and chunk-empty-free.
        let traffic = ring_traffic(9, 3);
        let dist = mesh_lut(9);
        let base = PlaceConfig {
            restarts: 3,
            ..PlaceConfig::default()
        };
        let one = optimize_placement(&traffic, &dist, &PlaceConfig { threads: 1, ..base }).unwrap();
        for threads in [3usize, 4, 7, 16] {
            let multi =
                optimize_placement(&traffic, &dist, &PlaceConfig { threads, ..base }).unwrap();
            assert_eq!(one, multi, "threads={threads} restarts=3");
        }
    }

    #[test]
    fn cluster_local_traffic_never_enters_the_matrix() {
        use crate::graph::SpikeGraph;
        // every synapse stays inside its neuron's cluster: the matrix must
        // be all-zero under both accounting modes (local spikes never
        // touch the interconnect), so placement cost is zero everywhere
        let g = SpikeGraph::from_parts(
            4,
            vec![(0, 1), (1, 0), (2, 3), (3, 2)],
            vec![10, 20, 30, 40],
        )
        .unwrap();
        let m = Mapping::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        for mode in [TrafficMode::PerCrossbar, TrafficMode::PerSynapse] {
            let traffic = TrafficMatrix::from_mapping(&g, &m, mode);
            assert_eq!(traffic.total_packets(), 0, "{mode:?}");
            let dist = mesh_lut(2);
            assert_eq!(placement_cost(&traffic, &dist, &[0, 1]), 0);
        }
    }

    #[test]
    fn config_validation() {
        let traffic = ring_traffic(4, 1);
        let dist = mesh_lut(4);
        for bad in [
            PlaceConfig {
                restarts: 0,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                threads: 0,
                ..PlaceConfig::default()
            },
        ] {
            assert!(optimize_placement(&traffic, &dist, &bad).is_err());
        }
        // undersized hop table rejected
        let small = mesh_lut(2);
        assert!(optimize_placement(&traffic, &small, &PlaceConfig::default()).is_err());
    }
}
