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
//! ## Incremental pricing and its reference kernels
//!
//! Exchanging the physical slots of two clusters reprices only the
//! traffic those two clusters take part in, and most cluster pairs
//! exchange none: on `mapbench`'s 256-crossbar PSO partitions a cluster
//! talks to 46–84 of the 255 others, and the share falls as fabrics
//! grow. The optimizer therefore prices every candidate with
//! **one** function, [`TrafficAdjacency::swap_delta`], in
//! O(deg(x) + deg(y)): the adjacency lists each cluster's neighbours with
//! the folded weight `packets(x, k) + packets(k, x)` and is built once
//! per [`optimize_placement`] call, shared by every restart.
//!
//! Two dense functions stay as its **oracles**, never as a second path:
//! [`placement_cost`] recomputes a placement from scratch in O(C²), and
//! the dense [`swap_delta`] prices one swap in O(C) with out- and
//! in-traffic kept apart (so it is exact on asymmetric tables too). Debug
//! builds assert adjacency ≡ dense `swap_delta` on every candidate the
//! optimizer tries and the accumulated cost ≡ `placement_cost` at the end
//! of every restart; `tests/placement_properties.rs` holds all three
//! equal over random fabrics, traffic densities from empty to full, and
//! swap sequences, and freezes the optimizer's default outcomes.
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
            for k in 0..c {
                let s = traffic.packets[x * c + k] + traffic.packets[k * c + x];
                if k != x && s != 0 {
                    entries.push((k as u32, s as i64));
                }
            }
            offsets.push(entries.len());
        }
        Self { offsets, entries }
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
            for &(k, s) in &self.entries[self.offsets[a]..self.offsets[a + 1]] {
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

/// Placement-optimizer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaceConfig {
    /// Independent restarts; restart 0 is greedy descent from the
    /// identity permutation (so the result never loses to identity), the
    /// rest anneal from seeded random permutations. Ties go to the lowest
    /// restart index.
    pub restarts: u32,
    /// Annealing proposals per restart (random cluster-pair swaps).
    pub sa_moves: u32,
    /// Initial temperature, in units of the objective.
    pub t0: f64,
    /// Geometric cooling factor per proposal.
    pub alpha: f64,
    /// Maximum greedy first-improvement sweeps polishing each restart.
    pub greedy_passes: u32,
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
            t0: 50.0,
            alpha: 0.999,
            greedy_passes: 8,
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
    /// [`CoreError::InvalidParameter`] for zero restarts/passes/threads,
    /// a cooling factor outside `(0, 1]`, or a negative or non-finite
    /// initial temperature.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.restarts == 0 {
            return Err(CoreError::InvalidParameter {
                name: "restarts",
                value: "0".into(),
            });
        }
        if self.greedy_passes == 0 {
            return Err(CoreError::InvalidParameter {
                name: "greedy_passes",
                value: "0".into(),
            });
        }
        // NaN would silently turn annealing into pure descent, infinity
        // into `sa_moves` unconditional random swaps
        if !self.t0.is_finite() || self.t0 < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "t0",
                value: self.t0.to_string(),
            });
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "alpha",
                value: self.alpha.to_string(),
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

impl PlaceOutcome {
    /// Relative reduction of hop-weighted packets in `[0, 1]`.
    pub fn relative_gain(&self) -> f64 {
        if self.identity_cost == 0 {
            0.0
        } else {
            1.0 - self.optimized_cost as f64 / self.identity_cost as f64
        }
    }
}

/// One restart: anneal (restarts ≥ 1 only), then greedy first-improvement
/// sweeps until a sweep makes no progress or the pass budget is spent.
/// Every candidate swap is priced by `adj` in O(deg). Deterministic for
/// a fixed `(traffic, dist, cfg, k)`.
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
    let price = |perm: &[u32], a: usize, b: usize| {
        let d = adj.swap_delta(dist, perm, a, b);
        debug_assert_eq!(d, swap_delta(traffic, dist, perm, a, b));
        d
    };

    if k > 0 {
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
        let mut temp = cfg.t0;
        for _ in 0..cfg.sa_moves {
            let a = rng.gen_range(0..c);
            let b = rng.gen_range(0..c);
            if a != b {
                let d = price(&perm, a, b);
                let accept = d <= 0 || {
                    temp > f64::EPSILON && rng.gen_range(0.0..1.0) < (-(d as f64) / temp).exp()
                };
                if accept {
                    perm.swap(a, b);
                    cost += d;
                }
            }
            temp *= cfg.alpha;
        }
    }

    // greedy polish: first-improvement sweeps over all cluster pairs
    for _ in 0..cfg.greedy_passes {
        let mut improved = false;
        for a in 0..c {
            for b in a + 1..c {
                let d = price(&perm, a, b);
                if d < 0 {
                    perm.swap(a, b);
                    cost += d;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert_eq!(cost as u64, placement_cost(traffic, dist, &perm));
    (cost as u64, perm)
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
/// table covering fewer crossbars than the traffic matrix, or one that
/// is not symmetric over the crossbars the matrix covers (no table this
/// workspace builds is; see the module docs).
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
        assert!(outcome.relative_gain() > 0.0);
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
        assert!(outcome.placement.is_identity());
        assert_eq!(outcome.optimized_cost, 0);
        // empty traffic: every permutation costs zero; identity wins
        let traffic = TrafficMatrix::from_raw(4, vec![0; 16]);
        let dist = mesh_lut(4);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.optimized_cost, 0);
        assert_eq!(outcome.identity_cost, 0);
    }

    #[test]
    fn relative_gain_guards_empty_traffic() {
        // empty traffic matrix ⇒ identity_cost == 0: the gain must be a
        // clean 0.0, not NaN poisoning serialized reports
        let traffic = TrafficMatrix::from_raw(4, vec![0; 16]);
        let dist = mesh_lut(4);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert_eq!(outcome.identity_cost, 0);
        assert_eq!(outcome.relative_gain(), 0.0);
        assert!(!outcome.relative_gain().is_nan());
        // and the non-degenerate path still reports the true ratio
        let traffic = ring_traffic(16, 10);
        let dist = mesh_lut(16);
        let outcome = optimize_placement(&traffic, &dist, &PlaceConfig::default()).unwrap();
        assert!(outcome.identity_cost > 0);
        let expected = 1.0 - outcome.optimized_cost as f64 / outcome.identity_cost as f64;
        assert_eq!(outcome.relative_gain(), expected);
        assert!(outcome.relative_gain() > 0.0 && outcome.relative_gain() <= 1.0);
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
                greedy_passes: 0,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                alpha: 0.0,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                threads: 0,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                t0: f64::NAN,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                t0: f64::INFINITY,
                ..PlaceConfig::default()
            },
            PlaceConfig {
                t0: -1.0,
                ..PlaceConfig::default()
            },
        ] {
            assert!(optimize_placement(&traffic, &dist, &bad).is_err());
        }
        // a zero temperature is plain descent, which is allowed
        let cold = PlaceConfig {
            t0: 0.0,
            ..PlaceConfig::default()
        };
        assert!(optimize_placement(&traffic, &dist, &cold).is_ok());
        // undersized hop table rejected
        let small = mesh_lut(2);
        assert!(optimize_placement(&traffic, &small, &PlaceConfig::default()).is_err());
    }
}
