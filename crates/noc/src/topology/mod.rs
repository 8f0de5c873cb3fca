//! Interconnect topologies.
//!
//! A [`Topology`] describes the router graph, where each crossbar attaches,
//! and the deterministic route between any two routers. Implementations:
//!
//! | Model | Hardware family | Routing |
//! |---|---|---|
//! | [`Mesh2D`] | TrueNorth, HiCANN | XY dimension-order |
//! | [`NocTree`] | CxQuad | up-down (to lowest common ancestor) |
//! | [`Torus`] | research meshes with wraparound | shortest-direction dimension-order |
//! | [`Star`] | small shared-bus chips | via the hub |
//! | [`PointToPoint`] | idealized upper bound | direct |
//! | [`HierTopology`] | multi-chip fabrics (SpiNeMap-style scale-out) | intra-chip delegation / global XY across chips |

mod hier;
mod mesh;
mod star;
mod tree;

pub use hier::HierTopology;
pub use mesh::{Mesh2D, Torus};
pub use star::{PointToPoint, Star};
pub use tree::NocTree;

/// A router graph with deterministic routing and crossbar endpoints.
///
/// Router ids are `0..num_routers()`. Every crossbar `0..num_crossbars()`
/// attaches to exactly one router ([`Topology::endpoint`]); several
/// crossbars may share a router only in degenerate single-router cases.
pub trait Topology: Send + Sync {
    /// Number of routers in the graph.
    fn num_routers(&self) -> usize;

    /// Number of crossbars served.
    fn num_crossbars(&self) -> usize;

    /// Router to which crossbar `k` attaches.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_crossbars()`.
    fn endpoint(&self, k: u32) -> usize;

    /// Direct neighbors of router `r` (egress ports, in fixed order).
    fn neighbors(&self, r: usize) -> &[usize];

    /// Next router on the deterministic route from `r` toward `dst`
    /// (a router id). Returns `r` itself when `r == dst`.
    fn route_next(&self, r: usize, dst: usize) -> usize;

    /// Virtual channel the hop leaving `r` toward (router) `dst` occupies
    /// when the interconnect runs `vc_count` VCs per ingress port, in
    /// `0..vc_count`.
    ///
    /// Must be a pure function of `(r, dst)` (packets carry no VC state;
    /// multicast branches split by `(egress port, VC)`), and must keep the
    /// `(link, VC)` channel-dependency graph acyclic — see
    /// [`crate::router`] for the argument. The default spreads
    /// destinations across VCs to cut head-of-line blocking, which is
    /// safe for every topology whose link-dependency graph is already
    /// acyclic (mesh, tree, star, point-to-point); topologies with cyclic
    /// link graphs ([`Torus`]) must override with a dateline scheme.
    fn hop_vc(&self, r: usize, dst: usize, vc_count: usize) -> usize {
        let _ = r;
        if vc_count <= 1 {
            0
        } else {
            dst % vc_count
        }
    }

    /// Deterministic Steiner-style multicast tree from router `src` to
    /// `dest_routers`, returned as one hop path per destination (in input
    /// order): `paths[i]` lists the `(next_router, vc)` hops from `src`
    /// to `dest_routers[i]`. A destination equal to `src` yields an empty
    /// path; duplicate destinations yield identical paths.
    ///
    /// The *tree* is the union of the returned paths: the simulators
    /// replicate a multicast packet only where two destinations' paths
    /// take different `(egress port, vc)` hops out of a router, so shared
    /// path prefixes ride a single packet. What is returned is checked:
    /// a path that is not a walk over `(link, vc)`s of the fabric to its
    /// destination's router, or one with as many hops as there are
    /// routers (it revisits one), fails the run with
    /// [`crate::NocError::InvalidConfig`]. Implementations must uphold
    /// two invariants:
    ///
    /// * **Determinism** — a pure function of
    ///   `(src, dest_routers, vc_count)`; a run asks once per net (not
    ///   per spike) and both NoC engines forward along that answer, which
    ///   is what keeps them byte-identical under tree routing.
    /// * **VC-deadlock-freedom** — the `(link, vc)` channel-dependency
    ///   graph induced by all tree paths (consecutive hops of every
    ///   per-destination path) must stay acyclic for every `vc_count` the
    ///   topology supports, exactly as
    ///   [`check_vc_channel_dependencies`] demands of the unicast routes;
    ///   [`check_vc_tree_dependencies`] verifies the union of both edge
    ///   sets.
    ///
    /// The default implementation routes each destination independently
    /// along the deterministic unicast route with the unicast
    /// [`Topology::hop_vc`] labels — bit-identical to the non-tree
    /// engines' branch-splitting, so a topology without an override
    /// behaves the same whether trees are enabled or not, and a
    /// single-destination call always degenerates to the unicast route.
    /// [`Mesh2D`] and [`Torus`] override with dimension-ordered
    /// approximations that merge shared prefix hops before branching.
    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        dest_routers
            .iter()
            .map(|&d| {
                let mut path = Vec::new();
                let mut cur = src;
                while cur != d {
                    let next = self.route_next(cur, d);
                    assert_ne!(next, cur, "route stalled at router {cur} toward {d}");
                    let vc = if vc_count <= 1 {
                        0
                    } else {
                        self.hop_vc(cur, d, vc_count)
                    };
                    path.push((next, vc));
                    cur = next;
                    assert!(
                        path.len() <= self.num_routers(),
                        "route from {src} to {d} exceeds router count"
                    );
                }
                path
            })
            .collect()
    }

    /// Hop count of the deterministic route between two routers.
    ///
    /// Default implementation walks [`Topology::route_next`]; override for
    /// analytic forms.
    fn hops(&self, from: usize, to: usize) -> u32 {
        let mut cur = from;
        let mut n = 0;
        while cur != to {
            let next = self.route_next(cur, to);
            assert_ne!(next, cur, "route stalled at router {cur} toward {to}");
            cur = next;
            n += 1;
            assert!(
                (n as usize) <= self.num_routers(),
                "route from {from} to {to} exceeds router count"
            );
        }
        n
    }

    /// A short human-readable name ("mesh 4x4", "tree arity 4", ...).
    fn name(&self) -> String;
}

/// Precomputed all-pairs hop distances over a [`Topology`]'s router graph.
///
/// The placement stage of the mapping pipeline prices every candidate
/// cluster→crossbar permutation by hop-weighted packet counts; walking
/// [`Topology::route_next`] per query (or even calling the virtual
/// [`Topology::hops`]) inside those inner loops would dominate the
/// optimizer. A `DistanceLut` runs one BFS per router over the neighbor
/// graph (`O(R · (R + links))`, built **once** per topology and shared
/// across sweep points) and additionally flattens the crossbar-level
/// `endpoint(k1) → endpoint(k2)` distances into a row-major matrix for
/// the evaluators' hot loops.
///
/// For every topology shipped here the deterministic route is a shortest
/// path (XY/dimension-order on mesh and torus, LCA on the tree, via-hub
/// on the star, direct on point-to-point), so the BFS distances equal the
/// walked route lengths — asserted against [`Topology::hops`] for all
/// topologies and against the closed forms for [`Mesh2D`]/[`Torus`] in
/// the tests below. Distances over the undirected link graph are
/// symmetric by construction.
#[derive(Debug, Clone)]
pub struct DistanceLut {
    nr: usize,
    nc: usize,
    /// `router_hops[a * nr + b]` — BFS hop count between routers.
    router_hops: Vec<u32>,
    /// `crossbar_hops[k1 * nc + k2]` — hops between crossbar endpoints.
    crossbar_hops: Vec<u32>,
}

impl DistanceLut {
    /// Runs a BFS from every router and flattens the crossbar-level view.
    ///
    /// # Panics
    ///
    /// Panics if some router pair is unreachable over the neighbor links
    /// (every shipped topology is connected; a disconnected custom one
    /// cannot route anyway).
    pub fn new(topo: &dyn Topology) -> Self {
        let nr = topo.num_routers();
        let nc = topo.num_crossbars();
        let mut router_hops = vec![u32::MAX; nr * nr];
        let mut queue = std::collections::VecDeque::with_capacity(nr);
        for src in 0..nr {
            let row = &mut router_hops[src * nr..(src + 1) * nr];
            row[src] = 0;
            queue.clear();
            queue.push_back(src);
            while let Some(r) = queue.pop_front() {
                let d = row[r];
                for &next in topo.neighbors(r) {
                    if row[next] == u32::MAX {
                        row[next] = d + 1;
                        queue.push_back(next);
                    }
                }
            }
            assert!(
                row.iter().all(|&d| d != u32::MAX),
                "router {src} cannot reach the whole graph; topology is disconnected"
            );
        }
        let endpoints: Vec<usize> = (0..nc as u32).map(|k| topo.endpoint(k)).collect();
        let mut crossbar_hops = vec![0u32; nc * nc];
        for (k1, &e1) in endpoints.iter().enumerate() {
            for (k2, &e2) in endpoints.iter().enumerate() {
                crossbar_hops[k1 * nc + k2] = router_hops[e1 * nr + e2];
            }
        }
        Self {
            nr,
            nc,
            router_hops,
            crossbar_hops,
        }
    }

    /// Number of routers covered.
    pub fn num_routers(&self) -> usize {
        self.nr
    }

    /// Number of crossbars covered.
    pub fn num_crossbars(&self) -> usize {
        self.nc
    }

    /// Hop count between two routers.
    #[inline]
    pub fn router_hops(&self, a: usize, b: usize) -> u32 {
        self.router_hops[a * self.nr + b]
    }

    /// Hop count between the routers crossbars `k1` and `k2` attach to
    /// (zero when they share a router, in particular when `k1 == k2`).
    #[inline]
    pub fn hops(&self, k1: u32, k2: u32) -> u32 {
        self.crossbar_hops[k1 as usize * self.nc + k2 as usize]
    }

    /// The crossbar-level distance matrix, row-major
    /// (`matrix[k1 * num_crossbars + k2]`) — the flat view the batched
    /// evaluators index directly.
    #[inline]
    pub fn crossbar_matrix(&self) -> &[u32] {
        &self.crossbar_hops
    }

    /// The crossbar-level view of this table under a cluster → physical
    /// crossbar permutation: `permuted.hops(k1, k2)` prices the distance
    /// between the *physical* slots `perm[k1]` and `perm[k2]`, so an
    /// evaluator holding logical cluster ids scores exactly what the
    /// placed mapping will pay. The joint co-optimization loop
    /// (`core::coopt`) feeds this to the hop-weighted PSO objective after
    /// each placement refresh. The router-level distances are the
    /// topology's and are copied unchanged — only the crossbar view is
    /// re-indexed.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_crossbars()`.
    pub fn permuted(&self, perm: &[u32]) -> DistanceLut {
        let nc = self.nc;
        assert_eq!(perm.len(), nc, "permutation must cover every crossbar");
        let mut seen = vec![false; nc];
        for &p in perm {
            assert!(
                (p as usize) < nc && !seen[p as usize],
                "perm is not a permutation of 0..{nc}"
            );
            seen[p as usize] = true;
        }
        let mut crossbar_hops = vec![0u32; nc * nc];
        for k1 in 0..nc {
            let p1 = perm[k1] as usize;
            for k2 in 0..nc {
                crossbar_hops[k1 * nc + k2] = self.crossbar_hops[p1 * nc + perm[k2] as usize];
            }
        }
        DistanceLut {
            nr: self.nr,
            nc,
            router_hops: self.router_hops.clone(),
            crossbar_hops,
        }
    }
}

/// Exhaustively checks that deterministic routes between all router pairs
/// terminate and only use neighbor links. Intended for tests and as a
/// self-check after constructing custom topologies.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_routes(topo: &dyn Topology) -> Result<(), String> {
    let n = topo.num_routers();
    for from in 0..n {
        for to in 0..n {
            let mut cur = from;
            let mut steps = 0;
            while cur != to {
                let next = topo.route_next(cur, to);
                if next == cur {
                    return Err(format!("route {from}->{to} stalled at {cur}"));
                }
                if !topo.neighbors(cur).contains(&next) {
                    return Err(format!(
                        "route {from}->{to} jumps {cur}->{next}, not a link"
                    ));
                }
                cur = next;
                steps += 1;
                if steps > n {
                    return Err(format!("route {from}->{to} does not terminate"));
                }
            }
        }
    }
    Ok(())
}

/// Builds the `(directed link, VC)` channel-dependency graph induced by
/// the deterministic routes and [`Topology::hop_vc`] at `vc_count`
/// virtual channels, and checks it for cycles.
///
/// A node is a channel `(from, to, vc)`; an edge `a → b` exists when some
/// route holds `a` and next requests `b` (consecutive hops of a walked
/// route). An acyclic graph is the classic sufficient condition for
/// deadlock-free wormhole/VCT routing (Dally–Seitz); the torus dateline
/// assignment exists exactly to make this check pass — see
/// [`crate::router`]. Intended for tests and as a self-check for custom
/// topologies.
///
/// # Errors
///
/// Returns a description naming one channel on a dependency cycle.
pub fn check_vc_channel_dependencies(topo: &dyn Topology, vc_count: usize) -> Result<(), String> {
    let mut deps = ChannelDeps::default();
    deps.add_unicast_routes(topo, vc_count);
    deps.check(vc_count)
}

/// Like [`check_vc_channel_dependencies`], but the dependency graph is
/// seeded with the unicast route edges **plus** every consecutive-hop
/// edge of the multicast tree paths for the given `(source router,
/// destination routers)` groups — the channels a tree-routed packet
/// actually holds while requesting the next one. Passing proves the PR-5
/// deadlock-freedom invariant survives [`Topology::multicast_route`]:
/// tree-routed and unicast traffic can share the fabric without closing a
/// channel-dependency cycle.
///
/// # Errors
///
/// Returns a description naming one channel on a dependency cycle.
pub fn check_vc_tree_dependencies(
    topo: &dyn Topology,
    vc_count: usize,
    groups: &[(usize, Vec<usize>)],
) -> Result<(), String> {
    let mut deps = ChannelDeps::default();
    deps.add_unicast_routes(topo, vc_count);
    for (src, dests) in groups {
        for path in topo.multicast_route(*src, dests, vc_count) {
            let mut cur = *src;
            let mut prev: Option<usize> = None;
            for (next, vc) in path {
                assert!(vc < vc_count, "tree vc out of range at {cur}->{next}");
                assert!(
                    topo.neighbors(cur).contains(&next),
                    "tree hop {cur}->{next} is not a link"
                );
                let id = deps.channel(cur, next, vc);
                if let Some(p) = prev {
                    deps.edges.insert((p, id));
                }
                prev = Some(id);
                cur = next;
            }
        }
    }
    deps.check(vc_count)
}

/// Shared accumulator for the channel-dependency checks: interned
/// `(from, to, vc)` channel nodes plus hold-then-request edges, checked
/// for cycles with Kahn's algorithm.
#[derive(Default)]
struct ChannelDeps {
    ids: std::collections::HashMap<(usize, usize, usize), usize>,
    channels: Vec<(usize, usize, usize)>,
    edges: std::collections::HashSet<(usize, usize)>,
}

impl ChannelDeps {
    fn channel(&mut self, from: usize, to: usize, vc: usize) -> usize {
        let key = (from, to, vc);
        *self.ids.entry(key).or_insert_with(|| {
            self.channels.push(key);
            self.channels.len() - 1
        })
    }

    fn add_unicast_routes(&mut self, topo: &dyn Topology, vc_count: usize) {
        let nr = topo.num_routers();
        for src in 0..nr {
            for dst in 0..nr {
                let mut cur = src;
                let mut prev: Option<usize> = None;
                while cur != dst {
                    let next = topo.route_next(cur, dst);
                    let vc = topo.hop_vc(cur, dst, vc_count);
                    assert!(vc < vc_count, "hop_vc out of range at {cur}->{dst}");
                    let id = self.channel(cur, next, vc);
                    if let Some(p) = prev {
                        self.edges.insert((p, id));
                    }
                    prev = Some(id);
                    cur = next;
                }
            }
        }
    }

    /// Kahn's algorithm: a cycle leaves nodes with nonzero indegree.
    fn check(&self, vc_count: usize) -> Result<(), String> {
        let n = self.channels.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(a) = queue.pop() {
            seen += 1;
            for &b in &adj[a] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    queue.push(b);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            let (f, t, v) = self.channels[indeg.iter().position(|&d| d > 0).expect("cycle node")];
            Err(format!(
                "channel-dependency cycle through link {f}->{t} on vc {v} (vc_count {vc_count})"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_have_consistent_routes() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(7)),
            Box::new(Mesh2D::for_crossbars(16)),
            Box::new(Torus::for_crossbars(9)),
            Box::new(NocTree::new(4, 4)),
            Box::new(NocTree::new(13, 2)),
            Box::new(Star::new(6)),
            Box::new(PointToPoint::new(5)),
        ];
        for t in &topos {
            check_routes(t.as_ref()).unwrap_or_else(|e| panic!("{}: {e}", t.name()));
        }
    }

    #[test]
    fn endpoints_are_valid_routers() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(5)),
            Box::new(NocTree::new(9, 3)),
            Box::new(Star::new(4)),
            Box::new(Torus::for_crossbars(6)),
            Box::new(PointToPoint::new(3)),
        ];
        for t in &topos {
            for k in 0..t.num_crossbars() as u32 {
                assert!(t.endpoint(k) < t.num_routers(), "{}", t.name());
            }
        }
    }

    #[test]
    fn distance_lut_matches_walked_routes_everywhere() {
        // the deterministic route of every shipped topology is a shortest
        // path, so the BFS distances must equal the route-walked hop
        // counts for all router pairs and all crossbar pairs
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(7)),
            Box::new(Mesh2D::for_crossbars(16)),
            Box::new(Torus::for_crossbars(9)),
            Box::new(Torus::for_crossbars(12)),
            Box::new(NocTree::new(4, 4)),
            Box::new(NocTree::new(13, 2)),
            Box::new(Star::new(6)),
            Box::new(PointToPoint::new(5)),
        ];
        for t in &topos {
            let lut = DistanceLut::new(t.as_ref());
            assert_eq!(lut.num_routers(), t.num_routers(), "{}", t.name());
            assert_eq!(lut.num_crossbars(), t.num_crossbars(), "{}", t.name());
            for a in 0..t.num_routers() {
                for b in 0..t.num_routers() {
                    assert_eq!(
                        lut.router_hops(a, b),
                        t.hops(a, b),
                        "{}: routers {a}->{b}",
                        t.name()
                    );
                    assert_eq!(
                        lut.router_hops(a, b),
                        lut.router_hops(b, a),
                        "{}: BFS distances must be symmetric",
                        t.name()
                    );
                }
            }
            for k1 in 0..t.num_crossbars() as u32 {
                for k2 in 0..t.num_crossbars() as u32 {
                    assert_eq!(
                        lut.hops(k1, k2),
                        t.hops(t.endpoint(k1), t.endpoint(k2)),
                        "{}: crossbars {k1}->{k2}",
                        t.name()
                    );
                    assert_eq!(
                        lut.crossbar_matrix()[k1 as usize * t.num_crossbars() + k2 as usize],
                        lut.hops(k1, k2),
                        "{}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn distance_lut_matches_mesh_and_torus_closed_forms() {
        // mesh: Manhattan distance |dx| + |dy|
        let m = Mesh2D::grid(5, 4, 20);
        let lut = DistanceLut::new(&m);
        for a in 0..20usize {
            for b in 0..20usize {
                let (xa, ya) = (a % 5, a / 5);
                let (xb, yb) = (b % 5, b / 5);
                assert_eq!(
                    lut.router_hops(a, b),
                    (xa.abs_diff(xb) + ya.abs_diff(yb)) as u32,
                    "mesh {a}->{b}"
                );
            }
        }
        // torus: per-dimension ring distance min(|d|, len - |d|)
        let t = Torus::for_crossbars(16); // 4x4
        let lut = DistanceLut::new(&t);
        let ring = |a: usize, b: usize, len: usize| a.abs_diff(b).min(len - a.abs_diff(b));
        for a in 0..16usize {
            for b in 0..16usize {
                let (xa, ya) = (a % 4, a / 4);
                let (xb, yb) = (b % 4, b / 4);
                assert_eq!(
                    lut.router_hops(a, b),
                    (ring(xa, xb, 4) + ring(ya, yb, 4)) as u32,
                    "torus {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn hop_vc_stays_in_range_everywhere() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(9)),
            Box::new(Torus::for_crossbars(16)),
            Box::new(Torus::grid(5, 1, 5)),
            Box::new(NocTree::new(8, 2)),
            Box::new(Star::new(6)),
            Box::new(PointToPoint::new(4)),
        ];
        for t in &topos {
            for vc_count in 1..=4usize {
                for r in 0..t.num_routers() {
                    for dst in 0..t.num_routers() {
                        let vc = t.hop_vc(r, dst, vc_count);
                        assert!(vc < vc_count, "{}: vc {vc} at {r}->{dst}", t.name());
                        if vc_count == 1 {
                            assert_eq!(vc, 0, "{}", t.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_channel_torus_dependencies_are_cyclic() {
        // the PR-4 deadlock, stated structurally: with one channel per
        // link, shortest-direction dimension-order routing on a torus
        // with rings of length >= 4 closes a channel-dependency cycle —
        // the hazard virtual channels exist to break
        let t = Torus::for_crossbars(16); // 4x4
        assert!(check_vc_channel_dependencies(&t, 1).is_err());
        let ring = Torus::grid(4, 1, 4);
        assert!(check_vc_channel_dependencies(&ring, 1).is_err());
    }

    #[test]
    fn dateline_assignment_makes_torus_dependencies_acyclic() {
        for vc_count in 2..=4usize {
            for t in [
                Torus::for_crossbars(16), // 4x4
                Torus::for_crossbars(20), // 5x4
                Torus::grid(4, 1, 4),     // minimal ring
                Torus::grid(6, 1, 6),
                Torus::for_crossbars(9), // 3x3
            ] {
                check_vc_channel_dependencies(&t, vc_count)
                    .unwrap_or_else(|e| panic!("{} at {vc_count} VCs: {e}", t.name()));
            }
        }
    }

    #[test]
    fn acyclic_link_graphs_stay_acyclic_under_vc_spreading() {
        // the default hop_vc spreads destinations across VCs; on
        // topologies whose link-dependency graph is already acyclic that
        // must not create a cycle (projection argument in crate::router)
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(16)),
            Box::new(Mesh2D::grid(5, 2, 10)),
            Box::new(NocTree::new(8, 2)),
            Box::new(Star::new(6)),
            Box::new(PointToPoint::new(4)),
        ];
        for t in &topos {
            for vc_count in 1..=4usize {
                check_vc_channel_dependencies(t.as_ref(), vc_count)
                    .unwrap_or_else(|e| panic!("{} at {vc_count} VCs: {e}", t.name()));
            }
        }
    }

    #[test]
    fn torus_wrap_links_ride_the_lower_vc_half() {
        // walk every route: wraparound hops must use the lower half of
        // the VCs, and the VC phase may only step lower -> upper within a
        // dimension (the dateline is crossed at most once)
        let t = Torus::for_crossbars(16); // 4x4
        let vc_count = 4usize;
        let half = vc_count / 2;
        let wrapping = |from: usize, to: usize| {
            let (fx, fy) = (from % 4, from / 4);
            let (tx, ty) = (to % 4, to / 4);
            fx.abs_diff(tx) > 1 || fy.abs_diff(ty) > 1
        };
        for src in 0..16usize {
            for dst in 0..16usize {
                let mut cur = src;
                let mut upper_seen_x = false;
                while cur != dst {
                    let next = t.route_next(cur, dst);
                    let vc = t.hop_vc(cur, dst, vc_count);
                    if wrapping(cur, next) {
                        assert!(vc < half, "wrap hop {cur}->{next} on upper vc {vc}");
                    }
                    let same_row = cur / 4 == next / 4;
                    if same_row {
                        // x-dimension hops: once upper, never lower again
                        if vc >= half {
                            upper_seen_x = true;
                        } else {
                            assert!(!upper_seen_x, "{src}->{dst}: vc fell back to lower half");
                        }
                    }
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn hops_are_symmetric_for_symmetric_topologies() {
        // mesh XY routing: |dx|+|dy| both ways
        let m = Mesh2D::for_crossbars(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }
}
