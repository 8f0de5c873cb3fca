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
    /// [`crate::NocError::InvalidConfig`] `{ name: "multicast_route" }`.
    /// Implementations must uphold two invariants:
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
    /// A unicast route that stalls ([`Topology::route_next`] returns the
    /// router it was asked about) or loops yields the hops walked until
    /// then — at most [`Topology::num_routers`] — so its path ends off
    /// the destination and the run fails with the error above instead of
    /// panicking or spinning. [`Mesh2D`] and [`Torus`] override with
    /// dimension-ordered approximations that merge shared prefix hops
    /// before branching.
    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        dest_routers
            .iter()
            .map(|&d| route_hops(self, src, d, vc_count).collect())
            .collect()
    }

    /// Hop count of the deterministic route between two routers: the
    /// length of the [`Topology::route_next`] walk.
    ///
    /// # Panics
    ///
    /// Panics if the route stalls or loops ([`check_routes`] says which).
    fn hops(&self, from: usize, to: usize) -> u32 {
        let (mut cur, mut n) = (from, 0);
        for (next, _) in route_hops(self, from, to, 1) {
            (cur, n) = (next, n + 1);
        }
        assert_eq!(cur, to, "route from {from} to {to} stops at router {cur}");
        n
    }

    /// The hop-distance table the mapping stages price this fabric by —
    /// `CutHops`, placement and the joint loop all read it. The default
    /// is [`DistanceLut::new`] (BFS, every link one hop);
    /// [`HierTopology`] overrides it with its seam-weighted table.
    fn distance_lut(&self) -> DistanceLut {
        DistanceLut::new(self)
    }

    /// A short human-readable name ("mesh 4x4", "tree arity 4", ...).
    fn name(&self) -> String;
}

/// The unicast route from router `src` toward `dst` as its
/// `(next router, VC)` hops — VC 0 at one VC, else
/// [`Topology::hop_vc`]. The walk stops at `dst`, at a stall
/// (`route_next` returns the router it was asked about), or after
/// `num_routers()` hops, whichever comes first, so it always ends;
/// whether it arrived is the caller's to check (the last hop is `dst`,
/// or `src == dst`).
pub(crate) fn route_hops<T: Topology + ?Sized>(
    topo: &T,
    src: usize,
    dst: usize,
    vc_count: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut cur = src;
    let mut left = topo.num_routers();
    std::iter::from_fn(move || {
        if cur == dst || left == 0 {
            return None;
        }
        let next = topo.route_next(cur, dst);
        if next == cur {
            return None;
        }
        let vc = if vc_count <= 1 {
            0
        } else {
            topo.hop_vc(cur, dst, vc_count)
        };
        (cur, left) = (next, left - 1);
        Some((next, vc))
    })
}

/// Precomputed hop distances between a [`Topology`]'s crossbars.
///
/// The placement stage of the mapping pipeline prices every candidate
/// cluster→crossbar permutation by hop-weighted packet counts; walking
/// [`Topology::route_next`] per query (or even calling the virtual
/// [`Topology::hops`]) inside those inner loops would dominate the
/// optimizer. A `DistanceLut` is only the crossbar-level
/// `endpoint(k1) → endpoint(k2)` matrix, row-major for the evaluators'
/// hot loops, built **once** per topology and shared across sweep
/// points. [`DistanceLut::new`] fills it with one BFS per crossbar
/// endpoint into a reused router row (`O(C · (R + links))`). The table a
/// mapping stage should use is the fabric's own,
/// [`Topology::distance_lut`]: this one, except on multi-chip
/// [`HierTopology`] fabrics, which price chip-boundary hops by seam cost.
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
    nc: usize,
    /// `crossbar_hops[k1 * nc + k2]` — hops between crossbar endpoints.
    crossbar_hops: Vec<u32>,
}

impl DistanceLut {
    /// Runs a BFS from every crossbar's router and keeps the distances to
    /// the other crossbars' routers.
    ///
    /// # Panics
    ///
    /// Panics if some crossbar's router cannot reach every router over
    /// the neighbor links (every shipped topology is connected; a
    /// disconnected custom one cannot route anyway).
    pub fn new<T: Topology + ?Sized>(topo: &T) -> Self {
        let nr = topo.num_routers();
        let nc = topo.num_crossbars();
        let endpoints: Vec<usize> = (0..nc as u32).map(|k| topo.endpoint(k)).collect();
        let mut crossbar_hops = Vec::with_capacity(nc * nc);
        let mut row = vec![u32::MAX; nr];
        let mut queue = std::collections::VecDeque::with_capacity(nr);
        for &src in &endpoints {
            row.fill(u32::MAX);
            row[src] = 0;
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
            crossbar_hops.extend(endpoints.iter().map(|&e| row[e]));
        }
        Self { nc, crossbar_hops }
    }

    /// The table with `hops(k1, k2)` for every crossbar pair, filled row
    /// by row.
    fn from_fn(nc: usize, mut hops: impl FnMut(usize, usize) -> u32) -> Self {
        let mut crossbar_hops = Vec::with_capacity(nc * nc);
        for k1 in 0..nc {
            crossbar_hops.extend((0..nc).map(|k2| hops(k1, k2)));
        }
        Self { nc, crossbar_hops }
    }

    /// Number of crossbars covered.
    pub fn num_crossbars(&self) -> usize {
        self.nc
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
    /// each placement refresh.
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
        DistanceLut::from_fn(nc, |k1, k2| self.hops(perm[k1], perm[k2]))
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
            let route = route_hops(topo, from, to, 1);
            check_path(topo, 1, from, to, route, |_, _, _| ())?;
        }
    }
    Ok(())
}

/// Checks that `path`, `(next router, VC)` hops from router `src`, steps
/// over `(link, VC)`s of the fabric at `vc_count` VCs and ends at `dst`
/// (a `route_hops` walk stops short at a stall or a loop), handing
/// every channel `(from, to, vc)` it holds to `on_hop` in order.
fn check_path(
    topo: &dyn Topology,
    vc_count: usize,
    src: usize,
    dst: usize,
    path: impl IntoIterator<Item = (usize, usize)>,
    mut on_hop: impl FnMut(usize, usize, usize),
) -> Result<(), String> {
    let mut cur = src;
    for (next, vc) in path {
        if vc >= vc_count || !topo.neighbors(cur).contains(&next) {
            return Err(format!(
                "route {src}->{dst} steps {cur}->{next} on vc {vc}, \
                 not a (link, vc) of the fabric at {vc_count} VCs"
            ));
        }
        on_hop(cur, next, vc);
        cur = next;
    }
    if cur == dst {
        Ok(())
    } else {
        Err(format!("route {src}->{dst} stops at {cur}"))
    }
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
/// Returns a description naming one channel on a dependency cycle, or
/// the first route that is not a walk over `(link, VC)`s to its
/// destination (as [`check_routes`] names it).
pub fn check_vc_channel_dependencies(topo: &dyn Topology, vc_count: usize) -> Result<(), String> {
    let mut deps = ChannelDeps::default();
    deps.add_unicast_routes(topo, vc_count)?;
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
/// Returns a description naming one channel on a dependency cycle, the
/// first unicast route that is not a walk over `(link, VC)`s to its
/// destination, or the first tree path that is not one.
pub fn check_vc_tree_dependencies(
    topo: &dyn Topology,
    vc_count: usize,
    groups: &[(usize, Vec<usize>)],
) -> Result<(), String> {
    let mut deps = ChannelDeps::default();
    deps.add_unicast_routes(topo, vc_count)?;
    for (src, dests) in groups {
        let paths = topo.multicast_route(*src, dests, vc_count);
        if paths.len() != dests.len() {
            return Err(format!(
                "tree from {src}: {} paths for {} destinations",
                paths.len(),
                dests.len()
            ));
        }
        for (path, &d) in paths.into_iter().zip(dests) {
            deps.add_path(topo, vc_count, *src, d, path)?;
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

    fn add_unicast_routes(&mut self, topo: &dyn Topology, vc_count: usize) -> Result<(), String> {
        let nr = topo.num_routers();
        for src in 0..nr {
            for dst in 0..nr {
                let route = route_hops(topo, src, dst, vc_count);
                self.add_path(topo, vc_count, src, dst, route)?;
            }
        }
        Ok(())
    }

    /// Adds the channels of one `check_path`-checked path from `src` to
    /// `dst` and the hold-then-request edges between consecutive ones.
    fn add_path(
        &mut self,
        topo: &dyn Topology,
        vc_count: usize,
        src: usize,
        dst: usize,
        path: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), String> {
        let mut prev: Option<usize> = None;
        check_path(topo, vc_count, src, dst, path, |from, to, vc| {
            let id = self.channel(from, to, vc);
            if let Some(p) = prev {
                self.edges.insert((p, id));
            }
            prev = Some(id);
        })
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
pub(crate) mod tests {
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
        // counts for all crossbar pairs
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
            let lut = t.distance_lut();
            assert_eq!(lut.num_crossbars(), t.num_crossbars(), "{}", t.name());
            for k1 in 0..t.num_crossbars() as u32 {
                for k2 in 0..t.num_crossbars() as u32 {
                    assert_eq!(
                        lut.hops(k1, k2),
                        t.hops(t.endpoint(k1), t.endpoint(k2)),
                        "{}: crossbars {k1}->{k2}",
                        t.name()
                    );
                    assert_eq!(
                        lut.hops(k1, k2),
                        lut.hops(k2, k1),
                        "{}: BFS distances must be symmetric",
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
        // every router hosts a crossbar here, so the crossbar table covers
        // every router pair
        // mesh: Manhattan distance |dx| + |dy|
        let lut = Mesh2D::grid(5, 4, 20).distance_lut();
        for a in 0..20u32 {
            for b in 0..20u32 {
                let (xa, ya) = (a % 5, a / 5);
                let (xb, yb) = (b % 5, b / 5);
                assert_eq!(
                    lut.hops(a, b),
                    xa.abs_diff(xb) + ya.abs_diff(yb),
                    "mesh {a}->{b}"
                );
            }
        }
        // torus: per-dimension ring distance min(|d|, len - |d|)
        let lut = Torus::for_crossbars(16).distance_lut(); // 4x4
        let ring = |a: u32, b: u32, len: u32| a.abs_diff(b).min(len - a.abs_diff(b));
        for a in 0..16u32 {
            for b in 0..16u32 {
                let (xa, ya) = (a % 4, a / 4);
                let (xb, yb) = (b % 4, b / 4);
                assert_eq!(
                    lut.hops(a, b),
                    ring(xa, xb, 4) + ring(ya, yb, 4),
                    "torus {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn route_walk_arrives_in_hops_and_is_the_single_destination_tree() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(7)),
            Box::new(Mesh2D::grid(4, 3, 12)),
            Box::new(Torus::for_crossbars(16)),
            Box::new(Torus::grid(5, 1, 5)), // a ring
            Box::new(NocTree::new(9, 3)),
            Box::new(NocTree::new(13, 2)),
            Box::new(Star::new(6)),
            Box::new(PointToPoint::new(5)),
            Box::new(HierTopology::mesh(1, 1, 3, 3, 9, 3, 2).unwrap()),
            Box::new(HierTopology::torus(1, 1, 4, 4, 16, 3, 2).unwrap()),
            Box::new(HierTopology::mesh(2, 2, 3, 3, 36, 3, 2).unwrap()),
            Box::new(HierTopology::torus(2, 2, 3, 3, 36, 3, 2).unwrap()),
        ];
        for t in &topos {
            let nr = t.num_routers();
            for vcs in 1..=4usize {
                for (src, dst) in (0..nr).flat_map(|s| (0..nr).map(move |d| (s, d))) {
                    let at = format!("{} {src}->{dst} at {vcs} VCs", t.name());
                    let walk: Vec<(usize, usize)> = route_hops(t.as_ref(), src, dst, vcs).collect();
                    let mut cur = src;
                    for &(next, vc) in &walk {
                        assert!(t.neighbors(cur).contains(&next), "{at}: {cur}->{next}");
                        assert!(vc < vcs, "{at}: vc {vc}");
                        cur = next;
                    }
                    assert_eq!(cur, dst, "{at}: walk stops short");
                    assert_eq!(walk.len() as u32, t.hops(src, dst), "{at}");
                    assert_eq!(t.multicast_route(src, &[dst], vcs), [walk], "{at}");
                }
            }
        }
    }

    /// A mesh with some unicast next hops replaced: `.1(r, dst)`, where it
    /// answers, overrides the mesh's `route_next`.
    pub(crate) struct ReroutedMesh(pub(crate) Mesh2D, pub(crate) Reroute);

    /// Where it answers, the next hop of a [`ReroutedMesh`].
    pub(crate) type Reroute = fn(usize, usize) -> Option<usize>;

    /// Toward router 2, routers 0 and 1 send the packet to each other.
    pub(crate) const BOUNCE: Reroute = |r, dst| (dst == 2 && r < 2).then(|| 1 - r);

    /// Every router keeps the packet.
    pub(crate) const STALL: Reroute = |r, _| Some(r);

    impl Topology for ReroutedMesh {
        fn num_routers(&self) -> usize {
            self.0.num_routers()
        }
        fn num_crossbars(&self) -> usize {
            self.0.num_crossbars()
        }
        fn endpoint(&self, k: u32) -> usize {
            self.0.endpoint(k)
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            self.0.neighbors(r)
        }
        fn route_next(&self, r: usize, dst: usize) -> usize {
            (self.1)(r, dst).unwrap_or_else(|| self.0.route_next(r, dst))
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    #[test]
    fn looping_and_stalling_routes_are_errors_from_every_check() {
        // the dependency checks used to spin forever on both routes and
        // the tree check to panic in the default `multicast_route`; each
        // check runs on its own thread with a bounded wait, so a
        // regression fails here instead of hanging
        type Check = fn(&dyn Topology) -> Result<(), String>;
        let checks: [(&str, Check); 3] = [
            ("check_routes", check_routes),
            ("check_vc_channel_dependencies", |t| {
                check_vc_channel_dependencies(t, 2)
            }),
            ("check_vc_tree_dependencies", |t| {
                check_vc_tree_dependencies(t, 2, &[(0, vec![2, 8])])
            }),
        ];
        for (reroute, route) in [(BOUNCE, "route 0->2"), (STALL, "route 0->1")] {
            for (name, check) in checks {
                let (tx, rx) = std::sync::mpsc::channel();
                let worker = std::thread::spawn(move || {
                    let _ = tx.send(check(&ReroutedMesh(Mesh2D::for_crossbars(9), reroute)));
                });
                // a hung worker is left behind: joining it would hang too
                let outcome = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|e| panic!("{name} on {route}: hung or panicked ({e})"));
                worker.join().expect("the worker returns once it has sent");
                let e = outcome.expect_err(name);
                assert!(e.contains(route), "{name}: {e}");
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
