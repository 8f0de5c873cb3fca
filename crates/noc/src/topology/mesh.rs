//! 2-D mesh and torus with dimension-order routing.

use super::{route_hops, Topology};
use neuromap_hw::arch::near_square;

/// Shared Steiner-style multicast-tree builder for the grid fabrics
/// ([`Mesh2D`] and [`Torus`]): a dimension-ordered approximation that
/// merges shared prefix hops before branching.
///
/// The smallest destination router id is the *primary*; its plain
/// dimension-order route (with the topology's unicast VC labels) seeds
/// the tree. Every further destination, in ascending router id order,
/// attaches at the existing tree node `v` with `v.x <= d.x` minimizing
/// the east-then-vertical detour `(d.x - v.x) + |d.y - v.y|` (ties to
/// the smallest node id); the
/// connect path runs east first, then vertically, every hop on the
/// per-destination constant `connect_vc(d)`. A destination with no tree
/// node at or west of it falls back to its full dimension-order route
/// from the source. The construction is a pure function of
/// `(src, dest_routers)` — `BTreeMap` iteration keeps the attach scan
/// deterministic — and every returned path is simple: along a connect
/// path the detour metric strictly decreases, so an interior connect node
/// can never have been a cheaper attach candidate than `v`, hence never a
/// tree node the path could revisit.
///
/// Deadlock-freedom: connect paths only ever step east or vertically
/// (never west, never across a torus wraparound), so on the mesh the
/// realized turns stay inside the west-first turn set, and on the torus
/// (where `connect_vc` keeps connect hops on the upper, wrap-free VC
/// half) the dateline argument of [`Torus::hop_vc`] is preserved —
/// verified over the differential corpus by
/// [`super::check_vc_tree_dependencies`].
fn grid_steiner_routes<T: Topology>(
    topo: &T,
    cols: usize,
    src: usize,
    dest_routers: &[usize],
    vc_count: usize,
    connect_vc: &dyn Fn(usize) -> usize,
) -> Vec<Vec<(usize, usize)>> {
    use std::collections::BTreeMap;
    let coords = |r: usize| (r % cols, r / cols);
    // tree node -> the (simple) hop path from src to it
    let mut tree: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    tree.insert(src, Vec::new());
    let mut uniq: Vec<usize> = dest_routers.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let seed = |tree: &mut BTreeMap<usize, Vec<(usize, usize)>>, d: usize| {
        let mut pref = Vec::new();
        for hop in route_hops(topo, src, d, vc_count) {
            pref.push(hop);
            tree.entry(hop.0).or_insert_with(|| pref.clone());
        }
    };
    if let Some(&primary) = uniq.first() {
        seed(&mut tree, primary);
    }
    for &d in uniq.iter().skip(1) {
        if tree.contains_key(&d) {
            continue; // already on the tree: ride the existing path
        }
        let (dx, dy) = coords(d);
        let mut best: Option<(usize, usize)> = None; // (detour, node)
        for &v in tree.keys() {
            let (vx, vy) = coords(v);
            if vx <= dx {
                let m = (dx - vx) + vy.abs_diff(dy);
                if best.is_none_or(|(bm, _)| m < bm) {
                    best = Some((m, v));
                }
            }
        }
        let Some((_, v)) = best else {
            seed(&mut tree, d); // nothing at or west of d: full root route
            continue;
        };
        let cvc = connect_vc(d);
        let mut pref = tree[&v].clone();
        let (mut cx, mut cy) = coords(v);
        let mut cur = v;
        while cx < dx {
            cur += 1;
            cx += 1;
            pref.push((cur, cvc));
            tree.entry(cur).or_insert_with(|| pref.clone());
        }
        while cy != dy {
            if cy < dy {
                cur += cols;
                cy += 1;
            } else {
                cur -= cols;
                cy -= 1;
            }
            pref.push((cur, cvc));
            tree.entry(cur).or_insert_with(|| pref.clone());
        }
        debug_assert_eq!(cur, d, "connect path must land on the destination");
    }
    dest_routers.iter().map(|&d| tree[&d].clone()).collect()
}

/// A `cols × rows` mesh of routers, one crossbar per router (row-major),
/// XY dimension-order routing (x first, then y) — deadlock-free and
/// deterministic, the NoC-mesh of TrueNorth-class chips.
#[derive(Debug, Clone)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
    num_crossbars: usize,
    neighbors: Vec<Vec<usize>>,
}

impl Mesh2D {
    /// Builds the [`near_square`] mesh for `crossbars` crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars` is zero.
    pub fn for_crossbars(crossbars: usize) -> Self {
        let (cols, rows) = near_square(crossbars);
        Self::grid(cols, rows, crossbars)
    }

    /// Builds an explicit `cols × rows` mesh hosting `crossbars` crossbars
    /// at router ids `0..crossbars` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot host the crossbars or any dimension is 0.
    pub fn grid(cols: usize, rows: usize, crossbars: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be positive");
        assert!(crossbars <= cols * rows, "grid too small for crossbars");
        let n = cols * rows;
        let mut neighbors = vec![Vec::new(); n];
        for y in 0..rows {
            for x in 0..cols {
                let id = y * cols + x;
                if x + 1 < cols {
                    neighbors[id].push(id + 1);
                }
                if x > 0 {
                    neighbors[id].push(id - 1);
                }
                if y + 1 < rows {
                    neighbors[id].push(id + cols);
                }
                if y > 0 {
                    neighbors[id].push(id - cols);
                }
            }
        }
        Self {
            cols,
            rows,
            num_crossbars: crossbars,
            neighbors,
        }
    }

    fn coords(&self, r: usize) -> (usize, usize) {
        (r % self.cols, r / self.cols)
    }
}

impl Topology for Mesh2D {
    fn num_routers(&self) -> usize {
        self.cols * self.rows
    }

    fn num_crossbars(&self) -> usize {
        self.num_crossbars
    }

    fn endpoint(&self, k: u32) -> usize {
        assert!((k as usize) < self.num_crossbars, "crossbar out of range");
        k as usize
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            return r;
        }
        let (x, y) = self.coords(r);
        let (dx, dy) = self.coords(dst);
        // X first, then Y
        if x < dx {
            r + 1
        } else if x > dx {
            r - 1
        } else if y < dy {
            r + self.cols
        } else {
            r - self.cols
        }
    }

    /// Dimension-ordered Steiner approximation (`grid_steiner_routes`).
    /// Connect hops reuse the mesh's destination-spread VC label
    /// (`d % vc_count`), and the realized turns stay inside the west-first
    /// turn set (west hops only on dimension-order prefixes from the
    /// source), so the `(link, vc)` dependency graph stays acyclic for
    /// every `vc_count` — the mesh link graph already is.
    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        let vc_of = |d: usize| if vc_count <= 1 { 0 } else { d % vc_count };
        grid_steiner_routes(self, self.cols, src, dest_routers, vc_count, &vc_of)
    }

    fn name(&self) -> String {
        format!("mesh {}x{}", self.cols, self.rows)
    }
}

/// A `cols × rows` torus (mesh with wraparound links), shortest-direction
/// dimension-order routing.
#[derive(Debug, Clone)]
pub struct Torus {
    cols: usize,
    rows: usize,
    num_crossbars: usize,
    neighbors: Vec<Vec<usize>>,
}

impl Torus {
    /// Builds the [`near_square`] torus for `crossbars` crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars` is zero.
    pub fn for_crossbars(crossbars: usize) -> Self {
        let (cols, rows) = near_square(crossbars);
        Self::grid(cols, rows, crossbars)
    }

    /// Builds an explicit `cols × rows` torus hosting `crossbars`
    /// crossbars at router ids `0..crossbars` (row-major) — degenerate
    /// shapes included (a `L × 1` grid is a plain ring, the minimal
    /// wraparound fabric the deadlock regression tests use).
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot host the crossbars or any dimension is 0.
    pub fn grid(cols: usize, rows: usize, crossbars: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be positive");
        assert!(crossbars <= cols * rows, "grid too small for crossbars");
        let n = cols * rows;
        let mut neighbors = vec![Vec::new(); n];
        for y in 0..rows {
            for x in 0..cols {
                let id = y * cols + x;
                let mut push_unique = |n_id: usize| {
                    if n_id != id && !neighbors[id].contains(&n_id) {
                        neighbors[id].push(n_id);
                    }
                };
                push_unique(y * cols + (x + 1) % cols);
                push_unique(y * cols + (x + cols - 1) % cols);
                push_unique(((y + 1) % rows) * cols + x);
                push_unique(((y + rows - 1) % rows) * cols + x);
            }
        }
        Self {
            cols,
            rows,
            num_crossbars: crossbars,
            neighbors,
        }
    }

    fn coords(&self, r: usize) -> (usize, usize) {
        (r % self.cols, r / self.cols)
    }

    /// Signed step (-1, 0, +1) along one ring of length `len` from `a`
    /// toward `b`, shortest way round (ties go up).
    fn ring_step(a: usize, b: usize, len: usize) -> isize {
        if a == b {
            return 0;
        }
        let fwd = (b + len - a) % len;
        let bwd = (a + len - b) % len;
        if fwd <= bwd {
            1
        } else {
            -1
        }
    }

    /// Whether the remaining route from ring position `pos` to `dpos`
    /// (length-`len` ring, shortest way, ties up) still has the
    /// wraparound link ahead of it — i.e. the packet has not yet crossed
    /// the dateline of this ring and direction.
    fn wrap_ahead(pos: usize, dpos: usize, len: usize) -> bool {
        match Self::ring_step(pos, dpos, len) {
            1 => dpos < pos,  // climbing: wraps iff the target is below
            -1 => dpos > pos, // descending: wraps iff the target is above
            _ => false,
        }
    }
}

impl Topology for Torus {
    fn num_routers(&self) -> usize {
        self.cols * self.rows
    }

    fn num_crossbars(&self) -> usize {
        self.num_crossbars
    }

    fn endpoint(&self, k: u32) -> usize {
        assert!((k as usize) < self.num_crossbars, "crossbar out of range");
        k as usize
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            return r;
        }
        let (x, y) = self.coords(r);
        let (dx, dy) = self.coords(dst);
        let sx = Self::ring_step(x, dx, self.cols);
        if sx != 0 {
            let nx = (x as isize + sx).rem_euclid(self.cols as isize) as usize;
            return y * self.cols + nx;
        }
        let sy = Self::ring_step(y, dy, self.rows);
        let ny = (y as isize + sy).rem_euclid(self.rows as isize) as usize;
        ny * self.cols + x
    }

    /// Dateline VC assignment (see [`crate::router`] for the acyclicity
    /// argument): the VCs split into a lower and an upper half per ring;
    /// a hop rides the lower half while the wraparound link is still
    /// ahead in the current dimension and the upper half afterwards, with
    /// destinations spread across the lanes of each half. The wrap link
    /// is only ever traversed on the lower half, so ordering the channels
    /// lower-half → wrap → upper-half breaks the ring's dependency cycle.
    fn hop_vc(&self, r: usize, dst: usize, vc_count: usize) -> usize {
        if vc_count <= 1 || r == dst {
            return 0;
        }
        let (x, y) = self.coords(r);
        let (dx, dy) = self.coords(dst);
        // dimension-order: resolve x first, then y
        let (pos, dpos, len) = if x != dx {
            (x, dx, self.cols)
        } else {
            (y, dy, self.rows)
        };
        let half = vc_count / 2;
        if Self::wrap_ahead(pos, dpos, len) {
            dst % half
        } else {
            half + dst % (vc_count - half)
        }
    }

    /// Dimension-ordered Steiner approximation (`grid_steiner_routes`)
    /// at two or more VCs; at a single VC the torus degenerates to the
    /// per-destination unicast routes (the trait default), because tree
    /// merging has no wrap-free VC half to put connect hops on — exactly
    /// the regime where single-channel torus routing is deadlock-prone
    /// already. With `vc_count >= 2` the dimension-order prefixes carry
    /// the dateline labels of [`Torus::hop_vc`] and connect paths ride
    /// the upper (never-wrapping) half on non-wrap links only, so wrap
    /// channels remain reachable solely through lower-half
    /// dimension-order chains and the dateline acyclicity argument
    /// survives the tree edges.
    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        if vc_count <= 1 {
            return dest_routers
                .iter()
                .map(|&d| route_hops(self, src, d, vc_count).collect())
                .collect();
        }
        let half = vc_count / 2;
        let connect_vc = |d: usize| half + d % (vc_count - half);
        grid_steiner_routes(self, self.cols, src, dest_routers, vc_count, &connect_vc)
    }

    fn name(&self) -> String {
        format!("torus {}x{}", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_route_follows_xy_order() {
        let m = Mesh2D::grid(3, 3, 9);
        // 0 -> 8 goes X first: next hop is router 1, the +x neighbor
        assert_eq!(m.route_next(0, 8), 1);
        assert!(m.neighbors(0).contains(&1));
        // same column: Y moves next
        assert_eq!(m.route_next(1, 7), 4);
        // arrived: the route stays put
        assert_eq!(m.route_next(4, 4), 4);
    }

    #[test]
    fn mesh_geometry() {
        let m = Mesh2D::for_crossbars(7); // 3x3 grid
        assert_eq!(m.num_routers(), 9);
        assert_eq!(m.num_crossbars(), 7);
    }

    #[test]
    fn mesh_corner_and_center_degree() {
        let m = Mesh2D::grid(3, 3, 9);
        assert_eq!(m.neighbors(0).len(), 2); // corner
        assert_eq!(m.neighbors(4).len(), 4); // center
        assert_eq!(m.neighbors(1).len(), 3); // edge
    }

    #[test]
    fn mesh_xy_route_is_manhattan() {
        let m = Mesh2D::grid(4, 4, 16);
        assert_eq!(m.hops(0, 15), 6);
        // XY: from 0 (0,0) to 15 (3,3): first along x
        assert_eq!(m.route_next(0, 15), 1);
        assert_eq!(m.route_next(3, 15), 7); // x aligned, move y
    }

    #[test]
    fn mesh_route_terminates_at_destination() {
        let m = Mesh2D::grid(4, 2, 8);
        assert_eq!(m.route_next(5, 5), 5);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn mesh_overfull_grid_rejected() {
        let _ = Mesh2D::grid(2, 2, 5);
    }

    #[test]
    fn torus_wraps() {
        let t = Torus::for_crossbars(9); // 3x3
                                         // 0 (0,0) to 2 (2,0): wrap left is 1 hop
        assert_eq!(t.hops(0, 2), 1);
        assert_eq!(t.route_next(0, 2), 2);
    }

    #[test]
    fn torus_shorter_than_mesh_on_opposite_corners() {
        let m = Mesh2D::grid(4, 4, 16);
        let t = Torus::for_crossbars(16);
        assert!(t.hops(0, 15) < m.hops(0, 15));
    }

    #[test]
    fn torus_degree_is_four_for_3x3() {
        let t = Torus::for_crossbars(9);
        for r in 0..9 {
            assert_eq!(t.neighbors(r).len(), 4, "router {r}");
        }
    }

    #[test]
    fn torus_grid_builds_a_plain_ring() {
        let ring = Torus::grid(4, 1, 4);
        assert_eq!(ring.num_routers(), 4);
        assert_eq!(ring.num_crossbars(), 4);
        for r in 0..4 {
            assert_eq!(ring.neighbors(r).len(), 2, "router {r}");
        }
        // wraparound: 3 -> 0 is one hop, and ties go the increasing way
        assert_eq!(ring.route_next(3, 0), 0);
        assert_eq!(ring.route_next(0, 2), 1);
        assert_eq!(ring.hops(0, 3), 1);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn torus_overfull_grid_rejected() {
        let _ = Torus::grid(2, 2, 5);
    }

    #[test]
    fn torus_dateline_vc_is_stateless_and_two_valued_at_two_vcs() {
        let t = Torus::for_crossbars(16);
        for r in 0..16 {
            for dst in 0..16 {
                let vc = t.hop_vc(r, dst, 2);
                assert!(vc < 2);
                assert_eq!(vc, t.hop_vc(r, dst, 2), "must be pure");
            }
        }
        // a hop that still has the wrap ahead rides vc 0: 1 -> 0 going
        // left-to-wrap... 2 -> 0 on the 4-ring row goes +x through the
        // wrap (tie up), so at router 2 toward 0 the wrap is ahead
        let ring = Torus::grid(4, 1, 4);
        assert_eq!(ring.route_next(2, 0), 3);
        assert_eq!(ring.hop_vc(2, 0, 2), 0, "pre-dateline hop rides vc 0");
        // after the wrap (router 0 toward 1) no wrap remains: upper half
        assert_eq!(ring.hop_vc(0, 1, 2), 1);
    }
}
