//! Hierarchical multi-chip fabric: an intra-chip grid topology
//! ([`Mesh2D`] or [`Torus`]) nested inside an inter-chip mesh of chips,
//! joined by slower and narrower chip-boundary links.
//!
//! ## Structure
//!
//! The fabric's shape is a checked [`HierShape`]: chips tile a
//! `chip_cols × chip_rows` grid; every chip carries an identical
//! `intra_cols × intra_rows` router grid. Router ids are chip-major:
//! global router `chip * intra_cols * intra_rows + local`, with chips and
//! locals both numbered row-major. Crossbars are split evenly,
//! chip-major: crossbar `k` sits on chip `k / ⌈C / chips⌉` at local
//! router `k mod ⌈C / chips⌉` ([`HierShape::router_of_crossbar`], the
//! map the multilevel V-cycle's chip level packs by). Adjacent chips are
//! joined by one boundary link per facing row/column (router
//! `(intra_cols - 1, y)` of a chip to router `(0, y)` of its east
//! neighbor, and symmetrically in the vertical dimension), so the union
//! of intra-chip links and boundary links forms one
//! `(chip_cols · intra_cols) × (chip_rows · intra_rows)` global grid.
//!
//! ## Routing and the nesting invariant
//!
//! * **Single chip** — every trait method delegates to the intra-chip
//!   topology verbatim: a 1-chip `HierTopology` routes, labels VCs, and
//!   builds multicast trees byte-identically to the flat [`Mesh2D`] /
//!   [`Torus`] it wraps (differentially pinned in
//!   `tests/hier_properties.rs`).
//! * **Multiple chips** — all traffic routes dimension-ordered (global
//!   X, then global Y) over the global grid. Routes between routers of
//!   the *same* chip stay strictly inside that chip — the **nesting
//!   invariant**: an intra-chip route never traverses a chip boundary.
//!   Torus wraparound links exist as neighbors but are never routed
//!   over in a multi-chip fabric; XY routing on the wrap-free global
//!   grid keeps the `(link, VC)` channel-dependency graph acyclic at
//!   every `vc_count` (memoryless wrap routing on the destination-chip
//!   leg would let a cross-chip packet hand off onto a lower-half wrap
//!   channel and close a seam → wrap → seam dependency cycle).
//!
//! ## Pricing inter-chip hops
//!
//! Chip-boundary links are slower (`link_latency` cycles per hop) and
//! narrower (`link_width` × fewer wires) than intra-chip links, so its
//! [`Topology::distance_lut`] is a **nested weighted [`DistanceLut`]**:
//! intra-chip hops cost 1, each boundary crossing costs
//! [`HierTopology::seam_cost`] (latency × width). The LUT is what
//! `CutHops`, placement, and the joint co-optimization loop consume, so
//! inter-chip traffic is priced as more expensive with no API change
//! upstream.

use super::mesh::{Mesh2D, Torus};
use super::{route_hops, DistanceLut, Topology};
use crate::error::NocError;
use neuromap_hw::arch::HierShape;
use neuromap_hw::HwError;

/// The intra-chip fabric every chip instantiates.
#[derive(Debug, Clone)]
enum IntraFabric {
    Mesh(Mesh2D),
    Torus(Torus),
}

impl IntraFabric {
    fn topo(&self) -> &dyn Topology {
        match self {
            IntraFabric::Mesh(m) => m,
            IntraFabric::Torus(t) => t,
        }
    }
}

/// A hierarchical multi-chip topology: a grid of chips, each an
/// identical intra-chip [`Mesh2D`] or [`Torus`], joined by per-row/
/// per-column chip-boundary links that are slower and narrower than the
/// on-chip links. See the module docs for the crossbar layout, the
/// routing model, the nesting invariant, and the weighted distance
/// table.
#[derive(Debug, Clone)]
pub struct HierTopology {
    shape: HierShape,
    /// Routers per chip (`intra_cols * intra_rows`).
    nr_intra: usize,
    intra: IntraFabric,
    /// Precomputed per-router neighbor lists: the intra-chip neighbors
    /// first (in the intra topology's own order, mapped to global ids —
    /// what keeps 1-chip egress ports byte-identical to the flat
    /// fabric), then any boundary links in fixed +x, -x, +y, -y order.
    neighbors: Vec<Vec<usize>>,
}

/// The shape's refusal as the fabric's error, naming the same field.
fn invalid_config(e: HwError) -> NocError {
    match e {
        HwError::InvalidParameter { name, value } => NocError::InvalidConfig { name, value },
        other => NocError::InvalidConfig {
            name: "hier",
            value: other.to_string(),
        },
    }
}

impl HierTopology {
    /// Builds a `chip_cols × chip_rows` fabric of mesh chips, each an
    /// `intra_cols × intra_rows` [`Mesh2D`], hosting `crossbars`
    /// crossbars split evenly over the chips (see the module docs).
    ///
    /// `link_latency` is the cycle cost multiplier of one chip-boundary
    /// hop and `link_width` the link-width ratio (on-chip width over
    /// boundary width); both must be ≥ 1 and both inflate the weighted
    /// distance table ([`HierTopology::seam_cost`]).
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] naming the field
    /// [`HierShape::with_intra_grid`] refuses: a zero chip/intra
    /// dimension, a zero-latency or zero-width boundary link, a chip
    /// grid too small for `crossbars`, or a weighted diameter
    /// overflowing `u32` (hop-latency overflow on deep hierarchies).
    pub fn mesh(
        chip_cols: usize,
        chip_rows: usize,
        intra_cols: usize,
        intra_rows: usize,
        crossbars: usize,
        link_latency: u32,
        link_width: u32,
    ) -> Result<Self, NocError> {
        let shape = HierShape::with_intra_grid(
            crossbars,
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            link_latency,
            link_width,
        );
        Ok(Self::build(shape.map_err(invalid_config)?, false))
    }

    /// Like [`HierTopology::mesh`], but every chip is an intra-chip
    /// [`Torus`]. In a multi-chip fabric the wraparound links exist as
    /// neighbors but routing never uses them (see the module docs); a
    /// 1-chip instance behaves exactly like the flat [`Torus`],
    /// including its `vc_count ≥ 2` dateline requirement.
    ///
    /// # Errors
    ///
    /// Same domain checks as [`HierTopology::mesh`].
    pub fn torus(
        chip_cols: usize,
        chip_rows: usize,
        intra_cols: usize,
        intra_rows: usize,
        crossbars: usize,
        link_latency: u32,
        link_width: u32,
    ) -> Result<Self, NocError> {
        let shape = HierShape::with_intra_grid(
            crossbars,
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            link_latency,
            link_width,
        );
        Ok(Self::build(shape.map_err(invalid_config)?, true))
    }

    /// Builds the mesh-chip fabric of an `InterconnectKind::Hier`
    /// descriptor: `crossbars` crossbars split evenly across a
    /// `chip_cols × chip_rows` chip grid, `⌈crossbars / chips⌉` per chip
    /// (so only the last chips can hold fewer), each chip the
    /// near-square mesh for its share ([`HierShape::new`]; the rule
    /// [`Mesh2D::for_crossbars`] applies to a flat mesh).
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] naming the field [`HierShape::new`]
    /// refuses, on exactly the descriptors `Architecture::custom`
    /// refuses.
    pub fn for_crossbars(
        crossbars: usize,
        chip_cols: usize,
        chip_rows: usize,
        link_latency: u32,
        link_width: u32,
    ) -> Result<Self, NocError> {
        let shape = HierShape::new(crossbars, chip_cols, chip_rows, link_latency, link_width);
        Ok(Self::build(shape.map_err(invalid_config)?, false))
    }

    fn build(shape: HierShape, torus: bool) -> Self {
        let ((chip_cols, chip_rows), (intra_cols, intra_rows)) =
            (shape.chip_grid(), shape.intra_grid());
        let nr_intra = intra_cols * intra_rows;
        let intra = if torus {
            IntraFabric::Torus(Torus::grid(intra_cols, intra_rows, nr_intra))
        } else {
            IntraFabric::Mesh(Mesh2D::grid(intra_cols, intra_rows, nr_intra))
        };
        let mut neighbors = vec![Vec::new(); chip_cols * chip_rows * nr_intra];
        for chip in 0..chip_cols * chip_rows {
            let (cx, cy) = (chip % chip_cols, chip / chip_cols);
            let base = chip * nr_intra;
            for local in 0..nr_intra {
                let g = base + local;
                let (lx, ly) = (local % intra_cols, local / intra_cols);
                // intra links first, in the intra topology's own order
                for &ln in intra.topo().neighbors(local) {
                    neighbors[g].push(base + ln);
                }
                // then boundary links, +x, -x, +y, -y
                if lx + 1 == intra_cols && cx + 1 < chip_cols {
                    neighbors[g].push((chip + 1) * nr_intra + ly * intra_cols);
                }
                if lx == 0 && cx > 0 {
                    neighbors[g].push((chip - 1) * nr_intra + ly * intra_cols + (intra_cols - 1));
                }
                if ly + 1 == intra_rows && cy + 1 < chip_rows {
                    neighbors[g].push((chip + chip_cols) * nr_intra + lx);
                }
                if ly == 0 && cy > 0 {
                    neighbors[g]
                        .push((chip - chip_cols) * nr_intra + (intra_rows - 1) * intra_cols + lx);
                }
            }
        }
        Self {
            shape,
            nr_intra,
            intra,
            neighbors,
        }
    }

    /// Number of chips in the fabric.
    pub fn num_chips(&self) -> usize {
        let (cols, rows) = self.shape.chip_grid();
        cols * rows
    }

    /// Chip hosting router `r` (chip-major id layout).
    pub fn chip_of_router(&self, r: usize) -> usize {
        r / self.nr_intra
    }

    /// Effective cost of one chip-boundary hop in the weighted distance
    /// table ([`HierShape::seam_cost`]).
    pub fn seam_cost(&self) -> u64 {
        self.shape.seam_cost()
    }

    fn single_chip(&self) -> bool {
        self.num_chips() == 1
    }

    /// Router `r`'s global grid coordinates and its chip's coordinates:
    /// `[x, y, chip column, chip row]`.
    fn position(&self, r: usize) -> [usize; 4] {
        let ((chip_cols, _), (cols, rows)) = (self.shape.chip_grid(), self.shape.intra_grid());
        let (chip, local) = (r / self.nr_intra, r % self.nr_intra);
        let (cx, cy) = (chip % chip_cols, chip / chip_cols);
        let (lx, ly) = (local % cols, local / cols);
        [cx * cols + lx, cy * rows + ly, cx, cy]
    }

    /// Router id at global grid coordinates `(x, y)`.
    fn router_at(&self, x: usize, y: usize) -> usize {
        let ((chip_cols, _), (cols, rows)) = (self.shape.chip_grid(), self.shape.intra_grid());
        (y / rows * chip_cols + x / cols) * self.nr_intra + y % rows * cols + x % cols
    }
}

impl Topology for HierTopology {
    fn num_routers(&self) -> usize {
        self.num_chips() * self.nr_intra
    }

    fn num_crossbars(&self) -> usize {
        self.shape.num_crossbars()
    }

    fn endpoint(&self, k: u32) -> usize {
        assert!(
            (k as usize) < self.shape.num_crossbars(),
            "crossbar out of range"
        );
        self.shape.router_of_crossbar(k as usize)
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            return r;
        }
        if self.single_chip() {
            return self.intra.topo().route_next(r, dst);
        }
        let [x, y, ..] = self.position(r);
        let [dx, dy, ..] = self.position(dst);
        // dimension-ordered over the global grid, wrap-free: X then Y
        if x < dx {
            self.router_at(x + 1, y)
        } else if x > dx {
            self.router_at(x - 1, y)
        } else if y < dy {
            self.router_at(x, y + 1)
        } else {
            self.router_at(x, y - 1)
        }
    }

    fn hop_vc(&self, r: usize, dst: usize, vc_count: usize) -> usize {
        if self.single_chip() {
            return self.intra.topo().hop_vc(r, dst, vc_count);
        }
        // multi-chip routing is XY on a wrap-free grid: the link graph
        // restricted to routed links is acyclic under any VC labeling,
        // so spread destinations like the flat mesh does
        if vc_count <= 1 {
            0
        } else {
            dst % vc_count
        }
    }

    fn multicast_route(
        &self,
        src: usize,
        dest_routers: &[usize],
        vc_count: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        if self.single_chip() {
            return self
                .intra
                .topo()
                .multicast_route(src, dest_routers, vc_count);
        }
        // multi-chip: per-destination dimension-ordered walks (the
        // trait-default shape); the engines still merge shared
        // (egress port, VC) prefixes into one packet per branch
        dest_routers
            .iter()
            .map(|&d| route_hops(self, src, d, vc_count).collect())
            .collect()
    }

    /// The nested weighted distance table: every crossbar pair priced
    /// between its endpoint routers, intra-chip hops at 1 and
    /// chip-boundary hops at [`HierTopology::seam_cost`], so `CutHops`,
    /// placement, and co-optimization see inter-chip hops as that much
    /// dearer than on-chip hops. It matches the dimension-ordered routes
    /// exactly: a straight global walk crosses `|Δchip|` boundaries per
    /// dimension. A 1-chip fabric gets the BFS table, which is the flat
    /// intra topology's. A plain BFS on a multi-chip fabric would price
    /// every link at 1 and (with torus chips) follow wrap links the
    /// multi-chip routes never take.
    fn distance_lut(&self) -> DistanceLut {
        if self.single_chip() {
            return DistanceLut::new(self);
        }
        // below the weighted diameter `HierShape` bounds by `u32::MAX`
        let seam = u32::try_from(self.seam_cost()).expect("a crossed seam fits the diameter");
        // each endpoint's position once, so the all-pairs fill divides
        // nothing (left to inlining, its speed swung by half from build
        // to build)
        let nc = self.shape.num_crossbars();
        let at: Vec<[usize; 4]> = (0..nc as u32)
            .map(|k| self.position(self.endpoint(k)))
            .collect();
        DistanceLut::from_fn(nc, |a, b| {
            let (a, b) = (at[a], at[b]);
            let seams = (a[2].abs_diff(b[2]) + a[3].abs_diff(b[3])) as u32;
            let hops = (a[0].abs_diff(b[0]) + a[1].abs_diff(b[1])) as u32;
            hops - seams + seams * seam
        })
    }

    fn name(&self) -> String {
        let (cols, rows) = self.shape.chip_grid();
        format!("hier {cols}x{rows} chips of {}", self.intra.topo().name())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_routes, check_vc_channel_dependencies};
    use super::*;

    #[test]
    fn construction_rejects_degenerate_parameters() {
        let invalid = |r: Result<HierTopology, NocError>, field: &str| match r {
            Err(NocError::InvalidConfig { name, .. }) => {
                assert_eq!(name, field, "wrong field blamed")
            }
            other => panic!("expected InvalidConfig for {field}, got {other:?}"),
        };
        invalid(HierTopology::mesh(0, 1, 4, 4, 16, 1, 1), "chip_grid");
        invalid(HierTopology::mesh(2, 2, 0, 4, 16, 1, 1), "intra_grid");
        invalid(HierTopology::mesh(2, 2, 4, 4, 0, 1, 1), "num_crossbars");
        invalid(HierTopology::mesh(2, 2, 4, 4, 16, 0, 1), "link_latency");
        invalid(HierTopology::mesh(2, 2, 4, 4, 16, 1, 0), "link_width");
        // chip grid too small for the crossbars
        invalid(HierTopology::mesh(2, 2, 2, 2, 17, 1, 1), "num_crossbars");
        invalid(HierTopology::for_crossbars(0, 2, 2, 1, 1), "num_crossbars");
        // weighted diameter past the u32 distance table
        invalid(
            HierTopology::mesh(1000, 1000, 2, 2, 16, u32::MAX, 2),
            "link_latency",
        );
        // four seams of 2^62 wrap a u64 product to 0
        invalid(
            HierTopology::mesh(5, 1, 1, 1, 5, 1 << 31, 1 << 31),
            "link_latency",
        );
    }

    #[test]
    fn one_chip_seam_cost_does_not_wrap() {
        // one chip crosses no seam, so any seam cost is a valid fabric
        let t = HierTopology::for_crossbars(16, 1, 1, u32::MAX, u32::MAX).unwrap();
        assert_eq!(t.seam_cost(), u64::from(u32::MAX) * u64::from(u32::MAX));
    }

    #[test]
    fn crossbars_fill_chips_evenly() {
        // 20 crossbars over 2 x 2 chips of 3 x 2 routers: five per chip,
        // at local routers 0..5, router 5 of each chip empty
        let t = HierTopology::for_crossbars(20, 2, 2, 1, 1).unwrap();
        assert_eq!(t.num_routers(), 24);
        let endpoints: Vec<usize> = (0..20).map(|k| t.endpoint(k)).collect();
        let expected: Vec<usize> = (0..4).flat_map(|chip| chip * 6..chip * 6 + 5).collect();
        assert_eq!(endpoints, expected);
        // seams at cost 1: the weighted table is the endpoints' hop count
        let lut = t.distance_lut();
        for a in 0..20u32 {
            for b in 0..20u32 {
                assert_eq!(lut.hops(a, b), t.hops(t.endpoint(a), t.endpoint(b)));
            }
        }
    }

    #[test]
    fn single_chip_delegates_to_flat_topologies() {
        let flat_mesh = Mesh2D::grid(4, 4, 16);
        let hm = HierTopology::mesh(1, 1, 4, 4, 16, 3, 2).unwrap();
        let flat_torus = Torus::grid(4, 4, 16);
        let ht = HierTopology::torus(1, 1, 4, 4, 16, 3, 2).unwrap();
        for r in 0..16 {
            assert_eq!(hm.neighbors(r), flat_mesh.neighbors(r), "mesh nbrs {r}");
            assert_eq!(ht.neighbors(r), flat_torus.neighbors(r), "torus nbrs {r}");
            for dst in 0..16 {
                assert_eq!(hm.route_next(r, dst), flat_mesh.route_next(r, dst));
                assert_eq!(ht.route_next(r, dst), flat_torus.route_next(r, dst));
                assert_eq!(hm.hops(r, dst), flat_mesh.hops(r, dst));
                assert_eq!(ht.hops(r, dst), flat_torus.hops(r, dst));
                for vc in 1..=4usize {
                    assert_eq!(hm.hop_vc(r, dst, vc), flat_mesh.hop_vc(r, dst, vc));
                    assert_eq!(ht.hop_vc(r, dst, vc), flat_torus.hop_vc(r, dst, vc));
                }
            }
        }
        // multicast trees delegate too
        let dests = vec![3usize, 12, 7, 7];
        assert_eq!(
            hm.multicast_route(0, &dests, 2),
            flat_mesh.multicast_route(0, &dests, 2)
        );
        assert_eq!(
            ht.multicast_route(0, &dests, 4),
            flat_torus.multicast_route(0, &dests, 4)
        );
        // and the 1-chip weighted LUT is the flat BFS LUT
        let flat_lut = DistanceLut::new(&flat_torus);
        let hier_lut = ht.distance_lut();
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert_eq!(hier_lut.hops(a, b), flat_lut.hops(a, b));
            }
        }
    }

    #[test]
    fn multi_chip_routes_are_consistent_and_acyclic() {
        for topo in [
            HierTopology::mesh(2, 2, 4, 4, 64, 4, 2).unwrap(),
            HierTopology::mesh(3, 1, 2, 3, 18, 2, 1).unwrap(),
            HierTopology::torus(2, 2, 4, 4, 64, 4, 2).unwrap(),
            HierTopology::torus(1, 2, 3, 3, 18, 2, 1).unwrap(),
        ] {
            check_routes(&topo).unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
            // wrap-free XY: acyclic at every vc_count, including 1
            for vc in 1..=4usize {
                check_vc_channel_dependencies(&topo, vc)
                    .unwrap_or_else(|e| panic!("{} vc={vc}: {e}", topo.name()));
            }
            // no parallel links: the port toward a next hop is unique
            for r in 0..topo.num_routers() {
                let nbrs = topo.neighbors(r);
                for (i, n) in nbrs.iter().enumerate() {
                    assert!(
                        !nbrs[..i].contains(n),
                        "{}: {r} lists {n} twice",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn multi_chip_geometry_and_closed_forms() {
        let t = HierTopology::mesh(2, 2, 4, 4, 64, 4, 2).unwrap();
        assert_eq!(t.num_routers(), 64);
        assert_eq!(t.num_crossbars(), 64);
        assert_eq!(t.num_chips(), 4);
        assert_eq!(t.chip_of_router(17), 1);
        assert_eq!(t.chip_of_router(48), 3);
        assert_eq!(t.seam_cost(), 8);
        assert!(t.name().starts_with("hier 2x2 chips of mesh"));
        // router 0 is chip 0 (0,0); router 16+3 = chip 1 local (3,0) is
        // global (7,0): 7 x-hops, one of them the seam
        assert_eq!(t.hops(0, 19), 7);
        assert_eq!(t.distance_lut().hops(0, 19), 6 + 8);
        // same chip: plain Manhattan, no seam pricing
        assert_eq!(t.distance_lut().hops(0, 5), t.hops(0, 5));
        // routes walk exactly hops() steps
        let mut cur = 0usize;
        let mut steps = 0;
        while cur != 19 {
            cur = t.route_next(cur, 19);
            steps += 1;
        }
        assert_eq!(steps, 7);
    }

    #[test]
    fn weighted_lut_is_symmetric_and_dominates_hops() {
        let t = HierTopology::torus(2, 2, 3, 3, 36, 3, 2).unwrap();
        let lut = t.distance_lut();
        for a in 0..36u32 {
            assert_eq!(lut.hops(a, a), 0);
            for b in 0..36u32 {
                assert_eq!(lut.hops(a, b), lut.hops(b, a), "{a}<->{b}");
                assert!(lut.hops(a, b) >= t.hops(a as usize, b as usize), "{a}->{b}");
            }
        }
    }

    #[test]
    fn multi_chip_torus_never_routes_over_wrap_links() {
        // nesting invariant corollary: every routed hop moves to a
        // globally adjacent coordinate (wrap links jump further)
        let t = HierTopology::torus(2, 1, 4, 4, 32, 2, 1).unwrap();
        for src in 0..32usize {
            for dst in 0..32usize {
                let mut cur = src;
                while cur != dst {
                    let next = t.route_next(cur, dst);
                    let [x0, y0, ..] = t.position(cur);
                    let [x1, y1, ..] = t.position(next);
                    assert_eq!(
                        x0.abs_diff(x1) + y0.abs_diff(y1),
                        1,
                        "non-adjacent hop {cur}->{next} on {src}->{dst}"
                    );
                    cur = next;
                }
            }
        }
    }
}
