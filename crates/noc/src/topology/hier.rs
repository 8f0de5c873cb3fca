//! Hierarchical multi-chip fabric: an intra-chip grid topology
//! ([`Mesh2D`] or [`Torus`]) nested inside an inter-chip mesh of chips,
//! joined by slower and narrower chip-boundary links.
//!
//! ## Structure
//!
//! Chips tile a `chip_cols × chip_rows` grid; every chip carries an
//! identical `intra_cols × intra_rows` router grid. Router ids are
//! chip-major: global router `chip * intra_cols * intra_rows + local`,
//! with chips and locals both numbered row-major. Adjacent chips are
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
//! narrower (`link_width_divisor` × fewer wires) than intra-chip links,
//! so its [`Topology::distance_lut`] is a **nested weighted
//! [`DistanceLut`]**: intra-chip hops cost 1, each boundary crossing
//! costs [`HierTopology::seam_cost`] (latency × width divisor). The LUT
//! is what `CutHops`, placement, and the joint co-optimization loop
//! consume, so inter-chip traffic is priced as more expensive with no
//! API change upstream.
//!
//! ## Evaluator envelope
//!
//! Multi-chip scenarios routinely exceed the 256-crossbar byte-tile
//! ceiling. The batched swarm evaluator covers `CutSpikes` and
//! `CutPackets` on **u16 lanes** up to
//! `core::eval::TILE16_MAX_CROSSBARS` (1024) crossbars; `CutHops`
//! leaves the tiles past 256 crossbars (or on a table with a distance
//! past `u16::MAX`) for the scalar reference kernel — which is what a
//! 4-chip, 1024-crossbar fabric runs under `CutHops`.

use super::mesh::{Mesh2D, Torus};
use super::{route_hops, DistanceLut, Topology};
use crate::error::NocError;

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
/// on-chip links. See the module docs for the routing model, the
/// nesting invariant, and the weighted distance table.
#[derive(Debug, Clone)]
pub struct HierTopology {
    chip_cols: usize,
    chip_rows: usize,
    intra_cols: usize,
    intra_rows: usize,
    /// Routers per chip (`intra_cols * intra_rows`).
    nr_intra: usize,
    num_crossbars: usize,
    link_latency: u32,
    link_width_divisor: u32,
    intra: IntraFabric,
    /// Precomputed per-router neighbor lists: the intra-chip neighbors
    /// first (in the intra topology's own order, mapped to global ids —
    /// what keeps 1-chip egress ports byte-identical to the flat
    /// fabric), then any boundary links in fixed +x, -x, +y, -y order.
    neighbors: Vec<Vec<usize>>,
}

impl HierTopology {
    /// Builds a `chip_cols × chip_rows` fabric of mesh chips, each an
    /// `intra_cols × intra_rows` [`Mesh2D`], hosting `crossbars`
    /// crossbars at routers `0..crossbars` (chip-major).
    ///
    /// `link_latency` is the cycle cost multiplier of one chip-boundary
    /// hop and `link_width_divisor` the link-width ratio (on-chip width
    /// over boundary width); both must be ≥ 1 and both inflate the
    /// weighted distance table ([`HierTopology::seam_cost`]).
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] on a zero chip/intra dimension, a
    /// zero-latency or zero-width boundary link, a chip grid too small
    /// for `crossbars`, or a weighted diameter overflowing `u32`
    /// (hop-latency overflow on deep hierarchies).
    pub fn mesh(
        chip_cols: usize,
        chip_rows: usize,
        intra_cols: usize,
        intra_rows: usize,
        crossbars: usize,
        link_latency: u32,
        link_width_divisor: u32,
    ) -> Result<Self, NocError> {
        validate(
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            crossbars,
            link_latency,
            link_width_divisor,
        )?;
        let intra = IntraFabric::Mesh(Mesh2D::grid(
            intra_cols,
            intra_rows,
            intra_cols * intra_rows,
        ));
        Ok(Self::build(
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            crossbars,
            link_latency,
            link_width_divisor,
            intra,
        ))
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
        link_width_divisor: u32,
    ) -> Result<Self, NocError> {
        validate(
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            crossbars,
            link_latency,
            link_width_divisor,
        )?;
        let intra =
            IntraFabric::Torus(Torus::grid(intra_cols, intra_rows, intra_cols * intra_rows));
        Ok(Self::build(
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            crossbars,
            link_latency,
            link_width_divisor,
            intra,
        ))
    }

    /// Builds a mesh-chip fabric for `crossbars` crossbars split evenly
    /// across a `chip_cols × chip_rows` chip grid, each chip a
    /// near-square mesh (the [`Mesh2D::for_crossbars`] shape applied
    /// per chip).
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] under the same domain checks as
    /// [`HierTopology::mesh`], including a chip grid that does not
    /// cover `crossbars`.
    pub fn for_crossbars(
        crossbars: usize,
        chip_cols: usize,
        chip_rows: usize,
        link_latency: u32,
        link_width_divisor: u32,
    ) -> Result<Self, NocError> {
        let chips = chip_cols.max(1) * chip_rows.max(1);
        let per_chip = crossbars.div_ceil(chips).max(1);
        let intra_cols = (per_chip as f64).sqrt().ceil() as usize;
        let intra_rows = per_chip.div_ceil(intra_cols);
        Self::mesh(
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            crossbars,
            link_latency,
            link_width_divisor,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        chip_cols: usize,
        chip_rows: usize,
        intra_cols: usize,
        intra_rows: usize,
        crossbars: usize,
        link_latency: u32,
        link_width_divisor: u32,
        intra: IntraFabric,
    ) -> Self {
        let nr_intra = intra_cols * intra_rows;
        let nr = chip_cols * chip_rows * nr_intra;
        let mut neighbors = vec![Vec::new(); nr];
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
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            nr_intra,
            num_crossbars: crossbars,
            link_latency,
            link_width_divisor,
            intra,
            neighbors,
        }
    }

    /// Number of chips in the fabric.
    pub fn num_chips(&self) -> usize {
        self.chip_cols * self.chip_rows
    }

    /// Chip hosting router `r` (chip-major id layout).
    pub fn chip_of_router(&self, r: usize) -> usize {
        r / self.nr_intra
    }

    /// Effective cost of one chip-boundary hop in the weighted distance
    /// table: the latency multiplier times the width divisor (a link
    /// with half the wires serializes a packet over twice the cycles).
    pub fn seam_cost(&self) -> u32 {
        self.link_latency * self.link_width_divisor
    }

    fn single_chip(&self) -> bool {
        self.chip_cols == 1 && self.chip_rows == 1
    }

    /// Global grid coordinates of router `r`.
    fn global_coords(&self, r: usize) -> (usize, usize) {
        let (chip, local) = (r / self.nr_intra, r % self.nr_intra);
        let (cx, cy) = (chip % self.chip_cols, chip / self.chip_cols);
        let (lx, ly) = (local % self.intra_cols, local / self.intra_cols);
        (cx * self.intra_cols + lx, cy * self.intra_rows + ly)
    }

    /// Router id at global grid coordinates `(x, y)`.
    fn router_at(&self, x: usize, y: usize) -> usize {
        let (cx, lx) = (x / self.intra_cols, x % self.intra_cols);
        let (cy, ly) = (y / self.intra_rows, y % self.intra_rows);
        (cy * self.chip_cols + cx) * self.nr_intra + ly * self.intra_cols + lx
    }

    /// Router `r`'s global grid coordinates and its chip's coordinates:
    /// `[x, y, chip column, chip row]`.
    fn position(&self, r: usize) -> [usize; 4] {
        let (x, y) = self.global_coords(r);
        let chip = self.chip_of_router(r);
        [x, y, chip % self.chip_cols, chip / self.chip_cols]
    }

    /// Weighted route distance between two routers of a multi-chip
    /// fabric, given their [`HierTopology::position`]s: intra-chip hops
    /// cost 1, chip-boundary hops cost [`HierTopology::seam_cost`].
    /// Matches the dimension-ordered routes exactly (a straight global
    /// walk crosses `|Δchip|` boundaries per dimension).
    fn weighted_router_distance(&self, a: [usize; 4], b: [usize; 4]) -> u32 {
        let seams = (a[2].abs_diff(b[2]) + a[3].abs_diff(b[3])) as u32;
        let hops = (a[0].abs_diff(b[0]) + a[1].abs_diff(b[1])) as u32;
        hops - seams + seams * self.seam_cost()
    }
}

/// Domain checks shared by every constructor — typed errors instead of
/// debug asserts, mirroring `PartitionProblem::new`.
fn validate(
    chip_cols: usize,
    chip_rows: usize,
    intra_cols: usize,
    intra_rows: usize,
    crossbars: usize,
    link_latency: u32,
    link_width_divisor: u32,
) -> Result<(), NocError> {
    if chip_cols == 0 || chip_rows == 0 {
        return Err(NocError::InvalidConfig {
            name: "chip_grid",
            value: format!("{chip_cols}x{chip_rows}"),
        });
    }
    if intra_cols == 0 || intra_rows == 0 {
        return Err(NocError::InvalidConfig {
            name: "intra_grid",
            value: format!("{intra_cols}x{intra_rows}"),
        });
    }
    if crossbars == 0 {
        return Err(NocError::InvalidConfig {
            name: "num_crossbars",
            value: "0".into(),
        });
    }
    if link_latency == 0 {
        return Err(NocError::InvalidConfig {
            name: "link_latency",
            value: "0".into(),
        });
    }
    if link_width_divisor == 0 {
        return Err(NocError::InvalidConfig {
            name: "link_width_divisor",
            value: "0".into(),
        });
    }
    let routers = chip_cols
        .checked_mul(chip_rows)
        .and_then(|chips| chips.checked_mul(intra_cols))
        .and_then(|v| v.checked_mul(intra_rows))
        .ok_or(NocError::InvalidConfig {
            name: "chip_grid",
            value: format!("{chip_cols}x{chip_rows} chips of {intra_cols}x{intra_rows}"),
        })?;
    if crossbars > routers {
        return Err(NocError::InvalidConfig {
            name: "num_crossbars",
            value: format!("{crossbars} crossbars on {routers} routers"),
        });
    }
    // weighted diameter must fit the u32 distance table: the farthest
    // pair crosses every chip boundary once per dimension and walks the
    // rest on-chip
    let seam = u64::from(link_latency) * u64::from(link_width_divisor);
    let seams = (chip_cols - 1 + chip_rows - 1) as u64;
    let intra_span = ((intra_cols - 1) * chip_cols + (intra_rows - 1) * chip_rows) as u64;
    if intra_span + seams * seam > u64::from(u32::MAX) {
        return Err(NocError::InvalidConfig {
            name: "link_latency",
            value: format!(
                "weighted diameter {} overflows u32",
                intra_span + seams * seam
            ),
        });
    }
    Ok(())
}

impl Topology for HierTopology {
    fn num_routers(&self) -> usize {
        self.chip_cols * self.chip_rows * self.nr_intra
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
        if self.single_chip() {
            return self.intra.topo().route_next(r, dst);
        }
        let (x, y) = self.global_coords(r);
        let (dx, dy) = self.global_coords(dst);
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

    fn hops(&self, from: usize, to: usize) -> u32 {
        if self.single_chip() {
            return self.intra.topo().hops(from, to);
        }
        let (x0, y0) = self.global_coords(from);
        let (x1, y1) = self.global_coords(to);
        (x0.abs_diff(x1) + y0.abs_diff(y1)) as u32
    }

    /// The nested weighted distance table: every crossbar pair priced by
    /// `HierTopology::weighted_router_distance` (crossbar `k` sits on
    /// router `k`), so `CutHops`, placement, and co-optimization see
    /// inter-chip hops as [`HierTopology::seam_cost`] × dearer than
    /// on-chip hops. A 1-chip fabric gets the BFS table, which is the
    /// flat intra topology's. A plain BFS on a multi-chip fabric would
    /// price every link at 1 and (with torus chips) follow wrap links
    /// the multi-chip routes never take.
    fn distance_lut(&self) -> DistanceLut {
        if self.single_chip() {
            return DistanceLut::new(self);
        }
        // each router's position once, so the all-pairs fill divides
        // nothing (left to inlining, its speed swung by half from build
        // to build)
        let at: Vec<[usize; 4]> = (0..self.num_crossbars).map(|r| self.position(r)).collect();
        DistanceLut::from_fn(self.num_crossbars, |a, b| {
            self.weighted_router_distance(at[a], at[b])
        })
    }

    fn name(&self) -> String {
        format!(
            "hier {}x{} chips of {}",
            self.chip_cols,
            self.chip_rows,
            self.intra.topo().name()
        )
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
        invalid(
            HierTopology::mesh(2, 2, 4, 4, 16, 1, 0),
            "link_width_divisor",
        );
        // chip grid too small for the crossbars
        invalid(HierTopology::mesh(2, 2, 2, 2, 17, 1, 1), "num_crossbars");
        invalid(HierTopology::for_crossbars(0, 2, 2, 1, 1), "num_crossbars");
        // weighted diameter past the u32 distance table
        invalid(
            HierTopology::mesh(1000, 1000, 2, 2, 16, u32::MAX, 2),
            "link_latency",
        );
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
                    let (x0, y0) = t.global_coords(cur);
                    let (x1, y1) = t.global_coords(next);
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
