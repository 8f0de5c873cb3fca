//! Whole-chip architecture descriptions.
//!
//! An [`Architecture`] is what the designer supplies to the mapping flow
//! (paper, Section III: "the specification C is usually provided by a
//! designer"): how many crossbars, how many neurons each can hold, how the
//! crossbars are interconnected, and what the events cost. Section V-C of
//! the paper *explores* this space (few large crossbars vs. many small
//! ones); [`Architecture::with_crossbar_size`] supports exactly that sweep.

use crate::crossbar::CrossbarSpec;
use crate::energy::EnergyModel;
use crate::error::HwError;
use serde::{Deserialize, Serialize};

/// The interconnect joining the crossbars.
///
/// The paper's Section II: "commonly used ones are NoC-tree (CxQuad) and
/// NoC-mesh (TrueNorth, HiCANN)". The concrete routing/queueing behaviour
/// lives in `neuromap-noc`; this descriptor selects which model is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterconnectKind {
    /// 2-D mesh with XY dimension-order routing (TrueNorth/HiCANN class).
    /// Crossbars are placed row-major on a near-square grid.
    Mesh,
    /// Balanced tree with the given arity; crossbars are the leaves
    /// (CxQuad class).
    Tree {
        /// Children per switch node (≥ 2).
        arity: u32,
    },
    /// 2-D torus (mesh with wrap-around links).
    Torus,
    /// All crossbars share one central switch (single-hop star).
    Star,
    /// Multi-chip hierarchy (SpiNeMap-class scale-out): crossbars are
    /// split evenly, chip-major, over a `chip_cols × chip_rows` grid of
    /// chips — crossbar `k` sits on chip `k / ⌈C / chips⌉`, row-major
    /// inside it — each chip internally the [`near_square`] 2-D mesh for
    /// its `⌈C / chips⌉` crossbars, with chips joined by slower, narrower
    /// boundary links. [`HierShape`] checks and derives the shape;
    /// the mapping pipeline builds it as
    /// `neuromap_noc::topology::HierTopology`.
    Hier {
        /// Chip-grid columns (≥ 1).
        chip_cols: u32,
        /// Chip-grid rows (≥ 1).
        chip_rows: u32,
        /// Cycles per chip-boundary link hop (≥ 1).
        link_latency: u32,
        /// On-chip over boundary link-width ratio (≥ 1) — multiplies the
        /// serialization cost of every boundary hop.
        link_width: u32,
    },
}

/// The near-square grid for `n ≥ 1` routers, `(cols, rows)` with
/// `cols = ⌈√n⌉` and `rows = ⌈n / cols⌉`: every flat mesh and torus, and
/// every chip of an [`InterconnectKind::Hier`] fabric.
pub fn near_square(n: usize) -> (usize, usize) {
    assert!(n > 0, "at least one crossbar required");
    let root = n.isqrt();
    let cols = if root * root == n { root } else { root + 1 };
    (cols, n.div_ceil(cols))
}

/// `⌈crossbars / chips⌉`: crossbar `k` of a multi-chip fabric sits on
/// chip `k / crossbars_per_chip(crossbars, chips)`, the one crossbar →
/// chip map of [`HierShape`] and of the multilevel V-cycle's chip level.
pub fn crossbars_per_chip(crossbars: usize, chips: usize) -> usize {
    crossbars.div_ceil(chips)
}

/// The checked shape of an [`InterconnectKind::Hier`] fabric: a chip
/// grid, each chip an identical router grid, and the boundary links.
/// Router ids are chip-major (`chip · routers per chip + local`, both
/// row-major); crossbar `k` sits on chip `k / ⌈C / chips⌉`
/// ([`crossbars_per_chip`]) at local router `k mod ⌈C / chips⌉`.
///
/// Construction checks the whole domain once, in `u128`: no zero field,
/// a router count that fits `usize`, no more crossbars than routers, and
/// a weighted diameter (every boundary hop priced
/// [`HierShape::seam_cost`]) that fits the `u32` distance table.
/// [`Architecture::custom`] and `neuromap_noc::topology::HierTopology`
/// both build from it, so they accept the same descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierShape {
    crossbars: usize,
    chip_grid: (usize, usize),
    intra_grid: (usize, usize),
    /// `(link_latency, link_width)`.
    link: (u32, u32),
}

impl HierShape {
    /// `crossbars` split evenly over a `chip_cols × chip_rows` chip grid,
    /// each chip the [`near_square`] grid for its `⌈C / chips⌉`
    /// crossbars.
    ///
    /// # Errors
    ///
    /// As [`HierShape::with_intra_grid`].
    pub fn new(
        crossbars: usize,
        chip_cols: usize,
        chip_rows: usize,
        link_latency: u32,
        link_width: u32,
    ) -> Result<Self, HwError> {
        let chips = (chip_cols as u128 * chip_rows as u128).max(1);
        let per_chip = (crossbars as u128).div_ceil(chips).max(1) as usize;
        let (intra_cols, intra_rows) = near_square(per_chip);
        Self::with_intra_grid(
            crossbars,
            chip_cols,
            chip_rows,
            intra_cols,
            intra_rows,
            link_latency,
            link_width,
        )
    }

    /// The shape with an explicit `intra_cols × intra_rows` router grid
    /// per chip.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] naming `chip_grid` or `intra_grid`
    /// (a zero dimension, or more routers than `usize` counts),
    /// `num_crossbars` (zero, or more than the routers), `link_latency`
    /// (zero, or a weighted diameter past `u32`) or `link_width` (zero).
    pub fn with_intra_grid(
        crossbars: usize,
        chip_cols: usize,
        chip_rows: usize,
        intra_cols: usize,
        intra_rows: usize,
        link_latency: u32,
        link_width: u32,
    ) -> Result<Self, HwError> {
        let invalid = |name, value: String| Err(HwError::InvalidParameter { name, value });
        if chip_cols == 0 || chip_rows == 0 {
            return invalid("chip_grid", format!("{chip_cols}x{chip_rows}"));
        }
        if intra_cols == 0 || intra_rows == 0 {
            return invalid("intra_grid", format!("{intra_cols}x{intra_rows}"));
        }
        if crossbars == 0 {
            return invalid("num_crossbars", "0".into());
        }
        if link_latency == 0 {
            return invalid("link_latency", "0".into());
        }
        if link_width == 0 {
            return invalid("link_width", "0".into());
        }
        let [cc, cr, ic, ir] = [chip_cols, chip_rows, intra_cols, intra_rows].map(|d| d as u128);
        let routers = [cr, ic, ir].into_iter().try_fold(cc, u128::checked_mul);
        let Some(routers) = routers.filter(|&r| r <= usize::MAX as u128) else {
            let grid = format!("{chip_cols}x{chip_rows} chips of {intra_cols}x{intra_rows}");
            return invalid("chip_grid", grid);
        };
        if crossbars as u128 > routers {
            let value = format!("{crossbars} crossbars on {routers} routers");
            return invalid("num_crossbars", value);
        }
        let shape = Self {
            crossbars,
            chip_grid: (chip_cols, chip_rows),
            intra_grid: (intra_cols, intra_rows),
            link: (link_latency, link_width),
        };
        // the farthest pair crosses every chip boundary once per
        // dimension and walks the rest on-chip; with `routers` in
        // `usize` every factor is below 2^64, so nothing here wraps
        let on_chip = (ic - 1) * cc + (ir - 1) * cr;
        let diameter = on_chip + (cc - 1 + cr - 1) * u128::from(shape.seam_cost());
        if diameter > u128::from(u32::MAX) {
            let value = format!("weighted diameter {diameter} overflows u32");
            return invalid("link_latency", value);
        }
        Ok(shape)
    }

    /// Crossbars hosted.
    pub fn num_crossbars(&self) -> usize {
        self.crossbars
    }

    /// `(columns, rows)` of the chip grid.
    pub fn chip_grid(&self) -> (usize, usize) {
        self.chip_grid
    }

    /// `(columns, rows)` of each chip's router grid.
    pub fn intra_grid(&self) -> (usize, usize) {
        self.intra_grid
    }

    /// Cost of one boundary hop in the weighted distance table: latency
    /// times width ratio (half the wires serialize a packet over twice
    /// the cycles), in `u64`, where it cannot wrap.
    pub fn seam_cost(&self) -> u64 {
        u64::from(self.link.0) * u64::from(self.link.1)
    }

    /// The chip-major router crossbar `k` attaches to.
    pub fn router_of_crossbar(&self, k: usize) -> usize {
        let ((cc, cr), (ic, ir)) = (self.chip_grid, self.intra_grid);
        let per_chip = crossbars_per_chip(self.crossbars, cc * cr);
        k / per_chip * ic * ir + k % per_chip
    }
}

/// A complete neuromorphic chip description.
///
/// ```
/// use neuromap_hw::arch::{Architecture, InterconnectKind};
///
/// # fn main() -> Result<(), neuromap_hw::HwError> {
/// // 16 crossbars of 90 neurons on a mesh — one point of the paper's
/// // Fig. 6 architecture sweep
/// let arch = Architecture::custom(16, 90, InterconnectKind::Mesh)?;
/// assert_eq!(arch.num_crossbars(), 16);
/// assert_eq!(arch.neurons_per_crossbar(), 90);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Architecture {
    num_crossbars: usize,
    crossbar: CrossbarSpec,
    interconnect: InterconnectKind,
    energy: EnergyModel,
}

// Deserialization routes through `Architecture::custom` and
// `EnergyModel::validate`: a document describes only what the
// constructors build, which the pipeline's infallible topology builder
// relies on.
impl Deserialize for Architecture {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError::new(format!("missing field `{name}`")))
        };
        let crossbar = CrossbarSpec::from_value(field("crossbar")?)?;
        let energy = EnergyModel::from_value(field("energy")?)?;
        let checked = Architecture::custom(
            usize::from_value(field("num_crossbars")?)?,
            crossbar.neuron_capacity(),
            InterconnectKind::from_value(field("interconnect")?)?,
        )
        .and_then(|arch| energy.validate().map(|()| arch))
        .map_err(|e| serde::DeError::new(e.to_string()))?;
        // the geometry as written: `custom` vouched for its capacity
        Ok(Self {
            crossbar,
            energy,
            ..checked
        })
    }
}

impl Architecture {
    /// The CxQuad reference chip: 4 crossbars × 128 neurons (16 K local
    /// synapses each), NoC-tree interconnect.
    pub fn cxquad() -> Self {
        Self {
            num_crossbars: 4,
            crossbar: CrossbarSpec::default(),
            interconnect: InterconnectKind::Tree { arity: 4 },
            energy: EnergyModel::default(),
        }
    }

    /// A fully custom architecture.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] if `num_crossbars` or
    /// `neurons_per_crossbar` is zero, a tree arity is < 2, or
    /// [`HierShape::new`] refuses a hierarchical interconnect (a
    /// degenerate chip grid, a zero-latency or zero-width boundary link,
    /// or a weighted diameter overflowing the `u32` distance table).
    pub fn custom(
        num_crossbars: usize,
        neurons_per_crossbar: u32,
        interconnect: InterconnectKind,
    ) -> Result<Self, HwError> {
        if num_crossbars == 0 {
            return Err(HwError::InvalidParameter {
                name: "num_crossbars",
                value: "0".into(),
            });
        }
        if let InterconnectKind::Tree { arity } = interconnect {
            if arity < 2 {
                return Err(HwError::InvalidParameter {
                    name: "arity",
                    value: arity.to_string(),
                });
            }
        }
        if let InterconnectKind::Hier {
            chip_cols,
            chip_rows,
            link_latency,
            link_width,
        } = interconnect
        {
            HierShape::new(
                num_crossbars,
                chip_cols as usize,
                chip_rows as usize,
                link_latency,
                link_width,
            )?;
        }
        Ok(Self {
            num_crossbars,
            crossbar: CrossbarSpec::square(neurons_per_crossbar)?,
            interconnect,
            energy: EnergyModel::default(),
        })
    }

    /// Derives an architecture with the same interconnect/energy but a
    /// different crossbar size, sized to hold at least `total_neurons` —
    /// the Fig. 6 sweep ("given an application, fewer large crossbars or
    /// many small ones?").
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] if either argument is zero, or if
    /// [`Architecture::custom`] refuses the interconnect at the derived
    /// crossbar count.
    pub fn with_crossbar_size(
        &self,
        neurons_per_crossbar: u32,
        total_neurons: u32,
    ) -> Result<Self, HwError> {
        if neurons_per_crossbar == 0 || total_neurons == 0 {
            return Err(HwError::InvalidParameter {
                name: "neurons_per_crossbar/total_neurons",
                value: format!("{neurons_per_crossbar}/{total_neurons}"),
            });
        }
        let count = total_neurons.div_ceil(neurons_per_crossbar) as usize;
        Ok(Self::custom(count, neurons_per_crossbar, self.interconnect)?.with_energy(self.energy))
    }

    /// Replaces the energy model (builder style).
    pub fn with_energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Number of crossbars.
    pub fn num_crossbars(&self) -> usize {
        self.num_crossbars
    }

    /// Geometry of each crossbar (homogeneous chips).
    pub fn crossbar(&self) -> CrossbarSpec {
        self.crossbar
    }

    /// Neurons each crossbar can hold (the paper's `Nc`).
    pub fn neurons_per_crossbar(&self) -> u32 {
        self.crossbar.neuron_capacity()
    }

    /// The interconnect descriptor.
    pub fn interconnect(&self) -> InterconnectKind {
        self.interconnect
    }

    /// The energy model.
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cxquad_matches_paper() {
        let a = Architecture::cxquad();
        assert_eq!(a.num_crossbars(), 4);
        assert_eq!(a.neurons_per_crossbar(), 128);
        assert_eq!(a.interconnect(), InterconnectKind::Tree { arity: 4 });
    }

    #[test]
    fn custom_validation() {
        assert!(Architecture::custom(0, 10, InterconnectKind::Mesh).is_err());
        assert!(Architecture::custom(4, 0, InterconnectKind::Mesh).is_err());
        assert!(Architecture::custom(4, 10, InterconnectKind::Tree { arity: 1 }).is_err());
    }

    #[test]
    fn hier_validation_mirrors_topology_construction() {
        let hier = |chip_cols, chip_rows, link_latency, link_width| {
            Architecture::custom(
                1024,
                64,
                InterconnectKind::Hier {
                    chip_cols,
                    chip_rows,
                    link_latency,
                    link_width,
                },
            )
        };
        let blamed = |r: Result<Architecture, HwError>, field: &str| match r {
            Err(HwError::InvalidParameter { name, .. }) => {
                assert_eq!(name, field, "wrong field blamed")
            }
            other => panic!("expected InvalidParameter for {field}, got {other:?}"),
        };
        assert!(hier(2, 2, 4, 2).is_ok());
        blamed(hier(0, 2, 4, 2), "chip_grid");
        blamed(hier(2, 0, 4, 2), "chip_grid");
        blamed(hier(2, 2, 0, 2), "link_latency");
        blamed(hier(2, 2, 4, 0), "link_width");
        // deep hierarchy whose weighted diameter cannot fit u32
        blamed(hier(1000, 1000, u32::MAX, 2), "link_latency");
    }

    #[test]
    fn near_square_is_the_ceil_root_grid() {
        for n in 1..=4096usize {
            let cols = (n as f64).sqrt().ceil() as usize;
            assert_eq!(near_square(n), (cols, n.div_ceil(cols)), "n={n}");
        }
        // past f64's exact integers: `⌈√n⌉` is still exact
        for n in [(1 << 53) + 1, (1 << 60) + 1, usize::MAX] {
            let (cols, _) = near_square(n);
            let (c, n) = (cols as u128, n as u128);
            assert!((c - 1) * (c - 1) < n && n <= c * c, "n={n} cols={cols}");
        }
    }

    #[test]
    fn crossbar_size_sweep_preserves_capacity() {
        let energy = EnergyModel {
            router_hop_pj: 2.0 * EnergyModel::default().router_hop_pj,
            ..EnergyModel::default()
        };
        let base = Architecture::cxquad().with_energy(energy);
        for npc in [90u32, 180, 360, 720, 1440] {
            let a = base.with_crossbar_size(npc, 1440).unwrap();
            assert!(a.num_crossbars() as u32 * npc >= 1440, "npc={npc}");
            assert_eq!(a.neurons_per_crossbar(), npc);
            assert_eq!(a.interconnect(), base.interconnect());
            assert_eq!(a.energy(), &energy);
        }
    }

    #[test]
    fn sweep_crossbar_count_shrinks_as_size_grows() {
        let base = Architecture::cxquad();
        let small = base.with_crossbar_size(90, 1440).unwrap();
        let large = base.with_crossbar_size(1440, 1440).unwrap();
        assert_eq!(small.num_crossbars(), 16);
        assert_eq!(large.num_crossbars(), 1);
    }

    #[test]
    fn crossbar_size_sweep_holds_the_hier_checks() {
        let hier = InterconnectKind::Hier {
            chip_cols: 2,
            chip_rows: 1,
            link_latency: u32::MAX,
            link_width: 1,
        };
        // one crossbar per chip: the seam alone fits the u32 distance table
        let base = Architecture::custom(2, 8, hier).unwrap();
        // four crossbars per chip add intra-chip hops past it
        let refused = |r: Result<Architecture, HwError>| match r {
            Err(HwError::InvalidParameter { name, .. }) => assert_eq!(name, "link_latency"),
            other => panic!("expected InvalidParameter for link_latency, got {other:?}"),
        };
        refused(Architecture::custom(8, 1, hier));
        refused(base.with_crossbar_size(1, 8));
    }

    #[test]
    fn serde_roundtrip() {
        let a = Architecture::cxquad();
        let j = serde_json::to_string(&a).unwrap();
        let b: Architecture = serde_json::from_str(&j).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip_hier() {
        let a = Architecture::custom(
            1024,
            64,
            InterconnectKind::Hier {
                chip_cols: 2,
                chip_rows: 2,
                link_latency: 4,
                link_width: 2,
            },
        )
        .unwrap();
        let j = serde_json::to_string(&a).unwrap();
        let b: Architecture = serde_json::from_str(&j).unwrap();
        assert_eq!(a, b);
        // a document is held to the constructors' rules: what `custom`
        // or the energy model rejects never becomes a value
        let tree = serde_json::to_string(&Architecture::cxquad()).unwrap();
        for (doc, good, bad) in [
            (&j, "\"chip_cols\":2", "\"chip_cols\":0"),
            (&j, "\"link_latency\":4", "\"link_latency\":0"),
            (&j, "\"num_crossbars\":1024", "\"num_crossbars\":0"),
            (&j, "\"inputs\":64", "\"inputs\":0"),
            (&j, "\"router_hop_pj\":", "\"router_hop_pj\":-"),
            (&tree, "\"arity\":4", "\"arity\":1"),
        ] {
            assert!(doc.contains(good), "{good} not in {doc}");
            let parsed = serde_json::from_str::<Architecture>(&doc.replace(good, bad));
            assert!(parsed.is_err(), "{bad}: {parsed:?}");
        }
    }
}
