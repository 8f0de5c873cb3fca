//! The partitioning problem: constraints, cost, and the `Partitioner`
//! interface shared by the PSO and all baselines.

use crate::error::CoreError;
use crate::graph::SpikeGraph;
use neuromap_hw::mapping::Mapping;
use neuromap_noc::topology::DistanceLut;

/// An instance of the paper's optimization problem (§III): a spike graph to
/// split over `num_crossbars` crossbars of `capacity` neurons each.
///
/// The cost of an assignment is **Eq. 8**: the total spike count over cut
/// synapses, `F = Σ_{(i,j) ∈ S, cb(i) ≠ cb(j)} |T_i|`.
///
/// Hop-aware instances ([`PartitionProblem::with_hops`]) additionally
/// carry the interconnect's crossbar-to-crossbar hop distances, enabling
/// the [`FitnessKind::CutHops`] objective that prices each packet by how
/// far it actually travels on the NoC instead of counting every cut the
/// same.
#[derive(Debug, Clone, Copy)]
pub struct PartitionProblem<'g> {
    graph: &'g SpikeGraph,
    num_crossbars: usize,
    capacity: u32,
    hops: Option<&'g DistanceLut>,
}

/// Largest representable crossbar count: assignments store crossbar ids
/// as `u32`, and the evaluators size their per-source tallies and
/// remote-crossbar mask strides (`⌈C / 64⌉` words) from the id domain.
/// Counts beyond this used to slip through construction and only blow up
/// later as wrapped indices or debug assertions deep inside the engines;
/// [`PartitionProblem::new`] now rejects them up front.
pub const MAX_CROSSBARS: usize = u32::MAX as usize;

impl<'g> PartitionProblem<'g> {
    /// Creates a problem instance.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for zero crossbars/capacity, a
    ///   crossbar count above [`MAX_CROSSBARS`], or a `neurons ×
    ///   crossbars` tally footprint that cannot be indexed on this
    ///   platform (the packet evaluator's per-source stride would
    ///   overflow `usize`).
    /// * [`CoreError::Infeasible`] when total capacity cannot hold the
    ///   graph's neurons (no assignment satisfies Eq. 4–5).
    pub fn new(
        graph: &'g SpikeGraph,
        num_crossbars: usize,
        capacity: u32,
    ) -> Result<Self, CoreError> {
        if num_crossbars == 0 {
            return Err(CoreError::InvalidParameter {
                name: "num_crossbars",
                value: "0".into(),
            });
        }
        if num_crossbars > MAX_CROSSBARS {
            return Err(CoreError::InvalidParameter {
                name: "num_crossbars",
                value: format!("{num_crossbars} (max {MAX_CROSSBARS})"),
            });
        }
        if (graph.num_neurons() as u128) * (num_crossbars as u128) > usize::MAX as u128 {
            return Err(CoreError::InvalidParameter {
                name: "num_crossbars",
                value: format!(
                    "{num_crossbars} ({} neurons × {num_crossbars} crossbars overflows usize)",
                    graph.num_neurons()
                ),
            });
        }
        if capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "capacity",
                value: "0".into(),
            });
        }
        // both factors are ≤ u32::MAX here, so the u64 product is exact
        if graph.num_neurons() as u64 > num_crossbars as u64 * capacity as u64 {
            return Err(CoreError::Infeasible {
                neurons: graph.num_neurons(),
                crossbars: num_crossbars,
                capacity,
            });
        }
        Ok(Self {
            graph,
            num_crossbars,
            capacity,
            hops: None,
        })
    }

    /// Attaches the interconnect's hop-distance table, enabling the
    /// [`FitnessKind::CutHops`] objective (the other objectives ignore
    /// it). The staged pipeline builds the [`DistanceLut`] once per
    /// topology and threads it through here.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the table covers fewer crossbars
    /// than this problem targets.
    pub fn with_hops(mut self, hops: &'g DistanceLut) -> Result<Self, CoreError> {
        if hops.num_crossbars() < self.num_crossbars {
            return Err(CoreError::InvalidParameter {
                name: "hops",
                value: format!(
                    "{} crossbars covered, problem targets {}",
                    hops.num_crossbars(),
                    self.num_crossbars
                ),
            });
        }
        self.hops = Some(hops);
        Ok(self)
    }

    /// The attached hop-distance table, if any.
    pub fn hops(&self) -> Option<&'g DistanceLut> {
        self.hops
    }

    /// Checks that this problem can evaluate `kind` — the one place the
    /// "[`FitnessKind::CutHops`] needs a hop table" precondition is
    /// turned into an error. Every `Result`-returning optimizer entry
    /// point calls it before building an evaluator (whose constructors
    /// and cost functions panic on the same condition).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] (`name: "fitness"`) for
    /// [`FitnessKind::CutHops`] without [`PartitionProblem::with_hops`].
    pub fn check_objective(&self, kind: FitnessKind) -> Result<(), CoreError> {
        if kind == FitnessKind::CutHops && self.hops.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "fitness",
                value: "CutHops requires a problem with hops attached".to_owned(),
            });
        }
        Ok(())
    }

    /// The underlying spike graph.
    pub fn graph(&self) -> &'g SpikeGraph {
        self.graph
    }

    /// Number of crossbars (the paper's `C`).
    pub fn num_crossbars(&self) -> usize {
        self.num_crossbars
    }

    /// Neurons per crossbar (the paper's `Nc`).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Eq. 8 cost: spikes crossing crossbar boundaries under `assignment`
    /// (`assignment[i]` = crossbar of neuron `i`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_neurons`.
    pub fn cut_spikes(&self, assignment: &[u32]) -> u64 {
        assert_eq!(
            assignment.len(),
            self.graph.num_neurons() as usize,
            "assignment must cover every neuron"
        );
        let mut cut = 0u64;
        for i in 0..self.graph.num_neurons() {
            let c = self.graph.count(i) as u64;
            if c == 0 {
                continue;
            }
            let home = assignment[i as usize];
            let remote = self
                .graph
                .targets(i)
                .iter()
                .filter(|&&j| assignment[j as usize] != home)
                .count() as u64;
            cut += c * remote;
        }
        cut
    }

    /// Multicast-aware traffic: *packets* crossing the interconnect when
    /// one spike to many synapses on the same remote crossbar travels once.
    /// `Σ_i |T_i| · |{distinct remote crossbars of i's targets}|`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_neurons`.
    pub fn cut_packets(&self, assignment: &[u32]) -> u64 {
        assert_eq!(assignment.len(), self.graph.num_neurons() as usize);
        let mut total = 0u64;
        let mut seen = vec![u32::MAX; self.num_crossbars];
        for i in 0..self.graph.num_neurons() {
            let c = self.graph.count(i) as u64;
            if c == 0 {
                continue;
            }
            let home = assignment[i as usize];
            let mut distinct = 0u64;
            for &j in self.graph.targets(i) {
                let cb = assignment[j as usize];
                if cb != home && seen[cb as usize] != i {
                    seen[cb as usize] = i;
                    distinct += 1;
                }
            }
            total += c * distinct;
        }
        total
    }

    /// Hop-weighted multicast traffic: every distinct remote destination
    /// crossbar of a spiking neuron is priced by the interconnect hop
    /// distance from the neuron's home crossbar instead of counting 1 —
    /// `Σ_i |T_i| · Σ_{k ∈ distinct target crossbars of i} hops(cb(i), k)`.
    /// Local targets contribute zero (`hops(a, a) = 0`), so the sum runs
    /// over all target crossbars uniformly. With an all-ones off-diagonal
    /// distance matrix this degenerates to [`PartitionProblem::cut_packets`].
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_neurons` or no hop table is
    /// attached ([`PartitionProblem::with_hops`]).
    pub fn cut_hops(&self, assignment: &[u32]) -> u64 {
        assert_eq!(assignment.len(), self.graph.num_neurons() as usize);
        let hops = self
            .hops
            .expect("CutHops requires a hop table; attach one with `with_hops`");
        let mut total = 0u64;
        let mut seen = vec![u32::MAX; self.num_crossbars];
        for i in 0..self.graph.num_neurons() {
            let c = self.graph.count(i) as u64;
            if c == 0 {
                continue;
            }
            let home = assignment[i as usize];
            let mut weighted = 0u64;
            for &j in self.graph.targets(i) {
                let cb = assignment[j as usize];
                if seen[cb as usize] != i {
                    seen[cb as usize] = i;
                    weighted += u64::from(hops.hops(home, cb));
                }
            }
            total += c * weighted;
        }
        total
    }

    /// Whether `assignment` satisfies Eq. 4 (covered structurally) and
    /// Eq. 5 (capacity).
    pub fn is_feasible(&self, assignment: &[u32]) -> bool {
        if assignment.len() != self.graph.num_neurons() as usize {
            return false;
        }
        let mut occ = vec![0u32; self.num_crossbars];
        for &c in assignment {
            if c as usize >= self.num_crossbars {
                return false;
            }
            occ[c as usize] += 1;
            if occ[c as usize] > self.capacity {
                return false;
            }
        }
        true
    }

    /// Wraps a feasible assignment in a [`Mapping`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] if the assignment violates capacity,
    /// [`CoreError::Hw`] if it references out-of-range crossbars.
    pub fn into_mapping(&self, assignment: Vec<u32>) -> Result<Mapping, CoreError> {
        if !self.is_feasible(&assignment) {
            return Err(CoreError::Infeasible {
                neurons: self.graph.num_neurons(),
                crossbars: self.num_crossbars,
                capacity: self.capacity,
            });
        }
        Ok(Mapping::from_assignment(assignment, self.num_crossbars)?)
    }
}

/// Which traffic objective a partitioner minimizes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum FitnessKind {
    /// Eq. 8 of the paper: spikes crossing crossbar boundaries, counted per
    /// cut synapse (AER without multicast deduplication).
    #[default]
    CutSpikes,
    /// Multicast-aware extension: AER *packets* on the interconnect —
    /// duplicate destinations within a crossbar collapse to one.
    CutPackets,
    /// Hop-aware extension: packets weighted by the interconnect hop
    /// distance between source and destination crossbars — the objective
    /// the NoC's energy and latency actually scale with. Requires a hop
    /// table on the problem ([`PartitionProblem::with_hops`]).
    CutHops,
}

impl<'g> PartitionProblem<'g> {
    /// Cost of `assignment` under the chosen fitness kind.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_neurons`, or for
    /// [`FitnessKind::CutHops`] without an attached hop table.
    pub fn cost(&self, kind: FitnessKind, assignment: &[u32]) -> u64 {
        match kind {
            FitnessKind::CutSpikes => self.cut_spikes(assignment),
            FitnessKind::CutPackets => self.cut_packets(assignment),
            FitnessKind::CutHops => self.cut_hops(assignment),
        }
    }

    /// Cost change of migrating neuron `i` to crossbar `to` under the
    /// Eq. 8 cut-spike objective — O(deg(i)) via the in/out CSRs instead
    /// of a full re-evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `i` or any index in the CSR rows is out of range for
    /// `assignment`.
    pub fn move_delta_spikes(&self, assignment: &[u32], i: usize, to: u32) -> i64 {
        let g = self.graph;
        let from = assignment[i];
        if from == to {
            return 0;
        }
        let mut delta = 0i64;
        let ci = g.count(i as u32) as i64;
        for &j in g.targets(i as u32) {
            if j as usize == i {
                continue;
            }
            let cj = assignment[j as usize];
            delta += ci * ((cj != to) as i64 - (cj != from) as i64);
        }
        for &p in g.sources(i as u32) {
            if p as usize == i {
                continue;
            }
            let cp = assignment[p as usize];
            delta += g.count(p) as i64 * ((cp != to) as i64 - (cp != from) as i64);
        }
        delta
    }
}

/// A partitioning algorithm: produces a feasible neuron → crossbar mapping
/// for a [`PartitionProblem`].
pub trait Partitioner {
    /// Short identifier used in reports ("pso", "pacman", ...).
    fn name(&self) -> &'static str;

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`] when the instance is infeasible
    /// or the algorithm's configuration is invalid.
    fn partition(&self, problem: &PartitionProblem<'_>) -> Result<Mapping, CoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> SpikeGraph {
        // 0 →(10) 1 →(20) 2 →(30) 3
        SpikeGraph::from_parts(4, vec![(0, 1), (1, 2), (2, 3)], vec![10, 20, 30, 0]).unwrap()
    }

    #[test]
    fn problem_validation() {
        let g = line_graph();
        assert!(PartitionProblem::new(&g, 0, 2).is_err());
        assert!(PartitionProblem::new(&g, 2, 0).is_err());
        assert!(matches!(
            PartitionProblem::new(&g, 2, 1),
            Err(CoreError::Infeasible { .. })
        ));
        assert!(PartitionProblem::new(&g, 2, 2).is_ok());
    }

    #[test]
    fn oversized_crossbar_counts_rejected_up_front() {
        // counts beyond the u32 id domain used to survive construction
        // (and overflow the u64 capacity product in release builds);
        // they must now fail loudly as InvalidParameter, not Infeasible
        let g = line_graph();
        assert!(matches!(
            PartitionProblem::new(&g, MAX_CROSSBARS + 1, 1),
            Err(CoreError::InvalidParameter {
                name: "num_crossbars",
                ..
            })
        ));
        // the u64-overflow regression case: crossbars × capacity wraps
        assert!(matches!(
            PartitionProblem::new(&g, usize::MAX, u32::MAX),
            Err(CoreError::InvalidParameter {
                name: "num_crossbars",
                ..
            })
        ));
        // the ceiling itself is representable (construction is O(1))
        assert!(PartitionProblem::new(&g, MAX_CROSSBARS, 1).is_ok());
    }

    #[test]
    fn cut_cost_counts_presynaptic_spikes() {
        let g = line_graph();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        // split {0,1} | {2,3}: only synapse (1,2) is cut → 20 spikes
        assert_eq!(p.cut_spikes(&[0, 0, 1, 1]), 20);
        // split {0,2} | {1,3}: all three synapses cut → 10 + 20 + 30
        assert_eq!(p.cut_spikes(&[0, 1, 0, 1]), 60);
        // everything local (infeasible capacity-wise but cost is defined)
        assert_eq!(p.cut_spikes(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn multicast_cost_deduplicates_crossbars() {
        // neuron 0 fires 5 times into three targets on the same remote crossbar
        let g = SpikeGraph::from_parts(4, vec![(0, 1), (0, 2), (0, 3)], vec![5, 0, 0, 0]).unwrap();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let a = [0, 1, 1, 1];
        assert_eq!(p.cut_spikes(&a), 15); // per-synapse
        assert_eq!(p.cut_packets(&a), 5); // one packet per spike
    }

    #[test]
    fn cut_hops_prices_distance_and_degenerates_to_packets_nearby() {
        use neuromap_noc::topology::{DistanceLut, Mesh2D};
        // neuron 0 fires 5 times into targets on crossbars 1 (1 hop away)
        // and 3 (2 hops away on a 2x2 mesh)
        let g = SpikeGraph::from_parts(4, vec![(0, 1), (0, 2), (0, 3)], vec![5, 0, 0, 0]).unwrap();
        let topo = Mesh2D::grid(2, 2, 4);
        let lut = DistanceLut::new(&topo);
        let p = PartitionProblem::new(&g, 4, 4)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        // targets 1,2 on crossbar 1; target 3 on crossbar 3
        let a = [0, 1, 1, 3];
        assert_eq!(p.cut_packets(&a), 10); // 5 spikes × 2 remote crossbars
        assert_eq!(p.cut_hops(&a), 5 * (1 + 2)); // weighted by hops
                                                 // all targets local → zero under every objective
        let local = [0, 0, 0, 0];
        assert_eq!(p.cut_hops(&local), 0);
        assert_eq!(p.cost(FitnessKind::CutHops, &a), p.cut_hops(&a));
    }

    #[test]
    fn with_hops_rejects_undersized_tables() {
        use neuromap_noc::topology::{DistanceLut, Mesh2D};
        let g = line_graph();
        let topo = Mesh2D::grid(1, 2, 2);
        let lut = DistanceLut::new(&topo);
        // 3-crossbar problem, 2-crossbar table
        assert!(PartitionProblem::new(&g, 3, 2)
            .unwrap()
            .with_hops(&lut)
            .is_err());
        assert!(PartitionProblem::new(&g, 2, 2)
            .unwrap()
            .with_hops(&lut)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "hop table")]
    fn cut_hops_without_table_panics_loudly() {
        let g = line_graph();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        let _ = p.cut_hops(&[0, 0, 1, 1]);
    }

    #[test]
    fn feasibility_checks() {
        let g = line_graph();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        assert!(p.is_feasible(&[0, 0, 1, 1]));
        assert!(!p.is_feasible(&[0, 0, 0, 1])); // capacity
        assert!(!p.is_feasible(&[0, 0, 2, 1])); // range
        assert!(!p.is_feasible(&[0, 0, 1])); // length
    }

    #[test]
    fn into_mapping_validates() {
        let g = line_graph();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        assert!(p.into_mapping(vec![0, 0, 1, 1]).is_ok());
        assert!(p.into_mapping(vec![0, 0, 0, 1]).is_err());
    }

    #[test]
    fn cost_dispatches_by_kind() {
        let g = SpikeGraph::from_parts(3, vec![(0, 1), (0, 2)], vec![4, 0, 0]).unwrap();
        let p = PartitionProblem::new(&g, 2, 2).unwrap();
        let a = [0, 1, 1];
        assert_eq!(p.cost(FitnessKind::CutSpikes, &a), 8);
        assert_eq!(p.cost(FitnessKind::CutPackets, &a), 4);
    }

    #[test]
    fn move_delta_spikes_matches_recompute() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // random sparse graph with a recurrent edge mix
        let n = 12u32;
        let mut synapses = Vec::new();
        for _ in 0..40 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            synapses.push((a, b));
        }
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10)).collect();
        let g = SpikeGraph::from_parts(n, synapses, counts).unwrap();
        let p = PartitionProblem::new(&g, 3, 8).unwrap();
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let base = p.cut_spikes(&a) as i64;
        for i in 0..n as usize {
            for to in 0..3u32 {
                let mut b = a.clone();
                b[i] = to;
                let expected = p.cut_spikes(&b) as i64 - base;
                assert_eq!(p.move_delta_spikes(&a, i, to), expected, "i={i} to={to}");
            }
        }
    }
}
