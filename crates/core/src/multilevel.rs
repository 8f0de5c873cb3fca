//! Multilevel coarsen–partition–refine: PSO at the coarsest level only.
//!
//! Flat PSO cost grows with neurons × crossbars, which prices it out of
//! SNNs an order of magnitude beyond the paper's benchmarks. The standard
//! multigrid trick from graph partitioning fixes that: *coarsen* the spike
//! graph by collapsing heavily-communicating neuron pairs until the
//! instance is small, run the full swarm only there, then *project* the
//! coarse solution back up level by level, repairing the approximation
//! error at each step with a cheap boundary-local refinement pass built on
//! [`EvalEngine`]'s O(deg) move deltas.
//!
//! # Coarsening invariant: coarse feasibility ⇒ fine feasibility
//!
//! Matching is pairwise, so a node at coarse level `l` aggregates at most
//! `2^l` fine neurons. Each level halves the per-crossbar capacity:
//! `cap_l = floor(cap / 2^l)` (halving iterated once per level). A
//! feasible level-`l` assignment puts at most `cap_l` coarse nodes on a
//! crossbar, hence at most `2^l · floor(cap / 2^l) ≤ cap` fine neurons —
//! so *projecting any feasible coarse assignment yields a feasible fine
//! assignment*, with no repair step. Coarsening stops before the halved
//! capacity could make the coarse instance itself infeasible
//! (`num_coarse > num_crossbars · cap_{l+1}`), so every level in the
//! stack is solvable by construction.
//!
//! The number of crossbars never changes across levels, which means one
//! [`DistanceLut`] serves every level and all three [`FitnessKind`]s work
//! unmodified on coarse problems. Coarse spike counts are the sum of the
//! members' counts, so coarse cut costs *overprice* fine cuts roughly
//! uniformly — good enough to rank coarse solutions, which is all the
//! V-cycle needs (the final answer is always priced on the true fine
//! problem, see below).
//!
//! # Determinism
//!
//! Results are byte-identical for every thread count, matching the repo's
//! contract for [`PsoPartitioner`]:
//!
//! - The heavy-edge-matching coarsener is sequential and visits neurons in
//!   increasing id; ties on edge weight break toward the lowest neighbor
//!   id. Coarse ids are assigned in visit order, which equals
//!   smallest-member order.
//! - PSO at the coarsest level inherits `run_rounds`' own determinism
//!   (per-particle RNG streams, worker-order reduction).
//! - Refinement proposes moves in parallel against a *frozen* cost state
//!   (contiguous shards, reduced in worker-index order), then applies them
//!   sequentially in `(delta, neuron id)` order with re-pricing — the
//!   accepted set never depends on sharding.
//!
//! # Never-worse guard
//!
//! Intermediate levels refine an *approximate* (overpriced) objective, so
//! per-level improvements do not guarantee fine-cost monotonicity. The
//! driver therefore also computes the pure (unrefined) projection of the
//! coarsest solution, prices both candidates on the true fine problem, and
//! returns the better — making "V-cycle cut ≤ projected coarsest cut" hold
//! by construction.
//!
//! [`PsoPartitioner`]: crate::pso::PsoPartitioner
//! [`DistanceLut`]: neuromap_noc::topology::DistanceLut

use crate::error::CoreError;
use crate::eval::{Candidate, EvalEngine};
use crate::graph::SpikeGraph;
use crate::partition::{FitnessKind, PartitionProblem};
use crate::pool;
use crate::pso::{self, PsoConfig};
use neuromap_hw::mapping::Mapping;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Each coarse level must shrink below this fraction of the finer level's
/// node count, otherwise coarsening stops (guards against matching stalls
/// on star-like graphs).
const MIN_SHRINK: f64 = 0.95;

/// Boundary-refinement rounds per level.
const REFINE_ROUNDS: u32 = 8;

/// Configuration for the multilevel V-cycle.
///
/// Two controls are fixed rather than configurable: coarsening stops at a
/// level that shrinks the graph by less than 5 %, and every level gets
/// eight rounds of boundary refinement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultilevelConfig {
    /// Swarm configuration used at the coarsest level only. `fitness`
    /// selects the objective for every level's refinement as well. The
    /// V-cycle runs the swarm search alone and does not read
    /// `polish_passes`: every level gets `REFINE_ROUNDS` (eight) rounds
    /// of boundary refinement instead.
    pub pso: PsoConfig,
    /// Stop coarsening once a level has at most this many nodes.
    pub min_coarse_neurons: u32,
    /// Hard cap on the number of coarse levels.
    pub max_levels: u32,
    /// Worker threads for the refinement propose phase. Purely an
    /// execution knob: results are byte-identical for every value.
    pub threads: usize,
    /// Chips in the target fabric (1 = single chip, the classic
    /// V-cycle). With more than one chip the coarsest level runs PSO
    /// over *chips* instead of crossbars — assigning clusters to chips
    /// so inter-chip traffic is minimized first — then expands each
    /// chip's nodes deterministically into that chip's crossbar range
    /// before the usual boundary refinement and projection descent.
    /// Must divide the problem's crossbar count; crossbars `q·(C/chips)
    /// .. (q+1)·(C/chips)` belong to chip `q` — the crossbar → chip map
    /// of [`neuromap_hw::arch::crossbars_per_chip`], which
    /// `noc::topology::HierTopology` places crossbars by too, so on a
    /// `Hier` fabric of `chips` chips every crossbar sits on the chip
    /// this level packs it into.
    #[serde(default = "default_chips")]
    pub chips: usize,
}

/// Serde default for [`MultilevelConfig::chips`]: configs recorded
/// before the multi-chip outer level existed mean a single chip.
fn default_chips() -> usize {
    1
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            pso: PsoConfig::default(),
            min_coarse_neurons: 256,
            max_levels: 8,
            threads: pso::default_threads(),
            chips: 1,
        }
    }
}

impl MultilevelConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when a field is out of domain.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.pso.validate()?;
        if self.min_coarse_neurons == 0 {
            return Err(CoreError::InvalidParameter {
                name: "min_coarse_neurons",
                value: self.min_coarse_neurons.to_string(),
            });
        }
        if self.threads == 0 {
            return Err(CoreError::InvalidParameter {
                name: "threads",
                value: self.threads.to_string(),
            });
        }
        if self.chips == 0 {
            return Err(CoreError::InvalidParameter {
                name: "chips",
                value: self.chips.to_string(),
            });
        }
        Ok(())
    }
}

/// One coarse level: the collapsed graph plus the map back to the finer
/// level it was built from.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    graph: SpikeGraph,
    capacity: u32,
    /// `parent[fine] = coarse`: the finer level's node → this level's node.
    parent: Vec<u32>,
    /// Fraction of the finer level's nodes matched into pairs.
    matching_rate: f64,
}

impl CoarseLevel {
    /// The collapsed spike graph at this level.
    pub fn graph(&self) -> &SpikeGraph {
        &self.graph
    }

    /// Per-crossbar capacity at this level (`floor(cap / 2^l)`).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// `parent[fine_node] = coarse_node` into this level, indexed by the
    /// finer level's node ids.
    pub fn parent(&self) -> &[u32] {
        &self.parent
    }

    /// Fraction of the finer level's nodes that were matched into pairs.
    pub fn matching_rate(&self) -> f64 {
        self.matching_rate
    }
}

/// The stack of coarse levels built over a [`PartitionProblem`],
/// finest-coarse first: `level(0)` was coarsened directly from the
/// original graph, `level(num_levels() - 1)` is the coarsest.
#[derive(Debug, Clone)]
pub struct LevelStack {
    levels: Vec<CoarseLevel>,
}

impl LevelStack {
    /// Number of coarse levels (0 when the instance was already small or
    /// coarsening could not shrink it).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Coarse level `k` (0 = first coarsening of the original graph).
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_levels()`.
    pub fn level(&self, k: usize) -> &CoarseLevel {
        &self.levels[k]
    }

    /// The coarse [`PartitionProblem`] at level `k`, inheriting
    /// `base`'s crossbar count and (when present) hop table.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionProblem::new`] validation errors; by
    /// construction of the stack these do not occur.
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_levels()`.
    pub fn problem_at<'s>(
        &'s self,
        k: usize,
        base: &PartitionProblem<'s>,
    ) -> Result<PartitionProblem<'s>, CoreError> {
        let level = &self.levels[k];
        let mut p = PartitionProblem::new(&level.graph, base.num_crossbars(), level.capacity)?;
        if let Some(h) = base.hops() {
            p = p.with_hops(h)?;
        }
        Ok(p)
    }

    /// Projects an assignment of coarse level `k` one step down: the
    /// result assigns the finer level's nodes (the original graph when
    /// `k == 0`) to the crossbar of their coarse parent.
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_levels()` or `assignment` is shorter than
    /// level `k`'s node count.
    pub fn project(&self, k: usize, assignment: &[u32]) -> Vec<u32> {
        self.levels[k]
            .parent
            .iter()
            .map(|&p| assignment[p as usize])
            .collect()
    }
}

/// Builds the coarse-level stack for `problem` under `cfg`'s coarsening
/// controls. Coarsening stops at the first of: `max_levels` reached, node
/// count at or below `min_coarse_neurons`, capacity no longer halvable,
/// halved capacity would make the coarse instance infeasible, or the
/// matching shrank the graph by less than `MIN_SHRINK` (5 %).
pub fn build_levels(problem: &PartitionProblem<'_>, cfg: &MultilevelConfig) -> LevelStack {
    let c = problem.num_crossbars();
    let mut levels: Vec<CoarseLevel> = Vec::new();
    while (levels.len() as u32) < cfg.max_levels {
        let next = {
            let (graph, capacity) = match levels.last() {
                None => (problem.graph(), problem.capacity()),
                Some(l) => (&l.graph, l.capacity),
            };
            if graph.num_neurons() <= cfg.min_coarse_neurons {
                None
            } else {
                coarsen_once(graph, c, capacity)
            }
        };
        match next {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    LevelStack { levels }
}

/// One heavy-edge-matching pass. Returns `None` when the capacity cannot
/// halve, the matching fails the shrink threshold, or the coarse instance
/// would be infeasible under the halved capacity.
fn coarsen_once(graph: &SpikeGraph, num_crossbars: usize, capacity: u32) -> Option<CoarseLevel> {
    let next_cap = capacity / 2;
    if next_cap == 0 {
        return None;
    }
    let n = graph.num_neurons() as usize;

    // Heavy-edge matching: visit neurons in increasing id; match each
    // unmatched neuron with its heaviest unmatched neighbor (undirected
    // weight = spike traffic across the pair, plus 1 per synapse so
    // silent edges still attract), ties toward the lowest id. Every
    // unmatched neighbor seen at u's visit has id > u (a smaller one
    // would have matched at its own visit while u was still free), so
    // visit order doubles as smallest-member order for coarse ids.
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    let mut weight = vec![0u64; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut pairs: u32 = 0;
    for u in 0..n as u32 {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        touched.clear();
        for &v in graph.targets(u) {
            if v == u || mate[v as usize] != UNMATCHED {
                continue;
            }
            if weight[v as usize] == 0 {
                touched.push(v);
            }
            weight[v as usize] += u64::from(graph.count(u)) + 1;
        }
        for &v in graph.sources(u) {
            if v == u || mate[v as usize] != UNMATCHED {
                continue;
            }
            if weight[v as usize] == 0 {
                touched.push(v);
            }
            weight[v as usize] += u64::from(graph.count(v)) + 1;
        }
        let mut best: Option<(u64, u32)> = None;
        for &v in &touched {
            let w = weight[v as usize];
            weight[v as usize] = 0;
            let better = match best {
                None => true,
                Some((bw, bv)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            mate[u as usize] = v;
            mate[v as usize] = u;
            pairs += 1;
        }
    }

    // Coarse ids in increasing smallest-member order.
    let mut parent = vec![UNMATCHED; n];
    let mut num_coarse: u32 = 0;
    for u in 0..n {
        if parent[u] != UNMATCHED {
            continue;
        }
        parent[u] = num_coarse;
        let v = mate[u];
        if v != UNMATCHED {
            parent[v as usize] = num_coarse;
        }
        num_coarse += 1;
    }

    if f64::from(num_coarse) > MIN_SHRINK * n as f64 {
        return None;
    }
    if u64::from(num_coarse) > num_crossbars as u64 * u64::from(next_cap) {
        return None;
    }

    // Collapse: coarse count = sum of member counts; internal edges drop,
    // parallel cross edges are kept (CSR multiplicities carry weight).
    let mut counts = vec![0u32; num_coarse as usize];
    for i in 0..n {
        counts[parent[i] as usize] =
            counts[parent[i] as usize].saturating_add(graph.count(i as u32));
    }
    let mut synapses: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in graph.synapses() {
        let (ca, cb) = (parent[a as usize], parent[b as usize]);
        if ca != cb {
            synapses.push((ca, cb));
        }
    }
    let coarse = SpikeGraph::from_parts(num_coarse, synapses, counts)
        .expect("collapsed graph endpoints are in range by construction");
    Some(CoarseLevel {
        graph: coarse,
        capacity: next_cap,
        parent,
        matching_rate: f64::from(pairs) * 2.0 / n as f64,
    })
}

/// Boundary-driven KL/FM-style refinement: repeatedly propose the best
/// improving single-neuron move for every boundary neuron (in parallel
/// against a frozen candidate), then apply the proposals sequentially in
/// `(delta, neuron id)` order with re-pricing and capacity checks. Stops
/// when a round accepts nothing or after `max_rounds`.
///
/// Candidate target crossbars are restricted to the crossbars of each
/// neuron's CSR neighbors, ascending. Under `CutSpikes` those are the
/// only destinations that can lower the cost. Under `CutPackets` and
/// `CutHops` they are not — moving next to a *sibling* target of a shared
/// source, on a crossbar none of the neuron's own neighbors occupies, can
/// drop that source's packet — and the restriction trades those moves
/// (which the full `C`-target scan of [`crate::refine::refine`] finds)
/// for O(deg) instead of O(C) pricings per boundary neuron, which is what
/// keeps a level's refinement cheap at 1024 crossbars.
///
/// Returns `(final cost, moves proposed, moves accepted)`. Byte-identical
/// for every `threads` value.
fn refine_boundary(
    problem: &PartitionProblem<'_>,
    kind: FitnessKind,
    assignment: &mut [u32],
    max_rounds: u32,
    threads: usize,
) -> (u64, u64, u64) {
    let engine = EvalEngine::new(*problem, kind);
    let mut candidate = Candidate::new(&engine, assignment);
    let graph = problem.graph();
    let neighbors = |i: u32| graph.targets(i).iter().chain(graph.sources(i));
    let mut proposed: u64 = 0;
    let mut accepted: u64 = 0;

    for _ in 0..max_rounds {
        let frozen = &candidate;
        let home = frozen.assignment();
        let boundary: Vec<u32> = (0..home.len() as u32)
            .filter(|&i| neighbors(i).any(|&j| home[j as usize] != home[i as usize]))
            .collect();
        if boundary.is_empty() {
            break;
        }

        // Parallel propose against the frozen candidate: contiguous
        // shards, folded in shard order, so the proposal list is
        // independent of the thread count.
        let mut proposals: Vec<(i64, u32, u32)> =
            pool::map_ranges(boundary.len(), threads, |shard| {
                let mut local: Vec<(i64, u32, u32)> = Vec::new();
                let mut targets: Vec<u32> = Vec::new();
                // `seen[k] == i`: crossbar `k` is already a target of `i`
                // (or its home). A boundary neuron's ~50 neighbors sit on
                // a few crossbars, so only those few are sorted
                let mut seen = vec![u32::MAX; problem.num_crossbars()];
                for &i in &boundary[shard] {
                    targets.clear();
                    seen[home[i as usize] as usize] = i;
                    for &j in neighbors(i) {
                        let k = home[j as usize];
                        if seen[k as usize] != i {
                            seen[k as usize] = i;
                            targets.push(k);
                        }
                    }
                    targets.sort_unstable();
                    if let Some((t, d)) = frozen.best_move(i as usize, targets.iter().copied()) {
                        local.push((d, i, t));
                    }
                }
                local
            })
            .concat();

        proposed += proposals.len() as u64;
        proposals.sort_unstable_by_key(|&(d, i, _)| (d, i));
        let mut any = false;
        for &(_, i, t) in &proposals {
            // Earlier accepts invalidate frozen deltas: re-price and keep
            // only moves that are still open and still improve.
            if let Some(d) = candidate.move_delta(i as usize, t).filter(|&d| d < 0) {
                candidate.apply(i as usize, t, d);
                accepted += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }

    let cost = candidate.cost();
    debug_assert_eq!(cost, problem.cost(kind, assignment));
    (cost, proposed, accepted)
}

/// Per-level statistics from one V-cycle run, finest first (`levels[0]`
/// is the original problem).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Nodes at this level.
    pub num_neurons: u32,
    /// Synapses at this level.
    pub num_synapses: usize,
    /// Per-crossbar capacity at this level.
    pub capacity: u32,
    /// Fraction of this level's nodes matched into pairs when producing
    /// the next coarser level (0 at the coarsest).
    pub matching_rate: f64,
    /// Refinement moves proposed at this level.
    pub refine_proposed: u64,
    /// Refinement moves accepted at this level.
    pub refine_accepted: u64,
    /// Wall time spent at this level (PSO + refinement at the coarsest,
    /// refinement elsewhere).
    pub wall_s: f64,
}

/// Result of a multilevel V-cycle.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The final (fine-level) mapping.
    pub mapping: Mapping,
    /// Its cost on the true fine problem under the configured fitness.
    pub cost: u64,
    /// Fine cost of the *unrefined* projection of the coarsest solution.
    /// `cost <= projected_cost` always (never-worse guard).
    pub projected_cost: u64,
    /// Whether the guard discarded the refined walk in favor of the pure
    /// projection.
    pub used_projection: bool,
    /// Per-level statistics, finest first.
    pub levels: Vec<LevelStats>,
    /// Best-so-far fitness per PSO round at the coarsest level.
    pub coarse_trace: Vec<u64>,
}

/// Runs the multilevel V-cycle: coarsen, PSO at the coarsest level,
/// project + refine back to the original problem.
///
/// When coarsening yields no levels (already-small instance or matching
/// stall) this degenerates to flat PSO plus one refinement pass on the
/// original problem.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `cfg` is out of domain,
/// `cfg.pso.fitness` is [`FitnessKind::CutHops`] and `problem` carries no
/// hop table, or `cfg.chips` does not evenly divide the crossbar count;
/// [`CoreError::Infeasible`] propagated from mapping construction.
pub fn vcycle(
    problem: &PartitionProblem<'_>,
    cfg: &MultilevelConfig,
) -> Result<MultilevelOutcome, CoreError> {
    cfg.validate()?;
    let kind = cfg.pso.fitness;
    problem.check_objective(kind)?;

    let stack = build_levels(problem, cfg);
    let num_coarse_levels = stack.num_levels();

    let mut stats: Vec<LevelStats> = Vec::with_capacity(num_coarse_levels + 1);
    for l in 0..=num_coarse_levels {
        let (g, capacity) = if l == 0 {
            (problem.graph(), problem.capacity())
        } else {
            let lev = stack.level(l - 1);
            (lev.graph(), lev.capacity())
        };
        stats.push(LevelStats {
            num_neurons: g.num_neurons(),
            num_synapses: g.num_synapses(),
            capacity,
            matching_rate: if l < num_coarse_levels {
                stack.level(l).matching_rate()
            } else {
                0.0
            },
            refine_proposed: 0,
            refine_accepted: 0,
            wall_s: 0.0,
        });
    }

    // PSO at the coarsest level (the original problem when no coarse
    // level exists), polished by boundary refinement. With a multi-chip
    // fabric the coarsest swarm assigns clusters to *chips* first, then
    // expands deterministically into each chip's crossbar range.
    let coarse_problem = if num_coarse_levels == 0 {
        *problem
    } else {
        stack.problem_at(num_coarse_levels - 1, problem)?
    };
    // one place refines a level and records what that did and cost
    let mut refine_level =
        |l: usize, level: &PartitionProblem<'_>, current: &mut [u32], t: Instant| {
            let (_, proposed, accepted) =
                refine_boundary(level, kind, current, REFINE_ROUNDS, cfg.threads);
            stats[l].refine_proposed = proposed;
            stats[l].refine_accepted = accepted;
            stats[l].wall_s = t.elapsed().as_secs_f64();
        };
    let t = Instant::now();
    let mut coarse_trace: Vec<u64> = Vec::new();
    let mut current = if cfg.chips > 1 {
        chip_level_assign(problem, &coarse_problem, cfg, &mut coarse_trace)?
    } else {
        pso::search(&coarse_problem, &cfg.pso, &mut coarse_trace)?.0
    };
    refine_level(num_coarse_levels, &coarse_problem, &mut current, t);

    // Pure projection of the coarsest solution down to the fine graph —
    // the yardstick for the never-worse guard.
    let mut projection = current.clone();
    for k in (0..num_coarse_levels).rev() {
        projection = stack.project(k, &projection);
    }
    let projected_cost = problem.cost(kind, &projection);

    // Uncoarsen: project one level at a time and repair the boundary.
    for k in (0..num_coarse_levels).rev() {
        let t = Instant::now();
        current = stack.project(k, &current);
        let level_problem = if k == 0 {
            *problem
        } else {
            stack.problem_at(k - 1, problem)?
        };
        debug_assert!(level_problem.is_feasible(&current));
        refine_level(k, &level_problem, &mut current, t);
    }

    let mut cost = problem.cost(kind, &current);
    let mut used_projection = false;
    if cost > projected_cost {
        current = projection;
        cost = projected_cost;
        used_projection = true;
    }

    Ok(MultilevelOutcome {
        mapping: problem.into_mapping(current)?,
        cost,
        projected_cost,
        used_projection,
        levels: stats,
        coarse_trace,
    })
}

/// The cluster → chip outer level: PSO over a chip-level problem (same
/// coarse graph, one "crossbar" per chip with the pooled capacity of the
/// chip's crossbar range), then a deterministic expansion packing each
/// chip's nodes — ascending id — into that chip's crossbar range at the
/// coarse per-crossbar capacity.
///
/// The chip objective is the configured fitness, except [`CutHops`]
/// drops to [`CutPackets`]: there is no chip-level hop table, and the
/// chip decision is exactly "minimize inter-chip traffic", which packets
/// price directly. The hop-aware pricing still governs every later
/// stage (boundary refinement and the fine-level never-worse guard run
/// on the true problem).
///
/// Feasibility: a chip holds at most `per_chip · cap` nodes, so packing
/// to `cap` per crossbar never leaves a chip's range — projecting the
/// result stays feasible by the stack's capacity-halving invariant.
///
/// [`CutHops`]: FitnessKind::CutHops
/// [`CutPackets`]: FitnessKind::CutPackets
fn chip_level_assign(
    problem: &PartitionProblem<'_>,
    coarse_problem: &PartitionProblem<'_>,
    cfg: &MultilevelConfig,
    trace: &mut Vec<u64>,
) -> Result<Vec<u32>, CoreError> {
    let c = problem.num_crossbars();
    let chips = cfg.chips;
    if !c.is_multiple_of(chips) {
        return Err(CoreError::InvalidParameter {
            name: "chips",
            value: format!("{chips} chips do not evenly divide {c} crossbars"),
        });
    }
    let per_chip = neuromap_hw::arch::crossbars_per_chip(c, chips);
    let cap = coarse_problem.capacity();
    let chip_cap = u64::from(cap)
        .checked_mul(per_chip as u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(CoreError::InvalidParameter {
            name: "chips",
            value: format!("chip capacity {per_chip} x {cap} overflows u32"),
        })?;
    let mut chip_pso = cfg.pso;
    if chip_pso.fitness == FitnessKind::CutHops {
        chip_pso.fitness = FitnessKind::CutPackets;
    }
    let chip_problem = PartitionProblem::new(coarse_problem.graph(), chips, chip_cap)?;
    let (chip_of, _) = pso::search(&chip_problem, &chip_pso, trace)?;

    // Deterministic expansion: per chip, nodes in ascending id fill the
    // chip's crossbars in order, `cap` nodes per crossbar.
    let mut fill = vec![0u32; c];
    let mut cursor: Vec<usize> = (0..chips).map(|q| q * per_chip).collect();
    let mut assignment = vec![0u32; chip_of.len()];
    for (i, &q) in chip_of.iter().enumerate() {
        let q = q as usize;
        let mut k = cursor[q];
        while fill[k] >= cap {
            k += 1;
        }
        debug_assert!(k < (q + 1) * per_chip, "chip {q} overflows its range");
        fill[k] += 1;
        cursor[q] = k;
        assignment[i] = k as u32;
    }
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::pso::PsoPartitioner;

    fn ring_graph(n: u32, count: u32) -> SpikeGraph {
        let synapses: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        SpikeGraph::from_parts(n, synapses, vec![count; n as usize]).unwrap()
    }

    fn clustered_graph(clusters: u32, size: u32) -> SpikeGraph {
        let n = clusters * size;
        let mut synapses = Vec::new();
        for c in 0..clusters {
            let base = c * size;
            for i in 0..size {
                for j in 0..size {
                    if i != j {
                        synapses.push((base + i, base + j));
                    }
                }
            }
            // one weak inter-cluster link to keep the graph connected
            synapses.push((base, (base + size) % n));
        }
        let counts = (0..n).map(|i| 5 + i % 7).collect();
        SpikeGraph::from_parts(n, synapses, counts).unwrap()
    }

    fn small_cfg() -> MultilevelConfig {
        MultilevelConfig {
            pso: PsoConfig {
                swarm_size: 12,
                iterations: 10,
                polish_passes: 0,
                ..PsoConfig::default()
            },
            min_coarse_neurons: 8,
            max_levels: 4,
            ..MultilevelConfig::default()
        }
    }

    #[test]
    fn coarsening_halves_capacity_and_preserves_feasibility() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let stack = build_levels(&problem, &small_cfg());
        assert!(stack.num_levels() >= 1, "64 neurons must coarsen");
        let mut cap = 16;
        let mut prev_n = 64;
        for k in 0..stack.num_levels() {
            let lev = stack.level(k);
            cap /= 2;
            assert_eq!(lev.capacity(), cap);
            assert!(lev.graph().num_neurons() < prev_n);
            assert_eq!(lev.parent().len(), prev_n as usize);
            // every parent id in range, smallest-member ordering
            let mut first_seen = vec![u32::MAX; lev.graph().num_neurons() as usize];
            for (fine, &p) in lev.parent().iter().enumerate() {
                assert!(p < lev.graph().num_neurons());
                if first_seen[p as usize] == u32::MAX {
                    first_seen[p as usize] = fine as u32;
                }
            }
            assert!(first_seen.windows(2).all(|w| w[0] < w[1]));
            prev_n = lev.graph().num_neurons();
        }
    }

    #[test]
    fn coarse_counts_conserve_total_spikes() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let stack = build_levels(&problem, &small_cfg());
        for k in 0..stack.num_levels() {
            assert_eq!(stack.level(k).graph().total_spikes(), g.total_spikes());
        }
    }

    #[test]
    fn vcycle_output_is_feasible_and_never_worse_than_projection() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let out = vcycle(&problem, &small_cfg()).unwrap();
        assert!(problem.is_feasible(out.mapping.assignment()));
        assert!(out.cost <= out.projected_cost);
        assert_eq!(
            out.cost,
            problem.cost(FitnessKind::CutSpikes, out.mapping.assignment())
        );
        assert_eq!(
            out.levels.len(),
            build_levels(&problem, &small_cfg()).num_levels() + 1
        );
    }

    #[test]
    fn vcycle_is_deterministic_across_thread_counts() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let mut base: Option<(Vec<u32>, u64)> = None;
        for threads in [1usize, 2, 4] {
            let mut cfg = small_cfg();
            cfg.threads = threads;
            cfg.pso.threads = threads;
            let out = vcycle(&problem, &cfg).unwrap();
            let key = (out.mapping.assignment().to_vec(), out.cost);
            match &base {
                None => base = Some(key),
                Some(b) => assert_eq!(*b, key, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn degenerate_small_instance_falls_back_to_flat() {
        let g = ring_graph(12, 3);
        let problem = PartitionProblem::new(&g, 4, 4).unwrap();
        let mut cfg = small_cfg();
        cfg.min_coarse_neurons = 64; // never coarsen
        let out = vcycle(&problem, &cfg).unwrap();
        assert_eq!(out.levels.len(), 1);
        assert!(problem.is_feasible(out.mapping.assignment()));
    }

    #[test]
    fn refinement_improves_a_scrambled_assignment() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        // worst-case round-robin scatter: every cluster is split 8 ways
        let mut assignment: Vec<u32> = (0..64).map(|i| i % 8).collect();
        let before = problem.cost(FitnessKind::CutSpikes, &assignment);
        let (after, proposed, accepted) =
            refine_boundary(&problem, FitnessKind::CutSpikes, &mut assignment, 16, 2);
        assert!(proposed > 0);
        assert!(accepted > 0);
        assert!(after < before);
        assert!(problem.is_feasible(&assignment));
    }

    #[test]
    fn vcycle_beats_or_matches_flat_pso_on_clustered_graph() {
        let g = clustered_graph(16, 8);
        let problem = PartitionProblem::new(&g, 16, 16).unwrap();
        let cfg = small_cfg();
        let ml = vcycle(&problem, &cfg).unwrap();
        let flat = PsoPartitioner::new(cfg.pso).partition(&problem).unwrap();
        let flat_cost = problem.cost(FitnessKind::CutSpikes, flat.assignment());
        assert!(
            ml.cost <= flat_cost,
            "multilevel {} vs flat {flat_cost}",
            ml.cost
        );
    }

    #[test]
    fn chip_outer_level_yields_feasible_mappings() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        for chips in [2usize, 4, 8] {
            let mut cfg = small_cfg();
            cfg.chips = chips;
            let out = vcycle(&problem, &cfg).unwrap();
            assert!(
                problem.is_feasible(out.mapping.assignment()),
                "{chips} chips"
            );
            assert!(out.cost <= out.projected_cost, "{chips} chips");
            assert_eq!(
                out.cost,
                problem.cost(FitnessKind::CutSpikes, out.mapping.assignment()),
                "{chips} chips"
            );
        }
    }

    #[test]
    fn chip_outer_level_is_deterministic_across_thread_counts() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let mut base: Option<(Vec<u32>, u64)> = None;
        for threads in [1usize, 2, 4] {
            let mut cfg = small_cfg();
            cfg.chips = 4;
            cfg.threads = threads;
            cfg.pso.threads = threads;
            let out = vcycle(&problem, &cfg).unwrap();
            let key = (out.mapping.assignment().to_vec(), out.cost);
            match &base {
                None => base = Some(key),
                Some(b) => assert_eq!(*b, key, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn chip_outer_level_works_under_cut_hops() {
        // CutHops at the chip level silently prices as CutPackets (no
        // chip hop table), but refinement and the guard stay hop-aware
        let g = clustered_graph(8, 8);
        let lut = neuromap_noc::topology::DistanceLut::new(
            &neuromap_noc::topology::Mesh2D::for_crossbars(8),
        );
        let problem = PartitionProblem::new(&g, 8, 16)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let mut cfg = small_cfg();
        cfg.chips = 2;
        cfg.pso.fitness = FitnessKind::CutHops;
        let out = vcycle(&problem, &cfg).unwrap();
        assert!(problem.is_feasible(out.mapping.assignment()));
        assert_eq!(
            out.cost,
            problem.cost(FitnessKind::CutHops, out.mapping.assignment())
        );
    }

    #[test]
    fn chips_must_evenly_divide_crossbars() {
        let g = clustered_graph(8, 8);
        let problem = PartitionProblem::new(&g, 8, 16).unwrap();
        let mut cfg = small_cfg();
        cfg.chips = 3; // does not divide 8
        match vcycle(&problem, &cfg) {
            Err(CoreError::InvalidParameter { name, .. }) => assert_eq!(name, "chips"),
            other => panic!("expected chips rejection, got {other:?}"),
        }
        cfg.chips = 0;
        assert!(vcycle(&problem, &cfg).is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = ring_graph(12, 3);
        let problem = PartitionProblem::new(&g, 4, 4).unwrap();
        let cfg = MultilevelConfig {
            threads: 0,
            ..MultilevelConfig::default()
        };
        assert!(vcycle(&problem, &cfg).is_err());
        let mut cfg = MultilevelConfig::default();
        cfg.pso.fitness = FitnessKind::CutHops;
        assert!(vcycle(&problem, &cfg).is_err(), "CutHops without hops");
        // the coarsest-level swarm's hyperparameters are validated too
        let mut cfg = MultilevelConfig::default();
        cfg.pso.iterations = 0;
        assert!(matches!(
            vcycle(&problem, &cfg),
            Err(CoreError::InvalidParameter {
                name: "iterations",
                ..
            })
        ));
    }
}
