//! Run-time incremental remapping — the paper's stated future work
//! ("Run-time SNN mapping will be addressed in future", §VI).
//!
//! A deployed mapping is optimized for the spike statistics observed at
//! design time. When the workload drifts (different input statistics, new
//! operating mode, plasticity moving traffic), re-running the full PSO is
//! too slow for on-line use and would reshuffle the whole chip. Instead,
//! [`remap`] performs **bounded incremental migration**: given the *new*
//! spike graph and the *current* mapping, it repeatedly applies the single
//! most valuable neuron migration until the budget is spent or no
//! improving move remains. Each migration is something a runtime can
//! actually execute (copy one neuron's synaptic rows to another crossbar),
//! and the budget caps the reconfiguration downtime.

use crate::error::CoreError;
use crate::eval::{Candidate, EvalEngine};
use crate::partition::{FitnessKind, PartitionProblem};
use neuromap_hw::mapping::Mapping;
use serde::{Deserialize, Serialize};

/// Budget and objective for an incremental remap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemapConfig {
    /// Maximum neuron migrations (reconfiguration budget).
    pub max_migrations: usize,
    /// Objective to improve.
    pub fitness: FitnessKind,
    /// Stop early when the best available move improves the cost by less
    /// than this fraction of the current cost (diminishing returns).
    pub min_relative_gain: f64,
}

impl Default for RemapConfig {
    fn default() -> Self {
        Self {
            max_migrations: 16,
            fitness: FitnessKind::CutSpikes,
            min_relative_gain: 0.0,
        }
    }
}

/// One executed migration: `(neuron, from_crossbar, to_crossbar)`.
pub type Migration = (u32, u32, u32);

/// Result of an incremental remap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemapOutcome {
    /// The improved mapping.
    pub mapping: Mapping,
    /// Migrations in execution order.
    pub migrations: Vec<Migration>,
    /// Cost of the old mapping under the new workload.
    pub cost_before: u64,
    /// Cost after remapping.
    pub cost_after: u64,
}

impl RemapOutcome {
    /// Relative improvement in `[0, 1]`.
    pub fn relative_gain(&self) -> f64 {
        if self.cost_before == 0 {
            0.0
        } else {
            1.0 - self.cost_after as f64 / self.cost_before as f64
        }
    }
}

/// Incrementally adapts `current` to the (drifted) workload described by
/// `problem`, spending at most [`RemapConfig::max_migrations`] single-neuron
/// moves, each chosen as the globally best improving migration.
///
/// # Errors
///
/// [`CoreError::Infeasible`] if `current` does not cover the problem's
/// neurons or violates its capacity (the mapping must have been produced
/// for a compatible architecture).
pub fn remap(
    problem: &PartitionProblem<'_>,
    current: &Mapping,
    config: &RemapConfig,
) -> Result<RemapOutcome, CoreError> {
    let n = problem.graph().num_neurons() as usize;
    if current.num_neurons() != n
        || current.num_crossbars() != problem.num_crossbars()
        || !problem.is_feasible(current.assignment())
    {
        return Err(CoreError::Infeasible {
            neurons: problem.graph().num_neurons(),
            crossbars: problem.num_crossbars(),
            capacity: problem.capacity(),
        });
    }

    // every candidate, under every objective, is priced incrementally
    let c = problem.num_crossbars() as u32;
    let mut assignment = current.assignment().to_vec();
    let engine = EvalEngine::new(*problem, config.fitness);
    let mut candidate = Candidate::new(&engine, &mut assignment);
    let cost_before = candidate.cost();
    let mut migrations = Vec::new();
    let too_small =
        |d: i64, cost: u64| cost > 0 && (-d as f64) / cost as f64 <= config.min_relative_gain;

    while migrations.len() < config.max_migrations {
        // globally best single migration (first neuron wins ties)
        let mut best: Option<(usize, u32, i64)> = None;
        for i in 0..n {
            if let Some((to, d)) = candidate.best_move(i, 0..c) {
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, to, d));
                }
            }
        }
        if let Some((i, to, d)) = best {
            if too_small(d, candidate.cost()) {
                break;
            }
            migrations.push((i as u32, candidate.assignment()[i], to));
            candidate.apply(i, to, d);
            continue;
        }

        // no improving migration: try swaps between graph neighbors on
        // different crossbars (an atomic exchange costs two migrations)
        if migrations.len() + 2 > config.max_migrations {
            break;
        }
        let mut best_swap: Option<(usize, usize, i64)> = None;
        for i in 0..n {
            for &j in problem.graph().targets(i as u32) {
                let d = candidate.try_swap(i, j as usize, |_| false);
                if d < 0 && best_swap.is_none_or(|(_, _, bd)| d < bd) {
                    best_swap = Some((i, j as usize, d));
                }
            }
        }
        let Some((i, j, d)) = best_swap else { break };
        if too_small(d, candidate.cost()) {
            break;
        }
        let (ci, cj) = (candidate.assignment()[i], candidate.assignment()[j]);
        candidate.try_swap(i, j, |_| true);
        migrations.push((i as u32, ci, cj));
        migrations.push((j as u32, cj, ci));
    }

    let cost_after = candidate.cost();
    debug_assert_eq!(cost_after, problem.cost(config.fitness, &assignment));
    let mapping = problem.into_mapping(assignment)?;
    Ok(RemapOutcome {
        mapping,
        migrations,
        cost_before,
        cost_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;

    /// Two clusters; the "drift" flips which cluster is chatty.
    fn graph_with_rates(a_rate: u32, b_rate: u32) -> SpikeGraph {
        let mut synapses = Vec::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                if x != y {
                    synapses.push((x, y));
                    synapses.push((x + 4, y + 4));
                }
            }
        }
        synapses.push((0, 4));
        synapses.push((4, 0));
        let mut counts = vec![a_rate; 8];
        for c in counts.iter_mut().skip(4) {
            *c = b_rate;
        }
        SpikeGraph::from_parts(8, synapses, counts).unwrap()
    }

    #[test]
    fn remap_improves_after_drift() {
        // mapping optimized when cluster A was silent: A is scattered
        let new_graph = graph_with_rates(50, 1);
        let problem = PartitionProblem::new(&new_graph, 2, 5).unwrap();
        let stale = Mapping::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let outcome = remap(&problem, &stale, &RemapConfig::default()).unwrap();
        assert!(outcome.cost_after < outcome.cost_before);
        assert!(!outcome.migrations.is_empty());
        assert!(problem.is_feasible(outcome.mapping.assignment()));
        assert_eq!(
            outcome.cost_after,
            problem.cut_spikes(outcome.mapping.assignment())
        );
    }

    #[test]
    fn budget_bounds_migrations() {
        let g = graph_with_rates(50, 50);
        let problem = PartitionProblem::new(&g, 2, 5).unwrap();
        let stale = Mapping::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let cfg = RemapConfig {
            max_migrations: 2,
            ..RemapConfig::default()
        };
        let outcome = remap(&problem, &stale, &cfg).unwrap();
        assert!(outcome.migrations.len() <= 2);
    }

    #[test]
    fn optimal_mapping_needs_no_migrations() {
        let g = graph_with_rates(10, 10);
        let problem = PartitionProblem::new(&g, 2, 5).unwrap();
        let good = Mapping::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        let outcome = remap(&problem, &good, &RemapConfig::default()).unwrap();
        assert!(outcome.migrations.is_empty());
        assert_eq!(outcome.cost_before, outcome.cost_after);
        assert_eq!(outcome.relative_gain(), 0.0);
    }

    #[test]
    fn incompatible_mapping_rejected() {
        let g = graph_with_rates(1, 1);
        let problem = PartitionProblem::new(&g, 2, 5).unwrap();
        let wrong_size = Mapping::from_assignment(vec![0, 1], 2).unwrap();
        assert!(remap(&problem, &wrong_size, &RemapConfig::default()).is_err());
    }

    #[test]
    fn packet_objective_supported() {
        let g = graph_with_rates(30, 1);
        let problem = PartitionProblem::new(&g, 2, 5).unwrap();
        let stale = Mapping::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let cfg = RemapConfig {
            fitness: FitnessKind::CutPackets,
            ..RemapConfig::default()
        };
        let outcome = remap(&problem, &stale, &cfg).unwrap();
        assert!(outcome.cost_after <= outcome.cost_before);
        assert_eq!(
            outcome.cost_after,
            problem.cut_packets(outcome.mapping.assignment())
        );
    }

    #[test]
    fn hop_objective_supported() {
        use neuromap_noc::topology::{DistanceLut, Mesh2D};
        let g = graph_with_rates(30, 1);
        let topo = Mesh2D::for_crossbars(2);
        let lut = DistanceLut::new(&topo);
        let problem = PartitionProblem::new(&g, 2, 5)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let stale = Mapping::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let cfg = RemapConfig {
            fitness: FitnessKind::CutHops,
            ..RemapConfig::default()
        };
        let outcome = remap(&problem, &stale, &cfg).unwrap();
        assert!(outcome.cost_after <= outcome.cost_before);
        assert_eq!(
            outcome.cost_after,
            problem.cut_hops(outcome.mapping.assignment())
        );
    }

    /// The specification `remap` is held to: the same greedy loop with
    /// every candidate priced by a full cost recompute of a trial copy.
    fn brute_force(
        problem: &PartitionProblem<'_>,
        start: &[u32],
        cfg: &RemapConfig,
    ) -> Vec<Migration> {
        let cost_of = |a: &[u32]| problem.cost(cfg.fitness, a) as i64;
        let g = problem.graph();
        let n = start.len();
        let mut a = start.to_vec();
        let mut log = Vec::new();
        while log.len() < cfg.max_migrations {
            let cost = cost_of(&a);
            let mut occ = vec![0u32; problem.num_crossbars()];
            a.iter().for_each(|&k| occ[k as usize] += 1);
            let mut best: Option<(i64, usize, u32)> = None;
            for i in 0..n {
                for t in 0..problem.num_crossbars() as u32 {
                    if t == a[i] || occ[t as usize] >= problem.capacity() {
                        continue;
                    }
                    let mut trial = a.clone();
                    trial[i] = t;
                    let d = cost_of(&trial) - cost;
                    if d < 0 && best.is_none_or(|(bd, ..)| d < bd) {
                        best = Some((d, i, t));
                    }
                }
            }
            if let Some((_, i, t)) = best {
                log.push((i as u32, a[i], t));
                a[i] = t;
                continue;
            }
            if log.len() + 2 > cfg.max_migrations {
                break;
            }
            let mut best_swap: Option<(i64, usize, usize)> = None;
            for i in 0..n {
                for &j in g.targets(i as u32) {
                    let j = j as usize;
                    if a[i] == a[j] {
                        continue;
                    }
                    let mut trial = a.clone();
                    trial.swap(i, j);
                    let d = cost_of(&trial) - cost;
                    if d < 0 && best_swap.is_none_or(|(bd, ..)| d < bd) {
                        best_swap = Some((d, i, j));
                    }
                }
            }
            let Some((_, i, j)) = best_swap else { break };
            log.push((i as u32, a[i], a[j]));
            log.push((j as u32, a[j], a[i]));
            a.swap(i, j);
        }
        log
    }

    #[test]
    fn incremental_pricing_matches_a_brute_force_reference() {
        use neuromap_noc::topology::{DistanceLut, Mesh2D};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lut = DistanceLut::new(&Mesh2D::for_crossbars(4));
        let (mut moved, mut swapped) = (false, false);
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            // self-loops and duplicate synapses included
            let synapses = (0..90)
                .map(|_| (rng.gen_range(0..24), rng.gen_range(0..24)))
                .collect();
            let counts = (0..24).map(|_| rng.gen_range(0..12)).collect();
            let g = SpikeGraph::from_parts(24, synapses, counts).unwrap();
            // capacity 6 is an exact fit (swaps only), 7 leaves slack
            for cap in [6, 7] {
                let problem = PartitionProblem::new(&g, 4, cap)
                    .unwrap()
                    .with_hops(&lut)
                    .unwrap();
                let stale = Mapping::from_assignment((0..24).map(|i| i % 4).collect(), 4).unwrap();
                for fitness in [FitnessKind::CutPackets, FitnessKind::CutHops] {
                    let cfg = RemapConfig {
                        fitness,
                        max_migrations: 12,
                        ..RemapConfig::default()
                    };
                    let outcome = remap(&problem, &stale, &cfg).unwrap();
                    let expected = brute_force(&problem, stale.assignment(), &cfg);
                    assert_eq!(
                        outcome.migrations, expected,
                        "{fitness:?} seed {seed} cap {cap}"
                    );
                    let after = outcome.mapping.assignment();
                    assert_eq!(outcome.cost_after, problem.cost(fitness, after));
                    moved |= cap == 7 && !expected.is_empty();
                    swapped |= cap == 6 && !expected.is_empty();
                }
            }
        }
        assert!(moved && swapped, "corpus must exercise both move kinds");
    }

    #[test]
    fn migrations_log_is_replayable() {
        let g = graph_with_rates(40, 2);
        let problem = PartitionProblem::new(&g, 2, 5).unwrap();
        let stale = Mapping::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let outcome = remap(&problem, &stale, &RemapConfig::default()).unwrap();
        // replaying the migration log over the stale mapping reproduces the
        // new mapping — what a runtime controller would do
        let mut replayed = stale.assignment().to_vec();
        for (neuron, from, to) in &outcome.migrations {
            assert_eq!(replayed[*neuron as usize], *from);
            replayed[*neuron as usize] = *to;
        }
        assert_eq!(&replayed, outcome.mapping.assignment());
    }
}
