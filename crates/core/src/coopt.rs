//! Joint partition ⇄ placement co-optimization.
//!
//! The staged pipeline optimizes the two mapping stages in sequence:
//! PSO partitions neurons into clusters pricing every cut packet by the
//! *identity* wiring's hop distances, then the QAP placement optimizer
//! ([`crate::place`]) permutes clusters onto physical crossbars. The
//! partition therefore optimizes against distances the placement stage is
//! about to invalidate.
//!
//! [`co_optimize`] closes that loop: the swarm runs on
//! [`FitnessKind::CutHops`], and every `replace_every` iterations the
//! placement optimizer re-runs on the current global best; the resulting
//! permutation re-prices the hop table the swarm evaluates against
//! ([`DistanceLut::permuted`]), the carried personal/global bests are
//! re-valued under the new pricing (`reseat_best`), and the search
//! continues from the same particle RNG streams. The staged result is
//! always computed too and kept as the fallback — the joint loop can
//! explore a worse basin, and [`CooptOutcome::used_joint`] records which
//! result won on final hop-weighted packets.
//!
//! ### Determinism contract
//!
//! Everything in the loop is deterministic and thread-count independent:
//! the swarm segments run on the same `core::pool` discipline as a plain
//! [`PsoPartitioner`] run (per-particle RNG streams carried across
//! segment boundaries in particle order, reductions in particle order),
//! the placement optimizer is byte-identical for every thread count by
//! its own contract, and the re-valuation pass is single-threaded. Two
//! [`co_optimize`] calls with the same inputs and any `threads` values
//! return identical outcomes, traces included.

use crate::error::CoreError;
use crate::multilevel::{self, MultilevelConfig};
use crate::partition::{FitnessKind, PartitionProblem};
use crate::pipeline::TrafficMode;
use crate::place::{optimize_placement, PlaceConfig, TrafficMatrix};
use crate::pso::{reseat_best, run_rounds, PsoConfig, PsoPartitioner, SwarmState};
use crate::refine::refine;
use neuromap_hw::mapping::{Mapping, Placement};
use neuromap_noc::topology::DistanceLut;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the joint loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CooptConfig {
    /// Swarm hyperparameters. The fitness must be
    /// [`FitnessKind::CutHops`] — the loop works by re-pricing hop
    /// distances, which the other objectives never read.
    pub pso: PsoConfig,
    /// Placement-optimizer hyperparameters, used both inside the loop and
    /// for the staged baseline.
    pub place: PlaceConfig,
    /// Placement refresh period: the placement optimizer re-runs (and the
    /// swarm's hop table is re-priced) every this many PSO iterations.
    pub replace_every: u32,
    /// When set, the staged baseline's partition comes from the
    /// multilevel V-cycle ([`crate::multilevel::vcycle`]) instead of flat
    /// PSO, and the V-cycle's result additionally warm-starts the joint
    /// swarm. The embedded fitness must be [`FitnessKind::CutHops`] to
    /// match the loop's objective. `None` preserves the flat staged
    /// baseline byte-for-byte.
    #[serde(default)]
    pub multilevel: Option<MultilevelConfig>,
}

impl Default for CooptConfig {
    fn default() -> Self {
        Self {
            pso: PsoConfig {
                fitness: FitnessKind::CutHops,
                ..PsoConfig::default()
            },
            place: PlaceConfig::default(),
            replace_every: 20,
            multilevel: None,
        }
    }
}

impl CooptConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for invalid swarm or placement
    /// hyperparameters, a zero refresh period, or a fitness other than
    /// [`FitnessKind::CutHops`].
    pub fn validate(&self) -> Result<(), CoreError> {
        self.pso.validate()?;
        self.place.validate()?;
        if self.replace_every == 0 {
            return Err(CoreError::InvalidParameter {
                name: "replace_every",
                value: "0".into(),
            });
        }
        if self.pso.fitness != FitnessKind::CutHops {
            return Err(CoreError::InvalidParameter {
                name: "fitness",
                value: format!(
                    "{:?} (the joint loop re-prices hop distances; use CutHops)",
                    self.pso.fitness
                ),
            });
        }
        if let Some(ml) = &self.multilevel {
            ml.validate()?;
            if ml.pso.fitness != FitnessKind::CutHops {
                return Err(CoreError::InvalidParameter {
                    name: "multilevel.fitness",
                    value: format!(
                        "{:?} (the staged baseline is priced in hops; use CutHops)",
                        ml.pso.fitness
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Result of a joint co-optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct CooptOutcome {
    /// The winning mapping, already placed onto physical crossbars.
    pub mapping: Mapping,
    /// The winning cluster → physical crossbar permutation.
    pub placement: Placement,
    /// Hop-weighted packets of the staged (partition-then-place) result.
    pub staged_cost: u64,
    /// Hop-weighted packets of the joint loop's result.
    pub joint_cost: u64,
    /// Whether the joint result beat the staged baseline (strictly); when
    /// false, [`CooptOutcome::mapping`] *is* the staged result.
    pub used_joint: bool,
    /// Global-best fitness after every joint-loop round (the initial
    /// evaluation first). Entries are priced under the hop table active
    /// in their segment, so the trace is monotone only within segments.
    pub trace: Vec<u64>,
}

/// Runs the joint partition ⇄ placement loop against a staged baseline
/// and returns whichever placed mapping carries fewer hop-weighted
/// packets (ties go to the staged result, making the joint loop a pure
/// refinement: the outcome never loses to the staged pipeline).
///
/// `problem` must carry a hop table ([`PartitionProblem::with_hops`]) —
/// the identity pricing both the staged baseline and the joint loop's
/// first segment search under. `dist` must be that same table; placements
/// found inside the loop permute it via [`DistanceLut::permuted`].
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] for an invalid configuration, a
/// problem without a hop table, or a `dist` that is not the problem's
/// table over exactly its crossbars; propagates partitioner and placement
/// errors.
pub fn co_optimize(
    problem: &PartitionProblem<'_>,
    dist: &DistanceLut,
    mode: TrafficMode,
    cfg: &CooptConfig,
) -> Result<CooptOutcome, CoreError> {
    cfg.validate()?;
    let Some(hops) = problem.hops() else {
        return Err(CoreError::InvalidParameter {
            name: "problem",
            value: "no hop table attached (CutHops needs `with_hops`)".into(),
        });
    };
    // `with_hops` and `optimize_placement` each accept a wider table, but
    // the loop permutes `dist` by a placement of the problem's crossbars
    let c = problem.num_crossbars();
    if dist.num_crossbars() != c || hops.crossbar_matrix() != dist.crossbar_matrix() {
        return Err(CoreError::InvalidParameter {
            name: "dist",
            value: format!(
                "{} crossbars covered, must be the problem's own {c}-crossbar hop table",
                dist.num_crossbars()
            ),
        });
    }
    let graph = problem.graph();

    // ---- staged baseline: partition to convergence, then place ----
    let staged_map = match &cfg.multilevel {
        None => PsoPartitioner::new(cfg.pso).partition_traced(problem)?.0,
        Some(ml) => multilevel::vcycle(problem, ml)?.mapping,
    };
    let staged_traffic = TrafficMatrix::from_mapping(graph, &staged_map, mode);
    let staged_place = optimize_placement(&staged_traffic, dist, &cfg.place)?;
    let staged_cost = staged_place.optimized_cost;

    // ---- joint loop: segments of `replace_every` rounds, re-placing
    // and re-pricing between them ----
    let mut state = SwarmState::new(problem, &cfg.pso)?;
    if cfg.multilevel.is_some() {
        // warm-start the joint swarm with the V-cycle's partition (last
        // slot, so the memetic baseline injections stay untouched)
        state.inject(
            cfg.pso.swarm_size.saturating_sub(1),
            staged_map.assignment().to_vec(),
        );
    }
    let mut trace = Vec::new();
    let total = cfg.pso.iterations;
    let k = cfg.replace_every;
    let mut done = k.min(total);
    run_rounds(problem, &cfg.pso, &mut state, done, true, &mut trace);
    let mut last_perm: Option<DistanceLut> = None;
    while done < total {
        let seg = k.min(total - done);
        // re-place the current global best and re-price the swarm's hop
        // table under the permutation it finds
        let gbest_map = problem.into_mapping(state.gbest_position.clone())?;
        let traffic = TrafficMatrix::from_mapping(graph, &gbest_map, mode);
        let place = optimize_placement(&traffic, dist, &cfg.place)?;
        last_perm = Some(dist.permuted(place.placement.as_slice()));
        let seg_problem = (*problem).with_hops(last_perm.as_ref().expect("just set"))?;
        reseat_best(&seg_problem, &cfg.pso, &mut state);
        run_rounds(&seg_problem, &cfg.pso, &mut state, seg, false, &mut trace);
        done += seg;
    }

    // greedy polish of the joint best, under the pricing its final
    // segment searched with (mirrors the staged partitioner's polish)
    let mut joint_pos = state.gbest_position;
    if cfg.pso.polish_passes > 0 {
        let polish_problem = match &last_perm {
            Some(p) => (*problem).with_hops(p)?,
            None => *problem,
        };
        refine(
            &polish_problem,
            cfg.pso.fitness,
            &mut joint_pos,
            cfg.pso.polish_passes,
        );
    }
    let joint_map = problem.into_mapping(joint_pos)?;
    let joint_traffic = TrafficMatrix::from_mapping(graph, &joint_map, mode);
    let joint_place = optimize_placement(&joint_traffic, dist, &cfg.place)?;
    let joint_cost = joint_place.optimized_cost;

    // the final yardstick is the same for both: hop-weighted packets of
    // the placed mapping under the *physical* distance table
    let used_joint = joint_cost < staged_cost;
    let (map, outcome) = if used_joint {
        (joint_map, joint_place)
    } else {
        (staged_map, staged_place)
    };
    let placed = map.place(&outcome.placement)?;
    Ok(CooptOutcome {
        mapping: placed,
        placement: outcome.placement,
        staged_cost,
        joint_cost,
        used_joint,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;
    use crate::place::placement_cost;
    use neuromap_noc::topology::Mesh2D;

    fn ring_graph(n: u32, spikes: u32) -> SpikeGraph {
        let mut synapses = Vec::new();
        for i in 0..n {
            synapses.push((i, (i + 1) % n));
            synapses.push((i, (i + 5) % n));
        }
        SpikeGraph::from_parts(n, synapses, vec![spikes; n as usize]).unwrap()
    }

    fn small_cfg() -> CooptConfig {
        CooptConfig {
            pso: PsoConfig {
                swarm_size: 12,
                iterations: 24,
                fitness: FitnessKind::CutHops,
                ..PsoConfig::default()
            },
            place: PlaceConfig {
                restarts: 2,
                sa_moves: 400,
                ..PlaceConfig::default()
            },
            replace_every: 8,
            multilevel: None,
        }
    }

    fn run_on_mesh(cfg: &CooptConfig) -> CooptOutcome {
        let g = ring_graph(16, 20);
        let topo = Mesh2D::for_crossbars(4);
        let dist = DistanceLut::new(&topo);
        let problem = PartitionProblem::new(&g, 4, 4)
            .unwrap()
            .with_hops(&dist)
            .unwrap();
        co_optimize(&problem, &dist, TrafficMode::PerCrossbar, cfg).unwrap()
    }

    #[test]
    fn joint_never_loses_to_staged() {
        let out = run_on_mesh(&small_cfg());
        assert_eq!(out.used_joint, out.joint_cost < out.staged_cost);
        let winner = out.joint_cost.min(out.staged_cost);
        assert_eq!(
            if out.used_joint {
                out.joint_cost
            } else {
                out.staged_cost
            },
            winner
        );
    }

    #[test]
    fn outcome_cost_matches_a_recompute() {
        // the winning cost must equal placement_cost of the returned
        // physical mapping under the identity permutation (the mapping is
        // already placed)
        let g = ring_graph(16, 20);
        let topo = Mesh2D::for_crossbars(4);
        let dist = DistanceLut::new(&topo);
        let problem = PartitionProblem::new(&g, 4, 4)
            .unwrap()
            .with_hops(&dist)
            .unwrap();
        let out = co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &small_cfg()).unwrap();
        let traffic = TrafficMatrix::from_mapping(&g, &out.mapping, TrafficMode::PerCrossbar);
        let identity: Vec<u32> = (0..4).collect();
        let recomputed = placement_cost(&traffic, &dist, &identity);
        let winner = if out.used_joint {
            out.joint_cost
        } else {
            out.staged_cost
        };
        assert_eq!(recomputed, winner);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let base = small_cfg();
        let run = |threads: usize| {
            let cfg = CooptConfig {
                pso: PsoConfig {
                    threads,
                    ..base.pso
                },
                place: PlaceConfig {
                    threads,
                    ..base.place
                },
                ..base
            };
            run_on_mesh(&cfg)
        };
        let one = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(run(threads), one, "thread count changed the outcome");
        }
    }

    #[test]
    fn trace_covers_every_round() {
        let cfg = small_cfg();
        let out = run_on_mesh(&cfg);
        // init entry + one entry per iteration
        assert_eq!(out.trace.len(), cfg.pso.iterations as usize + 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = ring_graph(16, 20);
        let topo = Mesh2D::for_crossbars(4);
        let dist = DistanceLut::new(&topo);
        let problem = PartitionProblem::new(&g, 4, 4)
            .unwrap()
            .with_hops(&dist)
            .unwrap();
        let bad = CooptConfig {
            replace_every: 0,
            ..small_cfg()
        };
        assert!(co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &bad).is_err());
        let bad = CooptConfig {
            pso: PsoConfig {
                fitness: FitnessKind::CutSpikes,
                ..small_cfg().pso
            },
            ..small_cfg()
        };
        assert!(co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &bad).is_err());
        // the embedded placement config is validated with the rest
        let bad = CooptConfig {
            place: PlaceConfig {
                restarts: 0,
                ..small_cfg().place
            },
            ..small_cfg()
        };
        assert!(matches!(
            co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &bad),
            Err(CoreError::InvalidParameter {
                name: "restarts",
                ..
            })
        ));
        // a problem without a hop table is rejected up front, not at the
        // first cut_hops evaluation
        let bare = PartitionProblem::new(&g, 4, 4).unwrap();
        assert!(co_optimize(&bare, &dist, TrafficMode::PerCrossbar, &small_cfg()).is_err());
        // an invalid swarm is caught by the embedded PSO config's
        // validation
        let bad = CooptConfig {
            pso: PsoConfig {
                iterations: 0,
                ..small_cfg().pso
            },
            ..small_cfg()
        };
        assert!(matches!(
            co_optimize(&problem, &dist, TrafficMode::PerCrossbar, &bad),
            Err(CoreError::InvalidParameter {
                name: "iterations",
                ..
            })
        ));
    }

    #[test]
    fn dist_must_be_the_problems_own_table() {
        use neuromap_noc::topology::Torus;
        // `with_hops` and `optimize_placement` accept a table covering at
        // least C crossbars; the joint loop permutes it by a C-cluster
        // placement, so a wider one used to pass every check, run the
        // staged baseline and panic in `DistanceLut::permuted`
        let g = ring_graph(24, 20);
        let wide = DistanceLut::new(&Mesh2D::for_crossbars(16));
        let problem = PartitionProblem::new(&g, 12, 2)
            .unwrap()
            .with_hops(&wide)
            .unwrap();
        let is_dist_error = |r: Result<CooptOutcome, CoreError>| {
            matches!(r, Err(CoreError::InvalidParameter { name: "dist", .. }))
        };
        assert!(is_dist_error(co_optimize(
            &problem,
            &wide,
            TrafficMode::PerCrossbar,
            &small_cfg()
        )));
        // same size, different fabric: the problem prices on a mesh, the
        // placements would be found on a torus
        let mesh = DistanceLut::new(&Mesh2D::for_crossbars(16));
        let torus = DistanceLut::new(&Torus::for_crossbars(16));
        let g = ring_graph(32, 20);
        let problem = PartitionProblem::new(&g, 16, 2)
            .unwrap()
            .with_hops(&mesh)
            .unwrap();
        assert!(is_dist_error(co_optimize(
            &problem,
            &torus,
            TrafficMode::PerCrossbar,
            &small_cfg()
        )));
        assert!(co_optimize(&problem, &mesh, TrafficMode::PerCrossbar, &small_cfg()).is_ok());
    }

    #[test]
    fn multilevel_staged_baseline_composes() {
        use crate::multilevel::MultilevelConfig;
        let ml = MultilevelConfig {
            pso: PsoConfig {
                swarm_size: 8,
                iterations: 8,
                fitness: FitnessKind::CutHops,
                ..PsoConfig::default()
            },
            min_coarse_neurons: 4,
            max_levels: 2,
            ..MultilevelConfig::default()
        };
        let cfg = CooptConfig {
            multilevel: Some(ml),
            ..small_cfg()
        };
        let out = run_on_mesh(&cfg);
        // the final yardstick contract is unchanged: the winner is the
        // cheaper of staged (now multilevel) and joint
        assert_eq!(out.used_joint, out.joint_cost < out.staged_cost);
        // and the composition stays deterministic across thread counts
        let run = |threads: usize| {
            let cfg = CooptConfig {
                pso: PsoConfig { threads, ..cfg.pso },
                multilevel: Some(MultilevelConfig {
                    threads,
                    pso: PsoConfig { threads, ..ml.pso },
                    ..ml
                }),
                ..cfg
            };
            run_on_mesh(&cfg)
        };
        assert_eq!(run(1), run(4));
        // a non-CutHops embedded fitness is rejected up front
        let bad = CooptConfig {
            multilevel: Some(MultilevelConfig {
                pso: PsoConfig {
                    fitness: FitnessKind::CutSpikes,
                    ..ml.pso
                },
                ..ml
            }),
            ..small_cfg()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn segmented_run_with_huge_period_matches_staged_search() {
        // replace_every >= iterations ⇒ the joint loop is one un-refreshed
        // segment: its search equals the staged partitioner's, so the
        // joint path must stay feasible and fully traced
        let cfg = CooptConfig {
            replace_every: 1000,
            ..small_cfg()
        };
        let out = run_on_mesh(&cfg);
        assert_eq!(out.trace.len(), cfg.pso.iterations as usize + 1);
        assert!(out.joint_cost >= out.trace.last().copied().unwrap_or(0).min(out.joint_cost));
    }
}
