//! Simulated annealing over the partitioning objectives.

use crate::error::CoreError;
use crate::eval::{Candidate, EvalEngine};
use crate::partition::{FitnessKind, PartitionProblem, Partitioner};
use crate::pool;
use crate::pso::default_threads;
use neuromap_hw::mapping::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Simulated-annealing hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Number of proposed moves per chain.
    pub moves: u32,
    /// Initial temperature (in units of the objective).
    pub t0: f64,
    /// Geometric cooling factor per move.
    pub alpha: f64,
    /// RNG seed (chain `k` derives its stream from `seed` and `k`).
    pub seed: u64,
    /// Independent annealing chains; the best result wins (ties go to the
    /// lowest chain index). More chains = more exploration, deterministic
    /// for a fixed value.
    pub restarts: u32,
    /// Worker threads the chains are spread across (defaults to
    /// [`std::thread::available_parallelism`]). Purely an execution knob:
    /// results depend on `restarts`, never on `threads`.
    pub threads: usize,
    /// Objective to minimize (Eq. 8 cut spikes by default).
    pub fitness: FitnessKind,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            moves: 20_000,
            t0: 100.0,
            alpha: 0.9995,
            seed: 0x5A,
            restarts: 1,
            threads: default_threads(),
            fitness: FitnessKind::CutSpikes,
        }
    }
}

/// Simulated annealing: starts from PACMAN's sequential packing and
/// proposes single-neuron migrations and pair swaps, accepted by the
/// Metropolis criterion under geometric cooling. Move costs come from the
/// shared incremental engine ([`Candidate`], O(deg) per proposal — no
/// full Eq. 8 evaluation anywhere in the chain, and no per-proposal
/// allocation).
///
/// The paper argues PSO converges faster than SA at comparable quality
/// (§III); the `baselines` criterion bench quantifies that claim on this
/// implementation.
#[derive(Debug, Clone, Copy)]
pub struct SaPartitioner {
    config: SaConfig,
}

impl SaPartitioner {
    /// Creates the partitioner.
    pub fn new(config: SaConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero moves/restarts/threads or
    /// a cooling factor outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        let cfg = &self.config;
        if cfg.moves == 0 {
            return Err(CoreError::InvalidParameter {
                name: "moves",
                value: "0".into(),
            });
        }
        if !(cfg.alpha > 0.0 && cfg.alpha <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "alpha",
                value: cfg.alpha.to_string(),
            });
        }
        if cfg.restarts == 0 {
            return Err(CoreError::InvalidParameter {
                name: "restarts",
                value: "0".into(),
            });
        }
        if cfg.threads == 0 {
            return Err(CoreError::InvalidParameter {
                name: "threads",
                value: "0".into(),
            });
        }
        Ok(())
    }
}

/// One annealing chain; deterministic for a fixed `(problem, cfg, seed)`.
fn run_chain(problem: &PartitionProblem<'_>, cfg: &SaConfig, seed: u64) -> (Vec<u32>, u64) {
    let engine = EvalEngine::new(*problem, cfg.fitness);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = problem.graph().num_neurons() as usize;
    let c = problem.num_crossbars();

    // start from sequential packing
    let mut current: Vec<u32> = (0..n as u32).map(|i| i / problem.capacity()).collect();
    let mut candidate = Candidate::new(&engine, &mut current);
    let mut best = candidate.assignment().to_vec();
    let mut best_cost = candidate.cost();
    let mut temp = cfg.t0;

    for _ in 0..cfg.moves {
        // propose: 50% migrate one neuron, 50% swap two neurons; a
        // proposal that is no move at all (home or full target, both
        // neurons on one crossbar) draws no acceptance sample
        if rng.gen_bool(0.5) {
            let i = rng.gen_range(0..n);
            let to = rng.gen_range(0..c) as u32;
            if let Some(delta) = candidate.move_delta(i, to) {
                if accept(delta, temp, &mut rng) {
                    candidate.apply(i, to, delta);
                }
            }
        } else {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            candidate.try_swap(i, j, |delta| accept(delta, temp, &mut rng));
        }
        // a rejected proposal leaves the cost where it was, at or above
        // the best
        if candidate.cost() < best_cost {
            best_cost = candidate.cost();
            best.copy_from_slice(candidate.assignment());
        }
        temp *= cfg.alpha;
    }

    (best, best_cost)
}

impl Partitioner for SaPartitioner {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn partition(&self, problem: &PartitionProblem<'_>) -> Result<Mapping, CoreError> {
        self.validate()?;
        problem.check_objective(self.config.fitness)?;
        let cfg = &self.config;

        // chain k's stream: the base seed for chain 0 (compatibility),
        // golden-ratio offsets for the rest
        let chain_seed = |k: usize| {
            cfg.seed
                .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };

        // chains in chain order, whatever the thread count
        let best = pool::map_ranges(cfg.restarts as usize, cfg.threads, |chains| {
            chains
                .map(|k| run_chain(problem, cfg, chain_seed(k)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .min_by_key(|(_, cost)| *cost) // stable: first chain wins ties
        .expect("restarts >= 1")
        .0;
        problem.into_mapping(best)
    }
}

fn accept(delta: i64, temp: f64, rng: &mut StdRng) -> bool {
    delta <= 0 || (temp > 0.0 && rng.gen::<f64>() < (-(delta as f64) / temp).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;

    fn bipartite() -> SpikeGraph {
        let mut synapses = Vec::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    synapses.push((a, b));
                    synapses.push((a + 3, b + 3));
                }
            }
        }
        synapses.push((0, 3));
        SpikeGraph::from_parts(6, synapses, vec![10; 6]).unwrap()
    }

    #[test]
    fn finds_good_cuts() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let m = SaPartitioner::new(SaConfig::default())
            .partition(&p)
            .unwrap();
        // optimum is 10 (only the bridge)
        assert_eq!(p.cut_spikes(m.assignment()), 10);
    }

    #[test]
    fn optimizes_packets_too() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let cfg = SaConfig {
            fitness: FitnessKind::CutPackets,
            ..SaConfig::default()
        };
        let m = SaPartitioner::new(cfg).partition(&p).unwrap();
        // the bridge is one multicast packet stream: optimum 10
        assert_eq!(p.cut_packets(m.assignment()), 10);
    }

    #[test]
    fn deterministic() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let cfg = SaConfig {
            moves: 2000,
            ..SaConfig::default()
        };
        let a = SaPartitioner::new(cfg).partition(&p).unwrap();
        let b = SaPartitioner::new(cfg).partition(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let base = SaConfig {
            moves: 1500,
            restarts: 3,
            ..SaConfig::default()
        };
        let seq = SaPartitioner::new(SaConfig { threads: 1, ..base })
            .partition(&p)
            .unwrap();
        for threads in [2, 3, 8] {
            let par = SaPartitioner::new(SaConfig { threads, ..base })
                .partition(&p)
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn more_restarts_never_worse() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let cost = |restarts| {
            let cfg = SaConfig {
                moves: 400,
                restarts,
                ..SaConfig::default()
            };
            let m = SaPartitioner::new(cfg).partition(&p).unwrap();
            p.cut_spikes(m.assignment())
        };
        assert!(cost(4) <= cost(1));
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        for cfg in [
            SaConfig {
                moves: 0,
                ..SaConfig::default()
            },
            SaConfig {
                restarts: 0,
                ..SaConfig::default()
            },
            SaConfig {
                threads: 0,
                ..SaConfig::default()
            },
            SaConfig {
                alpha: 1.5,
                ..SaConfig::default()
            },
            SaConfig {
                alpha: 0.0,
                ..SaConfig::default()
            },
            SaConfig {
                alpha: -0.1,
                ..SaConfig::default()
            },
        ] {
            assert!(SaPartitioner::new(cfg).partition(&p).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn anneals_on_the_multi_word_envelope() {
        // 80 crossbars: the packet tallies cross the one-word boundary;
        // the chain must stay feasible and never worsen its PACMAN start
        use crate::graph::SpikeGraph;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let n = 120u32;
        let synapses: Vec<(u32, u32)> = (0..400)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let g = SpikeGraph::from_parts(n, synapses, counts).unwrap();
        let p = PartitionProblem::new(&g, 80, 3).unwrap();
        let start: Vec<u32> = (0..n).map(|i| i / 3).collect();
        let start_cost = p.cut_packets(&start);
        let cfg = SaConfig {
            moves: 3000,
            fitness: FitnessKind::CutPackets,
            ..SaConfig::default()
        };
        let m = SaPartitioner::new(cfg).partition(&p).unwrap();
        assert!(p.is_feasible(m.assignment()));
        assert!(p.cut_packets(m.assignment()) <= start_cost);
    }

    #[test]
    fn respects_capacity_throughout() {
        let g = bipartite();
        let p = PartitionProblem::new(&g, 3, 2).unwrap();
        let m = SaPartitioner::new(SaConfig::default())
            .partition(&p)
            .unwrap();
        assert!(m.occupancy().iter().all(|&o| o <= 2));
    }
}
