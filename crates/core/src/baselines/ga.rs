//! Genetic algorithm over the partitioning objectives.

use crate::error::CoreError;
use crate::eval::{SwarmEval, SwarmScratch};
use crate::partition::{FitnessKind, PartitionProblem, Partitioner};
use crate::pool;
use crate::pso::default_threads;
use neuromap_hw::mapping::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: u32,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Individuals copied unchanged into the next generation.
    pub elites: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for population evaluation (defaults to
    /// [`std::thread::available_parallelism`]). Purely an execution knob:
    /// results are identical for every value.
    pub threads: usize,
    /// Objective to minimize (Eq. 8 cut spikes by default).
    pub fitness: FitnessKind,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 40,
            generations: 60,
            mutation_rate: 0.02,
            tournament: 3,
            elites: 2,
            seed: 0x6A,
            threads: default_threads(),
            fitness: FitnessKind::CutSpikes,
        }
    }
}

/// A genetic algorithm on neuron→crossbar chromosomes: tournament
/// selection, uniform crossover, random-reassignment mutation, and a
/// capacity **repair** pass that relocates neurons from over-full crossbars
/// to the emptiest ones.
///
/// The population lives in one flat buffer (`population × N`) and every
/// generation is scored through the batched swarm evaluator
/// ([`SwarmEval`]) — the same vectorized cost kernels as the PSO —
/// optionally chunked across `threads` workers (chunking never changes
/// results). Uniform crossover rewrites ≈ half the genes, so per-child
/// incremental deltas cannot beat a batched scan; elites skip
/// re-evaluation entirely.
///
/// Implemented as the counterpart the paper compares PSO against
/// ("computationally less expensive with faster convergence compared to …
/// genetic algorithm (GA)"); the `baselines` bench measures both sides.
#[derive(Debug, Clone, Copy)]
pub struct GaPartitioner {
    config: GaConfig,
}

impl GaPartitioner {
    /// Creates the partitioner.
    pub fn new(config: GaConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a population below 2, zero
    /// tournament/threads, or a mutation rate outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        let cfg = &self.config;
        if cfg.population < 2 {
            return Err(CoreError::InvalidParameter {
                name: "population",
                value: cfg.population.to_string(),
            });
        }
        if cfg.tournament == 0 {
            return Err(CoreError::InvalidParameter {
                name: "tournament",
                value: "0".into(),
            });
        }
        if !(0.0..=1.0).contains(&cfg.mutation_rate) {
            return Err(CoreError::InvalidParameter {
                name: "mutation_rate",
                value: cfg.mutation_rate.to_string(),
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

impl Partitioner for GaPartitioner {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn partition(&self, problem: &PartitionProblem<'_>) -> Result<Mapping, CoreError> {
        self.validate()?;
        problem.check_objective(self.config.fitness)?;
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = problem.graph().num_neurons() as usize;
        let c = problem.num_crossbars();
        let cap = problem.capacity();
        let pop_size = cfg.population;
        let evaluator = SwarmEval::new(*problem, cfg.fitness);

        // seed population (flat buffer): sequential packing + random
        // shuffles, capacity-repaired
        let mut pop = vec![0u32; pop_size * n];
        for (i, gene) in pop[..n].iter_mut().enumerate() {
            *gene = i as u32 / cap;
        }
        for m in 1..pop_size {
            let chrom = &mut pop[m * n..(m + 1) * n];
            for gene in chrom.iter_mut() {
                *gene = rng.gen_range(0..c) as u32;
            }
            repair(chrom, c, cap, &mut rng);
        }

        let mut fitness = vec![0u64; pop_size];
        let mut next = vec![0u32; pop_size * n];
        let mut order: Vec<usize> = (0..pop_size).collect();
        let mut elite_fitness: Vec<u64> = Vec::new();
        evaluate(&evaluator, &pop, pop_size, n, cfg.threads, &mut fitness);

        for _ in 0..cfg.generations {
            // elitism: fittest individuals survive unchanged (stable order
            // keeps ties deterministic) and carry their known fitness —
            // only the freshly bred slots are re-evaluated below
            order.clear();
            order.extend(0..pop_size);
            order.sort_by_key(|&i| fitness[i]);
            let elites = cfg.elites.min(pop_size);
            elite_fitness.clear();
            for (slot, &i) in order.iter().take(elites).enumerate() {
                next[slot * n..(slot + 1) * n].copy_from_slice(&pop[i * n..(i + 1) * n]);
                elite_fitness.push(fitness[i]);
            }
            for slot in elites..pop_size {
                let a = tournament(&fitness, cfg.tournament, &mut rng);
                let b = tournament(&fitness, cfg.tournament, &mut rng);
                let (pa, pb) = (&pop[a * n..(a + 1) * n], &pop[b * n..(b + 1) * n]);
                let child = &mut next[slot * n..(slot + 1) * n];
                for i in 0..n {
                    child[i] = if rng.gen_bool(0.5) { pa[i] } else { pb[i] };
                    if rng.gen_bool(cfg.mutation_rate) {
                        child[i] = rng.gen_range(0..c) as u32;
                    }
                }
                repair(child, c, cap, &mut rng);
            }
            std::mem::swap(&mut pop, &mut next);
            fitness[..elites].copy_from_slice(&elite_fitness);
            evaluate(
                &evaluator,
                &pop[elites * n..],
                pop_size - elites,
                n,
                cfg.threads,
                &mut fitness[elites..],
            );
        }

        let best = (0..pop_size)
            .min_by_key(|&i| fitness[i])
            .expect("population is non-empty");
        problem.into_mapping(pop[best * n..(best + 1) * n].to_vec())
    }
}

/// Scores the whole population through the batched evaluator, chunked
/// across up to `threads` workers. Chunk boundaries never affect results
/// (each lane is evaluated independently and written to its own slot).
fn evaluate(
    evaluator: &SwarmEval<'_>,
    pop: &[u32],
    pop_size: usize,
    n: usize,
    threads: usize,
    fitness: &mut [u64],
) {
    let chunks = pool::map_ranges(pop_size, threads, |lanes| {
        let mut costs = vec![0u64; lanes.len()];
        evaluator.eval_swarm(
            &pop[lanes.start * n..lanes.end * n],
            lanes.len(),
            &mut SwarmScratch::default(),
            &mut costs,
        );
        costs
    });
    fitness.copy_from_slice(&chunks.concat());
}

/// Tournament selection: the fittest of `k` uniformly drawn individuals.
fn tournament(fitness: &[u64], k: usize, rng: &mut StdRng) -> usize {
    (0..k.max(1))
        .map(|_| rng.gen_range(0..fitness.len()))
        .min_by_key(|&i| fitness[i])
        .expect("k >= 1")
}

/// Moves neurons out of over-capacity crossbars into the least-loaded ones.
fn repair(chrom: &mut [u32], c: usize, cap: u32, rng: &mut StdRng) {
    let mut occ = vec![0u32; c];
    for &k in chrom.iter() {
        occ[k as usize] += 1;
    }
    for gene in chrom.iter_mut() {
        let k = *gene as usize;
        if occ[k] > cap {
            // candidate targets with space, pick the emptiest (ties random)
            let min = occ
                .iter()
                .enumerate()
                .filter(|(kk, &o)| *kk != k && o < cap)
                .map(|(_, &o)| o)
                .min();
            if let Some(min) = min {
                let options: Vec<usize> = occ
                    .iter()
                    .enumerate()
                    .filter(|(kk, &o)| *kk != k && o == min)
                    .map(|(kk, _)| kk)
                    .collect();
                let to = options[rng.gen_range(0..options.len())];
                occ[k] -= 1;
                occ[to] += 1;
                *gene = to as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;

    fn clusters() -> SpikeGraph {
        let mut synapses = Vec::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    synapses.push((a, b));
                    synapses.push((a + 3, b + 3));
                }
            }
        }
        synapses.push((1, 4));
        SpikeGraph::from_parts(6, synapses, vec![10; 6]).unwrap()
    }

    #[test]
    fn converges_to_natural_cut() {
        let g = clusters();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let m = GaPartitioner::new(GaConfig::default())
            .partition(&p)
            .unwrap();
        assert_eq!(p.cut_spikes(m.assignment()), 10);
    }

    #[test]
    fn optimizes_packets_too() {
        let g = clusters();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let cfg = GaConfig {
            fitness: FitnessKind::CutPackets,
            ..GaConfig::default()
        };
        let m = GaPartitioner::new(cfg).partition(&p).unwrap();
        assert_eq!(p.cut_packets(m.assignment()), 10);
    }

    #[test]
    fn repair_enforces_capacity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut chrom = vec![0u32; 10]; // everything on crossbar 0
        repair(&mut chrom, 3, 4, &mut rng);
        let mut occ = vec![0u32; 3];
        for &k in &chrom {
            occ[k as usize] += 1;
        }
        assert!(occ.iter().all(|&o| o <= 4), "{occ:?}");
    }

    #[test]
    fn deterministic() {
        let g = clusters();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let cfg = GaConfig {
            generations: 10,
            ..GaConfig::default()
        };
        let a = GaPartitioner::new(cfg).partition(&p).unwrap();
        let b = GaPartitioner::new(cfg).partition(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = clusters();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        let base = GaConfig {
            generations: 8,
            ..GaConfig::default()
        };
        let seq = GaPartitioner::new(GaConfig { threads: 1, ..base })
            .partition(&p)
            .unwrap();
        for threads in [2, 5, 16] {
            let par = GaPartitioner::new(GaConfig { threads, ..base })
                .partition(&p)
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn ga_population_scoring_uses_the_lifted_envelope() {
        // 100 crossbars: the GA's batched SwarmEval scoring now runs the
        // multi-word tiled path; results must stay thread-invariant and
        // feasible (batched == scalar cost equality at these widths is
        // covered by the `large_arch` block in tests/eval_properties.rs)
        use crate::eval::SwarmEval;
        use crate::graph::SpikeGraph;
        let mut rng = StdRng::seed_from_u64(23);
        let n = 150u32;
        let synapses: Vec<(u32, u32)> = (0..500)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10)).collect();
        let g = SpikeGraph::from_parts(n, synapses, counts).unwrap();
        let p = PartitionProblem::new(&g, 100, 2).unwrap();
        assert!(SwarmEval::new(p, FitnessKind::CutPackets).batched());
        let base = GaConfig {
            population: 12,
            generations: 6,
            fitness: FitnessKind::CutPackets,
            ..GaConfig::default()
        };
        let seq = GaPartitioner::new(GaConfig { threads: 1, ..base })
            .partition(&p)
            .unwrap();
        let par = GaPartitioner::new(GaConfig { threads: 4, ..base })
            .partition(&p)
            .unwrap();
        assert_eq!(seq, par, "chunked batched scoring must be thread-invariant");
        assert!(p.is_feasible(seq.assignment()));
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = clusters();
        let p = PartitionProblem::new(&g, 2, 3).unwrap();
        for cfg in [
            GaConfig {
                population: 1,
                ..GaConfig::default()
            },
            GaConfig {
                tournament: 0,
                ..GaConfig::default()
            },
            GaConfig {
                threads: 0,
                ..GaConfig::default()
            },
            GaConfig {
                mutation_rate: 1.5,
                ..GaConfig::default()
            },
        ] {
            assert!(GaPartitioner::new(cfg).partition(&p).is_err(), "{cfg:?}");
        }
    }
}
