//! Binary particle swarm optimization for SNN partitioning (paper §III).
//!
//! The search space has `D = N · C` binary dimensions: `x_{i,k} = 1` iff
//! neuron `i` sits on crossbar `k`. Velocities are real-valued and updated
//! with the canonical PSO rule (Eq. 1 with the standard stochastic
//! cognitive/social factors); positions are binarized through a sigmoid
//! (Eq. 2–3) and then **repaired** so that every particle always satisfies
//! the constraints: exactly one crossbar per neuron (Eq. 4) and crossbar
//! capacity (Eq. 5). The fitness is Eq. 8 — total spikes on the global
//! synapse interconnect — scored for the whole swarm at once by
//! [`SwarmEval`].
//!
//! ### Implementation notes (hot path)
//!
//! The swarm is stored **structure-of-arrays**, one shard per worker
//! ([`pool::ranges`] of the swarm): each shard owns one contiguous
//! velocity buffer (`particles × N × C` floats, `swarm × N × C` over the
//! swarm) and one contiguous assignment buffer (`particles × N`) for its
//! particle range, from round 0 to the end of the search. Binary-PSO
//! re-samples every neuron's crossbar each iteration (measured churn
//! 70%+), so per-particle O(deg) move deltas cannot beat a full scan
//! here; instead the whole shard is evaluated in
//! one pass over the CSR through [`SwarmEval`] — neuron-major tiles
//! whose per-edge lane compares vectorize and reuse every row `deg`
//! times from cache: byte tiles up to 256 crossbars for all three
//! objectives, u16 word tiles up to 1024 crossbars for `CutSpikes` and
//! `CutPackets` only ([`crate::eval`]). The per-candidate
//! incremental engine ([`crate::eval::Candidate`]) drives the low-churn
//! optimizers instead: refinement (this module's polish) and the
//! V-cycle's boundary refinement.
//!
//! The velocity update, re-binarization, and capacity repair are one
//! **fused masked-row sweep** per particle ([`Decoder::step`] in
//! [`crate::decode`]): inertia decay, the ≤ 4 stochastically pulled
//! dimensions per neuron (`k ∈ {own, pbest, gbest}`), and the decode all
//! happen while the neuron's velocity row is hot, so the `swarm × N × C`
//! buffer is traversed once per iteration instead of once for the
//! velocity rule and again for the decode. The decode adds an eligibility
//! row (`0.0` for a crossbar with room, `−∞` for a full one) to the
//! velocity row in one vectorized add-and-max pass, takes the first index
//! attaining the maximum, and on a rejection walks to that candidate's
//! successor in `(velocity desc, index asc)` order instead of re-scanning
//! against a set of tried candidates. This sweep is the largest piece of
//! a flat search (about half of `partition_traced` on 256–576 crossbars
//! before the masked-row kernel, about a third after; `perf_probe sweep`
//! re-measures it). The kernel ships with a scalar reference
//! implementation that is bit-identical by construction and by property
//! test, draw for draw.
//!
//! The whole particle step (fused velocity/decode sweep + evaluation +
//! personal-best tracking) runs on the phased worker pool of
//! `core::pool`, not on per-iteration spawned threads: each phased run
//! (round 0 in `SwarmState::new`, then one per `SwarmState::run_rounds`
//! call) spawns one worker per shard, moves the shards in and takes them
//! back. `search` is the one whole-swarm entry point — the flat
//! partitioner and both V-cycle swarms call it — and is itself `new`
//! plus one `run_rounds` over every iteration. The joint loop
//! (`crate::coopt`) makes the same calls, one `run_rounds` per segment,
//! with `SwarmState::reprice` between segments because it re-prices the
//! objective there; under an unchanged objective any split of the
//! iterations is the same search.
//!
//! ### Determinism contract
//!
//! Every particle owns its RNG stream (derived from the master seed in
//! particle order), workers own disjoint particle ranges, and the global
//! best is reduced in particle order on the caller's thread — so traces
//! are **byte-identical for any `threads` value**, including the
//! [`available_parallelism`](std::thread::available_parallelism) default.
//!
//! ### Faithfulness notes
//!
//! * The paper writes the velocity update without inertia or random
//!   factors; we use the standard constricted form (`w`, `φ₁·r₁`, `φ₂·r₂`)
//!   that Eberhart–Kennedy PSO implementations (including the ones the
//!   paper cites) use in practice, with the constants [`INERTIA`],
//!   [`PHI_P`] and [`PHI_G`]. The random factors are always drawn, so no
//!   setting reproduces the literal equation.
//! * The paper's Eq. 2 collapses the sigmoid to a hard step; the standard
//!   binary-PSO uses `rand() < sigmoid(v)`, which is what Eq. 3 samples.
//!   We implement the sampled form, testing candidate crossbars in
//!   descending-velocity order (the first accepted candidate *is* the
//!   highest-velocity accepted candidate, so this draws from the same
//!   distribution as testing every candidate independently).

use crate::decode::{DecodeScratch, Decoder, StepWeights};
use crate::error::CoreError;
use crate::eval::{SwarmEval, SwarmScratch};
use crate::partition::{FitnessKind, PartitionProblem, Partitioner};
use crate::pool;
use crate::refine::refine;
use neuromap_hw::mapping::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Inertia weight `w` of the velocity update (Clerc–Kennedy constriction).
pub const INERTIA: f32 = 0.72;
/// Cognitive acceleration φ₁ (toward the particle's own best).
pub const PHI_P: f32 = 1.49;
/// Social acceleration φ₂ (toward the swarm best).
pub const PHI_G: f32 = 1.49;
/// Velocity clamp: `v ∈ [−V_MAX, V_MAX]`.
pub const V_MAX: f32 = 4.0;

/// PSO hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PsoConfig {
    /// Number of particles (the paper sweeps 10–1000 and settles on 1000;
    /// the default here is a laptop-friendly 100).
    pub swarm_size: usize,
    /// Number of iterations (the paper fixes 100).
    pub iterations: u32,
    /// Master seed; every particle derives an independent stream.
    pub seed: u64,
    /// Worker threads for the particle step (defaults to
    /// [`std::thread::available_parallelism`]). Results are byte-identical
    /// for every value — this is purely an execution knob.
    pub threads: usize,
    /// Objective to minimize (Eq. 8 cut spikes by default).
    pub fitness: FitnessKind,
    /// Seed up to three particles with the deterministic baselines —
    /// PACMAN's packing, NEUTRAMS' round-robin interleave and dense
    /// sequential packing — so the swarm never regresses below them
    /// (memetic warm start; disable to measure pure random-initialized
    /// PSO as in Fig. 7).
    pub seed_baselines: bool,
    /// Greedy single-neuron polish passes applied to the final best
    /// (0 disables). Closes the gap between laptop-scale swarms and the
    /// paper's 1000×100 cloud runs.
    pub polish_passes: u32,
}

/// Number of logical CPUs, used as the default `threads` for every
/// optimizer configuration.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Default for PsoConfig {
    fn default() -> Self {
        Self {
            swarm_size: 100,
            iterations: 100,
            seed: 0xDA5,
            threads: default_threads(),
            fitness: FitnessKind::CutSpikes,
            seed_baselines: true,
            polish_passes: 4,
        }
    }
}

impl PsoConfig {
    /// The paper's experimental setting: swarm 1000, 100 iterations,
    /// pure PSO (no warm start, no polish).
    pub fn paper() -> Self {
        Self {
            swarm_size: 1000,
            iterations: 100,
            seed_baselines: false,
            polish_passes: 0,
            ..Self::default()
        }
    }

    /// Validates hyperparameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for zero swarm/iterations/threads.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.swarm_size == 0 {
            return Err(CoreError::InvalidParameter {
                name: "swarm_size",
                value: "0".into(),
            });
        }
        if self.iterations == 0 {
            return Err(CoreError::InvalidParameter {
                name: "iterations",
                value: "0".into(),
            });
        }
        if self.threads == 0 {
            return Err(CoreError::InvalidParameter {
                name: "threads",
                value: "0".into(),
            });
        }
        Ok(())
    }
}

/// Convergence trace of one PSO run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsoTrace {
    /// Best fitness after each iteration (monotone non-increasing).
    pub best_per_iteration: Vec<u64>,
    /// Iteration at which the final best was first reached.
    pub converged_at: u32,
}

/// What a worker reports after a round over its shard.
struct ShardReport {
    /// Best personal-best fitness in the shard.
    fitness: u64,
    /// Clone of the corresponding personal-best position — only made when
    /// it improves on the global best the shard saw this round.
    position: Option<Vec<u32>>,
}

/// One worker's particle range (one [`pool::ranges`] entry), owned for
/// the whole search: the range's structure-of-arrays buffers, its
/// particles' RNG streams and the worker's scratch.
struct Shard {
    /// Swarm index of the shard's first particle.
    start: usize,
    n: usize,
    c: usize,
    /// `particles × N × C` velocities.
    velocity: Vec<f32>,
    /// `particles × N` current assignments.
    position: Vec<u32>,
    /// `particles × N` personal-best assignments.
    best_position: Vec<u32>,
    best_fitness: Vec<u64>,
    /// One stream per particle, seeded from the master stream in particle
    /// order and carried across `run_rounds` calls.
    rngs: Vec<StdRng>,
    // scratch reused from round to round, freed between segments
    costs: Vec<u64>,
    scratch: SwarmScratch,
    decode_scratch: DecodeScratch,
}

impl Shard {
    fn particles(&self) -> usize {
        self.rngs.len()
    }

    /// Frees the round scratch; the next round grows it again.
    fn free_scratch(&mut self) {
        self.costs = Vec::new();
        self.scratch = SwarmScratch::default();
        self.decode_scratch = DecodeScratch::default();
    }

    /// Round 0: random velocities, initial decode, the warm starts whose
    /// swarm slot falls in this shard (in order, so a later one at the
    /// same slot wins), and the initial evaluation.
    fn init_round(
        &mut self,
        decoder: &Decoder,
        evaluator: &SwarmEval<'_>,
        starts: &[(usize, &[u32])],
    ) {
        let n = self.n;
        let dims = n * self.c;
        for (p, rng) in self.rngs.iter_mut().enumerate() {
            let vel = &mut self.velocity[p * dims..(p + 1) * dims];
            decoder.fill_velocity(vel, rng);
            decoder.decode(
                vel,
                rng,
                &mut self.position[p * n..(p + 1) * n],
                &mut self.decode_scratch,
            );
        }
        for &(slot, assignment) in starts {
            if let Some(p) = slot
                .checked_sub(self.start)
                .filter(|&p| p < self.particles())
            {
                self.position[p * n..(p + 1) * n].copy_from_slice(assignment);
            }
        }
        self.evaluate_and_track_best(evaluator, true);
    }

    /// Batched evaluation of every particle's current position, then
    /// personal-best bookkeeping ([`SwarmEval`] tiles the shard and
    /// vectorizes the cost kernels).
    fn evaluate_and_track_best(&mut self, evaluator: &SwarmEval<'_>, initial: bool) {
        let n = self.n;
        let count = self.particles();
        self.costs.resize(count, 0);
        evaluator.eval_swarm(&self.position, count, &mut self.scratch, &mut self.costs);
        for p in 0..count {
            let cost = self.costs[p];
            if initial || cost < self.best_fitness[p] {
                self.best_fitness[p] = cost;
                self.best_position[p * n..(p + 1) * n]
                    .copy_from_slice(&self.position[p * n..(p + 1) * n]);
            }
        }
    }

    /// One PSO step for every particle in the shard: the fused velocity
    /// update (Eq. 1) + re-binarization (Eq. 2–3) + repair (Eq. 4–5)
    /// sweep of [`Decoder::step`], then the batched evaluation.
    fn step_round(&mut self, decoder: &Decoder, evaluator: &SwarmEval<'_>, gbest: &[u32]) {
        let n = self.n;
        let dims = n * self.c;
        let weights = StepWeights {
            inertia: INERTIA,
            phi_p: PHI_P,
            phi_g: PHI_G,
        };
        for (p, rng) in self.rngs.iter_mut().enumerate() {
            decoder.step(
                weights,
                &mut self.velocity[p * dims..(p + 1) * dims],
                rng,
                &mut self.position[p * n..(p + 1) * n],
                &self.best_position[p * n..(p + 1) * n],
                gbest,
                &mut self.decode_scratch,
            );
        }
        self.evaluate_and_track_best(evaluator, false);
    }

    /// Shard-local best (first index wins ties) and, when it beats the
    /// global best this shard saw, a clone of its position.
    fn report(&self, seen_gbest: u64) -> ShardReport {
        let n = self.n;
        let mut best = u64::MAX;
        let mut best_p = 0;
        for (p, &f) in self.best_fitness.iter().enumerate() {
            if f < best {
                best = f;
                best_p = p;
            }
        }
        let position =
            (best < seen_gbest).then(|| self.best_position[best_p * n..(best_p + 1) * n].to_vec());
        ShardReport {
            fitness: best,
            position,
        }
    }
}

/// Resumable swarm state: the per-worker shards and the global best of a
/// PSO search in flight.
///
/// [`SwarmState::new`] runs round 0, [`SwarmState::run_rounds`] advances
/// the swarm in segments, and [`SwarmState::reprice`] re-values it when
/// the objective changes underneath — the joint co-optimization loop
/// ([`crate::coopt`]) permutes the hop-distance table between segments.
/// The shards are fixed at `new` and each keeps its particles, their RNG
/// streams included, to the end, so under an unchanged problem any split
/// of the iterations into `run_rounds` calls is the search [`search`]
/// runs, byte for byte.
pub(crate) struct SwarmState {
    fitness: FitnessKind,
    /// The swarm in particle order, one shard per worker.
    shards: Vec<Shard>,
    /// Best fitness seen so far, under the problem of the last
    /// `new`/`run_rounds`/`reprice` call.
    pub(crate) gbest_fitness: u64,
    /// Position of the global best (length `n`).
    pub(crate) gbest_position: Vec<u32>,
}

impl SwarmState {
    /// Creates the swarm for a problem and runs round 0 on the worker
    /// pool: every particle's RNG stream is seeded from the master stream
    /// in particle order, its velocities filled and decoded, the memetic
    /// baselines (when `cfg.seed_baselines`) replace the first particles
    /// and `warm_start` the last, and the initial evaluation appends the
    /// first entry to `trace`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming `swarm_size` when a swarm
    /// buffer (`swarm × N × C` velocities at the largest) has no
    /// representable length or byte size — checked here, where all three
    /// factors are first known, instead of wrapping or panicking in `Vec`.
    pub(crate) fn new(
        problem: &PartitionProblem<'_>,
        cfg: &PsoConfig,
        warm_start: Option<&[u32]>,
        trace: &mut Vec<u64>,
    ) -> Result<Self, CoreError> {
        let n = problem.graph().num_neurons() as usize;
        let c = problem.num_crossbars();
        let dims = n * c;
        let swarm = cfg.swarm_size;
        // no allocation exceeds `isize::MAX` bytes; elements are ≤ 8 wide
        let fits = |len: usize| len <= isize::MAX as usize / 8;
        let cells = swarm.checked_mul(n).and_then(|v| v.checked_mul(c));
        if !cells.is_some_and(|cells| fits(cells) && fits(swarm)) {
            return Err(CoreError::InvalidParameter {
                name: "swarm_size",
                value: format!("{swarm} particles x {n} neurons x {c} crossbars overflows"),
            });
        }

        // memetic warm start: drop the deterministic baselines into the
        // swarm so gbest starts no worse than any of them
        let mut baselines: Vec<Vec<u32>> = Vec::new();
        if cfg.seed_baselines {
            let cap = problem.capacity();
            // hierarchical population packing (the actual PACMAN layout)
            if let Ok(m) = crate::baselines::PacmanPartitioner::new().partition(problem) {
                baselines.push(m.assignment().to_vec());
            }
            // round-robin interleave (NEUTRAMS)
            if let Ok(m) = crate::baselines::NeutramsPartitioner::new().partition(problem) {
                baselines.push(m.assignment().to_vec());
            }
            // dense sequential packing
            baselines.push((0..n as u32).map(|i| i / cap).collect());
        }
        let mut starts: Vec<(usize, &[u32])> = baselines
            .iter()
            .filter(|cand| problem.is_feasible(cand))
            .map(Vec::as_slice)
            .take(swarm)
            .enumerate()
            .collect();
        starts.extend(warm_start.map(|assignment| (swarm - 1, assignment)));

        let mut master = StdRng::seed_from_u64(cfg.seed);
        let shards = pool::ranges(swarm, cfg.threads)
            .into_iter()
            .map(|range| Shard {
                start: range.start,
                n,
                c,
                velocity: vec![0f32; range.len() * dims],
                position: vec![0u32; range.len() * n],
                best_position: vec![0u32; range.len() * n],
                best_fitness: vec![u64::MAX; range.len()],
                rngs: range.map(|_| StdRng::seed_from_u64(master.gen())).collect(),
                costs: Vec::new(),
                scratch: SwarmScratch::default(),
                decode_scratch: DecodeScratch::default(),
            })
            .collect();
        let mut state = Self {
            fitness: cfg.fitness,
            shards,
            gbest_fitness: u64::MAX,
            gbest_position: Vec::new(),
        };
        let evaluator = SwarmEval::new(*problem, cfg.fitness);
        let decoder = decoder(problem);
        state.run_phased(1, trace, |shard, _| {
            shard.init_round(&decoder, &evaluator, &starts);
        });
        Ok(state)
    }

    /// Advances the swarm by `rounds` PSO iterations on the worker pool,
    /// appending the global best after each round to `trace`. Evaluates
    /// against `problem` as given, which may attach a different hop table
    /// than the previous segment's ([`SwarmState::reprice`] re-values the
    /// carried bests first in that case).
    pub(crate) fn run_rounds(
        &mut self,
        problem: &PartitionProblem<'_>,
        rounds: u32,
        trace: &mut Vec<u64>,
    ) {
        let evaluator = SwarmEval::new(*problem, self.fitness);
        let decoder = decoder(problem);
        self.run_phased(rounds, trace, |shard, gbest| {
            shard.step_round(&decoder, &evaluator, gbest);
        });
    }

    /// Re-values the personal bests and the global best under a new
    /// problem (same graph and shape, different fitness pricing — the
    /// joint loop swaps the hop table between segments): each shard
    /// evaluates its bests, and the global best is the first
    /// lowest-fitness particle, by the fold every round uses.
    pub(crate) fn reprice(&mut self, problem: &PartitionProblem<'_>) {
        let evaluator = SwarmEval::new(*problem, self.fitness);
        let reports = self
            .shards
            .iter_mut()
            .map(|shard| {
                let count = shard.particles();
                evaluator.eval_swarm(
                    &shard.best_position,
                    count,
                    &mut shard.scratch,
                    &mut shard.best_fitness,
                );
                shard.report(u64::MAX)
            })
            .collect();
        self.gbest_fitness = u64::MAX;
        self.fold(reports);
    }

    /// Moves the shards into [`pool::run_phased`] for `rounds` rounds of
    /// `work` (which sees the global best as of the round's start), folds
    /// each round's reports into the global best, appends it to `trace`,
    /// and takes the shards back with their round scratch freed, so
    /// nothing of it stays allocated while the caller works between
    /// segments (the joint loop places between them).
    fn run_phased(
        &mut self,
        rounds: u32,
        trace: &mut Vec<u64>,
        work: impl Fn(&mut Shard, &[u32]) + Sync,
    ) {
        let first_cmd = (self.gbest_fitness, Arc::new(self.gbest_position.clone()));
        let mut gbest_shared = Arc::clone(&first_cmd.1);
        self.shards = pool::run_phased(
            std::mem::take(&mut self.shards),
            rounds,
            first_cmd,
            |_round, (seen_fit, seen_pos), shard| {
                work(shard, seen_pos);
                shard.report(*seen_fit)
            },
            |_round, reports| {
                if self.fold(reports) {
                    gbest_shared = Arc::new(self.gbest_position.clone());
                }
                trace.push(self.gbest_fitness);
                Some((self.gbest_fitness, Arc::clone(&gbest_shared)))
            },
        );
        self.shards.iter_mut().for_each(Shard::free_scratch);
    }

    /// Folds shard reports into the global best; returns whether it
    /// improved. Shard order is particle order and strict `<` keeps the
    /// first (lowest-index) particle on ties, matching a sequential scan
    /// of the whole swarm — so the result is the same for every
    /// `threads` value.
    fn fold(&mut self, reports: Vec<ShardReport>) -> bool {
        let mut improved = false;
        for report in reports {
            if report.fitness < self.gbest_fitness {
                self.gbest_fitness = report.fitness;
                self.gbest_position = report
                    .position
                    .expect("improving shard attaches its position");
                improved = true;
            }
        }
        improved
    }
}

/// The swarm-step kernel for a problem's shape.
fn decoder(problem: &PartitionProblem<'_>) -> Decoder {
    let n = problem.graph().num_neurons() as usize;
    Decoder::new(n, problem.num_crossbars(), problem.capacity(), V_MAX)
}

/// One whole swarm search: the init round plus `cfg.iterations` steps,
/// the global best after each appended to `trace`; returns the global
/// best `(position, fitness)`. The caller has validated `cfg` and the
/// objective.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] from [`SwarmState::new`].
pub(crate) fn search(
    problem: &PartitionProblem<'_>,
    cfg: &PsoConfig,
    trace: &mut Vec<u64>,
) -> Result<(Vec<u32>, u64), CoreError> {
    let mut state = SwarmState::new(problem, cfg, None, trace)?;
    state.run_rounds(problem, cfg.iterations, trace);
    Ok((state.gbest_position, state.gbest_fitness))
}

/// The paper's PSO-based partitioner.
///
/// ```
/// use neuromap_core::graph::SpikeGraph;
/// use neuromap_core::partition::{Partitioner, PartitionProblem};
/// use neuromap_core::pso::{PsoConfig, PsoPartitioner};
///
/// # fn main() -> Result<(), neuromap_core::CoreError> {
/// // two dense 3-cliques joined by one weak synapse
/// let mut synapses = Vec::new();
/// for a in 0..3u32 { for b in 0..3u32 { if a != b { synapses.push((a, b)); } } }
/// for a in 3..6u32 { for b in 3..6u32 { if a != b { synapses.push((a, b)); } } }
/// synapses.push((2, 3));
/// let graph = SpikeGraph::from_parts(6, synapses, vec![10; 6])?;
/// let problem = PartitionProblem::new(&graph, 2, 3)?;
///
/// let pso = PsoPartitioner::new(PsoConfig { swarm_size: 30, iterations: 40, ..PsoConfig::default() });
/// let mapping = pso.partition(&problem)?;
/// // the optimum cuts only the bridge: 10 spikes
/// assert_eq!(problem.cut_spikes(mapping.assignment()), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PsoPartitioner {
    config: PsoConfig,
}

impl PsoPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PsoConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PsoConfig {
        &self.config
    }

    /// Runs the optimization, returning the mapping and the convergence
    /// trace (Fig. 7-style analyses need the trace).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for invalid configuration or a
    /// [`FitnessKind::CutHops`] objective on a problem without a hop
    /// table, [`CoreError::Infeasible`] if the problem cannot be
    /// satisfied.
    pub fn partition_traced(
        &self,
        problem: &PartitionProblem<'_>,
    ) -> Result<(Mapping, PsoTrace), CoreError> {
        self.config.validate()?;
        let cfg = self.config;
        problem.check_objective(cfg.fitness)?;

        let mut best_per_iteration = Vec::new();
        let (mut gbest_pos, mut gbest_fit) = search(problem, &cfg, &mut best_per_iteration)?;

        // converged_at = last round whose reduction improved the global
        // best (round 0, the initial evaluation, never counts)
        let mut converged_at = 0u32;
        for i in 1..best_per_iteration.len() {
            if best_per_iteration[i] < best_per_iteration[i - 1] {
                converged_at = i as u32;
            }
        }
        let mut trace = PsoTrace {
            best_per_iteration,
            converged_at,
        };

        // greedy polish of the final best
        if cfg.polish_passes > 0 {
            let polished = refine(problem, cfg.fitness, &mut gbest_pos, cfg.polish_passes);
            if polished < gbest_fit {
                gbest_fit = polished;
                trace.converged_at = cfg.iterations;
            }
            trace.best_per_iteration.push(gbest_fit);
        }

        let mapping = problem.into_mapping(gbest_pos)?;
        Ok((mapping, trace))
    }
}

impl Partitioner for PsoPartitioner {
    fn name(&self) -> &'static str {
        "pso"
    }

    fn partition(&self, problem: &PartitionProblem<'_>) -> Result<Mapping, CoreError> {
        self.partition_traced(problem).map(|(m, _)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;

    fn two_clusters(bridge_spikes: u32) -> SpikeGraph {
        let mut synapses = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    synapses.push((a, b));
                }
            }
        }
        for a in 4..8u32 {
            for b in 4..8u32 {
                if a != b {
                    synapses.push((a, b));
                }
            }
        }
        synapses.push((0, 4));
        let mut counts = vec![50u32; 8];
        counts[0] = bridge_spikes;
        SpikeGraph::from_parts(8, synapses, counts).unwrap()
    }

    #[test]
    fn finds_the_natural_bipartition() {
        let g = two_clusters(50);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 40,
            iterations: 60,
            ..PsoConfig::default()
        });
        let m = pso.partition(&p).unwrap();
        // optimum: clusters separated, only the bridge cut → 50 spikes
        assert_eq!(p.cut_spikes(m.assignment()), 50);
    }

    #[test]
    fn respects_capacity() {
        let g = two_clusters(10);
        let p = PartitionProblem::new(&g, 4, 2).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 20,
            iterations: 20,
            ..PsoConfig::default()
        });
        let m = pso.partition(&p).unwrap();
        assert!(m.occupancy().iter().all(|&o| o <= 2));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_clusters(25);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        let cfg = PsoConfig {
            swarm_size: 15,
            iterations: 15,
            seed: 7,
            ..PsoConfig::default()
        };
        let a = PsoPartitioner::new(cfg).partition(&p).unwrap();
        let b = PsoPartitioner::new(cfg).partition(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = two_clusters(25);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        let seq = PsoConfig {
            swarm_size: 16,
            iterations: 10,
            threads: 1,
            ..PsoConfig::default()
        };
        for threads in [2, 3, 4, 16] {
            let par = PsoConfig { threads, ..seq };
            let (a, ta) = PsoPartitioner::new(seq).partition_traced(&p).unwrap();
            let (b, tb) = PsoPartitioner::new(par).partition_traced(&p).unwrap();
            assert_eq!(
                a, b,
                "threading must not change results ({threads} threads)"
            );
            assert_eq!(
                ta, tb,
                "threading must not change traces ({threads} threads)"
            );
        }
    }

    #[test]
    fn incremental_matches_full_recompute_path() {
        // the traced best must price as a full recompute of the returned
        // mapping (the engine contract, end to end through PSO)
        let g = two_clusters(30);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        for fitness in [FitnessKind::CutSpikes, FitnessKind::CutPackets] {
            let cfg = PsoConfig {
                swarm_size: 12,
                iterations: 12,
                fitness,
                ..PsoConfig::default()
            };
            let (m, t) = PsoPartitioner::new(cfg).partition_traced(&p).unwrap();
            let full = p.cost(fitness, m.assignment());
            assert_eq!(
                *t.best_per_iteration.last().unwrap(),
                full,
                "{fitness:?}: trace must match a full recompute of the result"
            );
        }
    }

    #[test]
    fn trace_is_monotone() {
        let g = two_clusters(30);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 20,
            iterations: 25,
            ..PsoConfig::default()
        });
        let (_, trace) = pso.partition_traced(&p).unwrap();
        // iterations + initial entry + one polish entry (polish on by default)
        assert_eq!(trace.best_per_iteration.len(), 27);
        assert!(trace.best_per_iteration.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn bigger_swarms_do_not_do_worse() {
        // the Fig. 7 premise: more particles → equal or better energy
        let g = two_clusters(40);
        let p = PartitionProblem::new(&g, 4, 2).unwrap();
        let run = |n: usize| {
            let pso = PsoPartitioner::new(PsoConfig {
                swarm_size: n,
                iterations: 30,
                seed: 11,
                ..PsoConfig::default()
            });
            let m = pso.partition(&p).unwrap();
            p.cut_spikes(m.assignment())
        };
        assert!(run(64) <= run(4));
    }

    #[test]
    fn segmented_rounds_equal_one_search() {
        // the joint loop runs a search as `new` plus several `run_rounds`
        // segments; under an unchanged problem that is one `search`, byte
        // for byte, at every thread count (shard sizes 7; 4 + 3; 2+2+1+1+1)
        let synapses = (0..24u32)
            .flat_map(|i| [(i, (i + 1) % 24), (i, (i + 5) % 24)])
            .collect();
        let g = SpikeGraph::from_parts(24, synapses, (1..=24).collect()).unwrap();
        let p = PartitionProblem::new(&g, 6, 4).unwrap();
        for threads in [1, 2, 5] {
            let cfg = PsoConfig {
                swarm_size: 7,
                iterations: 12,
                threads,
                seed: 3,
                seed_baselines: false,
                ..PsoConfig::default()
            };
            let mut whole = Vec::new();
            let (position, fitness) = search(&p, &cfg, &mut whole).unwrap();
            assert!(
                whole[0] > fitness,
                "the search must move for the test to bite"
            );

            let mut trace = Vec::new();
            let mut state = SwarmState::new(&p, &cfg, None, &mut trace).unwrap();
            for rounds in [1, 3, cfg.iterations - 4] {
                state.run_rounds(&p, rounds, &mut trace);
            }
            assert_eq!(trace, whole, "{threads} threads: trace");
            assert_eq!(state.gbest_position, position, "{threads} threads");
            assert_eq!(state.gbest_fitness, fitness, "{threads} threads");

            // re-valuing under the same problem finds the same best again
            state.reprice(&p);
            assert_eq!(state.gbest_fitness, fitness, "{threads} threads: reprice");
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let g = two_clusters(1);
        let p = PartitionProblem::new(&g, 2, 4).unwrap();
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 0,
            ..PsoConfig::default()
        });
        assert!(pso.partition(&p).is_err());
        let pso = PsoPartitioner::new(PsoConfig {
            threads: 0,
            ..PsoConfig::default()
        });
        assert!(pso.partition(&p).is_err());
        // the traced entry point validates too, naming the field
        type Spoil = fn(&mut PsoConfig);
        let cases: [(&str, Spoil); 3] = [
            ("swarm_size", |c| c.swarm_size = 0),
            ("iterations", |c| c.iterations = 0),
            ("threads", |c| c.threads = 0),
        ];
        for (name, spoil) in cases {
            let mut bad = PsoConfig::default();
            spoil(&mut bad);
            match PsoPartitioner::new(bad).partition_traced(&p) {
                Err(CoreError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("{name}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn threads_default_to_available_parallelism() {
        assert_eq!(PsoConfig::default().threads, default_threads());
        assert!(PsoConfig::default().threads >= 1);
    }

    #[test]
    fn large_arch_pso_stays_batched_and_consistent() {
        // 81 crossbars: the multi-word CutPackets envelope, end to end
        // through a PSO run — trace tail must equal a scalar recompute
        let g = two_clusters(30);
        // widen the graph so an 81-crossbar instance is feasible
        let mut synapses = g.synapses().to_vec();
        for i in 8..90u32 {
            synapses.push((i % 8, i));
        }
        let g = SpikeGraph::from_parts(90, synapses, vec![3; 90]).unwrap();
        let p = PartitionProblem::new(&g, 81, 2).unwrap();
        assert!(SwarmEval::new(p, FitnessKind::CutPackets).batched());
        let cfg = PsoConfig {
            swarm_size: 10,
            iterations: 8,
            fitness: FitnessKind::CutPackets,
            seed_baselines: false,
            polish_passes: 0,
            ..PsoConfig::default()
        };
        let (m, t) = PsoPartitioner::new(cfg).partition_traced(&p).unwrap();
        assert_eq!(
            *t.best_per_iteration.last().unwrap(),
            p.cut_packets(m.assignment())
        );
    }
}
