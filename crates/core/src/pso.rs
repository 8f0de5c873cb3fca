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
//! The swarm is stored **structure-of-arrays**: one contiguous velocity
//! buffer (`swarm × N × C` floats) and one contiguous assignment buffer
//! (`swarm × N`). Binary-PSO re-samples every neuron's crossbar each
//! iteration (measured churn 70%+), so per-particle O(deg) move deltas
//! cannot beat a full scan here; instead the whole shard is evaluated in
//! one pass over the CSR through [`SwarmEval`] — neuron-major byte tiles
//! whose per-edge lane compares vectorize and reuse every row `deg`
//! times from cache (multi-word remote-crossbar bitmasks keep the tiled
//! path up to 256 crossbars for both objectives). The per-candidate
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
//! personal-best tracking) runs on a persistent worker pool created once
//! per `run_rounds` call (`core::pool`), not on per-iteration spawned
//! threads. `search` is the one whole-swarm entry point — the flat
//! partitioner and both V-cycle swarms call it; only the joint loop
//! (`crate::coopt`) drives `SwarmState` in segments itself, because it
//! re-prices the objective between them.
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

/// What a worker reports after stepping its particle range.
struct ShardReport {
    /// Best personal-best fitness in the shard.
    fitness: u64,
    /// Clone of the corresponding personal-best position — only made when
    /// it improves on the global best the shard saw this round.
    position: Option<Vec<u32>>,
}

/// One worker's particle range, as disjoint views into the swarm's
/// structure-of-arrays buffers.
struct Shard<'a, 'g> {
    evaluator: &'a SwarmEval<'g>,
    decoder: &'a Decoder,
    n: usize,
    c: usize,
    /// Per-particle RNG seeds (drawn from the master stream in particle
    /// order on the caller's thread).
    seeds: &'a [u64],
    /// Warm-start assignments to inject after the initial decode, as
    /// (shard-local particle index, assignment).
    injections: Vec<(usize, Vec<u32>)>,
    velocity: &'a mut [f32],
    position: &'a mut [u32],
    best_position: &'a mut [u32],
    best_fitness: &'a mut [u64],
    rngs: Vec<StdRng>,
    // reusable scratch
    costs: Vec<u64>,
    scratch: SwarmScratch,
    decode_scratch: DecodeScratch,
}

impl Shard<'_, '_> {
    fn particles(&self) -> usize {
        self.seeds.len()
    }

    /// Round 0: create RNG streams, random velocities, initial decode,
    /// warm-start injection, and the initial full evaluation.
    fn init_round(&mut self) {
        let (n, c) = (self.n, self.c);
        let dims = n * c;
        self.rngs = self
            .seeds
            .iter()
            .map(|&s| StdRng::seed_from_u64(s))
            .collect();
        for p in 0..self.particles() {
            let rng = &mut self.rngs[p];
            let vel = &mut self.velocity[p * dims..(p + 1) * dims];
            self.decoder.fill_velocity(vel, rng);
            self.decoder.decode(
                vel,
                rng,
                &mut self.position[p * n..(p + 1) * n],
                &mut self.decode_scratch,
            );
        }
        for (p, seed_assignment) in std::mem::take(&mut self.injections) {
            self.position[p * n..(p + 1) * n].copy_from_slice(&seed_assignment);
        }
        self.evaluate_and_track_best(true);
    }

    /// Batched evaluation of every particle's current position, then
    /// personal-best bookkeeping ([`SwarmEval`] tiles the shard and
    /// vectorizes the cost kernels).
    fn evaluate_and_track_best(&mut self, initial: bool) {
        let n = self.n;
        let count = self.particles();
        self.costs.resize(count, 0);
        self.evaluator
            .eval_swarm(self.position, count, &mut self.scratch, &mut self.costs);
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
    fn step_round(&mut self, gbest: &[u32]) {
        let n = self.n;
        let dims = n * self.c;
        let weights = StepWeights {
            inertia: INERTIA,
            phi_p: PHI_P,
            phi_g: PHI_G,
        };
        for p in 0..self.particles() {
            self.decoder.step(
                weights,
                &mut self.velocity[p * dims..(p + 1) * dims],
                &mut self.rngs[p],
                &mut self.position[p * n..(p + 1) * n],
                &self.best_position[p * n..(p + 1) * n],
                gbest,
                &mut self.decode_scratch,
            );
        }

        // --- batched evaluation + personal best ---
        self.evaluate_and_track_best(false);
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

/// Resumable swarm state: the structure-of-arrays buffers, per-particle
/// RNG streams, and the global best of a PSO search in flight.
///
/// Created by [`SwarmState::new`], advanced in segments by [`run_rounds`],
/// and re-valued by [`reseat_best`] when the objective changes underneath
/// the swarm — the joint co-optimization loop ([`crate::coopt`]) permutes
/// the hop-distance table between segments. One `run_rounds` call over the
/// full iteration budget is exactly the search
/// [`PsoPartitioner::partition_traced`] runs, byte for byte; segmenting it
/// changes nothing when the problem stays the same, because every particle
/// RNG stream is carried across segment boundaries in particle order.
pub(crate) struct SwarmState {
    n: usize,
    c: usize,
    /// Per-particle RNG seeds, drawn from the master stream in particle
    /// order (thread-count independent).
    seeds: Vec<u64>,
    /// Warm-start assignments, consumed by the init round.
    injections: Vec<(usize, Vec<u32>)>,
    velocity: Vec<f32>,
    position: Vec<u32>,
    best_position: Vec<u32>,
    best_fitness: Vec<u64>,
    /// Per-particle RNG streams in particle order; empty until the init
    /// round creates them (inside the shards, from `seeds`), then carried
    /// across `run_rounds` calls so segmented runs resume the exact
    /// streams an unsegmented run would use.
    rngs: Vec<StdRng>,
    /// Best fitness seen so far, under the problem of the last
    /// `run_rounds`/`reseat_best` call.
    pub(crate) gbest_fitness: u64,
    /// Position of the global best (length `n`).
    pub(crate) gbest_position: Vec<u32>,
}

impl SwarmState {
    /// Allocates the swarm for a problem: seeds every particle from the
    /// master stream and stages the memetic warm-start injections. No
    /// evaluation happens until the first [`run_rounds`] call.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming `swarm_size` when a swarm
    /// buffer (`swarm × N × C` velocities at the largest) has no
    /// representable length or byte size — checked here, where all three
    /// factors are first known, instead of wrapping or panicking in `Vec`.
    pub(crate) fn new(problem: &PartitionProblem<'_>, cfg: &PsoConfig) -> Result<Self, CoreError> {
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

        let mut master = StdRng::seed_from_u64(cfg.seed);
        let seeds: Vec<u64> = (0..swarm).map(|_| master.gen()).collect();

        // memetic warm start: drop the deterministic baselines into the
        // swarm so gbest starts no worse than any of them
        let mut injections: Vec<(usize, Vec<u32>)> = Vec::new();
        if cfg.seed_baselines {
            let cap = problem.capacity();
            let mut candidates: Vec<Vec<u32>> = Vec::new();
            // hierarchical population packing (the actual PACMAN layout)
            if let Ok(m) = crate::baselines::PacmanPartitioner::new().partition(problem) {
                candidates.push(m.assignment().to_vec());
            }
            // round-robin interleave (NEUTRAMS)
            candidates.push((0..n as u32).map(|i| i % c as u32).collect());
            // dense sequential packing
            candidates.push((0..n as u32).map(|i| i / cap).collect());
            let mut slot = 0;
            for cand in candidates {
                if slot < swarm && problem.is_feasible(&cand) {
                    injections.push((slot, cand));
                    slot += 1;
                }
            }
        }

        Ok(Self {
            n,
            c,
            seeds,
            injections,
            velocity: vec![0f32; swarm * dims],
            position: vec![0u32; swarm * n],
            best_position: vec![0u32; swarm * n],
            best_fitness: vec![u64::MAX; swarm],
            rngs: Vec::new(),
            gbest_fitness: u64::MAX,
            gbest_position: Vec::new(),
        })
    }

    /// Stages one more warm-start assignment for the init round, placed
    /// at particle `slot` (clamped to the swarm). Injections are applied
    /// in staging order, so a later injection at an occupied slot wins.
    /// Consumed by the next `init` round; a no-op afterwards.
    pub(crate) fn inject(&mut self, slot: usize, assignment: Vec<u32>) {
        debug_assert_eq!(assignment.len(), self.n);
        let slot = slot.min(self.seeds.len().saturating_sub(1));
        self.injections.push((slot, assignment));
    }
}

/// Advances the swarm by `rounds` PSO iterations on the worker pool,
/// appending the global best after each round to `trace`.
///
/// With `init` set, an extra round 0 runs first (RNG-stream creation,
/// random velocities, initial decode, warm-start injection, initial
/// evaluation) and also appends its entry — exactly the
/// `iterations + 1` phased rounds of a full [`PsoPartitioner`] run.
/// Without it, the call continues from the state's carried RNG streams
/// and global best, evaluating against `problem` as given — which may
/// attach a different hop table than the previous segment's
/// ([`reseat_best`] re-values the carried bests first in that case).
///
/// Deterministic for every `cfg.threads` value: shard carving, per-round
/// reduction order, and tie-breaking are all in particle order.
pub(crate) fn run_rounds(
    problem: &PartitionProblem<'_>,
    cfg: &PsoConfig,
    state: &mut SwarmState,
    rounds: u32,
    init: bool,
    trace: &mut Vec<u64>,
) {
    let (n, c) = (state.n, state.c);
    let dims = n * c;
    let swarm = state.seeds.len();
    let evaluator = SwarmEval::new(*problem, cfg.fitness);
    let decoder = Decoder::new(n, c, problem.capacity(), V_MAX);

    // carve the buffers into per-worker shards (deterministic layout;
    // the per-particle math is identical for every partitioning)
    let particles = pool::ranges(swarm, cfg.threads);
    let SwarmState {
        seeds,
        injections,
        velocity,
        position,
        best_position,
        best_fitness,
        rngs,
        gbest_fitness,
        gbest_position,
        ..
    } = state;
    let mut shards: Vec<Shard<'_, '_>> = Vec::with_capacity(particles.len());
    {
        let mut seeds_rest = &seeds[..];
        let mut rngs_rest = std::mem::take(rngs);
        let (mut vel_rest, mut pos_rest, mut bpos_rest, mut bfit_rest) = (
            &mut velocity[..],
            &mut position[..],
            &mut best_position[..],
            &mut best_fitness[..],
        );
        for owned in particles {
            let count = owned.len();
            let (s, rest) = seeds_rest.split_at(count);
            seeds_rest = rest;
            let shard_rngs: Vec<StdRng> = if rngs_rest.is_empty() {
                Vec::new()
            } else {
                rngs_rest.drain(..count).collect()
            };
            let (v, rest) = vel_rest.split_at_mut(count * dims);
            vel_rest = rest;
            let (p, rest) = pos_rest.split_at_mut(count * n);
            pos_rest = rest;
            let (bp, rest) = bpos_rest.split_at_mut(count * n);
            bpos_rest = rest;
            let (bf, rest) = bfit_rest.split_at_mut(count);
            bfit_rest = rest;
            let local_inj = injections
                .iter()
                .filter(|(g, _)| owned.contains(g))
                .map(|(g, a)| (g - owned.start, a.clone()))
                .collect();
            shards.push(Shard {
                evaluator: &evaluator,
                decoder: &decoder,
                n,
                c,
                seeds: s,
                injections: local_inj,
                velocity: v,
                position: p,
                best_position: bp,
                best_fitness: bf,
                rngs: shard_rngs,
                costs: Vec::new(),
                scratch: SwarmScratch::default(),
                decode_scratch: DecodeScratch::default(),
            });
        }
    }
    injections.clear();

    let first_cmd = if init {
        (u64::MAX, Arc::new(Vec::new()))
    } else {
        (*gbest_fitness, Arc::new(gbest_position.clone()))
    };
    let mut gbest_shared: Arc<Vec<u32>> = Arc::clone(&first_cmd.1);
    let shards = pool::run_phased(
        shards,
        if init { rounds + 1 } else { rounds },
        first_cmd,
        |round, (seen_fit, seen_pos), shard| {
            if init && round == 0 {
                shard.init_round();
            } else {
                shard.step_round(seen_pos.as_slice());
            }
            shard.report(*seen_fit)
        },
        |_round, reports| {
            // worker-index order == particle order; strict `<` keeps
            // the first (lowest-index) particle on ties, matching a
            // sequential scan of the whole swarm
            let mut improved = false;
            for report in reports {
                if report.fitness < *gbest_fitness {
                    *gbest_fitness = report.fitness;
                    *gbest_position = report
                        .position
                        .expect("improving shard attaches its position");
                    improved = true;
                }
            }
            if improved {
                gbest_shared = Arc::new(gbest_position.clone());
            }
            trace.push(*gbest_fitness);
            Some((*gbest_fitness, Arc::clone(&gbest_shared)))
        },
    );
    // carry the RNG streams out of the shards, back into particle order
    state.rngs = shards.into_iter().flat_map(|s| s.rngs).collect();
}

/// Re-values the carried personal bests and the global best under a new
/// problem (same graph and shape, different fitness pricing — the joint
/// loop swaps the hop table between segments). Single-threaded and
/// deterministic: the global best is the first lowest-fitness particle,
/// the tie-break a sequential swarm scan uses.
pub(crate) fn reseat_best(problem: &PartitionProblem<'_>, cfg: &PsoConfig, state: &mut SwarmState) {
    let evaluator = SwarmEval::new(*problem, cfg.fitness);
    let mut scratch = SwarmScratch::default();
    let count = state.seeds.len();
    let mut costs = vec![0u64; count];
    evaluator.eval_swarm(&state.best_position, count, &mut scratch, &mut costs);
    state.best_fitness.copy_from_slice(&costs);
    let mut best = u64::MAX;
    let mut best_p = 0;
    for (p, &f) in costs.iter().enumerate() {
        if f < best {
            best = f;
            best_p = p;
        }
    }
    state.gbest_fitness = best;
    state.gbest_position = state.best_position[best_p * state.n..(best_p + 1) * state.n].to_vec();
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
    let mut state = SwarmState::new(problem, cfg)?;
    // round 0 = initial evaluation; rounds 1..=iterations = PSO steps
    run_rounds(problem, cfg, &mut state, cfg.iterations, true, trace);
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
