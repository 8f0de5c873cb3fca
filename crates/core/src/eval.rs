//! Incremental fitness engine shared by every partitioning optimizer.
//!
//! The paper's experiments run PSO with a swarm of 1000 for 100
//! iterations (§III, Fig. 5–7); evaluating Eq. 8 from scratch for every
//! particle at every iteration costs O(E) per evaluation and dominates
//! paper-scale runs. This module maintains **per-candidate cached state**
//! ([`Candidate`]) and updates it in O(deg) per migrated neuron; the
//! [`EvalEngine`] it prices against is immutable problem context.
//!
//! ## Cached state per candidate
//!
//! * `CutSpikes` (Eq. 8): the running cut-spike total. A single-neuron
//!   migration is re-costed from the neuron's in/out CSR rows alone.
//! * `CutPackets` (multicast-aware): the running packet total plus a
//!   per-source tally `cnt[p][k]` = number of `p`'s targets on crossbar
//!   `k` — the same bookkeeping the greedy refiner used internally, now
//!   shared by every optimizer. A move is priced in O(deg): one
//!   comparison each on the migrating neuron's old and new crossbar
//!   (its self-loops migrate with it), one per distinct source.
//! * `CutHops` (hop-aware): the same tallies as `CutPackets`, with every
//!   remote crossbar priced by the interconnect hop distance from the
//!   source's home crossbar (the problem must carry a
//!   [`crate::partition::PartitionProblem::with_hops`] table). A move
//!   delta is two halves: the per-neuron half — one O(C) scan of the
//!   migrating neuron's tally row for its distinct-target crossbars
//!   `T_i` and their distance from its current home, plus what leaving
//!   that home saves its sources, O(deg_in) — and the per-target half,
//!   O(|T_i| + deg_in), which reprices `T_i` from the new home and each
//!   source for the crossbar it joins. [`Candidate::best_move`] builds
//!   the first half once per neuron and pays only the second per open
//!   target.
//!
//! ## Invariants
//!
//! * After any sequence of [`Candidate::apply`] calls,
//!   [`Candidate::cost`] equals the full recomputation on the current
//!   assignment (property-tested in `tests/eval_properties.rs` across
//!   random move sequences and every fitness kind).
//! * [`Candidate::move_delta`] and [`Candidate::best_move`] are pure:
//!   they never mutate state and are exact for the *current* assignment
//!   (deltas of stacked hypothetical moves must be applied one at a
//!   time).
//!
//! ## Determinism contract
//!
//! The engine is RNG-free and allocation-stable: identical call sequences
//! produce identical states bit for bit, on any machine and any thread
//! count. Optimizers keep their determinism guarantees when they move
//! per-candidate state into worker threads, as long as each candidate is
//! stepped by exactly one worker per round (see `neuromap_core::pool`).
//!
//! ## Batched envelope (large architectures)
//!
//! The whole-swarm evaluator ([`SwarmEval`]) tiles candidates into
//! neuron-major blocks. One driver, generic over the tile entry type,
//! runs one of two tile kernels per block — byte counters for
//! `CutSpikes`, per-lane crossbar bitmasks at a compile-time stride for
//! `CutPackets` (popcount reduce) and `CutHops` (hop-weighted bit walk).
//! The kernel follows from the problem and the objective alone
//! ([`SwarmEval::kernel`]; [`SwarmKernel::for_crossbars`] is only the
//! tile width a crossbar count allows):
//!
//! * **Byte tiles** up to [`TILE_MAX_CROSSBARS`] (256) crossbars, every
//!   objective: one byte per assignment; masks of one `u64` per lane up
//!   to 64 crossbars, four beyond. On the 256-crossbar `synth_16x16grid`
//!   scenario (1740 neurons, 41.8 k synapses; `BENCH_eval.json`) this
//!   scores a 64-lane swarm ~5× faster than the per-candidate scalar
//!   scan under `CutPackets`, ~2× under `CutHops`.
//! * **u16 word tiles** up to [`TILE16_MAX_CROSSBARS`] (1024) crossbars,
//!   `CutSpikes` and `CutPackets` only — the multi-chip regime of
//!   `noc::topology::HierTopology`: two bytes per assignment, masks of
//!   16 `u64`s per lane, the same kernels and integer arithmetic. On the
//!   1024-crossbar `synth_4chip16x16` scenario CI gates the `hier/*`
//!   batched-over-scalar ratio ≥ 2× for `CutSpikes` and ≥ 1× for
//!   `CutPackets` (reads ≈ 2.6×).
//! * **Scalar** beyond 1024 crossbars — and for `CutHops` beyond 256, or
//!   when a distance overflows the byte tile's `u16` hop shadow:
//!   [`PartitionProblem::cost`] per candidate, the exact reference every
//!   tiled instantiation is verified against (per block in debug builds,
//!   and by the unit and property tests). The word-tile hop walk (one
//!   gather per set bit over 16 mask words per lane) read 0.41–1.26× of
//!   it at 576 crossbars and 0.43–0.92× at 1024 over 8–64 lanes, so it
//!   is gone (`perf_probe eval`).
//!
//! The active kernel is surfaced in `perf_probe` output, and the benches
//! assert which kernel actually ran, so the scalar arm is a visible,
//! measured boundary rather than a silent perf cliff.

use crate::partition::{FitnessKind, PartitionProblem};

/// A [`Candidate`]'s cached fitness state, built by `EvalEngine::init`
/// and changed only by `Candidate::apply`.
#[derive(Debug)]
struct CostState {
    cost: u64,
    /// `CutPackets` and `CutHops`: `cnt[p * c + k]` = targets of `p` on
    /// crossbar `k`. Empty for `CutSpikes`.
    target_cnt: Vec<u32>,
}

/// The shared incremental evaluator: immutable problem context plus the
/// pre-grouped edge structure the delta formulas need. Moves are priced
/// and applied through a [`Candidate`].
#[derive(Debug, Clone)]
pub struct EvalEngine<'g> {
    problem: PartitionProblem<'g>,
    kind: FitnessKind,
    /// `CutPackets` and `CutHops` — CSR of distinct presynaptic sources
    /// with edge multiplicities: neuron `i`'s sources are
    /// `grouped_sources[grouped_offsets[i]..grouped_offsets[i + 1]]`.
    grouped_sources: Vec<(u32, u32)>,
    grouped_offsets: Vec<u32>,
    /// `CutPackets` and `CutHops` — number of self-loop synapses per
    /// neuron.
    self_mult: Vec<u32>,
}

impl<'g> EvalEngine<'g> {
    /// Builds an engine for `problem` under `kind`: O(1) for `CutSpikes`;
    /// `CutPackets` and `CutHops` pre-group the reverse CSR once
    /// (O(E log deg)).
    pub fn new(problem: PartitionProblem<'g>, kind: FitnessKind) -> Self {
        let (grouped_sources, grouped_offsets, self_mult) = match kind {
            FitnessKind::CutSpikes => (Vec::new(), Vec::new(), Vec::new()),
            FitnessKind::CutPackets | FitnessKind::CutHops => group_sources(&problem),
        };
        Self {
            problem,
            kind,
            grouped_sources,
            grouped_offsets,
            self_mult,
        }
    }

    /// The problem this engine evaluates against.
    pub fn problem(&self) -> &PartitionProblem<'g> {
        &self.problem
    }

    /// The objective this engine maintains.
    pub fn kind(&self) -> FitnessKind {
        self.kind
    }

    /// Whether this objective maintains the per-source target tallies.
    fn tracks_targets(&self) -> bool {
        matches!(self.kind, FitnessKind::CutPackets | FitnessKind::CutHops)
    }

    /// Builds cached state for `assignment` by full evaluation.
    fn init(&self, assignment: &[u32]) -> CostState {
        let mut target_cnt = Vec::new();
        if self.tracks_targets() {
            let g = self.problem.graph();
            let n = g.num_neurons() as usize;
            let c = self.problem.num_crossbars();
            target_cnt.resize(n * c, 0);
            for p in 0..n as u32 {
                for &j in g.targets(p) {
                    target_cnt[p as usize * c + assignment[j as usize] as usize] += 1;
                }
            }
        }
        CostState {
            cost: self.problem.cost(self.kind, assignment),
            target_cnt,
        }
    }

    /// Exact cost change of migrating neuron `i` to crossbar `to`, in
    /// O(deg(i)) (`CutHops`: both halves of its delta, O(C + deg(i)) —
    /// [`Candidate::best_move`] prices many targets against one
    /// per-neuron half), without mutating anything; 0 when `to` is `i`'s
    /// crossbar.
    fn move_delta(&self, state: &CostState, assignment: &[u32], i: usize, to: u32) -> i64 {
        match self.kind {
            FitnessKind::CutSpikes => self.problem.move_delta_spikes(assignment, i, to),
            FitnessKind::CutPackets => self.packet_delta(state, assignment, i, to),
            FitnessKind::CutHops => {
                let half = self.hop_half(state, assignment, i);
                self.hop_delta(&half, state, assignment, i, to)
            }
        }
    }

    /// `CutPackets` delta: how the multicast packet total changes when
    /// neuron `i` migrates from its current crossbar to `to`.
    fn packet_delta(&self, state: &CostState, assignment: &[u32], i: usize, to: u32) -> i64 {
        let g = self.problem.graph();
        let c = self.problem.num_crossbars();
        let from = assignment[i];
        if from == to {
            return 0;
        }
        let mut d = 0i64;

        // i's own outgoing packets: the home crossbar stops masking
        // targets at `from` and starts masking targets at `to`. i's
        // self-loops migrate with it, so `from` turns remote iff i has
        // targets there besides them, and `to` was remote iff i targeted
        // it; every other crossbar keeps its membership
        let ci = g.count(i as u32) as i64;
        if ci > 0 {
            let row = &state.target_cnt[i * c..(i + 1) * c];
            let from_remote = (row[from as usize] > self.self_mult[i]) as i64;
            let to_was_remote = (row[to as usize] > 0) as i64;
            d += ci * (from_remote - to_was_remote);
        }

        // incoming: each distinct source p sees target i move from→to
        let lo = self.grouped_offsets[i] as usize;
        let hi = self.grouped_offsets[i + 1] as usize;
        for &(p, m) in &self.grouped_sources[lo..hi] {
            let p = p as usize;
            if p == i {
                continue; // self-loops handled with the outgoing side
            }
            let cp = g.count(p as u32) as i64;
            if cp == 0 {
                continue;
            }
            let home_p = assignment[p];
            let row = &state.target_cnt[p * c..(p + 1) * c];
            // `from` drops out of p's remote set if i carried its last edges
            if row[from as usize] == m && from != home_p {
                d -= cp;
            }
            // `to` joins p's remote set if previously untargeted
            if row[to as usize] == 0 && to != home_p {
                d += cp;
            }
        }
        d
    }

    /// Neuron `i`'s distinct sources other than itself that fire, with
    /// their edge multiplicities onto `i` and spike counts.
    fn firing_sources(&self, i: usize) -> impl Iterator<Item = (usize, u32, i64)> + '_ {
        let g = self.problem.graph();
        let lo = self.grouped_offsets[i] as usize;
        let hi = self.grouped_offsets[i + 1] as usize;
        self.grouped_sources[lo..hi]
            .iter()
            .map(move |&(p, m)| (p as usize, m, i64::from(g.count(p))))
            // self-loops are priced with the outgoing side
            .filter(move |&(p, _, cp)| p != i && cp > 0)
    }

    /// The `to`-independent half of every `CutHops` migration of neuron
    /// `i` off its current crossbar: one O(C) scan of `i`'s target row
    /// for the distinct-target crossbars `T_i` and their summed distance
    /// from `from`, and one pass over `i`'s sources for what leaving
    /// `from` saves them. [`EvalEngine::hop_delta`] prices each target
    /// against it.
    ///
    /// # Panics
    ///
    /// Panics if the problem carries no hop table.
    fn hop_half(&self, state: &CostState, assignment: &[u32], i: usize) -> HopHalf {
        let c = self.problem.num_crossbars();
        let hops = self
            .problem
            .hops()
            .expect("CutHops requires a hop table; attach one with `with_hops`");
        let from = assignment[i];
        let mut half = HopHalf {
            from,
            ci: i64::from(self.problem.graph().count(i as u32)),
            near: [0; HOP_NEAR],
            len: 0,
            far: Vec::new(),
            from_sum: 0,
            from_leaves: false,
            drop_from: 0,
        };
        if half.ci > 0 {
            let row = &state.target_cnt[i * c..(i + 1) * c];
            for (k, _) in row.iter().enumerate().filter(|&(_, &v)| v > 0) {
                half.from_sum += i64::from(hops.hops(from, k as u32));
                if half.len < HOP_NEAR {
                    half.near[half.len] = k as u32;
                    half.len += 1;
                } else {
                    half.far.push(k as u32);
                }
            }
            // self-loop targets migrate with i, so `from` leaves T_i when
            // they are all i has there (and `to` joins it at w(to, to) = 0)
            let self_m = self.self_mult[i];
            half.from_leaves = self_m > 0 && row[from as usize] == self_m;
        }
        // `from` drops out of p's remote set if i carried its last edges
        for (p, m, cp) in self.firing_sources(i) {
            if state.target_cnt[p * c + from as usize] == m {
                half.drop_from += cp * i64::from(hops.hops(assignment[p], from));
            }
        }
        half
    }

    /// `CutHops` delta of migrating neuron `i` to `to` — the per-target
    /// half over `half` (which must be [`EvalEngine::hop_half`] of `i` on
    /// the current state), in O(|T_i| + deg_in(i)):
    ///
    /// ```text
    /// c_i · (Σ_{k∈T_i} w(to,k) − Σ_{k∈T_i} w(from,k) − [from leaves T_i] · w(to,from))
    ///  − Σ_{p: i carried p's last edges on from} c_p · w(home_p, from)
    ///  + Σ_{p: p had no target on to}           c_p · w(home_p, to)
    /// ```
    ///
    /// Like [`EvalEngine::packet_delta`] with every remote-crossbar
    /// membership change priced by its hop distance instead of 1, and
    /// `i`'s own distinct-target set repriced from its new home.
    fn hop_delta(
        &self,
        half: &HopHalf,
        state: &CostState,
        assignment: &[u32],
        i: usize,
        to: u32,
    ) -> i64 {
        if half.from == to {
            return 0;
        }
        let c = self.problem.num_crossbars();
        let hops = self.problem.hops().expect("hop_half checked the table");
        let w = |a: u32, b: u32| i64::from(hops.hops(a, b));
        let mut d = -half.drop_from;
        if half.ci > 0 {
            let near = &half.near[..half.len];
            let mut to_sum: i64 = near.iter().chain(&half.far).map(|&k| w(to, k)).sum();
            if half.from_leaves {
                to_sum -= w(to, half.from);
            }
            d += half.ci * (to_sum - half.from_sum);
        }
        // `to` joins p's remote set if previously untargeted
        for (p, _, cp) in self.firing_sources(i) {
            if state.target_cnt[p * c + to as usize] == 0 {
                d += cp * w(assignment[p], to);
            }
        }
        d
    }
}

/// Distinct-target crossbars [`HopHalf`] keeps inline, so preparing it
/// allocates nothing unless a neuron's targets span more crossbars than
/// this (the mapbench graphs `CutHops` runs on give each neuron 24
/// synapses).
const HOP_NEAR: usize = 64;

/// The `to`-independent half of a `CutHops` migration of one neuron off
/// its crossbar `from` ([`EvalEngine::hop_half`]).
#[derive(Debug)]
struct HopHalf {
    from: u32,
    /// The neuron's spike count `c_i`.
    ci: i64,
    /// `T_i` ascending (empty when `c_i = 0`): the first `len` crossbars
    /// inline, any past [`HOP_NEAR`] in `far`.
    near: [u32; HOP_NEAR],
    len: usize,
    far: Vec<u32>,
    /// `Σ_{k∈T_i} w(from, k)`.
    from_sum: i64,
    /// The neuron's self-loops are all it targets on `from`.
    from_leaves: bool,
    /// What leaving `from` saves the neuron's sources.
    drop_from: i64,
}

/// One candidate under local search: an assignment, its cached cost
/// state and its per-crossbar occupancy, updated together so they cannot
/// disagree — `refine` and the V-cycle's boundary refinement are search
/// policies over these operations. A crossbar at the problem's capacity
/// accepts no migration (occupancy is counted, not checked: an over-full
/// crossbar stays closed until neurons leave it).
///
/// [`Candidate::new`] allocates the state (`CutPackets` and `CutHops`:
/// an `N × C` tally); every later operation is allocation-free, except
/// pricing a `CutHops` move of a neuron whose targets span more than 64
/// crossbars, which lists them on the heap.
#[derive(Debug)]
pub struct Candidate<'e, 'g, 'a> {
    engine: &'e EvalEngine<'g>,
    state: CostState,
    assignment: &'a mut [u32],
    occupancy: Vec<u32>,
}

impl<'e, 'g, 'a> Candidate<'e, 'g, 'a> {
    /// Prices `assignment` in full and counts its occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover the engine's problem.
    pub fn new(engine: &'e EvalEngine<'g>, assignment: &'a mut [u32]) -> Self {
        let mut occupancy = vec![0u32; engine.problem.num_crossbars()];
        for &k in assignment.iter() {
            occupancy[k as usize] += 1;
        }
        Self {
            engine,
            state: engine.init(assignment),
            assignment,
            occupancy,
        }
    }

    /// The cached cost of the current assignment.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.state.cost
    }

    /// The current assignment.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        self.assignment
    }

    /// Neurons currently on each crossbar.
    pub fn occupancy(&self) -> &[u32] {
        &self.occupancy
    }

    /// Exact cost change of migrating neuron `i` to crossbar `to`; `None`
    /// when `to` is `i`'s home or full.
    #[inline]
    pub fn move_delta(&self, i: usize, to: u32) -> Option<i64> {
        self.open(i, to)
            .then(|| self.engine.move_delta(&self.state, self.assignment, i, to))
    }

    /// Whether `to` is neither `i`'s home nor full.
    #[inline]
    fn open(&self, i: usize, to: u32) -> bool {
        self.occupancy[to as usize] < self.engine.problem.capacity() && to != self.assignment[i]
    }

    /// The most improving open migration of neuron `i` among `targets`,
    /// as `(crossbar, delta < 0)`; ties keep the earliest target. Pure, so
    /// parallel proposers can share a frozen candidate.
    pub fn best_move(
        &self,
        i: usize,
        targets: impl IntoIterator<Item = u32>,
    ) -> Option<(u32, i64)> {
        if self.engine.kind == FitnessKind::CutHops {
            return self.best_hop_move(i, targets.into_iter());
        }
        targets
            .into_iter()
            .filter_map(|to| self.move_delta(i, to).map(|d| (to, d)))
            .filter(|&(_, d)| d < 0)
            .min_by_key(|&(_, d)| d) // the first of equal minima
    }

    /// [`Candidate::best_move`] under `CutHops`: the `to`-independent half
    /// of the delta is built once, at the first open target (never when
    /// every target is closed), and each open target costs
    /// O(|T_i| + deg_in(i)) on top of it instead of an O(C) row rescan.
    // never inlined, so the other objectives' `best_move` compiles as if
    // this path did not exist
    #[inline(never)]
    fn best_hop_move(&self, i: usize, targets: impl Iterator<Item = u32>) -> Option<(u32, i64)> {
        let mut half = None;
        targets
            .filter(|&to| self.open(i, to))
            .map(|to| {
                let half = half
                    .get_or_insert_with(|| self.engine.hop_half(&self.state, self.assignment, i));
                let d = self
                    .engine
                    .hop_delta(half, &self.state, self.assignment, i, to);
                (to, d)
            })
            .filter(|&(_, d)| d < 0)
            .min_by_key(|&(_, d)| d) // the first of equal minima
    }

    /// Migrates neuron `i` to crossbar `to` at the `delta` that
    /// [`Candidate::move_delta`] / [`Candidate::best_move`] just returned
    /// for it (verified in debug builds; a stale one corrupts the cached
    /// cost in release builds). The one place tallies, assignment,
    /// occupancy and cached cost change.
    #[inline]
    pub fn apply(&mut self, i: usize, to: u32, delta: i64) {
        let engine = self.engine;
        debug_assert_eq!(
            delta,
            engine.move_delta(&self.state, self.assignment, i, to),
            "caller-supplied delta must match the current state"
        );
        let from = self.assignment[i];
        self.occupancy[from as usize] -= 1;
        self.occupancy[to as usize] += 1;
        if engine.tracks_targets() {
            let c = engine.problem.num_crossbars();
            let lo = engine.grouped_offsets[i] as usize;
            let hi = engine.grouped_offsets[i + 1] as usize;
            for &(p, m) in &engine.grouped_sources[lo..hi] {
                let base = p as usize * c;
                self.state.target_cnt[base + from as usize] -= m;
                self.state.target_cnt[base + to as usize] += m;
            }
        }
        self.assignment[i] = to;
        self.state.cost = self
            .state
            .cost
            .checked_add_signed(delta)
            .expect("cost stays non-negative");
    }
}

/// Number of candidates evaluated together per tile by [`SwarmEval`]:
/// small enough that a tile (`N × LANES` ids) stays cache-resident,
/// wide enough to fill SIMD lanes.
const LANES: usize = 64;

/// Crossbar-count ceiling of the byte-tile envelope: assignments are
/// stored one byte per neuron per lane, so crossbar ids must fit `u8`.
pub const TILE_MAX_CROSSBARS: usize = 256;

/// Crossbar-count ceiling of the u16 word-tile envelope: assignments are
/// stored two bytes per neuron per lane, lifting the batched evaluator
/// to the multi-chip regime (e.g. 4 chips of 16×16 crossbars). Beyond
/// this the evaluator runs the exact scalar reference per candidate.
pub const TILE16_MAX_CROSSBARS: usize = 1024;

/// Mask words per lane at the byte-tile ceiling: the stride of the byte
/// tile's mask kernels past 64 crossbars.
const MASK_WORDS_MAX: usize = TILE_MAX_CROSSBARS / 64;

/// Mask words per lane at the word-tile ceiling: the stride of the word
/// tile's mask kernels.
const MASK16_WORDS_MAX: usize = TILE16_MAX_CROSSBARS / 64;

/// Which evaluation kernel [`SwarmEval::eval_swarm`] runs for a given
/// problem and objective ([`SwarmEval::kernel`]), surfaced in
/// `perf_probe` and asserted by the benches so the scalar arm is never a
/// silent perf cliff. [`SwarmKernel::for_crossbars`] knows the crossbar
/// count only: it names the tile *width*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwarmKernel {
    /// Neuron-major byte tile (crossbar ids fit `u8`):
    /// ≤ [`TILE_MAX_CROSSBARS`] crossbars.
    ByteTile,
    /// Neuron-major u16 tile with a fixed 16-word mask stride:
    /// ≤ [`TILE16_MAX_CROSSBARS`] crossbars.
    WordTile,
    /// Exact per-candidate scalar scan — the reference path, what runs
    /// beyond the word-tile envelope, and what `CutHops` runs beyond the
    /// byte tile.
    Scalar,
}

impl SwarmKernel {
    /// The tile width available at `num_crossbars` — what `CutSpikes`
    /// and `CutPackets` run. Not the whole kernel map: `CutHops` leaves
    /// the tiles earlier ([`SwarmEval::kernel`] is objective-aware).
    pub fn for_crossbars(num_crossbars: usize) -> Self {
        if num_crossbars <= TILE_MAX_CROSSBARS {
            SwarmKernel::ByteTile
        } else if num_crossbars <= TILE16_MAX_CROSSBARS {
            SwarmKernel::WordTile
        } else {
            SwarmKernel::Scalar
        }
    }

    /// Stable lowercase name (`"byte-tile"`, `"word-tile"`, `"scalar"`)
    /// for reports and probe output.
    pub fn name(self) -> &'static str {
        match self {
            SwarmKernel::ByteTile => "byte-tile",
            SwarmKernel::WordTile => "word-tile",
            SwarmKernel::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for SwarmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tile entry — the crossbar of one neuron in one candidate — stored
/// as narrowly as the envelope allows: `u8` in the byte tile, `u16` in
/// the word tile. The tiled driver and both tile kernels are generic
/// over it.
trait LaneId: Copy + PartialEq + Default + Into<usize> {
    /// Narrows a crossbar id (exact inside the type's envelope).
    fn narrow(crossbar: u32) -> Self;
    /// This type's tile among the scratch's two.
    fn buffer<'a>(bytes: &'a mut Vec<u8>, words: &'a mut Vec<u16>) -> &'a mut Vec<Self>;
}

impl LaneId for u8 {
    fn narrow(crossbar: u32) -> Self {
        crossbar as u8
    }
    fn buffer<'a>(bytes: &'a mut Vec<u8>, _: &'a mut Vec<u16>) -> &'a mut Vec<u8> {
        bytes
    }
}

impl LaneId for u16 {
    fn narrow(crossbar: u32) -> Self {
        crossbar as u16
    }
    fn buffer<'a>(_: &'a mut Vec<u8>, words: &'a mut Vec<u16>) -> &'a mut Vec<u16> {
        words
    }
}

/// Batched whole-swarm evaluation: the complement of the per-candidate
/// incremental path for optimizers whose candidates churn too much to
/// diff (binary PSO re-samples every neuron's crossbar each iteration —
/// measured churn is 70%+, far beyond the incremental break-even).
///
/// Instead of evaluating candidates one by one (a random `assignment[j]`
/// gather per edge), the swarm is transposed into **neuron-major tiles**
/// of `LANES` candidates (`tile[i * LANES + lane]` = crossbar of neuron
/// `i` in candidate `lane`): one pass over the CSR then compares
/// contiguous `LANES`-wide rows, which the compiler vectorizes, and
/// every row is reused `deg(i)` times from cache. Costs are exact — the
/// same integer arithmetic as [`PartitionProblem::cost`] — just
/// evaluated lane-parallel (verified per block by a debug assertion and
/// by unit tests).
///
/// One driver and two tile kernels cover the whole tiled envelope. The
/// driver is generic over the tile entry type: one byte per assignment
/// up to [`TILE_MAX_CROSSBARS`] (256) crossbars, two bytes up to
/// [`TILE16_MAX_CROSSBARS`] (1024) — the multi-chip regime, so
/// SpiNeMap-scale architectures stay tiled instead of silently degrading
/// to a per-candidate scan. `CutSpikes` accumulates byte counters;
/// `CutPackets` and `CutHops` share a kernel that keeps each lane's
/// target-crossbar set as a bitmask of `W` `u64`s at a compile-time
/// stride (1 up to 64 crossbars, 4 in the rest of the byte tile, 16 in
/// the word tile) and differ only in how they reduce it: a popcount, or
/// a walk over the set bits priced by the hop table. The walk pays off
/// in the byte tile only, so `CutHops` past it — and every objective
/// beyond the word-tile envelope — is evaluated per candidate;
/// [`SwarmEval::kernel`] reports which path runs.
#[derive(Debug, Clone)]
pub struct SwarmEval<'g> {
    problem: PartitionProblem<'g>,
    kind: FitnessKind,
    kernel: SwarmKernel,
    /// Narrow (u16) shadow of the hop table for the byte tile's `CutHops`
    /// reduction — same values, half the gather footprint of the u32
    /// `DistanceLut`. Empty unless that kernel runs.
    hops16: Vec<u16>,
}

/// Reusable buffers for [`SwarmEval::eval_swarm`].
#[derive(Debug, Clone, Default)]
pub struct SwarmScratch {
    /// Neuron-major byte tile (`n × LANES` entries); the one in use up
    /// to [`TILE_MAX_CROSSBARS`] crossbars.
    tile: Vec<u8>,
    /// Neuron-major u16 tile (`n × LANES` entries); the one in use past
    /// the byte tile (crossbar ids above 255).
    tile16: Vec<u16>,
    /// Per-lane target-crossbar bitmasks of the mask kernel, lane-major:
    /// `LANES × W` words at the instantiation's stride `W` — the stride
    /// is fixed per instantiation, not `⌈C/64⌉`, so every tile entry
    /// indexes in bounds.
    masks: Vec<u64>,
}

impl<'g> SwarmEval<'g> {
    /// Creates a batched evaluator.
    ///
    /// # Panics
    ///
    /// Panics for [`FitnessKind::CutHops`] when the problem carries no
    /// hop table ([`PartitionProblem::with_hops`]);
    /// [`PartitionProblem::check_objective`] is the `Result`-returning
    /// form of this precondition.
    pub fn new(problem: PartitionProblem<'g>, kind: FitnessKind) -> Self {
        assert!(
            kind != FitnessKind::CutHops || problem.hops().is_some(),
            "CutHops requires a hop table; attach one with `with_hops`"
        );
        let mut kernel = SwarmKernel::for_crossbars(problem.num_crossbars());
        let mut hops16 = Vec::new();
        if kind == FitnessKind::CutHops {
            // the hop-weighted bit walk earns its keep in the byte tile
            // only, and only over the u16 shadow: anything else is scalar
            let lut = problem.hops().expect("asserted above");
            let c = problem.num_crossbars() as u32;
            let shadow = || {
                (0..c)
                    .flat_map(|a| (0..c).map(move |b| (a, b)))
                    .map(|(a, b)| u16::try_from(lut.hops(a, b)).ok())
                    .collect::<Option<Vec<u16>>>()
            };
            match (kernel == SwarmKernel::ByteTile).then(shadow).flatten() {
                Some(shadow) => hops16 = shadow,
                None => kernel = SwarmKernel::Scalar,
            }
        }
        Self {
            problem,
            kind,
            kernel,
            hops16,
        }
    }

    /// Whether a vectorizable tile path applies ([`SwarmEval::kernel`]
    /// is not the scalar arm).
    pub fn batched(&self) -> bool {
        self.kernel != SwarmKernel::Scalar
    }

    /// The kernel [`SwarmEval::eval_swarm`] runs — a pure function of
    /// the problem and the objective: [`SwarmKernel::for_crossbars`] for
    /// `CutSpikes` and `CutPackets`; for `CutHops` the byte tile while
    /// every distance fits its `u16` shadow, [`SwarmKernel::Scalar`]
    /// otherwise.
    pub fn kernel(&self) -> SwarmKernel {
        self.kernel
    }

    /// `u64` words a lane's target-crossbar bitmask needs
    /// (`⌈num_crossbars / 64⌉`: 1 up to 64 crossbars, 4 at the byte-tile
    /// ceiling, 16 at the word-tile ceiling).
    pub fn mask_words(&self) -> usize {
        self.problem.num_crossbars().div_ceil(64)
    }

    /// Evaluates `lanes` candidates stored back to back in candidate-major
    /// order (`positions[lane * n ..][..n]`), writing each cost to
    /// `out[lane]`. Exact for every problem; tiled and vectorized when
    /// [`SwarmEval::batched`] holds.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != lanes * n` or `out.len() != lanes`.
    pub fn eval_swarm(
        &self,
        positions: &[u32],
        lanes: usize,
        scratch: &mut SwarmScratch,
        out: &mut [u64],
    ) {
        let n = self.problem.graph().num_neurons() as usize;
        assert_eq!(positions.len(), lanes * n, "candidate buffer size");
        assert_eq!(out.len(), lanes, "output size");
        match self.kernel {
            SwarmKernel::Scalar => {
                for lane in 0..lanes {
                    out[lane] = self
                        .problem
                        .cost(self.kind, &positions[lane * n..(lane + 1) * n]);
                }
            }
            // the mask stride is a compile-time constant per tile type,
            // except that a byte tile whose whole crossbar set fits one
            // word keeps the single-word stride
            SwarmKernel::ByteTile if self.mask_words() == 1 => {
                self.eval_tiled::<u8, 1>(positions, lanes, scratch, out);
            }
            SwarmKernel::ByteTile => {
                self.eval_tiled::<u8, MASK_WORDS_MAX>(positions, lanes, scratch, out);
            }
            SwarmKernel::WordTile => {
                self.eval_tiled::<u16, MASK16_WORDS_MAX>(positions, lanes, scratch, out);
            }
        }
    }

    /// The tiled driver: transposes [`LANES`]-candidate blocks into the
    /// neuron-major tile of entry type `T`, runs the objective's tile
    /// kernel on each block, and (debug builds) checks each block's
    /// first lane against the scalar reference.
    fn eval_tiled<T: LaneId, const W: usize>(
        &self,
        positions: &[u32],
        lanes: usize,
        scratch: &mut SwarmScratch,
        out: &mut [u64],
    ) {
        let n = self.problem.graph().num_neurons() as usize;
        let tile = T::buffer(&mut scratch.tile, &mut scratch.tile16);
        tile.resize(n * LANES, T::default());
        scratch.masks.resize(LANES * W, 0);
        let mut lane0 = 0;
        while lane0 < lanes {
            let width = LANES.min(lanes - lane0);
            // transpose this candidate block into the neuron-major tile,
            // in 64-neuron blocks so writes stay inside an L1-resident
            // 64×64 window instead of striding through the whole tile
            for iblock in (0..n).step_by(LANES) {
                let iend = (iblock + LANES).min(n);
                for lane in 0..width {
                    let row = &positions[(lane0 + lane) * n..(lane0 + lane + 1) * n];
                    for (i, &k) in row[iblock..iend].iter().enumerate() {
                        tile[(iblock + i) * LANES + lane] = T::narrow(k);
                    }
                }
            }
            let block = &mut out[lane0..lane0 + width];
            match self.kind {
                FitnessKind::CutSpikes => self.tile_cut_spikes(width, tile, block),
                FitnessKind::CutPackets => {
                    self.tile_masks::<T, W, false>(width, tile, &mut scratch.masks, block);
                }
                FitnessKind::CutHops => {
                    self.tile_masks::<T, W, true>(width, tile, &mut scratch.masks, block);
                }
            }
            debug_assert_eq!(
                out[lane0],
                self.problem
                    .cost(self.kind, &positions[lane0 * n..(lane0 + 1) * n]),
                "batched cost must equal the scalar evaluation"
            );
            lane0 += width;
        }
    }

    /// Eq. 8 over one tile: per neuron, count cut out-edges per lane and
    /// weight by the neuron's spike count.
    // never inlined (here and on `tile_masks`): inlined, all eight
    // instantiations land in `eval_swarm` and share one register
    // allocation, and an unrelated edit to one shifted another's timing
    // by 15 % (u8 × 4-word `CutPackets`); as functions of their own each
    // compiles the same whatever its neighbours do
    #[inline(never)]
    fn tile_cut_spikes<T: LaneId>(&self, width: usize, tile: &[T], out: &mut [u64]) {
        let g = self.problem.graph();
        let n = g.num_neurons() as usize;
        out.fill(0);
        for i in 0..n {
            let ci = g.count(i as u32) as u64;
            if ci == 0 {
                continue;
            }
            let targets = g.targets(i as u32);
            if targets.is_empty() {
                continue;
            }
            let mut remote = [0u32; LANES];
            let home: &[T; LANES] = tile[i * LANES..i * LANES + LANES]
                .try_into()
                .expect("tile row is LANES wide");
            // accumulate in byte counters, flushed every ≤255 edges (so a
            // counter cannot overflow): the inner loop is a pure compare
            // + byte add over the full fixed LANES width — lanes past
            // `width` hold stale ids but are never read back
            for tchunk in targets.chunks(255) {
                let mut racc = [0u8; LANES];
                for &j in tchunk {
                    let tgt: &[T; LANES] = tile[j as usize * LANES..j as usize * LANES + LANES]
                        .try_into()
                        .expect("tile row is LANES wide");
                    for lane in 0..LANES {
                        racc[lane] += u8::from(home[lane] != tgt[lane]);
                    }
                }
                for lane in 0..LANES {
                    remote[lane] += u32::from(racc[lane]);
                }
            }
            for lane in 0..width {
                out[lane] += ci * u64::from(remote[lane]);
            }
        }
    }

    /// `CutPackets` (`HOPS = false`) and `CutHops` (`HOPS = true`) over
    /// one tile. Per neuron, every lane ORs its targets' crossbars into
    /// its own `W`-word bitmask (word `k >> 6`, bit `k & 63`); the
    /// per-edge loop cannot carry weights, so the objectives differ only
    /// in the per-lane reduction: the popcount of the mask without the
    /// home bit, or a walk over its set bits pricing each crossbar by
    /// its hop distance from the lane's home in the `u16` shadow table
    /// (`w(home, home) = 0`, so the home bit needs no masking there).
    ///
    /// The word index is masked to the stride (`(k >> 6) & (W - 1)` —
    /// exact for every id inside the envelope), which keeps the per-edge
    /// update provably in bounds on stale lanes past `width` and so lets
    /// it run branch-free over the constant [`LANES`] trip count; stale
    /// lanes accumulate garbage that is never read back, like the spike
    /// kernel's counters. At `W = 1` the word index and the home-word
    /// test fold away and only the `width` live lanes are visited.
    #[inline(never)]
    fn tile_masks<T: LaneId, const W: usize, const HOPS: bool>(
        &self,
        width: usize,
        tile: &[T],
        masks: &mut [u64],
        out: &mut [u64],
    ) {
        let g = self.problem.graph();
        let n = g.num_neurons() as usize;
        let c = self.problem.num_crossbars();
        let trip = if W == 1 { width } else { LANES };
        let (masks, _) = masks[..trip * W].as_chunks_mut::<W>();
        out.fill(0);
        for i in 0..n {
            let ci = g.count(i as u32) as u64;
            if ci == 0 {
                continue;
            }
            let targets = g.targets(i as u32);
            if targets.is_empty() {
                continue;
            }
            masks.fill([0; W]);
            let home = &tile[i * LANES..i * LANES + LANES];
            for &j in targets {
                let tgt = &tile[j as usize * LANES..j as usize * LANES + LANES];
                for (words, &t) in masks.iter_mut().zip(tgt) {
                    let k: usize = t.into();
                    words[(k >> 6) & (W - 1)] |= 1u64 << (k & 63);
                }
            }
            for (lane, words) in masks[..width].iter().enumerate() {
                let h: usize = home[lane].into();
                let per_spike = if !HOPS {
                    let mut distinct = 0u32;
                    for (w, &word) in words.iter().enumerate() {
                        let drop_home = if w == (h >> 6) & (W - 1) {
                            1u64 << (h & 63)
                        } else {
                            0
                        };
                        distinct += (word & !drop_home).count_ones();
                    }
                    u64::from(distinct)
                } else {
                    let row = &self.hops16[h * c..(h + 1) * c];
                    let mut weighted = 0u64;
                    for (w, &word) in words.iter().enumerate() {
                        let base = w << 6;
                        let mut m = word;
                        while m != 0 {
                            weighted += u64::from(row[base + m.trailing_zeros() as usize]);
                            m &= m - 1;
                        }
                    }
                    weighted
                };
                out[lane] += ci * per_spike;
            }
        }
    }
}

/// Groups the reverse CSR into (distinct source, multiplicity) runs and
/// counts self-loops, for the packet bookkeeping.
#[allow(clippy::type_complexity)]
fn group_sources(problem: &PartitionProblem<'_>) -> (Vec<(u32, u32)>, Vec<u32>, Vec<u32>) {
    let g = problem.graph();
    let n = g.num_neurons() as usize;
    let mut grouped = Vec::new();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut self_mult = vec![0u32; n];
    let mut scratch: Vec<u32> = Vec::new();
    offsets.push(0u32);
    for i in 0..n as u32 {
        scratch.clear();
        scratch.extend_from_slice(g.sources(i));
        scratch.sort_unstable();
        let mut run = 0;
        for idx in 0..scratch.len() {
            run += 1;
            let last_of_run = idx + 1 == scratch.len() || scratch[idx + 1] != scratch[idx];
            if last_of_run {
                grouped.push((scratch[idx], run));
                if scratch[idx] == i {
                    self_mult[i as usize] = run;
                }
                run = 0;
            }
        }
        offsets.push(grouped.len() as u32);
    }
    (grouped, offsets, self_mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpikeGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: u32, edges: usize, seed: u64) -> SpikeGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let synapses: Vec<(u32, u32)> = (0..edges)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..15)).collect();
        SpikeGraph::from_parts(n, synapses, counts).expect("valid graph")
    }

    fn kinds() -> [FitnessKind; 2] {
        [FitnessKind::CutSpikes, FitnessKind::CutPackets]
    }

    fn mesh_lut(c: usize) -> neuromap_noc::topology::DistanceLut {
        neuromap_noc::topology::DistanceLut::new(&neuromap_noc::topology::Mesh2D::for_crossbars(c))
    }

    /// Migrates `i` to `to` through `candidate` — a no-op when `to` is
    /// `i`'s home, the only closed crossbar at capacity ≥ N — and checks
    /// the cached cost against a full recompute.
    fn move_to(candidate: &mut Candidate<'_, '_, '_>, i: usize, to: u32) {
        let before = candidate.cost() as i64;
        match candidate.move_delta(i, to) {
            Some(d) => {
                candidate.apply(i, to, d);
                assert_eq!(candidate.cost() as i64, before + d, "move {i}->{to}");
            }
            None => assert_eq!(candidate.assignment()[i], to, "only home is closed"),
        }
        assert_recomputes(candidate);
    }

    /// Asserts the cached cost equals a full recompute.
    fn assert_recomputes(candidate: &Candidate<'_, '_, '_>) {
        let engine = candidate.engine;
        let full = engine.problem.cost(engine.kind, candidate.assignment());
        assert_eq!(candidate.cost(), full, "{:?} drifted", engine.kind);
    }

    /// Asserts every open migration's delta against a full recompute.
    fn assert_deltas_exact(candidate: &Candidate<'_, '_, '_>) {
        let engine = candidate.engine;
        let now = candidate.assignment();
        let cost = engine.problem.cost(engine.kind, now) as i64;
        for i in 0..now.len() {
            for to in 0..engine.problem.num_crossbars() as u32 {
                let Some(d) = candidate.move_delta(i, to) else {
                    continue;
                };
                let mut after = now.to_vec();
                after[i] = to;
                let expected = engine.problem.cost(engine.kind, &after) as i64 - cost;
                assert_eq!(d, expected, "{:?} at {now:?}: {i}->{to}", engine.kind);
            }
        }
    }

    #[test]
    fn init_matches_full_cost() {
        let g = random_graph(20, 70, 1);
        let p = PartitionProblem::new(&g, 4, 6).unwrap();
        let a: Vec<u32> = (0..20).map(|i| i % 4).collect();
        for kind in kinds() {
            let engine = EvalEngine::new(p, kind);
            let mut b = a.clone();
            assert_recomputes(&Candidate::new(&engine, &mut b));
        }
    }

    #[test]
    fn move_delta_is_exact_for_both_kinds() {
        let g = random_graph(14, 60, 2);
        let p = PartitionProblem::new(&g, 3, 14).unwrap();
        let a: Vec<u32> = (0..14).map(|i| i % 3).collect();
        for kind in kinds() {
            let engine = EvalEngine::new(p, kind);
            let mut b = a.clone();
            let candidate = Candidate::new(&engine, &mut b);
            for i in 0..14usize {
                for to in 0..3u32 {
                    let mut b = a.clone();
                    b[i] = to;
                    let expected = p.cost(kind, &b) as i64 - p.cost(kind, &a) as i64;
                    let delta = (to != a[i]).then_some(expected);
                    assert_eq!(candidate.move_delta(i, to), delta, "{kind:?} i={i} to={to}");
                }
            }
        }
    }

    #[test]
    fn apply_move_keeps_state_consistent() {
        let g = random_graph(18, 90, 3);
        let p = PartitionProblem::new(&g, 4, 18).unwrap();
        for kind in kinds() {
            let engine = EvalEngine::new(p, kind);
            let mut a: Vec<u32> = (0..18).map(|i| i % 4).collect();
            let mut candidate = Candidate::new(&engine, &mut a);
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..200 {
                let i = rng.gen_range(0..18usize);
                let to = rng.gen_range(0..4u32);
                move_to(&mut candidate, i, to);
            }
        }
    }

    #[test]
    fn self_loops_and_duplicates_priced_exactly() {
        // two self-loops on 0, duplicate edges 0→1, plus a back edge
        let g = SpikeGraph::from_parts(
            3,
            vec![(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 2)],
            vec![7, 3, 0],
        )
        .unwrap();
        let p = PartitionProblem::new(&g, 3, 3).unwrap();
        for kind in kinds() {
            let engine = EvalEngine::new(p, kind);
            let mut a = vec![0u32, 1, 2];
            let mut candidate = Candidate::new(&engine, &mut a);
            for (i, to) in [(0usize, 1u32), (1, 1), (0, 2), (2, 0), (0, 0)] {
                move_to(&mut candidate, i, to);
            }
        }

        // 0 fires into itself three times, into 1 and into 2, and 2 feeds
        // it: alone on its crossbar its self-loops are all 0 targets at
        // home (`row[from] == self_m`), beside 1 or 2 they are not
        let g = SpikeGraph::from_parts(
            3,
            vec![(0, 0), (0, 0), (0, 0), (0, 1), (0, 2), (2, 0), (1, 2)],
            vec![5, 2, 4],
        )
        .unwrap();
        let lut = mesh_lut(4);
        let p = PartitionProblem::new(&g, 4, 3)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        for kind in [FitnessKind::CutPackets, FitnessKind::CutHops] {
            let engine = EvalEngine::new(p, kind);
            let mut a = vec![0u32, 1, 2];
            let mut candidate = Candidate::new(&engine, &mut a);
            assert_deltas_exact(&candidate);
            for (i, to) in [(1, 0), (0, 3), (2, 3), (1, 3), (0, 1), (2, 1), (0, 2)] {
                move_to(&mut candidate, i, to);
                assert_deltas_exact(&candidate);
            }
        }
    }

    #[test]
    fn hop_engine_matches_recompute_under_moves() {
        let g = random_graph(22, 120, 17);
        let lut = mesh_lut(5);
        let p = PartitionProblem::new(&g, 5, 22)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let engine = EvalEngine::new(p, FitnessKind::CutHops);
        let mut a: Vec<u32> = (0..22).map(|i| i % 5).collect();
        let mut candidate = Candidate::new(&engine, &mut a);
        assert_recomputes(&candidate);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let i = rng.gen_range(0..22usize);
            let to = rng.gen_range(0..5u32);
            move_to(&mut candidate, i, to);
        }
    }

    #[test]
    fn hop_engine_prices_self_loops_exactly() {
        let g = SpikeGraph::from_parts(
            3,
            vec![(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 2)],
            vec![7, 3, 0],
        )
        .unwrap();
        let lut = mesh_lut(4);
        let p = PartitionProblem::new(&g, 4, 3)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let engine = EvalEngine::new(p, FitnessKind::CutHops);
        let mut a = vec![0u32, 1, 2];
        let mut candidate = Candidate::new(&engine, &mut a);
        for (i, to) in [(0usize, 3u32), (1, 3), (0, 2), (2, 0), (0, 0), (1, 1)] {
            move_to(&mut candidate, i, to);
        }
    }

    #[test]
    fn hop_cost_with_unit_distances_equals_packets() {
        // a star's crossbars all sit one hop apart (via the hub), so the
        // hop objective must coincide with the packet objective exactly
        let g = random_graph(18, 90, 12);
        let topo = neuromap_noc::topology::Star::new(6);
        let lut = neuromap_noc::topology::DistanceLut::new(&topo);
        let p = PartitionProblem::new(&g, 6, 18).unwrap();
        let ph = p.with_hops(&lut).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a: Vec<u32> = (0..18).map(|_| rng.gen_range(0..6u32)).collect();
            assert_eq!(ph.cut_hops(&a), 2 * p.cut_packets(&a));
        }
    }

    #[test]
    fn swarm_eval_matches_scalar_across_the_envelope() {
        // both sides of every kernel boundary (single-word mask | 4-word
        // stride | u16 word tile | scalar fallback), plus the 3- and
        // 4-word interiors of the byte stride; every objective; a lane
        // count that leaves a partial final tile. The graph carries
        // self-loops, duplicate edges and silent neurons.
        let n = 60usize;
        let mut rng = StdRng::seed_from_u64(23);
        let mut synapses: Vec<(u32, u32)> = (0..350)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        synapses.extend([(0, 0), (0, 0), (0, 1), (0, 1), (7, 7), (59, 59)]);
        let mut counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..15)).collect();
        counts[3] = 0;
        counts[59] = 9;
        let g = SpikeGraph::from_parts(n as u32, synapses, counts).expect("valid graph");
        let lanes = 2 * LANES + 22;
        let mut cases: Vec<(usize, neuromap_noc::topology::DistanceLut, SwarmKernel)> = [
            (1usize, SwarmKernel::ByteTile),
            (64, SwarmKernel::ByteTile),
            (65, SwarmKernel::ByteTile),
            (129, SwarmKernel::ByteTile),
            (193, SwarmKernel::ByteTile),
            (256, SwarmKernel::ByteTile),
            (257, SwarmKernel::WordTile),
            (1024, SwarmKernel::WordTile),
            (1025, SwarmKernel::Scalar),
        ]
        .map(|(c, kernel)| (c, mesh_lut(c), kernel))
        .into();
        // two chips whose one seam costs more than the u16 shadow holds
        use neuromap_noc::topology::Topology;
        let seam = neuromap_noc::topology::HierTopology::for_crossbars(64, 2, 1, 70_000, 1)
            .expect("valid fabric")
            .distance_lut();
        assert!(seam.hops(0, 63) > u32::from(u16::MAX));
        cases.push((64, seam, SwarmKernel::ByteTile));
        for (c, lut, tile) in &cases {
            let (c, tile) = (*c, *tile);
            let p = PartitionProblem::new(&g, c, n as u32)
                .unwrap()
                .with_hops(lut)
                .unwrap();
            let fits_u16 =
                (0..c as u32).all(|a| (0..c as u32).all(|b| lut.hops(a, b) <= u32::from(u16::MAX)));
            let positions: Vec<u32> = (0..lanes * n).map(|_| rng.gen_range(0..c as u32)).collect();
            for kind in [
                FitnessKind::CutSpikes,
                FitnessKind::CutPackets,
                FitnessKind::CutHops,
            ] {
                let evaluator = SwarmEval::new(p, kind);
                let kernel = if kind == FitnessKind::CutHops
                    && !(tile == SwarmKernel::ByteTile && fits_u16)
                {
                    SwarmKernel::Scalar
                } else {
                    tile
                };
                assert_eq!(evaluator.kernel(), kernel, "{kind:?} c={c}");
                assert_eq!(evaluator.batched(), kernel != SwarmKernel::Scalar);
                assert_eq!(evaluator.mask_words(), c.div_ceil(64));
                let mut out = vec![0u64; lanes];
                evaluator.eval_swarm(&positions, lanes, &mut SwarmScratch::default(), &mut out);
                for lane in 0..lanes {
                    assert_eq!(
                        out[lane],
                        p.cost(kind, &positions[lane * n..(lane + 1) * n]),
                        "{kind:?} c={c} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "hop table")]
    fn swarm_eval_hops_without_table_rejected() {
        let g = random_graph(10, 20, 1);
        let p = PartitionProblem::new(&g, 4, 10).unwrap();
        let _ = SwarmEval::new(p, FitnessKind::CutHops);
    }

    #[test]
    fn swarm_kernel_selection_is_total() {
        for (c, expected) in [
            (1usize, SwarmKernel::ByteTile),
            (256, SwarmKernel::ByteTile),
            (257, SwarmKernel::WordTile),
            (1024, SwarmKernel::WordTile),
            (1025, SwarmKernel::Scalar),
            (1 << 20, SwarmKernel::Scalar),
        ] {
            assert_eq!(SwarmKernel::for_crossbars(c), expected, "c={c}");
        }
        assert_eq!(SwarmKernel::ByteTile.name(), "byte-tile");
        assert_eq!(SwarmKernel::WordTile.to_string(), "word-tile");
        assert_eq!(SwarmKernel::Scalar.name(), "scalar");
    }

    #[test]
    fn hop_deltas_past_the_inline_target_list_are_exact() {
        // neuron 0 fires into 90 neurons on 90 crossbars of a 100-crossbar
        // mesh, plus itself: its 91 distinct-target crossbars overflow the
        // per-neuron half's inline list
        let n = 100u32;
        let mut synapses: Vec<(u32, u32)> = (1..91).map(|j| (0, j)).collect();
        synapses.extend([(0, 0), (0, 1), (5, 0), (7, 0), (7, 0), (93, 95)]);
        let counts = (0..n).map(|i| 1 + i % 7).collect();
        let g = SpikeGraph::from_parts(n, synapses, counts).unwrap();
        let lut = mesh_lut(100);
        let p = PartitionProblem::new(&g, 100, 2)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let engine = EvalEngine::new(p, FitnessKind::CutHops);
        let mut a: Vec<u32> = (0..n).map(|i| (i + 3) % n).collect();
        let mut candidate = Candidate::new(&engine, &mut a);
        let half = engine.hop_half(&candidate.state, candidate.assignment, 0);
        assert_eq!((half.len, half.far.len()), (HOP_NEAR, 91 - HOP_NEAR));
        for round in 0..3 {
            let cost = candidate.cost() as i64;
            let mut brute = None;
            for to in 0..n {
                let Some(d) = candidate.move_delta(0, to) else {
                    continue;
                };
                let mut moved = candidate.assignment().to_vec();
                moved[0] = to;
                assert_eq!(d, p.cut_hops(&moved) as i64 - cost, "round {round} to {to}");
                if d < 0 && brute.is_none_or(|(_, b)| d < b) {
                    brute = Some((to, d));
                }
            }
            assert_eq!(candidate.best_move(0, 0..n), brute, "round {round}");
            // move the hub somewhere else, improving or not
            let to = 37 * round + 11;
            let d = candidate.move_delta(0, to).expect("crossbar is open");
            candidate.apply(0, to, d);
            assert_eq!(candidate.cost(), p.cut_hops(candidate.assignment()));
        }
    }
}
