//! The binary-PSO re-binarization + repair kernel (Eq. 2–5): one
//! masked-row pass per neuron, beside the scalar walk that specifies it.
//!
//! Every PSO iteration turns each particle's real-valued velocity matrix
//! (`N × C` floats) back into a feasible assignment: per neuron,
//! candidate crossbars are tested in descending-velocity order and
//! accepted with probability `sigmoid(v)` (Eq. 2–3); if no free crossbar
//! is accepted, the highest-velocity free crossbar is assigned (repair,
//! Eq. 4–5). This sweep (`fill_velocity` + `decode` + one `step` per
//! iteration) is the largest piece of a flat swarm search: measured at
//! `dad3100`, 60 % of a `grid24_mesh_flathops` mapbench iteration, 51 %
//! of `grid16_mesh_staged`, ≈ 45 % of `grid16_torus_joint_trees` and
//! ≈ 30 % of `hd_tree_paper` — compute-bound (≈ 2.3 ns per velocity then,
//! against ≈ 0.6 ns for a streaming read-multiply-write of the same
//! buffer), so the kernel matters more than evaluation does.
//! `perf_probe sweep` re-measures it.
//!
//! Two implementations live here:
//!
//! * [`Decoder::decode`] / [`Decoder::step`] — the **production
//!   masked-row kernel**. [`DecodeScratch`] keeps, beside the free-slot
//!   tallies, an *eligibility row* (`0.0` while a crossbar has room, `−∞`
//!   from the one store that marks it full) and a *masked row*. Per
//!   neuron a single vectorizable pass writes `velocity + eligibility`
//!   into the masked row and folds it into fixed-width lane maxima (a
//!   full crossbar reads `−∞`, so there is no per-element eligibility
//!   test); a chunked scan then finds the lowest index attaining the
//!   maximum. When that candidate is rejected, the walk asks the masked
//!   row for the candidate's *successor in `(velocity desc, index asc)`
//!   order* — a later index holding the same value, else the first index
//!   of the largest value strictly below it — instead of re-scanning
//!   against a set of tried candidates. [`Decoder::step`] runs the
//!   velocity update of Eq. 1 (inertia decay, the stochastic
//!   cognitive/social pulls) on each row just before decoding it, so the
//!   swarm's structure-of-arrays buffer is traversed once per iteration.
//! * [`Decoder::decode_reference`] / [`Decoder::step_reference`] — the
//!   **scalar kernels**: a plain descending-velocity walk per neuron that
//!   marks every rejected candidate in a `tried` set, the executable
//!   specification.
//!
//! ## Equivalence and determinism contract
//!
//! For identical inputs and RNG state, the two kernels produce
//! **bit-identical assignments, velocities and RNG streams**
//! (property-tested in `tests/determinism.rs` across random velocity
//! states, exact-fit capacities, chained steps on one reused scratch,
//! signed zeros, `−∞` and NaN):
//!
//! * *Same first candidate.* The lane maxima reduce the same set `max`
//!   does, maxima of non-NaN `f32`s are associative, and both kernels
//!   resolve ties to the lowest index. Adding the eligibility row changes
//!   no free value except `−0.0`, which becomes `+0.0` — equal under every
//!   comparison made here, and the acceptance test reads the velocity row
//!   itself.
//! * *Same visiting order.* The reference's `tried` walk visits free
//!   crossbars by descending velocity, lowest index first among equals;
//!   the successor of a candidate in that order is exactly what the
//!   masked walk computes, so the same candidates meet the same draws.
//! * *Same draws.* One acceptance draw per candidate visited; none for
//!   the repair fallback.
//! * *NaN and `−∞`.* Neither is ever a candidate (both fail every `>`),
//!   so a NaN is never selected while a free crossbar holds an ordinary
//!   velocity. A row with no candidate at all — every free entry NaN or
//!   `−∞` — draws nothing and takes the **lowest-index crossbar that has
//!   room**, read from the free-slot tallies (in the masked row a full
//!   crossbar is `−∞` too). [`PsoConfig::validate`](crate::pso::PsoConfig::validate)
//!   keeps non-finite values out of the optimizer; the rule is for callers
//!   of this module.
//!
//! The kernel is allocation-free after warm-up and shared by every shard
//! of the pooled PSO step (`neuromap_core::pool`), so thread count never
//! changes results.

use rand::rngs::StdRng;
use rand::Rng;

/// Sigmoid.
#[inline]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// f32 lanes per chunk of the masked-row passes: wide enough to fill a
/// 256-bit SIMD register, small enough that remainders stay cheap.
const F_LANES: usize = 8;

/// Piecewise-linear sigmoid over the clamped velocity domain
/// `[-v_max, v_max]`: 4096 segments give an interpolation error below
/// `5e-8` (σ″ ≤ 0.1), far under the `f32` noise floor of the sampling
/// itself, while replacing a libm `exp` per acceptance test with two
/// loads and a fused multiply-add. Deterministic pure-`f32` arithmetic.
#[derive(Debug, Clone)]
struct SigmoidLut {
    lo: f32,
    inv_step: f32,
    table: Vec<f32>,
}

impl SigmoidLut {
    const SEGMENTS: usize = 4096;

    fn new(v_max: f32) -> Self {
        let lo = -v_max;
        let step = (2.0 * v_max) / Self::SEGMENTS as f32;
        let table: Vec<f32> = (0..=Self::SEGMENTS)
            .map(|k| sigmoid(lo + step * k as f32))
            .collect();
        Self {
            lo,
            inv_step: 1.0 / step,
            table,
        }
    }

    /// σ(v) for `v ∈ [-v_max, v_max]` (clamped outside).
    #[inline]
    fn eval(&self, v: f32) -> f32 {
        let x = ((v - self.lo) * self.inv_step).clamp(0.0, (Self::SEGMENTS as f32) - 1e-3);
        let k = x as usize;
        let frac = x - k as f32;
        let a = self.table[k];
        let b = self.table[k + 1];
        a + (b - a) * frac
    }
}

/// Velocity-update weights of the fused [`Decoder::step`] (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepWeights {
    /// Inertia weight `w`.
    pub inertia: f32,
    /// Cognitive acceleration φ₁ (toward the particle's own best).
    pub phi_p: f32,
    /// Social acceleration φ₂ (toward the swarm best).
    pub phi_g: f32,
}

/// Reusable per-shard buffers for the decode kernels; every entry point
/// resets what it reads, so one scratch serves any sequence of particles,
/// iterations and decoder shapes.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Free slots left per crossbar for the particle being decoded.
    remaining: Vec<u32>,
    /// Reference walk: candidates the current neuron already rejected.
    tried: Vec<bool>,
    /// Production kernel's eligibility row: `0.0` while `remaining[k] > 0`,
    /// `−∞` once it is 0.
    bias: Vec<f32>,
    /// Production kernel's masked row: the current neuron's velocities
    /// plus `bias`.
    masked: Vec<f32>,
}

/// The re-binarization kernel (Eq. 2–3 + repair), shared by all PSO
/// shards. See the [module docs](self) for the equivalence contract
/// between the production and reference entry points.
#[derive(Debug, Clone)]
pub struct Decoder {
    n: usize,
    c: usize,
    capacity: u32,
    v_max: f32,
    lut: SigmoidLut,
}

impl Decoder {
    /// Creates a kernel for `n` neurons on `c` crossbars of `capacity`
    /// slots, with velocities clamped to `[-v_max, v_max]`.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≤ c × capacity` (the repair invariant: every
    /// decode must be able to place every neuron) and `v_max > 0`.
    pub fn new(n: usize, c: usize, capacity: u32, v_max: f32) -> Self {
        assert!(
            n as u128 <= c as u128 * u128::from(capacity),
            "total capacity ({c} crossbars × {capacity}) must hold all {n} neurons"
        );
        assert!(v_max > 0.0, "v_max must be positive, got {v_max}");
        Self {
            n,
            c,
            capacity,
            v_max,
            lut: SigmoidLut::new(v_max),
        }
    }

    /// Fills one particle's velocity buffer uniformly over
    /// `[-v_max, v_max)`, two dimensions per RNG word: the init-round
    /// fill is RNG-bound at large `N × C` (a 256-crossbar particle draws
    /// hundreds of thousands of values), so each 64-bit draw feeds two
    /// 24-bit mantissas instead of paying the full per-draw range
    /// machinery twice. Deterministic per RNG stream.
    pub fn fill_velocity(&self, vel: &mut [f32], rng: &mut StdRng) {
        let v_max = self.v_max;
        // exact for 24-bit integers: x / 2^23 - 1 ∈ [-1, 2 - 2^-23)
        let conv = move |x: u32| (x as f32 * (1.0 / 8_388_608.0) - 1.0) * v_max;
        let mut pairs = vel.chunks_exact_mut(2);
        for pair in &mut pairs {
            let r = rng.gen::<u64>();
            pair[0] = conv((r & 0xFF_FFFF) as u32);
            pair[1] = conv(((r >> 24) & 0xFF_FFFF) as u32);
        }
        if let [last] = pairs.into_remainder() {
            let r = rng.gen::<u64>();
            *last = conv((r & 0xFF_FFFF) as u32);
        }
    }

    /// Binarizes one particle's velocities into a feasible assignment —
    /// the production masked-row kernel.
    ///
    /// # Panics
    ///
    /// Panics if `velocity.len() != n * c` or `out.len() != n` (debug
    /// builds; release builds panic on the first out-of-range access).
    pub fn decode(
        &self,
        velocity: &[f32],
        rng: &mut StdRng,
        out: &mut [u32],
        s: &mut DecodeScratch,
    ) {
        let (n, c) = (self.n, self.c);
        debug_assert_eq!(velocity.len(), n * c);
        debug_assert_eq!(out.len(), n);
        s.reset(c, self.capacity);
        for i in 0..n {
            let row = &velocity[i * c..(i + 1) * c];
            out[i] = self.place(row, rng, s) as u32;
        }
    }

    /// Binarizes one particle's velocities — the scalar reference walk
    /// (bit-identical to [`Decoder::decode`], including the RNG stream).
    pub fn decode_reference(
        &self,
        velocity: &[f32],
        rng: &mut StdRng,
        out: &mut [u32],
        s: &mut DecodeScratch,
    ) {
        let (n, c) = (self.n, self.c);
        s.reset(c, self.capacity);
        for i in 0..n {
            let row = &velocity[i * c..(i + 1) * c];
            let (arg, arg_v) = masked_argmax_reference(row, &s.remaining);
            let k = self.accept_or_walk(row, rng, s, arg, arg_v);
            s.remaining[k] -= 1;
            out[i] = k as u32;
        }
    }

    /// One full fused PSO iteration for one particle: per neuron row,
    /// inertia decay (+ clamp for `inertia > 1`), the stochastic
    /// cognitive/social pulls (Eq. 1 — at most four touched dimensions
    /// per neuron), and the masked-row decode/repair, in a single
    /// sweep over the velocity buffer. `pos` holds the particle's current
    /// assignment on entry and the freshly decoded one on exit.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on any buffer-length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &self,
        w: StepWeights,
        velocity: &mut [f32],
        rng: &mut StdRng,
        pos: &mut [u32],
        pbest: &[u32],
        gbest: &[u32],
        s: &mut DecodeScratch,
    ) {
        let (n, c) = (self.n, self.c);
        debug_assert_eq!(velocity.len(), n * c);
        debug_assert_eq!(pos.len(), n);
        debug_assert_eq!(pbest.len(), n);
        debug_assert_eq!(gbest.len(), n);
        s.reset(c, self.capacity);
        for i in 0..n {
            let row = &mut velocity[i * c..(i + 1) * c];
            self.decay_and_pull(w, row, rng, pos[i], pbest[i], gbest[i]);
            pos[i] = self.place(row, rng, s) as u32;
        }
    }

    /// Scalar reference of [`Decoder::step`] (bit-identical, including
    /// the RNG stream).
    #[allow(clippy::too_many_arguments)]
    pub fn step_reference(
        &self,
        w: StepWeights,
        velocity: &mut [f32],
        rng: &mut StdRng,
        pos: &mut [u32],
        pbest: &[u32],
        gbest: &[u32],
        s: &mut DecodeScratch,
    ) {
        let (n, c) = (self.n, self.c);
        s.reset(c, self.capacity);
        for i in 0..n {
            let row = &mut velocity[i * c..(i + 1) * c];
            self.decay_and_pull(w, row, rng, pos[i], pbest[i], gbest[i]);
            let (arg, arg_v) = masked_argmax_reference(row, &s.remaining);
            let k = self.accept_or_walk(row, rng, s, arg, arg_v);
            s.remaining[k] -= 1;
            pos[i] = k as u32;
        }
    }

    /// Velocity update for one neuron row: inertia decay applies to every
    /// dimension; the stochastic pulls are non-zero only where the
    /// indicator positions differ (`k ∈ {own, pbest, gbest}`), which
    /// exploits that instead of drawing two random factors for each of
    /// the `C` dimensions. Shared verbatim by the production and
    /// reference steps (it is not part of the differential surface).
    #[inline]
    fn decay_and_pull(
        &self,
        w: StepWeights,
        row: &mut [f32],
        rng: &mut StdRng,
        own: u32,
        pb: u32,
        gb: u32,
    ) {
        for v in row.iter_mut() {
            *v *= w.inertia;
        }
        if w.inertia > 1.0 {
            for v in row.iter_mut() {
                *v = v.clamp(-self.v_max, self.v_max);
            }
        }
        let (own, pb, gb) = (own as usize, pb as usize, gb as usize);
        if pb != own {
            let r1: f32 = rng.gen();
            let r2: f32 = rng.gen();
            row[pb] = (row[pb] + w.phi_p * r1).clamp(-self.v_max, self.v_max);
            row[own] = (row[own] - w.phi_p * r2).clamp(-self.v_max, self.v_max);
        }
        if gb != own {
            let r1: f32 = rng.gen();
            let r2: f32 = rng.gen();
            row[gb] = (row[gb] + w.phi_g * r1).clamp(-self.v_max, self.v_max);
            row[own] = (row[own] - w.phi_g * r2).clamp(-self.v_max, self.v_max);
        }
    }

    /// Production choice for one neuron: masks the row, tests the best
    /// free crossbar, walks on through its successors while they are
    /// rejected, and charges the chosen crossbar — the one store into the
    /// eligibility row happens here, when a crossbar fills.
    #[inline]
    fn place(&self, row: &[f32], rng: &mut StdRng, s: &mut DecodeScratch) -> usize {
        let top = mask_and_max(row, &s.bias, &mut s.masked);
        let k = if top == f32::NEG_INFINITY {
            // no candidate: every free entry is NaN or −∞, and so is every
            // full one in the masked row — only the tallies tell them apart
            first_free(&s.remaining)
        } else {
            let first = first_at(&s.masked, top).expect("a lane maximum is attained");
            if rng.gen::<f32>() < self.lut.eval(row[first]) {
                first
            } else {
                self.walk_on(row, rng, &s.masked, first)
            }
        };
        s.remaining[k] -= 1;
        if s.remaining[k] == 0 {
            s.bias[k] = f32::NEG_INFINITY;
        }
        k
    }

    /// Continues the acceptance walk after the top candidate `first` was
    /// rejected: tests its successors in `(velocity desc, index asc)`
    /// order, one draw each; falls back to `first` when all are rejected.
    #[cold]
    fn walk_on(&self, row: &[f32], rng: &mut StdRng, masked: &[f32], first: usize) -> usize {
        let mut k = first;
        while let Some(next) = successor(masked, k) {
            if rng.gen::<f32>() < self.lut.eval(row[next]) {
                return next;
            }
            k = next;
        }
        first
    }

    /// Reference acceptance test for the best free crossbar, falling into
    /// the slow descending-velocity walk when it fails. `arg`/`arg_v` come
    /// from [`masked_argmax_reference`]; `usize::MAX` means the row has no
    /// candidate, which takes the lowest-index free crossbar (one exists
    /// by the capacity invariant) without a draw.
    #[inline]
    fn accept_or_walk(
        &self,
        row: &[f32],
        rng: &mut StdRng,
        s: &mut DecodeScratch,
        arg: usize,
        arg_v: f32,
    ) -> usize {
        if arg == usize::MAX {
            return first_free(&s.remaining);
        }
        if rng.gen::<f32>() < self.lut.eval(arg_v) {
            arg
        } else {
            self.decode_slow(row, rng, &s.remaining, &mut s.tried, arg)
        }
    }

    /// Continues the acceptance walk after the top candidate failed:
    /// tests the remaining free crossbars in descending-velocity order;
    /// falls back to the overall-best free crossbar (`fallback`) when
    /// every test fails.
    #[cold]
    fn decode_slow(
        &self,
        row: &[f32],
        rng: &mut StdRng,
        remaining: &[u32],
        tried: &mut [bool],
        fallback: usize,
    ) -> usize {
        tried.fill(false);
        tried[fallback] = true;
        loop {
            let mut arg = usize::MAX;
            let mut arg_v = f32::NEG_INFINITY;
            for (k, &v) in row.iter().enumerate() {
                if remaining[k] != 0 && !tried[k] && v > arg_v {
                    arg_v = v;
                    arg = k;
                }
            }
            if arg == usize::MAX {
                return fallback;
            }
            if rng.gen::<f32>() < self.lut.eval(arg_v) {
                return arg;
            }
            tried[arg] = true;
        }
    }
}

impl DecodeScratch {
    /// Resets the per-particle capacity tallies and the eligibility row,
    /// and sizes the per-neuron rows, for `c` crossbars of `capacity`.
    fn reset(&mut self, c: usize, capacity: u32) {
        self.remaining.clear();
        self.remaining.resize(c, capacity);
        self.tried.resize(c, false);
        // a row is only ever decoded against `capacity > 0`: all open
        self.bias.clear();
        self.bias.resize(c, 0.0);
        self.masked.resize(c, 0.0);
    }
}

/// The lowest-index crossbar with a free slot: where a neuron goes when
/// its row offers no candidate.
fn first_free(remaining: &[u32]) -> usize {
    remaining
        .iter()
        .position(|&left| left != 0)
        .expect("total capacity ≥ neurons")
}

/// `x` if it is greater than `a`, else `a`: a maximum that never selects
/// a NaN `x` and compiles to one `maxps` (`f32::max` orders NaN both ways
/// and costs three operations).
#[inline]
fn keep_greater(a: f32, x: f32) -> f32 {
    if x > a {
        x
    } else {
        a
    }
}

/// Writes `row + bias` into `masked` and returns its maximum, `−∞` when
/// no entry exceeds that (all NaN or `−∞`). One pass, [`F_LANES`]
/// independent lane maxima per chunk, branch-free, so it vectorizes.
#[inline]
fn mask_and_max(row: &[f32], bias: &[f32], masked: &mut [f32]) -> f32 {
    debug_assert!(row.len() == bias.len() && row.len() == masked.len());
    let whole = row.len() - row.len() % F_LANES;
    let (row, row_tail) = row.split_at(whole);
    let (bias, bias_tail) = bias.split_at(whole);
    let (masked, masked_tail) = masked.split_at_mut(whole);
    let mut lanes = [f32::NEG_INFINITY; F_LANES];
    let chunks = row
        .chunks_exact(F_LANES)
        .zip(bias.chunks_exact(F_LANES))
        .zip(masked.chunks_exact_mut(F_LANES));
    for ((row, bias), masked) in chunks {
        for lane in 0..F_LANES {
            masked[lane] = row[lane] + bias[lane];
            lanes[lane] = keep_greater(lanes[lane], masked[lane]);
        }
    }
    let tail = row_tail.iter().zip(bias_tail).zip(masked_tail);
    for (((&v, &b), m), lane) in tail.zip(&mut lanes) {
        *m = v + b;
        *lane = keep_greater(*lane, *m);
    }
    reduce_lanes(lanes)
}

/// The maximum of the lane maxima (never NaN, so the order of reduction
/// is free), halving pairwise: on a narrow row the length of this
/// dependency chain is most of the pass.
#[inline]
fn reduce_lanes(mut lanes: [f32; F_LANES]) -> f32 {
    let mut width = F_LANES;
    while width > 1 {
        width /= 2;
        for lane in 0..width {
            lanes[lane] = keep_greater(lanes[lane], lanes[lane + width]);
        }
    }
    lanes[0]
}

/// The largest entry of `masked` strictly below `v`, `−∞` when there is
/// none (NaN and `−∞` entries never count). Same lane structure as
/// [`mask_and_max`].
fn max_below(masked: &[f32], v: f32) -> f32 {
    let keep = |a: f32, x: f32| if x < v { keep_greater(a, x) } else { a };
    let chunks = masked.chunks_exact(F_LANES);
    let tail = chunks.remainder();
    let mut lanes = [f32::NEG_INFINITY; F_LANES];
    for chunk in chunks {
        for lane in 0..F_LANES {
            lanes[lane] = keep(lanes[lane], chunk[lane]);
        }
    }
    for (&x, lane) in tail.iter().zip(&mut lanes) {
        *lane = keep(*lane, x);
    }
    reduce_lanes(lanes)
}

/// The lowest index holding exactly `v`: a branch-free any-match test per
/// [`F_LANES`] chunk (two vector compares and a move-mask), then a scan
/// inside the first chunk that matched.
#[inline]
fn first_at(masked: &[f32], v: f32) -> Option<usize> {
    let chunks = masked.chunks_exact(F_LANES);
    let tail = chunks.remainder();
    let at = |chunk: &[f32]| chunk.iter().position(|&x| x == v);
    for (ch, chunk) in chunks.enumerate() {
        let hits: [bool; F_LANES] = std::array::from_fn(|lane| chunk[lane] == v);
        if hits != [false; F_LANES] {
            return at(chunk).map(|lane| ch * F_LANES + lane);
        }
    }
    at(tail).map(|lane| masked.len() - tail.len() + lane)
}

/// The candidate after `k` in `(velocity desc, index asc)` order over the
/// masked row: a later index with the same value, else the lowest index
/// of the largest value strictly below it; `None` when `k` is the last
/// candidate. This is the order in which the reference walk's `tried` set
/// fills.
fn successor(masked: &[f32], k: usize) -> Option<usize> {
    let v = masked[k];
    if let Some(later) = first_at(&masked[k + 1..], v) {
        return Some(k + 1 + later);
    }
    let below = max_below(masked, v);
    if below == f32::NEG_INFINITY {
        None
    } else {
        first_at(masked, below)
    }
}

/// Scalar reference argmax: a single descending walk keeping the first
/// maximum (strict `>` never replaces an earlier equal value).
#[inline]
fn masked_argmax_reference(row: &[f32], remaining: &[u32]) -> (usize, f32) {
    let mut arg = usize::MAX;
    let mut arg_v = f32::NEG_INFINITY;
    for (k, (&v, &rem)) in row.iter().zip(remaining).enumerate() {
        if rem != 0 && v > arg_v {
            arg_v = v;
            arg = k;
        }
    }
    (arg, arg_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn decode_always_feasible() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 13;
        let c = 4;
        let cap = 4; // 16 ≥ 13
        let decoder = Decoder::new(n, c, cap, 4.0);
        let mut scratch = DecodeScratch::default();
        for _ in 0..50 {
            let velocity: Vec<f32> = (0..n * c).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let mut a = vec![0u32; n];
            decoder.decode(&velocity, &mut rng, &mut a, &mut scratch);
            let mut occ = vec![0u32; c];
            for &k in &a {
                occ[k as usize] += 1;
            }
            assert!(occ.iter().all(|&o| o <= cap));
            assert_eq!(a.len(), n);
        }
    }

    #[test]
    fn decode_prefers_high_velocity() {
        // saturated velocities: every neuron should land on its argmax
        let mut rng = StdRng::seed_from_u64(2);
        let n = 6;
        let c = 3;
        let mut velocity = vec![-8.0f32; n * c];
        for i in 0..n {
            velocity[i * c + i % c] = 8.0;
        }
        let mut a = vec![0u32; n];
        let decoder = Decoder::new(n, c, 2, 8.0);
        let mut scratch = DecodeScratch::default();
        decoder.decode(&velocity, &mut rng, &mut a, &mut scratch);
        for (i, &k) in a.iter().enumerate() {
            assert_eq!(k as usize, i % c, "neuron {i}");
        }
    }

    #[test]
    fn lane_parallel_matches_reference_including_rng_stream() {
        // random velocities on awkward row widths (remainder lanes, ties
        // from clamping) — assignments and post-call RNG states must both
        // match the scalar reference exactly
        for (n, c, cap, seed) in [
            (13usize, 5usize, 3u32, 7u64),
            (40, 7, 6, 8),
            (9, 1, 9, 9),
            (30, 11, 3, 10),
            (8, 67, 1, 11),
        ] {
            let decoder = Decoder::new(n, c, cap, 4.0);
            let mut vel_rng = StdRng::seed_from_u64(seed);
            for round in 0..20 {
                let velocity: Vec<f32> = (0..n * c)
                    .map(|_| {
                        // heavy clamping makes exact ties common
                        vel_rng.gen_range(-6.0f32..6.0).clamp(-4.0, 4.0)
                    })
                    .collect();
                let mut rng_a = StdRng::seed_from_u64(seed ^ (round + 1));
                let mut rng_b = StdRng::seed_from_u64(seed ^ (round + 1));
                let mut a = vec![0u32; n];
                let mut b = vec![0u32; n];
                decoder.decode(&velocity, &mut rng_a, &mut a, &mut DecodeScratch::default());
                decoder.decode_reference(
                    &velocity,
                    &mut rng_b,
                    &mut b,
                    &mut DecodeScratch::default(),
                );
                assert_eq!(a, b, "n={n} c={c} round={round}");
                assert_eq!(
                    rng_a.gen::<u64>(),
                    rng_b.gen::<u64>(),
                    "RNG streams diverged: n={n} c={c} round={round}"
                );
            }
        }
    }

    #[test]
    fn fused_step_matches_reference() {
        let (n, c, cap) = (24usize, 9usize, 4u32);
        let decoder = Decoder::new(n, c, cap, 4.0);
        let w = StepWeights {
            inertia: 0.72,
            phi_p: 1.49,
            phi_g: 1.49,
        };
        let mut vel_rng = StdRng::seed_from_u64(3);
        for round in 0..10 {
            let velocity: Vec<f32> = (0..n * c)
                .map(|_| vel_rng.gen_range(-4.0f32..4.0))
                .collect();
            let pos: Vec<u32> = (0..n).map(|i| (i % c) as u32).collect();
            let pbest: Vec<u32> = (0..n).map(|i| ((i + 1) % c) as u32).collect();
            let gbest: Vec<u32> = (0..n).map(|i| ((i * 3) % c) as u32).collect();
            let (mut va, mut vb) = (velocity.clone(), velocity);
            let (mut pa, mut pb) = (pos.clone(), pos);
            let mut rng_a = StdRng::seed_from_u64(100 + round);
            let mut rng_b = StdRng::seed_from_u64(100 + round);
            decoder.step(
                w,
                &mut va,
                &mut rng_a,
                &mut pa,
                &pbest,
                &gbest,
                &mut DecodeScratch::default(),
            );
            decoder.step_reference(
                w,
                &mut vb,
                &mut rng_b,
                &mut pb,
                &pbest,
                &gbest,
                &mut DecodeScratch::default(),
            );
            assert_eq!(pa, pb, "round {round}");
            assert_eq!(va, vb, "round {round}");
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "round {round}");
        }
    }

    /// The eligibility row [`DecodeScratch`] would hold for `remaining`.
    fn bias_for(remaining: &[u32]) -> Vec<f32> {
        let bias = |&left: &u32| if left == 0 { f32::NEG_INFINITY } else { 0.0 };
        remaining.iter().map(bias).collect()
    }

    #[test]
    fn masked_argmax_respects_eligibility_and_ties() {
        let row = [1.0f32, 3.0, 3.0, 2.0, 3.0, -1.0, 0.5, 0.25, 3.0];
        let masked_argmax = |remaining: &[u32]| {
            let mut masked = vec![0f32; row.len()];
            let top = mask_and_max(&row, &bias_for(remaining), &mut masked);
            (first_at(&masked, top).unwrap(), top)
        };
        // highest value 3.0 occurs at 1 (full), 2, 4, 8
        let mut remaining = vec![1u32; 9];
        remaining[1] = 0;
        assert_eq!(masked_argmax(&remaining), (2, 3.0));
        assert_eq!(masked_argmax_reference(&row, &remaining), (2, 3.0));
        remaining[2] = 0;
        remaining[4] = 0;
        assert_eq!(masked_argmax(&remaining), (8, 3.0));
        assert_eq!(masked_argmax_reference(&row, &remaining), (8, 3.0));
    }

    #[test]
    fn masked_row_helpers_match_scalar_scans_and_a_sort() {
        // coarse values so ties are everywhere, a few NaN and −∞, a third
        // of the crossbars full, and the row maximum planted on both sides
        // of every chunk boundary the width has
        let mut rng = StdRng::seed_from_u64(0x5CA1);
        for width in [1usize, 7, 8, 9, 16, 17, 67] {
            for round in 0..40 {
                let mut row: Vec<f32> = (0..width)
                    .map(|_| match rng.gen_range(0..12) {
                        0 => f32::NAN,
                        1 => f32::NEG_INFINITY,
                        _ => rng.gen_range(-3i32..=3) as f32 * 0.5,
                    })
                    .collect();
                if round % 2 == 0 {
                    for edge in (F_LANES..width).step_by(F_LANES) {
                        row[edge - 1] = 2.0;
                        row[edge] = 2.0;
                    }
                }
                let remaining: Vec<u32> = (0..width).map(|_| rng.gen_range(0..3)).collect();
                let mut masked = vec![0f32; width];
                let top = mask_and_max(&row, &bias_for(&remaining), &mut masked);

                // candidates: free, not NaN, not −∞ — in walk order
                let mut order: Vec<usize> = (0..width)
                    .filter(|&k| remaining[k] != 0 && row[k] > f32::NEG_INFINITY)
                    .collect();
                order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
                let what = format!("width {width} round {round}: {row:?} / {remaining:?}");
                for k in 0..width {
                    let expect = if remaining[k] == 0 {
                        f32::NEG_INFINITY
                    } else {
                        row[k]
                    };
                    assert!(
                        masked[k] == expect || (masked[k].is_nan() && row[k].is_nan()),
                        "{what}"
                    );
                }
                let Some(&first) = order.first() else {
                    assert_eq!(top, f32::NEG_INFINITY, "{what}");
                    continue;
                };
                assert_eq!(top, row[first], "{what}");
                assert_eq!(first_at(&masked, top), Some(first), "{what}");
                assert_eq!(
                    masked_argmax_reference(&row, &remaining),
                    (first, top),
                    "{what}"
                );
                let mut walk = vec![first];
                while let Some(next) = successor(&masked, *walk.last().unwrap()) {
                    walk.push(next);
                }
                assert_eq!(walk, order, "{what}");
                for &k in &order {
                    let mut values = order.iter().map(|&j| row[j]);
                    let below = values.find(|&v| v < row[k]);
                    assert_eq!(
                        max_below(&masked, row[k]),
                        below.unwrap_or(f32::NEG_INFINITY),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_without_a_candidate_take_the_lowest_free_crossbar() {
        // NaN rows (directly, and through a NaN inertia), −∞ rows, and NaN
        // mixed with one ordinary value: both kernels, same assignment and
        // same RNG stream, always feasible
        let (n, c, cap) = (4usize, 3usize, 2u32);
        let decoder = Decoder::new(n, c, cap, 4.0);
        let mut mixed = vec![f32::NAN; n * c];
        for i in 0..n {
            mixed[i * c + 2] = 4.0; // σ(4) ≈ 0.98: crossbar 2 fills first
        }
        for (velocity, expect) in [
            (vec![f32::NAN; n * c], Some([0, 0, 1, 1])),
            (vec![f32::NEG_INFINITY; n * c], Some([0, 0, 1, 1])),
            (mixed, None),
        ] {
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let (mut a, mut b) = (vec![9u32; n], vec![9u32; n]);
            let mut scratch = DecodeScratch::default();
            decoder.decode(&velocity, &mut rng_a, &mut a, &mut scratch);
            decoder.decode_reference(&velocity, &mut rng_b, &mut b, &mut scratch);
            assert_eq!(a, b);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            if let Some(expect) = expect {
                assert_eq!(a, expect);
            }
            for k in 0..c as u32 {
                assert!(a.iter().filter(|&&x| x == k).count() <= cap as usize);
            }
        }

        let w = StepWeights {
            inertia: f32::NAN,
            phi_p: 1.49,
            phi_g: 1.49,
        };
        let (mut va, mut vb) = (vec![1f32; n * c], vec![1f32; n * c]);
        let (mut pa, mut pb) = (vec![2u32, 1, 0, 2], vec![2u32, 1, 0, 2]);
        let (pbest, gbest) = ([0u32, 1, 2, 0], [1u32, 1, 1, 1]);
        let mut rng_a = StdRng::seed_from_u64(10);
        let mut rng_b = StdRng::seed_from_u64(10);
        let mut scratch = DecodeScratch::default();
        decoder.step(
            w,
            &mut va,
            &mut rng_a,
            &mut pa,
            &pbest,
            &gbest,
            &mut scratch,
        );
        decoder.step_reference(
            w,
            &mut vb,
            &mut rng_b,
            &mut pb,
            &pbest,
            &gbest,
            &mut scratch,
        );
        assert_eq!(pa, [0, 0, 1, 1]);
        assert_eq!(pa, pb);
        assert!(va.iter().chain(&vb).all(|v| v.is_nan()));
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn fill_velocity_in_range_and_deterministic() {
        let decoder = Decoder::new(7, 9, 2, 4.0);
        let mut a = vec![0f32; 63];
        let mut b = vec![1f32; 63]; // odd length exercises the remainder
        decoder.fill_velocity(&mut a, &mut StdRng::seed_from_u64(5));
        decoder.fill_velocity(&mut b, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-4.0..4.0).contains(v)));
        // roughly centred (weak sanity bound on the mean)
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn sigmoid_lut_tracks_exact_sigmoid() {
        let lut = SigmoidLut::new(4.0);
        let mut worst = 0f32;
        for k in 0..=8000 {
            let v = -4.0 + k as f32 * 0.001;
            worst = worst.max((lut.eval(v) - sigmoid(v)).abs());
        }
        assert!(worst < 1e-5, "lut error {worst}");
        // clamped outside the domain
        assert!((lut.eval(100.0) - sigmoid(4.0)).abs() < 1e-5);
        assert!((lut.eval(-100.0) - sigmoid(-4.0)).abs() < 1e-5);
    }
}
