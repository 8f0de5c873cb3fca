//! Reproducibility across the whole stack: with a fixed seed, every stage
//! — SNN simulation, graph extraction, partitioning, interconnect
//! simulation — must produce bit-identical results run to run, and the
//! masked-row PSO re-binarization/repair kernel must be bit-identical
//! to its scalar reference for any thread count and velocity state.

use neuromap::apps::synthetic::LargeArch;
use neuromap::apps::{heartbeat::HeartbeatEstimation, synthetic::Synthetic, App};
use neuromap::core::decode::{DecodeScratch, Decoder, StepWeights};
use neuromap::core::partition::{FitnessKind, PartitionProblem};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig, Report};
use neuromap::hw::arch::{Architecture, InterconnectKind};
use proptest::prelude::*;
use proptest::TestCaseResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

fn full_run(seed: u64, threads: usize) -> Report {
    let app = Synthetic {
        steps: 250,
        ..Synthetic::new(2, 20)
    };
    let graph = app.spike_graph(seed).expect("app simulates");
    let arch = Architecture::custom(4, 14, InterconnectKind::Tree { arity: 2 }).unwrap();
    let cfg = PipelineConfig::for_arch(arch);
    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 16,
        iterations: 12,
        seed: seed ^ 0xBEEF,
        threads,
        ..PsoConfig::default()
    });
    MappingPipeline::new(cfg)
        .run(&graph, &pso)
        .expect("pipeline runs")
}

#[test]
fn identical_seeds_identical_reports() {
    let a = full_run(42, 1);
    let b = full_run(42, 1);
    assert_eq!(a, b);
}

#[test]
fn thread_count_does_not_change_results() {
    let a = full_run(42, 1);
    let b = full_run(42, 4);
    assert_eq!(a, b, "fitness threading must be bit-deterministic");
}

#[test]
fn different_seeds_differ() {
    let a = full_run(1, 1);
    let b = full_run(2, 1);
    assert_ne!(a.noc, b.noc, "different stimuli should differ somewhere");
}

/// Random velocities with frequent exact ties: half the draws are
/// quantized to a coarse 0.5 grid and everything is clamped to the
/// domain edge, so tie-breaking between equal maxima is exercised
/// constantly.
fn tie_heavy_velocities(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                (rng.gen_range(-10i32..=10) as f32) * 0.5
            } else {
                rng.gen_range(-6.0f32..6.0)
            }
            .clamp(-4.0, 4.0)
        })
        .collect()
}

/// One particle's state under one of the two kernels: velocities, RNG
/// stream, position. The scratch is not part of it: it outlives
/// particles, iterations and decoder shapes when a test says so.
struct Side {
    velocity: Vec<f32>,
    rng: StdRng,
    position: Vec<u32>,
}

impl Side {
    fn new(velocity: &[f32], rng_seed: u64, n: usize) -> Self {
        Self {
            velocity: velocity.to_vec(),
            rng: StdRng::seed_from_u64(rng_seed),
            position: vec![0; n],
        }
    }
}

/// Both kernels over the same state: `decode` when `step` is `None`, else
/// one `step` towards `(pbest, gbest)`. Positions, velocity bits (so `NaN`
/// payloads and zero signs count) and the RNG state must agree, and
/// the assignment must respect `cap`.
fn kernels_agree(
    decoder: &Decoder,
    (c, cap): (usize, u32),
    step: Option<(StepWeights, &[u32], &[u32])>,
    production: &mut Side,
    reference: &mut Side,
    scratch: &mut [DecodeScratch; 2],
) -> TestCaseResult {
    let [scratch_a, scratch_b] = scratch;
    let (a, b) = (production, reference);
    match step {
        None => {
            decoder.decode(&a.velocity, &mut a.rng, &mut a.position, scratch_a);
            decoder.decode_reference(&b.velocity, &mut b.rng, &mut b.position, scratch_b);
        }
        Some((w, pbest, gbest)) => {
            decoder.step(
                w,
                &mut a.velocity,
                &mut a.rng,
                &mut a.position,
                pbest,
                gbest,
                scratch_a,
            );
            decoder.step_reference(
                w,
                &mut b.velocity,
                &mut b.rng,
                &mut b.position,
                pbest,
                gbest,
                scratch_b,
            );
        }
    }
    prop_assert_eq!(&a.position, &b.position, "assignments diverged");
    let bits = |side: &Side| {
        side.velocity
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(bits(a), bits(b), "velocities diverged");
    prop_assert_eq!(&a.rng, &b.rng, "RNG streams diverged");
    let mut occ = vec![0u32; c];
    for &k in &a.position {
        occ[k as usize] += 1;
    }
    prop_assert!(occ.iter().all(|&o| o <= cap), "over capacity: {:?}", occ);
    Ok(())
}

const WEIGHTS: StepWeights = StepWeights {
    inertia: 0.72,
    phi_p: 1.49,
    phi_g: 1.49,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    #[test]
    fn lane_parallel_repair_matches_scalar_kernel(
        n in 1usize..40,
        c in 1usize..300,
        cap_slack in 0u32..20,
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let cap = (n as u32).div_ceil(c as u32) + cap_slack;
        let decoder = Decoder::new(n, c, cap, 4.0);
        let velocity = tie_heavy_velocities(n * c, vel_seed);
        let mut rng_a = StdRng::seed_from_u64(rng_seed);
        let mut rng_b = StdRng::seed_from_u64(rng_seed);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        decoder.decode(&velocity, &mut rng_a, &mut a, &mut DecodeScratch::default());
        decoder.decode_reference(&velocity, &mut rng_b, &mut b, &mut DecodeScratch::default());
        prop_assert_eq!(&a, &b, "repair diverged (n={}, c={})", n, c);
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
        // the decoded assignment is always capacity-feasible
        let mut occ = vec![0u32; c];
        for &k in &a { occ[k as usize] += 1; }
        prop_assert!(occ.iter().all(|&o| o <= cap));
    }

    #[test]
    fn fused_step_matches_scalar_kernel(
        n in 1usize..30,
        c in 1usize..200,
        inertia in 0.5f32..1.2,
        cap_slack in 0u32..4,
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let cap = (n as u32).div_ceil(c as u32) + cap_slack;
        let decoder = Decoder::new(n, c, cap, 4.0);
        let w = StepWeights { inertia, phi_p: 1.49, phi_g: 1.49 };
        let mut pick = StdRng::seed_from_u64(vel_seed ^ 0xABC);
        let pos: Vec<u32> = (0..n).map(|_| pick.gen_range(0..c as u32)).collect();
        let pbest: Vec<u32> = (0..n).map(|_| pick.gen_range(0..c as u32)).collect();
        let gbest: Vec<u32> = (0..n).map(|_| pick.gen_range(0..c as u32)).collect();
        let velocity = tie_heavy_velocities(n * c, vel_seed);
        let (mut va, mut vb) = (velocity.clone(), velocity);
        let (mut pa, mut pb) = (pos.clone(), pos);
        let mut rng_a = StdRng::seed_from_u64(rng_seed);
        let mut rng_b = StdRng::seed_from_u64(rng_seed);
        decoder.step(w, &mut va, &mut rng_a, &mut pa, &pbest, &gbest,
            &mut DecodeScratch::default());
        decoder.step_reference(w, &mut vb, &mut rng_b, &mut pb, &pbest, &gbest,
            &mut DecodeScratch::default());
        prop_assert_eq!(pa, pb, "assignments diverged (n={}, c={})", n, c);
        prop_assert_eq!(va, vb, "velocities diverged");
        prop_assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
    }

    /// Velocities in `[−4, −2]` (σ ≤ 0.12) on an exact-fit capacity:
    /// nearly every neuron rejects every free crossbar, so the walk runs
    /// to its end and the repair fallback decides — through a `decode`
    /// and then a `step` that keeps the velocities where they are.
    #[test]
    fn deep_walks_match_scalar_kernel(
        n in 1usize..120,
        c in 1usize..=40,
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let cap = (n as u32).div_ceil(c as u32);
        let decoder = Decoder::new(n, c, cap, 4.0);
        let mut draw = StdRng::seed_from_u64(vel_seed);
        let velocity: Vec<f32> = (0..n * c)
            .map(|_| if draw.gen_bool(0.3) {
                (draw.gen_range(-8i32..=-4) as f32) * 0.5 // ties
            } else {
                draw.gen_range(-4.0f32..=-2.0)
            })
            .collect();
        let mut a = Side::new(&velocity, rng_seed, n);
        let mut b = Side::new(&velocity, rng_seed, n);
        let mut scratch = [DecodeScratch::default(), DecodeScratch::default()];
        kernels_agree(&decoder, (c, cap), None, &mut a, &mut b, &mut scratch)?;
        let best = a.position.clone();
        let stay = StepWeights { inertia: 1.0, phi_p: 0.0, phi_g: 0.0 };
        kernels_agree(&decoder, (c, cap), Some((stay, &best, &best)), &mut a, &mut b, &mut scratch)?;
    }

    /// What the swarm does and no other test here did: one scratch per
    /// kernel, reused across particles, iterations and a change of decoder
    /// shape — a stale eligibility, masked or `tried` row would show.
    /// Twelve `step` pairs in all, checked after every one.
    #[test]
    fn chained_steps_on_one_scratch_match_scalar_kernel(
        shapes in proptest::collection::vec((1usize..30, 1usize..90, 0u32..2), 2),
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let mut scratch = [DecodeScratch::default(), DecodeScratch::default()];
        for (shape, &(n, c, cap_slack)) in shapes.iter().enumerate() {
            let cap = (n as u32).div_ceil(c as u32) + cap_slack;
            let decoder = Decoder::new(n, c, cap, 4.0);
            let mut particles: Vec<(Side, Side)> = (0..2u64)
                .map(|p| {
                    let seed = 2 * shape as u64 + p;
                    let velocity = tie_heavy_velocities(n * c, vel_seed ^ seed);
                    let side = || Side::new(&velocity, rng_seed ^ seed, n);
                    (side(), side())
                })
                .collect();
            for (a, b) in &mut particles {
                kernels_agree(&decoder, (c, cap), None, a, b, &mut scratch)?;
            }
            let pbest: Vec<Vec<u32>> = particles.iter().map(|(a, _)| a.position.clone()).collect();
            for _iteration in 0..3 {
                for ((a, b), own) in particles.iter_mut().zip(&pbest) {
                    let step = Some((WEIGHTS, &own[..], &pbest[0][..]));
                    kernels_agree(&decoder, (c, cap), step, a, b, &mut scratch)?;
                }
            }
        }
    }

    /// The values arithmetic can reach and the optimizer never feeds:
    /// `inertia: 0.0` turns every untouched velocity into `±0.0` (the
    /// masked row holds `+0.0` for both; neither the index chosen nor the
    /// sigmoid may notice), and rows that are all `−∞`, all NaN, or NaN
    /// around a few ordinary values — no candidate, or few — must still
    /// decode alike, and feasibly, on a tight capacity.
    #[test]
    fn signed_zero_infinite_and_nan_velocities_match_scalar_kernel(
        n in 1usize..40,
        c in 1usize..80,
        cap_slack in 0u32..2,
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let cap = (n as u32).div_ceil(c as u32) + cap_slack;
        let decoder = Decoder::new(n, c, cap, 4.0);
        let mut pick = StdRng::seed_from_u64(vel_seed ^ 0x2E20);
        let mut target = || (0..n).map(|_| pick.gen_range(0..c as u32)).collect::<Vec<u32>>();
        let (pbest, gbest) = (target(), target());
        let mut scratch = [DecodeScratch::default(), DecodeScratch::default()];

        let velocity = tie_heavy_velocities(n * c, vel_seed);
        let mut a = Side::new(&velocity, rng_seed, n);
        let mut b = Side::new(&velocity, rng_seed, n);
        kernels_agree(&decoder, (c, cap), None, &mut a, &mut b, &mut scratch)?;
        let zeroing = StepWeights { inertia: 0.0, ..WEIGHTS };
        for _ in 0..2 {
            let step = Some((zeroing, &pbest[..], &gbest[..]));
            kernels_agree(&decoder, (c, cap), step, &mut a, &mut b, &mut scratch)?;
        }
        prop_assert!(a.velocity.iter().any(|v| v.to_bits() == (-0.0f32).to_bits()) || n * c < 8);

        let mut velocity = velocity;
        for row in velocity.chunks_mut(c) {
            match pick.gen_range(0..4) {
                0 => row.fill(f32::NEG_INFINITY),
                1 => row.fill(f32::NAN),
                2 => row.iter_mut().for_each(|v| if pick.gen_bool(0.8) { *v = f32::NAN }),
                _ => {}
            }
        }
        let mut a = Side::new(&velocity, rng_seed, n);
        let mut b = Side::new(&velocity, rng_seed, n);
        kernels_agree(&decoder, (c, cap), None, &mut a, &mut b, &mut scratch)?;
        let step = Some((WEIGHTS, &pbest[..], &gbest[..]));
        kernels_agree(&decoder, (c, cap), step, &mut a, &mut b, &mut scratch)?;
    }

    #[test]
    fn pso_repair_thread_counts_bit_identical_at_large_arch(
        seed in 0u64..500,
        swarm in 4usize..10,
        iterations in 2u32..6,
    ) {
        // 81 crossbars: the multi-word envelope; threads 1/2/4 must yield
        // byte-identical mappings and traces
        let scenario = LargeArch {
            side: 9,
            neurons_per_crossbar: 4,
            synapses_per_neuron: 6,
            fill_percent: 75,
        };
        let graph = scenario.spike_graph(seed).expect("scenario builds");
        let problem = PartitionProblem::new(
            &graph, scenario.num_crossbars(), scenario.capacity(),
        ).expect("feasible");
        let base = PsoConfig {
            swarm_size: swarm,
            iterations,
            seed: seed ^ 0xD15C,
            fitness: FitnessKind::CutPackets,
            seed_baselines: false,
            polish_passes: 0,
            threads: 1,
        };
        let (m1, t1) = PsoPartitioner::new(base)
            .partition_traced(&problem).expect("runs");
        for threads in [2usize, 4] {
            let cfg = PsoConfig { threads, ..base };
            let (m, t) = PsoPartitioner::new(cfg)
                .partition_traced(&problem).expect("runs");
            prop_assert_eq!(&m1, &m, "mapping changed with {} threads", threads);
            prop_assert_eq!(&t1, &t, "trace changed with {} threads", threads);
        }
    }
}

#[test]
fn application_graphs_are_reproducible() {
    let app = HeartbeatEstimation {
        duration_ms: 1500,
        ..HeartbeatEstimation::default()
    };
    let a = app.spike_graph(7).expect("runs");
    let b = app.spike_graph(7).expect("runs");
    assert_eq!(a, b);
}
