//! Reproducibility across the whole stack: with a fixed seed, every stage
//! — SNN simulation, graph extraction, partitioning, interconnect
//! simulation — must produce bit-identical results run to run, and the
//! lane-parallel PSO re-binarization/repair kernel must be bit-identical
//! to its scalar reference for any thread count and velocity state.

use neuromap::apps::synthetic::LargeArch;
use neuromap::apps::{heartbeat::HeartbeatEstimation, synthetic::Synthetic, App};
use neuromap::core::decode::{DecodeScratch, Decoder, StepWeights};
use neuromap::core::partition::{FitnessKind, PartitionProblem};
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::core::{MappingPipeline, PipelineConfig, Report};
use neuromap::hw::arch::{Architecture, InterconnectKind};
use proptest::prelude::*;
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
        vel_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
    ) {
        let cap = (n as u32).div_ceil(c as u32) + 3;
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
            ..PsoConfig::default()
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
