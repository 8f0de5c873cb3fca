//! Property and acceptance tests for the hop-aware placement layer:
//!
//! * the staged pipeline with identity placement must reproduce the
//!   pre-placement monolithic flow **byte-identically** (the golden is
//!   rebuilt inline from the same public primitives the seed pipeline
//!   used: partition → `build_flows` → `build_topology` → `NocSim`);
//! * `FitnessKind::CutHops` incremental `Candidate` deltas must equal a full
//!   recompute under random move/swap sequences, and the batched swarm
//!   evaluator must equal the scalar path across mask strides;
//! * `core::place` swap deltas — the dense O(C) reference, the
//!   optimizer's O(deg) adjacency pricer and its O(1) slot-cost table —
//!   must equal the O(C²) reference kernel, the optimizer must be byte-deterministic across
//!   thread counts, and its default outcomes are frozen;
//! * acceptance: on the 64-crossbar mesh and the 256-crossbar
//!   `synth_16x16grid` scenarios (mesh *and* torus), hop-optimized
//!   placement strictly reduces hop-weighted packets and measurably
//!   reduces simulated NoC energy and latency vs identity placement.

use neuromap::apps::synthetic::LargeArch;
use neuromap::core::eval::{Candidate, EvalEngine, SwarmEval, SwarmScratch};
use neuromap::core::partition::{FitnessKind, PartitionProblem, Partitioner};
use neuromap::core::pipeline::{
    build_flows, build_topology, local_events, MappingPipeline, PipelineConfig, PlacementStrategy,
    TrafficMode,
};
use neuromap::core::place::{
    optimize_placement, placement_cost, swap_delta, PlaceConfig, SlotCostTable, TrafficAdjacency,
    TrafficMatrix,
};
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::hw::mapping::{Mapping, Placement};
use neuromap::noc::sim::NocSim;
use neuromap::noc::topology::{DistanceLut, HierTopology, Mesh2D, Topology, Torus};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::arb_graph;

/// The four interconnect kinds, selected by index.
fn interconnect(idx: u8) -> InterconnectKind {
    match idx % 4 {
        0 => InterconnectKind::Mesh,
        1 => InterconnectKind::Torus,
        2 => InterconnectKind::Tree {
            arity: 2 + u32::from(idx % 3),
        },
        _ => InterconnectKind::Star,
    }
}

fn topology_for(idx: u8, crossbars: usize) -> Box<dyn Topology> {
    common::topology_for(interconnect(idx), crossbars)
}

// ---- identity placement vs the pre-refactor monolithic flow ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    /// The staged pipeline with identity placement must serialize to the
    /// exact bytes of the seed pipeline's flow, rebuilt here from the
    /// same public primitives it was made of (partition problem →
    /// partitioner → build_flows → build_topology → NocSim), including
    /// every pre-existing report field and the full NoC statistics.
    #[test]
    fn identity_placement_is_byte_identical_to_the_monolithic_flow(
        graph in arb_graph(24),
        arch_idx in 0u8..8,
        traffic_idx in 0u8..2,
    ) {
        use neuromap::core::baselines::PacmanPartitioner;
        let n = graph.num_neurons();
        let crossbars = 4usize;
        let capacity = n.div_ceil(crossbars as u32) + 1;
        let arch = Architecture::custom(crossbars, capacity, interconnect(arch_idx)).unwrap();
        let traffic = if traffic_idx == 0 { TrafficMode::PerSynapse } else { TrafficMode::PerCrossbar };
        let cfg = PipelineConfig::for_arch(arch.clone()).with_traffic(traffic);
        prop_assert_eq!(&cfg.placement, &PlacementStrategy::Identity);

        // the staged flow under test
        let part = PacmanPartitioner::new();
        let staged = MappingPipeline::new(cfg.clone()).run(&graph, &part).unwrap();

        // the pre-refactor flow, reconstructed from primitives
        let problem = PartitionProblem::new(&graph, crossbars, capacity).unwrap();
        let mapping = part.partition(&problem).unwrap();
        let cut_spikes = problem.cut_spikes(mapping.assignment());
        let local = local_events(&graph, &mapping);
        let flows = build_flows(&graph, &mapping, traffic);
        let mut noc_cfg = cfg.noc;
        if traffic == TrafficMode::PerSynapse {
            noc_cfg.multicast_trees = false;
        }
        let stats = NocSim::new(build_topology(&arch), noc_cfg, *arch.energy())
            .run_with_duration(&flows, graph.duration_steps())
            .unwrap();

        // byte-level agreement on everything the seed pipeline reported
        prop_assert_eq!(staged.partitioner.as_str(), part.name());
        prop_assert_eq!(staged.num_neurons, n);
        prop_assert_eq!(staged.num_synapses, graph.num_synapses());
        prop_assert_eq!(staged.cut_spikes, cut_spikes);
        prop_assert_eq!(staged.local_events, local);
        prop_assert_eq!(staged.noc.digest().unwrap(), stats.digest().unwrap(), "NoC stats must digest-equal");
        let dim = arch.neurons_per_crossbar();
        let local_pj = arch.energy().local_pj_scaled(local, dim);
        prop_assert_eq!(staged.local_energy_pj.to_bits(), local_pj.to_bits());
        prop_assert_eq!(staged.global_energy_pj.to_bits(), stats.global_energy_pj.to_bits());
        prop_assert_eq!(
            staged.total_energy_pj.to_bits(),
            (local_pj + stats.global_energy_pj).to_bits()
        );
        prop_assert_eq!(staged.mapping.assignment(), mapping.assignment());
        prop_assert_eq!(staged.placement.as_str(), "identity");
        // and the full staged report round-trips byte-stably
        let json = serde_json::to_string(&staged).unwrap();
        let again = MappingPipeline::new(cfg).run(&graph, &part).unwrap();
        prop_assert_eq!(json, serde_json::to_string(&again).unwrap());
    }

    // ---- CutHops: incremental engine == full recompute ----------------

    #[test]
    fn cut_hops_deltas_match_recompute_under_moves_and_swaps(
        graph in arb_graph(20),
        topo_idx in 0u8..8,
        moves in proptest::collection::vec((0u32..20, 0u32..20), 1..50),
    ) {
        let n = graph.num_neurons();
        let crossbars = 6usize;
        let topo = topology_for(topo_idx, crossbars);
        let lut = DistanceLut::new(topo.as_ref());
        let problem = PartitionProblem::new(&graph, crossbars, n)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let engine = EvalEngine::new(problem, FitnessKind::CutHops);
        let mut a: Vec<u32> = (0..n).map(|i| i % crossbars as u32).collect();
        let mut candidate = Candidate::new(&engine, &mut a);
        prop_assert_eq!(candidate.cost(), problem.cut_hops(candidate.assignment()));
        for &(x, y) in &moves {
            let i = (x % n) as usize;
            let to = y % crossbars as u32;
            let before = candidate.cost() as i64;
            match candidate.move_delta(i, to) {
                Some(d) => {
                    candidate.apply(i, to, d);
                    prop_assert_eq!(candidate.cost() as i64, before + d);
                }
                None => prop_assert_eq!(candidate.assignment()[i], to, "only home is closed"),
            }
            prop_assert_eq!(
                candidate.cost(),
                problem.cut_hops(candidate.assignment()),
                "CutHops state drifted ({})", topo.name()
            );
        }
    }

    #[test]
    fn cut_hops_batched_swarm_matches_scalar(
        graph in arb_graph(30),
        crossbars in 2usize..300,
        lanes in 1usize..70,
        seed in 0u64..500,
    ) {
        let n = graph.num_neurons();
        let topo = Mesh2D::for_crossbars(crossbars);
        let lut = DistanceLut::new(&topo);
        let problem = PartitionProblem::new(&graph, crossbars, n)
            .unwrap()
            .with_hops(&lut)
            .unwrap();
        let evaluator = SwarmEval::new(problem, FitnessKind::CutHops);
        // ≤ 256 rides the byte tile; past it the hop-weighted objective
        // takes the scalar arm (its word-tile walk never beat it)
        prop_assert_eq!(evaluator.batched(), crossbars <= 256, "c={}", crossbars);
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<u32> = (0..lanes * n as usize)
            .map(|_| rng.gen_range(0..crossbars as u32))
            .collect();
        let mut out = vec![0u64; lanes];
        evaluator.eval_swarm(&positions, lanes, &mut SwarmScratch::default(), &mut out);
        for lane in 0..lanes {
            let row = &positions[lane * n as usize..(lane + 1) * n as usize];
            prop_assert_eq!(out[lane], problem.cut_hops(row), "c={} lane {}", crossbars, lane);
        }
    }

    // ---- place: swap deltas == reference, thread determinism ----------

    #[test]
    fn place_swap_delta_matches_reference(
        crossbars in 2usize..24,
        topo_idx in 0u8..8,
        seed in 0u64..1000,
        swaps in proptest::collection::vec((0u16..24, 0u16..24), 1..40),
    ) {
        let topo = topology_for(topo_idx, crossbars);
        let lut = DistanceLut::new(topo.as_ref());
        let mut rng = StdRng::seed_from_u64(seed);
        let packets: Vec<u64> = (0..crossbars * crossbars)
            .enumerate()
            .map(|(i, _)| if i % (crossbars + 1) == 0 { 0 } else { rng.gen_range(0..40u64) })
            .collect();
        let traffic = TrafficMatrix::from_raw(crossbars, packets);
        let mut perm: Vec<u32> = (0..crossbars as u32).collect();
        let mut cost = placement_cost(&traffic, &lut, &perm) as i64;
        for &(x, y) in &swaps {
            let (a, b) = ((x as usize) % crossbars, (y as usize) % crossbars);
            let d = swap_delta(&traffic, &lut, &perm, a, b);
            perm.swap(a, b);
            cost += d;
            prop_assert_eq!(
                cost as u64,
                placement_cost(&traffic, &lut, &perm),
                "swap delta drifted ({})", topo.name()
            );
        }
    }

    /// The optimizer's O(deg) pricer against both oracles, and its O(1)
    /// slot-cost table kept current along the same swaps, on traffic
    /// that is actually sparse: a drawn density from all-zero to full, so
    /// empty rows, isolated clusters and one-directional entries
    /// (`t(x,k) != 0 == t(k,x)`) all occur, over every flat fabric and a
    /// multi-chip weighted table.
    #[test]
    fn place_adjacency_matches_both_references_on_sparse_traffic(
        crossbars in 2usize..24,
        fabric in 0u8..9,
        density in 0u32..=100,
        seed in 0u64..1000,
        swaps in proptest::collection::vec((0u16..24, 0u16..24), 1..40),
    ) {
        let topo: Box<dyn Topology> = if fabric == 8 {
            Box::new(HierTopology::for_crossbars(crossbars, 2, 2, 4, 2).unwrap())
        } else {
            topology_for(fabric, crossbars)
        };
        let lut = topo.distance_lut();
        let mut rng = StdRng::seed_from_u64(seed);
        let packets: Vec<u64> = (0..crossbars * crossbars)
            .map(|i| {
                let off_diagonal = i % (crossbars + 1) != 0;
                if off_diagonal && rng.gen_range(0..100u32) < density {
                    rng.gen_range(1..40u64)
                } else {
                    0
                }
            })
            .collect();
        let traffic = TrafficMatrix::from_raw(crossbars, packets);
        let adjacency = TrafficAdjacency::new(&traffic);
        let mut perm: Vec<u32> = (0..crossbars as u32).collect();
        let mut table = SlotCostTable::new(&traffic, &adjacency, &lut, perm.clone());
        let mut cost = placement_cost(&traffic, &lut, &perm) as i64;
        for &(x, y) in &swaps {
            let (a, b) = ((x as usize) % crossbars, (y as usize) % crossbars);
            let d = adjacency.swap_delta(&lut, &perm, a, b);
            prop_assert_eq!(d, swap_delta(&traffic, &lut, &perm, a, b), "fabric {}", fabric);
            prop_assert_eq!(d, table.swap_delta(a, b), "fabric {} table", fabric);
            table.swap(a, b);
            perm.swap(a, b);
            cost += d;
            prop_assert_eq!(
                cost as u64,
                placement_cost(&traffic, &lut, &perm),
                "fabric {} density {}", fabric, density
            );
        }
    }

    #[test]
    fn place_optimizer_thread_invariant_and_never_worse_than_identity(
        graph in arb_graph(30),
        crossbars in 2usize..12,
        topo_idx in 0u8..8,
        seed in 0u64..200,
    ) {
        let n = graph.num_neurons();
        let topo = topology_for(topo_idx, crossbars);
        let lut = DistanceLut::new(topo.as_ref());
        let mut rng = StdRng::seed_from_u64(seed);
        let assign: Vec<u32> = (0..n).map(|_| rng.gen_range(0..crossbars as u32)).collect();
        let mapping = Mapping::from_assignment(assign, crossbars).unwrap();
        let traffic = TrafficMatrix::from_mapping(&graph, &mapping, TrafficMode::PerCrossbar);
        let cfg = PlaceConfig {
            restarts: 3,
            sa_moves: 200,
            threads: 1,
            ..PlaceConfig::default()
        };
        let one = optimize_placement(&traffic, &lut, &cfg).unwrap();
        prop_assert!(one.optimized_cost <= one.identity_cost);
        prop_assert_eq!(
            placement_cost(&traffic, &lut, one.placement.as_slice()),
            one.optimized_cost
        );
        // placement composes losslessly into the mapping
        let placed = mapping.place(&one.placement).unwrap();
        for (&to, &from) in placed.assignment().iter().zip(mapping.assignment()) {
            prop_assert_eq!(to, one.placement.physical_of(from));
        }
        for threads in [2usize, 5] {
            let multi = optimize_placement(&traffic, &lut, &PlaceConfig { threads, ..cfg }).unwrap();
            prop_assert_eq!(&one, &multi, "threads={}", threads);
        }
    }

    /// The restart chunking must be invisible in the output for *every*
    /// thread count, explicitly including `threads > restarts` — the
    /// regime where the old ceil-division chunking spawned workers with
    /// empty `lo >= hi` ranges.
    #[test]
    fn place_chunking_is_thread_invariant_beyond_restart_count(
        crossbars in 2usize..16,
        topo_idx in 0u8..8,
        restarts in 1u32..6,
        seed in 0u64..500,
    ) {
        let topo = topology_for(topo_idx, crossbars);
        let lut = DistanceLut::new(topo.as_ref());
        let mut rng = StdRng::seed_from_u64(seed);
        let packets: Vec<u64> = (0..crossbars * crossbars)
            .enumerate()
            .map(|(i, _)| if i % (crossbars + 1) == 0 { 0 } else { rng.gen_range(0..40u64) })
            .collect();
        let traffic = TrafficMatrix::from_raw(crossbars, packets);
        let cfg = PlaceConfig {
            restarts,
            sa_moves: 150,
            threads: 1,
            ..PlaceConfig::default()
        };
        let one = optimize_placement(&traffic, &lut, &cfg).unwrap();
        let r = restarts as usize;
        for threads in [2usize, r.max(1), r + 1, 2 * r + 3, 16] {
            let multi = optimize_placement(&traffic, &lut, &PlaceConfig { threads, ..cfg }).unwrap();
            prop_assert_eq!(&one, &multi, "threads={} restarts={}", threads, restarts);
        }
    }
}

// ---- acceptance: identity vs optimized placement, end to end ---------

/// Runs identity vs hop-optimized placement for one scenario/fabric and
/// asserts the acceptance criteria: strictly fewer hop-weighted packets,
/// strictly less simulated NoC energy, and lower average latency, with
/// cut packets invariant.
fn assert_placement_improves(scenario: &LargeArch, kind: InterconnectKind, fabric: &str) {
    let graph = scenario.spike_graph(2018).expect("scenario builds");
    let arch = Architecture::custom(scenario.num_crossbars(), scenario.capacity(), kind).unwrap();
    let mut cfg = PipelineConfig::for_arch(arch).with_traffic(TrafficMode::PerCrossbar);
    // multicast AER + deep FIFOs: the torus's wraparound rings are not
    // deadlock-free under dimension-order routing with shallow buffers
    cfg.noc.cycles_per_step = 8192;
    cfg.noc.buffer_depth = 64;
    let identity = MappingPipeline::new(cfg);
    let optimized = identity.with_placement(PlacementStrategy::HopOptimized(PlaceConfig {
        restarts: 2,
        threads: 1,
        ..PlaceConfig::default()
    }));

    // the shared grid-oblivious scenario (same seed as the eval bench's
    // placement gate, so bench and acceptance test exercise one case)
    let mapping = scenario.scrambled_packed_mapping(0x91A);
    let (id_m, id_p, _) = identity.place(&graph, &mapping).unwrap();
    assert_eq!(id_p, Placement::identity(mapping.num_crossbars()));
    let (opt_m, opt_p, label) = optimized.place(&graph, &mapping).unwrap();
    assert_eq!(label, "hop-optimized");
    assert_eq!(opt_m, mapping.place(&opt_p).unwrap());

    let r_id = identity
        .evaluate(&graph, id_m, "packed", "identity")
        .unwrap()
        .report;
    let r_opt = optimized
        .evaluate(&graph, opt_m, "packed", &label)
        .unwrap()
        .report;
    assert_eq!(r_id.placement, "identity", "{fabric}");
    assert_eq!(r_opt.placement, "hop-optimized", "{fabric}");

    // the partition is untouched: cut metrics and delivered packets match
    assert_eq!(r_id.cut_spikes, r_opt.cut_spikes, "{fabric}");
    assert_eq!(r_id.noc.delivered, r_opt.noc.delivered, "{fabric}");
    // placement strictly reduces the hop-weighted objective...
    assert!(
        r_opt.hop_weighted_packets < r_id.hop_weighted_packets,
        "{fabric}: hop-weighted packets {} !< {}",
        r_opt.hop_weighted_packets,
        r_id.hop_weighted_packets
    );
    assert!(r_opt.avg_hops < r_id.avg_hops, "{fabric}");
    // ...and the simulated NoC energy and latency follow
    assert!(
        r_opt.global_energy_pj < r_id.global_energy_pj,
        "{fabric}: NoC energy {} !< {}",
        r_opt.global_energy_pj,
        r_id.global_energy_pj
    );
    assert!(
        r_opt.noc.avg_latency_cycles < r_id.noc.avg_latency_cycles,
        "{fabric}: avg latency {} !< {}",
        r_opt.noc.avg_latency_cycles,
        r_id.noc.avg_latency_cycles
    );
}

#[test]
fn placement_improves_the_64_crossbar_mesh_and_torus() {
    let scenario = LargeArch {
        side: 8,
        neurons_per_crossbar: 8,
        synapses_per_neuron: 24,
        fill_percent: 85,
    };
    assert_placement_improves(&scenario, InterconnectKind::Mesh, "mesh64");
    assert_placement_improves(&scenario, InterconnectKind::Torus, "torus64");
}

#[test]
fn placement_improves_the_256_crossbar_grid() {
    let scenario = LargeArch::grid16();
    assert_placement_improves(&scenario, InterconnectKind::Mesh, "mesh256");
    assert_placement_improves(&scenario, InterconnectKind::Torus, "torus256");
}

/// `optimize_placement` outcomes under `PlaceConfig::default()`, frozen
/// on the dense O(C) `swap_delta` optimizer: any change to how swaps are
/// priced or in which order they are tried must reproduce these
/// `(optimized_cost, winning_restart, FNV-1a of the permutation)` triples
/// bit for bit, at every thread count.
#[test]
fn default_placement_outcomes_are_frozen() {
    use neuromap::apps::synthetic::MultiChip;
    let fnv = |perm: &[u32]| {
        perm.iter()
            .flat_map(|p| p.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    };
    let grid = LargeArch::grid16();
    let grid_graph = grid.spike_graph(2018).expect("scenario builds");
    let grid_traffic = TrafficMatrix::from_mapping(
        &grid_graph,
        &grid.scrambled_packed_mapping(0x91A),
        TrafficMode::PerCrossbar,
    );
    // 2 x 2 chips of an 8 x 8 grid: 256 crossbars, weighted seams; the
    // chip-major home tiles are scrambled the same way as the flat grid's
    let chips = MultiChip {
        chip: LargeArch {
            side: 8,
            ..LargeArch::grid16()
        },
        ..MultiChip::four_chip16()
    };
    let chips_graph = chips.spike_graph(2018).expect("scenario builds");
    assert_eq!(chips_graph.num_neurons(), grid_graph.num_neurons());
    let chips_traffic = TrafficMatrix::from_mapping(
        &chips_graph,
        &grid.scrambled_packed_mapping(0x91A),
        TrafficMode::PerCrossbar,
    );
    let hier = HierTopology::for_crossbars(
        chips.num_crossbars(),
        chips.chip_cols as usize,
        chips.chip_rows as usize,
        chips.link_latency,
        chips.link_width,
    )
    .expect("scenario parameters are valid")
    .distance_lut();
    let cases = [
        (
            "mesh256",
            &grid_traffic,
            Mesh2D::for_crossbars(256).distance_lut(),
            (772_787, 0, 0x1dc6_9ed3_6385_2475),
        ),
        (
            "torus256",
            &grid_traffic,
            Torus::for_crossbars(256).distance_lut(),
            (637_268, 0, 0x5e3f_8708_430e_0945),
        ),
        (
            "hier4x64",
            &chips_traffic,
            hier,
            (1_251_077, 2, 0xf5be_35cb_9c71_a245),
        ),
    ];
    for (fabric, traffic, lut, frozen) in &cases {
        for threads in [1usize, 3] {
            let cfg = PlaceConfig {
                threads,
                ..PlaceConfig::default()
            };
            let out = optimize_placement(traffic, lut, &cfg).unwrap();
            assert_eq!(
                (
                    out.optimized_cost,
                    out.winning_restart,
                    fnv(out.placement.as_slice())
                ),
                *frozen,
                "{fabric} threads={threads}"
            );
        }
    }
}

#[test]
fn pso_partition_also_benefits_from_placement() {
    // not just the synthetic scramble: a real PSO partition on the
    // 64-crossbar mesh must not get worse under hop-optimized placement,
    // and the reported placement id must round-trip
    use neuromap::core::pso::{PsoConfig, PsoPartitioner};
    let scenario = LargeArch {
        side: 8,
        neurons_per_crossbar: 8,
        synapses_per_neuron: 24,
        fill_percent: 85,
    };
    let graph = scenario.spike_graph(7).unwrap();
    let arch = Architecture::custom(64, 8, InterconnectKind::Mesh).unwrap();
    let mut cfg = PipelineConfig::for_arch(arch).with_traffic(TrafficMode::PerCrossbar);
    cfg.noc.cycles_per_step = 8192;
    let pipeline = MappingPipeline::new(cfg);
    let pso = PsoPartitioner::new(PsoConfig {
        swarm_size: 6,
        iterations: 3,
        fitness: FitnessKind::CutPackets,
        seed_baselines: false,
        polish_passes: 0,
        threads: 1,
        ..PsoConfig::default()
    });
    let mapping = pipeline.partition(&graph, &pso).unwrap();
    let optimized = pipeline.with_placement(PlacementStrategy::HopOptimized(PlaceConfig {
        restarts: 2,
        threads: 1,
        ..PlaceConfig::default()
    }));
    let (opt_m, _, label) = optimized.place(&graph, &mapping).unwrap();
    let r_id = pipeline
        .evaluate(&graph, mapping, "pso", "identity")
        .unwrap()
        .report;
    let r_opt = optimized
        .evaluate(&graph, opt_m, "pso", &label)
        .unwrap()
        .report;
    assert!(r_opt.hop_weighted_packets <= r_id.hop_weighted_packets);
    assert_eq!(r_id.cut_spikes, r_opt.cut_spikes);
    let json = serde_json::to_string(&r_opt).unwrap();
    assert!(json.contains("\"hop_weighted_packets\""));
    assert!(json.contains("\"avg_hops\""));
    assert!(json.contains("\"placement\":\"hop-optimized\""));
}
