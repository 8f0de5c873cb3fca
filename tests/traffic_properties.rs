//! The one traffic model (`core::traffic`, reached through its three
//! folds: `build_flows`, `local_events`, `TrafficMatrix::from_mapping`)
//! against the independent specification it must agree with —
//! `PartitionProblem::{cut_spikes, cut_packets, cut_hops}`, which derive
//! remote destinations with loops of their own — and against per-flow
//! references rebuilt here:
//!
//! * conservation: every synaptic event is local or cut;
//! * the traffic matrix's totals and hop-weighted price equal the
//!   partition objectives and what `hop_metrics` measures on the flows;
//! * under Steiner trees, `hop_metrics` (the NoC forwarding plan's count,
//!   one tree per distinct net) equals a reference that routes one tree
//!   per spike, on mesh, torus, tree and 2×2-chip fabrics;
//! * flow order is invisible: `hop_metrics` under a shuffle, and the
//!   whole `Report` for per-synapse flows in synapse (CSR) order, the
//!   order `build_flows` emitted before it grouped them by crossbar;
//! * across layers: the link flits the simulator charges are the
//!   report's hop-weighted packets times the flits per packet (and, for
//!   per-crossbar traffic split into one flow per destination, the
//!   `CutHops` objective) — at most that under plain multicast, which
//!   only merges routes.

use neuromap::core::pipeline::{
    build_flows, build_topology, local_events, MappingPipeline, PipelineConfig, TrafficMode,
};
use neuromap::core::place::{placement_cost, TrafficMatrix};
use neuromap::core::SpikeGraph;
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::hw::mapping::Mapping;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::NocSim;
use neuromap::noc::topology::Topology;
use neuromap::noc::traffic::{sort_canonical, SpikeFlow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

mod common;
use common::arb_graph;

const MODES: [TrafficMode; 2] = [TrafficMode::PerSynapse, TrafficMode::PerCrossbar];

/// Two chips by two, chip-boundary hops priced 3 × 2 in the distance
/// table.
const HIER_2X2: InterconnectKind = InterconnectKind::Hier {
    chip_cols: 2,
    chip_rows: 2,
    link_latency: 3,
    link_width: 2,
};

/// Strategy: a graph, a crossbar count (a single crossbar included) and
/// a uniformly random assignment — any is feasible at capacity `n`.
fn arb_mapped() -> impl Strategy<Value = (SpikeGraph, Mapping)> {
    (arb_graph(24), 0usize..6, any::<u64>()).prop_map(|(graph, size_idx, seed)| {
        let crossbars = [1usize, 2, 4, 6, 9, 16][size_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = (0..graph.num_neurons())
            .map(|_| rng.gen_range(0..crossbars as u32))
            .collect();
        let mapping = Mapping::from_assignment(assignment, crossbars).expect("ids in range");
        (graph, mapping)
    })
}

/// A pipeline over `mapping`'s crossbars that any assignment fits.
fn pipeline(
    graph: &SpikeGraph,
    mapping: &Mapping,
    kind: InterconnectKind,
    noc: NocConfig,
    mode: TrafficMode,
) -> MappingPipeline {
    let arch = Architecture::custom(mapping.num_crossbars(), graph.num_neurons(), kind).unwrap();
    MappingPipeline::new(
        PipelineConfig::for_arch(arch)
            .with_noc(noc)
            .with_traffic(mode),
    )
}

/// Reference tree pricing: one `multicast_route` per spike, its links
/// counted as the distinct non-empty prefixes of the per-destination
/// paths (two destinations share a link exactly when they share the
/// whole path up to it).
fn per_flow_tree_cost(topo: &dyn Topology, vcs: usize, flows: &[SpikeFlow]) -> u64 {
    flows
        .iter()
        .map(|f| {
            let dests: Vec<usize> = f.dst_crossbars.iter().map(|&d| topo.endpoint(d)).collect();
            let paths = topo.multicast_route(topo.endpoint(f.src_crossbar), &dests, vcs);
            let links: std::collections::BTreeSet<&[(usize, usize)]> = paths
                .iter()
                .flat_map(|p| (1..=p.len()).map(move |k| &p[..k]))
                .collect();
            links.len() as u64
        })
        .sum()
}

/// Per-synapse flows in synapse (CSR) order: per spike, one unicast flow
/// per remote synapse as `graph.targets` lists them.
fn per_synapse_flows_in_csr_order(graph: &SpikeGraph, mapping: &Mapping) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    let crossbar_of = mapping.assignment();
    for i in 0..graph.num_neurons() {
        let home = crossbar_of[i as usize];
        for &t in graph.train(i).times() {
            for &j in graph.targets(i) {
                if crossbar_of[j as usize] != home {
                    flows.push(SpikeFlow::unicast(i, home, crossbar_of[j as usize], t));
                }
            }
        }
    }
    flows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    /// (a) + (b): the folds against the partition objectives, pairwise
    /// pricing, on every fabric kind's hop table.
    #[test]
    fn folds_agree_with_the_partition_objectives(
        (graph, mapping) in arb_mapped(),
        kind_idx in 0u8..4,
    ) {
        let kind = match kind_idx {
            0 => InterconnectKind::Mesh,
            1 => InterconnectKind::Torus,
            2 => InterconnectKind::Tree { arity: 2 },
            _ => InterconnectKind::Star,
        };
        let identity: Vec<u32> = (0..mapping.num_crossbars() as u32).collect();
        for mode in MODES {
            let pipeline = pipeline(&graph, &mapping, kind, NocConfig::default(), mode);
            let problem = pipeline.problem(&graph).unwrap();
            let a = mapping.assignment();
            prop_assert_eq!(
                local_events(&graph, &mapping) + problem.cut_spikes(a),
                graph.total_synaptic_events()
            );
            let matrix = TrafficMatrix::from_mapping(&graph, &mapping, mode);
            let priced = placement_cost(&matrix, pipeline.distances(), &identity);
            let flows = build_flows(&graph, &mapping, mode);
            let (weighted, unicast) = pipeline.hop_metrics(&flows);
            prop_assert_eq!(priced, weighted, "{:?}", mode);
            prop_assert_eq!(matrix.total_packets(), unicast, "{:?}", mode);
            match mode {
                TrafficMode::PerSynapse => prop_assert_eq!(unicast, problem.cut_spikes(a)),
                TrafficMode::PerCrossbar => {
                    prop_assert_eq!(unicast, problem.cut_packets(a));
                    prop_assert_eq!(priced, problem.cut_hops(a));
                }
            }
        }
    }

    /// (c): `hop_metrics` under trees (the forwarding plan's count, one
    /// tree per distinct net) against a reference that routes one tree
    /// per spike, on mesh, torus, tree and 2×2-chip fabrics.
    #[test]
    fn tree_pricing_agrees_per_run_per_net_and_per_spike(
        (graph, mapping) in arb_mapped(),
        kind_idx in 0u8..4,
    ) {
        let (kind, vc_count) = match kind_idx {
            0 => (InterconnectKind::Mesh, 1),
            1 => (InterconnectKind::Torus, 2),
            2 => (InterconnectKind::Tree { arity: 2 }, 1),
            _ => (HIER_2X2, 2),
        };
        let noc = NocConfig { multicast_trees: true, vc_count, ..NocConfig::default() };
        let identity: Vec<u32> = (0..mapping.num_crossbars() as u32).collect();
        for mode in MODES {
            let pipeline = pipeline(&graph, &mapping, kind, noc, mode);
            let flows = build_flows(&graph, &mapping, mode);
            let (weighted, _) = pipeline.hop_metrics(&flows);
            let expected = match mode {
                // the run turns trees off: each packet is priced by
                // the (seam-weighted, on `Hier`) distance table
                TrafficMode::PerSynapse => {
                    let matrix = TrafficMatrix::from_mapping(&graph, &mapping, mode);
                    placement_cost(&matrix, pipeline.distances(), &identity)
                }
                TrafficMode::PerCrossbar => per_flow_tree_cost(pipeline.topology(), vc_count, &flows),
            };
            prop_assert_eq!(weighted, expected, "{:?} {:?}", kind, mode);
        }
    }

    /// (d): flow order is invisible to the hop metrics and the simulator.
    #[test]
    fn flow_order_is_invisible(
        (graph, mapping) in arb_mapped(),
        trees in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let noc = NocConfig { multicast_trees: trees, ..NocConfig::default() };
        for mode in MODES {
            let pipeline = pipeline(&graph, &mapping, InterconnectKind::Mesh, noc, mode);
            let flows = build_flows(&graph, &mapping, mode);
            let mut shuffled = flows.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
            prop_assert_eq!(pipeline.hop_metrics(&shuffled), pipeline.hop_metrics(&flows), "{:?}", mode);
        }

        // per-synapse flows as the synapse list orders them: the same
        // multiset `build_flows` groups by crossbar, and the same report
        let pipeline = pipeline(&graph, &mapping, InterconnectKind::Mesh, noc, TrafficMode::PerSynapse);
        let csr = per_synapse_flows_in_csr_order(&graph, &mapping);
        let (mut a, mut b) = (csr.clone(), build_flows(&graph, &mapping, TrafficMode::PerSynapse));
        sort_canonical(&mut a);
        sort_canonical(&mut b);
        prop_assert_eq!(a, b);
        let (evaluation, log) =
            pipeline.evaluate_logged(&graph, mapping.clone(), "random", "identity").unwrap();
        let report = &evaluation.report;
        let (weighted, unicast) = pipeline.hop_metrics(&csr);
        prop_assert_eq!(weighted, report.hop_weighted_packets);
        prop_assert_eq!(unicast, report.cut_spikes);
        let (stats, _) = pipeline.simulate(&csr, graph.duration_steps()).unwrap();
        prop_assert_eq!(&stats, &report.noc);
        prop_assert_eq!(stats.digest().unwrap(), report.noc.digest().unwrap());
        // the simulate stage's simulator (trees off under per-synapse
        // traffic), logged
        let arch = &pipeline.config().arch;
        let per_synapse = NocConfig { multicast_trees: false, ..noc };
        let (logged, deliveries) = NocSim::new(build_topology(arch), per_synapse, *arch.energy())
            .run_logged(&csr, graph.duration_steps())
            .unwrap();
        prop_assert_eq!(&logged, &stats);
        prop_assert_eq!(deliveries, log);
    }

    /// (e): what the objective prices, what the report measures and what
    /// the engine charges agree, on a mesh, a tree and a 2-VC torus.
    #[test]
    fn link_flits_are_the_hop_weighted_packets(
        (graph, mapping) in arb_mapped(),
        kind_idx in 0u8..3,
        flits in 1u32..4,
    ) {
        let (kind, vc_count) = match kind_idx {
            0 => (InterconnectKind::Mesh, 1),
            1 => (InterconnectKind::Tree { arity: 2 }, 1),
            _ => (InterconnectKind::Torus, 2),
        };
        let plain = NocConfig { flits_per_packet: flits, vc_count, ..NocConfig::default() };
        let trees = NocConfig { multicast_trees: true, ..plain };
        let configs = [
            (TrafficMode::PerSynapse, plain),
            (TrafficMode::PerCrossbar, trees),
            (TrafficMode::PerCrossbar, plain),
        ];
        for (mode, noc) in configs {
            let pipeline = pipeline(&graph, &mapping, kind, noc, mode);
            let report = pipeline.evaluate(&graph, mapping.clone(), "random", "identity").unwrap().report;
            let charged = report.noc.counters.link_flits;
            let priced = u64::from(flits) * report.hop_weighted_packets;
            if !noc.multicast_trees && mode == TrafficMode::PerCrossbar {
                prop_assert!(charged <= priced, "plain multicast: {} > {}", charged, priced);
            } else {
                prop_assert_eq!(charged, priced, "{:?} {:?}", mode, noc);
            }
        }
        // per-crossbar traffic as one flow per destination: unicast
        // packets, each charged its whole route
        let pipeline = pipeline(&graph, &mapping, kind, plain, TrafficMode::PerCrossbar);
        let flows = common::single_destination(&build_flows(&graph, &mapping, TrafficMode::PerCrossbar));
        let (stats, _) = pipeline.simulate(&flows, graph.duration_steps()).unwrap();
        let charged = stats.counters.link_flits;
        prop_assert_eq!(charged, u64::from(flits) * pipeline.hop_metrics(&flows).0);
        let cut_hops = pipeline.problem(&graph).unwrap().cut_hops(mapping.assignment());
        prop_assert_eq!(charged, u64::from(flits) * cut_hops);
    }
}

/// `build_flows` allocates its flows once, at their final size, under
/// both accountings.
fn assert_flows_built_at_their_final_size(graph: &SpikeGraph, mapping: &Mapping) {
    for mode in MODES {
        let flows = build_flows(graph, mapping, mode);
        assert_eq!(flows.capacity(), flows.len(), "{mode:?}");
    }
}

#[test]
fn flows_are_built_at_their_final_size() {
    // neuron 0 has local and remote targets, every target of neuron 1
    // shares its crossbar, neuron 2 is silent, neuron 3 fans out to both
    // other crossbars
    let synapses = vec![
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 3),
        (1, 0),
        (2, 0),
        (3, 0),
        (3, 4),
    ];
    let graph = SpikeGraph::from_parts(5, synapses, vec![3, 4, 0, 2, 1]).unwrap();
    let mapping = Mapping::from_assignment(vec![0, 0, 1, 1, 2], 3).unwrap();
    assert_eq!(
        build_flows(&graph, &mapping, TrafficMode::PerSynapse).len(),
        3 * 3 + 2 * 2
    );
    assert_eq!(
        build_flows(&graph, &mapping, TrafficMode::PerCrossbar).len(),
        3 + 2
    );
    assert_flows_built_at_their_final_size(&graph, &mapping);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    #[test]
    fn random_flows_are_built_at_their_final_size((graph, mapping) in arb_mapped()) {
        assert_flows_built_at_their_final_size(&graph, &mapping);
    }
}
