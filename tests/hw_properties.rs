//! Property-based tests over the hardware model: mapping algebra,
//! architecture derivation, and energy-model serialization.

use neuromap::core::{PartitionProblem, SpikeGraph};
use neuromap::hw::arch::Architecture;
use neuromap::hw::energy::EnergyModel;
use neuromap::hw::mapping::Mapping;
use proptest::prelude::*;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    #[test]
    fn mapping_occupancy_sums_to_neuron_count(
        assignment in proptest::collection::vec(0u32..6, 1..100),
    ) {
        let m = Mapping::from_assignment(assignment.clone(), 6).expect("in range");
        let occ = m.occupancy();
        prop_assert_eq!(occ.iter().sum::<usize>(), assignment.len());
        // each crossbar's count is its share of the assignment
        for k in 0..6u32 {
            let on = m.assignment().iter().filter(|&&c| c == k).count();
            prop_assert_eq!(on, occ[k as usize]);
        }
    }

    #[test]
    fn placement_composition_preserves_mapping_structure(
        assignment in proptest::collection::vec(0u32..8, 1..80),
        perm_seed in 0u64..1000,
    ) {
        use neuromap::hw::mapping::Placement;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = Mapping::from_assignment(assignment, 8).expect("in range");
        let mut rng = StdRng::seed_from_u64(perm_seed);
        let mut phys: Vec<u32> = (0..8).collect();
        for a in (1..8usize).rev() {
            let b = rng.gen_range(0..a + 1);
            phys.swap(a, b);
        }
        let p = Placement::new(phys).expect("permutation");
        let placed = m.place(&p).expect("same crossbar count");
        // per-neuron composition, occupancy permutation
        let occ = m.occupancy();
        let pocc = placed.occupancy();
        for (&to, &from) in placed.assignment().iter().zip(m.assignment()) {
            prop_assert_eq!(to, p.physical_of(from));
        }
        for k in 0..8u32 {
            prop_assert_eq!(pocc[p.physical_of(k) as usize], occ[k as usize]);
        }
    }

    #[test]
    fn derived_architectures_always_fit(total in 1u32..5_000, npc in 1u32..2_000) {
        let base = Architecture::cxquad();
        let arch = base.with_crossbar_size(npc, total).expect("valid sizes");
        // the partitioner's capacity check accepts a graph of that size
        let graph = SpikeGraph::from_parts(total, vec![], vec![0; total as usize]).expect("graph");
        prop_assert!(
            PartitionProblem::new(&graph, arch.num_crossbars(), arch.neurons_per_crossbar()).is_ok()
        );
        prop_assert_eq!(arch.neurons_per_crossbar(), npc);
        prop_assert_eq!(arch.interconnect(), base.interconnect());
    }

    #[test]
    fn energy_model_json_roundtrip(
        local in 0.0f64..100.0,
        hop in 0.0f64..100.0,
        link in 0.0f64..100.0,
    ) {
        let m = EnergyModel {
            local_synapse_pj: local,
            router_hop_pj: hop,
            link_flit_pj: link,
            ..EnergyModel::default()
        };
        let back = EnergyModel::from_json(&m.to_json()).expect("valid model");
        prop_assert_eq!(m, back);
    }

    #[test]
    fn local_event_energy_scales_with_dimension(dim in 1u32..4096) {
        let m = EnergyModel::default();
        let e = m.local_pj_scaled(1, dim);
        prop_assert!((e - m.local_synapse_pj * dim as f64 / 128.0).abs() < 1e-9);
    }
}
