//! Property-based tests over the SNN substrate: spike-train invariants,
//! coding bounds, generator statistics, and simulator conservation
//! laws on arbitrary networks.

use neuromap::snn::coding::{level_crossing_encode, rate_encode};
use neuromap::snn::generator::Generator;
use neuromap::snn::network::{ConnectPattern, NetworkBuilder, WeightInit};
use neuromap::snn::neuron::NeuronKind;
use neuromap::snn::spikes::{isi_distortion, SpikeTrain};
use neuromap::snn::Simulator;
use proptest::prelude::*;

mod common;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    #[test]
    fn spike_trains_are_always_strictly_increasing(times in proptest::collection::vec(0u32..10_000, 0..200)) {
        let t = SpikeTrain::from_times(times);
        prop_assert!(t.times().windows(2).all(|w| w[0] < w[1]));
        // ISIs are consistent with the times
        prop_assert_eq!(t.isis().len(), t.len().saturating_sub(1));
        prop_assert!(t.isis().iter().all(|&d| d > 0));
    }

    #[test]
    fn isi_distortion_is_shift_invariant(
        times in proptest::collection::vec(0u32..5_000, 2..60),
        shift in 1u32..500,
    ) {
        let sent = SpikeTrain::from_times(times);
        let shifted: SpikeTrain = sent.iter().map(|&t| t + shift).collect();
        prop_assert_eq!(isi_distortion(&sent, &shifted), 0);
    }

    #[test]
    fn isi_distortion_is_symmetric(
        a in proptest::collection::vec(0u32..5_000, 2..40),
        b in proptest::collection::vec(0u32..5_000, 2..40),
    ) {
        let ta = SpikeTrain::from_times(a);
        let tb = SpikeTrain::from_times(b);
        prop_assert_eq!(isi_distortion(&ta, &tb), isi_distortion(&tb, &ta));
    }

    #[test]
    fn rate_encode_clamps_and_scales(vals in proptest::collection::vec(-2.0f64..3.0, 1..50)) {
        let rates = rate_encode(&vals, 120.0);
        prop_assert!(rates.iter().all(|&r| (0.0..=120.0).contains(&r)));
    }

    #[test]
    fn level_crossing_spike_count_bounded_by_swing(
        deltas in proptest::collection::vec(-1.0f64..1.0, 2..100),
    ) {
        // build a signal as a cumulative walk; total crossings cannot
        // exceed total variation / delta
        let mut signal = vec![0.0];
        for d in &deltas {
            signal.push(signal.last().unwrap() + d);
        }
        let lc_delta = 0.5;
        let (up, down) = level_crossing_encode(&signal, lc_delta);
        let total_variation: f64 = deltas.iter().map(|d| d.abs()).sum();
        let bound = (total_variation / lc_delta).ceil() as usize + 1;
        prop_assert!(up.len() + down.len() <= bound);
    }

    #[test]
    fn poisson_generator_is_deterministic_per_seed(rate in 1.0f64..200.0, seed in 0u64..500) {
        let g = Generator::poisson(rate);
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).filter(|&t| g.fires(0, t, 1.0, &mut rng)).count()
        };
        prop_assert_eq!(sample(seed), sample(seed));
    }

    #[test]
    fn simulation_records_every_neuron(
        inputs in 1u32..20,
        outputs in 1u32..20,
        weight in 0.0f32..10.0,
        seed in 0u64..100,
    ) {
        let mut b = NetworkBuilder::new();
        let i = b.add_input_group("in", inputs, Generator::poisson(50.0)).unwrap();
        let o = b.add_group("out", outputs, NeuronKind::izhikevich_rs()).unwrap();
        b.connect(i, o, ConnectPattern::Full, WeightInit::Constant(weight), 1).unwrap();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(net);
        let mut rng = StdRng::seed_from_u64(seed);
        let rec = sim.run(100, &mut rng).expect("runs");
        prop_assert_eq!(rec.num_neurons() as u32, inputs + outputs);
        prop_assert_eq!(rec.steps(), 100);
        // all recorded spike times are inside the simulated window
        for train in rec.trains() {
            prop_assert!(train.iter().all(|&t| t < 100));
        }
        // zero weight ⇒ silent outputs
        if weight == 0.0 {
            for id in inputs..inputs + outputs {
                prop_assert!(rec.train(id).is_empty());
            }
        }
    }

    #[test]
    fn count_in_partitions_the_train(
        times in proptest::collection::vec(0u32..1000, 0..100),
        split in 0u32..1000,
    ) {
        let t = SpikeTrain::from_times(times);
        let left = t.count_in(0, split);
        let right = t.count_in(split, 1000);
        prop_assert_eq!(left + right, t.count_in(0, 1000));
    }
}
