//! Cross-crate metric validation: craft traffic with known ground truth
//! and verify the paper's two introduced metrics (spike disorder, ISI
//! distortion) plus energy accounting behave as specified end to end.

use neuromap::hw::energy::EnergyModel;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::NocSim;
use neuromap::noc::topology::{Mesh2D, Star};
use neuromap::noc::traffic::SpikeFlow;

mod common;

#[test]
fn uncongested_streams_have_no_distortion_or_disorder() {
    // one source, periodic spikes, no contention: the interconnect is a
    // constant delay — ISIs survive exactly
    let flows: Vec<SpikeFlow> = (0..10)
        .map(|k| SpikeFlow::unicast(1, 0, 3, k * 2))
        .collect();
    let mut sim = NocSim::new(
        Box::new(Mesh2D::for_crossbars(4)),
        NocConfig::default(),
        EnergyModel::default(),
    );
    let stats = sim.run(&flows).expect("drains");
    assert_eq!(stats.delivered, 10);
    assert_eq!(stats.avg_isi_distortion_cycles, 0.0);
    assert_eq!(stats.disorder_fraction, 0.0);
}

#[test]
fn hub_congestion_creates_isi_distortion() {
    // many crossbars burst through a star hub toward one destination in
    // alternating steps: queueing delay varies per step → ISI distortion
    let mut flows = Vec::new();
    for step in 0..12u32 {
        // variable burst size: heavy every other step
        let burst = if step % 2 == 0 { 24 } else { 1 };
        for k in 0..burst {
            flows.push(SpikeFlow::unicast(100 + k, 1 + (k % 5), 0, step));
        }
    }
    // slow clock so bursts interact with the step length
    let cfg = NocConfig {
        cycles_per_step: 32,
        ..NocConfig::default()
    };
    let mut sim = NocSim::new(Box::new(Star::new(6)), cfg, EnergyModel::default());
    let stats = sim.run(&flows).expect("drains");
    assert!(
        stats.avg_isi_distortion_cycles > 0.0,
        "variable congestion must distort ISIs"
    );
}

#[test]
fn cross_step_overtaking_is_disorder() {
    // step 0: a big burst from crossbar 1 to 0 (long queue); step 1: a
    // single spike from crossbar 2 to 0 that arrives while the queue is
    // still draining → it overtakes older spikes
    let mut flows = Vec::new();
    for k in 0..40u32 {
        flows.push(SpikeFlow::unicast(k, 1, 0, 0));
    }
    flows.push(SpikeFlow::unicast(999, 2, 0, 1));
    let cfg = NocConfig {
        cycles_per_step: 8,
        ..NocConfig::default()
    };
    let mut sim = NocSim::new(Box::new(Star::new(3)), cfg, EnergyModel::default());
    let stats = sim.run(&flows).expect("drains");
    assert!(
        stats.disorder_fraction > 0.0,
        "the late spike should overtake queued older traffic"
    );
}

#[test]
fn energy_scales_with_distance_and_traffic() {
    let run = |flows: &[SpikeFlow]| {
        let mut sim = NocSim::new(
            Box::new(Mesh2D::grid(4, 1, 4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        sim.run(flows).expect("drains").global_energy_pj
    };
    let near = run(&[SpikeFlow::unicast(0, 0, 1, 0)]);
    let far = run(&[SpikeFlow::unicast(0, 0, 3, 0)]);
    assert!(far > near, "3 hops must cost more than 1");
    // the local ≪ global asymmetry the mapping exploits: a 1-hop packet
    // costs far more than a synaptic event inside a 128-wide crossbar
    let local = EnergyModel::default().local_pj_scaled(1, 128);
    assert!(near > 5.0 * local, "global {near} vs local {local}");

    let once: Vec<SpikeFlow> = vec![SpikeFlow::unicast(0, 0, 3, 0)];
    let thrice: Vec<SpikeFlow> = (0..3).map(|k| SpikeFlow::unicast(k, 0, 3, k)).collect();
    assert!(
        (run(&thrice) - 3.0 * run(&once)).abs() < 1e-6,
        "uncongested energy is linear"
    );
}

#[test]
fn multicast_saves_energy_over_unicast_clones() {
    let flows = vec![SpikeFlow::multicast(7, 0, vec![1, 2, 3], 0); 5];
    let run = |flows: &[SpikeFlow]| {
        let mut sim = NocSim::new(
            Box::new(neuromap::noc::topology::NocTree::new(4, 4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        sim.run(flows).expect("drains")
    };
    let mc = run(&flows);
    let uc = run(&common::single_destination(&flows));
    assert_eq!(mc.delivered, uc.delivered);
    assert!(
        mc.global_energy_pj < uc.global_energy_pj,
        "shared prefix links must be paid once: {} !< {}",
        mc.global_energy_pj,
        uc.global_energy_pj
    );
}

#[test]
fn per_vc_counters_partition_the_global_counters() {
    // ground-truth accounting across the per-VC split: every buffered
    // and forwarded packet belongs to exactly one VC, so the per-VC
    // counters must partition the global flit counters exactly, and no
    // VC FIFO may ever exceed its credit-bounded depth
    use neuromap::noc::topology::Torus;

    let mut flows = Vec::new();
    for step in 0..8u32 {
        for src in 0..16u32 {
            flows.push(SpikeFlow::multicast(
                src * 13 + step,
                src,
                vec![(src + 2) % 16, (src + 9) % 16, (src + 14) % 16],
                step,
            ));
        }
    }
    let cfg = NocConfig {
        buffer_depth: 2,
        vc_count: 4,
        ..NocConfig::default()
    };
    let mut sim = NocSim::new(
        Box::new(Torus::for_crossbars(16)),
        cfg,
        EnergyModel::default(),
    );
    let stats = sim.run(&flows).expect("dateline VCs keep the torus live");
    assert_eq!(stats.per_vc.len(), 4);
    let flits = u64::from(cfg.flits_per_packet);
    assert_eq!(
        stats.per_vc.iter().map(|v| v.forwarded).sum::<u64>() * flits,
        stats.counters.link_flits,
        "per-VC forwards must partition link traffic"
    );
    assert_eq!(
        stats.per_vc.iter().map(|v| v.enqueued).sum::<u64>() * flits,
        stats.counters.buffer_flits,
        "per-VC enqueues must partition buffered traffic"
    );
    assert!(stats
        .per_vc
        .iter()
        .all(|v| v.peak_occupancy <= cfg.buffer_depth as u64));
    // the dateline scheme routes through both halves of the VC space
    assert!(
        stats.per_vc.iter().filter(|v| v.forwarded > 0).count() >= 2,
        "{:?}",
        stats.per_vc
    );
    // identical traffic on a single VC delivers exactly the same spike
    // set — VCs change timing and multicast branch shapes, never
    // delivery conservation
    let single = NocConfig {
        vc_count: 1,
        buffer_depth: 8,
        ..cfg
    };
    let mut sim = NocSim::new(
        Box::new(Torus::for_crossbars(16)),
        single,
        EnergyModel::default(),
    );
    let sstats = sim.run(&flows).expect("drains");
    assert!(sstats.per_vc.is_empty());
    assert_eq!(sstats.delivered, stats.delivered);
}

#[test]
fn snn_and_noc_isi_definitions_agree() {
    // the spike-level ISI distortion helper in neuromap-snn and the
    // delivery-level one in neuromap-noc must agree on a shared scenario
    use neuromap::noc::stats::{isi_distortion, Delivery};
    use neuromap::snn::spikes::{isi_distortion as snn_isi, SpikeTrain};

    let sent = [0u64, 100, 200, 300];
    let recv = [5u64, 115, 205, 305]; // second spike +10 late
    let deliveries: Vec<Delivery> = sent
        .iter()
        .zip(&recv)
        .map(|(&s, &r)| Delivery {
            source_neuron: 1,
            src_crossbar: 0,
            dst_crossbar: 1,
            send_step: (s / 100) as u32,
            inject_cycle: s,
            deliver_cycle: r,
        })
        .collect();
    let (_, noc_max) = isi_distortion(&deliveries);

    let sent_train = SpikeTrain::from_times(sent.iter().map(|&t| t as u32).collect());
    let recv_train = SpikeTrain::from_times(recv.iter().map(|&t| t as u32).collect());
    let snn_max = snn_isi(&sent_train, &recv_train);

    assert_eq!(noc_max, snn_max as u64);
    assert_eq!(noc_max, 10);
}
