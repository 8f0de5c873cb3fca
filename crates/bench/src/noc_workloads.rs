//! The interconnect engine-comparison workloads, shared between the
//! criterion bench (`benches/noc.rs`, which times event vs oracle and
//! emits the gated `ratios` entries of `BENCH_noc.json`) and the
//! `perf_probe` binary's `noc` mode (which prints the event scheduler's
//! diagnostic counters for the dense points).

use neuromap_noc::config::NocConfig;
use neuromap_noc::topology::{Mesh2D, NocTree, Topology, Torus};
use neuromap_noc::traffic::SpikeFlow;

/// Unicast burst traffic: every crossbar fires every step.
pub fn burst_traffic(crossbars: u32, spikes_per_step: u32, steps: u32) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for step in 0..steps {
        for k in 0..spikes_per_step {
            let src = k % crossbars;
            let dst = (k + 1 + step) % crossbars;
            if src != dst {
                flows.push(SpikeFlow::unicast(k, src, dst, step));
            }
        }
    }
    flows
}

/// Sparse paper-scale traffic: a TrueNorth-class 64-crossbar mesh where
/// only a handful of neurons spike per timestep (SNN activity is sparse),
/// each multicasting to a few destination crossbars. The cycle-driven
/// oracle pays a full router sweep for every cycle of every drain window;
/// the event engine only touches the ports the packets actually want.
pub fn sparse_paper_traffic(crossbars: u32, spikes_per_step: u32, steps: u32) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for step in 0..steps {
        for k in 0..spikes_per_step {
            let src = (step * 7 + k * 13) % crossbars;
            let dsts = vec![
                (src + 1 + step) % crossbars,
                (src + 17 + k) % crossbars,
                (src + 33) % crossbars,
            ];
            flows.push(SpikeFlow::multicast(src * 100 + k, src, dsts, step));
        }
    }
    flows
}

/// Dense saturating multicast: every crossbar fires a fanout-wide
/// multicast every step, enough spikes per step that FIFOs stay full and
/// every router port forwards nearly every cycle — the global-synapse
/// burst regime of the source paper, and the regime where a scheduler
/// that re-scans whole routers degenerates to oracle speed.
pub fn dense_multicast_traffic(
    crossbars: u32,
    spikes_per_step: u32,
    steps: u32,
    fanout: u32,
) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for step in 0..steps {
        for k in 0..spikes_per_step {
            let src = k % crossbars;
            let dsts: Vec<u32> = (1..=fanout)
                .map(|j| (src + j * 5 + step) % crossbars)
                .filter(|&d| d != src)
                .collect();
            flows.push(SpikeFlow::multicast(k, src, dsts, step));
        }
    }
    flows
}

/// Repeated-net traffic — what a mapped SNN actually offers the
/// interconnect: `neurons` neurons, each with a fixed home crossbar and a
/// fixed `fanout`-wide destination set (its synapses do not move), firing
/// every `period`-th step with a per-neuron phase, flows emitted neuron by
/// neuron as `core::pipeline::build_flows` does. Every other generator
/// here moves the destinations each step (≈ one spike per net), which is
/// the regime where planning a net once buys nothing.
pub fn repeated_net_traffic(
    crossbars: u32,
    neurons: u32,
    fanout: u32,
    steps: u32,
    period: u32,
) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for n in 0..neurons {
        let src = (n * 13) % crossbars;
        let dsts: Vec<u32> = (0..fanout)
            .map(|j| (src + 1 + (n * 7 + j * 11) % (crossbars - 1)) % crossbars)
            .collect();
        for step in (n % period..steps).step_by(period as usize) {
            flows.push(SpikeFlow::multicast(n, src, dsts.clone(), step));
        }
    }
    flows
}

/// Per-synapse traffic — what the mapper's default `PerSynapse`
/// accounting offers the interconnect: `neurons` neurons, each with a
/// fixed home crossbar and `synapses` remote synapses spread over three
/// other crossbars, firing every `period`-th step with a per-neuron
/// phase. Every spike sends one unicast flow per remote synapse, so a
/// spike's flows share their `(step, crossbar, neuron)` key and only the
/// destination tells them apart; flows are emitted neuron by neuron, each
/// spike's by ascending destination, as `core::pipeline::build_flows`
/// does.
pub fn per_synapse_traffic(
    crossbars: u32,
    neurons: u32,
    synapses: u32,
    steps: u32,
    period: u32,
) -> Vec<SpikeFlow> {
    let mut flows = Vec::new();
    for n in 0..neurons {
        let src = n % crossbars;
        let mut dsts: Vec<u32> = (0..synapses)
            .map(|j| (src + 1 + (n / crossbars + j) % 3) % crossbars)
            .collect();
        dsts.sort_unstable();
        for step in (n % period..steps).step_by(period as usize) {
            flows.extend(
                dsts.iter()
                    .map(|&dst| SpikeFlow::unicast(n, src, dst, step)),
            );
        }
    }
    flows
}

/// One engine-comparison workload: the same flows, topology, and
/// configuration are fed to both engines.
pub struct NocWorkload {
    /// Benchmark id suffix (`engine/<name>` in `BENCH_noc.json`).
    pub name: &'static str,
    /// Spike traffic.
    pub flows: Vec<SpikeFlow>,
    /// Topology factory (both engines get their own instance).
    pub topo: fn() -> Box<dyn Topology>,
    /// Simulator configuration.
    pub cfg: NocConfig,
}

/// Engine-comparison workloads, each also a `ratios` entry in
/// `BENCH_noc.json`. The torus points run realistic shallow router
/// FIFOs (the configuration dimension-order routing deadlocks on
/// without virtual channels) so the VC arbitration path is part of the
/// tracked perf trajectory; the `dense_*` points saturate the network so
/// the per-port wake scheduler's dense-regime speedup is tracked (and
/// floor-gated in [`crate::ledger::NOC`]), not just the sparse win;
/// `mesh64_repeat_nets` is the one point whose nets repeat (256 nets,
/// 50 spikes each), the regime the forwarding plan is for.
pub fn engine_workloads() -> Vec<NocWorkload> {
    vec![
        NocWorkload {
            name: "sparse_paper64",
            flows: sparse_paper_traffic(64, 2, 800),
            topo: || Box::new(Mesh2D::for_crossbars(64)),
            cfg: NocConfig::default(),
        },
        NocWorkload {
            name: "moderate_paper64",
            flows: sparse_paper_traffic(64, 8, 200),
            topo: || Box::new(Mesh2D::for_crossbars(64)),
            cfg: NocConfig::default(),
        },
        NocWorkload {
            name: "dense_burst16",
            flows: burst_traffic(16, 256, 10),
            topo: || Box::new(Mesh2D::for_crossbars(16)),
            cfg: NocConfig::default(),
        },
        NocWorkload {
            name: "dense_torus64",
            flows: dense_multicast_traffic(64, 256, 8, 4),
            topo: || Box::new(Torus::for_crossbars(64)),
            cfg: NocConfig {
                buffer_depth: 4,
                vc_count: 2,
                ..NocConfig::default()
            },
        },
        NocWorkload {
            name: "dense_vc4_burst16",
            flows: dense_multicast_traffic(16, 256, 10, 4),
            topo: || Box::new(Torus::for_crossbars(16)),
            cfg: NocConfig {
                buffer_depth: 4,
                vc_count: 4,
                ..NocConfig::default()
            },
        },
        NocWorkload {
            name: "torus64_vc2_shallow",
            flows: sparse_paper_traffic(64, 8, 200),
            topo: || Box::new(Torus::for_crossbars(64)),
            cfg: NocConfig {
                buffer_depth: 2,
                vc_count: 2,
                ..NocConfig::default()
            },
        },
        NocWorkload {
            name: "mesh64_repeat_nets",
            flows: repeated_net_traffic(64, 256, 4, 200, 4),
            topo: || Box::new(Mesh2D::for_crossbars(64)),
            cfg: NocConfig::default(),
        },
        NocWorkload {
            name: "torus64_vc4_depth4",
            flows: sparse_paper_traffic(64, 16, 100),
            topo: || Box::new(Torus::for_crossbars(64)),
            cfg: NocConfig {
                buffer_depth: 4,
                vc_count: 4,
                ..NocConfig::default()
            },
        },
    ]
}

/// The dense-saturation subset (what `perf_probe noc` reports on).
pub fn dense_workloads() -> Vec<NocWorkload> {
    engine_workloads()
        .into_iter()
        .filter(|w| w.name.starts_with("dense_"))
        .collect()
}

/// The mapper's per-synapse shape at the paper's scale (what
/// `hd_tree_paper` simulates): 12 crossbars on an arity-4 tree, 8192
/// cycles a step, 40 unicast flows per spike sharing one `(step,
/// crossbar, neuron)` key.
pub fn tree12_per_synapse() -> NocWorkload {
    NocWorkload {
        name: "tree12_per_synapse",
        flows: per_synapse_traffic(12, 600, 40, 40, 4),
        topo: || Box::new(NocTree::new(12, 4)),
        cfg: NocConfig {
            cycles_per_step: 8192,
            ..NocConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuromap_hw::energy::EnergyModel;
    use neuromap_noc::sim::NocSim;

    #[test]
    fn workload_names_are_unique_and_configs_valid() {
        let ws = engine_workloads();
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ws.len(), "duplicate workload names");
        for w in &ws {
            assert!(w.cfg.validate().is_ok(), "{}", w.name);
            assert!(!w.flows.is_empty(), "{}", w.name);
        }
        assert_eq!(dense_workloads().len(), 3);
    }

    #[test]
    fn dense_vc_workloads_exercise_every_vc() {
        // guards the torus-vs-mesh hop_vc gotcha: a multi-VC workload on
        // a topology whose VC assignment never leaves VC 0 would fail the
        // bench's per-VC gate only at bench time — catch it in the tests
        for w in dense_workloads() {
            if w.cfg.vc_count == 1 {
                continue;
            }
            let mut sim = NocSim::new((w.topo)(), w.cfg, EnergyModel::default());
            let stats = sim
                .run(&w.flows)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                stats.per_vc.iter().all(|v| v.forwarded > 0),
                "{}: every VC must carry traffic: {:?}",
                w.name,
                stats.per_vc
            );
        }
    }

    #[test]
    fn per_synapse_run_holds_few_handles_at_once() {
        // a handle lives from injection (or split) to its copy's last
        // delivery, so the slab follows the packets in flight, not the
        // 240 000 sent
        let w = tree12_per_synapse();
        let duration = w.flows.iter().map(|f| f.send_step + 1).max().unwrap_or(1);
        let mut sim = NocSim::new((w.topo)(), w.cfg, EnergyModel::default());
        let (stats, trace) = sim.run_traced(&w.flows, duration).expect("drains");
        let packets = stats.counters.packets_injected;
        assert_eq!(packets, 240_000);
        assert!(trace.peak_handles > 0);
        assert!(
            trace.peak_handles * 10 <= packets,
            "{} handles live at once for {packets} packets",
            trace.peak_handles
        );
    }
}
