//! The five workloads and the one iteration they all run: graph →
//! partition → place → packetize → hop metrics → simulate → report
//! arithmetic, composed here from the mapper's public stage functions
//! (the pinned API surface listed in the README).

use crate::span::Tracer;
use crate::Res;
use neuromap_apps::digit_recognition::DigitRecognition;
use neuromap_apps::synthetic::{LargeArch, MultiChip};
use neuromap_apps::App;
use neuromap_core::coopt::{self, CooptConfig, CooptOutcome};
use neuromap_core::eval::SwarmKernel;
use neuromap_core::multilevel::{self, MultilevelConfig, MultilevelOutcome};
use neuromap_core::partition::FitnessKind;
use neuromap_core::pipeline::{
    local_events, MappingPipeline, PipelineConfig, PlacementStrategy, TrafficMode,
};
use neuromap_core::place::{placement_cost, PlaceConfig, TrafficMatrix};
use neuromap_core::pso::{PsoConfig, PsoPartitioner, PsoTrace};
use neuromap_core::SpikeGraph;
use neuromap_hw::arch::{Architecture, InterconnectKind};
use neuromap_hw::Mapping;
use neuromap_noc::traffic::SpikeFlow;
use neuromap_noc::{EngineKind, NocStats};
use neuromap_snn::{Network, SpikeRecord};

/// Seed of every optimizer in every workload. `--seed` makes the
/// *inputs*; the mapper's own configuration never changes with it.
const OPTIMIZER_SEED: u64 = 0xF165;

/// Where a workload's input comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The handwritten-digit application, simulated (`App::run`).
    Digits(DigitRecognition),
    /// A locality-biased synthetic spike graph on a crossbar grid.
    Grid(LargeArch),
    /// The same, over a grid of chips.
    Chips(MultiChip),
}

/// How a workload gets from a spike graph to a (placed) mapping.
#[derive(Debug, Clone, Copy)]
pub enum Flow {
    /// `PsoPartitioner::partition_traced` on the full problem.
    Pso(PsoConfig),
    /// `multilevel::vcycle`.
    Multilevel(MultilevelConfig),
    /// `coopt::co_optimize`; its result is already placed.
    Coopt(CooptConfig),
}

/// One benchmark workload: a seeded input, a fabric and a flow. The
/// README gives each one's sizes and the layer that does its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own flow on the simulated digit application.
    HdTreePaper,
    /// Staged partition-then-place on a 256-crossbar mesh.
    Grid16MeshStaged,
    /// The joint loop on a 2-VC torus with Steiner multicast trees.
    Grid16TorusJointTrees,
    /// The multilevel V-cycle on a 2x2-chip, 1024-crossbar fabric.
    Chip4HierMultilevel,
    /// Flat hop-aware PSO on a 576-crossbar mesh.
    Grid24MeshFlathops,
}

/// The five workloads, in report order.
pub const ALL: [Workload; 5] = [
    Workload::HdTreePaper,
    Workload::Grid16MeshStaged,
    Workload::Grid16TorusJointTrees,
    Workload::Chip4HierMultilevel,
    Workload::Grid24MeshFlathops,
];

/// The generated input of one workload.
pub enum Input {
    /// A simulated network and its spike record; the graph is extracted
    /// inside each iteration.
    Snn(Box<(Network, SpikeRecord)>),
    /// A ready spike graph.
    Graph(SpikeGraph),
}

/// A pipeline and the configuration it was built from (kept beside it
/// because the harness reads the configuration's public fields, not
/// the pipeline's accessor).
pub struct Fabric {
    /// Fabric, traffic model, engine and placement strategy.
    pub config: PipelineConfig,
    /// Topology and distance table built for `config`.
    pub pipeline: MappingPipeline,
}

impl Fabric {
    /// `MappingPipeline::new`: builds the router graph and its
    /// all-pairs distance table.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            pipeline: MappingPipeline::new(config.clone()),
            config,
        }
    }
}

/// Everything the set-up block produces.
pub struct Prepared {
    /// The input generated from the seed.
    pub input: Input,
    /// The workload's fabric.
    pub fabric: Fabric,
}

/// What one iteration produced, reduced to what checks, digests and
/// per-layer counts need.
pub struct Iteration {
    /// The final (placed) mapping.
    pub mapping: Mapping,
    /// Whether `Mapping::validate` accepted it for the architecture.
    pub valid: bool,
    /// Eq. 8 on the final mapping.
    pub cut_spikes: u64,
    /// Synaptic events served inside crossbars.
    pub local_events: u64,
    /// Crossbar-local energy in pJ.
    pub local_energy_pj: f64,
    /// `hop_metrics(flows).0`.
    pub hop_weighted_packets: u64,
    /// `hop_metrics(flows).1`.
    pub unicast_packets: u64,
    /// Injection flows; kept so the oracle can re-simulate them.
    pub flows: Vec<SpikeFlow>,
    /// Interconnect statistics of the event engine.
    pub stats: NocStats,
    /// Neurons, synapses and synaptic events of the graph mapped.
    pub graph_counts: (u32, usize, u64),
    /// SNN duration the simulation ran for.
    pub duration_steps: u32,
    /// Flat-PSO convergence trace.
    pub pso: Option<PsoTrace>,
    /// V-cycle outcome (its mapping moved into `mapping`).
    pub multilevel: Option<MultilevelOutcome>,
    /// Joint-loop outcome.
    pub coopt: Option<CooptOutcome>,
    /// `(identity_cost, optimized_cost)` of the place stage.
    pub place_costs: Option<(u64, u64)>,
}

impl Iteration {
    /// The result digest (see [`crate::stats::result_digest`]).
    pub fn digest(&self) -> Res<u64> {
        let mut stats = self.stats.clone();
        stats.sched = None;
        Ok(crate::stats::result_digest(
            self.mapping.assignment(),
            stats.digest()?,
            self.cut_spikes,
            self.hop_weighted_packets,
        ))
    }
}

/// Threads every optimizer runs with. One: the box gives the benchmark
/// two cores, and with both of them busy every other runnable thread
/// preempts a worker (interleaved 20-second runs of
/// `grid24_mesh_flathops`, eight each: run medians scattered 10.8 % on
/// two threads and 5.4 % on one). Results do not depend on the thread
/// count; the traced pass re-checks that on [`CHECK_THREADS`].
pub const THREADS: usize = 1;

/// Thread count of the traced pass's invariance rerun.
pub const CHECK_THREADS: usize = 2;

impl Workload {
    /// Name, as `BENCHMARK.json` and every report spell it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HdTreePaper => "hd_tree_paper",
            Workload::Grid16MeshStaged => "grid16_mesh_staged",
            Workload::Grid16TorusJointTrees => "grid16_torus_joint_trees",
            Workload::Chip4HierMultilevel => "chip4_hier_multilevel",
            Workload::Grid24MeshFlathops => "grid24_mesh_flathops",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn source(self) -> Source {
        match self {
            // the quick-mode digit app of the repro binaries
            Workload::HdTreePaper => Source::Digits(DigitRecognition {
                presentations: 4,
                present_ms: 100,
                rest_ms: 25,
                ..DigitRecognition::default()
            }),
            Workload::Grid16MeshStaged | Workload::Grid16TorusJointTrees => {
                Source::Grid(LargeArch::grid16())
            }
            Workload::Chip4HierMultilevel => Source::Chips(MultiChip::four_chip16()),
            Workload::Grid24MeshFlathops => Source::Grid(LargeArch {
                side: 24,
                ..LargeArch::grid16()
            }),
        }
    }

    /// Whether the traced pass re-simulates the flows on the cycle
    /// oracle. Kept to the two 256-router fabrics: the oracle visits
    /// every lane every cycle.
    pub fn oracle_checked(self) -> bool {
        matches!(
            self,
            Workload::Grid16MeshStaged | Workload::Grid16TorusJointTrees
        )
    }

    /// Input generation from the workload seed — the first half of the
    /// set-up block.
    fn generate(self, seed: u64, tr: &mut Tracer) -> Res<Input> {
        Ok(match self.source() {
            Source::Digits(app) => {
                Input::Snn(Box::new(tr.span("snn.simulate", |_| app.run(seed))?))
            }
            Source::Grid(grid) => Input::Graph(grid.spike_graph(seed)?),
            Source::Chips(chips) => Input::Graph(chips.spike_graph(seed)?),
        })
    }

    /// Fabric, traffic model, engine and placement strategy.
    /// `sched_stats` attaches the event scheduler's counters (traced
    /// pass only).
    pub fn config(
        self,
        threads: usize,
        engine: EngineKind,
        sched_stats: bool,
    ) -> Res<PipelineConfig> {
        let grid = |kind| {
            let Source::Grid(grid) = self.source() else {
                unreachable!("mesh and torus workloads map grid graphs");
            };
            Architecture::custom(grid.num_crossbars(), grid.capacity(), kind)
        };
        let mut cfg = match self {
            // the repro binaries' `config_for` recipe, restated: CxQuad-
            // class 128-neuron crossbars with ~15 % slack for the 1284
            // neurons on an arity-4 tree, 8192 interconnect cycles per
            // 1 ms timestep; per-synapse unicast is the default traffic
            Workload::HdTreePaper => {
                let arch = Architecture::custom(12, 128, InterconnectKind::Tree { arity: 4 })?;
                let mut cfg = PipelineConfig::for_arch(arch);
                cfg.noc.cycles_per_step = 8192;
                cfg
            }
            Workload::Grid16MeshStaged => {
                let mut cfg = PipelineConfig::for_arch(grid(InterconnectKind::Mesh)?);
                cfg.placement = PlacementStrategy::HopOptimized(PlaceConfig {
                    threads,
                    ..PlaceConfig::default()
                });
                cfg
            }
            Workload::Grid16TorusJointTrees => {
                let mut cfg = PipelineConfig::for_arch(grid(InterconnectKind::Torus)?);
                cfg.noc.vc_count = 2;
                cfg.noc.multicast_trees = true;
                cfg
            }
            Workload::Chip4HierMultilevel => {
                PipelineConfig::for_arch(MultiChip::four_chip16().arch()?)
            }
            Workload::Grid24MeshFlathops => PipelineConfig::for_arch(grid(InterconnectKind::Mesh)?),
        };
        if self != Workload::HdTreePaper {
            cfg.traffic = TrafficMode::PerCrossbar;
        }
        cfg.engine = engine;
        cfg.noc.sched_stats = sched_stats;
        Ok(cfg)
    }

    /// The partition (or joint) flow.
    pub fn flow(self, threads: usize) -> Flow {
        let pso = |swarm_size, iterations, fitness| PsoConfig {
            swarm_size,
            iterations,
            fitness,
            seed: OPTIMIZER_SEED,
            threads,
            ..PsoConfig::default()
        };
        match self {
            Workload::HdTreePaper => Flow::Pso(PsoConfig {
                seed_baselines: true,
                polish_passes: 8,
                ..pso(40, 40, FitnessKind::CutSpikes)
            }),
            Workload::Grid16MeshStaged => Flow::Pso(PsoConfig {
                seed_baselines: false,
                polish_passes: 1,
                ..pso(40, 8, FitnessKind::CutPackets)
            }),
            Workload::Grid16TorusJointTrees => Flow::Coopt(CooptConfig {
                pso: pso(16, 8, FitnessKind::CutHops),
                place: PlaceConfig {
                    restarts: 2,
                    threads,
                    ..PlaceConfig::default()
                },
                replace_every: 4,
                multilevel: None,
            }),
            Workload::Chip4HierMultilevel => Flow::Multilevel(MultilevelConfig {
                pso: pso(8, 8, FitnessKind::CutHops),
                chips: 4,
                threads,
                ..MultilevelConfig::default()
            }),
            Workload::Grid24MeshFlathops => Flow::Pso(PsoConfig {
                polish_passes: 1,
                ..pso(16, 8, FitnessKind::CutHops)
            }),
        }
    }

    /// The set-up block: input generation plus `MappingPipeline::new`
    /// (topology and distance table).
    pub fn prepare(self, seed: u64, config: PipelineConfig, tr: &mut Tracer) -> Res<Prepared> {
        tr.span("setup", |tr| {
            let input = tr.span("input.generate", |tr| self.generate(seed, tr))?;
            let fabric = tr.span("noc.topology.build", |_| Fabric::new(config));
            Ok(Prepared { input, fabric })
        })
    }
}

/// One iteration of `flow` over `input` on `fabric`. The timed pass
/// hands it a tracer that is off.
pub fn iterate(input: &Input, fabric: &Fabric, flow: &Flow, tr: &mut Tracer) -> Res<Iteration> {
    tr.span("iteration", |tr| iterate_stages(input, fabric, flow, tr))
}

fn iterate_stages(input: &Input, fabric: &Fabric, flow: &Flow, tr: &mut Tracer) -> Res<Iteration> {
    let Fabric { config, pipeline } = fabric;
    let extracted;
    let graph = match input {
        Input::Snn(sim) => {
            extracted = tr.span("core.graph.extract", |_| {
                SpikeGraph::from_record(&sim.0, &sim.1)
            });
            &extracted
        }
        Input::Graph(graph) => graph,
    };
    let problem = tr.span("core.pipeline.problem", |_| pipeline.problem(graph))?;

    let (mut pso, mut ml, mut joint) = (None, None, None);
    let partitioned = match flow {
        Flow::Pso(cfg) => {
            let (mapping, trace) = tr.span("core.pso.partition", |_| {
                PsoPartitioner::new(*cfg).partition_traced(&problem)
            })?;
            pso = Some(trace);
            mapping
        }
        Flow::Multilevel(cfg) => {
            let outcome = tr.span("core.multilevel.vcycle", |_| {
                multilevel::vcycle(&problem, cfg)
            })?;
            let mapping = outcome.mapping.clone();
            ml = Some(outcome);
            mapping
        }
        Flow::Coopt(cfg) => {
            let outcome = tr.span("core.coopt.co_optimize", |_| {
                coopt::co_optimize(&problem, pipeline.distances(), config.traffic, cfg)
            })?;
            let mapping = outcome.mapping.clone();
            joint = Some(outcome);
            mapping
        }
    };

    // identity workloads never enter the place layer
    let (mapping, place_costs) = match config.placement {
        PlacementStrategy::Identity => (partitioned, None),
        PlacementStrategy::HopOptimized(_) => {
            let (placed, placement, _) = tr.span("core.place.optimize", |_| {
                pipeline.place(graph, &partitioned)
            })?;
            let costs = tr.span("core.place.traffic_matrix", |_| {
                let traffic = TrafficMatrix::from_mapping(graph, &partitioned, config.traffic);
                let identity: Vec<u32> = (0..partitioned.num_crossbars() as u32).collect();
                (
                    placement_cost(&traffic, pipeline.distances(), &identity),
                    placement_cost(&traffic, pipeline.distances(), placement.as_slice()),
                )
            });
            (placed, Some(costs))
        }
    };

    let flows = tr.span("core.pipeline.packetize", |_| {
        pipeline.packetize(graph, &mapping)
    });
    let (hop_weighted_packets, unicast_packets) = tr.span("core.pipeline.hop_metrics", |_| {
        pipeline.hop_metrics(&flows)
    });
    let duration_steps = graph.duration_steps();
    let (stats, deliveries) = tr.span("noc.sim.simulate", |_| {
        pipeline.simulate(&flows, duration_steps)
    })?;
    drop(deliveries);
    let (valid, cut_spikes, local, local_energy_pj) = tr.span("core.pipeline.report", |_| {
        let valid = mapping.validate(&config.arch).is_ok();
        let cut = problem.cut_spikes(mapping.assignment());
        let local = local_events(graph, &mapping);
        let energy = config
            .arch
            .energy()
            .local_pj_scaled(local, config.arch.neurons_per_crossbar());
        (valid, cut, local, energy)
    });

    Ok(Iteration {
        mapping,
        valid,
        cut_spikes,
        local_events: local,
        local_energy_pj,
        hop_weighted_packets,
        unicast_packets,
        flows,
        stats,
        graph_counts: (
            graph.num_neurons(),
            graph.num_synapses(),
            graph.total_synaptic_events(),
        ),
        duration_steps,
        pso,
        multilevel: ml,
        coopt: joint,
        place_costs,
    })
}

/// Bits per lane of the swarm-evaluation kernel at this crossbar count:
/// 8 (byte tile), 16 (word tile) or 0 (the scalar reference).
pub fn kernel_bits(num_crossbars: usize) -> u32 {
    match SwarmKernel::for_crossbars(num_crossbars) {
        SwarmKernel::ByteTile => 8,
        SwarmKernel::WordTile => 16,
        SwarmKernel::Scalar => 0,
    }
}
