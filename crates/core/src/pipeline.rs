//! The end-to-end mapping flow as an explicit **staged pipeline**:
//!
//! ```text
//! application → SNN simulation → spike graph
//!   → [partition]  neurons → logical clusters     (Partitioner, Eq. 4–8)
//!   → [place]      clusters → physical crossbars  (core::place, hop-aware)
//!   → [packetize]  cut synapses → injection flows (TrafficMode)
//!   → [simulate]   flows → NoC statistics         (event engine / oracle)
//!   → [report]     every metric the paper's evaluation uses
//! ```
//!
//! The paper's Figure-4 framework stops after partitioning: cluster `k`
//! is implicitly wired to router `k`, so every cut packet is priced the
//! same regardless of how far it travels. [`MappingPipeline`] makes each
//! stage explicit and threads **hop awareness** through all of them — the
//! fabric's own [`DistanceLut`] ([`Topology::distance_lut`]: hop counts,
//! or seam-weighted ones on a multi-chip fabric) is built once, shared by
//! the [`crate::partition::FitnessKind::CutHops`] objective, the placement
//! optimizer, and the hop metrics in the [`Report`]
//! (`avg_hops`, `hop_weighted_packets`). With the default
//! [`PlacementStrategy::Identity`] the staged flow reproduces the
//! original single-stage pipeline **bit-identically** (property-tested in
//! `tests/placement_properties.rs`); [`PlacementStrategy::HopOptimized`]
//! inserts the SpiNeMap-style placement stage that moves chatty clusters
//! onto adjacent routers.
//!
//! What a mapping sends over the interconnect — which synapses are
//! remote, what one spike's destination set is, how the two
//! [`TrafficMode`]s count it — is defined once, in the crate-private
//! `traffic` module; [`build_flows`], [`local_events`] and the placement
//! stage's [`TrafficMatrix`] are folds over that one derivation. Under
//! Steiner-tree routing, [`MappingPipeline::hop_metrics`] does not route
//! trees of its own: it counts the link forwards of the forwarding plan
//! the simulate stage runs ([`NocSim::link_forwards`]), built by the one
//! private method that builds that stage's simulator.
//!
//! One pipeline is built per configuration ([`MappingPipeline::new`])
//! and offers one call per job: [`MappingPipeline::run`] chains every
//! stage for a partitioner, each stage is callable on its own, and
//! [`MappingPipeline::evaluate`] is the single measurement step — it
//! takes any mapping (partitioned here, placed here, or produced by
//! [`crate::coopt::co_optimize`] / [`crate::multilevel::vcycle`]) and
//! returns the [`Report`] with the optional event trace beside it
//! ([`Evaluation`]); [`MappingPipeline::evaluate_logged`] runs the same
//! step and also returns the interconnect's delivery log. Sweeps that
//! evaluate many points on the *same* architecture ([`crate::explore`],
//! or a caller's own
//! `for noc in settings { pipeline.with_noc(noc).evaluate(..) }`) hold
//! one pipeline and reuse its topology and distance table across points
//! instead of rebuilding them per call.

use crate::error::CoreError;
use crate::graph::SpikeGraph;
use crate::partition::{PartitionProblem, Partitioner};
use crate::place::{optimize_placement, PlaceConfig, TrafficMatrix};
use crate::traffic;
use neuromap_hw::arch::{Architecture, InterconnectKind};
use neuromap_hw::mapping::{Mapping, Placement};
use neuromap_noc::config::NocConfig;
use neuromap_noc::sim::{EngineKind, NocSim};
use neuromap_noc::stats::{Delivery, NocStats};
use neuromap_noc::topology::{DistanceLut, HierTopology, Mesh2D, NocTree, Star, Topology, Torus};
use neuromap_noc::trace::TraceBuf;
use neuromap_noc::traffic::SpikeFlow;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How global synaptic events become interconnect packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrafficMode {
    /// One packet per spike **per cut synapse** — the time-multiplexing
    /// model of the paper's Eq. 7 ("spikes(k1,k2) = Σ T_{i,j}"): every
    /// global synapse is an independently multiplexed connection. This is
    /// the accounting under which the paper's Fig. 5 energies and the PSO
    /// objective agree.
    #[default]
    PerSynapse,
    /// One AER packet per spike per *distinct* destination crossbar (the
    /// destination crossbar fans the address out to its local synapses) —
    /// the hardware-AER extension. The spike's flow lists every such
    /// crossbar, so the simulator delivers it as one multicast packet,
    /// along Steiner trees under [`NocConfig::multicast_trees`].
    PerCrossbar,
}

/// How the place stage maps logical clusters onto physical crossbars.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PlacementStrategy {
    /// Cluster `k` on physical crossbar `k` — the implicit wiring of the
    /// paper's single-stage flow. Reports are bit-identical to the
    /// pre-placement pipeline.
    #[default]
    Identity,
    /// Optimize the cluster permutation for hop-weighted packets with
    /// [`crate::place::optimize_placement`] before packetizing.
    HopOptimized(PlaceConfig),
}

/// Pipeline parameters: the target chip and the interconnect configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target architecture (crossbars + interconnect + energy model).
    pub arch: Architecture,
    /// Interconnect simulation parameters.
    pub noc: NocConfig,
    /// Packetization model for global synaptic events.
    pub traffic: TrafficMode,
    /// Which interconnect engine simulates the traffic. The engines are
    /// output-identical (differentially verified); the cycle-driven
    /// oracle exists for cross-checks and debugging.
    pub engine: EngineKind,
    /// How the place stage assigns clusters to physical crossbars.
    pub placement: PlacementStrategy,
}

impl PipelineConfig {
    /// A custom architecture with default NoC parameters.
    pub fn for_arch(arch: Architecture) -> Self {
        Self {
            arch,
            noc: NocConfig::default(),
            traffic: TrafficMode::default(),
            engine: EngineKind::default(),
            placement: PlacementStrategy::default(),
        }
    }

    /// Selects the packetization model (builder style).
    pub fn with_traffic(mut self, traffic: TrafficMode) -> Self {
        self.traffic = traffic;
        self
    }

    /// Replaces the interconnect configuration (builder style) — the
    /// route `vc_count` / `buffer_depth` settings take from callers like
    /// `repro_placement` into the simulated fabric.
    pub fn with_noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Selects the interconnect engine (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the placement strategy (builder style).
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }
}

/// Everything the paper measures for one (application, partitioner,
/// architecture) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Partitioner identifier.
    pub partitioner: String,
    /// Neurons in the graph.
    pub num_neurons: u32,
    /// Synapses in the graph.
    pub num_synapses: usize,
    /// Eq. 8: spikes crossing crossbar boundaries (per cut synapse).
    pub cut_spikes: u64,
    /// Synaptic events served inside crossbars (local synapses).
    pub local_events: u64,
    /// Crossbar-local energy in pJ (scaled by crossbar dimension).
    pub local_energy_pj: f64,
    /// Interconnect energy in pJ (from the NoC simulation).
    pub global_energy_pj: f64,
    /// Local + global energy in pJ.
    pub total_energy_pj: f64,
    /// Average interconnect hops per unicast packet (0 when nothing
    /// crosses the interconnect) — derived from the topology's
    /// [`DistanceLut`], independent of the engine.
    pub avg_hops: f64,
    /// Hop-weighted packet total: every packet priced by the hop distance
    /// between its source and destination crossbars — the placement
    /// stage's objective, measured on the flows actually injected. Under
    /// Steiner-tree routing, the run's link forwards instead
    /// ([`MappingPipeline::hop_metrics`]).
    pub hop_weighted_packets: u64,
    /// How the evaluated mapping was placed: the label
    /// [`MappingPipeline::place`] returned (`"identity"` or
    /// `"hop-optimized"`) under [`MappingPipeline::run`], otherwise
    /// whatever the caller handed [`MappingPipeline::evaluate`] (the
    /// joint optimizer's callers label their rows `"joint"`, say).
    pub placement: String,
    /// Full interconnect statistics (latency, throughput, disorder, ISI).
    pub noc: NocStats,
    /// The neuron → (physical) crossbar mapping that produced these
    /// numbers, placement already composed in.
    pub mapping: Mapping,
}

/// Everything [`MappingPipeline::evaluate`] measures for one mapping;
/// callers keep the parts they need.
///
/// The interconnect statistics are folded as the simulation delivers, so
/// no delivery log is part of an evaluation. Studies that replay the log
/// (end-to-end application accuracy, such as the paper's §V-B heartbeat
/// analysis) call [`MappingPipeline::evaluate_logged`], which returns it
/// beside the evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Every metric the paper's evaluation uses.
    pub report: Report,
    /// The simulation stage's structured event trace when
    /// [`NocConfig::trace`] is on in the pipeline's NoC configuration
    /// (`None` when tracing is off) — feeds
    /// [`neuromap_noc::trace::TraceBuf::spot_congestion`] and the
    /// Perfetto exporter.
    ///
    /// [`NocConfig::trace`]: neuromap_noc::config::NocConfig::trace
    pub trace: Option<TraceBuf>,
}

/// Builds the concrete router graph for an architecture's interconnect
/// descriptor.
pub fn build_topology(arch: &Architecture) -> Box<dyn Topology> {
    let c = arch.num_crossbars();
    match arch.interconnect() {
        InterconnectKind::Mesh => Box::new(Mesh2D::for_crossbars(c)),
        InterconnectKind::Tree { arity } => Box::new(NocTree::new(c, arity)),
        InterconnectKind::Torus => Box::new(Torus::for_crossbars(c)),
        InterconnectKind::Star => Box::new(Star::new(c)),
        // `Architecture::custom` checks the descriptor as the same
        // `HierShape` and every `Architecture` passes through it —
        // deserialized ones included — so construction cannot fail
        InterconnectKind::Hier {
            chip_cols,
            chip_rows,
            link_latency,
            link_width,
        } => Box::new(
            HierTopology::for_crossbars(
                c,
                chip_cols as usize,
                chip_rows as usize,
                link_latency,
                link_width,
            )
            .expect("interconnect descriptor validated at Architecture construction"),
        ),
    }
}

/// Expands a partitioned spike graph into the interconnect's injection
/// schedule under the chosen [`TrafficMode`] — the per-spike fold of the
/// traffic model (`crate::traffic`): each spike of a neuron emits
///
/// * [`TrafficMode::PerSynapse`] — one unicast flow per remote synapse,
///   grouped by destination crossbar (paper Eq. 7);
/// * [`TrafficMode::PerCrossbar`] — one flow carrying the neuron's
///   distinct remote crossbars (AER; multicast-capable).
///
/// The flows of one net share one destination list
/// ([`SpikeFlow::dst_crossbars`]): one allocation per `(neuron,
/// crossbar)` under `PerSynapse` and per neuron under `PerCrossbar`,
/// however many spikes and synapses ride it. The flows are counted first
/// (one pass over the synapses) and allocated once, at their final size:
/// grown by doubling, the heap kept the last regrowth's buffer beside
/// them.
///
/// # Panics
///
/// Panics if the mapping does not cover exactly the graph's neurons.
pub fn build_flows(graph: &SpikeGraph, mapping: &Mapping, mode: TrafficMode) -> Vec<SpikeFlow> {
    // counted first, so the flows are allocated once at their final size
    let mut flows = Vec::with_capacity(traffic::flow_count(graph, mapping.assignment(), mode));
    // one destination list per net, shared by every flow that rides it
    let mut nets: Vec<Arc<[u32]>> = Vec::new();
    traffic::walk(graph, mapping.assignment(), |n| {
        if n.remote.is_empty() {
            return;
        }
        nets.clear();
        match mode {
            TrafficMode::PerSynapse => nets.extend(n.remote.iter().map(|&(dst, _)| [dst].into())),
            TrafficMode::PerCrossbar => nets.push(n.remote.iter().map(|&(dst, _)| dst).collect()),
        }
        let flow = |dsts: &Arc<[u32]>, t: u32| SpikeFlow {
            source_neuron: n.neuron,
            src_crossbar: n.home,
            dst_crossbars: Arc::clone(dsts),
            send_step: t,
        };
        for &t in graph.train(n.neuron).times() {
            match mode {
                TrafficMode::PerSynapse => {
                    for (dsts, &(_, synapses)) in nets.iter().zip(n.remote) {
                        flows.extend((0..synapses).map(|_| flow(dsts, t)));
                    }
                }
                TrafficMode::PerCrossbar => flows.push(flow(&nets[0], t)),
            }
        }
    });
    debug_assert_eq!(flows.len(), flows.capacity(), "the count is the flows");
    flows
}

/// Counts the synaptic events served *inside* crossbars under a mapping:
/// `Σ_{(i,j) ∈ S, cb(i) = cb(j)} |T_i|`.
///
/// # Panics
///
/// Panics if the mapping does not cover exactly the graph's neurons.
pub fn local_events(graph: &SpikeGraph, mapping: &Mapping) -> u64 {
    let mut total = 0u64;
    traffic::walk(graph, mapping.assignment(), |n| total += n.spikes * n.local);
    total
}

/// The typed error for a mapping that does not assign exactly the
/// graph's neurons — the traffic walk and the partition objectives
/// assert it, so the `Result`-returning stages check it first.
fn check_covers(graph: &SpikeGraph, mapping: &Mapping) -> Result<(), CoreError> {
    if mapping.num_neurons() == graph.num_neurons() as usize {
        return Ok(());
    }
    Err(CoreError::InvalidParameter {
        name: "mapping",
        value: format!(
            "covers {} neurons, graph has {}",
            mapping.num_neurons(),
            graph.num_neurons()
        ),
    })
}

/// The staged mapping pipeline: partition → place → packetize → simulate
/// → report, over a topology and hop-distance table built **once** and
/// shared by every stage (and, through [`MappingPipeline::with_noc`],
/// across sweep points).
///
/// Each stage is callable on its own — exploration code can re-partition
/// without re-simulating, re-place without re-partitioning, or
/// [`MappingPipeline::evaluate`] a pre-existing mapping — and
/// [`MappingPipeline::run`] chains them all.
#[derive(Clone)]
pub struct MappingPipeline {
    config: PipelineConfig,
    topo: Arc<dyn Topology>,
    dist: Arc<DistanceLut>,
}

impl std::fmt::Debug for MappingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingPipeline")
            .field("topology", &self.topo.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl MappingPipeline {
    /// Builds the pipeline for a configuration: derives the router graph
    /// from the architecture's interconnect descriptor
    /// ([`build_topology`]) and asks it for its distance table
    /// ([`Topology::distance_lut`]), both shared by every subsequent
    /// stage call.
    ///
    /// The fabric picks the table: on an [`InterconnectKind::Hier`]
    /// fabric it is the **weighted** one, with chip-boundary hops priced
    /// `link_latency × link_width`, so `CutHops` partitioning, placement,
    /// and co-optimization all prefer keeping chatty clusters on one chip
    /// — no API change upstream.
    pub fn new(config: PipelineConfig) -> Self {
        let topo: Arc<dyn Topology> = Arc::from(build_topology(&config.arch));
        let dist = Arc::new(topo.distance_lut());
        Self { config, topo, dist }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shared router graph.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The shared all-pairs hop-distance table.
    pub fn distances(&self) -> &DistanceLut {
        &self.dist
    }

    /// A pipeline over the **same** topology and distance table with a
    /// different interconnect configuration — how a caller walks an
    /// interconnect-parameter grid without rebuilding the router graph
    /// per point (the `Arc`s are shared, not cloned).
    pub fn with_noc(&self, noc: NocConfig) -> Self {
        let mut next = self.clone();
        next.config.noc = noc;
        next
    }

    /// A pipeline over the same topology and distance table with a
    /// different placement strategy — comparing identity against
    /// hop-optimized placement shares every precomputed structure.
    pub fn with_placement(&self, placement: PlacementStrategy) -> Self {
        let mut next = self.clone();
        next.config.placement = placement;
        next
    }

    /// The partition problem for a graph on this architecture, with the
    /// hop table attached (so [`crate::partition::FitnessKind::CutHops`]
    /// partitioners work out of the box).
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] when the chip cannot hold the graph.
    pub fn problem<'g>(&'g self, graph: &'g SpikeGraph) -> Result<PartitionProblem<'g>, CoreError> {
        PartitionProblem::new(
            graph,
            self.config.arch.num_crossbars(),
            self.config.arch.neurons_per_crossbar(),
        )?
        .with_hops(&self.dist)
    }

    /// **Stage 1 — partition**: neurons → logical clusters, by running
    /// `partitioner` on [`MappingPipeline::problem`]. (The multilevel
    /// V-cycle runs on the same problem: [`crate::multilevel::vcycle`],
    /// whose outcome carries the `mapping`.)
    ///
    /// # Errors
    ///
    /// Propagates partitioner errors and infeasibility.
    pub fn partition(
        &self,
        graph: &SpikeGraph,
        partitioner: &dyn Partitioner,
    ) -> Result<Mapping, CoreError> {
        partitioner.partition(&self.problem(graph)?)
    }

    /// **Stage 2 — place**: logical clusters → physical crossbars, per
    /// the configured [`PlacementStrategy`]. Returns the placed mapping,
    /// the permutation, and the placement id recorded in the report.
    /// Identity placement returns a mapping equal to the input.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `mapping` does not cover
    /// exactly the graph's neurons; propagates placement-optimizer
    /// configuration errors.
    pub fn place(
        &self,
        graph: &SpikeGraph,
        mapping: &Mapping,
    ) -> Result<(Mapping, Placement, String), CoreError> {
        check_covers(graph, mapping)?;
        match &self.config.placement {
            PlacementStrategy::Identity => Ok((
                mapping.clone(),
                Placement::identity(mapping.num_crossbars()),
                "identity".to_owned(),
            )),
            PlacementStrategy::HopOptimized(cfg) => {
                let traffic = TrafficMatrix::from_mapping(graph, mapping, self.config.traffic);
                let outcome = optimize_placement(&traffic, &self.dist, cfg)?;
                let placed = mapping.place(&outcome.placement)?;
                Ok((placed, outcome.placement, "hop-optimized".to_owned()))
            }
        }
    }

    /// **Stage 3 — packetize**: cut synaptic events → injection flows
    /// under the configured [`TrafficMode`].
    pub fn packetize(&self, graph: &SpikeGraph, mapping: &Mapping) -> Vec<SpikeFlow> {
        build_flows(graph, mapping, self.config.traffic)
    }

    /// **Stage 4 — simulate**: flows → interconnect statistics, on the
    /// configured engine over the shared topology, with the structured
    /// event trace when [`NocConfig::trace`] is on in the pipeline's NoC
    /// configuration (`None` when tracing is off).
    ///
    /// No delivery log is built: the statistics are folded delivery by
    /// delivery inside the router loop ([`NocSim::run_with_duration`]).
    /// The log comes only from [`MappingPipeline::evaluate_logged`] (or
    /// [`NocSim::run_logged`] on a simulator of one's own).
    ///
    /// # Errors
    ///
    /// [`CoreError::Noc`] for interconnect failures.
    pub fn simulate(
        &self,
        flows: &[SpikeFlow],
        duration_steps: u32,
    ) -> Result<(NocStats, Option<TraceBuf>), CoreError> {
        self.simulate_into(flows, duration_steps, None)
    }

    /// [`MappingPipeline::simulate`], writing the delivery log into
    /// `log` when one is given.
    fn simulate_into(
        &self,
        flows: &[SpikeFlow],
        duration_steps: u32,
        log: Option<&mut Vec<Delivery>>,
    ) -> Result<(NocStats, Option<TraceBuf>), CoreError> {
        let mut sim = self.noc_sim();
        let stats = match log {
            None => sim.run_with_duration(flows, duration_steps)?,
            Some(log) => {
                let (stats, deliveries) = sim.run_logged(flows, duration_steps)?;
                *log = deliveries;
                stats
            }
        };
        Ok((stats, sim.take_trace()))
    }

    /// The simulator the simulate stage runs, over the shared topology.
    /// Per-synapse flows are single-destination by construction, one
    /// packet each, so packet counts match Eq. 7 exactly; a tree to one
    /// destination would only trade its route for the tree's, so
    /// [`NocConfig::multicast_trees`] is off under
    /// [`TrafficMode::PerSynapse`].
    fn noc_sim(&self) -> NocSim {
        let mut noc_cfg = self.config.noc;
        if self.config.traffic == TrafficMode::PerSynapse {
            noc_cfg.multicast_trees = false;
        }
        let energy = *self.config.arch.energy();
        NocSim::shared(Arc::clone(&self.topo), noc_cfg, energy).with_engine(self.config.engine)
    }

    /// Hop metrics of a flow set: `(hop-weighted packets, unicast packet
    /// count)`. The unicast count is Σ |destinations|, the packet count
    /// of one flow per destination (the paper's yardstick).
    ///
    /// The weighted count prices every `(source, destination)` pair by
    /// the shared distance table, unless the simulate stage routes
    /// multicast packets along Steiner trees ([`NocConfig::multicast_trees`],
    /// which [`TrafficMode::PerSynapse`] turns off). Then it is the link
    /// forwards of that run, [`NocSim::link_forwards`]: shared hops are
    /// paid once per branch, counted from the forwarding plan the engines
    /// follow. A configuration the engines reject has no run to count,
    /// and falls back to the pairwise price; [`MappingPipeline::simulate`]
    /// returns the error.
    ///
    /// # Panics
    ///
    /// Flows must name only crossbars the fabric has, as the packetize
    /// stage's do: a hand-written flow naming one the fabric lacks
    /// panics, naming the crossbar and the fabric's crossbar count.
    /// [`MappingPipeline::simulate`] returns
    /// [`NocError::UnknownCrossbar`] for the same flows, so run it first
    /// on hand-written traffic.
    ///
    /// [`NocError::UnknownCrossbar`]: neuromap_noc::NocError::UnknownCrossbar
    /// [`NocConfig::multicast_trees`]: neuromap_noc::config::NocConfig::multicast_trees
    pub fn hop_metrics(&self, flows: &[SpikeFlow]) -> (u64, u64) {
        let sim = self.noc_sim();
        let forwards = sim
            .config()
            .multicast_trees
            .then(|| sim.link_forwards(flows).ok())
            .flatten();
        // one pass (a second over ~10⁶ flows costs as much as the
        // pricing); consecutive spikes of one net, as `build_flows` emits
        // every spike of a neuron, share a price, so a run is priced once
        let same_net = |a: &SpikeFlow, b: &SpikeFlow| {
            a.src_crossbar == b.src_crossbar && a.dst_crossbars == b.dst_crossbars
        };
        // a run the engines accepted names only known crossbars; any
        // other is checked here, where the distance table would misprice it
        let c = self.dist.num_crossbars();
        let known = |k: u32| {
            assert!(
                (k as usize) < c,
                "flow names crossbar {k}, but the fabric has {c} crossbars"
            );
            k
        };
        let (mut pairwise, mut unicast) = (0u64, 0u64);
        for run in flows.chunk_by(same_net) {
            let (spikes, f) = (run.len() as u64, &run[0]);
            unicast += spikes * f.dst_crossbars.len() as u64;
            if forwards.is_none() {
                let src = known(f.src_crossbar);
                let hops = f.dst_crossbars.iter();
                let price: u64 = hops
                    .map(|&d| u64::from(self.dist.hops(src, known(d))))
                    .sum();
                pairwise += spikes * price;
            }
        }
        (forwards.unwrap_or(pairwise), unicast)
    }

    /// All stages: partition, place, packetize, simulate, report. The
    /// report is labelled with the partitioner's name and the place
    /// stage's id.
    ///
    /// # Errors
    ///
    /// Propagates partitioner errors, infeasibility
    /// ([`CoreError::Infeasible`]) and interconnect errors
    /// ([`CoreError::Noc`]).
    pub fn run(
        &self,
        graph: &SpikeGraph,
        partitioner: &dyn Partitioner,
    ) -> Result<Report, CoreError> {
        let mapping = self.partition(graph, partitioner)?;
        let (placed, _, placement_label) = self.place(graph, &mapping)?;
        self.evaluate(graph, placed, partitioner.name(), &placement_label)
            .map(|evaluation| evaluation.report)
    }

    /// **Stage 5 — report**: measures a mapping **as given** (cluster
    /// `k` on crossbar `k`, at the fabric's [`Topology::endpoint`]; no
    /// placement strategy is applied) — packetize,
    /// hop metrics, simulate, energy — and labels the report with
    /// `partitioner_label` and `placement_label`. Pass the id
    /// [`MappingPipeline::place`] returned for a mapping it placed, and
    /// `"identity"` for an unplaced one, so the report attributes the
    /// numbers to the right stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] if the mapping is invalid for the architecture;
    /// [`CoreError::InvalidParameter`] when it does not cover exactly the
    /// graph's neurons; [`CoreError::Noc`] for interconnect failures.
    pub fn evaluate(
        &self,
        graph: &SpikeGraph,
        mapping: Mapping,
        partitioner_label: &str,
        placement_label: &str,
    ) -> Result<Evaluation, CoreError> {
        self.evaluate_into(graph, mapping, partitioner_label, placement_label, None)
    }

    /// [`MappingPipeline::evaluate`], also returning the interconnect's
    /// raw delivery log, one [`Delivery`] per destination reached, in
    /// delivery order — for studies that replay it, such as the paper's
    /// §V-B heartbeat analysis. The evaluation is the one
    /// [`MappingPipeline::evaluate`] returns.
    ///
    /// # Errors
    ///
    /// Same as [`MappingPipeline::evaluate`].
    pub fn evaluate_logged(
        &self,
        graph: &SpikeGraph,
        mapping: Mapping,
        partitioner_label: &str,
        placement_label: &str,
    ) -> Result<(Evaluation, Vec<Delivery>), CoreError> {
        let mut log = Vec::new();
        let evaluation = self.evaluate_into(
            graph,
            mapping,
            partitioner_label,
            placement_label,
            Some(&mut log),
        )?;
        Ok((evaluation, log))
    }

    /// The body of [`MappingPipeline::evaluate`], writing the delivery
    /// log into `log` when one is given.
    fn evaluate_into(
        &self,
        graph: &SpikeGraph,
        mapping: Mapping,
        partitioner_label: &str,
        placement_label: &str,
        log: Option<&mut Vec<Delivery>>,
    ) -> Result<Evaluation, CoreError> {
        check_covers(graph, &mapping)?;
        mapping.validate(&self.config.arch)?;
        let problem = self.problem(graph)?;
        let cut_spikes = problem.cut_spikes(mapping.assignment());
        let local = local_events(graph, &mapping);

        let flows = self.packetize(graph, &mapping);
        let (hop_weighted_packets, unicast) = self.hop_metrics(&flows);
        let (noc_stats, trace) = self.simulate_into(&flows, graph.duration_steps(), log)?;

        let dim = self.config.arch.neurons_per_crossbar();
        let local_energy_pj = self.config.arch.energy().local_pj_scaled(local, dim);
        let global_energy_pj = noc_stats.global_energy_pj;

        Ok(Evaluation {
            report: Report {
                partitioner: partitioner_label.to_owned(),
                num_neurons: graph.num_neurons(),
                num_synapses: graph.num_synapses(),
                cut_spikes,
                local_events: local,
                local_energy_pj,
                global_energy_pj,
                total_energy_pj: local_energy_pj + global_energy_pj,
                avg_hops: if unicast == 0 {
                    0.0
                } else {
                    hop_weighted_packets as f64 / unicast as f64
                },
                hop_weighted_packets,
                placement: placement_label.to_owned(),
                noc: noc_stats,
                mapping,
            },
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{NeutramsPartitioner, PacmanPartitioner};
    use crate::pso::{PsoConfig, PsoPartitioner};
    use neuromap_noc::NocError;
    use neuromap_snn::spikes::SpikeTrain;

    /// Two fully connected layers of 8, ids in order; spikes every 50 steps.
    fn layered_graph() -> SpikeGraph {
        let mut synapses = Vec::new();
        for a in 0..8u32 {
            for b in 8..16u32 {
                synapses.push((a, b));
            }
        }
        let trains: Vec<SpikeTrain> = (0..16)
            .map(|i| {
                if i < 8 {
                    SpikeTrain::from_times((0..10).map(|k| k * 50 + i).collect())
                } else {
                    SpikeTrain::from_times(vec![])
                }
            })
            .collect();
        SpikeGraph::from_trains(16, synapses, trains).unwrap()
    }

    fn small_arch() -> Architecture {
        Architecture::custom(4, 8, InterconnectKind::Mesh).unwrap()
    }

    #[test]
    fn pipeline_produces_consistent_report() {
        let g = layered_graph();
        let cfg = PipelineConfig::for_arch(small_arch());
        let r = MappingPipeline::new(cfg)
            .run(&g, &PacmanPartitioner::new())
            .unwrap();
        assert_eq!(r.num_neurons, 16);
        assert_eq!(r.num_synapses, 64);
        // every synaptic event is either local or cut
        assert_eq!(r.local_events + r.cut_spikes, g.total_synaptic_events());
        assert!((r.total_energy_pj - r.local_energy_pj - r.global_energy_pj).abs() < 1e-9);
    }

    #[test]
    fn engine_choice_does_not_change_the_report() {
        // end-to-end differential check: the event-driven engine and the
        // cycle-driven oracle must agree on every metric in the report,
        // under both packetization models
        let g = layered_graph();
        for traffic in [TrafficMode::PerSynapse, TrafficMode::PerCrossbar] {
            let cfg = PipelineConfig::for_arch(small_arch()).with_traffic(traffic);
            let oracle_cfg = cfg.clone().with_engine(EngineKind::CycleOracle);
            let part = PacmanPartitioner::new();
            let r_event = MappingPipeline::new(cfg).run(&g, &part).unwrap();
            let r_oracle = MappingPipeline::new(oracle_cfg).run(&g, &part).unwrap();
            assert_eq!(r_event, r_oracle, "{traffic:?}");
            assert_eq!(
                r_event.noc.digest().unwrap(),
                r_oracle.noc.digest().unwrap(),
                "{traffic:?}"
            );
        }
    }

    #[test]
    fn pso_energy_not_worse_than_neutrams() {
        let g = layered_graph();
        let cfg = PipelineConfig::for_arch(small_arch());
        let pso = PsoPartitioner::new(PsoConfig {
            swarm_size: 30,
            iterations: 40,
            ..PsoConfig::default()
        });
        let pipeline = MappingPipeline::new(cfg);
        let r_pso = pipeline.run(&g, &pso).unwrap();
        let r_rr = pipeline.run(&g, &NeutramsPartitioner::new()).unwrap();
        assert!(
            r_pso.global_energy_pj <= r_rr.global_energy_pj,
            "pso {} !<= neutrams {}",
            r_pso.global_energy_pj,
            r_rr.global_energy_pj
        );
        assert!(r_pso.cut_spikes <= r_rr.cut_spikes);
    }

    #[test]
    fn flows_only_for_remote_targets() {
        let g = layered_graph();
        // all neurons on one crossbar → no flows
        let m = Mapping::from_assignment(vec![0; 16], 1).unwrap();
        assert!(build_flows(&g, &m, TrafficMode::PerCrossbar).is_empty());
        assert!(build_flows(&g, &m, TrafficMode::PerSynapse).is_empty());
        // split layers → every spiking neuron has one remote destination
        let assign: Vec<u32> = (0..16).map(|i| (i / 8) as u32).collect();
        let m = Mapping::from_assignment(assign, 2).unwrap();
        let flows = build_flows(&g, &m, TrafficMode::PerCrossbar);
        assert_eq!(flows.len(), 80); // 8 neurons × 10 spikes
        assert!(flows.iter().all(|f| *f.dst_crossbars == [1]));
        // per-synapse: × 8 synapses per neuron
        let flows = build_flows(&g, &m, TrafficMode::PerSynapse);
        assert_eq!(flows.len(), 640);
    }

    #[test]
    fn flows_of_one_net_share_one_destination_list() {
        // neuron i < 8 on crossbar i % 4 reaches 8..16: three remote
        // crossbars, two synapses on each
        let g = layered_graph();
        let m = Mapping::from_assignment((0..16).map(|i| i % 4).collect(), 4).unwrap();
        for (mode, nets_per_neuron, flows_per_spike) in [
            (TrafficMode::PerSynapse, 3, 6),
            (TrafficMode::PerCrossbar, 1, 1),
        ] {
            let flows = build_flows(&g, &m, mode);
            assert_eq!(flows.len(), 8 * 10 * flows_per_spike, "{mode:?}");
            // a net is a neuron's destination list; every flow of it
            // points at the allocation its first flow does
            let mut first: std::collections::HashMap<(u32, &[u32]), &SpikeFlow> =
                std::collections::HashMap::new();
            for f in &flows {
                let net = first
                    .entry((f.source_neuron, &f.dst_crossbars))
                    .or_insert(f);
                assert!(
                    Arc::ptr_eq(&net.dst_crossbars, &f.dst_crossbars),
                    "{mode:?}: {f:?}"
                );
            }
            assert_eq!(first.len(), 8 * nets_per_neuron, "{mode:?}");
            let allocations: std::collections::HashSet<*const u32> =
                flows.iter().map(|f| f.dst_crossbars.as_ptr()).collect();
            assert_eq!(allocations.len(), first.len(), "{mode:?}");
        }
    }

    /// Delegates to a mesh and counts `multicast_route` calls.
    struct CountingMesh(Mesh2D, std::sync::atomic::AtomicUsize);

    impl Topology for CountingMesh {
        fn num_routers(&self) -> usize {
            self.0.num_routers()
        }
        fn num_crossbars(&self) -> usize {
            self.0.num_crossbars()
        }
        fn endpoint(&self, k: u32) -> usize {
            self.0.endpoint(k)
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            self.0.neighbors(r)
        }
        fn route_next(&self, r: usize, dst: usize) -> usize {
            self.0.route_next(r, dst)
        }
        fn multicast_route(
            &self,
            src: usize,
            dests: &[usize],
            vcs: usize,
        ) -> Vec<Vec<(usize, usize)>> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.multicast_route(src, dests, vcs)
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    /// Trees on the 4-crossbar mesh, neuron `i` on crossbar `i % 4`:
    /// every spiking neuron reaches the other three crossbars.
    fn tree_pipeline(topo: Arc<dyn Topology>, vc_count: usize) -> (MappingPipeline, Mapping) {
        let noc = NocConfig {
            multicast_trees: true,
            vc_count,
            ..NocConfig::default()
        };
        let cfg = PipelineConfig::for_arch(small_arch())
            .with_traffic(TrafficMode::PerCrossbar)
            .with_noc(noc);
        let pipeline = MappingPipeline {
            topo,
            ..MappingPipeline::new(cfg)
        };
        let assign: Vec<u32> = (0..16).map(|i| i % 4).collect();
        (pipeline, Mapping::from_assignment(assign, 4).unwrap())
    }

    #[test]
    fn hop_metrics_routes_one_tree_per_distinct_net() {
        // every spike of a neuron carries the same net, and neurons `k`
        // and `k + 4` share a home and a destination set: a tree is routed
        // per distinct net (4 of them for 80 flows), and the total is what
        // pricing each flow alone gives
        let g = layered_graph();
        let counting = Arc::new(CountingMesh(Mesh2D::for_crossbars(4), Default::default()));
        let (pipeline, m) = tree_pipeline(counting.clone(), 1);
        let calls = || counting.1.load(std::sync::atomic::Ordering::Relaxed);
        let flows = pipeline.packetize(&g, &m);
        assert_eq!(flows.len(), 80);
        let whole = pipeline.hop_metrics(&flows);
        assert_eq!(calls(), 4, "one tree per distinct net");
        let one_by_one = flows.iter().fold((0, 0), |acc, f| {
            let (w, u) = pipeline.hop_metrics(std::slice::from_ref(f));
            (acc.0 + w, acc.1 + u)
        });
        assert_eq!(calls(), 4 + 80);
        assert_eq!(whole, one_by_one);
        // a corner of the 2x2 mesh reaches the other three crossbars over
        // 3 links; the pairwise hop sum would charge 1 + 1 + 2
        assert_eq!(whole, (80 * 3, 80 * 3));
    }

    #[test]
    fn hop_metrics_under_a_config_the_engines_reject_is_the_pairwise_price() {
        // no run exists to count: the per-destination price, no panic, and
        // the evaluation fails with the run's error
        let g = layered_graph();
        let (pipeline, m) = tree_pipeline(Arc::new(Mesh2D::for_crossbars(4)), 0);
        let flows = pipeline.packetize(&g, &m);
        assert_eq!(pipeline.hop_metrics(&flows), (80 * (1 + 1 + 2), 80 * 3));
        assert!(matches!(
            pipeline.evaluate(&g, m, "manual", "identity"),
            Err(CoreError::Noc(NocError::InvalidConfig {
                name: "vc_count",
                ..
            }))
        ));
    }

    #[test]
    #[should_panic(expected = "flow names crossbar 4, but the fabric has 4 crossbars")]
    fn hop_metrics_rejects_a_crossbar_the_fabric_lacks() {
        // `hops(0, 4)` on a 4-crossbar table would read `hops(1, 0)`
        let pipeline = MappingPipeline::new(PipelineConfig::for_arch(small_arch()));
        pipeline.hop_metrics(&[SpikeFlow::unicast(0, 0, 4, 0)]);
    }

    #[test]
    #[should_panic(expected = "flow names crossbar 4, but the fabric has 4 crossbars")]
    fn hop_metrics_under_trees_rejects_a_crossbar_the_fabric_lacks() {
        let (pipeline, _) = tree_pipeline(Arc::new(Mesh2D::for_crossbars(4)), 1);
        pipeline.hop_metrics(&[SpikeFlow::unicast(0, 0, 4, 0)]);
    }

    #[test]
    fn per_synapse_hop_metrics_ignore_the_tree_flag_the_run_ignores() {
        // the simulate stage turns trees off for per-synapse flows, so
        // `multicast_trees` changes neither the run nor its hop metrics:
        // every packet crosses the 4 × 2 seam once, 9 weighted hops
        let g = layered_graph();
        let hier = InterconnectKind::Hier {
            chip_cols: 2,
            chip_rows: 1,
            link_latency: 4,
            link_width: 2,
        };
        let arch = Architecture::custom(8, 8, hier).unwrap();
        let assign: Vec<u32> = (0..16).map(|i| if i < 8 { 0 } else { 4 }).collect();
        let m = Mapping::from_assignment(assign, 8).unwrap();
        for multicast_trees in [false, true] {
            let noc = NocConfig {
                multicast_trees,
                ..NocConfig::default()
            };
            let pipeline =
                MappingPipeline::new(PipelineConfig::for_arch(arch.clone()).with_noc(noc));
            let flows = pipeline.packetize(&g, &m);
            assert_eq!(pipeline.hop_metrics(&flows), (5760, 640), "{noc:?}");
            let (stats, _) = pipeline.simulate(&flows, g.duration_steps()).unwrap();
            assert_eq!(stats.counters.link_flits, 2560, "{noc:?}");
        }
    }

    #[test]
    fn local_events_complement_cut() {
        let g = layered_graph();
        let assign: Vec<u32> = (0..16).map(|i| (i % 4) as u32).collect();
        let m = Mapping::from_assignment(assign.clone(), 4).unwrap();
        let p = PartitionProblem::new(&g, 4, 8).unwrap();
        assert_eq!(
            local_events(&g, &m) + p.cut_spikes(&assign),
            g.total_synaptic_events()
        );
    }

    #[test]
    fn topology_builder_honors_interconnect() {
        for (kind, expect) in [
            (InterconnectKind::Mesh, "mesh"),
            (InterconnectKind::Tree { arity: 4 }, "tree"),
            (InterconnectKind::Torus, "torus"),
            (InterconnectKind::Star, "star"),
            (
                InterconnectKind::Hier {
                    chip_cols: 2,
                    chip_rows: 1,
                    link_latency: 4,
                    link_width: 2,
                },
                "hier",
            ),
        ] {
            let arch = Architecture::custom(4, 8, kind).unwrap();
            let topo = build_topology(&arch);
            assert!(
                topo.name().starts_with(expect),
                "{} for {kind:?}",
                topo.name()
            );
            assert_eq!(topo.num_crossbars(), 4);
        }
    }

    #[test]
    fn hier_pipeline_prices_chip_boundaries() {
        let g = layered_graph();
        let arch = Architecture::custom(
            8,
            8,
            InterconnectKind::Hier {
                chip_cols: 2,
                chip_rows: 1,
                link_latency: 4,
                link_width: 2,
            },
        )
        .unwrap();
        let pipeline = MappingPipeline::new(PipelineConfig::for_arch(arch));
        assert!(
            pipeline.topology().name().starts_with("hier 2x1"),
            "{}",
            pipeline.topology().name()
        );
        // chip-major layout: crossbars 0..4 on chip 0 (a 2x2 mesh),
        // 4..8 on chip 1; the distance table is the fabric's weighted one
        assert_eq!(pipeline.distances().hops(0, 3), 2); // on-chip diagonal
        assert_eq!(pipeline.distances().hops(0, 4), 2 - 1 + 4 * 2); // seam priced 4×2
        let assign: Vec<u32> = (0..16).map(|i| if i < 8 { 0 } else { 4 }).collect();
        let m = Mapping::from_assignment(assign, 8).unwrap();
        let r = pipeline
            .evaluate(&g, m, "manual", "identity")
            .unwrap()
            .report;
        assert_eq!(r.hop_weighted_packets, 9 * r.cut_spikes);
        assert!((r.avg_hops - 9.0).abs() < 1e-12);
    }

    #[test]
    fn staged_identity_run_equals_the_wrapper() {
        // `run` is exactly partition → place → evaluate, labelled with
        // the partitioner's name and the place stage's id
        let g = layered_graph();
        let pipeline = MappingPipeline::new(PipelineConfig::for_arch(small_arch()));
        let part = PacmanPartitioner::new();
        let whole = pipeline.run(&g, &part).unwrap();
        assert_eq!(whole.placement, "identity");
        let mapping = pipeline.partition(&g, &part).unwrap();
        let (placed, placement, id) = pipeline.place(&g, &mapping).unwrap();
        assert_eq!(placement, Placement::identity(mapping.num_crossbars()));
        assert_eq!(id, "identity");
        assert_eq!(placed, mapping);
        assert_eq!(&placed, &whole.mapping);
        let (staged, log) = pipeline
            .evaluate_logged(&g, placed, part.name(), &id)
            .unwrap();
        assert_eq!(staged.report, whole);
        // the untraced default: a delivery per cut spike, no event trace
        assert_eq!(log.len() as u64, whole.noc.delivered);
        assert!(staged.trace.is_none());
    }

    #[test]
    fn report_hop_metrics_follow_the_distance_table() {
        let g = layered_graph();
        let cfg = PipelineConfig::for_arch(small_arch());
        let pipeline = MappingPipeline::new(cfg);
        // split layers across opposite corners of the 2x2 mesh:
        // crossbars 0 and 3 are 2 hops apart
        let assign: Vec<u32> = (0..16).map(|i| if i < 8 { 0 } else { 3 }).collect();
        let m = Mapping::from_assignment(assign, 4).unwrap();
        let r = pipeline
            .evaluate(&g, m, "manual", "identity")
            .unwrap()
            .report;
        assert_eq!(pipeline.distances().hops(0, 3), 2);
        assert_eq!(r.hop_weighted_packets, 2 * r.cut_spikes);
        assert!((r.avg_hops - 2.0).abs() < 1e-12);
        // adjacent crossbars: every packet travels exactly 1 hop
        let assign: Vec<u32> = (0..16).map(|i| if i < 8 { 0 } else { 1 }).collect();
        let m = Mapping::from_assignment(assign, 4).unwrap();
        let r = pipeline
            .evaluate(&g, m, "manual", "identity")
            .unwrap()
            .report;
        assert_eq!(r.hop_weighted_packets, r.cut_spikes);
        assert!((r.avg_hops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hop_optimized_placement_improves_a_scattered_mapping() {
        use crate::place::PlaceConfig;
        // chain traffic over a 3x3 mesh, clusters deliberately scattered:
        // cluster k talks to cluster k+1 but sits far from it
        let n = 18u32;
        let mut synapses = Vec::new();
        for i in 0..n {
            synapses.push((i, (i + 2) % n));
        }
        let trains: Vec<SpikeTrain> = (0..n)
            .map(|i| SpikeTrain::from_times((0..6).map(|k| k * 60 + (i % 7)).collect()))
            .collect();
        let g = SpikeGraph::from_trains(n, synapses, trains).unwrap();
        let arch = Architecture::custom(9, 2, InterconnectKind::Mesh).unwrap();
        let identity = MappingPipeline::new(PipelineConfig::for_arch(arch.clone()));
        let optimized = MappingPipeline::new(
            PipelineConfig::for_arch(arch)
                .with_placement(PlacementStrategy::HopOptimized(PlaceConfig::default())),
        );
        // a fixed scattered mapping, same for both pipelines
        let assign: Vec<u32> = (0..n).map(|i| i.wrapping_mul(4) % 9).collect();
        let m = Mapping::from_assignment(assign, 9).unwrap();
        let (id_m, _, id_label) = identity.place(&g, &m).unwrap();
        let (opt_m, opt_p, opt_id) = optimized.place(&g, &m).unwrap();
        assert_eq!(opt_id, "hop-optimized");
        assert_eq!(opt_m, m.place(&opt_p).unwrap());
        let r_id = identity
            .evaluate(&g, id_m, "manual", &id_label)
            .unwrap()
            .report;
        let r_opt = optimized
            .evaluate(&g, opt_m, "manual", &opt_id)
            .unwrap()
            .report;
        assert_eq!(r_id.placement, "identity");
        assert_eq!(r_opt.placement, "hop-optimized");
        // packet totals are placement-invariant; hop-weighted cost drops
        assert_eq!(r_id.cut_spikes, r_opt.cut_spikes);
        assert!(
            r_opt.hop_weighted_packets < r_id.hop_weighted_packets,
            "placement must reduce hop-weighted packets: {} !< {}",
            r_opt.hop_weighted_packets,
            r_id.hop_weighted_packets
        );
        assert!(r_opt.global_energy_pj < r_id.global_energy_pj);
    }

    #[test]
    fn place_rejects_a_mapping_that_does_not_cover_the_graph() {
        use crate::place::PlaceConfig;
        // a typed error under either strategy and from `evaluate`, not a
        // panic inside `TrafficMatrix::from_mapping` or `cut_spikes`
        let g = SpikeGraph::from_parts(4, vec![(0, 1), (2, 3)], vec![3, 1, 4, 1]).unwrap();
        let arch = Architecture::custom(2, 4, InterconnectKind::Mesh).unwrap();
        let identity = MappingPipeline::new(PipelineConfig::for_arch(arch));
        let optimized =
            identity.with_placement(PlacementStrategy::HopOptimized(PlaceConfig::default()));
        for neurons in [3, 5] {
            let m = Mapping::from_assignment(vec![0; neurons], 2).unwrap();
            let uncovered = |e| {
                matches!(
                    e,
                    CoreError::InvalidParameter {
                        name: "mapping",
                        ..
                    }
                )
            };
            for pipeline in [&identity, &optimized] {
                assert!(pipeline.place(&g, &m).is_err_and(uncovered));
            }
            assert!(identity
                .evaluate(&g, m, "manual", "identity")
                .is_err_and(uncovered));
        }
    }

    #[test]
    fn shallow_torus_with_vcs_agrees_across_engines() {
        // a 16-crossbar torus at realistic FIFO depth 2 with 2 VCs: the
        // staged pipeline must produce byte-identical reports on both
        // engines (this is the configuration class the deep-FIFO
        // workaround used to paper over)
        let mut synapses = Vec::new();
        for a in 0..16u32 {
            synapses.push((a, (a + 5) % 16));
            synapses.push((a, (a + 11) % 16));
        }
        let trains: Vec<SpikeTrain> = (0..16)
            .map(|i| SpikeTrain::from_times((0..6).map(|k| k * 40 + (i % 3)).collect()))
            .collect();
        let g = SpikeGraph::from_trains(16, synapses, trains).unwrap();
        let arch = Architecture::custom(16, 1, InterconnectKind::Torus).unwrap();
        let noc = NocConfig {
            buffer_depth: 2,
            vc_count: 2,
            ..NocConfig::default()
        };
        let cfg = PipelineConfig::for_arch(arch)
            .with_traffic(TrafficMode::PerCrossbar)
            .with_noc(noc);
        let oracle_cfg = cfg.clone().with_engine(EngineKind::CycleOracle);
        let assign: Vec<u32> = (0..16).collect();
        let m = Mapping::from_assignment(assign, 16).unwrap();
        let r_ev = MappingPipeline::new(cfg)
            .evaluate(&g, m.clone(), "manual", "identity")
            .unwrap()
            .report;
        let r_or = MappingPipeline::new(oracle_cfg)
            .evaluate(&g, m, "manual", "identity")
            .unwrap()
            .report;
        assert_eq!(r_ev, r_or);
        assert_eq!(r_ev.noc.digest().unwrap(), r_or.noc.digest().unwrap());
        assert_eq!(r_ev.noc.per_vc.len(), 2);
        assert!(r_ev.noc.delivered > 0);
    }

    #[test]
    fn with_noc_shares_the_topology() {
        let g = layered_graph();
        let cfg = PipelineConfig::for_arch(small_arch());
        let pipeline = MappingPipeline::new(cfg.clone());
        let mut noc = cfg.noc;
        noc.buffer_depth = 7;
        let swept = pipeline.with_noc(noc);
        assert_eq!(swept.config().noc.buffer_depth, 7);
        // same underlying router graph (Arc identity, not a rebuild)
        assert!(std::ptr::eq(pipeline.topology(), swept.topology()));
        // and the swept pipeline still evaluates correctly
        let assign: Vec<u32> = (0..16).map(|i| (i / 8) as u32).collect();
        let m = Mapping::from_assignment(assign, 4).unwrap();
        let r = swept.evaluate(&g, m, "manual", "identity").unwrap().report;
        assert_eq!(r.noc.delivered, r.cut_spikes);
    }

    #[test]
    fn infeasible_arch_rejected() {
        let g = layered_graph();
        let arch = Architecture::custom(2, 4, InterconnectKind::Mesh).unwrap(); // 8 < 16
        let cfg = PipelineConfig::for_arch(arch);
        assert!(matches!(
            MappingPipeline::new(cfg).run(&g, &PacmanPartitioner::new()),
            Err(CoreError::Infeasible { .. })
        ));
    }
}
