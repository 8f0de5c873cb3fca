//! Interconnect statistics: the conventional metrics (latency, throughput,
//! energy) and the two SNN metrics the paper introduces (spike disorder
//! count, ISI distortion).
//!
//! One fold derives them, delivery by delivery: the router loop feeds it
//! as it delivers, so a run builds no delivery log, and
//! [`NocStats::from_deliveries`] feeds it a log.

use neuromap_hw::energy::EnergyModel;
use serde::{Deserialize, Serialize};

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::time::Duration;

use crate::error::NocError;
use crate::plan::NetHasher;

/// One completed delivery: a spike that reached a destination crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Source neuron of the spike.
    pub source_neuron: u32,
    /// Crossbar it was sent from.
    pub src_crossbar: u32,
    /// Crossbar it was delivered to.
    pub dst_crossbar: u32,
    /// SNN timestep of the spike.
    pub send_step: u32,
    /// Cycle the packet entered the network.
    pub inject_cycle: u64,
    /// Cycle the packet reached the destination crossbar.
    pub deliver_cycle: u64,
}

impl Delivery {
    /// Builds a delivery record, asserting the causality invariant
    /// `deliver_cycle >= inject_cycle`. Both engines construct their
    /// delivery logs through here, so an engine bug that ever produced an
    /// inverted pair fails loudly at the record instead of wrapping
    /// silently inside [`Delivery::latency`] in release builds.
    pub fn new(
        source_neuron: u32,
        src_crossbar: u32,
        dst_crossbar: u32,
        send_step: u32,
        inject_cycle: u64,
        deliver_cycle: u64,
    ) -> Self {
        assert!(
            deliver_cycle >= inject_cycle,
            "delivery precedes injection: inject_cycle {inject_cycle} > deliver_cycle {deliver_cycle} \
             (neuron {source_neuron}, crossbar {src_crossbar} -> {dst_crossbar})"
        );
        Self {
            source_neuron,
            src_crossbar,
            dst_crossbar,
            send_step,
            inject_cycle,
            deliver_cycle,
        }
    }

    /// Network latency in cycles.
    ///
    /// Debug-checked against underflow; [`Delivery::new`] guarantees the
    /// invariant for engine-produced records.
    pub fn latency(&self) -> u64 {
        debug_assert!(
            self.deliver_cycle >= self.inject_cycle,
            "inverted delivery: inject_cycle {} > deliver_cycle {}",
            self.inject_cycle,
            self.deliver_cycle
        );
        self.deliver_cycle - self.inject_cycle
    }
}

/// Raw event counters accumulated during simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Packets injected (AER encode events).
    pub packets_injected: u64,
    /// Spike deliveries (AER decode events).
    pub deliveries: u64,
    /// Packets traversing a router switch.
    pub router_traversals: u64,
    /// Flits traversing inter-router links.
    pub link_flits: u64,
    /// Flits written into input buffers.
    pub buffer_flits: u64,
}

/// Per-virtual-channel event counters, aggregated over every router.
///
/// Both engines count these at the same state-changing events (FIFO
/// pushes and link forwards), so the vectors are part of the differential
/// byte-identity contract between the two [`crate::sim::EngineKind`]s and
/// are folded into [`NocStats::digest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcCounters {
    /// Packets buffered into this VC's ingress FIFOs (arrival pushes;
    /// local injection queues are VC-less and not counted).
    pub enqueued: u64,
    /// Packets forwarded across links on this VC.
    pub forwarded: u64,
    /// Times this VC was eligible at a forwarding output port (candidate
    /// head + free downstream credit) but lost the VC round-robin — the
    /// VC-level contention ("stall") signal.
    pub arb_losses: u64,
    /// Peak occupancy reached by any single (ingress, VC) FIFO, packets.
    pub peak_occupancy: u64,
}

/// Counters of the event engine's per-(router, output-port) wake
/// scheduler — diagnostic observability for the dense-traffic regime.
/// The ready set pops a pair at most once per attended cycle, so
/// `port_wakes <= wake_cycles × Σ_r degree(r)`.
///
/// The engine always accumulates these (a handful of integer adds per
/// wake); they are attached to [`NocStats`] only when
/// [`crate::config::NocConfig::sched_stats`] is set, and serialized only
/// when attached, so default-configuration digests stay byte-identical.
/// The cycle-driven oracle has no scheduler and never attaches them —
/// enable the flag only outside differential engine comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedCounters {
    /// Cycles the engine attended (woke up and drained its ready set).
    pub wake_cycles: u64,
    /// (router, output port) pairs popped from the ready set — the
    /// per-port unit of scheduler work.
    pub port_wakes: u64,
    /// Distinct routers visited while draining the ready set, summed over
    /// wake cycles (pops are pair-ordered, so same-router pops are
    /// contiguous).
    pub router_visits: u64,
    /// FIFO-head route masks (re)computed — once per packet becoming a
    /// lane head, not per port sweep.
    pub head_updates: u64,
    /// Peak size of the ready set (deduplicated; bounded by the total
    /// port-pair count).
    pub peak_ready: u64,
    /// Peak combined size of the busy-expiry heap and the next-cycle wake
    /// list (each bounded by the total port-pair count).
    pub peak_wake_heap: u64,
}

/// Scheduler trace of one engine run, returned by
/// [`crate::sim::NocSim::run_traced`] (the progress log only under
/// [`crate::sim::EngineKind::CycleOracle`]). Feeds the liveness and
/// wake-bound properties in `tests/noc_properties.rs`.
///
/// Not comparable: the phase times are host wall-clock, which no two
/// runs share.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// Cycles the event engine attended, ascending. Empty for the oracle
    /// (it attends every cycle of every drain window by construction).
    pub attended_cycles: Vec<u64>,
    /// Cycles at which at least one packet was forwarded, ascending.
    pub progress_cycles: Vec<u64>,
    /// Scheduler counters ([`SchedCounters::default`] for the oracle).
    pub sched: SchedCounters,
    /// Distinct nets — `(source crossbar, destination crossbars)` — among
    /// the run's flows. Every routing question is asked once per net, so
    /// packets injected ÷ nets says how often each answer was reused.
    /// Equal under both engines; not part of any digest.
    pub nets: u64,
    /// Nodes of the run's forwarding plan: the routers a net's packet
    /// reaches, with what it still carries there, where a node carrying
    /// one destination is shared by every net that reaches it under
    /// unicast routing. Equal under both engines; not part of any digest.
    pub plan_nodes: u64,
    /// Nodes over every net's tree, a shared node counted once per net
    /// that reaches it: what the plan would hold if it shared nothing.
    /// Equal under both engines; not part of any digest.
    pub net_nodes: u64,
    /// Of `net_nodes`, the ones carrying one destination under unicast
    /// routing, which the plan shares (0 under multicast trees, which
    /// share nothing). Equal under both engines; not part of any digest.
    pub shared_net_nodes: u64,
    /// The most packet handles live at once: copies injected or split
    /// off and not yet fully delivered — the run's packets in flight,
    /// queued encoder packets included. Equal under both engines; not
    /// part of any digest.
    pub peak_handles: u64,
    /// Host wall-clock time of the run's setup: the checks, the one pass
    /// over the flows (interning the nets, checking and counting per net,
    /// cutting the flows into run entries) and the forwarding plan. Like the three phase times below it, it is
    /// never compared and outside every digest.
    pub setup_time: Duration,
    /// Host wall-clock time of the injection schedule's one sort: the
    /// nets ranked by destination list, then the run entries sorted into
    /// canonical order. The packets themselves are placed as the loop
    /// takes them, inside `loop_time`.
    pub schedule_time: Duration,
    /// Host wall-clock time of the router loop, the statistics' fold
    /// included: the loop hands it every delivery, and it folds them a
    /// buffer at a time.
    pub loop_time: Duration,
    /// Host wall-clock time of the statistics' finish: folding the last
    /// buffer of deliveries, then the percentiles, the disorder over the
    /// step summaries (sorted here) and the ISI distortion of the
    /// streams, the out-of-order ones sorted.
    pub stats_time: Duration,
}

/// Full statistics of one interconnect simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Number of spike deliveries.
    pub delivered: u64,
    /// Total simulated cycles (time of last delivery).
    pub total_cycles: u64,
    /// Average delivery latency in cycles.
    pub avg_latency_cycles: f64,
    /// Median (p50) delivery latency in cycles.
    pub p50_latency_cycles: u64,
    /// 99th-percentile delivery latency in cycles — the congestion tail.
    pub p99_latency_cycles: u64,
    /// Maximum delivery latency in cycles (the paper's Table II latency).
    pub max_latency_cycles: u64,
    /// Delivered AER packets per millisecond of SNN time.
    pub throughput_aer_per_ms: f64,
    /// Fraction of spikes arriving out of order at their destination
    /// crossbar, in `[0, 1]`.
    pub disorder_fraction: f64,
    /// Average over (source neuron, destination crossbar) streams of the
    /// maximum |ISI(sent) − ISI(received)| in cycles.
    pub avg_isi_distortion_cycles: f64,
    /// Maximum ISI distortion across all streams, in cycles.
    pub max_isi_distortion_cycles: u64,
    /// Interconnect (global-synapse) energy in picojoules.
    pub global_energy_pj: f64,
    /// Raw event counters.
    pub counters: Counters,
    /// Per-VC counters, one entry per virtual channel — empty (and
    /// omitted from the serialized form, keeping single-VC digests
    /// byte-identical to the pre-VC wire shape) when the simulation ran
    /// with `vc_count == 1`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub per_vc: Vec<VcCounters>,
    /// Event-scheduler counters — attached only when
    /// [`crate::config::NocConfig::sched_stats`] is enabled (and omitted
    /// from the serialized form otherwise, keeping every default-config
    /// digest byte-identical to the pre-scheduler wire shape).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sched: Option<SchedCounters>,
}

impl NocStats {
    /// Computes all statistics from a delivery log: the log fed, in its
    /// own order, through the fold a run computes its statistics with
    /// (`StatsFold`), every stream keeping its pairs (a log can come from
    /// anywhere, so any stream may be out of inject order).
    ///
    /// `duration_steps` is the SNN duration in timesteps; with
    /// `cycles_per_step` it fixes the wall-clock the throughput is
    /// normalized by (1 step = 1 ms).
    pub fn from_deliveries(
        deliveries: &[Delivery],
        counters: Counters,
        energy: &EnergyModel,
        duration_steps: u32,
        cycles_per_step: u64,
    ) -> Self {
        StatsFold::of_log(deliveries).finish(counters, energy, duration_steps, cycles_per_step)
    }

    /// Attaches per-VC counters (builder style). The engines pass an
    /// empty vector for single-VC runs so the serialized shape — and
    /// therefore [`NocStats::digest`] — stays byte-identical to the
    /// pre-VC engines.
    pub fn with_per_vc(mut self, per_vc: Vec<VcCounters>) -> Self {
        self.per_vc = per_vc;
        self
    }

    /// Attaches scheduler counters (builder style). The event engine only
    /// calls this when [`crate::config::NocConfig::sched_stats`] is set,
    /// so the serialized shape — and therefore [`NocStats::digest`] —
    /// is unchanged for every pre-existing configuration.
    pub fn with_sched(mut self, sched: SchedCounters) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Canonical (compact) JSON serialization — the byte string
    /// [`NocStats::digest`] hashes.
    ///
    /// # Errors
    ///
    /// [`NocError::Serialization`] if the serializer fails (it cannot for
    /// the current field set, but library code must not panic on it).
    pub fn to_json(&self) -> Result<String, NocError> {
        serde_json::to_string(self).map_err(|e| NocError::Serialization {
            context: "NocStats",
            detail: e.to_string(),
        })
    }

    /// FNV-1a digest of the canonical JSON serialization.
    ///
    /// Two statistics blocks digest equal iff their serialized bytes are
    /// identical — including the exact bit patterns of the float fields.
    /// The differential test suite and `BENCH_noc.json` use this to assert
    /// that the event-driven engine and the cycle-driven oracle agree
    /// byte-for-byte, not merely approximately.
    ///
    /// # Errors
    ///
    /// Propagates [`NocError::Serialization`] from [`NocStats::to_json`].
    pub fn digest(&self) -> Result<u64, NocError> {
        let json = self.to_json()?;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Ok(h)
    }
}

/// Fraction of deliveries arriving out of order at their destination.
///
/// Spike order is defined at the SNN level: a spike fired at timestep
/// `t + 1` carries later information than one fired at `t` (spikes within
/// the same timestep are simultaneous — their relative AER serialization
/// order carries no information). Per destination crossbar, deliveries are
/// ordered by send step (ties by inject cycle, then source neuron, then
/// log position); each adjacent cross-step pair delivered in inverted
/// order counts once. The fraction is inversions / deliveries — the
/// paper's "fraction of total spikes arriving out of order at the
/// neurons", caused by congestion delaying older spikes past newer ones
/// (the paper's crossbar-arbitration example).
pub fn disorder_fraction(deliveries: &[Delivery]) -> f64 {
    StatsFold::of_log(deliveries).disorder()
}

/// ISI distortion per (source neuron, destination crossbar) stream:
/// max |ISI(inject) − ISI(deliver)| in cycles, the stream taken in
/// (inject, deliver) order; returns `(mean, max)` over streams with at
/// least two spikes.
pub fn isi_distortion(deliveries: &[Delivery]) -> (f64, u64) {
    StatsFold::of_log(deliveries).isi()
}

/// Temporal-code fidelity (§V-B): the fraction of beat-scale sent
/// inter-spike intervals that arrive within ±3 %. Per (source neuron,
/// destination crossbar) stream, taken in (inject, deliver) order, every
/// sent interval of 300–2000 ms (`cycles_per_ms` cycles a millisecond) is
/// a trial, and a hit when the arrival interval is within 3 % of it. That
/// is the channel a temporally coded application decodes (the heartbeat
/// app's R-R interval), so the loss lower-bounds its accuracy loss. 0 when
/// no interval falls in the window.
pub fn temporal_fidelity(deliveries: &[Delivery], cycles_per_ms: u64) -> f64 {
    let stream = |d: &Delivery| (d.source_neuron, d.dst_crossbar);
    let mut log = deliveries.to_vec();
    log.sort_unstable_by_key(|d| (stream(d), d.inject_cycle, d.deliver_cycle));
    let ms = |cycles: u64| cycles as f64 / cycles_per_ms as f64;
    let (mut trials, mut hits) = (0u64, 0u64);
    for w in log.windows(2).filter(|w| stream(&w[0]) == stream(&w[1])) {
        let sent = ms(w[1].inject_cycle - w[0].inject_cycle);
        if (300.0..=2000.0).contains(&sent) {
            trials += 1;
            let received = ms(w[1].deliver_cycle.abs_diff(w[0].deliver_cycle));
            hits += u64::from((received - sent).abs() / sent <= 0.03);
        }
    }
    if trials == 0 {
        0.0
    } else {
        hits as f64 / trials as f64
    }
}

/// `(source neuron, destination crossbar)` streams.
pub(crate) type Streams = HashSet<(u32, u32), BuildHasherDefault<NetHasher>>;

type IdMap<K> = HashMap<K, u32, BuildHasherDefault<NetHasher>>;

/// Which streams a [`StatsFold`] keeps the `(inject, deliver)` pairs of,
/// to sort at the end should they arrive out of inject order.
pub(crate) enum Keep<'a> {
    /// Every stream: a delivery log's, which may come from anywhere.
    Every,
    /// Only these: a run's streams that ride several nets
    /// ([`crate::plan::Nets::split_streams`]). A stream of one net has one
    /// route, one VC per hop and FIFO lanes, so it cannot overtake itself:
    /// the fold panics if one does.
    Only(&'a Streams),
}

/// Latencies below this many cycles are counted in a fixed array (64 KB;
/// the paper's flow peaks at 5 451 cycles on mapbench's `hd_tree_paper`),
/// the rest in a map: no table is sized by a latency.
const DENSE_LATENCIES: usize = 8192;

/// Deliveries staged before the fold takes them in (512 KB of them).
/// Folded one at a time inside the router loop, the fold's tables and
/// the loop's evicted each other from cache: on the flows of mapbench's
/// `chip4_hier_multilevel` (661 315 deliveries to 66 661 streams) the
/// simulation took 1.2–1.3× as long as with a delivery log; folded a
/// buffer at a time, 1.02–1.04× (fastest of five runs, three rounds).
const STAGED: usize = 1 << 14;

/// The statistics of a run, folded delivery by delivery in delivery
/// order: the router loop feeds it where a delivery happens, and
/// [`NocStats::from_deliveries`] feeds it a log. Nothing is kept per
/// delivery but the pairs of the streams [`Keep`] names, and the
/// [`STAGED`] deliveries not yet folded; every table is keyed by
/// interned ids, none sized by a crossbar, step, neuron or latency
/// value.
///
/// A delivery folds into its stream and its destination's open step
/// summary. A summary is appended to one list when its destination moves
/// to another step, and only the finish sorts that list (keeping each
/// destination's steps sorted as they closed cost a cache miss per
/// close).
pub(crate) struct StatsFold<'k> {
    keep: Keep<'k>,
    delivered: u64,
    latency_sum: u64,
    latency_max: u64,
    last_cycle: u64,
    /// Deliveries per latency below [`DENSE_LATENCIES`].
    dense: Vec<u64>,
    /// Deliveries per latency from [`DENSE_LATENCIES`] on.
    sparse: HashMap<u64, u64, BuildHasherDefault<NetHasher>>,
    /// Destination id per destination crossbar.
    dest_ids: IdMap<u32>,
    /// By destination id: the summary of the step delivered there last
    /// ([`None`] before the first delivery).
    open: Vec<Option<StepRun>>,
    /// The summaries closed so far, in the order they closed.
    closed: Vec<StepRun>,
    /// By `(source neuron, destination crossbar)`.
    streams: HashMap<(u32, u32), Stream, BuildHasherDefault<NetHasher>>,
    /// `(stream, inject, deliver)` of the kept streams' deliveries.
    pairs: Vec<((u32, u32), u64, u64)>,
    /// `(neuron, dst, step, inject, deliver)` of the deliveries not yet
    /// folded, in delivery order.
    staged: Vec<(u32, u32, u32, u64, u64)>,
}

/// Deliveries of one send step at one destination that came with no
/// other step's delivery there between them: the deliver cycles of the
/// first and the last of them in `(inject cycle, source neuron, delivery
/// order)` order.
#[derive(Clone, Copy)]
struct StepRun {
    /// Destination id.
    dest: u32,
    step: u32,
    first: ((u64, u32), u64),
    last: ((u64, u32), u64),
}

impl StepRun {
    /// Folds in a delivery later than every one folded so far: on an
    /// equal key the later delivery is the larger.
    fn fold(&mut self, key: (u64, u32), deliver: u64) {
        if key < self.first.0 {
            self.first = (key, deliver);
        }
        if key >= self.last.0 {
            self.last = (key, deliver);
        }
    }
}

/// One (source neuron, destination) stream, read in delivery order.
#[derive(Clone, Copy)]
struct Stream {
    /// `(inject, deliver)` of the stream's latest delivery.
    last: (u64, u64),
    /// Largest ISI distortion between consecutive deliveries so far.
    worst: u64,
    /// Destination id.
    dest: u32,
    /// Its pairs are kept ([`Keep`]).
    kept: bool,
    /// Every delivery so far came in `(inject, deliver)` order.
    in_order: bool,
    /// Delivered more than once: it has an ISI.
    repeated: bool,
}

impl<'k> StatsFold<'k> {
    /// An empty fold keeping the pairs of the streams `keep` names.
    pub(crate) fn new(keep: Keep<'k>) -> Self {
        Self {
            keep,
            delivered: 0,
            latency_sum: 0,
            latency_max: 0,
            last_cycle: 0,
            dense: vec![0; DENSE_LATENCIES],
            sparse: HashMap::default(),
            dest_ids: HashMap::default(),
            open: Vec::new(),
            closed: Vec::new(),
            streams: HashMap::default(),
            pairs: Vec::new(),
            staged: Vec::with_capacity(STAGED),
        }
    }

    /// A delivery log folded in its own order, every stream kept.
    fn of_log(log: &[Delivery]) -> Self {
        let mut fold = Self::new(Keep::Every);
        for d in log {
            fold.deliver(
                d.source_neuron,
                d.dst_crossbar,
                d.send_step,
                d.inject_cycle,
                d.deliver_cycle,
            );
        }
        fold.fold_staged();
        fold
    }

    /// Deliveries taken in so far, staged ones included.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Takes in the delivery of `neuron`'s spike of step `step` to
    /// crossbar `dst`, injected at cycle `inject` and delivered at
    /// `deliver`.
    ///
    /// # Panics
    ///
    /// When `deliver < inject`, as [`Delivery::new`] does, and — when its
    /// buffer of deliveries is folded — when a stream whose pairs are not
    /// kept arrives out of inject order.
    #[inline]
    pub(crate) fn deliver(&mut self, neuron: u32, dst: u32, step: u32, inject: u64, deliver: u64) {
        assert!(
            deliver >= inject,
            "delivery precedes injection: inject_cycle {inject} > deliver_cycle {deliver} \
             (neuron {neuron}, crossbar {dst})"
        );
        self.delivered += 1;
        if self.staged.len() == STAGED {
            self.fold_staged();
        }
        self.staged.push((neuron, dst, step, inject, deliver));
    }

    /// Folds in the staged deliveries, in delivery order.
    #[inline(never)]
    fn fold_staged(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        for &(neuron, dst, step, inject, deliver) in &staged {
            self.fold(neuron, dst, step, inject, deliver);
        }
        staged.clear();
        self.staged = staged;
    }

    /// Folds in one delivery, later than every one folded so far.
    fn fold(&mut self, neuron: u32, dst: u32, step: u32, inject: u64, deliver: u64) {
        let latency = deliver - inject;
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        self.last_cycle = self.last_cycle.max(deliver);
        match self.dense.get_mut(latency as usize) {
            Some(count) => *count += 1,
            None => *self.sparse.entry(latency).or_insert(0) += 1,
        }

        let now = (inject, deliver);
        let id = (neuron, dst);
        let (stream, first) = match self.streams.entry(id) {
            Entry::Occupied(stream) => (stream.into_mut(), false),
            Entry::Vacant(slot) => {
                let fresh = self.open.len() as u32;
                let dest = *self.dest_ids.entry(dst).or_insert(fresh);
                if dest == fresh {
                    self.open.push(None);
                }
                let kept = match self.keep {
                    Keep::Every => true,
                    Keep::Only(split) => split.contains(&id),
                };
                let stream = slot.insert(Stream {
                    last: now,
                    worst: 0,
                    dest,
                    kept,
                    in_order: true,
                    repeated: false,
                });
                (stream, true)
            }
        };

        // disorder: one summary per run of a step at the destination
        let key = (inject, neuron);
        let open = &mut self.open[stream.dest as usize];
        match open {
            Some(run) if run.step == step => run.fold(key, deliver),
            _ => {
                let run = StepRun {
                    dest: stream.dest,
                    step,
                    first: (key, deliver),
                    last: (key, deliver),
                };
                if let Some(done) = open.replace(run) {
                    self.closed.push(done);
                }
            }
        }

        // ISI: each stream's consecutive pair, while in order
        if !first {
            if now < stream.last {
                assert!(
                    stream.kept,
                    "stream of neuron {neuron} to crossbar {dst} rides one net, yet (inject, \
                     deliver) {now:?} arrived after {:?}",
                    stream.last
                );
                stream.in_order = false;
            } else if stream.in_order {
                stream.worst = stream.worst.max(isi_gap(stream.last, now));
            }
            stream.last = now;
            stream.repeated = true;
        }
        if stream.kept {
            self.pairs.push((id, inject, deliver));
        }
    }

    /// The statistics of the deliveries folded, with the run's counters.
    pub(crate) fn finish(
        mut self,
        counters: Counters,
        energy: &EnergyModel,
        duration_steps: u32,
        cycles_per_step: u64,
    ) -> NocStats {
        self.fold_staged();
        let delivered = self.delivered;
        let avg_latency = if delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / delivered as f64
        };
        let (p50, p99) = self.percentiles();
        let duration_ms = duration_steps.max(1) as f64;
        let throughput = delivered as f64 / duration_ms;
        let disorder = self.disorder();
        let (avg_isi, max_isi) = self.isi();

        let global_energy_pj = counters.packets_injected as f64 * energy.encode_pj
            + counters.deliveries as f64 * energy.decode_pj
            + counters.router_traversals as f64 * energy.router_hop_pj
            + counters.link_flits as f64 * energy.link_flit_pj
            + counters.buffer_flits as f64 * energy.buffer_flit_pj;

        NocStats {
            delivered,
            total_cycles: self
                .last_cycle
                .max(u64::from(duration_steps).saturating_mul(cycles_per_step)),
            avg_latency_cycles: avg_latency,
            p50_latency_cycles: p50,
            p99_latency_cycles: p99,
            max_latency_cycles: self.latency_max,
            throughput_aer_per_ms: throughput,
            disorder_fraction: disorder,
            avg_isi_distortion_cycles: avg_isi,
            max_isi_distortion_cycles: max_isi,
            global_energy_pj,
            counters,
            per_vc: Vec::new(),
            sched: None,
        }
    }

    /// Nearest-rank `(p50, p99)` latencies, by one walk up the counts.
    fn percentiles(&self) -> (u64, u64) {
        let n = self.delivered;
        if n == 0 {
            return (0, 0);
        }
        let rank = |p: f64| ((p * n as f64).ceil() as u64).clamp(1, n) - 1;
        let (i50, i99) = (rank(0.50), rank(0.99));
        let mut sparse: Vec<(u64, u64)> = self.sparse.iter().map(|(&l, &c)| (l, c)).collect();
        sparse.sort_unstable();
        let dense = self.dense.iter().enumerate().map(|(l, &c)| (l as u64, c));
        let (mut seen, mut p50) = (0u64, None);
        for (latency, count) in dense.chain(sparse) {
            seen += count;
            if seen > i50 {
                p50.get_or_insert(latency);
            }
            if seen > i99 {
                return (p50.unwrap_or(latency), latency);
            }
        }
        unreachable!("the counts sum to the deliveries")
    }

    /// Inversions over deliveries: per destination, its step summaries
    /// in step order, each adjacent pair delivered inverted counting once
    /// (see [`disorder_fraction`]).
    fn disorder(&mut self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        let mut runs = std::mem::take(&mut self.closed);
        runs.extend(self.open.iter().flatten());
        // a step delivered in several runs folds into one, in delivery
        // order (the sort is stable); then adjacent steps compare
        runs.sort_by_key(|run| (run.dest, run.step));
        runs.dedup_by(|later, kept| {
            if (later.dest, later.step) != (kept.dest, kept.step) {
                return false;
            }
            kept.fold(later.first.0, later.first.1);
            kept.fold(later.last.0, later.last.1);
            true
        });
        let inversions = runs
            .windows(2)
            .filter(|w| w[0].dest == w[1].dest && w[0].last.1 > w[1].first.1)
            .count();
        inversions as f64 / self.delivered as f64
    }

    /// `(mean, max)` ISI distortion over the streams of two spikes or
    /// more (see [`isi_distortion`]); a stream that arrived out of inject
    /// order is measured on its kept pairs, sorted.
    fn isi(&mut self) -> (f64, u64) {
        let streams = &mut self.streams;
        self.pairs.retain(|(id, ..)| !streams[id].in_order);
        self.pairs.sort_unstable();
        for (id, ..) in &self.pairs {
            streams.get_mut(id).expect("a kept pair has a stream").worst = 0;
        }
        for w in self.pairs.windows(2) {
            if w[0].0 == w[1].0 {
                let s = streams.get_mut(&w[0].0).expect("a kept pair has a stream");
                s.worst = s.worst.max(isi_gap((w[0].1, w[0].2), (w[1].1, w[1].2)));
            }
        }
        let (mut sum, mut count, mut max) = (0u64, 0u64, 0u64);
        for s in streams.values().filter(|s| s.repeated) {
            sum += s.worst;
            count += 1;
            max = max.max(s.worst);
        }
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        (mean, max)
    }
}

/// |ISI(inject) − ISI(deliver)| between two consecutive `(inject,
/// deliver)` pairs of one stream, the second injected no earlier.
fn isi_gap(a: (u64, u64), b: (u64, u64)) -> u64 {
    let sent = b.0 - a.0;
    let received = b.1.abs_diff(a.1);
    sent.abs_diff(received)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(src: u32, dst: u32, inj: u64, del: u64) -> Delivery {
        Delivery {
            source_neuron: src,
            src_crossbar: 0,
            dst_crossbar: dst,
            send_step: (inj / 100) as u32,
            inject_cycle: inj,
            deliver_cycle: del,
        }
    }

    #[test]
    fn temporal_fidelity_counts_beat_scale_intervals_within_three_percent() {
        let log = [
            // sent 1000 ms, arrives 1005 ms: a hit
            d(0, 1, 0, 10),
            d(0, 1, 1000, 1015),
            // sent 500 ms, arrives 550 ms: a miss
            d(0, 2, 0, 10),
            d(0, 2, 500, 560),
            // 100 ms and 2500 ms: outside the window, no trial
            d(1, 1, 0, 0),
            d(1, 1, 100, 100),
            d(1, 1, 2600, 2600),
            // logged out of inject order: sent 800 ms, arrives 802 ms
            d(2, 1, 800, 805),
            d(2, 1, 0, 3),
            // delivered out of inject order: sent 800 ms, arrives 95 ms
            d(3, 1, 0, 900),
            d(3, 1, 800, 805),
        ];
        assert_eq!(temporal_fidelity(&log, 1), 0.5);
        // at 2 cycles a millisecond: 500 hit, 1250 hit, 400 hit, 400 miss
        assert_eq!(temporal_fidelity(&log, 2), 0.75);
        assert_eq!(temporal_fidelity(&log[4..7], 1), 0.0, "no trial");
    }

    #[test]
    fn latency_accessor() {
        assert_eq!(d(0, 1, 10, 25).latency(), 15);
    }

    #[test]
    fn constructor_accepts_causal_pairs() {
        let del = Delivery::new(3, 0, 1, 0, 10, 10);
        assert_eq!(del.latency(), 0);
        assert_eq!(Delivery::new(3, 0, 1, 0, 10, 25).latency(), 15);
    }

    #[test]
    #[should_panic(expected = "delivery precedes injection")]
    fn constructor_rejects_inverted_pairs() {
        let _ = Delivery::new(3, 0, 1, 0, 25, 10);
    }

    #[test]
    fn ordered_deliveries_have_zero_disorder() {
        let ds = vec![d(0, 1, 0, 5), d(1, 1, 1, 6), d(2, 1, 2, 7)];
        assert_eq!(disorder_fraction(&ds), 0.0);
    }

    #[test]
    fn inverted_pair_detected() {
        // sent in steps 0 and 1 (fixture derives step = inject/100), the
        // later spike arrives first
        let ds = vec![d(0, 1, 0, 209), d(1, 1, 100, 105)];
        assert!((disorder_fraction(&ds) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_step_reordering_is_not_disorder() {
        // both sent in step 0: sub-step serialization order is free
        let ds = vec![d(0, 1, 0, 9), d(1, 1, 1, 5)];
        assert_eq!(disorder_fraction(&ds), 0.0);
    }

    #[test]
    fn disorder_is_per_destination() {
        // inversion across different destinations doesn't count
        let ds = vec![d(0, 1, 0, 209), d(1, 2, 100, 105)];
        assert_eq!(disorder_fraction(&ds), 0.0);
    }

    #[test]
    fn isi_distortion_of_uniform_delay_is_zero() {
        let ds = vec![d(7, 1, 0, 4), d(7, 1, 100, 104), d(7, 1, 200, 204)];
        let (mean, max) = isi_distortion(&ds);
        assert_eq!(mean, 0.0);
        assert_eq!(max, 0);
    }

    #[test]
    fn isi_distortion_detects_jitter() {
        // second spike delayed 6 extra cycles: recv ISIs 106, 94
        let ds = vec![d(7, 1, 0, 4), d(7, 1, 100, 110), d(7, 1, 200, 204)];
        let (mean, max) = isi_distortion(&ds);
        assert_eq!(max, 6);
        assert!((mean - 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_spike_streams_ignored() {
        let ds = vec![d(1, 1, 0, 5), d(2, 1, 10, 12)];
        let (mean, max) = isi_distortion(&ds);
        assert_eq!((mean, max), (0.0, 0));
    }

    #[test]
    fn stats_assembly() {
        let ds = vec![d(0, 1, 0, 10), d(0, 1, 100, 110)];
        let counters = Counters {
            packets_injected: 2,
            deliveries: 2,
            router_traversals: 4,
            link_flits: 4,
            buffer_flits: 4,
        };
        let em = EnergyModel::default();
        let s = NocStats::from_deliveries(&ds, counters, &em, 1, 1024);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.max_latency_cycles, 10);
        assert!(s.global_energy_pj > 0.0);
        assert!(s.throughput_aer_per_ms > 0.0);
    }

    #[test]
    fn digest_distinguishes_stats() {
        let ds = vec![d(0, 1, 0, 10), d(0, 1, 100, 110)];
        let counters = Counters {
            packets_injected: 2,
            deliveries: 2,
            router_traversals: 4,
            link_flits: 4,
            buffer_flits: 4,
        };
        let em = EnergyModel::default();
        let a = NocStats::from_deliveries(&ds, counters, &em, 1, 1024);
        let b = NocStats::from_deliveries(&ds, counters, &em, 1, 1024);
        assert_eq!(
            a.digest().unwrap(),
            b.digest().unwrap(),
            "identical stats digest equal"
        );
        let c = NocStats::from_deliveries(&ds[..1], counters, &em, 1, 1024);
        assert_ne!(
            a.digest().unwrap(),
            c.digest().unwrap(),
            "different stats digest apart"
        );
        // digest hashes exactly the canonical to_json bytes
        assert!(a.to_json().unwrap().starts_with('{'));
    }

    #[test]
    fn empty_per_vc_is_omitted_from_the_wire_shape() {
        // the single-VC serialized form must not mention per_vc at all —
        // this is what keeps vc_count=1 digests byte-identical to the
        // pre-VC engines
        let ds = vec![d(0, 1, 0, 10)];
        let c = Counters::default();
        let em = EnergyModel::default();
        let s = NocStats::from_deliveries(&ds, c, &em, 1, 1024);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("per_vc"), "{json}");
        // with per-VC counters attached the field serializes and changes
        // the digest
        let sv = s.clone().with_per_vc(vec![VcCounters::default(); 2]);
        let jv = serde_json::to_string(&sv).unwrap();
        assert!(jv.contains("per_vc"), "{jv}");
        assert_ne!(s.digest().unwrap(), sv.digest().unwrap());
        // and round-trips, including the omitted form
        let back: NocStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let back: NocStats = serde_json::from_str(&jv).unwrap();
        assert_eq!(back, sv);
    }

    #[test]
    fn absent_sched_counters_are_omitted_from_the_wire_shape() {
        // the default-config serialized form must not mention sched at
        // all — this keeps every pre-scheduler digest (including the
        // golden pre-VC digests) byte-identical
        let ds = vec![d(0, 1, 0, 10)];
        let s =
            NocStats::from_deliveries(&ds, Counters::default(), &EnergyModel::default(), 1, 1024);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("sched"), "{json}");
        // attaching the counters serializes them and changes the digest
        let ss = s.clone().with_sched(SchedCounters {
            port_wakes: 7,
            ..SchedCounters::default()
        });
        let js = serde_json::to_string(&ss).unwrap();
        assert!(js.contains("sched"), "{js}");
        assert!(js.contains("port_wakes"), "{js}");
        assert_ne!(s.digest().unwrap(), ss.digest().unwrap());
        // and both forms round-trip
        let back: NocStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let back: NocStats = serde_json::from_str(&js).unwrap();
        assert_eq!(back, ss);
    }

    #[test]
    fn per_vc_counters_fold_into_the_digest() {
        let ds = vec![d(0, 1, 0, 10)];
        let em = EnergyModel::default();
        let base = NocStats::from_deliveries(&ds, Counters::default(), &em, 1, 1024);
        let a = base.clone().with_per_vc(vec![
            VcCounters {
                forwarded: 3,
                ..VcCounters::default()
            },
            VcCounters::default(),
        ]);
        let b = base.with_per_vc(vec![
            VcCounters {
                forwarded: 4,
                ..VcCounters::default()
            },
            VcCounters::default(),
        ]);
        assert_ne!(
            a.digest().unwrap(),
            b.digest().unwrap(),
            "vc traffic split must be visible"
        );
    }

    /// Nearest-rank `(p50, p99)` of `latencies`, through the fold.
    fn percentiles(latencies: &[u64]) -> (u64, u64) {
        let mut fold = StatsFold::new(Keep::Every);
        for (i, &latency) in latencies.iter().enumerate() {
            fold.deliver(i as u32, 0, 0, 0, latency);
        }
        fold.fold_staged();
        fold.percentiles()
    }

    #[test]
    fn percentiles_nearest_rank() {
        let latencies: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentiles(&latencies), (50, 99));
        assert_eq!(percentiles(&[]), (0, 0));
        assert_eq!(percentiles(&[7]), (7, 7));
        assert_eq!(percentiles(&[9, 3]), (3, 9));
        // past the dense counts, and across their edge
        let far = DENSE_LATENCIES as u64;
        assert_eq!(percentiles(&[far + 5, 2, far]), (far, far + 5));
        let sorted: Vec<u64> = (0..200).map(|i| i * 40).collect();
        let rank = |p: f64| sorted[((p * 200.0).ceil() as usize).clamp(1, 200) - 1];
        let wide: Vec<u64> = sorted.iter().rev().copied().collect();
        assert_eq!(percentiles(&wide), (rank(0.50), rank(0.99)));
    }

    #[test]
    #[should_panic(expected = "rides one net")]
    fn a_one_net_stream_out_of_order_panics() {
        let split = Streams::default();
        let mut fold = StatsFold::new(Keep::Only(&split));
        fold.deliver(3, 1, 0, 20, 30);
        fold.deliver(3, 1, 0, 10, 31);
        fold.finish(Counters::default(), &EnergyModel::default(), 1, 1024);
    }

    #[test]
    fn a_split_stream_out_of_order_is_sorted() {
        let split: Streams = [(3, 1)].into_iter().collect();
        let mut fold = StatsFold::new(Keep::Only(&split));
        let log = [d(3, 1, 20, 30), d(3, 1, 10, 31), d(3, 1, 30, 32)];
        for x in &log {
            fold.deliver(
                x.source_neuron,
                x.dst_crossbar,
                x.send_step,
                x.inject_cycle,
                x.deliver_cycle,
            );
        }
        let em = EnergyModel::default();
        let stats = fold.finish(Counters::default(), &em, 1, 1024);
        assert_eq!(
            stats,
            NocStats::from_deliveries(&log, Counters::default(), &em, 1, 1024)
        );
        assert_eq!(isi_distortion(&log), (9.0, 9));
    }

    #[test]
    fn energy_scales_with_counters() {
        let em = EnergyModel::default();
        let ds: Vec<Delivery> = Vec::new();
        let small = Counters {
            packets_injected: 1,
            deliveries: 1,
            router_traversals: 1,
            link_flits: 1,
            buffer_flits: 1,
        };
        let large = Counters {
            packets_injected: 10,
            deliveries: 10,
            router_traversals: 10,
            link_flits: 10,
            buffer_flits: 10,
        };
        let s1 = NocStats::from_deliveries(&ds, small, &em, 1, 1);
        let s2 = NocStats::from_deliveries(&ds, large, &em, 1, 1);
        assert!((s2.global_energy_pj - 10.0 * s1.global_energy_pj).abs() < 1e-9);
    }
}
