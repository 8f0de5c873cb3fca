//! Interconnect statistics: the conventional metrics (latency, throughput,
//! energy) and the two SNN metrics the paper introduces (spike disorder
//! count, ISI distortion).

use neuromap_hw::energy::EnergyModel;
use serde::{Deserialize, Serialize};

use std::collections::HashMap;
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
    /// Distinct nets — `(source crossbar, destination crossbars)`, or
    /// `(source, destination)` pairs when multicast is off — among the
    /// run's flows. Every routing question is asked once per net, so
    /// packets injected ÷ nets says how often each answer was reused.
    /// Equal under both engines; not part of any digest.
    pub nets: u64,
    /// Nodes of the run's forwarding plan: (net, router reached) pairs.
    /// Equal under both engines; not part of any digest.
    pub plan_nodes: u64,
    /// The most packet handles live at once: copies injected or split
    /// off and not yet fully delivered — the run's packets in flight,
    /// queued encoder packets included. Equal under both engines; not
    /// part of any digest.
    pub peak_handles: u64,
    /// Host wall-clock time of the run's setup: validation, net interning
    /// and the forwarding plan. Like the three phase times below it, it
    /// is never compared and outside every digest.
    pub setup_time: Duration,
    /// Host wall-clock time of ordering the injection schedule's groups
    /// of flows. The packets themselves are placed as the loop takes
    /// them, inside `loop_time`.
    pub schedule_time: Duration,
    /// Host wall-clock time of the router loop.
    pub loop_time: Duration,
    /// Host wall-clock time of the statistics over the delivery log.
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
    /// Computes all statistics from the delivery log.
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
        let delivered = deliveries.len() as u64;
        let total_cycles = deliveries
            .iter()
            .map(|d| d.deliver_cycle)
            .max()
            .unwrap_or(0);
        // one latency pass feeds avg and max (u64 addition is
        // order-independent); the percentiles are selections on it
        let mut lat: Vec<u64> = deliveries.iter().map(|d| d.latency()).collect();
        let avg_latency = if delivered == 0 {
            0.0
        } else {
            lat.iter().sum::<u64>() as f64 / delivered as f64
        };
        let max_latency = lat.iter().copied().max().unwrap_or(0);
        let (p50, p99) = percentiles(&mut lat);
        // freed before the bucketing below allocates
        drop(lat);

        let duration_ms = duration_steps.max(1) as f64;
        let throughput = delivered as f64 / duration_ms;

        let (disorder, (avg_isi, max_isi)) = ByDestination::new(deliveries).order_metrics();

        let global_energy_pj = counters.packets_injected as f64 * energy.encode_pj
            + counters.deliveries as f64 * energy.decode_pj
            + counters.router_traversals as f64 * energy.router_hop_pj
            + counters.link_flits as f64 * energy.link_flit_pj
            + counters.buffer_flits as f64 * energy.buffer_flit_pj;

        Self {
            delivered,
            total_cycles: total_cycles
                .max(u64::from(duration_steps).saturating_mul(cycles_per_step)),
            avg_latency_cycles: avg_latency,
            p50_latency_cycles: p50,
            p99_latency_cycles: p99,
            max_latency_cycles: max_latency,
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

/// Nearest-rank `(p50, p99)` of `lat`, by selection (reorders `lat`).
fn percentiles(lat: &mut [u64]) -> (u64, u64) {
    if lat.is_empty() {
        return (0, 0);
    }
    let n = lat.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (i50, i99) = (rank(0.50), rank(0.99));
    let (below, &mut p99, _) = lat.select_nth_unstable(i99);
    // everything left of rank 99 is at most p99, so p50 is selected there
    let p50 = if i50 == i99 {
        p99
    } else {
        *below.select_nth_unstable(i50).1
    };
    (p50, p99)
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
    ByDestination::new(deliveries).order_metrics().0
}

/// ISI distortion per (source neuron, destination crossbar) stream:
/// max |ISI(inject) − ISI(deliver)| in cycles, the stream taken in
/// (inject, deliver) order; returns `(mean, max)` over streams with at
/// least two spikes.
pub fn isi_distortion(deliveries: &[Delivery]) -> (f64, u64) {
    ByDestination::new(deliveries).order_metrics().1
}

/// A delivery log bucketed by destination crossbar: both order metrics
/// are per destination, so one counting pass groups the log for both.
/// Within a group the log keeps its own order, which is nearly the order
/// either metric wants — an engine delivers a destination's spikes step
/// after step, and each stream's in inject order — so no group is
/// sorted, only the few pieces that arrived out of order.
///
/// Destinations get dense ids by hashing, never by value: the log is any
/// log, and no table here is sized by a crossbar, step or neuron value.
struct ByDestination<'a> {
    log: &'a [Delivery],
    /// Log positions, grouped by destination, ascending within a group.
    order: Vec<u32>,
    /// Group `g` is `order[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<usize>,
}

/// The deliveries of one send step at one destination that arrived
/// back to back in the log: the deliver cycles of the first and the last
/// of them in `(inject cycle, source neuron, log position)` order.
#[derive(Clone, Copy)]
struct StepRun {
    step: u32,
    first: ((u64, u32), u64),
    last: ((u64, u32), u64),
}

impl StepRun {
    /// Folds in a delivery later in the log than every one folded so
    /// far: on an equal key the later log position is the larger.
    fn fold(&mut self, key: (u64, u32), deliver: u64) {
        if key < self.first.0 {
            self.first = (key, deliver);
        }
        if key >= self.last.0 {
            self.last = (key, deliver);
        }
    }
}

/// One (source neuron, destination) stream while its group is read in
/// log order.
#[derive(Clone, Copy)]
struct Stream {
    /// `(inject, deliver)` of the stream's latest delivery.
    last: (u64, u64),
    /// Largest ISI distortion between consecutive deliveries so far.
    worst: u64,
    spikes: u64,
    /// Every delivery so far came in `(inject, deliver)` order.
    in_order: bool,
}

impl<'a> ByDestination<'a> {
    fn new(log: &'a [Delivery]) -> Self {
        let mut ids: HashMap<u32, u32, BuildHasherDefault<NetHasher>> = HashMap::default();
        let mut sizes: Vec<usize> = Vec::new();
        let group: Vec<u32> = log
            .iter()
            .map(|d| {
                let fresh = sizes.len() as u32;
                let g = *ids.entry(d.dst_crossbar).or_insert(fresh);
                if g == fresh {
                    sizes.push(0);
                }
                sizes[g as usize] += 1;
                g
            })
            .collect();
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        bounds.push(0);
        for size in sizes {
            bounds.push(bounds[bounds.len() - 1] + size);
        }
        let mut fill = bounds.clone();
        let mut order = vec![0u32; log.len()];
        for (i, &g) in group.iter().enumerate() {
            order[fill[g as usize]] = i as u32;
            fill[g as usize] += 1;
        }
        Self { log, order, bounds }
    }

    /// `(disorder_fraction, (mean, max) ISI distortion)`: see
    /// [`disorder_fraction`] and [`isi_distortion`].
    fn order_metrics(&self) -> (f64, (f64, u64)) {
        let mut inversions = 0u64;
        let (mut isi_sum, mut isi_streams, mut isi_max) = (0u64, 0u64, 0u64);
        let mut runs: Vec<StepRun> = Vec::new();
        let mut slot_of: HashMap<u32, u32, BuildHasherDefault<NetHasher>> = HashMap::default();
        let mut streams: Vec<Stream> = Vec::new();
        let mut unordered: Vec<(u32, u64, u64)> = Vec::new();
        for g in self.bounds.windows(2) {
            let group = &self.order[g[0]..g[1]];
            runs.clear();
            slot_of.clear();
            streams.clear();
            // a stream's deliveries tend to come back to back
            let mut cached: Option<(u32, u32)> = None;
            for &i in group {
                let d = &self.log[i as usize];
                // disorder: one summary per run of equal steps
                let key = (d.inject_cycle, d.source_neuron);
                match runs.last_mut() {
                    Some(run) if run.step == d.send_step => run.fold(key, d.deliver_cycle),
                    _ => runs.push(StepRun {
                        step: d.send_step,
                        first: (key, d.deliver_cycle),
                        last: (key, d.deliver_cycle),
                    }),
                }
                // ISI: each stream's consecutive pair, while in order
                let slot = match cached {
                    Some((neuron, slot)) if neuron == d.source_neuron => slot,
                    _ => {
                        let fresh = streams.len() as u32;
                        let slot = *slot_of.entry(d.source_neuron).or_insert(fresh);
                        if slot == fresh {
                            streams.push(Stream {
                                last: (d.inject_cycle, d.deliver_cycle),
                                worst: 0,
                                spikes: 0,
                                in_order: true,
                            });
                        }
                        cached = Some((d.source_neuron, slot));
                        slot
                    }
                };
                let s = &mut streams[slot as usize];
                let now = (d.inject_cycle, d.deliver_cycle);
                if now < s.last {
                    s.in_order = false;
                } else if s.in_order {
                    s.worst = s.worst.max(isi_gap(s.last, now));
                }
                s.last = now;
                s.spikes += 1;
            }

            // a step the log split over several runs folds into one, in
            // log order (the sort is stable); then adjacent steps compare
            runs.sort_by_key(|run| run.step);
            runs.dedup_by(|later, kept| {
                if later.step != kept.step {
                    return false;
                }
                kept.fold(later.first.0, later.first.1);
                kept.fold(later.last.0, later.last.1);
                true
            });
            inversions += runs
                .windows(2)
                .filter(|w| w[0].last.1 > w[1].first.1)
                .count() as u64;

            // the streams that did not arrive in inject order, sorted
            if streams.iter().any(|s| !s.in_order) {
                unordered.clear();
                for &i in group {
                    let d = &self.log[i as usize];
                    let slot = slot_of[&d.source_neuron];
                    let s = &mut streams[slot as usize];
                    if !s.in_order {
                        s.worst = 0;
                        unordered.push((slot, d.inject_cycle, d.deliver_cycle));
                    }
                }
                unordered.sort_unstable();
                for w in unordered.windows(2) {
                    if w[0].0 == w[1].0 {
                        let s = &mut streams[w[0].0 as usize];
                        s.worst = s.worst.max(isi_gap((w[0].1, w[0].2), (w[1].1, w[1].2)));
                    }
                }
            }
            for s in streams.iter().filter(|s| s.spikes > 1) {
                isi_sum += s.worst;
                isi_streams += 1;
                isi_max = isi_max.max(s.worst);
            }
        }
        let disorder = if self.log.is_empty() {
            0.0
        } else {
            inversions as f64 / self.log.len() as f64
        };
        let isi_mean = if isi_streams == 0 {
            0.0
        } else {
            isi_sum as f64 / isi_streams as f64
        };
        (disorder, (isi_mean, isi_max))
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

    #[test]
    fn percentiles_nearest_rank() {
        let mut latencies: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentiles(&mut latencies), (50, 99));
        assert_eq!(percentiles(&mut []), (0, 0));
        assert_eq!(percentiles(&mut [7]), (7, 7));
        assert_eq!(percentiles(&mut [9, 3]), (3, 9));
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
