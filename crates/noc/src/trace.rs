//! Structured trace events for the interconnect simulators.
//!
//! When [`crate::config::NocConfig::trace`] is on, [`crate::sim::NocSim`]
//! records, under either [`crate::sim::EngineKind`], a
//! [`TraceBuf`] of typed [`TraceEvent`]s: packet injected / enqueued /
//! forwarded / delivered, per-lane occupancy changes, and
//! blocked-on-credit spans. Two invariants are load-bearing and gated by
//! tests:
//!
//! - **Zero-cost when off.** With `trace: false` (the default) no event
//!   is recorded, no buffer is allocated, and the engines' behaviour is
//!   bit-for-bit what it was before the trace layer existed: the golden
//!   vc=1 digests in `tests/noc_properties.rs` and the `BENCH_noc.json`
//!   speedup ratios are unaffected. Every emission site is behind an
//!   `Option` that is `None` when tracing is off.
//! - **Byte-identical when on.** The two engines emit the *same* event
//!   stream — [`TraceBuf::to_bytes`] equality — for the same workload,
//!   making the trace a third byte-identity surface alongside the stats
//!   digest and the delivery log. This holds because both engines process
//!   injections at exactly `inject_cycle`, drain arrivals in identical
//!   order, and forward in ascending (router, port) order per cycle; the
//!   trace simply serializes that shared canonical order. A proptest in
//!   `tests/noc_properties.rs` holds both engines to it across the
//!   differential corpus, including under input permutation.
//!
//! On top of the raw stream sit two consumers: a Chrome/Perfetto
//! trace-event JSON exporter ([`TraceBuf::to_perfetto_json`]) for visual
//! timeline inspection, and a congestion spotter
//! ([`TraceBuf::spot_congestion`]) that ranks (router, port, VC) lanes by
//! blocked-cycles and peak occupancy and names the top flows transiting
//! them — the observability half of the ROADMAP "NoC observability" item.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::config::NocConfig;

/// One structured simulator event.
///
/// `cycle` fields are simulator cycles; `lane` is the input-FIFO index on
/// the router (`0` is the VC-less local injection queue; lane
/// `1 + port * vc_count + vc` buffers traffic arriving on ingress
/// `port` / virtual channel `vc`). `spike_id` is the flow identity that
/// survives multicast splits, so one logical spike can appear in many
/// `Forwarded` / `Delivered` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet entered the network at its source router's injection queue.
    Injected {
        /// Cycle the packet was injected.
        cycle: u64,
        /// Flow identity (stable across multicast splits).
        spike_id: u64,
        /// Source neuron within the source crossbar.
        source_neuron: u32,
        /// Source crossbar.
        src_crossbar: u32,
        /// Router hosting the source crossbar.
        router: u32,
    },
    /// A packet was pushed onto an input FIFO (injection or hop arrival).
    Enqueued {
        /// Cycle of the push.
        cycle: u64,
        /// Flow identity.
        spike_id: u64,
        /// Router owning the FIFO.
        router: u32,
        /// Input-FIFO index.
        lane: u32,
        /// Queue occupancy *after* the push.
        occupancy: u32,
    },
    /// A packet (or multicast branch) won arbitration and left on a port.
    Forwarded {
        /// Cycle the head flit left.
        cycle: u64,
        /// Flow identity.
        spike_id: u64,
        /// Router that forwarded.
        router: u32,
        /// Output port index (position in `Topology::neighbors`).
        port: u32,
        /// Virtual channel the packet travels on downstream.
        vc: u32,
        /// Destination count carried by this branch.
        dests: u32,
    },
    /// A packet was popped from an input FIFO (whole-packet forward).
    Dequeued {
        /// Cycle of the pop.
        cycle: u64,
        /// Router owning the FIFO.
        router: u32,
        /// Input-FIFO index.
        lane: u32,
        /// Queue occupancy *after* the pop.
        occupancy: u32,
    },
    /// A packet reached a destination crossbar.
    Delivered {
        /// Delivery cycle.
        cycle: u64,
        /// Flow identity.
        spike_id: u64,
        /// Router hosting the destination crossbar.
        router: u32,
        /// Destination crossbar.
        dst_crossbar: u32,
    },
    /// A downstream lane's credits were exhausted for a span of cycles.
    ///
    /// Emitted once per span, when the lane transitions back from full to
    /// having a free slot (`from_cycle` = cycle it filled, `until_cycle` =
    /// cycle a credit freed). Lane 0 (local injection, unbounded) never
    /// blocks.
    BlockedOnCredit {
        /// Cycle the lane became full.
        from_cycle: u64,
        /// Cycle a slot freed up again.
        until_cycle: u64,
        /// Router owning the full lane.
        router: u32,
        /// Input-FIFO index that was full.
        lane: u32,
    },
}

impl TraceEvent {
    /// Canonical little-endian encoding: a tag byte followed by the
    /// event's fields in declaration order. Used for the byte-identity
    /// comparison between engines.
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TraceEvent::Injected {
                cycle,
                spike_id,
                source_neuron,
                src_crossbar,
                router,
            } => {
                out.push(0);
                out.extend_from_slice(&cycle.to_le_bytes());
                out.extend_from_slice(&spike_id.to_le_bytes());
                out.extend_from_slice(&source_neuron.to_le_bytes());
                out.extend_from_slice(&src_crossbar.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
            }
            TraceEvent::Enqueued {
                cycle,
                spike_id,
                router,
                lane,
                occupancy,
            } => {
                out.push(1);
                out.extend_from_slice(&cycle.to_le_bytes());
                out.extend_from_slice(&spike_id.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
                out.extend_from_slice(&lane.to_le_bytes());
                out.extend_from_slice(&occupancy.to_le_bytes());
            }
            TraceEvent::Forwarded {
                cycle,
                spike_id,
                router,
                port,
                vc,
                dests,
            } => {
                out.push(2);
                out.extend_from_slice(&cycle.to_le_bytes());
                out.extend_from_slice(&spike_id.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
                out.extend_from_slice(&port.to_le_bytes());
                out.extend_from_slice(&vc.to_le_bytes());
                out.extend_from_slice(&dests.to_le_bytes());
            }
            TraceEvent::Dequeued {
                cycle,
                router,
                lane,
                occupancy,
            } => {
                out.push(3);
                out.extend_from_slice(&cycle.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
                out.extend_from_slice(&lane.to_le_bytes());
                out.extend_from_slice(&occupancy.to_le_bytes());
            }
            TraceEvent::Delivered {
                cycle,
                spike_id,
                router,
                dst_crossbar,
            } => {
                out.push(4);
                out.extend_from_slice(&cycle.to_le_bytes());
                out.extend_from_slice(&spike_id.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
                out.extend_from_slice(&dst_crossbar.to_le_bytes());
            }
            TraceEvent::BlockedOnCredit {
                from_cycle,
                until_cycle,
                router,
                lane,
            } => {
                out.push(5);
                out.extend_from_slice(&from_cycle.to_le_bytes());
                out.extend_from_slice(&until_cycle.to_le_bytes());
                out.extend_from_slice(&router.to_le_bytes());
                out.extend_from_slice(&lane.to_le_bytes());
            }
        }
    }
}

/// Event sink filled by an engine run with [`crate::config::NocConfig::trace`] on.
///
/// Obtained via `NocSim::take_trace` after a successful run. Holds the raw stream plus enough configuration
/// (`vc_count`, serialization cycles) to decode lanes and render spans.
#[derive(Debug, Clone)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    vc_count: u32,
    ser_cycles: u64,
    /// Open credit-full spans, keyed by (router, lane). Keyed access
    /// only — never iterated — so the HashMap cannot leak nondeterminism
    /// into the event stream.
    full_since: HashMap<(u32, u32), u64>,
}

impl TraceBuf {
    /// Empty buffer for a run under `cfg`.
    pub fn new(cfg: &NocConfig) -> Self {
        TraceBuf {
            events: Vec::new(),
            vc_count: cfg.vc_count as u32,
            ser_cycles: cfg.serialization_cycles(),
            full_since: HashMap::new(),
        }
    }

    /// Record one event.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// A lane just ran out of credits: open a blocked span.
    #[inline]
    pub fn credit_full(&mut self, cycle: u64, router: u32, lane: u32) {
        self.full_since.entry((router, lane)).or_insert(cycle);
    }

    /// A credit freed on a previously-full lane: close the span and emit
    /// the [`TraceEvent::BlockedOnCredit`] record. No-op if the lane had
    /// no open span.
    #[inline]
    pub fn credit_freed(&mut self, cycle: u64, router: u32, lane: u32) {
        if let Some(from_cycle) = self.full_since.remove(&(router, lane)) {
            self.events.push(TraceEvent::BlockedOnCredit {
                from_cycle,
                until_cycle: cycle,
                router,
                lane,
            });
        }
    }

    /// The recorded stream, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Virtual channels per port in the traced run.
    pub fn vc_count(&self) -> u32 {
        self.vc_count
    }

    /// Decode a lane index into (port, vc), or `None` for the local
    /// injection lane 0.
    pub fn lane_to_port_vc(&self, lane: u32) -> Option<(u32, u32)> {
        if lane == 0 {
            return None;
        }
        let l = lane - 1;
        Some((l / self.vc_count, l % self.vc_count))
    }

    /// Canonical byte encoding of the stream — the cross-engine identity
    /// surface. Two runs traced the same iff their `to_bytes` are equal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 32);
        for ev in &self.events {
            ev.encode(&mut out);
        }
        out
    }

    /// Render the stream as Chrome/Perfetto trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in `ui.perfetto.dev` or
    /// `chrome://tracing`. Routers become processes; forwards render as
    /// duration slices (one per output port track), occupancy as counter
    /// tracks per lane, blocked spans as slices on the blocked lane's
    /// track, injections/deliveries as instants.
    pub fn to_perfetto_json(&self) -> String {
        let mut routers = BTreeSet::new();
        for ev in &self.events {
            routers.insert(match *ev {
                TraceEvent::Injected { router, .. }
                | TraceEvent::Enqueued { router, .. }
                | TraceEvent::Forwarded { router, .. }
                | TraceEvent::Dequeued { router, .. }
                | TraceEvent::Delivered { router, .. }
                | TraceEvent::BlockedOnCredit { router, .. } => router,
            });
        }
        let mut parts: Vec<String> = Vec::with_capacity(self.events.len() + routers.len());
        for r in &routers {
            parts.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{r},\"args\":{{\"name\":\"router {r}\"}}}}"
            ));
        }
        for ev in &self.events {
            parts.push(match *ev {
                TraceEvent::Injected {
                    cycle,
                    spike_id,
                    source_neuron,
                    src_crossbar,
                    router,
                } => format!(
                    "{{\"ph\":\"i\",\"name\":\"inject spike {spike_id}\",\"ts\":{cycle},\"pid\":{router},\"tid\":0,\"s\":\"t\",\"args\":{{\"source_neuron\":{source_neuron},\"src_crossbar\":{src_crossbar}}}}}"
                ),
                TraceEvent::Enqueued {
                    cycle,
                    spike_id,
                    router,
                    lane,
                    occupancy,
                } => format!(
                    "{{\"ph\":\"C\",\"name\":\"lane {lane} occupancy\",\"ts\":{cycle},\"pid\":{router},\"args\":{{\"occupancy\":{occupancy},\"spike_id\":{spike_id}}}}}"
                ),
                TraceEvent::Forwarded {
                    cycle,
                    spike_id,
                    router,
                    port,
                    vc,
                    dests,
                } => format!(
                    "{{\"ph\":\"X\",\"name\":\"spike {spike_id} vc{vc}\",\"ts\":{cycle},\"dur\":{},\"pid\":{router},\"tid\":{},\"args\":{{\"port\":{port},\"vc\":{vc},\"dests\":{dests}}}}}",
                    self.ser_cycles,
                    port + 1
                ),
                TraceEvent::Dequeued {
                    cycle,
                    router,
                    lane,
                    occupancy,
                } => format!(
                    "{{\"ph\":\"C\",\"name\":\"lane {lane} occupancy\",\"ts\":{cycle},\"pid\":{router},\"args\":{{\"occupancy\":{occupancy}}}}}"
                ),
                TraceEvent::Delivered {
                    cycle,
                    spike_id,
                    router,
                    dst_crossbar,
                } => format!(
                    "{{\"ph\":\"i\",\"name\":\"deliver spike {spike_id}\",\"ts\":{cycle},\"pid\":{router},\"tid\":0,\"s\":\"t\",\"args\":{{\"dst_crossbar\":{dst_crossbar}}}}}"
                ),
                TraceEvent::BlockedOnCredit {
                    from_cycle,
                    until_cycle,
                    router,
                    lane,
                } => format!(
                    "{{\"ph\":\"X\",\"name\":\"lane {lane} blocked\",\"ts\":{from_cycle},\"dur\":{},\"pid\":{router},\"tid\":{},\"args\":{{\"lane\":{lane}}}}}",
                    until_cycle - from_cycle,
                    100 + lane
                ),
            });
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", parts.join(",\n"))
    }

    /// Rank the hottest (router, port, VC) lanes by blocked-cycles then
    /// peak occupancy, naming the top flows transiting each. `top_lanes`
    /// / `top_flows` bound the report size.
    pub fn spot_congestion(&self, top_lanes: usize, top_flows: usize) -> SpotterReport {
        struct LaneAcc {
            blocked_cycles: u64,
            blocked_spans: u32,
            peak_occupancy: u32,
            enqueues: u64,
            flows: HashMap<u64, u64>,
        }
        fn acc(lanes: &mut HashMap<(u32, u32), LaneAcc>, key: (u32, u32)) -> &mut LaneAcc {
            lanes.entry(key).or_insert(LaneAcc {
                blocked_cycles: 0,
                blocked_spans: 0,
                peak_occupancy: 0,
                enqueues: 0,
                flows: HashMap::new(),
            })
        }
        // spike_id -> (source_neuron, src_crossbar)
        let mut origin: HashMap<u64, (u32, u32)> = HashMap::new();
        let mut lanes: HashMap<(u32, u32), LaneAcc> = HashMap::new();
        for ev in &self.events {
            match *ev {
                TraceEvent::Injected {
                    spike_id,
                    source_neuron,
                    src_crossbar,
                    ..
                } => {
                    origin
                        .entry(spike_id)
                        .or_insert((source_neuron, src_crossbar));
                }
                TraceEvent::Enqueued {
                    spike_id,
                    router,
                    lane,
                    occupancy,
                    ..
                } if lane > 0 => {
                    let a = acc(&mut lanes, (router, lane));
                    a.enqueues += 1;
                    a.peak_occupancy = a.peak_occupancy.max(occupancy);
                    *a.flows.entry(spike_id).or_insert(0) += 1;
                }
                TraceEvent::BlockedOnCredit {
                    from_cycle,
                    until_cycle,
                    router,
                    lane,
                } => {
                    let a = acc(&mut lanes, (router, lane));
                    a.blocked_cycles += until_cycle - from_cycle;
                    a.blocked_spans += 1;
                }
                _ => {}
            }
        }
        let mut ranked: Vec<((u32, u32), LaneAcc)> = lanes.into_iter().collect();
        ranked.sort_by(|((ra, la), a), ((rb, lb), b)| {
            b.blocked_cycles
                .cmp(&a.blocked_cycles)
                .then(b.peak_occupancy.cmp(&a.peak_occupancy))
                .then(ra.cmp(rb))
                .then(la.cmp(lb))
        });
        ranked.truncate(top_lanes);
        let hotspots = ranked
            .into_iter()
            .map(|((router, lane), a)| {
                let (port, vc) = self
                    .lane_to_port_vc(lane)
                    .expect("spotter only accumulates lanes > 0");
                let mut flows: Vec<(u64, u64)> = a.flows.into_iter().collect();
                flows.sort_by(|(ida, na), (idb, nb)| nb.cmp(na).then(ida.cmp(idb)));
                flows.truncate(top_flows);
                let top_flows = flows
                    .into_iter()
                    .map(|(spike_id, packets)| {
                        let (source_neuron, src_crossbar) =
                            origin.get(&spike_id).copied().unwrap_or((0, 0));
                        FlowShare {
                            spike_id,
                            source_neuron,
                            src_crossbar,
                            packets,
                        }
                    })
                    .collect();
                LaneHotspot {
                    router,
                    port,
                    vc,
                    lane,
                    blocked_cycles: a.blocked_cycles,
                    blocked_spans: a.blocked_spans,
                    peak_occupancy: a.peak_occupancy,
                    enqueues: a.enqueues,
                    top_flows,
                }
            })
            .collect();
        SpotterReport { lanes: hotspots }
    }
}

/// Congestion ranking produced by [`TraceBuf::spot_congestion`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpotterReport {
    /// Hottest lanes, most-blocked first.
    pub lanes: Vec<LaneHotspot>,
}

/// One ranked (router, port, VC) lane in a [`SpotterReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneHotspot {
    /// Router owning the lane.
    pub router: u32,
    /// Ingress port the lane buffers.
    pub port: u32,
    /// Virtual channel within the port.
    pub vc: u32,
    /// Raw input-FIFO index (`1 + port * vc_count + vc`).
    pub lane: u32,
    /// Total cycles the lane spent with zero free credits.
    pub blocked_cycles: u64,
    /// Number of distinct full spans.
    pub blocked_spans: u32,
    /// Highest observed queue occupancy.
    pub peak_occupancy: u32,
    /// Packets pushed onto the lane over the run.
    pub enqueues: u64,
    /// Flows most often transiting the lane, busiest first.
    pub top_flows: Vec<FlowShare>,
}

/// One flow's share of a hotspot lane's traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowShare {
    /// Flow identity (stable across multicast splits).
    pub spike_id: u64,
    /// Source neuron of the flow.
    pub source_neuron: u32,
    /// Source crossbar of the flow.
    pub src_crossbar: u32,
    /// Packets of this flow that crossed the lane.
    pub packets: u64,
}

impl fmt::Display for SpotterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes.is_empty() {
            return writeln!(f, "spotter: no contended lanes");
        }
        for h in &self.lanes {
            writeln!(
                f,
                "router {:>3} port {} vc {}: blocked {} cycles over {} spans, peak occupancy {}, {} enqueues",
                h.router, h.port, h.vc, h.blocked_cycles, h.blocked_spans, h.peak_occupancy, h.enqueues
            )?;
            for fl in &h.top_flows {
                writeln!(
                    f,
                    "    flow spike {} (neuron {} @ crossbar {}): {} packets",
                    fl.spike_id, fl.source_neuron, fl.src_crossbar, fl.packets
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> TraceBuf {
        TraceBuf::new(&NocConfig {
            vc_count: 2,
            ..NocConfig::default()
        })
    }

    #[test]
    fn byte_encoding_distinguishes_events() {
        let mut a = buf();
        let mut b = buf();
        a.push(TraceEvent::Enqueued {
            cycle: 1,
            spike_id: 7,
            router: 0,
            lane: 1,
            occupancy: 1,
        });
        b.push(TraceEvent::Enqueued {
            cycle: 1,
            spike_id: 7,
            router: 0,
            lane: 2,
            occupancy: 1,
        });
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.to_bytes(), a.clone().to_bytes());
    }

    #[test]
    fn credit_spans_pair_up() {
        let mut t = buf();
        t.credit_full(10, 3, 1);
        t.credit_full(12, 3, 1); // already full: span start unchanged
        t.credit_freed(15, 3, 1);
        t.credit_freed(16, 3, 1); // no open span: no-op
        assert_eq!(
            t.events(),
            &[TraceEvent::BlockedOnCredit {
                from_cycle: 10,
                until_cycle: 15,
                router: 3,
                lane: 1
            }]
        );
    }

    #[test]
    fn lane_decode_round_trips() {
        let t = buf();
        assert_eq!(t.lane_to_port_vc(0), None);
        assert_eq!(t.lane_to_port_vc(1), Some((0, 0)));
        assert_eq!(t.lane_to_port_vc(2), Some((0, 1)));
        assert_eq!(t.lane_to_port_vc(3), Some((1, 0)));
    }

    #[test]
    fn spotter_ranks_by_blocked_then_occupancy() {
        let mut t = buf();
        t.push(TraceEvent::Injected {
            cycle: 0,
            spike_id: 9,
            source_neuron: 4,
            src_crossbar: 2,
            router: 0,
        });
        for (router, lane, occ) in [(0u32, 1u32, 3u32), (1, 1, 2), (1, 1, 4)] {
            t.push(TraceEvent::Enqueued {
                cycle: 1,
                spike_id: 9,
                router,
                lane,
                occupancy: occ,
            });
        }
        t.credit_full(5, 1, 1);
        t.credit_freed(9, 1, 1);
        let report = t.spot_congestion(8, 4);
        assert_eq!(report.lanes.len(), 2);
        // router 1 lane 1 blocked 4 cycles — outranks router 0's never-blocked lane
        assert_eq!(report.lanes[0].router, 1);
        assert_eq!(report.lanes[0].blocked_cycles, 4);
        assert_eq!(report.lanes[0].peak_occupancy, 4);
        assert_eq!(report.lanes[0].enqueues, 2);
        assert_eq!(report.lanes[0].top_flows.len(), 1);
        assert_eq!(report.lanes[0].top_flows[0].spike_id, 9);
        assert_eq!(report.lanes[0].top_flows[0].src_crossbar, 2);
        assert_eq!(report.lanes[1].router, 0);
        let display = report.to_string();
        assert!(display.contains("router   1 port 0 vc 0"), "{display}");
    }

    #[test]
    fn perfetto_json_names_routers_and_slices() {
        let mut t = buf();
        t.push(TraceEvent::Forwarded {
            cycle: 3,
            spike_id: 1,
            router: 2,
            port: 1,
            vc: 0,
            dests: 1,
        });
        let json = t.to_perfetto_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"router 2\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }
}
