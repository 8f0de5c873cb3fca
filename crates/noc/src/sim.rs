//! The interconnect simulator: one router model, two schedulers.
//!
//! The timing model is written once, in `simulate` — input-buffered
//! routers with per-ingress virtual-channel FIFOs, credit-based
//! backpressure per `(ingress, VC)` lane, per-output round-robin
//! arbitration (over the port's VCs, then over the lanes wanting the
//! chosen slot), link serialization by packet size, one packet per
//! sending flow, deterministic routing and VC assignment from the
//! [`crate::topology::Topology`], and multicast branch splitting by
//! `(egress port, VC)`. What it leaves open — which `(router, port)`
//! pairs a cycle examines, what a lane head wants, which cycle comes next
//! — is a `Sched` policy (`crate::sched`), and each engine is that one
//! loop under one policy; [`NocSim`] runs whichever its [`EngineKind`]
//! names:
//!
//! * [`EngineKind::EventDriven`] — the production engine, `simulate`
//!   under `PortSched`. Wakes are tracked at **(router, output-port)
//!   pair** granularity: the arrival queue plus the injection cursor
//!   decide *which cycles* run, and within an attended cycle a
//!   deduplicated ready-set of pair ids decides *which ports* are
//!   examined — a port is visited only when something that could enable
//!   it changed. Runtime scales with the number of events (injections,
//!   hops, head changes, credit releases), not with simulated cycles ×
//!   routers × ports — which is what keeps dense saturated bursts fast,
//!   not just sparse spike traffic.
//! * [`EngineKind::CycleOracle`] — the **cycle-driven reference**,
//!   `simulate` under `oracle`'s `Sweep`: every pair, every cycle, every
//!   want asked of the topology afresh. Slow but simple enough to audit;
//!   the differential test suite (`tests/noc_properties.rs`) holds the
//!   event engine to byte-identical [`NocStats`] and delivery logs
//!   against it.
//!
//! So the differential suite compares the two policies: the visit set and
//! the clock jumps, and the head wants (the forwarding plan's branches and
//! incrementally maintained masks against a from-scratch topology walk).
//! The mechanics the loop spells once — credit arithmetic, cursors, VC
//! pick, split, per-VC counters, trace order — are pinned by the golden
//! digests, trace hashes and delivery-log hashes in
//! `tests/noc_properties.rs`, the golden trace, and the in-loop debug
//! assertions.
//!
//! # The packet model: nets, a plan, handles
//!
//! The loop never asks a routing question. Before it starts, `Setup`
//! interns the flow set's **nets** — `(source crossbar, destination
//! crossbars)`, each sending flow being one packet of its net — and
//! builds one forwarding **plan** for all of them
//! (`crate::plan`): per net, a tree of *nodes*, a node being "a packet of
//! this net arriving at this router" = the crossbars delivered there, in
//! the flow's order, plus one *branch* per `(egress port, VC)` slot the
//! rest leaves by. The route (unicast, or the net's multicast tree) is
//! asked once per (node, destination), whatever the number of spikes.
//!
//! The injection schedule is streamed (`Schedule`): the loop takes each
//! cycle's packets as they come due, in the canonical slot order, and no
//! table of the packets sent is ever built. A packet is then a 32-byte
//! *handle* `{ inject_cycle, spike, flow, node, next, sib, bit }`: what
//! the loop reads of it (the spike id it is traced under, its inject
//! cycle, and its flow's index for the neuron, source and step), and
//! `node`, the plan node it arrives at next. Arriving, it delivers the
//! node's local crossbars and — if the node has branches — queues as the
//! **chain** (through `sib`) of one handle per branch, the first reusing
//! the arriving handle; a FIFO lane is an intrusive list of chains
//! through their first members' `next`. What a lane head wants is its
//! chain's slots; forwarding by a slot detaches that member and sends it
//! on as it is (when the first member leaves and others remain, the lane
//! link moves to the next); the lane pops when the chain's last member
//! leaves. No packet is ever constructed, copied or searched inside the
//! loop. A handle is allocated at injection and per extra branch, and
//! released when its copy's last destination is delivered, so the slab
//! holds the packets in flight, not the packets sent (at most 6 949
//! handles for the 887 008 packets of mapbench's `hd_tree_paper`). Over a
//! run the allocations are a per-net sum over the packets; a debug
//! assertion checks that, and that every handle came back.
//!
//! None of this moves a transition of the router model: heads, wants,
//! splits, pops and credits change at the same events, in the same order,
//! as when every packet carried its own destination vector and asked the
//! route per destination per hop — which is why the wake invariant below
//! needed no new case, and why every digest, trace hash and delivery log
//! recorded under that model still holds.
//!
//! # The per-port wake invariant, and why the outputs are identical
//!
//! Under `Sweep`, output port `o` of router `r` forwards at cycle `t`
//! exactly when, at `r`'s position in the cycle-`t` sweep, three
//! conditions meet: the port is **idle** (`busy_until[o] <= t`), some
//! FIFO head at `r` **wants** an `(o, w)` slot, and the downstream
//! `(ingress, w)` lane has a **free credit**. Both policies give every
//! pair the dense id `port_base[r] + o`, so ascending pair id *is* the
//! sweep order, and `PortSched` maintains:
//!
//! > every transition that can switch a pair's three-way conjunction from
//! > false to true schedules a wake for exactly that pair, at exactly the
//! > first cycle and sweep position at which the sweep could act on it.
//!
//! Case by case: **busy → idle** — every forward schedules the pair's own
//! busy expiry at `now + flits`; **want 0 → 1** — a packet becoming a
//! lane head (arrival or injection into an empty lane, or a pop exposing
//! the next packet) installs its route mask and wakes each newly wanted
//! pair; **credit full → free** — a pair that examines a wanted-but-full
//! `(o, w)` sets a *blocked* bit (the wanted-port reverse index), and the
//! full→free transition on that downstream lane (arrival fully delivered,
//! or the downstream head popped) clears the bit and wakes only the
//! blocked upstream pair. The blocked bit cannot go stale: while the
//! credit is full the wanting head cannot leave through `(o, w)`, so the
//! want count stays positive until the very transition that clears the
//! bit. A woken pair that turns out busy is covered by its expiry; one
//! that finds a full credit re-arms its blocked bit — so the invariant is
//! self-sustaining.
//!
//! In-cycle ordering matches the sweep because wakes are position-aware:
//! a wake raised while the loop is at pair `P` targets pair `q > P` in
//! *this* cycle's ready set (the sweep's later positions see in-cycle
//! changes), targets `q < P` at `now + 1` (the sweep re-sees it next
//! cycle), and skips `q == P` (that pair just forwarded; its busy expiry
//! re-examines it). Ready-set pops are therefore strictly ascending
//! within a cycle — the sweep order — and a membership bitset dedups
//! wakes so saturated drains cannot grow the queues past the pair count.
//! Pairs never woken are provable no-ops, skipped cycles change no state,
//! and both policies drive the loop through the same state trajectory —
//! bit-for-bit, including round-robin cursors, credit occupancy, and the
//! per-VC counters.
//!
//! Virtual channels do not weaken the argument: the added state (per-VC
//! credits, per-port VC cursors, per-VC statistics) also only changes at
//! forwards and arrivals, both of which schedule wakes, and the VC
//! assignment is a pure function of `(router, destination)` — nothing
//! time-dependent enters the arbitration beyond what already did.

use crate::config::NocConfig;
use crate::error::NocError;
use crate::plan::{Handle, LastKey, Nets, Plan, Slab, NIL};
use crate::router::{pick_lane, pick_vc};
use crate::sched::{PortSched, Sched, PRE_SWEEP};
use crate::stats::{Counters, Delivery, NocStats, SchedCounters, SimTrace, VcCounters};
use crate::topology::Topology;
use crate::trace::{TraceBuf, TraceEvent};
use crate::traffic::SpikeFlow;
use neuromap_hw::energy::EnergyModel;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

pub(crate) mod oracle;

/// Selects which scheduling policy a [`NocSim`] runs the router model
/// under ([`NocSim::with_engine`]).
///
/// The engines are output-identical; the choice only trades speed
/// ([`EngineKind::EventDriven`]) against auditability
/// ([`EngineKind::CycleOracle`], useful for cross-checking and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EngineKind {
    /// The event-driven production engine (per-port wake scheduling).
    #[default]
    EventDriven,
    /// The cycle-driven reference oracle (every port, every cycle).
    CycleOracle,
}

/// A packet in transit on a link, due to arrive at a router: the id of
/// its [`Handle`] and where it lands.
struct Arrival {
    cycle: u64,
    router: usize,
    /// FIFO *lane* on the receiving router ([`lane`]:
    /// `1 + ingress_port * vc_count + vc`). The lane identifies both
    /// which per-VC FIFO the packet enters and which credit it holds.
    ingress: usize,
    pid: u32,
}

/// FIFO-lane index of `(ingress port position, virtual channel)`; lane 0
/// is the VC-less local-injection queue. With one VC this is the classic
/// `1 + position` ingress index, so the layout (and therefore every
/// cursor and credit index) is bit-compatible with the pre-VC engines.
fn lane(position: usize, vc: usize, vc_count: usize) -> usize {
    1 + position * vc_count + vc
}

/// SNN duration implied by a flow set: one step past the last send step.
fn inferred_duration(flows: &[SpikeFlow]) -> u32 {
    flows
        .iter()
        .map(|f| f.send_step.saturating_add(1))
        .max()
        .unwrap_or(1)
}

/// Rejects flows naming crossbars the topology does not serve.
fn validate_flows(topo: &dyn Topology, flows: &[SpikeFlow]) -> Result<(), NocError> {
    let nc = topo.num_crossbars();
    for f in flows {
        let all = f
            .dst_crossbars
            .iter()
            .chain(std::iter::once(&f.src_crossbar));
        for &c in all {
            if c as usize >= nc {
                return Err(NocError::UnknownCrossbar {
                    crossbar: c,
                    available: nc,
                });
            }
        }
    }
    Ok(())
}

/// One packet of the injection schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Injection {
    /// Id of the originating spike event in canonical flow order (used
    /// for tracing).
    spike: u32,
    /// Position of the packet's flow in the run's flow list.
    flow: u32,
    /// The packet's net ([`Nets`]).
    net: u32,
    /// Cycle the packet enters the network (after AER encoding).
    inject_cycle: u64,
}

/// A maximal run of consecutive flows equal in `(step, src, neuron)` that
/// sends at least one packet.
struct Group {
    /// `(step, src)` packed into one word.
    step_src: u64,
    /// `(neuron, first flow)` packed into one word.
    neuron_first: u64,
    /// One past the group's last flow.
    end: u32,
    /// Canonical position of the group's first sending flow (its count of
    /// sending flows until the groups are sorted).
    base: u32,
}

/// The flows of one `(step, src)` that inject one packet a cycle from the
/// step's first cycle, walked one `(step, src, neuron)` block at a time.
struct Run<'f> {
    /// Join order: runs join in `(step, src)` order.
    seq: usize,
    /// The run's groups not yet walked: `groups[next..end]`.
    next: usize,
    end: usize,
    /// The current block's sending flows in canonical order; `block[at]`
    /// injects next. Empty once the run is spent.
    block: Vec<u32>,
    at: usize,
    /// Canonical position of `block[at]`.
    spike: u32,
    last: LastKey<'f>,
}

impl Run<'_> {
    fn flow(&self) -> usize {
        self.block[self.at] as usize
    }
}

/// The injection schedule, streamed: canonical AER-encoder order, one
/// packet per sending flow and per crossbar per cycle, handed to the
/// router loop as it comes due. Shared by both engines, so the schedules
/// they simulate are one and the same.
///
/// The canonical order is `traffic::sort_canonical`'s — step, source
/// crossbar, neuron, destination set — with the input position as the
/// last tiebreak. A spike's packet injects at `step × cycles_per_step +
/// r`, `r` counting the packets its crossbar sent earlier in the step,
/// and the stream yields them in *slot order*: by inject cycle, then
/// source crossbar, then neuron, then canonical position (a crossbar
/// overloading its step window shares cycles with its own next step,
/// where the neuron decides).
///
/// Nothing is held per packet or per flow sent: one entry per [`Group`]
/// (under the mapper's traffic, one per spike), and per active run the
/// order of its current `(step, src, neuron)` block.
pub(crate) struct Schedule<'n, 'f> {
    flows: &'f [SpikeFlow],
    nets: &'n Nets<'f>,
    cycles_per_step: u64,
    /// Sending groups in canonical order.
    groups: Vec<Group>,
    /// The first group of the next run to join.
    joined: usize,
    /// Runs injecting at `cycle`, in slot order; `active[at]` is next.
    active: Vec<Run<'f>>,
    at: usize,
    cycle: u64,
}

impl<'n, 'f> Schedule<'n, 'f> {
    /// Orders the groups of `flows`; no packet is placed yet.
    pub(crate) fn new(config: &NocConfig, flows: &'f [SpikeFlow], nets: &'n Nets<'f>) -> Self {
        // Generators emit a spike's flows back to back (per-synapse
        // traffic: one per remote synapse, 219 a spike on mapbench's
        // `hd_tree_paper`), so the sort runs over maximal runs of
        // consecutive flows equal in `(step, src, neuron)`, each keyed by
        // its packed `(step, src)` and `(neuron, first flow)` words.
        let mut groups: Vec<Group> = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            let step_src = (u64::from(f.send_step) << 32) | u64::from(f.src_crossbar);
            match groups.last_mut() {
                Some(g)
                    if g.step_src == step_src
                        && g.neuron_first >> 32 == u64::from(f.source_neuron) =>
                {
                    g.end = i as u32 + 1;
                }
                _ => groups.push(Group {
                    step_src,
                    neuron_first: (u64::from(f.source_neuron) << 32) | i as u64,
                    end: i as u32 + 1,
                    base: 0,
                }),
            }
            if !f.dst_crossbars.is_empty() {
                groups.last_mut().expect("pushed above").base += 1;
            }
        }
        groups.retain(|g| g.base > 0);
        groups.sort_unstable_by_key(|g| (g.step_src, g.neuron_first));
        let mut base = 0;
        for g in &mut groups {
            (g.base, base) = (base, base + g.base);
        }
        let mut schedule = Schedule {
            flows,
            nets,
            cycles_per_step: config.cycles_per_step,
            groups,
            joined: 0,
            active: Vec::new(),
            at: 0,
            cycle: 0,
        };
        schedule.next_cycle_batch();
        schedule
    }

    /// Cycle of the next packet ([`u64::MAX`] once every packet is out).
    pub(crate) fn next_cycle(&self) -> u64 {
        if self.at < self.active.len() {
            self.cycle
        } else {
            u64::MAX
        }
    }

    /// The next packet, if it injects at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<Injection> {
        if self.next_cycle() > now {
            return None;
        }
        let run = &mut self.active[self.at];
        let fi = run.flow();
        let f = &self.flows[fi];
        let packet = Injection {
            spike: run.spike,
            flow: fi as u32,
            net: self
                .nets
                .of(f, &mut run.last)
                .expect("a sending flow has a net"),
            inject_cycle: self.cycle,
        };
        run.spike += 1;
        run.at += 1;
        if run.at == run.block.len() {
            load_block(self.flows, &self.groups, run);
        }
        self.at += 1;
        if self.at == self.active.len() {
            self.next_cycle_batch();
        }
        Some(packet)
    }

    /// The merge, a cycle at a time: a run injects one packet a cycle
    /// from its first cycle until it is spent, so a cycle's packets are
    /// one from each active run, in slot order among them (the join order
    /// stands in for the canonical position: it orders the same way).
    /// Runs are in `(step, src)` order, so they join in order of their
    /// first cycle.
    fn next_cycle_batch(&mut self) {
        self.active.retain(|run| run.at < run.block.len());
        if self.active.is_empty() {
            let Some(g) = self.groups.get(self.joined) else {
                self.at = 0;
                return;
            };
            self.cycle = (g.step_src >> 32) * self.cycles_per_step;
        } else {
            self.cycle += 1;
        }
        while let Some(g) = self.groups.get(self.joined) {
            if (g.step_src >> 32) * self.cycles_per_step != self.cycle {
                break;
            }
            let same = self.groups[self.joined..]
                .iter()
                .take_while(|h| h.step_src == g.step_src)
                .count();
            let mut run = Run {
                seq: self.joined,
                next: self.joined,
                end: self.joined + same,
                block: Vec::new(),
                at: 0,
                spike: 0,
                last: LastKey::default(),
            };
            load_block(self.flows, &self.groups, &mut run);
            self.active.push(run);
            self.joined += same;
        }
        let flows = self.flows;
        self.active.sort_unstable_by_key(|run| {
            let f = &flows[run.flow()];
            (f.src_crossbar, f.source_neuron, run.seq)
        });
        self.at = 0;
    }
}

/// Moves `run` on to its next `(step, src, neuron)` block, or leaves it
/// spent (`block` empty) when it has none: equal keys in flow order,
/// then stably by destination set.
fn load_block(flows: &[SpikeFlow], groups: &[Group], run: &mut Run<'_>) {
    run.block.clear();
    run.at = 0;
    let Some(g) = groups[..run.end].get(run.next) else {
        return;
    };
    let block = groups[run.next..run.end]
        .iter()
        .take_while(|h| h.neuron_first >> 32 == g.neuron_first >> 32);
    for h in block {
        let first = (h.neuron_first & 0xffff_ffff) as usize;
        let sends = (first..h.end as usize).filter(|&i| !flows[i].dst_crossbars.is_empty());
        run.block.extend(sends.map(|i| i as u32));
        run.next += 1;
    }
    run.spike = g.base;
    // stable, so ties equal in dest set too keep their flow order
    // (byte-equal flows — they inject identically either way)
    run.block.sort_by(|&a, &b| {
        flows[a as usize]
            .dst_crossbars
            .cmp(&flows[b as usize].dst_crossbars)
    });
}

/// One FIFO lane: an intrusive list of queued packets (chains) through
/// their first members' `next` links.
#[derive(Clone, Copy)]
struct Lane {
    /// First member of the chain at the head ([`NIL`] when empty).
    head: u32,
    /// First member of the chain at the tail (stale when empty).
    tail: u32,
    /// Packets queued.
    len: u32,
}

/// Per-router runtime state.
struct RouterState {
    /// Input FIFO lanes: lane 0 = local injection, then one lane per
    /// `(ingress port, VC)` pair in [`lane`] order.
    lanes: Vec<Lane>,
    /// Arbitration cursor per `(output port, VC)`:
    /// `rr_cursor[o * vc_count + vc]`, over FIFO-lane indices.
    rr_cursor: Vec<usize>,
    /// Round-robin cursor over VCs, per output port.
    vc_cursor: Vec<usize>,
    /// Output port busy (serializing) until this cycle (exclusive).
    busy_until: Vec<u64>,
    /// Credits consumed on each ingress FIFO lane of *this* router
    /// (occupancy + packets already in flight toward it).
    credits_used: Vec<usize>,
    /// Packets currently queued across this router's FIFOs.
    queued: usize,
}

/// The queue state of the fabric: every router's lanes, the handles they
/// link, and the plan the handles point into. [`Sched`]
/// queries get it read-only so a policy may look at the lane heads
/// themselves (`Sweep` does; `PortSched` answers from its own tables).
#[derive(Default)]
pub(crate) struct Queues {
    routers: Vec<RouterState>,
    slab: Slab,
    plan: Plan,
}

impl Queues {
    /// FIFO lanes of router `r` (`1 + degree × VCs`).
    pub(crate) fn lanes(&self, r: usize) -> usize {
        self.routers[r].lanes.len()
    }

    /// The members of the packet at the head of router `r`'s lane `fi`:
    /// one per branch still to leave (none when the lane is empty).
    pub(crate) fn head(&self, r: usize, fi: usize) -> impl Iterator<Item = &Handle> + '_ {
        let lane = &self.routers[r].lanes[fi];
        self.slab.chain(if lane.len == 0 { NIL } else { lane.head })
    }

    /// The forwarding plan the handles point into.
    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }
}

/// Per-router egress ports: `(neighbor, our port position on the
/// neighbor)` — the downstream lane is derived per VC via [`lane`].
///
/// # Errors
///
/// [`NocError::InvalidConfig`] `{ name: "topology" }` for a one-way link
/// (credits flow back over the link a packet came by, so every neighbor
/// must list the router in return) and for a router that lists a
/// neighbor twice (the port toward a next hop must be unique).
pub(crate) fn egress_ports(topo: &dyn Topology) -> Result<Vec<Vec<(usize, usize)>>, NocError> {
    (0..topo.num_routers())
        .map(|r| {
            let nbrs = topo.neighbors(r);
            nbrs.iter()
                .enumerate()
                .map(|(i, &nbr)| {
                    if nbrs[..i].contains(&nbr) {
                        return Err(NocError::InvalidConfig {
                            name: "topology",
                            value: format!(
                                "router {r} lists {nbr} twice: parallel links are unsupported"
                            ),
                        });
                    }
                    let back = topo.neighbors(nbr).iter().position(|&x| x == r);
                    let down_pos = back.ok_or_else(|| NocError::InvalidConfig {
                        name: "topology",
                        value: format!(
                            "router {r} lists {nbr} as a neighbor, but {nbr} does not list {r}: \
                             links must be bidirectional"
                        ),
                    })?;
                    Ok((nbr, down_pos))
                })
                .collect()
        })
        .collect()
}

/// The interconnect simulator: the one router model, run under the
/// scheduling policy its [`EngineKind`] names (event-driven unless
/// [`NocSim::with_engine`] says otherwise).
///
/// See the crate-level docs for a usage example, and the module docs for
/// the event model and its equivalence argument against the cycle-driven
/// oracle.
pub struct NocSim {
    topo: Arc<dyn Topology>,
    config: NocConfig,
    energy: EnergyModel,
    engine: EngineKind,
    /// Event trace of the last successful run, present iff
    /// [`NocConfig::trace`] was set. See [`NocSim::take_trace`].
    trace: Option<TraceBuf>,
}

impl std::fmt::Debug for NocSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NocSim")
            .field("topology", &self.topo.name())
            .field("config", &self.config)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl NocSim {
    /// Creates a simulator over a topology with the given configuration and
    /// energy model.
    pub fn new(topo: Box<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self::shared(Arc::from(topo), config, energy)
    }

    /// Like [`NocSim::new`], but over a *shared* topology: the mapping
    /// pipeline's sweep stages build each router graph once and hand the
    /// same `Arc` to every simulator instance instead of re-deriving the
    /// topology per sweep point.
    pub fn shared(topo: Arc<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self {
            topo,
            config,
            energy,
            engine: EngineKind::default(),
            trace: None,
        }
    }

    /// Selects the engine (builder style). Statistics, delivery logs and
    /// event traces are byte-identical under either; only
    /// [`NocSim::run_traced`]'s scheduler trace differs (the oracle
    /// attends every cycle and counts nothing).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Takes the structured event trace of the last successful run.
    ///
    /// `Some` iff [`NocConfig::trace`] was set and the last run
    /// succeeded; taking it leaves `None` until the next traced run.
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take()
    }

    /// Runs the spike schedule to completion and returns aggregate
    /// statistics. The SNN duration is inferred from the last send step.
    ///
    /// # Errors
    ///
    /// * [`NocError::InvalidConfig`] for invalid configurations, for
    ///   a [`Topology::multicast_route`] whose paths are not link walks
    ///   to their destinations, and for a last send step whose start
    ///   cycle (`step × cycles_per_step`) overflows `u64`.
    /// * [`NocError::UnknownCrossbar`] for flows naming absent crossbars.
    /// * [`NocError::CycleBudgetExhausted`] if traffic cannot drain.
    pub fn run(&mut self, flows: &[SpikeFlow]) -> Result<NocStats, NocError> {
        self.run_with_duration(flows, inferred_duration(flows))
            .map(|(stats, _)| stats)
    }

    /// Like [`NocSim::run`], but with an explicit SNN duration (timesteps)
    /// and returning the raw delivery log alongside the statistics.
    ///
    /// # Errors
    ///
    /// Same as [`NocSim::run`].
    pub fn run_with_duration(
        &mut self,
        flows: &[SpikeFlow],
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        self.dispatch(flows, duration_steps, None)
    }

    /// Like [`NocSim::run_with_duration`], but also returning the
    /// scheduler trace ([`SimTrace`]): the forward-progress cycles under
    /// either engine, plus the attended cycles and the [`SchedCounters`]
    /// under the event-driven one (the oracle attends every cycle and
    /// skips nothing, so it leaves both empty). The liveness and
    /// wake-bound properties in `tests/noc_properties.rs` compare the two.
    ///
    /// # Errors
    ///
    /// Same as [`NocSim::run`] (the trace is lost on error).
    pub fn run_traced(
        &mut self,
        flows: &[SpikeFlow],
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>, SimTrace), NocError> {
        let mut log = SimTrace::default();
        self.dispatch(flows, duration_steps, Some(&mut log))
            .map(|(stats, deliveries)| (stats, deliveries, log))
    }

    /// The link forwards a run of `flows` makes, without running it: one
    /// per branch of the forwarding plan the engines follow, summed over
    /// the packets the run injects (one per flow with destinations). A
    /// run that succeeds charges `flits_per_packet ×` this many
    /// [`Counters::link_flits`].
    ///
    /// # Errors
    ///
    /// Every error a run returns before its first cycle, from the same
    /// checks in the same order: [`NocError::InvalidConfig`] and
    /// [`NocError::UnknownCrossbar`] as listed under [`NocSim::run`]. A
    /// run's [`NocError::CycleBudgetExhausted`] happens in the
    /// simulation, so it is never returned here.
    pub fn link_forwards(&self, flows: &[SpikeFlow]) -> Result<u64, NocError> {
        let Setup { nets, plan, .. } = Setup::new(self.topo.as_ref(), &self.config, flows)?;
        let mut last = LastKey::default();
        let sent = flows.iter().filter_map(|f| nets.of(f, &mut last));
        Ok(sent.map(|net| plan.forwards(net)).sum())
    }

    /// The one place an [`EngineKind`] becomes a [`Sched`] policy.
    fn dispatch(
        &mut self,
        flows: &[SpikeFlow],
        duration_steps: u32,
        sim_trace: Option<&mut SimTrace>,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        let run = match self.engine {
            EngineKind::EventDriven => run_engine::<PortSched>,
            EngineKind::CycleOracle => run_engine::<oracle::Sweep>,
        };
        run(
            &self.topo,
            &self.config,
            &self.energy,
            flows,
            duration_steps,
            &mut self.trace,
            sim_trace,
        )
    }
}

/// What a run of `flows` builds before its first cycle.
struct Setup<'f> {
    /// [`egress_ports`] of the topology.
    ports: Vec<Vec<(usize, usize)>>,
    nets: Nets<'f>,
    plan: Plan,
}

impl<'f> Setup<'f> {
    /// Checks the configuration, the topology and the flows, then interns
    /// the nets and plans them. `run_engine` and [`NocSim::link_forwards`]
    /// both start here, so both refuse the same inputs with the same
    /// errors.
    fn new(
        topo: &dyn Topology,
        config: &NocConfig,
        flows: &'f [SpikeFlow],
    ) -> Result<Self, NocError> {
        config.validate()?;
        let ports = egress_ports(topo)?;
        // the plan and `PortSched` store a `(port, VC)` slot in a `u16`; a
        // wider router would wrap there silently, so refuse it before either
        // is built — for both policies, since both run over the one plan
        let slots = ports.iter().map(Vec::len).max().unwrap_or(0) * config.vc_count;
        if slots > usize::from(u16::MAX) + 1 {
            return Err(NocError::InvalidConfig {
                name: "vc_count",
                value: format!(
                    "{} (× widest router = {slots} (port, VC) slots, limit 65536)",
                    config.vc_count
                ),
            });
        }
        validate_flows(topo, flows)?;
        check_clock(config, flows)?;
        // every routing question is asked here, once per net; the schedule
        // then only names each packet's net
        let nets = Nets::intern(flows);
        let plan = Plan::build(topo, config.vc_count, config.multicast_trees, &nets)?;
        Ok(Self { ports, nets, plan })
    }
}

/// One run of either engine: [`Setup`] → schedule → [`simulate`] under
/// policy `S` → statistics, the set-up state dropped before the
/// statistics allocate theirs. `events` is the engine's
/// retained-trace slot (cleared up front, refilled on success when
/// [`NocConfig::trace`] is on); `sim_trace`, when given, receives the
/// scheduler trace and the host time of each of the four phases.
fn run_engine<S: Sched>(
    topo: &Arc<dyn Topology>,
    config: &NocConfig,
    energy: &EnergyModel,
    flows: &[SpikeFlow],
    duration_steps: u32,
    events: &mut Option<TraceBuf>,
    mut sim_trace: Option<&mut SimTrace>,
) -> Result<(NocStats, Vec<Delivery>), NocError> {
    *events = None;
    let start = Instant::now();
    let Setup { ports, nets, plan } = Setup::new(topo.as_ref(), config, flows)?;
    let setup_done = Instant::now();
    let schedule = Schedule::new(config, flows, &nets);
    let schedule_done = Instant::now();
    if let Some(t) = sim_trace.as_deref_mut() {
        t.nets = nets.len() as u64;
        t.plan_nodes = plan.node_count() as u64;
    }
    let mut recorded = config.trace.then(|| TraceBuf::new(config));
    let (deliveries, counters, per_vc, sched) = simulate::<S>(
        topo,
        config,
        &ports,
        flows,
        schedule,
        plan,
        sim_trace.as_deref_mut(),
        recorded.as_mut(),
    )?;
    drop((ports, nets));
    *events = recorded;
    let loop_done = Instant::now();
    let mut stats = NocStats::from_deliveries(
        &deliveries,
        counters,
        energy,
        duration_steps,
        config.cycles_per_step,
    )
    .with_per_vc(per_vc);
    if let Some(t) = sim_trace {
        t.sched = sched;
        t.setup_time = setup_done - start;
        t.schedule_time = schedule_done - setup_done;
        t.loop_time = loop_done - schedule_done;
        t.stats_time = loop_done.elapsed();
    }
    if config.sched_stats && S::SELECTIVE {
        stats = stats.with_sched(sched);
    }
    Ok((stats, deliveries))
}

/// Refuses a clock that cannot count to the last injection: the schedule
/// starts step `s` at cycle `s × cycles_per_step`, adds a cycle per
/// earlier packet (sending flow) of the same crossbar and step, and the
/// loop runs one hop past it. Hops further on are `simulate`'s to guard.
///
/// # Errors
///
/// [`NocError::InvalidConfig`] `{ name: "cycles_per_step" }` when that
/// cycle overflows `u64`.
fn check_clock(config: &NocConfig, flows: &[SpikeFlow]) -> Result<(), NocError> {
    let sent = flows.iter().filter(|f| !f.dst_crossbars.is_empty());
    let last = sent.clone().map(|f| f.send_step).max().unwrap_or(0);
    let packets = sent.count() as u64;
    u64::from(last)
        .checked_mul(config.cycles_per_step)
        .and_then(|c| c.checked_add(packets))
        .and_then(|c| c.checked_add(config.hop_latency() + config.serialization_cycles()))
        .map(drop)
        .ok_or_else(|| NocError::InvalidConfig {
            name: "cycles_per_step",
            value: format!(
                "{} (step {last} starts past cycle u64::MAX)",
                config.cycles_per_step
            ),
        })
}

/// The router model: the one main loop both engines run, scheduled by
/// policy `S`, injecting the packets of `schedule` (over `flows`) and
/// moving their handles over `plan`. `trace`, when given, collects the
/// attended cycles (for a selective policy), the cycles at which at least
/// one packet was forwarded and the live-handle high-water mark;
/// `events`, when given, records the structured trace.
///
/// Never inlined: folded into `run_engine`, LLVM stops inlining the lane
/// and arrival-queue operations into the loop (2–5 % on `engine/*/event`).
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
#[inline(never)]
fn simulate<S: Sched>(
    topo: &Arc<dyn Topology>,
    cfg: &NocConfig,
    ports: &[Vec<(usize, usize)>],
    flows: &[SpikeFlow],
    mut schedule: Schedule<'_, '_>,
    plan: Plan,
    mut trace: Option<&mut SimTrace>,
    mut events: Option<&mut TraceBuf>,
) -> Result<(Vec<Delivery>, Counters, Vec<VcCounters>, SchedCounters), NocError> {
    let vcs = cfg.vc_count;
    let mut sched = S::build(topo, ports, vcs, plan.follows_trees());
    let topo = topo.as_ref();

    // every destination of every flow becomes exactly one delivery
    let n_deliveries = flows.iter().map(|f| f.dst_crossbars.len()).sum();
    let mut deliveries: Vec<Delivery> = Vec::with_capacity(n_deliveries);
    // handles allocated: one per injection, and per injected packet one
    // per branch point past the first way out
    let mut n_handles = 0u64;
    let mut q = Queues {
        routers: ports
            .iter()
            .map(|p| RouterState {
                lanes: vec![
                    Lane {
                        head: NIL,
                        tail: NIL,
                        len: 0
                    };
                    1 + p.len() * vcs
                ],
                rr_cursor: vec![0; p.len() * vcs],
                vc_cursor: vec![0; p.len()],
                busy_until: vec![0; p.len()],
                credits_used: vec![0; 1 + p.len() * vcs],
                queued: 0,
            })
            .collect(),
        slab: Slab::default(),
        plan,
    };
    let mut counters = Counters::default();
    // per-VC counters, aggregated over all routers; empty (and never
    // updated) in the single-VC case so the serialized statistics
    // stay byte-identical to the pre-VC engines
    let mut per_vc: Vec<VcCounters> = if vcs > 1 {
        vec![VcCounters::default(); vcs]
    } else {
        Vec::new()
    };
    // arrivals are pushed at `now + hop_latency` with `now`
    // nondecreasing, so push order IS arrival order — a plain queue,
    // no `O(log n)` sift per hop
    let mut in_transit: VecDeque<Arrival> = VecDeque::new();
    let mut queued_packets = 0usize; // packets sitting in any FIFO
    let mut now = 0u64;
    let flits = cfg.flits_per_packet;
    let hop_latency = cfg.hop_latency();
    // the last cycle a forward may start: its arrival and its busy expiry
    // then land on the clock with a cycle after them, so no cycle the
    // loop computes passes `u64::MAX`
    let last_forward = u64::MAX - 1 - hop_latency.max(u64::from(flits));

    // the earliest pending injection or arrival (`u64::MAX` if neither)
    let next_event = |schedule: &Schedule<'_, '_>, in_transit: &VecDeque<Arrival>| {
        let inject = schedule.next_cycle();
        inject.min(in_transit.front().map_or(u64::MAX, |a| a.cycle))
    };

    // The packet `$h` enters router `$r` on lane `$fi` (0: injected here,
    // else: arrived over a link): its node's local crossbars are
    // delivered, and if the node has ways out the packet queues as the
    // chain of them. A macro, so that each loop below compiles its own
    // copy with `$fi == 0` folded — routing both kinds of entry through
    // one shared loop body measured ~3 % slower on every workload.
    macro_rules! enter {
        ($r:expr, $fi:expr, $h:expr) => {{
            let (r, fi, h): (usize, usize, u32) = ($r, $fi, $h);
            counters.router_traversals += 1;
            let Handle {
                inject_cycle,
                spike,
                flow,
                node,
                ..
            } = *q.slab.get(h);
            let f = &flows[flow as usize];
            debug_assert!(q.plan.local(node).iter().all(|&d| topo.endpoint(d) == r));
            for &d in q.plan.local(node) {
                deliveries.push(Delivery::new(
                    f.source_neuron,
                    f.src_crossbar,
                    d,
                    f.send_step,
                    inject_cycle,
                    now,
                ));
                if let Some(t) = events.as_deref_mut() {
                    t.push(TraceEvent::Delivered {
                        cycle: now,
                        spike_id: u64::from(spike),
                        router: r as u32,
                        dst_crossbar: d,
                    });
                }
            }
            let branches = q.plan.branches(node);
            let state = &mut q.routers[r];
            if !branches.is_empty() {
                // an arrival's credit stays consumed until it leaves
                q.slab.fan_out(h, branches);
                let lane = &mut state.lanes[fi];
                if lane.len == 0 {
                    lane.head = h;
                } else {
                    q.slab.link_after(lane.tail, h);
                }
                lane.tail = h;
                lane.len += 1;
                let occupancy = lane.len as usize;
                if fi > 0 {
                    // ingress lanes are the credit-bounded router
                    // buffers; lane 0 is the AER encoder's own queue
                    counters.buffer_flits += flits as u64;
                    debug_assert!(
                        occupancy <= cfg.buffer_depth,
                        "ingress FIFO overflows its credit-bounded depth"
                    );
                    if vcs > 1 {
                        let vc = &mut per_vc[(fi - 1) % vcs];
                        vc.enqueued += 1;
                        vc.peak_occupancy = vc.peak_occupancy.max(occupancy as u64);
                    }
                }
                if let Some(t) = events.as_deref_mut() {
                    t.push(TraceEvent::Enqueued {
                        cycle: now,
                        spike_id: u64::from(spike),
                        router: r as u32,
                        lane: fi as u32,
                        occupancy: occupancy as u32,
                    });
                }
                state.queued += 1;
                queued_packets += 1;
                if occupancy == 1 {
                    // the packet became a lane head
                    let bits = branches.iter().map(|b| usize::from(b.bit));
                    sched.set_head(r, fi, bits, PRE_SWEEP);
                }
            } else {
                // fully delivered here: the copy is done
                q.slab.release(h);
                if fi > 0 {
                    // hand the lane's credit back
                    state.credits_used[fi] -= 1;
                    if state.credits_used[fi] == cfg.buffer_depth - 1 {
                        // full → free: a selective policy wakes the
                        // upstream pair if it was blocked
                        sched.credit_freed(r, fi, PRE_SWEEP);
                        if let Some(t) = events.as_deref_mut() {
                            t.credit_freed(now, r as u32, fi as u32);
                        }
                    }
                }
            }
        }};
    }

    // the schedule hands out its packets in inject order
    while schedule.next_cycle() != u64::MAX || queued_packets > 0 || !in_transit.is_empty() {
        if now > cfg.max_cycles {
            return Err(NocError::CycleBudgetExhausted {
                budget: cfg.max_cycles,
                in_flight: queued_packets + in_transit.len(),
            });
        }

        // fast-forward across idle gaps — placed after the budget check,
        // so an event due past the budget is still processed once before
        // the budget fires on the cycle after it
        if queued_packets == 0 {
            let jump = next_event(&schedule, &in_transit);
            if jump > now && jump != u64::MAX {
                now = jump;
            }
        }

        // this cycle is attended
        sched.begin_cycle(now);
        if S::SELECTIVE {
            if let Some(t) = trace.as_deref_mut() {
                t.attended_cycles.push(now);
            }
        }

        // 1. link arrivals due now, then injections due now
        while in_transit.front().is_some_and(|a| a.cycle <= now) {
            let a = in_transit.pop_front().expect("peeked");
            enter!(a.router, a.ingress, a.pid);
        }
        while let Some(p) = schedule.pop_due(now) {
            let f = &flows[p.flow as usize];
            let src_router = topo.endpoint(f.src_crossbar);
            counters.packets_injected += 1;
            n_handles += 1 + u64::from(q.plan.extra_handles(p.net));
            if let Some(t) = events.as_deref_mut() {
                t.push(TraceEvent::Injected {
                    cycle: now,
                    spike_id: u64::from(p.spike),
                    source_neuron: f.source_neuron,
                    src_crossbar: f.src_crossbar,
                    router: src_router as u32,
                });
            }
            let root = q.plan.root(p.net);
            let h = q
                .slab
                .alloc(Handle::injected(p.spike, p.flow, p.inject_cycle, root));
            enter!(src_router, 0, h);
        }

        // 2. arbitration & forwarding over the pairs the policy names, in
        // strictly ascending pair id — the sweep order. A selective policy
        // names only woken pairs; a pair never woken is a provable no-op
        // (its idle ∧ wanted ∧ credit-free conjunction cannot have turned
        // true since it was last examined; see the module docs)
        let mut progress = false;
        while let Some((pair, r, o)) = sched.next_pair() {
            if q.routers[r].queued == 0 {
                // no heads, so no candidates (under a selective policy:
                // the router drained since the wake was raised, e.g. a
                // stale busy expiry)
                continue;
            }
            sched.count_visit(pair);
            let (nbr, down_pos) = ports[r][o];
            if q.routers[r].busy_until[o] > now {
                // still serializing: its expiry wake re-examines it
                continue;
            }
            // wake position for anything this visit changes: pairs ahead
            // of `pair` see it this cycle, pairs behind see it next
            let pos = pair + 1;
            // eligible VCs: a candidate head wants (o, w) and the
            // downstream (ingress, w) lane has a free credit. A wanted
            // VC found credit-full is reported blocked, so a selective
            // policy re-examines this pair at the full→free transition.
            let mut eligible = 0u32;
            for w in 0..vcs {
                if sched.wanted(&q, pair, w) == 0 {
                    continue;
                }
                if q.routers[nbr].credits_used[lane(down_pos, w, vcs)] >= cfg.buffer_depth {
                    sched.set_blocked(pair, w);
                    continue; // backpressure on this VC
                }
                eligible |= 1 << w;
            }
            let Some(w) = pick_vc(eligible, q.routers[r].vc_cursor[o]) else {
                continue;
            };
            if now > last_forward {
                // the packet would arrive past the end of the clock: the
                // run cannot drain, under any budget
                return Err(NocError::CycleBudgetExhausted {
                    budget: cfg.max_cycles,
                    in_flight: queued_packets + in_transit.len(),
                });
            }
            let bit = o * vcs + w;
            let wants = |fi| sched.head_wants(&q, r, fi, bit);
            debug_assert_eq!(
                (0..q.lanes(r)).filter(|&fi| wants(fi)).count() as u32,
                sched.wanted(&q, pair, w),
                "the want count is the number of heads wanting the slot"
            );
            let fi = pick_lane(q.lanes(r), q.routers[r].rr_cursor[bit], wants)
                .expect("an eligible VC has a wanting lane");
            // everything below (until the downstream credit take)
            // touches only router `r`: borrow it once
            let state = &mut q.routers[r];
            state.rr_cursor[bit] = fi + 1;
            state.vc_cursor[o] = w + 1;
            if vcs > 1 {
                per_vc[w].forwarded += 1;
                for (w2, vc_stat) in per_vc.iter_mut().enumerate() {
                    if w2 != w && eligible & (1 << w2) != 0 {
                        vc_stat.arb_losses += 1;
                    }
                }
            }

            // the winning head's member for this (port, VC) leaves its
            // chain and is forwarded as it is: nothing is constructed or
            // copied. A policy that wanted a slot the plan gave the head
            // no branch for (the oracle, were the plan ever wrong about
            // the fabric) stops here.
            let lane_q = &mut state.lanes[fi];
            let first = lane_q.head;
            let (member, rest) = q
                .slab
                .detach(first, bit)
                .expect("the winning head has a branch for the slot");
            // trace capture: occupancy after a pop, and whether the
            // pop freed our own previously-full ingress lane (emitted
            // after the branch, once the router borrow is released)
            let mut dequeued_occ: Option<u32> = None;
            let mut freed_own = false;
            if rest == NIL {
                // every remaining destination leaves here — unicast, and
                // every non-branching multicast hop: the lane pops
                let behind = q.slab.get(first).next;
                lane_q.head = behind;
                lane_q.len -= 1;
                let left = lane_q.len;
                if events.is_some() {
                    dequeued_occ = Some(left);
                }
                state.queued -= 1;
                queued_packets -= 1;
                sched.clear_head(r, fi);
                if fi > 0 {
                    state.credits_used[fi] -= 1;
                    if state.credits_used[fi] == cfg.buffer_depth - 1 {
                        // full → free on our own ingress lane
                        sched.credit_freed(r, fi, pos);
                        freed_own = true;
                    }
                }
                if left > 0 {
                    // the pop exposed a new head
                    let bits = q.slab.chain(behind).map(|m| usize::from(m.bit));
                    sched.set_head(r, fi, bits, pos);
                }
            } else {
                // multicast split: the head stays, minus this branch;
                // when its first member left, the next one stands in
                if rest != first {
                    lane_q.head = rest;
                    if lane_q.tail == first {
                        lane_q.tail = rest;
                    }
                }
                sched.shrink_head(r, fi, bit);
            }
            if let Some(t) = events.as_deref_mut() {
                let m = q.slab.get(member);
                t.push(TraceEvent::Forwarded {
                    cycle: now,
                    spike_id: u64::from(m.spike),
                    router: r as u32,
                    port: o as u32,
                    vc: w as u32,
                    dests: q.plan.dests(m.node).len() as u32,
                });
                if let Some(occupancy) = dequeued_occ {
                    t.push(TraceEvent::Dequeued {
                        cycle: now,
                        router: r as u32,
                        lane: fi as u32,
                        occupancy,
                    });
                }
                if freed_own {
                    t.credit_freed(now, r as u32, fi as u32);
                }
            }

            counters.link_flits += flits as u64;
            state.busy_until[o] = now + flits as u64;
            sched.schedule_expiry(now + flits as u64, pair);
            let down_lane = lane(down_pos, w, vcs);
            let down_credits = &mut q.routers[nbr].credits_used[down_lane];
            *down_credits += 1;
            debug_assert!(
                *down_credits <= cfg.buffer_depth,
                "credits must never exceed the FIFO depth"
            );
            if *down_credits == cfg.buffer_depth {
                if let Some(t) = events.as_deref_mut() {
                    t.credit_full(now, nbr as u32, down_lane as u32);
                }
            }
            progress = true;
            debug_assert!(
                in_transit
                    .back()
                    .is_none_or(|b| b.cycle <= now + hop_latency),
                "arrival pushes must stay cycle-ordered"
            );
            in_transit.push_back(Arrival {
                cycle: now + hop_latency,
                router: nbr,
                ingress: down_lane,
                pid: member,
            });
        }
        if progress {
            if let Some(t) = trace.as_deref_mut() {
                t.progress_cycles.push(now);
            }
        }

        // 3. advance the clock to the next cycle that can matter
        if queued_packets == 0 {
            // empty network: step one cycle, so the budget check lands on
            // the same cycle under every policy before the next
            // iteration's fast-forward takes the big jump
            now += 1;
            continue;
        }
        let pending = next_event(&schedule, &in_transit);
        let next = sched.next_cycle(&q, now, pending, progress);
        if next == u64::MAX {
            // every queued packet is credit-starved with nothing in
            // flight to free credits: a cycle-by-cycle walk idles up to
            // the budget and fails — report that outcome now (no cycle
            // past a `u64::MAX` budget exists to jump to)
            return Err(NocError::CycleBudgetExhausted {
                budget: cfg.max_cycles,
                in_flight: queued_packets + in_transit.len(),
            });
        }
        debug_assert!(next > now, "the clock must advance every iteration");
        now = next;
    }

    debug_assert_eq!(q.slab.live(), 0, "every copy was released");
    debug_assert_eq!(
        q.slab.allocated(),
        n_handles,
        "the handle count is a per-net sum"
    );
    if let Some(t) = trace {
        t.peak_handles = q.slab.peak() as u64;
    }
    counters.deliveries = deliveries.len() as u64;
    Ok((deliveries, counters, per_vc, sched.counters()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::single_destination;
    use crate::topology::tests::{Reroute, ReroutedMesh, BOUNCE, STALL};
    use crate::topology::{Mesh2D, NocTree, PointToPoint, Star, Torus};

    fn sim(topo: Box<dyn Topology>) -> NocSim {
        NocSim::new(topo, NocConfig::default(), EnergyModel::default())
    }

    /// The schedule as built before the merge: the canonical order by a
    /// sort of packed keys, then every packet's slot triple `(inject
    /// cycle, src and neuron, spike id)` in that order, sorted.
    fn schedule_by_sorting<'f>(
        crossbars: usize,
        config: &NocConfig,
        flows: &'f [SpikeFlow],
        nets: &Nets<'f>,
    ) -> Vec<Injection> {
        // canonical order via packed key-index tuples: `(step, src)` and
        // `(neuron, flow index)` each fuse into one u64, so the sort runs on
        // plain integer pairs (no comparator closure). Flows equal in
        // `(step, src, neuron)` still need the dest-set tiebreak to keep the
        // order total — those runs are found and reordered in a second pass
        // (under the mapper's per-synapse traffic they are the rule: every
        // remote synapse of a firing neuron is a flow of its own with the
        // same key, 887 008 flows on mapbench's `hd_tree_paper`).
        let mut keys: Vec<(u64, u64)> = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.dst_crossbars.is_empty())
            .map(|(i, f)| {
                (
                    (u64::from(f.send_step) << 32) | u64::from(f.src_crossbar),
                    (u64::from(f.source_neuron) << 32) | i as u64,
                )
            })
            .collect();
        keys.sort_unstable();
        let flow_of = |key: &(u64, u64)| (key.1 & 0xffff_ffff) as usize;
        let mut s = 0;
        while s < keys.len() {
            let mut e = s + 1;
            while e < keys.len() && keys[e].0 == keys[s].0 && keys[e].1 >> 32 == keys[s].1 >> 32 {
                e += 1;
            }
            if e - s > 1 {
                // stable, so ties equal in dest set too keep their flow order
                // (byte-equal flows — they inject identically either way)
                keys[s..e].sort_by(|a, b| {
                    flows[flow_of(a)]
                        .dst_crossbars
                        .cmp(&flows[flow_of(b)].dst_crossbars)
                });
            }
            s = e;
        }

        // canonical pass computes each packet's slot key: `(inject cycle,
        // src and neuron packed into one word, spike id)` — the spike id
        // is both the stable-order tiebreak and the index of its flow
        let mut slots: Vec<(u64, u64, u64)> = Vec::with_capacity(keys.len());
        // per-crossbar rank within the current step window
        let mut rank: Vec<u64> = vec![0; crossbars];
        let mut current_step = u32::MAX;
        for (spike_id, key) in keys.iter().enumerate() {
            let step = (key.0 >> 32) as u32;
            let src = key.0 as u32;
            let neuron = (key.1 >> 32) as u32;
            if step != current_step {
                current_step = step;
                rank.iter_mut().for_each(|r| *r = 0);
            }
            let r = &mut rank[src as usize];
            slots.push((
                u64::from(step) * config.cycles_per_step + *r,
                (u64::from(src) << 32) | u64::from(neuron),
                spike_id as u64,
            ));
            *r += 1;
        }
        slots.sort_unstable();
        slots
            .into_iter()
            .map(|(inject_cycle, src_neuron, spike)| {
                let fi = flow_of(&keys[spike as usize]);
                let f = &flows[fi];
                assert_eq!(
                    (f.src_crossbar, f.source_neuron),
                    ((src_neuron >> 32) as u32, src_neuron as u32)
                );
                Injection {
                    spike: spike as u32,
                    flow: fi as u32,
                    net: nets.of(f, &mut LastKey::default()).expect("it sends"),
                    inject_cycle,
                }
            })
            .collect()
    }

    #[test]
    fn merged_schedule_is_the_sorted_schedule() {
        // xorshift: the crate has no RNG dependency
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut overloaded = 0;
        for case in 0..600 {
            let crossbars = 1 + draw(4);
            // every fifth case starts its steps just short of the last
            // cycle `check_clock` lets a run reach
            let near_limit = case % 5 == 4;
            let cycles_per_step = if near_limit {
                (1 << 32) - 2
            } else {
                1 + draw(4)
            };
            let first_step = if near_limit { u32::MAX - 3 } else { 0 };
            // few neurons and steps: many flows share a `(step, crossbar,
            // neuron)` key, as per-synapse traffic does; destination lists
            // may be empty, repeat a crossbar or name the source
            let flows: Vec<SpikeFlow> = (0..draw(50))
                .map(|_| SpikeFlow {
                    source_neuron: draw(4) as u32,
                    src_crossbar: draw(crossbars) as u32,
                    dst_crossbars: (0..draw(4)).map(|_| draw(crossbars) as u32).collect(),
                    send_step: first_step + draw(4) as u32,
                })
                .collect();
            // every other case as unicast traffic: a flow per destination
            let flows = if case % 2 == 0 {
                flows
            } else {
                single_destination(&flows)
            };
            let config = NocConfig {
                cycles_per_step,
                ..NocConfig::default()
            };
            check_clock(&config, &flows).expect("the clock reaches the last injection");
            let nets = Nets::intern(&flows);
            // the stream, drained a cycle at a time as the loop drains it
            let mut schedule = Schedule::new(&config, &flows, &nets);
            let mut merged = Vec::new();
            while schedule.next_cycle() != u64::MAX {
                let now = schedule.next_cycle();
                while let Some(p) = schedule.pop_due(now) {
                    assert_eq!(p.inject_cycle, now);
                    merged.push(p);
                }
                assert!(
                    schedule.next_cycle() > now,
                    "case {case}: a cycle left behind"
                );
            }
            let sorted = schedule_by_sorting(crossbars as usize, &config, &flows, &nets);
            assert_eq!(merged, sorted, "case {case}: {flows:?}");
            // a crossbar sending more packets in a step than the step has
            // cycles shares inject cycles with its own next step
            let mut per_window = std::collections::HashMap::new();
            for f in flows.iter().filter(|f| !f.dst_crossbars.is_empty()) {
                *per_window.entry((f.send_step, f.src_crossbar)).or_insert(0) += 1;
            }
            if per_window.values().any(|&p| p > cycles_per_step) {
                overloaded += 1;
            }
        }
        assert!(
            overloaded > 100,
            "only {overloaded} cases overload a step window"
        );
    }

    #[test]
    fn single_packet_mesh() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let flows = vec![SpikeFlow::unicast(1, 0, 3, 0)];
        let stats = s.run(&flows).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.counters.packets_injected, 1);
        // 2 hops × (router_delay 1 + flits 2 − 1) = 4 cycles minimum
        assert_eq!(stats.max_latency_cycles, 4);
    }

    #[test]
    fn all_topologies_deliver_everything() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(8)),
            Box::new(Torus::for_crossbars(8)),
            Box::new(NocTree::new(8, 2)),
            Box::new(Star::new(8)),
            Box::new(PointToPoint::new(8)),
        ];
        let mut flows = Vec::new();
        for step in 0..5u32 {
            for src in 0..8u32 {
                flows.push(SpikeFlow::unicast(src * 100, src, (src + 3) % 8, step));
            }
        }
        for topo in topos {
            let name = topo.name();
            let mut s = sim(topo);
            let stats = s.run(&flows).unwrap();
            assert_eq!(stats.delivered, 40, "{name}");
        }
    }

    #[test]
    fn multicast_injects_fewer_packets_than_unicast() {
        let flows = vec![SpikeFlow::multicast(0, 0, vec![1, 2, 3], 0); 10];
        let run = |flows: &[SpikeFlow]| sim(Box::new(NocTree::new(4, 4))).run(flows).unwrap();
        let mc = run(&flows);
        let uc = run(&single_destination(&flows));
        assert_eq!(mc.delivered, 30);
        assert_eq!(uc.delivered, 30);
        assert_eq!(mc.counters.packets_injected, 10);
        assert_eq!(uc.counters.packets_injected, 30);
        assert!(mc.counters.link_flits < uc.counters.link_flits);
        assert!(mc.global_energy_pj < uc.global_energy_pj);
    }

    #[test]
    fn congestion_raises_latency() {
        // many sources all talking to crossbar 0 in the same step
        let burst: Vec<SpikeFlow> = (0..64)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 7), 0, 0))
            .collect();
        let single = vec![SpikeFlow::unicast(0, 1, 0, 0)];
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let lat_burst = s.run(&burst).unwrap().max_latency_cycles;
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let lat_single = s.run(&single).unwrap().max_latency_cycles;
        assert!(
            lat_burst > lat_single,
            "congestion must add latency: {lat_burst} !> {lat_single}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let flows: Vec<SpikeFlow> = (0..50)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 1) % 4, i / 10))
            .collect();
        let run = || {
            let mut s = sim(Box::new(NocTree::new(4, 2)));
            s.run(&flows).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unknown_crossbar_rejected() {
        let mut s = sim(Box::new(Star::new(2)));
        let err = s.run(&[SpikeFlow::unicast(0, 0, 5, 0)]).unwrap_err();
        assert!(matches!(err, NocError::UnknownCrossbar { crossbar: 5, .. }));
    }

    #[test]
    fn same_crossbar_flow_counts_as_immediate_delivery() {
        // a unicast flow whose destination equals its source is delivered
        // at injection with zero latency (degenerate but legal input)
        let mut s = sim(Box::new(Star::new(3)));
        let stats = s.run(&[SpikeFlow::unicast(0, 1, 1, 0)]).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.max_latency_cycles, 0);
    }

    #[test]
    fn empty_flow_list() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let stats = s.run(&[]).unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.avg_latency_cycles, 0.0);
    }

    #[test]
    fn serialization_spreads_same_step_spikes() {
        // 10 spikes from the same crossbar in one step are AER-serialized:
        // inject cycles are consecutive
        let flows: Vec<SpikeFlow> = (0..10).map(|i| SpikeFlow::unicast(i, 0, 1, 0)).collect();
        let mut s = sim(Box::new(PointToPoint::new(2)));
        let (_, deliveries) = s.run_with_duration(&flows, 1).unwrap();
        let mut injects: Vec<u64> = deliveries.iter().map(|d| d.inject_cycle).collect();
        injects.sort_unstable();
        let expected: Vec<u64> = (0..10).collect();
        assert_eq!(injects, expected);
    }

    #[test]
    fn backpressure_does_not_lose_packets() {
        // tiny buffers + heavy burst through one tree root; the in-engine
        // debug assertions also bound credits and FIFO occupancy here
        let cfg = NocConfig {
            buffer_depth: 1,
            ..NocConfig::default()
        };
        let flows: Vec<SpikeFlow> = (0..200)
            .map(|i| SpikeFlow::unicast(i, i % 4, ((i % 4) + 4) % 8, 0))
            .collect();
        let mut s = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let stats = s.run(&flows).unwrap();
        assert_eq!(stats.delivered, 200);
    }

    #[test]
    fn latency_monotone_in_hops_without_congestion() {
        let mut s = sim(Box::new(Mesh2D::grid(4, 1, 4)));
        let near = s.run(&[SpikeFlow::unicast(0, 0, 1, 0)]).unwrap();
        let mut s = sim(Box::new(Mesh2D::grid(4, 1, 4)));
        let far = s.run(&[SpikeFlow::unicast(0, 0, 3, 0)]).unwrap();
        assert!(far.max_latency_cycles > near.max_latency_cycles);
    }

    #[test]
    fn round_robin_serves_every_contending_source() {
        // 4 leaves stream to leaf 0 through the star hub: all traffic
        // contends for the hub's single output port toward leaf 0. Under
        // round-robin no input FIFO may starve — within any window of
        // deliveries, every source keeps making progress.
        let spikes_per_src = 40u32;
        let mut flows = Vec::new();
        for step in 0..spikes_per_src {
            for src in 1..5u32 {
                flows.push(SpikeFlow::unicast(src * 1000 + step, src, 0, step));
            }
        }
        let mut s = NocSim::new(
            Box::new(Star::new(5)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        let (stats, deliveries) = s.run_with_duration(&flows, spikes_per_src).unwrap();
        assert_eq!(stats.delivered, (4 * spikes_per_src) as u64);
        // fairness: in every window of 8 consecutive deliveries at the
        // destination, each of the 4 sources appears at least once
        let order: Vec<u32> = deliveries.iter().map(|d| d.src_crossbar).collect();
        for w in order.windows(8) {
            for src in 1..5u32 {
                assert!(
                    w.contains(&src),
                    "source {src} starved in delivery window {w:?}"
                );
            }
        }
    }

    #[test]
    fn vc_engines_agree_and_split_traffic_smoke() {
        // shallow-FIFO 4x4 torus with 2 VCs under multicast cross-ring
        // traffic: the engines must agree byte-for-byte, the per-VC
        // counters must be populated, and the dateline assignment must
        // actually route packets over both VCs (the cross-crate corpus
        // in tests/noc_properties.rs is the full campaign)
        let mut flows = Vec::new();
        for step in 0..6u32 {
            for src in 0..16u32 {
                flows.push(SpikeFlow::multicast(
                    src * 17 + step,
                    src,
                    vec![(src + 2) % 16, (src + 9) % 16],
                    step,
                ));
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            vc_count: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(
            Box::new(Torus::for_crossbars(16)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = NocSim::new(
            Box::new(Torus::for_crossbars(16)),
            cfg,
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        let (es, ed) = ev.run_with_duration(&flows, 6).unwrap();
        let (os, od) = or.run_with_duration(&flows, 6).unwrap();
        assert_eq!(ed, od, "delivery logs must be identical");
        assert_eq!(
            es.digest().unwrap(),
            os.digest().unwrap(),
            "stats must be byte-identical"
        );
        assert_eq!(es.per_vc.len(), 2);
        assert!(es.per_vc.iter().all(|v| v.forwarded > 0), "{:?}", es.per_vc);
        assert_eq!(
            es.per_vc.iter().map(|v| v.forwarded).sum::<u64>() * u64::from(cfg.flits_per_packet),
            es.counters.link_flits,
            "per-VC forwards must partition the link traffic"
        );
        assert!(es
            .per_vc
            .iter()
            .all(|v| v.peak_occupancy <= cfg.buffer_depth as u64));
    }

    #[test]
    fn sched_counters_attach_only_when_enabled() {
        let flows: Vec<SpikeFlow> = (0..40)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 2) % 8, i / 8))
            .collect();
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let default_stats = s.run(&flows).unwrap();
        assert!(default_stats.sched.is_none(), "sched counters are opt-in");

        let cfg = NocConfig {
            sched_stats: true,
            ..NocConfig::default()
        };
        let mut s = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let stats = s.run(&flows).unwrap();
        let sched = stats.sched.expect("enabled counters attach");
        assert!(sched.wake_cycles > 0);
        assert!(sched.port_wakes > 0);
        assert!(sched.head_updates > 0);
        // everything except the counter attachment is unchanged
        assert_eq!(stats.delivered, default_stats.delivered);
        assert_eq!(stats.counters, default_stats.counters);
        assert_ne!(stats.digest().unwrap(), default_stats.digest().unwrap());
    }

    #[test]
    fn saturated_drain_keeps_wake_queues_bounded() {
        // the dedup satellite: a hotspot burst into a 4x4 mesh re-wakes
        // the same few pairs thousands of times; the membership bitsets
        // must collapse that to at most one queue entry per pair, so the
        // peak queue sizes stay bounded by the pair count however long
        // the saturated drain runs
        let flows: Vec<SpikeFlow> = (0..600)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 15), 0, 0))
            .collect();
        let mut s = sim(Box::new(Mesh2D::for_crossbars(16)));
        let (stats, _, trace) = s.run_traced(&flows, 1).unwrap();
        assert_eq!(stats.delivered, 600);
        // 4x4 mesh: 24 bidirectional links → 48 (router, port) pairs
        let pairs = 48;
        assert!(
            trace.sched.peak_ready <= pairs,
            "ready set must stay within the pair count: {} > {pairs}",
            trace.sched.peak_ready
        );
        assert!(
            trace.sched.peak_wake_heap <= 2 * pairs,
            "expiries (≤ pairs) + next-cycle wakes (≤ pairs) exceeded: {}",
            trace.sched.peak_wake_heap
        );
        // and the drain really was saturated enough to exercise dedup
        assert!(trace.sched.port_wakes > 2 * pairs);
    }

    #[test]
    fn traces_agree_between_engines() {
        let mut flows = Vec::new();
        for step in 0..5u32 {
            for src in 0..8u32 {
                flows.push(SpikeFlow::multicast(
                    src * 13 + step,
                    src,
                    vec![(src + 1) % 8, (src + 4) % 8],
                    step,
                ));
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let mut or = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default())
            .with_engine(EngineKind::CycleOracle);
        let (es, ed, et) = ev.run_traced(&flows, 5).unwrap();
        let (os, od, ot) = or.run_traced(&flows, 5).unwrap();
        assert_eq!(ed, od);
        assert_eq!(es.digest().unwrap(), os.digest().unwrap());
        assert_eq!(
            et.progress_cycles, ot.progress_cycles,
            "both engines must forward at the same cycles"
        );
        // every progress cycle is an attended cycle, and attended cycles
        // are strictly ascending
        assert!(et.attended_cycles.windows(2).all(|w| w[0] < w[1]));
        let attended: std::collections::HashSet<u64> = et.attended_cycles.iter().copied().collect();
        assert!(et.progress_cycles.iter().all(|c| attended.contains(c)));
    }

    #[test]
    fn single_vc_config_produces_no_per_vc_counters() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let stats = s.run(&[SpikeFlow::unicast(1, 0, 3, 0)]).unwrap();
        assert!(stats.per_vc.is_empty());
    }

    #[test]
    fn cycle_budget_fires_instead_of_hanging() {
        // traffic that cannot drain within the budget must error out, and
        // both engines must report the identical error
        let cfg = NocConfig {
            max_cycles: 40,
            ..NocConfig::default()
        };
        let flows: Vec<SpikeFlow> = (0..500)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 7), 0, 0))
            .collect();
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        let e = ev.run(&flows).unwrap_err();
        assert!(matches!(
            e,
            NocError::CycleBudgetExhausted { budget: 40, .. }
        ));
        assert_eq!(e, or.run(&flows).unwrap_err());
    }

    #[test]
    fn budget_error_agrees_when_wake_jumps_past_budget() {
        // a lone injection far beyond the budget: the event engine jumps
        // straight over max_cycles and must still fail like the oracle,
        // which walks there cycle by cycle
        let cfg = NocConfig {
            max_cycles: 100,
            cycles_per_step: 1024,
            ..NocConfig::default()
        };
        let flows = vec![SpikeFlow::unicast(0, 0, 3, 5)]; // injects at cycle 5120
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = NocSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            cfg,
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        assert_eq!(ev.run(&flows).unwrap_err(), or.run(&flows).unwrap_err());
    }

    /// Edits the per-destination `(next router, VC)` paths of one tree.
    type Bend = fn(&mut Vec<Vec<(usize, usize)>>);

    /// A mesh whose tree routes pass through `.1` on the way out — the
    /// shape of a user topology with a buggy `multicast_route`.
    struct BentMesh(Mesh2D, Bend);

    impl Topology for BentMesh {
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
            let mut paths = self.0.multicast_route(src, dests, vcs);
            (self.1)(&mut paths);
            paths
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    #[test]
    fn malformed_tree_routes_are_typed_errors_under_both_engines() {
        // crossbar 0 reaches 2 in two hops and 8 in four; each bend breaks
        // one thing the plan's tree walk relies on (before trees were
        // checked, the first panicked and the second only tripped a debug
        // assertion)
        let bends: [(&str, Bend); 4] = [
            ("skips a router", |paths| paths[0] = paths[0][1..].to_vec()),
            ("stops short", |paths| paths[0].truncate(1)),
            ("drops a destination", |paths| paths.truncate(1)),
            ("rides a VC the config lacks", |paths| paths[0][0].1 = 1),
        ];
        let cfg = NocConfig {
            multicast_trees: true,
            ..NocConfig::default()
        };
        let flows = [SpikeFlow::multicast(0, 0, vec![8, 2], 0)];
        for (what, bend) in bends {
            let topo =
                || -> Box<dyn Topology> { Box::new(BentMesh(Mesh2D::for_crossbars(9), bend)) };
            let e = both_engines(topo, cfg, &flows).expect_err(what);
            assert!(
                matches!(
                    e,
                    NocError::InvalidConfig {
                        name: "multicast_route",
                        ..
                    }
                ),
                "{what}: {e}"
            );
        }
        // unbent, the same wrapper simulates
        let topo = || -> Box<dyn Topology> { Box::new(BentMesh(Mesh2D::for_crossbars(9), |_| ())) };
        assert_eq!(both_engines(topo, cfg, &flows).unwrap().delivered, 2);
    }

    /// Both engines' outcome on one topology builder; they must agree,
    /// and [`NocSim::link_forwards`] must predict it: the run's error when
    /// the run fails before its first cycle, its link flits when it
    /// succeeds.
    fn both_engines(
        topo: impl Fn() -> Box<dyn Topology>,
        cfg: NocConfig,
        flows: &[SpikeFlow],
    ) -> Result<NocStats, NocError> {
        let sim = |engine| NocSim::new(topo(), cfg, EnergyModel::default()).with_engine(engine);
        let event = sim(EngineKind::EventDriven).run(flows);
        assert_eq!(event, sim(EngineKind::CycleOracle).run(flows));
        let forwards = sim(EngineKind::EventDriven).link_forwards(flows);
        match &event {
            Ok(stats) => assert_eq!(
                Ok(stats.counters.link_flits),
                forwards.map(|f| u64::from(cfg.flits_per_packet) * f)
            ),
            Err(NocError::CycleBudgetExhausted { .. }) => assert!(forwards.is_ok()),
            Err(e) => assert_eq!(Err(e), forwards.as_ref()),
        }
        event
    }

    /// A line of three routers whose last link only goes one way: router
    /// 1 lists 2, router 2 lists nothing.
    struct OneWayLine;

    impl Topology for OneWayLine {
        fn num_routers(&self) -> usize {
            3
        }
        fn num_crossbars(&self) -> usize {
            3
        }
        fn endpoint(&self, k: u32) -> usize {
            k as usize
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            [&[1][..], &[0, 2], &[]][r]
        }
        fn route_next(&self, r: usize, dst: usize) -> usize {
            match r.cmp(&dst) {
                std::cmp::Ordering::Less => r + 1,
                std::cmp::Ordering::Equal => r,
                std::cmp::Ordering::Greater => r - 1,
            }
        }
        fn name(&self) -> String {
            "one-way line".into()
        }
    }

    #[test]
    fn one_way_link_is_a_typed_error_under_both_engines() {
        // credits return over the link a packet came by; this used to
        // panic in `egress_ports` ("links are bidirectional")
        let flows = [SpikeFlow::unicast(0, 0, 1, 0)];
        let e = both_engines(|| Box::new(OneWayLine), NocConfig::default(), &flows).unwrap_err();
        assert!(
            matches!(
                e,
                NocError::InvalidConfig {
                    name: "topology",
                    ..
                }
            ),
            "{e}"
        );
    }

    /// Two routers joined by two parallel links: each lists the other
    /// twice.
    struct TwinLink;

    impl Topology for TwinLink {
        fn num_routers(&self) -> usize {
            2
        }
        fn num_crossbars(&self) -> usize {
            2
        }
        fn endpoint(&self, k: u32) -> usize {
            k as usize
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            [&[1, 1][..], &[0, 0]][r]
        }
        fn route_next(&self, _r: usize, dst: usize) -> usize {
            dst
        }
        fn name(&self) -> String {
            "twin link".into()
        }
    }

    #[test]
    fn parallel_links_are_a_typed_error_under_both_engines() {
        // "the port toward a next hop" is ambiguous with two links to the
        // same neighbor; no engine may pick one silently
        let flows = [SpikeFlow::unicast(0, 0, 1, 0)];
        let e = both_engines(|| Box::new(TwinLink), NocConfig::default(), &flows).unwrap_err();
        assert!(
            matches!(
                e,
                NocError::InvalidConfig {
                    name: "topology",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn routes_that_revisit_a_router_are_typed_errors_under_both_engines() {
        // a tree path that is a link walk to its destination — so it
        // passes every check above — but goes 0 → 1 → 0 → 1 → … first:
        // the per-spike tree table used to hold two entries for (router 1,
        // crossbar 2) and the packet ping-ponged until the cycle budget.
        // A plan node knows how many hops it is from the source, and a
        // packet under way for as many hops as there are routers has
        // been somewhere twice.
        let cfg = NocConfig {
            multicast_trees: true,
            max_cycles: 200_000,
            ..NocConfig::default()
        };
        let flows = [SpikeFlow::multicast(0, 0, vec![8, 2], 0)];
        let bounce: Bend = |paths| {
            let direct = std::mem::take(&mut paths[0]);
            paths[0] = [(1, 0), (0, 0)].repeat(5);
            paths[0].extend(direct);
        };
        let topo = || -> Box<dyn Topology> { Box::new(BentMesh(Mesh2D::for_crossbars(9), bounce)) };
        let e = both_engines(topo, cfg, &flows).unwrap_err();
        assert!(
            matches!(
                e,
                NocError::InvalidConfig {
                    name: "multicast_route",
                    ..
                }
            ),
            "{e}"
        );
        // the same bound for a unicast route that never arrives (`BOUNCE`),
        // and a typed error too for one that stalls and for one that
        // leaves the links: from router 0 straight to 2 (the event
        // engine's route table used to panic on it, the oracle's walk at
        // the first packet). Under tree routing the default
        // `multicast_route` walks the same routes — it used to panic on
        // the loop and the stall — and the plan blames the tree path
        let reroutes: [Reroute; 3] = [BOUNCE, STALL, |r, dst| (dst == 2 && r == 0).then_some(2)];
        for reroute in reroutes {
            for (trees, blamed) in [(false, "topology"), (true, "multicast_route")] {
                let cfg = NocConfig {
                    multicast_trees: trees,
                    max_cycles: 200_000,
                    ..NocConfig::default()
                };
                let topo = || -> Box<dyn Topology> {
                    Box::new(ReroutedMesh(Mesh2D::for_crossbars(9), reroute))
                };
                let e = both_engines(topo, cfg, &flows).unwrap_err();
                assert!(
                    matches!(e, NocError::InvalidConfig { name, .. } if name == blamed),
                    "{e}"
                );
            }
        }
        // and a detour that comes back within the bound is just a longer
        // tree: every node follows its own hop of the path
        let detour: Bend = |paths| {
            let direct = std::mem::take(&mut paths[0]);
            paths[0] = vec![(1, 0), (0, 0)];
            paths[0].extend(direct);
        };
        let topo = || -> Box<dyn Topology> { Box::new(BentMesh(Mesh2D::for_crossbars(9), detour)) };
        let cfg = NocConfig {
            multicast_trees: true,
            ..NocConfig::default()
        };
        assert_eq!(both_engines(topo, cfg, &flows).unwrap().delivered, 2);
    }

    #[test]
    fn router_too_wide_for_the_slot_tables_is_rejected_by_both_engines() {
        // hub degree 2049 × 32 VCs = 65 568 (port, VC) slots: one past what
        // the u16 route tables hold. Rejected before any table is built
        // (the event engine used to wrap the slot and wedge).
        let cfg = NocConfig {
            vc_count: 32,
            ..NocConfig::default()
        };
        let flows = [SpikeFlow::unicast(0, 0, 2048, 0)];
        let mut ev = NocSim::new(Box::new(Star::new(2049)), cfg, EnergyModel::default());
        let mut or = NocSim::new(Box::new(Star::new(2049)), cfg, EnergyModel::default())
            .with_engine(EngineKind::CycleOracle);
        let e = ev.run(&flows).unwrap_err();
        assert!(matches!(
            e,
            NocError::InvalidConfig {
                name: "vc_count",
                ..
            }
        ));
        assert_eq!(e, or.run(&flows).unwrap_err());
        // exactly 65 536 slots still fit a u16 slot index
        let topo: Arc<dyn Topology> = Arc::new(Star::new(2048));
        let energy = EnergyModel::default();
        assert!(run_engine::<oracle::Sweep>(&topo, &cfg, &energy, &[], 1, &mut None, None).is_ok());
    }

    #[test]
    fn last_step_flow_exhausts_the_budget_instead_of_overflowing() {
        // `send_step + 1` used to overflow in `run`'s inferred duration
        let flows = [SpikeFlow::unicast(0, 0, 3, u32::MAX)];
        let mut ev = sim(Box::new(Mesh2D::for_crossbars(4)));
        let mut or = NocSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        let e = ev.run(&flows).unwrap_err();
        assert!(matches!(e, NocError::CycleBudgetExhausted { .. }));
        assert_eq!(e, or.run(&flows).unwrap_err());
    }

    #[test]
    fn a_step_past_the_clock_is_a_typed_error_under_both_engines() {
        // step 2 starts at cycle 2 × (2⁶³ + 1), past u64::MAX: the schedule
        // used to overflow on it (in release it wrapped to cycle 0)
        let cfg = NocConfig {
            cycles_per_step: u64::MAX / 2 + 1,
            ..NocConfig::default()
        };
        assert!(cfg.validate().is_ok());
        let topo = || -> Box<dyn Topology> { Box::new(Mesh2D::for_crossbars(4)) };
        let flows = [
            SpikeFlow::unicast(0, 0, 3, 1),
            SpikeFlow::unicast(1, 1, 2, 2),
        ];
        let e = both_engines(topo, cfg, &flows).unwrap_err();
        assert!(
            matches!(
                e,
                NocError::InvalidConfig {
                    name: "cycles_per_step",
                    ..
                }
            ),
            "{e}"
        );
        // step 1 still starts on the clock: past the budget, as before
        let e = both_engines(topo, cfg, &flows[..1]).unwrap_err();
        assert!(matches!(e, NocError::CycleBudgetExhausted { .. }), "{e}");
        // and a duration past the clock saturates the reported cycles
        let flows = [SpikeFlow::unicast(0, 0, 3, 0)];
        let run = |engine| {
            NocSim::new(topo(), cfg, EnergyModel::default())
                .with_engine(engine)
                .run_with_duration(&flows, u32::MAX)
        };
        let stats = run(EngineKind::EventDriven).unwrap();
        assert_eq!(stats.0.total_cycles, u64::MAX);
        assert_eq!(Ok(stats), run(EngineKind::CycleOracle));
    }

    #[test]
    fn hops_past_the_clock_are_a_typed_error_under_both_engines() {
        // the clock admits the injection at cycle u64::MAX − 5 and its first
        // hop, not the six hops to the far corner of the 4x4 mesh: the
        // loop's `now + flits` used to overflow (in release it wrapped, and
        // the schedule indexed out of bounds)
        let cfg = NocConfig {
            cycles_per_step: u64::MAX - 5,
            max_cycles: u64::MAX,
            ..NocConfig::default()
        };
        assert!(cfg.validate().is_ok());
        let topo = || -> Box<dyn Topology> { Box::new(Mesh2D::for_crossbars(16)) };
        let flows = [SpikeFlow::unicast(0, 0, 15, 1)];
        assert_eq!(
            both_engines(topo, cfg, &flows),
            Err(NocError::CycleBudgetExhausted {
                budget: u64::MAX,
                in_flight: 1
            })
        );
        // one hop still fits
        let flows = [SpikeFlow::unicast(0, 0, 1, 1)];
        let stats = both_engines(topo, cfg, &flows).unwrap();
        assert_eq!(stats.max_latency_cycles, cfg.hop_latency());
    }

    #[test]
    fn a_hop_latency_past_u32_is_a_typed_error_under_both_engines() {
        // router_delay + flits − 1 used to overflow in `hop_latency` (in
        // release it wrapped to a 1-cycle hop)
        let cfg = NocConfig {
            router_delay: u32::MAX,
            ..NocConfig::default()
        };
        let topo = || -> Box<dyn Topology> { Box::new(Mesh2D::for_crossbars(4)) };
        let flows = [SpikeFlow::unicast(0, 0, 3, 0)];
        let e = both_engines(topo, cfg, &flows).unwrap_err();
        assert!(
            matches!(
                e,
                NocError::InvalidConfig {
                    name: "router_delay",
                    ..
                }
            ),
            "{e}"
        );
        assert_eq!(Err(e), cfg.validate());
        // the largest latency that fits is still a latency
        let cfg = NocConfig {
            router_delay: u32::MAX - 1,
            max_cycles: u64::from(u32::MAX) * 8,
            ..NocConfig::default()
        };
        assert_eq!(cfg.hop_latency(), u64::from(u32::MAX));
        let stats = both_engines(topo, cfg, &flows).unwrap();
        // two hops, 0 → 1 → 3
        assert_eq!(stats.max_latency_cycles, 2 * u64::from(u32::MAX));
    }

    #[test]
    fn event_engine_matches_oracle_smoke() {
        // the cross-crate differential proptest corpus is in
        // tests/noc_properties.rs; this is the in-crate smoke version
        let mut flows = Vec::new();
        for step in 0..10u32 {
            for src in 0..8u32 {
                flows.push(SpikeFlow::multicast(
                    src * 31 + step,
                    src,
                    vec![(src + 1) % 8, (src + 3) % 8, (src + 5) % 8],
                    step,
                ));
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let mut or = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default())
            .with_engine(EngineKind::CycleOracle);
        let (es, ed) = ev.run_with_duration(&flows, 10).unwrap();
        let (os, od) = or.run_with_duration(&flows, 10).unwrap();
        assert_eq!(ed, od, "delivery logs must be identical");
        assert_eq!(es, os);
        assert_eq!(
            es.digest().unwrap(),
            os.digest().unwrap(),
            "stats must be byte-identical"
        );
    }

    #[test]
    fn event_trace_off_by_default_and_byte_identical_when_on() {
        let mut flows = Vec::new();
        for step in 0..6u32 {
            for src in 0..8u32 {
                flows.push(SpikeFlow::multicast(
                    src * 19 + step,
                    src,
                    vec![(src + 1) % 8, (src + 5) % 8],
                    step,
                ));
            }
        }
        // off (the default): no trace is retained, stats digest unchanged
        let mut plain = sim(Box::new(Mesh2D::for_crossbars(8)));
        let plain_stats = plain.run(&flows).unwrap();
        assert!(plain.take_trace().is_none(), "tracing is opt-in");

        let cfg = NocConfig {
            trace: true,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        )
        .with_engine(EngineKind::CycleOracle);
        let es = ev.run(&flows).unwrap();
        let os = or.run(&flows).unwrap();
        assert_eq!(
            es.digest().unwrap(),
            plain_stats.digest().unwrap(),
            "tracing must not perturb the statistics"
        );
        let et = ev.take_trace().expect("traced run retains events");
        let ot = or.take_trace().expect("traced run retains events");
        assert!(!et.is_empty());
        assert_eq!(
            et.to_bytes(),
            ot.to_bytes(),
            "engines must emit byte-identical event streams"
        );
        assert_eq!(es.digest().unwrap(), os.digest().unwrap());
        // the stream accounts for every injection and delivery
        let injected = et
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Injected { .. }))
            .count() as u64;
        let delivered = et
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { .. }))
            .count() as u64;
        assert_eq!(injected, es.counters.packets_injected);
        assert_eq!(delivered, es.delivered);
        // a second take returns nothing until the next traced run
        assert!(ev.take_trace().is_none());
    }
}
