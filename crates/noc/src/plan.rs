//! Nets, their forwarding plan, and packets as handles over it.
//!
//! A neuron's synapses are fixed by the mapping, so every spike it fires
//! goes to the same crossbars: the unit the interconnect serves is the
//! **net** — `(source crossbar, destination crossbars)`, the hyperedge
//! `core::traffic` already prices — and a multicast packet splits at the
//! same routers for every spike of its net. So the routing questions are
//! asked once per net, before the run, and never inside it:
//!
//! * [`Nets`] interns a flow set's nets, keyed by the flows' `(source,
//!   destination list)`, in the run's one pass over the flows. A sending
//!   flow is one packet of its net; unicast traffic is a flow per
//!   destination, so a net of one. The same pass cuts the flows into
//!   [`Entry`]s, runs of consecutive flows equal in `(step, source,
//!   neuron, destinations)` — one per spike, or per spike and destination
//!   crossbar under per-synapse traffic — so nothing is stored per flow
//!   and no flow is read again.
//! * [`Plan`] holds, for all of them, what happens to a packet of the net
//!   at every router it reaches. A **node** is "a packet arriving at this
//!   router carrying these destinations": the crossbars delivered there
//!   (`local`) and one **branch** per `(egress port, VC)` slot the rest
//!   leaves by, each naming the node the copy arrives at next. A node's
//!   destinations are one range of a shared arena, listed as
//!   `[local | branch 0 | branch 1 | …]` with every branch's share equal
//!   to its child's range, and every range keeps the flow's relative
//!   order — which is the only order a destination list ever exposed
//!   (delivery order at one router). A node carrying several destinations
//!   is its net's own. Under unicast routing a node carrying one
//!   destination `d` at router `r` is **shared**: the rest of the route
//!   is the same whichever net got there, so the first net to reach
//!   `(r, d)` makes the node and its tail, and every later net's branch
//!   points at it (a net of one destination starts there). So a net's
//!   nodes are not one range of the node list, and its per-packet counts
//!   (handles, link forwards) are kept per net at build time. The route
//!   is asked once per (node, destination): the unicast route
//!   ([`Topology::route_next`] + [`Topology::hop_vc`]) or, under tree
//!   routing, the net's [`Topology::multicast_route`] paths, called once
//!   per net and checked rather than trusted — a tree path is its net's,
//!   so tree plans share no node.
//! * [`Slab`] holds the packets in flight as 32-byte [`Handle`]s,
//!   recycling a handle's id once its copy is delivered. A handle
//!   carries what the loop reads of its packet (spike id, inject cycle,
//!   run entry) and the node it arrives at next; a packet
//!   queued at a router is the **chain** (through `sib`) of one handle per
//!   branch still to leave, made when the packet arrives
//!   ([`Slab::fan_out`]); forwarding through a slot detaches that slot's
//!   member ([`Slab::detach`]) and sends it on. A FIFO lane is an
//!   intrusive list of chains through their first members' `next`.
//!
//! Nothing here knows about time: the plan is a pure function of the
//! topology, the VC count, the routing mode and the nets, and both
//! scheduling policies run over the same one. The cycle oracle still
//! re-derives every want from the topology (`sim::oracle`), so a plan
//! that disagrees with the fabric fails the differential suite.

use std::collections::hash_map;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::NocError;
use crate::sim::Fabric;
use crate::stats::Streams;
use crate::topology::Topology;
use crate::traffic::SpikeFlow;

/// "No handle": the end of a chain or of a lane list.
pub(crate) const NIL: u32 = u32::MAX;

/// Multiply-rotate hasher for net keys (a `u32` and a `[u32]`), and for
/// the keys the statistics intern (streams, destinations, latencies past
/// the dense counts). Traffic that never repeats a net hashes every flow,
/// and SipHash was then a tenth of a short run; nothing here is exposed
/// to chosen keys.
#[derive(Default)]
pub(crate) struct NetHasher(u64);

impl Hasher for NetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(4) {
            let mut le = [0u8; 4];
            le[..word.len()].copy_from_slice(word);
            self.write_u32(u32::from_le_bytes(le));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The distinct nets of a flow set, in first-appearance order, each with
/// its packet count (its crossbars were checked once, when interned); the
/// flow set's run entries; and its steps. Nothing here is stored per flow.
pub(crate) struct Nets<'f> {
    /// `(source crossbar, destinations as the flow lists them)` per net.
    pub(crate) keys: Vec<(u32, &'f [u32])>,
    /// Packets (sending flows) per net.
    packets: Vec<u64>,
    /// The run entries in flow order (until the schedule takes them).
    pub(crate) entries: Vec<Entry>,
    /// The last step a packet is sent in (0 when none is).
    pub(crate) last_step: u32,
    /// One past the last send step of any flow (1 without flows): the
    /// SNN duration [`crate::sim::NocSim::run`] infers.
    pub(crate) steps: u32,
    /// The `(source neuron, destination)` streams of more than one net.
    split: Streams,
}

/// A maximal run of consecutive sending flows equal in `(step, source,
/// neuron, destinations)`: `packets` packets of net `net`, the flows
/// `first..first + packets`. Everything the router loop reads of a packet
/// besides its net's plan is here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Send step.
    pub(crate) step: u32,
    /// Source crossbar.
    pub(crate) src: u32,
    /// Source neuron.
    pub(crate) neuron: u32,
    /// The packets' net.
    pub(crate) net: u32,
    /// Position of the run's first flow in the flow list.
    pub(crate) first: u32,
    /// Flows in the run, one packet each.
    pub(crate) packets: u32,
}

impl<'f> Nets<'f> {
    /// Interns the nets of `flows` in the run's one pass over them: a net
    /// per distinct `(source, destinations)` of a flow that sends, with its
    /// packet count; a run entry per run of equal sending flows (a flow
    /// without destinations ends one); the last step a packet is sent in
    /// and the steps the flows span; the streams that ride more than one
    /// net. Traffic generators emit a neuron's spikes back to back, so a
    /// flow is compared with the one before it first and only a new key is
    /// hashed.
    ///
    /// # Errors
    ///
    /// [`NocError::UnknownCrossbar`] for the first crossbar past
    /// `crossbars` in flow order (destinations in list order, then the
    /// source), checked once per net and per flow without destinations.
    pub(crate) fn intern(crossbars: usize, flows: &'f [SpikeFlow]) -> Result<Self, NocError> {
        let known = |&crossbar: &u32| {
            if (crossbar as usize) < crossbars {
                Ok(())
            } else {
                Err(NocError::UnknownCrossbar {
                    crossbar,
                    available: crossbars,
                })
            }
        };
        let mut nets = Self {
            keys: Vec::new(),
            packets: Vec::new(),
            entries: Vec::new(),
            last_step: 0,
            steps: 1,
            split: Streams::default(),
        };
        let mut ids: HashMap<(u32, &[u32]), u32, BuildHasherDefault<NetHasher>> =
            HashMap::default();
        // the first net each stream was seen on
        let mut first_net: HashMap<(u32, u32), u32, BuildHasherDefault<NetHasher>> =
            HashMap::default();
        let mut prev: Option<(&SpikeFlow, u32)> = None;
        for (f, i) in flows.iter().zip(0u32..) {
            nets.steps = nets.steps.max(f.send_step.saturating_add(1));
            if f.dst_crossbars.is_empty() {
                known(&f.src_crossbar)?;
                continue;
            }
            let net = match prev {
                Some((p, net))
                    if p.src_crossbar == f.src_crossbar && p.dst_crossbars == f.dst_crossbars =>
                {
                    net
                }
                _ => {
                    let key = (f.src_crossbar, &f.dst_crossbars[..]);
                    match ids.entry(key) {
                        hash_map::Entry::Occupied(id) => *id.get(),
                        hash_map::Entry::Vacant(slot) => {
                            key.1.iter().chain([&key.0]).try_for_each(known)?;
                            let id = nets.keys.len() as u32;
                            slot.insert(id);
                            nets.keys.push(key);
                            nets.packets.push(0);
                            id
                        }
                    }
                }
            };
            nets.packets[net as usize] += 1;
            nets.last_step = nets.last_step.max(f.send_step);
            match nets.entries.last_mut() {
                // the flow before this one, equal in every field
                Some(e)
                    if e.first + e.packets == i
                        && (e.step, e.neuron, e.net) == (f.send_step, f.source_neuron, net) =>
                {
                    e.packets += 1;
                }
                _ => nets.entries.push(Entry {
                    step: f.send_step,
                    src: f.src_crossbar,
                    neuron: f.source_neuron,
                    net,
                    first: i,
                    packets: 1,
                }),
            }
            // the same neuron on the same net: its streams are noted
            if prev.is_some_and(|(p, n)| (n, p.source_neuron) == (net, f.source_neuron)) {
                continue;
            }
            prev = Some((f, net));
            for &d in f.dst_crossbars.iter() {
                let stream = (f.source_neuron, d);
                if *first_net.entry(stream).or_insert(net) != net {
                    nets.split.insert(stream);
                }
            }
        }
        Ok(nets)
    }

    /// The `(source neuron, destination crossbar)` streams whose packets
    /// ride more than one net: the only ones that can arrive out of inject
    /// order, on hand-written traffic that sends one neuron from several
    /// crossbars or to several destination sets.
    pub(crate) fn split_streams(&self) -> &Streams {
        &self.split
    }

    /// Number of distinct nets.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// `per_packet(net)` summed over every packet of every net.
    pub(crate) fn per_packet_sum(&self, per_packet: impl Fn(u32) -> u64) -> u64 {
        let nets = self.packets.iter().zip(0..);
        nets.map(|(&packets, net)| packets * per_packet(net)).sum()
    }
}

/// A packet of one net arriving at one router.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node's destinations: `arena[start..end]`.
    start: u32,
    /// `arena[start..local_end]` are delivered at this router.
    local_end: u32,
    end: u32,
    /// The node's branches: `branches[first_branch..][..branch_count]`.
    first_branch: u32,
    branch_count: u32,
}

/// One way out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Branch {
    /// The node the copy arrives at, one hop on.
    pub(crate) child: u32,
    /// The slot it leaves by: `egress port × VCs + VC`.
    pub(crate) bit: u16,
}

/// The forwarding plan of a set of nets (see the module docs).
#[derive(Default)]
pub(crate) struct Plan {
    nodes: Vec<Node>,
    branches: Vec<Branch>,
    /// Destination crossbars, one range per node.
    arena: Vec<u32>,
    /// Per net, what its packets do over the plan.
    nets: Vec<NetPlan>,
    /// Built along multicast trees, not the unicast routes.
    trees: bool,
}

/// What one packet of a net does over the plan, counted at build time:
/// under unicast routing a net's nodes are not one range of the node
/// list, so nothing here can be read off it later.
#[derive(Debug, Clone, Copy)]
struct NetPlan {
    /// The packet at the source router.
    root: u32,
    /// Handles one spike allocates beyond the injected one (every node
    /// with `b > 1` branches makes `b − 1`).
    extra: u32,
    /// Link forwards: the branches of the net's tree, the branches of a
    /// shared tail included.
    forwards: u64,
}

/// A node a net adds to the plan, while the net is planned.
#[derive(Clone, Copy)]
struct Site {
    router: u32,
    /// Hops from the net's source router.
    depth: u32,
    /// Link forwards from here to the node's last delivery.
    below: u64,
}

/// The `egress port × VCs + VC` slot the unicast route from router `r`
/// toward the other router `dst` leaves by.
///
/// # Errors
///
/// [`NocError::InvalidConfig`] `{ name: "topology" }` when
/// [`Topology::route_next`] does not name a neighbor of `r`.
fn unicast_slot(topo: &dyn Topology, vcs: usize, r: usize, dst: usize) -> Result<u32, NocError> {
    let next = topo.route_next(r, dst);
    let port = topo.neighbors(r).iter().position(|&n| n == next);
    let port = port.ok_or_else(|| NocError::InvalidConfig {
        name: "topology",
        value: format!(
            "the route from router {r} toward {dst} steps to {next}, not a neighbor of {r}"
        ),
    })?;
    let vc = if vcs == 1 {
        0
    } else {
        topo.hop_vc(r, dst, vcs)
    };
    Ok((port * vcs + vc) as u32)
}

/// Per-destination hop slots of one net's multicast tree.
#[derive(Default)]
struct TreeHops {
    dest_routers: Vec<usize>,
    /// `bits[off[j]..off[j + 1]]`: the slot destination `j` leaves by at
    /// each hop of its path.
    off: Vec<u32>,
    bits: Vec<u16>,
}

impl TreeHops {
    /// Asks the topology for the tree of `(src_router, dests)` and turns
    /// its paths into slots. [`Topology::multicast_route`] is
    /// implementable outside this crate, so what it returns is checked,
    /// not trusted: one path per destination, every hop a `(link, VC)` of
    /// the fabric, every path ending at its destination's router.
    fn load(
        &mut self,
        topo: &dyn Topology,
        vcs: usize,
        src_router: usize,
        dests: &[u32],
        endpoint_of: &[u32],
    ) -> Result<(), String> {
        self.dest_routers.clear();
        self.dest_routers
            .extend(dests.iter().map(|&d| endpoint_of[d as usize] as usize));
        let paths = topo.multicast_route(src_router, &self.dest_routers, vcs);
        if paths.len() != dests.len() {
            return Err(format!(
                "{} paths for {} destinations",
                paths.len(),
                dests.len()
            ));
        }
        self.off.clear();
        self.bits.clear();
        for ((path, &d), &dest_router) in paths.iter().zip(dests).zip(&self.dest_routers) {
            self.off.push(self.bits.len() as u32);
            let mut cur = src_router;
            for &(next, vc) in path {
                let port = topo
                    .neighbors(cur)
                    .iter()
                    .position(|&n| n == next)
                    .filter(|_| vc < vcs)
                    .ok_or_else(|| {
                        format!("hop {cur} -> {next} on VC {vc} is not a (link, VC) of the fabric")
                    })?;
                self.bits.push((port * vcs + vc) as u16);
                cur = next;
            }
            if cur != dest_router {
                return Err(format!(
                    "the path to crossbar {d} ends at router {cur}, not {dest_router}"
                ));
            }
        }
        self.off.push(self.bits.len() as u32);
        Ok(())
    }

    /// The slot destination `j` leaves by after `depth` hops. A checked
    /// path ends at its destination's router, where the destination is
    /// delivered, so no caller asks past the end.
    fn bit(&self, j: u32, depth: u32) -> u16 {
        self.bits[(self.off[j as usize] + depth) as usize]
    }
}

impl Plan {
    /// Plans every net of `nets` over `topo` as `fabric` numbers it: along
    /// the unicast routes, or along [`Topology::multicast_route`] trees
    /// when `trees` is set. Slots fit a `u16` (`Fabric::new` checked).
    ///
    /// Under unicast routing the rest of a route depends only on where
    /// the packet is and what it still carries, so a node carrying one
    /// destination `d` at router `r` is made once, by the first net that
    /// reaches `(r, d)`, and every later net's branch there points at it:
    /// each destination's tail from each router is planned once per run.
    /// A tree path belongs to its net, so tree plans share nothing.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] `{ name: "multicast_route" }` for tree
    /// paths that are not link walks to their destinations, and — a
    /// packet that has made as many hops as there are routers has been
    /// somewhere twice — for a tree path that long; `{ name: "topology" }`
    /// for a unicast route that long (it never arrives), or that meets a
    /// one-destination node its own net made (it is going round).
    pub(crate) fn build(
        topo: &dyn Topology,
        fabric: &Fabric,
        trees: bool,
        nets: &Nets<'_>,
    ) -> Result<Self, NocError> {
        let (nr, vcs, endpoint_of) = (fabric.routers(), fabric.vcs, &fabric.endpoints);
        let mut plan = Plan {
            nodes: Vec::new(),
            branches: Vec::new(),
            arena: Vec::with_capacity(nets.keys.iter().map(|(_, d)| d.len()).sum()),
            nets: Vec::with_capacity(nets.len()),
            trees,
        };
        // under unicast routing: the node carrying only crossbar `d` at
        // router `r`, by `(r, d)`, and the link forwards of its tail
        let mut tails: HashMap<(u32, u32), (u32, u32), BuildHasherDefault<NetHasher>> =
            HashMap::default();
        // scratch, reused by every net: a site per node the net adds; the
        // net-list position of every arena entry (which tree path is
        // its); the range being grouped; the tree
        let mut sites: Vec<Site> = Vec::new();
        let mut position: Vec<u32> = Vec::new();
        let mut keyed: Vec<(u32, u32, u32)> = Vec::new();
        let mut tree = TreeHops::default();
        for &(src, dests) in &nets.keys {
            let src_router = endpoint_of[src as usize];
            // what is wrong with this net's route, as the error naming it
            let bad_route = |what: String| NocError::InvalidConfig {
                name: if trees { "multicast_route" } else { "topology" },
                value: format!("net of crossbar {src}: {what}"),
            };
            let one = (!trees && dests.len() == 1).then(|| (src_router, dests[0]));
            // a one-destination net whose root an earlier net made
            if let Some(&(root, forwards)) = one.and_then(|key| tails.get(&key)) {
                plan.nets.push(NetPlan {
                    root,
                    extra: 0,
                    forwards: forwards.into(),
                });
                continue;
            }
            if trees {
                tree.load(topo, vcs, src_router as usize, dests, endpoint_of)
                    .map_err(bad_route)?;
            }
            let base = plan.arena.len();
            plan.arena.extend_from_slice(dests);
            position.clear();
            position.extend(0..dests.len() as u32);
            // the net's own nodes are `first..`: a node below `first` is
            // a tail an earlier net made
            let first = plan.nodes.len();
            if let Some(key) = one {
                tails.insert(key, (first as u32, 0));
            }
            sites.clear();
            sites.push(Site {
                router: src_router,
                depth: 0,
                below: 0,
            });
            plan.nodes.push(Node::unplanned(base, base + dests.len()));
            let mut extra = 0u32;
            // the node list is the work queue: children join at its end
            let mut n = first;
            while n < plan.nodes.len() {
                let Site {
                    router: r, depth, ..
                } = sites[n - first];
                let (start, end) = (plan.nodes[n].start as usize, plan.nodes[n].end as usize);
                // group the range by where it goes from `r`: key 0 stays,
                // key `slot + 1` leaves by that slot; the sort is stable,
                // so every group keeps the flow's order
                keyed.clear();
                for i in start..end {
                    let (d, j) = (plan.arena[i], position[i - base]);
                    let er = endpoint_of[d as usize];
                    let key = if er == r {
                        0
                    } else if trees {
                        1 + u32::from(tree.bit(j, depth))
                    } else {
                        1 + unicast_slot(topo, vcs, r as usize, er as usize)?
                    };
                    keyed.push((key, d, j));
                }
                // (most ranges arrive grouped: one destination, or all of
                // them leaving by one slot)
                if !keyed.is_sorted_by_key(|&(key, ..)| key) {
                    keyed.sort_by_key(|&(key, ..)| key);
                    for (i, &(_, d, j)) in (start..end).zip(&keyed) {
                        plan.arena[i] = d;
                        position[i - base] = j;
                    }
                }
                let first_branch = plan.branches.len();
                let mut g = keyed.iter().take_while(|k| k.0 == 0).count();
                let local_end = start + g;
                while g < keyed.len() {
                    let (key, d, _) = keyed[g];
                    let len = keyed[g..].iter().take_while(|k| k.0 == key).count();
                    let bit = key - 1;
                    if depth as usize + 1 >= nr {
                        return Err(bad_route(format!(
                            "the route to crossbar {d} is still under way after {nr} routers \
                             (it revisits one)"
                        )));
                    }
                    let nbr = fabric.links[fabric.pair_base(r as usize) + bit as usize / vcs].to;
                    let mut child = plan.nodes.len() as u32;
                    if !trees && len == 1 {
                        match tails.entry((nbr, d)) {
                            hash_map::Entry::Vacant(slot) => {
                                slot.insert((child, 0));
                            }
                            // one branch of a net carries `d`, so meeting
                            // its own node for `d` means the route came back
                            hash_map::Entry::Occupied(tail) if tail.get().0 as usize >= first => {
                                return Err(bad_route(format!(
                                    "the route to crossbar {d} comes back to router {nbr}"
                                )));
                            }
                            hash_map::Entry::Occupied(tail) => {
                                let forwards;
                                (child, forwards) = *tail.get();
                                sites[n - first].below += 1 + u64::from(forwards);
                            }
                        }
                    }
                    plan.branches.push(Branch {
                        child,
                        bit: bit as u16,
                    });
                    if child as usize == plan.nodes.len() {
                        sites.push(Site {
                            router: nbr,
                            depth: depth + 1,
                            below: 0,
                        });
                        plan.nodes.push(Node::unplanned(start + g, start + g + len));
                    }
                    g += len;
                }
                let branch_count = (plan.branches.len() - first_branch) as u32;
                extra += branch_count.saturating_sub(1);
                let node = &mut plan.nodes[n];
                node.local_end = local_end as u32;
                node.first_branch = first_branch as u32;
                node.branch_count = branch_count;
                n += 1;
            }
            // the link forwards below each node the net made, children
            // (made after their parents) first; a shared tail keeps its own
            for n in (first..plan.nodes.len()).rev() {
                let mut below = sites[n - first].below;
                for b in plan.branches(n as u32) {
                    if let Some(child) = (b.child as usize).checked_sub(first) {
                        below += 1 + sites[child].below;
                    }
                }
                sites[n - first].below = below;
                let node = plan.nodes[n];
                if !trees && node.end - node.start == 1 {
                    let key = (sites[n - first].router, plan.arena[node.start as usize]);
                    // a one-destination tail is a path: fewer hops than routers
                    tails.get_mut(&key).expect("interned when made").1 = below as u32;
                }
            }
            plan.nets.push(NetPlan {
                root: first as u32,
                extra,
                forwards: sites[0].below,
            });
        }
        Ok(plan)
    }

    /// The root node of `net`: its packet at the source router.
    pub(crate) fn root(&self, net: u32) -> u32 {
        self.nets[net as usize].root
    }

    /// Handles one spike of `net` allocates beyond its injected one.
    pub(crate) fn extra_handles(&self, net: u32) -> u32 {
        self.nets[net as usize].extra
    }

    /// Link forwards one packet of `net` makes: one per branch of its
    /// tree, a shared tail's included.
    pub(crate) fn forwards(&self, net: u32) -> u64 {
        self.nets[net as usize].forwards
    }

    /// Whether the plan follows [`Topology::multicast_route`] trees — the
    /// one case where the unicast route does not describe its branches.
    pub(crate) fn follows_trees(&self) -> bool {
        self.trees
    }

    /// Nodes over all nets, a shared node once.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes over every net's tree, a shared node once per net that
    /// reaches it: what the plan would hold if it shared nothing.
    pub(crate) fn net_node_count(&self) -> u64 {
        self.nets.iter().map(|n| n.forwards + 1).sum()
    }

    /// Of [`Self::net_node_count`], the nodes that carry one destination
    /// under unicast routing — the ones the plan shares. Every other node
    /// is one net's, and a tree plan shares none.
    pub(crate) fn shared_net_node_count(&self) -> u64 {
        if self.trees {
            return 0;
        }
        let own = self.nodes.iter().filter(|n| n.end - n.start > 1).count();
        self.net_node_count() - own as u64
    }

    /// Every destination a packet arriving at `node` still carries, the
    /// ones delivered there first.
    #[inline]
    pub(crate) fn dests(&self, node: u32) -> &[u32] {
        let n = &self.nodes[node as usize];
        &self.arena[n.start as usize..n.end as usize]
    }

    /// The crossbars delivered where `node` sits, in the flow's order.
    #[inline]
    pub(crate) fn local(&self, node: u32) -> &[u32] {
        let n = &self.nodes[node as usize];
        &self.arena[n.start as usize..n.local_end as usize]
    }

    /// The ways out of `node`, slots distinct; empty at a leaf.
    #[inline]
    pub(crate) fn branches(&self, node: u32) -> &[Branch] {
        let n = &self.nodes[node as usize];
        &self.branches[n.first_branch as usize..][..n.branch_count as usize]
    }
}

impl Node {
    /// A node whose range is known and whose split is not yet.
    fn unplanned(start: usize, end: usize) -> Self {
        Node {
            start: start as u32,
            local_end: start as u32,
            end: end as u32,
            first_branch: 0,
            branch_count: 0,
        }
    }
}

/// One copy of a spike, in flight or queued: what the router loop reads
/// of its packet, and where the copy is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle {
    /// Cycle the packet entered the network (after AER encoding).
    pub(crate) inject_cycle: u64,
    /// Id of the originating spike event in canonical flow order (every
    /// copy of one packet shares it; traced only).
    pub(crate) spike: u32,
    /// The packet's run entry, as the schedule numbers them: its source
    /// neuron, source crossbar and send step.
    pub(crate) entry: u32,
    /// The node this copy arrives at next.
    pub(crate) node: u32,
    /// On the first member of a queued chain: the first member of the
    /// chain queued behind it on the lane ([`NIL`] at the tail). On a
    /// released handle: the next free one.
    pub(crate) next: u32,
    /// The next member of this copy's chain ([`NIL`] at the end).
    pub(crate) sib: u32,
    /// The slot this copy leaves its router by (unset until it queues).
    pub(crate) bit: u16,
}

impl Handle {
    /// The copy of spike `spike` of run entry `entry` injected at
    /// `inject_cycle`, about to arrive at its net's root `node`.
    pub(crate) fn injected(spike: u32, entry: u32, inject_cycle: u64, node: u32) -> Self {
        Handle {
            inject_cycle,
            spike,
            entry,
            node,
            next: NIL,
            sib: NIL,
            bit: 0,
        }
    }
}

/// The handles of the packets in flight. A handle is allocated at
/// injection and for every fan-out branch past the first, and released
/// once its copy's last destination is delivered; released ids are
/// reused last-in first-out, so the slab holds as many handles as were
/// ever in flight at once, not as many as were sent.
pub(crate) struct Slab {
    handles: Vec<Handle>,
    /// First released handle ([`NIL`]: none); the rest follow through
    /// their `next` links.
    free: u32,
    live: usize,
    peak: usize,
    allocated: u64,
}

impl Default for Slab {
    fn default() -> Self {
        Slab {
            handles: Vec::new(),
            free: NIL,
            live: 0,
            peak: 0,
            allocated: 0,
        }
    }
}

impl Slab {
    /// Stores `handle` under a free id (the last released one, if any).
    #[inline]
    pub(crate) fn alloc(&mut self, handle: Handle) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        self.allocated += 1;
        if self.free == NIL {
            self.handles.push(handle);
            return self.handles.len() as u32 - 1;
        }
        let id = self.free;
        self.free = self.handles[id as usize].next;
        self.handles[id as usize] = handle;
        id
    }

    /// Gives `h` back: its copy has delivered its last destination.
    #[inline]
    pub(crate) fn release(&mut self, h: u32) {
        debug_assert!(self.live > 0, "a release without an allocation");
        self.handles[h as usize].next = self.free;
        self.free = h;
        self.live -= 1;
    }

    /// The handle `h`.
    #[inline]
    pub(crate) fn get(&self, h: u32) -> &Handle {
        &self.handles[h as usize]
    }

    /// Handles allocated and not yet released.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The most handles ever live at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Allocations over the slab's life.
    pub(crate) fn allocated(&self) -> u64 {
        self.allocated
    }

    /// The packet `h` arrived somewhere it does not end: it becomes the
    /// chain of `branches` (not empty), one member per branch in order.
    /// The first member reuses `h`, so a packet that never splits never
    /// allocates.
    #[inline]
    pub(crate) fn fan_out(&mut self, h: u32, branches: &[Branch]) {
        let Handle {
            inject_cycle,
            spike,
            entry,
            ..
        } = self.handles[h as usize];
        let member = |b: &Branch| Handle {
            inject_cycle,
            spike,
            entry,
            node: b.child,
            next: NIL,
            sib: NIL,
            bit: b.bit,
        };
        self.handles[h as usize] = member(&branches[0]);
        let mut last = h;
        for b in &branches[1..] {
            let id = self.alloc(member(b));
            self.handles[last as usize].sib = id;
            last = id;
        }
    }

    /// The members of the chain whose first member is `first`.
    #[inline]
    pub(crate) fn chain(&self, first: u32) -> impl Iterator<Item = &Handle> + '_ {
        let mut at = first;
        std::iter::from_fn(move || {
            let member = self.handles.get(at as usize)?;
            at = member.sib;
            Some(member)
        })
    }

    /// Takes the member leaving by `bit` out of the chain starting at
    /// `first`, if there is one. Returns it and the chain's first member
    /// afterwards: `first` still, the next sibling when `first` itself
    /// left (the lane link moves over with it), [`NIL`] when the chain had
    /// no one else — then `first`'s lane link is the caller's to follow.
    #[inline]
    pub(crate) fn detach(&mut self, first: u32, bit: usize) -> Option<(u32, u32)> {
        let head = self.handles[first as usize];
        if usize::from(head.bit) == bit {
            if head.sib != NIL {
                self.handles[head.sib as usize].next = head.next;
            }
            return Some((first, head.sib));
        }
        let (mut before, mut at) = (first, head.sib);
        while at != NIL {
            let member = self.handles[at as usize];
            if usize::from(member.bit) == bit {
                self.handles[before as usize].sib = member.sib;
                return Some((at, first));
            }
            (before, at) = (at, member.sib);
        }
        None
    }

    /// Queues the chain `h` behind the chain `tail` on a lane.
    #[inline]
    pub(crate) fn link_after(&mut self, tail: u32, h: u32) {
        self.handles[tail as usize].next = h;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sched::Sched;
    use crate::sim::{oracle::Sweep, Fabric};
    use crate::topology::{HierTopology, Mesh2D, NocTree, Star, Torus};
    use std::sync::Arc;

    /// Four routers in a line, three crossbars on each — the shape no
    /// built-in topology has, and the only one where `local` holds more
    /// than one crossbar.
    struct SharedLine;

    impl Topology for SharedLine {
        fn num_routers(&self) -> usize {
            4
        }
        fn num_crossbars(&self) -> usize {
            12
        }
        fn endpoint(&self, k: u32) -> usize {
            k as usize / 3
        }
        fn neighbors(&self, r: usize) -> &[usize] {
            [&[1][..], &[0, 2], &[1, 3], &[2]][r]
        }
        fn route_next(&self, r: usize, dst: usize) -> usize {
            match r.cmp(&dst) {
                std::cmp::Ordering::Less => r + 1,
                std::cmp::Ordering::Equal => r,
                std::cmp::Ordering::Greater => r - 1,
            }
        }
        fn name(&self) -> String {
            "shared line".into()
        }
    }

    /// `flows` with every destination split off into a flow of its own,
    /// in list order: unicast delivery of the same spikes.
    pub(crate) fn single_destination(flows: &[SpikeFlow]) -> Vec<SpikeFlow> {
        let mut split = Vec::new();
        for f in flows {
            for &d in f.dst_crossbars.iter() {
                split.push(SpikeFlow {
                    dst_crossbars: [d].into(),
                    ..f.clone()
                });
            }
        }
        split
    }

    /// Random multicast flows with duplicate and self destinations, a few
    /// of them repeated back to back and later on.
    fn random_flows(crossbars: u32, seed: u64) -> Vec<SpikeFlow> {
        let mut x = seed | 1;
        let mut draw = move |below: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) as u32 % below
        };
        let mut flows: Vec<SpikeFlow> = (0..40)
            .map(|n| SpikeFlow {
                source_neuron: n,
                src_crossbar: draw(crossbars),
                dst_crossbars: (0..1 + draw(7)).map(|_| draw(crossbars)).collect(),
                send_step: 0,
            })
            .collect();
        flows.insert(3, flows[2].clone());
        flows.push(flows[5].clone());
        flows
    }

    /// Walks net `net` of `plan` from its root and checks every node
    /// against the fabric. `carried` is what the node must carry, in the
    /// flow's order, as `(crossbar, position in the flow's list)`.
    /// Returns the nodes walked, this one included.
    #[allow(clippy::too_many_arguments)]
    fn check_node(
        plan: &Plan,
        topo: &dyn Topology,
        vcs: usize,
        paths: Option<&[Vec<(usize, usize)>]>,
        walk: &Sweep,
        (node, r, depth): (u32, usize, usize),
        carried: &[(u32, usize)],
        extra: &mut u32,
    ) -> u64 {
        let what = format!("{} at router {r}, depth {depth}", topo.name());
        let here = |&&(d, _): &&(u32, usize)| topo.endpoint(d) == r;
        let local: Vec<u32> = carried.iter().filter(here).map(|&(d, _)| d).collect();
        assert_eq!(plan.local(node), local, "{what}: local is the flow's order");
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(plan.dests(node).to_vec()),
            sorted(carried.iter().map(|&(d, _)| d).collect()),
            "{what}: the node carries what reaches it"
        );
        // range = local ++ children's ranges, slots distinct
        let branches = plan.branches(node);
        let mut range = local.clone();
        for b in branches {
            range.extend_from_slice(plan.dests(b.child));
        }
        assert_eq!(plan.dests(node), range, "{what}");
        let mut bits: Vec<u16> = branches.iter().map(|b| b.bit).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), branches.len(), "{what}: slots are distinct");
        if branches.is_empty() {
            assert_eq!(
                plan.dests(node),
                local,
                "{what}: a leaf delivers everything"
            );
        }
        *extra += (branches.len() as u32).saturating_sub(1);
        // every remote destination leaves by the slot the fabric names
        let slot_of = |&(d, j): &(u32, usize)| match paths {
            Some(paths) => {
                let (next, vc) = paths[j][depth];
                let port = topo.neighbors(r).iter().position(|&n| n == next);
                port.expect("a link") * vcs + vc
            }
            None => walk.route_bit(r, d),
        };
        let remote: Vec<(u32, usize)> = carried.iter().filter(|c| !here(c)).copied().collect();
        for c in &remote {
            let slot = slot_of(c);
            assert!(
                branches.iter().any(|b| usize::from(b.bit) == slot),
                "{what}: no branch for crossbar {} by slot {slot}",
                c.0
            );
        }
        let mut walked = 1;
        for b in branches {
            let share: Vec<(u32, usize)> = remote
                .iter()
                .filter(|c| slot_of(c) == usize::from(b.bit))
                .copied()
                .collect();
            assert!(!share.is_empty(), "{what}: a branch nobody takes");
            // the child sits on the neighbor the slot names
            let nbr = topo.neighbors(r)[usize::from(b.bit) / vcs];
            let at = (b.child, nbr, depth + 1);
            walked += check_node(plan, topo, vcs, paths, walk, at, &share, extra);
        }
        walked
    }

    #[test]
    fn plans_follow_the_fabric_on_every_topology() {
        let fabrics: Vec<(Arc<dyn Topology>, usize, bool)> = vec![
            (Arc::new(Mesh2D::for_crossbars(16)), 1, false),
            (Arc::new(Mesh2D::for_crossbars(16)), 1, true),
            (Arc::new(Torus::for_crossbars(16)), 2, false),
            (Arc::new(Torus::for_crossbars(16)), 2, true),
            (Arc::new(NocTree::new(8, 2)), 1, false),
            (Arc::new(Star::new(9)), 1, false),
            (
                Arc::new(HierTopology::mesh(2, 2, 2, 2, 16, 3, 2).expect("valid")),
                2,
                false,
            ),
            (Arc::new(SharedLine), 1, false),
            (Arc::new(SharedLine), 2, true),
        ];
        for (topo, vcs, trees) in fabrics {
            let fabric = Arc::new(Fabric::new(topo.as_ref(), vcs).expect("valid"));
            // the oracle's from-scratch walk: what every branch slot must equal
            let walk = Sweep::build(&topo, &fabric, false);
            let topo = topo.as_ref();
            let crossbars = topo.num_crossbars();
            let flows = random_flows(crossbars as u32, 0x5eed + vcs as u64);
            for flows in [flows.clone(), single_destination(&flows)] {
                let nets = Nets::intern(crossbars, &flows).expect("known crossbars");
                let plan = Plan::build(topo, &fabric, trees, &nets).expect("plans");
                assert_eq!(plan.nets.len(), nets.len());
                for (net, &(src, dests)) in nets.keys.iter().enumerate() {
                    let src_router = topo.endpoint(src);
                    let routers: Vec<usize> = dests.iter().map(|&d| topo.endpoint(d)).collect();
                    let paths = trees.then(|| topo.multicast_route(src_router, &routers, vcs));
                    let carried: Vec<(u32, usize)> =
                        dests.iter().copied().zip(0..dests.len()).collect();
                    let mut extra = 0;
                    let at = (plan.root(net as u32), src_router, 0);
                    let walked = check_node(
                        &plan,
                        topo,
                        vcs,
                        paths.as_deref(),
                        &walk,
                        at,
                        &carried,
                        &mut extra,
                    );
                    assert_eq!(plan.extra_handles(net as u32), extra);
                    assert_eq!(
                        plan.forwards(net as u32),
                        walked - 1,
                        "a packet makes a forward per node of its tree past the root"
                    );
                }
            }
        }
    }

    #[test]
    fn unicast_plans_share_one_destination_tails_across_nets() {
        // a 4 × 4 mesh: every other crossbar sends to the far corner, and
        // two multicast nets split off a branch toward it on the way
        let topo = Mesh2D::for_crossbars(16);
        let vcs = 2;
        let fabric = Fabric::new(&topo, vcs).expect("valid");
        let far = 15;
        let mut flows: Vec<SpikeFlow> = (0..far)
            .map(|src| SpikeFlow::unicast(src, src, far, 0))
            .collect();
        flows.push(SpikeFlow::multicast(20, 0, vec![far, 12, 3], 1));
        flows.push(SpikeFlow::multicast(21, 4, vec![far, 7], 1));
        let nets = Nets::intern(16, &flows).expect("known crossbars");
        for trees in [false, true] {
            let plan = Plan::build(&topo, &fabric, trees, &nets).expect("plans");
            // walk every net's tree: a node carrying one destination is
            // the pair (router, destination), any other is the net's own
            let (mut walked_total, mut own) = (0, 0);
            let mut pairs = std::collections::HashSet::new();
            for (net, &(src, _)) in nets.keys.iter().enumerate() {
                let net = net as u32;
                let mut walked = 0;
                let mut stack = vec![(plan.root(net), topo.endpoint(src))];
                while let Some((node, r)) = stack.pop() {
                    walked += 1;
                    match plan.dests(node) {
                        &[d] => _ = pairs.insert((r, d)),
                        _ => own += 1,
                    }
                    for b in plan.branches(node) {
                        let nbr = topo.neighbors(r)[usize::from(b.bit) / vcs];
                        stack.push((b.child, nbr));
                    }
                }
                assert_eq!(plan.forwards(net), walked - 1, "net {net}");
                walked_total += walked;
            }
            assert_eq!(plan.net_node_count(), walked_total);
            let shared = walked_total - own;
            if trees {
                // a tree path belongs to its net: nothing is shared
                assert_eq!(plan.node_count() as u64, walked_total);
                assert_eq!(plan.shared_net_node_count(), 0);
                continue;
            }
            assert_eq!(plan.node_count(), own as usize + pairs.len());
            assert_eq!(plan.shared_net_node_count(), shared);
            // one node toward the far corner per router, however many
            // nets pass it (every router is on some XY route there)
            let toward_far = pairs.iter().filter(|&&(_, d)| d == far).count();
            assert_eq!(toward_far, 16);
            assert!(plan.node_count() as u64 * 2 < walked_total);
            // a unicast net's forwards are its route's hops: XY on the mesh
            for (net, &(src, _)) in nets.keys.iter().enumerate().take(far as usize) {
                let (x, y) = (src % 4, src / 4);
                let hops = (3 - x) + (3 - y);
                assert_eq!(plan.forwards(net as u32), u64::from(hops), "from {src}");
            }
        }
    }

    #[test]
    fn equal_flows_share_a_net() {
        let flow = |src: u32, dsts: &[u32], step: u32| SpikeFlow {
            source_neuron: 0,
            src_crossbar: src,
            dst_crossbars: dsts.into(),
            send_step: step,
        };
        // interleaved keys, a repeated one, and an empty one sent last
        let flows = [
            flow(0, &[3, 1], 2),
            flow(0, &[3, 1], 5),
            flow(0, &[1, 3], 1),
            flow(2, &[], 9),
            flow(0, &[3, 1], 3),
            flow(1, &[3, 1], 0),
        ];
        let nets = Nets::intern(4, &flows).expect("known crossbars");
        assert_eq!(
            nets.len(),
            3,
            "order is part of a net: it is the delivery order"
        );
        // the per-net totals are the per-flow sums over the sending flows
        assert_eq!(nets.packets, [3, 1, 1]);
        assert_eq!(nets.per_packet_sum(|_| 1), 5);
        assert_eq!(nets.per_packet_sum(u64::from), 1 + 2);
        assert_eq!(
            nets.last_step, 5,
            "a flow without destinations sends nothing"
        );
        // a run entry per run of equal sending flows: a new step starts
        // one, and the silent flow rides none
        let net_of = |flow: u32| {
            let mut runs = nets.entries.iter();
            runs.find(|e| (e.first..e.first + e.packets).contains(&flow))
                .map(|e| e.net)
        };
        assert_eq!(nets.entries.len(), 5);
        assert_eq!([0, 1, 2, 4, 5].map(net_of), [0, 0, 1, 0, 2].map(Some));
        assert_eq!(net_of(3), None, "no destination, no packet");
    }

    /// Fans a packet injected into `slab` out over slots 4, 1, 7, 2, 9
    /// (children 10..15) and returns the chain's first member.
    fn five_way_chain(slab: &mut Slab) -> u32 {
        let branches: Vec<Branch> = [4u16, 1, 7, 2, 9]
            .iter()
            .zip(10..)
            .map(|(&bit, child)| Branch { child, bit })
            .collect();
        let h = slab.alloc(Handle::injected(0, 0, 0, 3));
        slab.fan_out(h, &branches);
        h
    }

    fn bits(slab: &Slab, first: u32) -> Vec<u16> {
        slab.chain(first).map(|m| m.bit).collect()
    }

    #[test]
    fn detach_keeps_relative_order_on_both_sides() {
        let mut slab = Slab::default();
        assert_eq!(five_way_chain(&mut slab), 0);
        assert_eq!(bits(&slab, 0), [4, 1, 7, 2, 9]);
        assert_eq!(
            (slab.allocated(), slab.live()),
            (5, 5),
            "the first member reuses the arriving handle"
        );
        // a middle member, the last, then the first: the rest keeps its order
        let (member, first) = slab.detach(0, 7).expect("a member");
        assert_eq!(
            (slab.get(member).bit, slab.get(member).node, first),
            (7, 12, 0)
        );
        assert_eq!(bits(&slab, first), [4, 1, 2, 9]);
        let (member, first) = slab.detach(first, 9).expect("a member");
        assert_eq!((slab.get(member).node, first), (14, 0));
        assert_eq!(bits(&slab, first), [4, 1, 2]);
        // the lane link moves over when the first member leaves
        slab.link_after(0, 77);
        let (member, first) = slab.detach(first, 4).expect("a member");
        assert_eq!((member, slab.get(member).node), (0, 10));
        assert_eq!(bits(&slab, first), [1, 2]);
        assert_eq!(slab.get(first).next, 77);
        let (_, first) = slab.detach(first, 2).expect("a member");
        assert_eq!(bits(&slab, first), [1]);
        // the last one out leaves nothing, and its lane link is intact
        let (member, rest) = slab.detach(first, 1).expect("a member");
        assert_eq!((member, rest), (first, NIL));
        assert_eq!(slab.get(member).next, 77);
        assert!(slab.chain(rest).next().is_none());
    }

    #[test]
    fn detach_without_a_match_leaves_the_chain_intact() {
        let mut slab = Slab::default();
        let first = five_way_chain(&mut slab);
        assert_eq!(slab.detach(first, 3), None);
        assert_eq!(bits(&slab, first), [4, 1, 7, 2, 9]);
        let children: Vec<u32> = slab.chain(first).map(|m| m.node).collect();
        assert_eq!(children, [10, 11, 12, 13, 14]);
    }

    /// Detaches slots 7, 9, 4, 2, 1 in turn from the chain starting at
    /// `first`, releasing each member, and returns `(slot, node)` per
    /// member and the chain left after each detach.
    fn drain(slab: &mut Slab, mut first: u32) -> Vec<((u16, u32), Vec<u16>)> {
        let mut seen = Vec::new();
        for bit in [7, 9, 4, 2, 1] {
            let (member, rest) = slab.detach(first, bit).expect("a member");
            let m = *slab.get(member);
            seen.push(((m.bit, m.node), bits(slab, rest)));
            slab.release(member);
            first = rest;
        }
        seen
    }

    #[test]
    fn released_ids_are_reused_and_chains_over_them_detach_alike() {
        let mut slab = Slab::default();
        let fresh = five_way_chain(&mut slab);
        let order = drain(&mut slab, fresh);
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.peak(), 5);
        // the last released id is handed out first, and nothing grows
        let again = five_way_chain(&mut slab);
        let ids: Vec<u32> = std::iter::successors(Some(again), |&h| {
            Some(slab.get(h).sib).filter(|&s| s != NIL)
        })
        .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4], "every id is a released one");
        assert_ne!(ids, [0, 1, 2, 3, 4], "reused last-in first-out: {ids:?}");
        assert_eq!(slab.handles.len(), 5);
        assert_eq!((slab.allocated(), slab.live(), slab.peak()), (10, 5, 5));
        assert_eq!(drain(&mut slab, again), order);
        assert_eq!(slab.live(), 0);
    }
}
