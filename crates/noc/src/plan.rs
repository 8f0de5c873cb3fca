//! Nets, their forwarding plan, and packets as handles over it.
//!
//! A neuron's synapses are fixed by the mapping, so every spike it fires
//! goes to the same crossbars: the unit the interconnect serves is the
//! **net** — `(source crossbar, destination crossbars)`, the hyperedge
//! `core::traffic` already prices — and a multicast packet splits at the
//! same routers for every spike of its net. So the routing questions are
//! asked once per net, before the run, and never inside it:
//!
//! * [`Nets`] interns a flow set's nets (one per `(source, destination)`
//!   pair when multicast is off).
//! * [`Plan`] holds, for all of them, what happens to a packet of the net
//!   at every router it reaches. A **node** is "a packet of this net
//!   arriving at this router": the crossbars delivered there (`local`)
//!   and one **branch** per `(egress port, VC)` slot the rest leaves by,
//!   each naming the node the copy arrives at next. A node's destinations
//!   are one contiguous range `[local | branch 0 | branch 1 | …]` of a
//!   shared arena, every branch's share being its child's whole range,
//!   and every range keeps the flow's relative order — which is the only
//!   order a destination list ever exposed (delivery order at one router).
//!   The route is asked once per (node, destination): the unicast route
//!   ([`Topology::route_next`] + [`Topology::hop_vc`], remembered per
//!   router pair) or, under tree routing, the net's
//!   [`Topology::multicast_route`] paths, called once per net and checked
//!   rather than trusted.
//! * [`Slab`] holds the packets of the run as 20-byte [`Handle`]s. A
//!   handle names its spike and the node it arrives at next; a packet
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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::NocError;
use crate::topology::Topology;
use crate::traffic::SpikeFlow;

/// "No handle": the end of a chain or of a lane list.
pub(crate) const NIL: u32 = u32::MAX;

/// Multiply-rotate hasher for net keys (a `u32` and a `[u32]`), and for
/// the `u32` ids the statistics group a delivery log by. Traffic that
/// never repeats a net hashes every flow, and SipHash was then a tenth
/// of a short run; nothing here is exposed to chosen keys.
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

/// The distinct nets of a flow set, in first-appearance order.
pub(crate) struct Nets<'f> {
    /// `(source crossbar, destinations as the flow lists them)` per net.
    keys: Vec<(u32, &'f [u32])>,
    /// Per flow, where its packets' net ids start in `ids`.
    first: Vec<u32>,
    /// Net id per packet of a flow: one per flow under multicast, one per
    /// destination otherwise. A flow equal to its predecessor shares the
    /// predecessor's entries.
    ids: Vec<u32>,
}

impl<'f> Nets<'f> {
    /// Interns the nets of `flows`. Traffic generators emit a neuron's
    /// spikes back to back, so a flow is compared with the one before it
    /// first and only a new `(source, destinations)` pair is hashed.
    pub(crate) fn intern(flows: &'f [SpikeFlow], multicast: bool) -> Self {
        let mut nets = Self {
            keys: Vec::new(),
            first: Vec::with_capacity(flows.len()),
            ids: Vec::new(),
        };
        let mut seen: HashMap<(u32, &'f [u32]), u32, BuildHasherDefault<NetHasher>> =
            HashMap::default();
        let mut prev: Option<&SpikeFlow> = None;
        for f in flows {
            if let Some(p) = prev {
                if p.src_crossbar == f.src_crossbar && p.dst_crossbars == f.dst_crossbars {
                    nets.first
                        .push(*nets.first.last().expect("a previous flow"));
                    continue;
                }
            }
            prev = Some(f);
            nets.first.push(nets.ids.len() as u32);
            let dests = &f.dst_crossbars[..];
            let per_packet = if multicast { dests.len().max(1) } else { 1 };
            for net in dests.chunks(per_packet) {
                let fresh = nets.keys.len() as u32;
                let id = *seen.entry((f.src_crossbar, net)).or_insert(fresh);
                if id == fresh {
                    nets.keys.push((f.src_crossbar, net));
                }
                nets.ids.push(id);
            }
        }
        nets
    }

    /// Net of packet `packet` of flow `flow` (packet 0 under multicast,
    /// the destination's position otherwise).
    pub(crate) fn of(&self, flow: usize, packet: usize) -> u32 {
        self.ids[self.first[flow] as usize + packet]
    }

    /// Number of distinct nets.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
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
    /// Per net: its root node (the packet at the source router), and how
    /// many handles one spike of it allocates beyond the injected one
    /// (every node with `b > 1` branches makes `b − 1`).
    roots: Vec<(u32, u32)>,
    /// Built along multicast trees, not the unicast routes.
    trees: bool,
}

/// The unicast route as slots, asked of the topology once per (router,
/// destination router) pair a plan actually meets.
struct UnicastSlots {
    nr: usize,
    /// `slot + 1` by `r × nr + dst`; 0 = not asked yet.
    known: Vec<u32>,
}

impl UnicastSlots {
    fn new(nr: usize) -> Self {
        Self {
            nr,
            known: vec![0; nr * nr],
        }
    }

    /// The `egress port × VCs + VC` slot the route from router `r` toward
    /// the other router `dst` leaves by.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] `{ name: "topology" }` when
    /// [`Topology::route_next`] does not name a neighbor of `r`.
    #[inline]
    fn get(
        &mut self,
        topo: &dyn Topology,
        vcs: usize,
        r: usize,
        dst: usize,
    ) -> Result<u32, NocError> {
        let known = &mut self.known[r * self.nr + dst];
        if *known == 0 {
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
            *known = 1 + (port * vcs + vc) as u32;
        }
        Ok(*known - 1)
    }
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
    /// Plans every net of `nets` over `topo` at `vcs` virtual channels:
    /// along the unicast routes, or along [`Topology::multicast_route`]
    /// trees when `trees` is set. Slots must fit a `u16` (the caller
    /// checked `widest router × vcs`).
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] `{ name: "multicast_route" }` for tree
    /// paths that are not link walks to their destinations, and — a
    /// packet that has made as many hops as there are routers has been
    /// somewhere twice — for a tree path that long; `{ name: "topology" }`
    /// for a unicast route that long (it never arrives).
    pub(crate) fn build(
        topo: &dyn Topology,
        vcs: usize,
        trees: bool,
        nets: &Nets<'_>,
    ) -> Result<Self, NocError> {
        let nr = topo.num_routers();
        let endpoint_of: Vec<u32> = (0..topo.num_crossbars() as u32)
            .map(|k| topo.endpoint(k) as u32)
            .collect();
        let mut unicast = UnicastSlots::new(if trees { 0 } else { nr });
        let mut plan = Plan {
            nodes: Vec::new(),
            branches: Vec::new(),
            arena: Vec::with_capacity(nets.keys.iter().map(|(_, d)| d.len()).sum()),
            roots: Vec::with_capacity(nets.len()),
            trees,
        };
        // scratch, reused by every net: `(router, hops from the source)`
        // per node of the net; the net-list position of every arena entry
        // (which tree path is its); the range being grouped; the tree
        let mut sites: Vec<(u32, u32)> = Vec::new();
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
            if trees {
                tree.load(topo, vcs, src_router as usize, dests, &endpoint_of)
                    .map_err(bad_route)?;
            }
            let base = plan.arena.len();
            plan.arena.extend_from_slice(dests);
            position.clear();
            position.extend(0..dests.len() as u32);
            let root = plan.nodes.len();
            sites.clear();
            sites.push((src_router, 0));
            plan.nodes.push(Node::unplanned(base, base + dests.len()));
            let mut extra = 0u32;
            // the node list is the work queue: children join at its end
            let mut n = root;
            while n < plan.nodes.len() {
                let (r, depth) = sites[n - root];
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
                        1 + unicast.get(topo, vcs, r as usize, er as usize)?
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
                    let key = keyed[g].0;
                    let len = keyed[g..].iter().take_while(|k| k.0 == key).count();
                    let bit = key - 1;
                    if depth as usize + 1 >= nr {
                        return Err(bad_route(format!(
                            "the route to crossbar {} is still under way after {nr} routers \
                             (it revisits one)",
                            keyed[g].1
                        )));
                    }
                    let nbr = topo.neighbors(r as usize)[bit as usize / vcs];
                    plan.branches.push(Branch {
                        child: plan.nodes.len() as u32,
                        bit: bit as u16,
                    });
                    sites.push((nbr as u32, depth + 1));
                    plan.nodes.push(Node::unplanned(start + g, start + g + len));
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
            plan.roots.push((root as u32, extra));
        }
        Ok(plan)
    }

    /// The root node of `net`: its packet at the source router.
    pub(crate) fn root(&self, net: u32) -> u32 {
        self.roots[net as usize].0
    }

    /// Handles one spike of `net` allocates beyond its injected one.
    pub(crate) fn extra_handles(&self, net: u32) -> u32 {
        self.roots[net as usize].1
    }

    /// Link forwards one packet of `net` makes. Every branch adds one
    /// node, so that is one per node of the net past its root.
    pub(crate) fn forwards(&self, net: u32) -> u64 {
        let next_root = self.roots.get(net as usize + 1);
        let end = next_root.map_or(self.nodes.len(), |&(root, _)| root as usize);
        (end - self.root(net) as usize - 1) as u64
    }

    /// Whether the plan follows [`Topology::multicast_route`] trees — the
    /// one case where the unicast route does not describe its branches.
    pub(crate) fn follows_trees(&self) -> bool {
        self.trees
    }

    /// Nodes over all nets.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
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

/// One copy of a spike, in flight or queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle {
    /// Index into the run's spike table (one entry per injection).
    pub(crate) spike: u32,
    /// The node this copy arrives at next.
    pub(crate) node: u32,
    /// On the first member of a queued chain: the first member of the
    /// chain queued behind it on the lane ([`NIL`] at the tail).
    pub(crate) next: u32,
    /// The next member of this copy's chain ([`NIL`] at the end).
    pub(crate) sib: u32,
    /// The slot this copy leaves its router by (unset until it queues).
    pub(crate) bit: u16,
}

/// Every handle of a run; ids are positions, the injected packets first.
#[derive(Default)]
pub(crate) struct Slab {
    handles: Vec<Handle>,
}

impl Slab {
    /// A slab whose first handles are the injections, each about to
    /// arrive at `roots`' next node, with room for `capacity` in all (the
    /// exact final size is known up front: a per-net sum over the spikes).
    pub(crate) fn new(roots: impl ExactSizeIterator<Item = u32>, capacity: usize) -> Self {
        let mut handles = Vec::with_capacity(capacity.max(roots.len()));
        handles.extend(roots.enumerate().map(|(spike, node)| Handle {
            spike: spike as u32,
            node,
            next: NIL,
            sib: NIL,
            bit: 0,
        }));
        Slab { handles }
    }

    /// The handle `h`.
    #[inline]
    pub(crate) fn get(&self, h: u32) -> &Handle {
        &self.handles[h as usize]
    }

    /// Handles allocated so far.
    pub(crate) fn len(&self) -> usize {
        self.handles.len()
    }

    /// The packet `h` arrived somewhere it does not end: it becomes the
    /// chain of `branches` (not empty), one member per branch in order.
    /// The first member reuses `h`, so a packet that never splits never
    /// allocates.
    #[inline]
    pub(crate) fn fan_out(&mut self, h: u32, branches: &[Branch]) {
        let spike = self.handles[h as usize].spike;
        let member = |b: &Branch| Handle {
            spike,
            node: b.child,
            next: NIL,
            sib: NIL,
            bit: b.bit,
        };
        self.handles[h as usize] = member(&branches[0]);
        let mut last = h;
        for b in &branches[1..] {
            let id = self.handles.len() as u32;
            self.handles.push(member(b));
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
mod tests {
    use super::*;
    use crate::sched::Sched;
    use crate::sim::{egress_ports, oracle::Sweep};
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
    ) {
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
            check_node(plan, topo, vcs, paths, walk, at, &share, extra);
        }
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
            let ports = egress_ports(topo.as_ref()).expect("bidirectional");
            // the oracle's from-scratch walk: what every branch slot must equal
            let walk = Sweep::build(&topo, &ports, vcs, false);
            let topo = topo.as_ref();
            let flows = random_flows(topo.num_crossbars() as u32, 0x5eed + vcs as u64);
            for multicast in [true, false] {
                let nets = Nets::intern(&flows, multicast);
                let plan = Plan::build(topo, vcs, trees && multicast, &nets).expect("plans");
                assert_eq!(plan.roots.len(), nets.len());
                let mut nodes = 0;
                for (net, &(src, dests)) in nets.keys.iter().enumerate() {
                    let src_router = topo.endpoint(src);
                    let routers: Vec<usize> = dests.iter().map(|&d| topo.endpoint(d)).collect();
                    let paths = (trees && multicast)
                        .then(|| topo.multicast_route(src_router, &routers, vcs));
                    let carried: Vec<(u32, usize)> =
                        dests.iter().copied().zip(0..dests.len()).collect();
                    let root = plan.root(net as u32);
                    assert_eq!(root, nodes, "a net's nodes are contiguous, root first");
                    let mut extra = 0;
                    let at = (root, src_router, 0);
                    check_node(
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
                    nodes = plan
                        .roots
                        .get(net + 1)
                        .map_or(plan.node_count() as u32, |r| r.0);
                }
            }
        }
    }

    #[test]
    fn equal_flows_share_a_net_and_unicast_clones_get_one_per_pair() {
        let flow = |src: u32, dsts: &[u32]| SpikeFlow {
            source_neuron: 0,
            src_crossbar: src,
            dst_crossbars: dsts.to_vec(),
            send_step: 0,
        };
        let flows = [
            flow(0, &[3, 1]),
            flow(0, &[3, 1]),
            flow(0, &[1, 3]),
            flow(2, &[]),
            flow(0, &[3, 1]),
            flow(1, &[3, 1]),
        ];
        let nets = Nets::intern(&flows, true);
        assert_eq!(
            nets.len(),
            3,
            "order is part of a net: it is the delivery order"
        );
        let ids: Vec<u32> = [0, 1, 2, 4, 5].map(|f| nets.of(f, 0)).to_vec();
        assert_eq!(ids, [0, 0, 1, 0, 2]);
        let nets = Nets::intern(&flows, false);
        assert_eq!(nets.len(), 4, "(0,3) (0,1) (1,3) (1,1)");
        assert_eq!((nets.of(0, 0), nets.of(0, 1)), (0, 1));
        assert_eq!((nets.of(2, 0), nets.of(2, 1)), (1, 0));
        assert_eq!((nets.of(5, 0), nets.of(5, 1)), (2, 3));
    }

    /// A slab holding one five-way chain: handle 0 fanned out over slots
    /// 4, 1, 7, 2, 9 (children 10..15).
    fn five_way_chain() -> Slab {
        let branches: Vec<Branch> = [4u16, 1, 7, 2, 9]
            .iter()
            .zip(10..)
            .map(|(&bit, child)| Branch { child, bit })
            .collect();
        let mut slab = Slab::new([0u32].into_iter(), 5);
        slab.fan_out(0, &branches);
        slab
    }

    fn bits(slab: &Slab, first: u32) -> Vec<u16> {
        slab.chain(first).map(|m| m.bit).collect()
    }

    #[test]
    fn detach_keeps_relative_order_on_both_sides() {
        let mut slab = five_way_chain();
        assert_eq!(bits(&slab, 0), [4, 1, 7, 2, 9]);
        assert_eq!(slab.len(), 5, "the first member reuses the arriving handle");
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
        let mut slab = five_way_chain();
        assert_eq!(slab.detach(0, 3), None);
        assert_eq!(bits(&slab, 0), [4, 1, 7, 2, 9]);
        let children: Vec<u32> = slab.chain(0).map(|m| m.node).collect();
        assert_eq!(children, [10, 11, 12, 13, 14]);
    }
}
