//! The scheduler seam of the router model, and the event engine's side of it.
//!
//! [`Sched`] is every decision `sim::simulate` leaves open: which
//! `(router, output-port)` pairs an attended cycle examines, what a lane
//! head wants, and which cycle is attended next. Two policies implement
//! it — [`crate::sim::oracle::Sweep`] (every pair, every cycle, everything
//! asked of the topology afresh) and [`PortSched`], the per-pair wake
//! scheduler behind [`crate::sim::NocSim`]. Every output port of every
//! router has the dense *pair id* the run's one index
//! ([`crate::sim::Fabric`]) gives it, ordered exactly like the sweep
//! (routers ascending, ports in neighbor order), and three structures
//! drive [`PortSched`]'s clock:
//!
//! * a **ready bitset** of pair ids due this cycle, walked by a scan
//!   cursor — membership is the bit itself, so waking an already-queued
//!   pair is a no-op and the ready set is bounded by the total pair count
//!   however saturated the traffic gets. Pops are strictly ascending
//!   within a cycle (in-sweep wakes only ever target pairs ahead of the
//!   cursor), so a find-first-set word walk replaces a binary heap: in
//!   the dense regime, where nearly every pair is ready every cycle,
//!   examining a pair costs two bit operations instead of an
//!   `O(log pairs)` sift;
//! * a **next-cycle wake list** for triggers that target a pair the sweep
//!   already passed this cycle (the oracle would only see the change at
//!   `now + 1`);
//! * a **busy-expiry queue** of `(cycle, pair)` entries, one per forward —
//!   a draining port re-enqueues only itself, never a whole router. The
//!   queue arrives cycle-sorted for free: every expiry is scheduled at
//!   `now + flits` for a constant flit count.
//!
//! On top of the wake queues the scheduler keeps the persistent head
//! state [`crate::sim::oracle::Sweep`] recomputes from scratch: per FIFO
//! lane, the bitmask of `(output port, VC)` slots its head wants (bit
//! `o * vcs + w`, variable-width so arbitrary-degree topologies fit;
//! installed from the slots of the head's chain, which the forwarding
//! plan fixed per net — the scheduler holds no route table), a
//! per-(pair, VC) count of heads wanting that slot (O(1) eligibility),
//! and a **blocked** bit per (pair, VC) — the wanted-port reverse index:
//! set when an idle sweep finds a head wanting a credit-full downstream
//! lane, so the credit release wakes exactly the pairs that were waiting
//! on it. Arbitration reads nothing else of a head: the lanes wanting a
//! slot are served round-robin (`crate::router::pick_lane`).
//!
//! See the [`crate::sim`] module docs for why this wake set covers every
//! pair and cycle at which the sweep can make progress.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sim::{Fabric, Queues, NO_PAIR};
use crate::stats::SchedCounters;
use crate::topology::Topology;

/// Wake position meaning "before the sweep started": every woken pair is
/// still ahead, so all wakes join this cycle's ready set.
pub(crate) const PRE_SWEEP: u32 = 0;

/// The scheduling policy `sim::simulate` is generic over (statically
/// dispatched: one monomorphised loop per policy, hooks inlined).
///
/// The **queries** decide who moves; each policy must answer them
/// independently of the other, because the differential suite compares
/// exactly these answers. The **notifications** tell the policy what the
/// loop just changed; their defaults ignore it, which is right for a
/// policy that re-derives every answer when asked.
pub(crate) trait Sched: Sized {
    /// Whether the policy skips pairs and cycles. Only then is there an
    /// attended-cycle log and a set of [`SchedCounters`] worth reporting
    /// ([`crate::stats::SimTrace`], [`crate::config::NocConfig::sched_stats`]).
    const SELECTIVE: bool;

    /// Builds the policy for one run over the fabric's pair and lane
    /// numbering; `tree` says the plan follows multicast trees, which only
    /// their own paths describe — a policy that re-derives wants from the
    /// unicast routes must read the plan's slots instead.
    fn build(topo: &Arc<dyn Topology>, fabric: &Arc<Fabric>, tree: bool) -> Self;

    /// Starts the attended cycle `now`.
    fn begin_cycle(&mut self, now: u64);

    /// The next `(pair, router, port)` to examine this cycle, in strictly
    /// ascending pair order; `None` ends the cycle's sweep.
    fn next_pair(&mut self) -> Option<(u32, usize, usize)>;

    /// How many lane heads at the router of `pair` (the pair being
    /// examined) want its `(port, VC w)` slot.
    fn wanted(&self, q: &Queues, pair: u32, w: usize) -> u32;

    /// Whether lane `fi`'s head at router `r` wants `(port, VC)` bit `bit`.
    fn head_wants(&self, q: &Queues, r: usize, fi: usize, bit: usize) -> bool;

    /// The next cycle to attend after `now` while packets are queued,
    /// given the earliest pending injection or arrival (`u64::MAX` if
    /// none) and whether cycle `now` forwarded anything. `u64::MAX` means
    /// nothing can ever move again.
    fn next_cycle(&self, q: &Queues, now: u64, next_event: u64, progress: bool) -> u64;

    /// The pair from [`Sched::next_pair`] sits on a router with queued
    /// packets, so examining it is real work.
    fn count_visit(&mut self, _pair: u32) {}

    /// `pair` wanted VC `w` but found the downstream lane credit-full.
    fn set_blocked(&mut self, _pair: u32, _w: usize) {}

    /// A credit on router `r`'s ingress lane `fi` went from full to free
    /// while the sweep stood at wake position `pos`.
    fn credit_freed(&mut self, _r: usize, _fi: usize, _pos: u32) {}

    /// Lane `fi` of router `r` has a new head (a push onto an empty lane,
    /// or a pop exposing the next packet) whose chain leaves by the
    /// distinct `(port, VC)` slots `bits`.
    fn set_head(&mut self, _r: usize, _fi: usize, _bits: impl Iterator<Item = usize>, _pos: u32) {}

    /// Lane `fi`'s head was popped.
    fn clear_head(&mut self, _r: usize, _fi: usize) {}

    /// A multicast split forwarded the `bit` branch of lane `fi`'s head
    /// (the head itself stays queued).
    fn shrink_head(&mut self, _r: usize, _fi: usize, _bit: usize) {}

    /// `pair` forwarded and serializes until `cycle` (exclusive). Calls
    /// come in nondecreasing `cycle` order (`now + flits`, constant flits).
    fn schedule_expiry(&mut self, _cycle: u64, _pair: u32) {}

    /// The policy's work counters (all zero unless [`Sched::SELECTIVE`]).
    fn counters(&self) -> SchedCounters {
        SchedCounters::default()
    }
}

fn bit_test(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// The per-(router, output-port) wake scheduler (see the module docs).
pub(crate) struct PortSched {
    fabric: Arc<Fabric>,
    vcs: usize,
    /// 64-bit words per lane head mask: enough for the widest router's
    /// `(port, VC)` slots.
    words: usize,
    /// Wanted-(port, VC) bitmask per lane head (zero for empty lanes),
    /// `words` words from `lane id × words`.
    head_mask: Vec<u64>,
    /// Heads currently wanting `(pair, w)`, indexed `pair * vcs + w`.
    want: Vec<u32>,
    /// Blocked bit per `(pair, w)`: a head wants it but the downstream
    /// lane was credit-full at the pair's last idle sweep.
    blocked: Vec<u64>,
    /// Ready-set bitset (bit = pair id is due this cycle).
    ready: Vec<u64>,
    /// Word index the ascending ready scan has reached this cycle.
    scan: usize,
    /// Set bits in `ready` (peak-tracking only).
    ready_len: u32,
    next_wakes: Vec<u32>,
    in_next: Vec<u64>,
    /// Busy-port expiries, at most one live entry per pair (a busy port
    /// cannot forward again before its expiry fires). Every forward
    /// schedules its expiry at `now + flits` with `now` nondecreasing, so
    /// entries arrive cycle-sorted and a plain queue suffices.
    expiries: VecDeque<(u64, u32)>,
    last_router: u32,
    counters: SchedCounters,
}

impl PortSched {
    /// Builds the scheduler over the fabric's numbering. It holds no
    /// routes: what a head wants arrives with [`Sched::set_head`].
    pub(crate) fn new(fabric: &Arc<Fabric>) -> Self {
        let (vcs, p) = (fabric.vcs, fabric.links.len());
        let words = fabric.slots.max(1).div_ceil(64);
        Self {
            fabric: Arc::clone(fabric),
            vcs,
            words,
            head_mask: vec![0; fabric.upstream.len() * words],
            want: vec![0; p * vcs],
            blocked: vec![0; (p * vcs).div_ceil(64).max(1)],
            ready: vec![0; p.div_ceil(64).max(1)],
            scan: 0,
            ready_len: 0,
            next_wakes: Vec::new(),
            in_next: vec![0; p.div_ceil(64).max(1)],
            expiries: VecDeque::new(),
            last_router: u32::MAX,
            counters: SchedCounters::default(),
        }
    }

    /// Where lane `fi` of router `r` keeps its head mask, and the
    /// router's first pair.
    #[inline]
    fn bases(&self, r: usize, fi: usize) -> (usize, usize) {
        let fabric = &self.fabric;
        (fabric.lane_id(r, fi) * self.words, fabric.pair_base(r))
    }

    fn push_ready(&mut self, pair: u32) {
        let (wi, wb) = (pair as usize / 64, 1u64 << (pair % 64));
        // a pair behind the scan cursor was already examined this cycle;
        // callers route those through `next_wakes` (see `wake`)
        debug_assert!(wi >= self.scan, "ready push behind the scan cursor");
        if self.ready[wi] & wb != 0 {
            return; // already queued this cycle — the dedup that keeps
                    // the ready set bounded under saturated drains
        }
        self.ready[wi] |= wb;
        self.ready_len += 1;
        self.counters.peak_ready = self.counters.peak_ready.max(u64::from(self.ready_len));
    }

    /// Wakes `pair` relative to the sweep position `pos` (the pair id
    /// currently being processed, plus one — [`PRE_SWEEP`] before the
    /// sweep): pairs still ahead join this cycle's ready set, pairs
    /// already passed wake next cycle, and the in-flight pair itself is
    /// skipped (it just forwarded, so its busy expiry re-examines it).
    fn wake(&mut self, pair: u32, pos: u32) {
        if pair >= pos {
            self.push_ready(pair);
        } else if pair + 1 < pos && !bit_test(&self.in_next, pair as usize) {
            bit_set(&mut self.in_next, pair as usize);
            self.next_wakes.push(pair);
            self.track_wake_heap();
        }
        // pair + 1 == pos: the pair being processed right now — it is
        // (or is about to be) busy, and its expiry wake covers it
    }

    fn track_wake_heap(&mut self) {
        self.counters.peak_wake_heap = self
            .counters
            .peak_wake_heap
            .max((self.expiries.len() + self.next_wakes.len()) as u64);
    }
}

impl Sched for PortSched {
    const SELECTIVE: bool = true;

    fn build(_topo: &Arc<dyn Topology>, fabric: &Arc<Fabric>, _tree: bool) -> Self {
        Self::new(fabric)
    }

    /// Rewinds the ready scan, then drains the next-cycle wake list and
    /// every busy expiry due by `now` into the ready set.
    #[inline]
    fn begin_cycle(&mut self, now: u64) {
        self.counters.wake_cycles += 1;
        self.last_router = u32::MAX;
        self.scan = 0;
        while let Some(p) = self.next_wakes.pop() {
            bit_clear(&mut self.in_next, p as usize);
            self.push_ready(p);
        }
        while let Some(&(c, p)) = self.expiries.front() {
            if c > now {
                break;
            }
            self.expiries.pop_front();
            self.push_ready(p);
        }
    }

    /// Pops the lowest ready pair. Pops are strictly ascending within a
    /// cycle (in-sweep wakes only ever target pairs ahead of the current
    /// position), which is what makes the pop order the sweep order.
    #[inline]
    fn next_pair(&mut self) -> Option<(u32, usize, usize)> {
        let mut wi = self.scan;
        while wi < self.ready.len() {
            let word = self.ready[wi];
            if word != 0 {
                self.ready[wi] = word & (word - 1); // clear lowest set bit
                self.scan = wi;
                self.ready_len -= 1;
                let pair = (wi * 64) as u32 + word.trailing_zeros();
                let r = self.fabric.links[pair as usize].router as usize;
                return Some((pair, r, pair as usize - self.fabric.pair_base(r)));
            }
            wi += 1;
        }
        self.scan = wi;
        None
    }

    #[inline]
    fn wanted(&self, _q: &Queues, pair: u32, w: usize) -> u32 {
        self.want[pair as usize * self.vcs + w]
    }

    #[inline]
    fn head_wants(&self, _q: &Queues, r: usize, fi: usize, bit: usize) -> bool {
        let (base, _) = self.bases(r, fi);
        self.head_mask[base + bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Wakes raised for pairs the sweep had already passed are due exactly
    /// next cycle; everything else that can enable a pair is a busy expiry
    /// (every forward scheduled one), an arrival, or an injection.
    #[inline]
    fn next_cycle(&self, _q: &Queues, now: u64, next_event: u64, _progress: bool) -> u64 {
        let mut next = next_event;
        if !self.next_wakes.is_empty() {
            next = next.min(now + 1);
        }
        if let Some(&(expiry, _)) = self.expiries.front() {
            next = next.min(expiry);
        }
        next
    }

    /// Counted apart from the pop: the loop first skips pairs on routers
    /// that drained empty (e.g. stale busy expiries), so only pairs with
    /// queued work count.
    #[inline]
    fn count_visit(&mut self, pair: u32) {
        self.counters.port_wakes += 1;
        let r = self.fabric.links[pair as usize].router;
        if r != self.last_router {
            self.counters.router_visits += 1;
            self.last_router = r;
        }
    }

    /// The credit release will wake the pair ([`Sched::credit_freed`]).
    #[inline]
    fn set_blocked(&mut self, pair: u32, w: usize) {
        bit_set(&mut self.blocked, pair as usize * self.vcs + w);
    }

    /// Wakes the upstream pair if it was blocked on that lane's VC.
    #[inline]
    fn credit_freed(&mut self, r: usize, fi: usize, pos: u32) {
        let up = self.fabric.upstream[self.fabric.lane_id(r, fi)];
        debug_assert_ne!(up, NO_PAIR, "injection lanes hold no credits");
        let w = (fi - 1) % self.vcs;
        let bi = up as usize * self.vcs + w;
        if bit_test(&self.blocked, bi) {
            bit_clear(&mut self.blocked, bi);
            self.wake(up, pos);
        }
    }

    /// Installs the new head's route mask and wakes every output port
    /// the head wants.
    #[inline]
    fn set_head(&mut self, r: usize, fi: usize, bits: impl Iterator<Item = usize>, pos: u32) {
        self.counters.head_updates += 1;
        let (base, pair_base) = self.bases(r, fi);
        debug_assert!(
            self.head_mask[base..base + self.words]
                .iter()
                .all(|&m| m == 0),
            "stale head mask"
        );
        let want_base = pair_base * self.vcs;
        for bit in bits {
            let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
            debug_assert!(self.head_mask[wi] & wb == 0, "a chain's slots are distinct");
            self.head_mask[wi] |= wb;
            self.want[want_base + bit] += 1;
            self.wake((pair_base + bit / self.vcs) as u32, pos);
        }
    }

    #[inline]
    fn clear_head(&mut self, r: usize, fi: usize) {
        let (base, pair_base) = self.bases(r, fi);
        let want_base = pair_base * self.vcs;
        for wi in 0..self.words {
            let mut m = self.head_mask[base + wi];
            self.head_mask[base + wi] = 0;
            while m != 0 {
                let bit = wi * 64 + m.trailing_zeros() as usize;
                self.want[want_base + bit] -= 1;
                m &= m - 1;
            }
        }
    }

    #[inline]
    fn shrink_head(&mut self, r: usize, fi: usize, bit: usize) {
        let (base, pair_base) = self.bases(r, fi);
        let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
        debug_assert!(self.head_mask[wi] & wb != 0, "split bit not in mask");
        self.head_mask[wi] &= !wb;
        self.want[pair_base * self.vcs + bit] -= 1;
    }

    #[inline]
    fn schedule_expiry(&mut self, cycle: u64, pair: u32) {
        debug_assert!(
            self.expiries.back().is_none_or(|&(c, _)| c <= cycle),
            "expiries must be scheduled cycle-sorted"
        );
        self.expiries.push_back((cycle, pair));
        self.track_wake_heap();
    }

    #[inline]
    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh2D, Star};

    fn sched_over(topo: &dyn Topology, vcs: usize) -> PortSched {
        PortSched::new(&Arc::new(Fabric::new(topo, vcs).expect("valid")))
    }

    /// 2-router line, 1 VC: router 0 ↔ router 1, one crossbar each.
    fn line_sched() -> PortSched {
        sched_over(&Mesh2D::for_crossbars(2), 1)
    }

    #[test]
    fn pair_ids_follow_sweep_order() {
        // leaves 0 and 1 (one port each: pairs 0, 1), hub 2 (pairs 2, 3)
        let fabric = Fabric::new(&Star::new(2), 2).expect("valid");
        assert_eq!(fabric.links.len(), 4);
        let base: Vec<_> = (0..3).map(|r| fabric.pair_base(r)).collect();
        assert_eq!(base, vec![0, 1, 2]);
        let routers: Vec<_> = fabric.links.iter().map(|l| l.router).collect();
        assert_eq!(routers, vec![0, 1, 2, 2]);
        // lanes router by router: 1 + 1 × 2, 1 + 1 × 2, 1 + 2 × 2
        let first_lanes: Vec<_> = (0..3).map(|r| fabric.lane_id(r, 0)).collect();
        assert_eq!(first_lanes, vec![0, 3, 6]);
        assert_eq!(fabric.upstream.len(), 11);
        // leaf 0 → hub lands on the hub's first ingress lane, and back
        let [up, back] = [0, 2].map(|p| fabric.links[p]);
        assert_eq!((up.to, up.down, up.ingress), (2, 7, 1));
        assert_eq!((back.to, back.down, back.ingress), (0, 1, 1));
    }

    #[test]
    fn duplicate_wakes_collapse_to_one_ready_entry() {
        let mut s = line_sched();
        for _ in 0..100 {
            s.wake(0, PRE_SWEEP);
            s.wake(1, PRE_SWEEP);
        }
        assert_eq!(s.ready_len, 2, "membership bitset must dedup");
        assert_eq!(s.counters.peak_ready, 2);
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(0));
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(1));
        assert!(s.next_pair().is_none());
    }

    #[test]
    fn in_sweep_wakes_split_by_position() {
        let (mut s, net) = (sched_over(&Star::new(2), 1), Queues::default());
        // processing pair 1 (pos = 2): pair 3 is ahead → ready now;
        // pair 0 is behind → next cycle; pair 1 itself → skipped
        s.wake(3, 2);
        s.wake(0, 2);
        s.wake(1, 2);
        assert_eq!(s.ready_len, 1);
        assert_eq!(
            s.next_cycle(&net, 9, u64::MAX, false),
            10,
            "a passed pair wakes next cycle"
        );
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(3));
        assert!(s.next_pair().is_none(), "pair 1 must not self-wake");
        s.begin_cycle(10);
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(0));
        assert_eq!(s.next_cycle(&net, 10, u64::MAX, false), u64::MAX);
    }

    #[test]
    fn expiries_drain_only_when_due() {
        let mut s = line_sched();
        s.schedule_expiry(3, 0);
        s.schedule_expiry(5, 1);
        s.begin_cycle(2);
        assert!(s.next_pair().is_none());
        s.begin_cycle(3);
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(0));
        s.begin_cycle(7);
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(1));
    }

    #[test]
    fn blocked_credit_release_wakes_the_upstream_pair() {
        let mut s = line_sched();
        // router 0's pair toward router 1 blocks on VC 0
        s.set_blocked(0, 0);
        // freeing router 1's ingress lane 1 (fed by pair 0) wakes pair 0
        s.credit_freed(1, 1, PRE_SWEEP);
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(0));
        // a second release without a blocked bit wakes nothing
        s.credit_freed(1, 1, PRE_SWEEP);
        assert!(s.next_pair().is_none());
    }

    #[test]
    fn head_masks_track_want_counts() {
        // `PortSched` answers from its own tables, never from the queues
        let (mut s, net) = (line_sched(), Queues::default());
        // at router 0, crossbar 1 exits via port 0 (bit 0)
        s.set_head(0, 0, [0usize].into_iter(), PRE_SWEEP);
        assert_eq!(s.wanted(&net, 0, 0), 1);
        assert!(s.head_wants(&net, 0, 0, 0));
        assert_eq!(s.next_pair().map(|(p, _, _)| p), Some(0));
        s.clear_head(0, 0);
        assert_eq!(s.wanted(&net, 0, 0), 0);
        assert!(!s.head_wants(&net, 0, 0, 0));
    }

    #[test]
    fn sweep_and_fully_woken_port_sched_agree_on_pair_order() {
        use crate::sim::oracle::Sweep;
        use crate::topology::{HierTopology, NocTree, Torus};

        // byte identity rests on "ascending pair id is the sweep order":
        // both policies must hand out the same (pair, router, port) triples
        // (that the plan's slots equal the sweep's from-scratch route walk
        // is `plan::tests`' half of this)
        let fabrics: [Arc<dyn Topology>; 5] = [
            Arc::new(NocTree::new(8, 2)),
            Arc::new(Star::new(5)),
            Arc::new(Mesh2D::for_crossbars(12)),
            Arc::new(Torus::for_crossbars(16)),
            Arc::new(HierTopology::mesh(2, 2, 2, 2, 16, 3, 2).expect("valid")),
        ];
        for topo in fabrics {
            for vcs in [1, 2] {
                let fabric = Arc::new(Fabric::new(topo.as_ref(), vcs).expect("valid"));
                let mut woken = PortSched::build(&topo, &fabric, false);
                let mut sweep = Sweep::build(&topo, &fabric, false);
                woken.begin_cycle(0);
                sweep.begin_cycle(0);
                for pair in 0..fabric.links.len() as u32 {
                    woken.wake(pair, PRE_SWEEP);
                }
                let expected: Vec<_> = std::iter::from_fn(|| sweep.next_pair()).collect();
                let got: Vec<_> = std::iter::from_fn(|| woken.next_pair()).collect();
                assert_eq!(expected.len(), fabric.links.len());
                assert_eq!(got, expected, "{} at {vcs} VCs", topo.name());
                // every ingress lane's upstream pair leads back to it
                for r in 0..fabric.routers() {
                    assert_eq!(fabric.upstream[fabric.lane_id(r, 0)], NO_PAIR);
                    for fi in 1..fabric.lanes(r) {
                        let lane = fabric.lane_id(r, fi);
                        let link = fabric.links[fabric.upstream[lane] as usize];
                        let w = (fi - 1) % vcs;
                        assert_eq!(link.to as usize, r, "{} lane {lane}", topo.name());
                        assert_eq!(link.down as usize + w, lane, "{} lane {lane}", topo.name());
                        assert_eq!(link.ingress as usize + w, fi, "{} lane {lane}", topo.name());
                    }
                }
            }
        }
    }
}
