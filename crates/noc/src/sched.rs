//! The scheduler seam of the router model, and the event engine's side of it.
//!
//! [`Sched`] is every decision `sim::simulate` leaves open: which
//! `(router, output-port)` pairs an attended cycle examines, what a lane
//! head wants, and which cycle is attended next. Two policies implement
//! it — [`crate::sim::oracle::Sweep`] (every pair, every cycle, everything
//! asked of the topology afresh) and [`PortSched`], the per-pair wake
//! scheduler behind [`crate::sim::NocSim`]. Every output port of every
//! router gets a dense *pair id* (`port_base[r] + o`), ordered exactly
//! like the sweep (routers ascending, ports in neighbor order), and three
//! structures drive [`PortSched`]'s clock:
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

use crate::sim::Queues;
use crate::stats::SchedCounters;
use crate::topology::Topology;

/// Sentinel pair id for "no upstream pair" (local-injection lanes).
const NO_PAIR: u32 = u32::MAX;

/// Wake position meaning "before the sweep started": every woken pair is
/// still ahead, so all wakes go to the ready heap.
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

    /// Builds the policy for one run. `ports[r]` lists router `r`'s
    /// egress ports as `(neighbor, our position on the neighbor)`; `tree`
    /// says the plan follows multicast trees, which only their own paths
    /// describe — a policy that re-derives wants from the unicast routes
    /// must read the plan's slots instead.
    fn build(
        topo: &Arc<dyn Topology>,
        ports: &[Vec<(usize, usize)>],
        vcs: usize,
        tree: bool,
    ) -> Self;

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
    vcs: usize,
    /// Pair id of router `r`'s port 0; last entry = total pair count.
    port_base: Vec<u32>,
    /// Router owning each pair id.
    router_of: Vec<u32>,
    /// Flat lane-slot base per router (slot = `lane_base[r] + fi`).
    lane_base: Vec<u32>,
    /// 64-bit words per lane head mask, per router.
    mask_words: Vec<u32>,
    /// Word offset of router `r`'s lane-0 mask.
    mask_base: Vec<u32>,
    /// Wanted-(port, VC) bitmask per lane head (zero for empty lanes).
    head_mask: Vec<u64>,
    /// Heads currently wanting `(pair, w)`, indexed `pair * vcs + w`.
    want: Vec<u32>,
    /// Blocked bit per `(pair, w)`: a head wants it but the downstream
    /// lane was credit-full at the pair's last idle sweep.
    blocked: Vec<u64>,
    /// Upstream pair feeding each ingress lane slot (`NO_PAIR` for the
    /// local-injection lane 0).
    ups_pair: Vec<u32>,
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
    /// Builds the scheduler over the router graph (`ports` as in
    /// [`Sched::build`]). It holds no routes: what a head wants arrives
    /// with [`Sched::set_head`].
    pub(crate) fn new(ports: &[Vec<(usize, usize)>], vcs: usize) -> Self {
        let nr = ports.len();
        let mut port_base = Vec::with_capacity(nr + 1);
        let mut lane_base = Vec::with_capacity(nr + 1);
        let mut mask_words = Vec::with_capacity(nr);
        let mut mask_base = Vec::with_capacity(nr);
        let (mut pairs, mut lanes, mut words) = (0u32, 0u32, 0u32);
        for p in ports {
            let deg = p.len();
            let nf = 1 + deg * vcs;
            port_base.push(pairs);
            lane_base.push(lanes);
            mask_base.push(words);
            let w = ((deg * vcs).max(1)).div_ceil(64) as u32;
            mask_words.push(w);
            pairs += deg as u32;
            lanes += nf as u32;
            words += nf as u32 * w;
        }
        port_base.push(pairs);
        lane_base.push(lanes);

        let mut router_of = vec![0u32; pairs as usize];
        let mut ups_pair = vec![NO_PAIR; lanes as usize];
        for (r, p) in ports.iter().enumerate() {
            for o in 0..p.len() {
                router_of[(port_base[r] + o as u32) as usize] = r as u32;
            }
            // the lane block of our ingress port `pos` is fed by that
            // neighbor's egress pair pointing back at us
            for (pos, &(nbr, back)) in p.iter().enumerate() {
                let up = port_base[nbr] + back as u32;
                for w in 0..vcs {
                    ups_pair[(lane_base[r] + 1 + (pos * vcs + w) as u32) as usize] = up;
                }
            }
        }

        let p = pairs as usize;
        Self {
            vcs,
            port_base,
            router_of,
            lane_base,
            mask_words,
            mask_base,
            head_mask: vec![0; words as usize],
            want: vec![0; p * vcs],
            blocked: vec![0; (p * vcs).div_ceil(64).max(1)],
            ups_pair,
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

    /// Total (router, output-port) pair count.
    #[cfg(test)]
    pub(crate) fn total_pairs(&self) -> u32 {
        *self.port_base.last().expect("non-empty")
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

    fn build(
        _topo: &Arc<dyn Topology>,
        ports: &[Vec<(usize, usize)>],
        vcs: usize,
        _tree: bool,
    ) -> Self {
        Self::new(ports, vcs)
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
                let r = self.router_of[pair as usize];
                return Some((
                    pair,
                    r as usize,
                    (pair - self.port_base[r as usize]) as usize,
                ));
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
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
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
        let r = self.router_of[pair as usize];
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
        let up = self.ups_pair[(self.lane_base[r] + fi as u32) as usize];
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
        let words = self.mask_words[r] as usize;
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        debug_assert!(
            self.head_mask[base..base + words].iter().all(|&m| m == 0),
            "stale head mask"
        );
        let want_base = self.port_base[r] as usize * self.vcs;
        for bit in bits {
            let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
            debug_assert!(self.head_mask[wi] & wb == 0, "a chain's slots are distinct");
            self.head_mask[wi] |= wb;
            self.want[want_base + bit] += 1;
            self.wake(self.port_base[r] + (bit / self.vcs) as u32, pos);
        }
    }

    #[inline]
    fn clear_head(&mut self, r: usize, fi: usize) {
        let words = self.mask_words[r] as usize;
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        let want_base = self.port_base[r] as usize * self.vcs;
        for wi in 0..words {
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
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
        debug_assert!(self.head_mask[wi] & wb != 0, "split bit not in mask");
        self.head_mask[wi] &= !wb;
        self.want[self.port_base[r] as usize * self.vcs + bit] -= 1;
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

    /// 2-router line, 1 VC: router 0 ↔ router 1, one crossbar each.
    fn line_sched() -> PortSched {
        let ports = vec![vec![(1usize, 0usize)], vec![(0usize, 0usize)]];
        PortSched::new(&ports, 1)
    }

    #[test]
    fn pair_ids_follow_sweep_order() {
        let ports = vec![
            vec![(1, 0), (2, 0)], // router 0: 2 ports → pairs 0, 1
            vec![(0, 0)],         // router 1: pair 2
            vec![(0, 1)],         // router 2: pair 3
        ];
        let s = PortSched::new(&ports, 2);
        assert_eq!(s.total_pairs(), 4);
        assert_eq!(s.port_base, vec![0, 2, 3, 4]);
        assert_eq!(s.router_of, vec![0, 0, 1, 2]);
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
        let ports = vec![vec![(1, 0), (2, 0)], vec![(0, 0)], vec![(0, 1)]];
        let (mut s, net) = (PortSched::new(&ports, 1), Queues::default());
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
        use crate::sim::{egress_ports, oracle::Sweep};
        use crate::topology::{NocTree, Star};

        // byte identity rests on "ascending pair id is the sweep order":
        // both policies must hand out the same (pair, router, port) triples
        // (that the plan's slots equal the sweep's from-scratch route walk
        // is `plan::tests`' half of this)
        let irregular: [Arc<dyn Topology>; 2] =
            [Arc::new(NocTree::new(8, 2)), Arc::new(Star::new(5))];
        for topo in irregular {
            let ports = egress_ports(topo.as_ref()).expect("bidirectional");
            let mut woken = PortSched::build(&topo, &ports, 1, false);
            let mut sweep = Sweep::build(&topo, &ports, 1, false);
            woken.begin_cycle(0);
            sweep.begin_cycle(0);
            for pair in 0..woken.total_pairs() {
                woken.wake(pair, PRE_SWEEP);
            }
            let expected: Vec<_> = std::iter::from_fn(|| sweep.next_pair()).collect();
            let got: Vec<_> = std::iter::from_fn(|| woken.next_pair()).collect();
            assert_eq!(expected.len(), woken.total_pairs() as usize);
            assert_eq!(got, expected, "{}", topo.name());
        }
    }
}
