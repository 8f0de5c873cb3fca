//! Output-port arbitration policies and virtual-channel selection.
//!
//! When several input FIFOs hold head-of-line packets wanting the same
//! output link, the arbiter picks one per cycle. The policy shapes which
//! traffic is delayed under congestion — and therefore the disorder and
//! ISI-distortion metrics. Noxim calls this the "selection strategy".
//!
//! # Virtual channels and the torus dateline invariant
//!
//! With [`crate::config::NocConfig::vc_count`] > 1 every ingress port
//! carries that many independent FIFOs ("virtual channels"), each with
//! its own credit counter. A hop occupies exactly one VC, chosen
//! *statelessly* by [`crate::topology::Topology::hop_vc`] from the
//! current router and the destination router — packets carry no VC state,
//! so multicast branch-splitting stays well-defined: a branch holds the
//! destinations that share both the egress port **and** the hop VC.
//!
//! Deadlock freedom is an acyclicity property of the *channel-dependency
//! graph*: nodes are `(directed link, VC)` pairs, and an edge `a → b`
//! exists when some packet can hold channel `a` while waiting for channel
//! `b` at the joint router. Dimension-order routing on a mesh/tree/star
//! already orders the links acyclically, and because `hop_vc` is a pure
//! function of `(router, destination)`, adding VCs cannot create a cycle
//! there: any cycle among `(link, VC)` nodes would project to a closed
//! walk among the links alone (a packet never traverses the same link
//! twice), contradicting the acyclic link order.
//!
//! The torus is the interesting case: its wraparound links close each
//! ring into a cycle, so single-channel dimension-order routing *can*
//! deadlock (bursty traffic with shallow FIFOs wedges — the PR-4
//! finding). The fix is the classic **dateline** scheme. Per ring and
//! direction, split the VCs into a lower and an upper half and assign:
//!
//! * **lower half** while the remaining path in the current dimension
//!   still has the wraparound link ahead of it (the packet has not yet
//!   crossed the dateline);
//! * **upper half** once no wraparound remains (it crossed the dateline,
//!   or never needed it).
//!
//! The wraparound link is therefore only ever traversed on the lower
//! half, and the lower → upper transition happens exactly once, at the
//! dateline. Ordering the channels "lower half along the ring, then the
//! wrap link, then upper half along the ring" makes every dependency
//! strictly increasing, so the channel-dependency graph is acyclic and
//! the torus becomes deadlock-free with `vc_count ≥ 2` — verified
//! constructively by the channel-dependency-graph walk in the topology
//! tests and empirically by the deadlock regression in
//! `tests/noc_properties.rs`.

use serde::{Deserialize, Serialize};

/// Arbitration policy for contended output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Arbitration {
    /// Rotating priority across input ports (fair, the Noxim default).
    RoundRobin,
    /// The packet injected earliest wins (minimizes disorder, costs logic).
    OldestFirst,
    /// Lowest input-port index wins (cheap, can starve).
    FixedPriority,
}

impl Arbitration {
    /// Picks the winning input port among `candidates`. `cursor` is the
    /// round-robin state for this output port (the port *after* the
    /// previous winner); `inject_cycle` gives a candidate's inject cycle
    /// and is asked only under [`Arbitration::OldestFirst`].
    ///
    /// Returns the winning port, or `None` if there are no candidates.
    pub fn pick(
        &self,
        candidates: &[usize],
        cursor: usize,
        inject_cycle: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let ports = candidates.iter().copied();
        match self {
            // first port >= cursor, else wrap to the smallest
            Arbitration::RoundRobin => {
                let next = ports.clone().filter(|&p| p >= cursor).min();
                next.or_else(|| ports.min())
            }
            Arbitration::OldestFirst => ports.min_by_key(|&p| (inject_cycle(p), p)),
            Arbitration::FixedPriority => ports.min(),
        }
    }
}

/// Round-robin selection of the virtual channel an output port serves
/// this cycle.
///
/// `eligible` is a bitmask of VCs that both hold a candidate head and
/// have a free downstream credit; `cursor` is the port's VC cursor (the
/// VC *after* the previous winner, like [`Arbitration::pick`]'s
/// round-robin state). Returns the lowest eligible VC `>= cursor`,
/// wrapping to the lowest eligible VC overall; `None` iff no VC is
/// eligible. With a single VC this degenerates to "forward iff the
/// downstream credit is free" — the pre-VC engines' behavior.
pub fn pick_vc(eligible: u32, cursor: usize) -> Option<usize> {
    if eligible == 0 {
        return None;
    }
    let ge = if cursor >= 32 {
        0
    } else {
        eligible >> cursor << cursor
    };
    let mask = if ge != 0 { ge } else { eligible };
    Some(mask.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inject-cycle lookup that must never be asked.
    fn unasked(port: usize) -> u64 {
        panic!("inject cycle of port {port} asked outside OldestFirst")
    }

    #[test]
    fn empty_candidates_yield_none() {
        for a in [
            Arbitration::RoundRobin,
            Arbitration::OldestFirst,
            Arbitration::FixedPriority,
        ] {
            assert_eq!(a.pick(&[], 0, unasked), None);
        }
    }

    #[test]
    fn fixed_priority_prefers_low_port() {
        assert_eq!(
            Arbitration::FixedPriority.pick(&[3, 1, 2], 0, unasked),
            Some(1)
        );
    }

    #[test]
    fn oldest_first_prefers_early_injection() {
        let inject = |p: usize| [0, 99, 4, 10][p];
        assert_eq!(
            Arbitration::OldestFirst.pick(&[3, 1, 2], 0, inject),
            Some(2)
        );
    }

    #[test]
    fn oldest_first_ties_break_by_port() {
        assert_eq!(Arbitration::OldestFirst.pick(&[3, 1], 0, |_| 10), Some(1));
    }

    #[test]
    fn round_robin_rotates() {
        let c = [0, 1, 2];
        // cursor 0 → port 0; cursor 1 → port 1; cursor 3 → wraps to port 0
        assert_eq!(Arbitration::RoundRobin.pick(&c, 0, unasked), Some(0));
        assert_eq!(Arbitration::RoundRobin.pick(&c, 1, unasked), Some(1));
        assert_eq!(Arbitration::RoundRobin.pick(&c, 3, unasked), Some(0));
    }

    #[test]
    fn round_robin_skips_absent_ports() {
        assert_eq!(Arbitration::RoundRobin.pick(&[0, 4], 2, unasked), Some(4));
    }

    #[test]
    fn round_robin_never_starves_a_persistent_candidate() {
        // all ports always want the output (saturated input FIFOs), the
        // cursor advances past each winner exactly as the engines do:
        // every port must win once per full rotation — the no-starvation
        // invariant the simulator-level fairness test builds on
        let ports = 5usize;
        let candidates: Vec<usize> = (0..ports).collect();
        let mut cursor = 0usize;
        let mut wins = vec![0u32; ports];
        let rounds = 7;
        for _ in 0..ports * rounds {
            let port = Arbitration::RoundRobin
                .pick(&candidates, cursor, unasked)
                .expect("candidates present");
            wins[port] += 1;
            cursor = port + 1;
        }
        assert!(
            wins.iter().all(|&w| w == rounds as u32),
            "round-robin must serve every persistent candidate equally: {wins:?}"
        );
    }

    #[test]
    fn pick_vc_rotates_and_wraps() {
        assert_eq!(pick_vc(0, 0), None);
        assert_eq!(pick_vc(0b01, 0), Some(0));
        // single VC: cursor past it wraps back — the vc_count=1 case
        assert_eq!(pick_vc(0b01, 1), Some(0));
        assert_eq!(pick_vc(0b11, 0), Some(0));
        assert_eq!(pick_vc(0b11, 1), Some(1));
        assert_eq!(pick_vc(0b11, 2), Some(0));
        // skips ineligible VCs below the cursor
        assert_eq!(pick_vc(0b101, 1), Some(2));
        assert_eq!(pick_vc(0b101, 3), Some(0));
        // cursor beyond the mask width wraps cleanly
        assert_eq!(pick_vc(0b100, 40), Some(2));
    }

    #[test]
    fn pick_vc_never_starves_a_persistent_vc() {
        // all 4 VCs persistently eligible, cursor advanced past each
        // winner: every VC wins once per rotation
        let mut cursor = 0usize;
        let mut wins = [0u32; 4];
        for _ in 0..4 * 5 {
            let w = pick_vc(0b1111, cursor).unwrap();
            wins[w] += 1;
            cursor = w + 1;
        }
        assert!(wins.iter().all(|&w| w == 5), "{wins:?}");
    }

    #[test]
    fn fixed_priority_starves_low_priority_candidates() {
        // the counterexample round-robin protects against: under fixed
        // priority a persistent port 0 monopolizes the output
        for cursor in 0..4 {
            assert_eq!(
                Arbitration::FixedPriority.pick(&[0, 1, 2], cursor, unasked),
                Some(0)
            );
        }
    }
}
