//! Output-port arbitration and virtual-channel selection.
//!
//! When several input FIFOs hold head-of-line packets wanting the same
//! output `(port, VC)` slot, the arbiter picks one per cycle. Every slot
//! serves its lanes round-robin (`pick_lane`), and every port its VCs
//! ([`pick_vc`]), so no persistent lane or VC starves — the fairness the
//! disorder and ISI-distortion metrics measure congestion against.
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

/// Round-robin selection of the FIFO lane an output `(port, VC)` slot
/// serves this cycle.
///
/// `wants(fi)` says whether lane `fi`'s head has a branch leaving by the
/// slot; `cursor` is the slot's lane cursor (the lane *after* the
/// previous winner). Returns the first wanting lane `>= cursor` among
/// `0..lanes`, wrapping to the first wanting lane before it; `None` iff
/// no lane wants the slot.
// asked once per forward: left to the inliner, an arbiter here stayed
// an out-of-line call in some builds (≈ 5 % of the router loop)
#[inline]
pub(crate) fn pick_lane(
    lanes: usize,
    cursor: usize,
    mut wants: impl FnMut(usize) -> bool,
) -> Option<usize> {
    (cursor..lanes)
        .chain(0..cursor.min(lanes))
        .find(|&fi| wants(fi))
}

/// Round-robin selection of the virtual channel an output port serves
/// this cycle.
///
/// `eligible` is a bitmask of VCs that both hold a candidate head and
/// have a free downstream credit; `cursor` is the port's VC cursor (the
/// VC *after* the previous winner, like `pick_lane`'s). Returns the
/// lowest eligible VC `>= cursor`, wrapping to the lowest eligible VC
/// overall; `None` iff no VC is eligible. With a single VC this degenerates to "forward iff the
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

    #[test]
    fn no_wanting_lane_yields_none() {
        assert_eq!(pick_lane(0, 0, |_| true), None);
        assert_eq!(pick_lane(4, 2, |_| false), None);
    }

    #[test]
    fn pick_lane_rotates() {
        let all = |_| true;
        // cursor 0 → lane 0; cursor 1 → lane 1; cursor 3 → wraps to lane 0
        assert_eq!(pick_lane(3, 0, all), Some(0));
        assert_eq!(pick_lane(3, 1, all), Some(1));
        assert_eq!(pick_lane(3, 3, all), Some(0));
    }

    #[test]
    fn pick_lane_skips_lanes_that_do_not_want_the_slot() {
        let wants = |fi: usize| fi == 0 || fi == 4;
        assert_eq!(pick_lane(5, 2, wants), Some(4));
        assert_eq!(pick_lane(5, 5, wants), Some(0));
        assert_eq!(pick_lane(5, 1, |fi| fi == 0), Some(0));
    }

    #[test]
    fn pick_lane_never_starves_a_persistent_lane() {
        // every lane always wants the slot (saturated input FIFOs), the
        // cursor advances past each winner exactly as the engines do:
        // every lane must win once per full rotation — the no-starvation
        // invariant the simulator-level fairness test builds on
        let lanes = 5usize;
        let mut cursor = 0usize;
        let mut wins = vec![0u32; lanes];
        let rounds = 7;
        for _ in 0..lanes * rounds {
            let fi = pick_lane(lanes, cursor, |_| true).expect("lanes want the slot");
            wins[fi] += 1;
            cursor = fi + 1;
        }
        assert!(
            wins.iter().all(|&w| w == rounds as u32),
            "round-robin must serve every persistent lane equally: {wins:?}"
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
}
