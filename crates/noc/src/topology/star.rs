//! Star (single shared hub) and idealized point-to-point topologies.

use super::Topology;

/// All crossbars attach to one central hub router: every global spike takes
/// exactly two hops and all traffic contends at the hub — the simplest
/// shared time-multiplexed interconnect.
#[derive(Debug, Clone)]
pub struct Star {
    crossbars: usize,
    neighbors: Vec<Vec<usize>>,
}

impl Star {
    /// Builds a star for `crossbars` crossbars; the hub is router
    /// `crossbars`.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars` is zero.
    pub fn new(crossbars: usize) -> Self {
        assert!(crossbars > 0, "at least one crossbar required");
        let hub = crossbars;
        let mut neighbors = vec![Vec::new(); crossbars + 1];
        for leaf in 0..crossbars {
            neighbors[leaf].push(hub);
            neighbors[hub].push(leaf);
        }
        Self {
            crossbars,
            neighbors,
        }
    }

    /// The hub router id.
    pub fn hub(&self) -> usize {
        self.crossbars
    }
}

impl Topology for Star {
    fn num_routers(&self) -> usize {
        self.crossbars + 1
    }

    fn num_crossbars(&self) -> usize {
        self.crossbars
    }

    fn endpoint(&self, k: u32) -> usize {
        assert!((k as usize) < self.crossbars, "crossbar out of range");
        k as usize
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            r
        } else if r == self.hub() {
            dst
        } else {
            self.hub()
        }
    }

    fn name(&self) -> String {
        format!("star ({} crossbars)", self.crossbars)
    }
}

/// Fully connected router graph: every pair of crossbars has a private
/// link. Physically implausible at scale, but a useful idealized bound —
/// it isolates pure serialization effects from path contention.
#[derive(Debug, Clone)]
pub struct PointToPoint {
    crossbars: usize,
    neighbors: Vec<Vec<usize>>,
}

impl PointToPoint {
    /// Builds a complete graph over `crossbars` routers.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars` is zero.
    pub fn new(crossbars: usize) -> Self {
        assert!(crossbars > 0, "at least one crossbar required");
        let neighbors = (0..crossbars)
            .map(|r| (0..crossbars).filter(|&n| n != r).collect())
            .collect();
        Self {
            crossbars,
            neighbors,
        }
    }
}

impl Topology for PointToPoint {
    fn num_routers(&self) -> usize {
        self.crossbars
    }

    fn num_crossbars(&self) -> usize {
        self.crossbars
    }

    fn endpoint(&self, k: u32) -> usize {
        assert!((k as usize) < self.crossbars, "crossbar out of range");
        k as usize
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            r
        } else {
            dst
        }
    }

    fn name(&self) -> String {
        format!("point-to-point ({} crossbars)", self.crossbars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_routes_through_hub() {
        let s = Star::new(5);
        let port = |r: usize, dst: usize| {
            let next = s.route_next(r, dst);
            s.neighbors(r).iter().position(|&n| n == next)
        };
        for a in 0..5 {
            for b in 0..5 {
                if a == b {
                    continue;
                }
                // a leaf's only egress is port 0, toward the hub
                assert_eq!(s.route_next(a, b), s.hub());
                assert_eq!(port(a, b), Some(0));
                // the hub's egress port toward leaf b is b (insertion order)
                assert_eq!(port(s.hub(), b), Some(b));
            }
        }
    }

    #[test]
    fn star_two_hop_property() {
        let s = Star::new(8);
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(s.hops(a, b), 2);
                }
            }
        }
    }

    #[test]
    fn star_hub_degree() {
        let s = Star::new(5);
        assert_eq!(s.neighbors(s.hub()).len(), 5);
        assert_eq!(s.neighbors(0), &[s.hub()]);
    }

    #[test]
    fn p2p_single_hop() {
        let p = PointToPoint::new(6);
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(p.hops(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn p2p_degree() {
        let p = PointToPoint::new(4);
        assert_eq!(p.neighbors(2).len(), 3);
    }
}
