//! Balanced-tree interconnect (the CxQuad NoC-tree).

use super::Topology;

/// A balanced tree of switches with the crossbars at the leaves and
/// deterministic up-down routing: a packet climbs to the lowest common
/// ancestor of source and destination, then descends. CxQuad joins its
/// four crossbars with exactly such a NoC-tree (arity 4, depth 1).
#[derive(Debug, Clone)]
pub struct NocTree {
    /// `parent[r]` — parent router of `r` (the root points to itself).
    parent: Vec<usize>,
    /// `children[r]` — child routers of `r`.
    children: Vec<Vec<usize>>,
    /// leaf router hosting each crossbar.
    leaves: Vec<usize>,
    neighbors: Vec<Vec<usize>>,
    arity: u32,
}

impl NocTree {
    /// Builds a balanced tree with `leaves` leaf positions (one crossbar
    /// per leaf) and the given `arity`.
    ///
    /// Internal levels are built bottom-up: `ceil(n / arity)` parents per
    /// level until a single root remains. A single-leaf tree degenerates to
    /// one router.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero or `arity < 2`.
    pub fn new(leaves: usize, arity: u32) -> Self {
        assert!(leaves > 0, "at least one leaf required");
        assert!(arity >= 2, "tree arity must be at least 2");

        // level 0 = leaves, higher levels toward the root
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut next_id = 0usize;
        let leaf_ids: Vec<usize> = (0..leaves)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                id
            })
            .collect();
        levels.push(leaf_ids.clone());
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty").clone();
            let parents: Vec<usize> = (0..prev.len().div_ceil(arity as usize))
                .map(|_| {
                    let id = next_id;
                    next_id += 1;
                    id
                })
                .collect();
            levels.push(parents);
        }

        let n = next_id;
        let mut parent = vec![0usize; n];
        let mut children = vec![Vec::new(); n];
        for w in levels.windows(2) {
            let (lower, upper) = (&w[0], &w[1]);
            for (i, &node) in lower.iter().enumerate() {
                let p = upper[i / arity as usize];
                parent[node] = p;
                children[p].push(node);
            }
        }
        let root = *levels.last().expect("non-empty").last().expect("root");
        parent[root] = root;

        let mut neighbors = vec![Vec::new(); n];
        for r in 0..n {
            if parent[r] != r {
                neighbors[r].push(parent[r]);
            }
            neighbors[r].extend(children[r].iter().copied());
        }

        Self {
            parent,
            children,
            leaves: (0..leaves).collect(),
            neighbors,
            arity,
        }
    }

    /// Whether `anc` is an ancestor of (or equal to) `node`.
    fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut cur = node;
        loop {
            if cur == anc {
                return true;
            }
            if self.parent[cur] == cur {
                return false;
            }
            cur = self.parent[cur];
        }
    }
}

impl Topology for NocTree {
    fn num_routers(&self) -> usize {
        self.parent.len()
    }

    fn num_crossbars(&self) -> usize {
        self.leaves.len()
    }

    fn endpoint(&self, k: u32) -> usize {
        self.leaves[k as usize]
    }

    fn neighbors(&self, r: usize) -> &[usize] {
        &self.neighbors[r]
    }

    fn route_next(&self, r: usize, dst: usize) -> usize {
        if r == dst {
            return r;
        }
        if self.is_ancestor(r, dst) {
            // descend into the child subtree containing dst
            for &c in &self.children[r] {
                if self.is_ancestor(c, dst) {
                    return c;
                }
            }
            unreachable!("dst {dst} not under ancestor {r}");
        }
        // otherwise climb
        self.parent[r]
    }

    fn name(&self) -> String {
        format!("tree arity {} ({} leaves)", self.arity, self.leaves.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_route_climbs_then_descends() {
        let t = NocTree::new(8, 2);
        let (l0, l7) = (t.endpoint(0), t.endpoint(7));
        // leaf 0 climbs: first hop is its parent, reached through port 0
        // (the parent link is pushed before child links)
        let up = t.route_next(l0, l7);
        assert_eq!(up, t.parent[l0]);
        assert_eq!(t.neighbors(l0).iter().position(|&n| n == up), Some(0));
        // the walked path matches the hop count
        let mut cur = l0;
        let mut hops = 0;
        while cur != l7 {
            cur = t.route_next(cur, l7);
            hops += 1;
        }
        assert_eq!(hops, t.hops(l0, l7));
    }

    #[test]
    fn cxquad_tree_shape() {
        // 4 leaves, arity 4: one root + 4 leaves
        let t = NocTree::new(4, 4);
        assert_eq!(t.num_routers(), 5);
        assert_eq!(t.num_crossbars(), 4);
        // leaf to leaf = 2 hops via root, one level up
        assert_eq!(t.hops(t.endpoint(0), t.endpoint(3)), 2);
    }

    #[test]
    fn binary_tree_depth() {
        let t = NocTree::new(8, 2);
        // 8 + 4 + 2 + 1 routers
        assert_eq!(t.num_routers(), 15);
        // opposite leaves meet at the root, three levels up
        assert_eq!(t.hops(t.endpoint(0), t.endpoint(7)), 6);
        // siblings are 2 hops apart
        assert_eq!(t.hops(t.endpoint(0), t.endpoint(1)), 2);
    }

    #[test]
    fn uneven_leaf_count() {
        let t = NocTree::new(5, 4);
        // 5 leaves + 2 level-1 nodes + 1 root
        assert_eq!(t.num_routers(), 8);
        assert_eq!(t.num_crossbars(), 5);
        super::super::check_routes(&t).unwrap();
    }

    #[test]
    fn single_leaf_degenerates() {
        let t = NocTree::new(1, 2);
        assert_eq!(t.num_routers(), 1);
        assert_eq!(t.route_next(0, 0), 0);
    }

    #[test]
    fn route_visits_lca() {
        let t = NocTree::new(4, 2);
        // leaves 0,1 share a parent; 0→1 goes up then down
        let l0 = t.endpoint(0);
        let l1 = t.endpoint(1);
        let up = t.route_next(l0, l1);
        assert_eq!(up, t.parent[l0]);
        assert_eq!(t.route_next(up, l1), l1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_one_rejected() {
        let _ = NocTree::new(4, 1);
    }
}
