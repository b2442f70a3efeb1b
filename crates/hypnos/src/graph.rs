//! Topology connectivity for the sleep-safety check.
//!
//! Taking edges out of a graph never merges components, and it splits one
//! exactly when a removed edge's endpoints end up disconnected. So "the
//! component count must not grow when link `x` sleeps" is the same
//! question as "every edge of `x` still has an up path between its
//! endpoints that avoids `x`" — a bridge test, answered by one search
//! that stops as soon as it reaches the far endpoint. Nothing outside the
//! endpoints' component is ever visited.

/// An undirected multigraph of routers (nodes) and links (edges).
///
/// Nodes get dense indices and links dense slots, both assigned once at
/// build in ascending id order (FJ07: the search order is a function of
/// the ids alone). One link id may name several edges; it is up or down
/// as a whole.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Node ids, ascending; a node's dense index is its position.
    nodes: Vec<usize>,
    /// Link ids, ascending; a link's slot is its position.
    links: Vec<usize>,
    /// Dense endpoints of each edge, in the order the edges were given.
    ends: Vec<(usize, usize)>,
    /// The edges of slot `s` are `slot_edges[slot_start[s]..slot_start[s + 1]]`.
    slot_start: Vec<usize>,
    slot_edges: Vec<usize>,
    /// Adjacency: node → (neighbour, link slot).
    adj: Vec<Vec<(usize, usize)>>,
    /// Whether each link slot is up.
    up: Vec<bool>,
    up_count: usize,
    /// Search state: a node is visited when its stamp equals
    /// `generation`, so no search clears or allocates anything.
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<usize>,
}

impl Topology {
    /// Builds a topology from `(link_id, a, b)` edges, all up.
    pub fn new(edges: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let edges: Vec<(usize, usize, usize)> = edges.into_iter().collect();
        let mut nodes: Vec<usize> = edges.iter().flat_map(|&(_, a, b)| [a, b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut links: Vec<usize> = edges.iter().map(|&(id, ..)| id).collect();
        links.sort_unstable();
        links.dedup();
        // Every id below was collected above, so the searches all hit.
        let dense = |ids: &[usize], id: usize| ids.binary_search(&id).unwrap_or_default();

        let mut adj = vec![Vec::new(); nodes.len()];
        let mut ends = Vec::with_capacity(edges.len());
        let mut edge_slot = Vec::with_capacity(edges.len());
        let mut slot_start = vec![0; links.len() + 1];
        for &(id, a, b) in &edges {
            let (a, b, slot) = (dense(&nodes, a), dense(&nodes, b), dense(&links, id));
            adj[a].push((b, slot));
            adj[b].push((a, slot));
            ends.push((a, b));
            edge_slot.push(slot);
            slot_start[slot + 1] += 1;
        }
        for s in 0..links.len() {
            slot_start[s + 1] += slot_start[s];
        }
        let mut slot_edges: Vec<usize> = (0..edges.len()).collect();
        slot_edges.sort_by_key(|&e| edge_slot[e]);
        Topology {
            stamp: vec![0; nodes.len()],
            up: vec![true; links.len()],
            up_count: links.len(),
            nodes,
            links,
            ends,
            slot_start,
            slot_edges,
            adj,
            generation: 0,
            stack: Vec::new(),
        }
    }

    /// Number of nodes with at least one edge.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of up links.
    pub fn up_count(&self) -> usize {
        self.up_count
    }

    /// Dense endpoint indices of each edge, in the order the edges were
    /// given to [`Topology::new`]; each index is below
    /// [`Topology::node_count`].
    pub fn ends(&self) -> &[(usize, usize)] {
        &self.ends
    }

    fn slot(&self, link_id: usize) -> Option<usize> {
        self.links.binary_search(&link_id).ok()
    }

    /// Marks a link down.
    pub fn sleep(&mut self, link_id: usize) {
        if let Some(slot) = self.slot(link_id) {
            if self.up[slot] {
                self.up[slot] = false;
                self.up_count -= 1;
            }
        }
    }

    /// Whether a link is up.
    pub fn is_up(&self, link_id: usize) -> bool {
        self.slot(link_id).is_some_and(|slot| self.up[slot])
    }

    /// Whether sleeping `link_id` leaves connectivity unchanged: the
    /// number of components must not grow (the baseline may already be a
    /// forest). A link that is down or unknown is never safe; a self-loop
    /// that is up always is. Only the caller commits sleeps.
    pub fn safe_to_sleep(&mut self, link_id: usize) -> bool {
        let Some(slot) = self.slot(link_id).filter(|&s| self.up[s]) else {
            return false;
        };
        (self.slot_start[slot]..self.slot_start[slot + 1]).all(|i| {
            let (a, b) = self.ends[self.slot_edges[i]];
            self.joined_without(a, b, slot)
        })
    }

    /// Whether an up path joins nodes `from` and `to` without using link
    /// slot `skip`: a depth-first search that stops at `to`.
    fn joined_without(&mut self, from: usize, to: usize, skip: usize) -> bool {
        if from == to {
            return true;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        let generation = self.generation;
        self.stamp[from] = generation;
        self.stack.clear();
        self.stack.push(from);
        while let Some(node) = self.stack.pop() {
            for &(next, slot) in &self.adj[node] {
                if slot == skip || !self.up[slot] || self.stamp[next] == generation {
                    continue;
                }
                if next == to {
                    return true;
                }
                self.stamp[next] = generation;
                self.stack.push(next);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// Marks a link up again.
        fn wake(&mut self, link_id: usize) {
            if let Some(slot) = self.slot(link_id) {
                if !self.up[slot] {
                    self.up[slot] = true;
                    self.up_count += 1;
                }
            }
        }

        /// Whether the up links join every node to node 0.
        fn connected(&mut self) -> bool {
            (1..self.nodes.len()).all(|n| self.joined_without(0, n, usize::MAX))
        }
    }

    /// A triangle: any single link can sleep; two cannot.
    fn triangle() -> Topology {
        Topology::new([(0, 1, 2), (1, 2, 3), (2, 3, 1)])
    }

    #[test]
    fn triangle_is_connected() {
        assert!(triangle().connected());
        assert_eq!(triangle().node_count(), 3);
        assert_eq!(triangle().up_count(), 3);
    }

    #[test]
    fn one_sleep_keeps_connectivity_two_break_it() {
        let mut t = triangle();
        assert!(t.safe_to_sleep(0));
        t.sleep(0);
        assert!(t.connected());
        assert!(!t.safe_to_sleep(1), "second sleep would partition");
        t.sleep(1);
        assert!(!t.connected());
        t.wake(1);
        assert!(t.connected());
    }

    #[test]
    fn bridge_cannot_sleep() {
        // Path 1-2-3: both links are bridges.
        let mut t = Topology::new([(0, 1, 2), (1, 2, 3)]);
        assert!(!t.safe_to_sleep(0));
        assert!(!t.safe_to_sleep(1));
    }

    #[test]
    fn parallel_links_redundant() {
        // Two parallel links between the same routers: one can sleep.
        let mut t = Topology::new([(0, 1, 2), (1, 1, 2)]);
        assert!(t.safe_to_sleep(0));
        t.sleep(0);
        assert!(t.connected());
        assert!(!t.safe_to_sleep(1));
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::default().connected());
    }

    #[test]
    fn sleeping_down_link_is_not_safe() {
        let mut t = triangle();
        t.sleep(0);
        assert!(!t.safe_to_sleep(0), "already down");
    }

    #[test]
    fn self_loops_are_safe_and_unknown_ids_are_not() {
        let mut t = Topology::new([(0, 1, 2), (1, 2, 2)]);
        assert!(t.safe_to_sleep(1), "a self-loop never joins anything");
        assert!(!t.safe_to_sleep(0));
        assert!(!t.safe_to_sleep(7), "no such link");
        t.sleep(7);
        assert_eq!(t.up_count(), 2);
    }

    #[test]
    fn one_id_on_several_edges_sleeps_as_a_whole() {
        // Id 5 names both a redundant edge of the triangle 1-2-3 and the
        // only edge to node 4: sleeping it would cut node 4 off.
        let mut t = Topology::new([(0, 1, 2), (1, 2, 3), (5, 3, 1), (5, 3, 4)]);
        assert_eq!(t.up_count(), 3);
        assert!(!t.safe_to_sleep(5));
        assert!(t.safe_to_sleep(0));
        t.sleep(5);
        assert!(!t.is_up(5));
        assert_eq!(t.up_count(), 2);
        assert!(!t.safe_to_sleep(0), "node 1 now hangs on link 0 alone");
    }

    #[test]
    fn stamps_survive_generation_wraparound() {
        let mut t = triangle();
        t.generation = u32::MAX - 1;
        for _ in 0..4 {
            assert!(t.safe_to_sleep(0));
        }
        assert!(t.generation >= 1);
    }
}
