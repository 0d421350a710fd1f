//! Network state over a topology: node liveness, link latencies, TTL
//! floods and the search walks the paper relies on.
//!
//! The network counts no messages. Floods and walks return what they
//! reached (nodes, hops, path latencies) and the application charges
//! the messages they cost to its own ledger. Latency matters for the
//! closest-summary-peer choice during construction (§4.1) and for the
//! application's message transit; delivery scheduling stays in the
//! application's simulator loop.
//!
//! [`Network::flood_reach_into`] is the one flood BFS: a caller that
//! floods often keeps a [`FloodScratch`] and an output buffer and
//! allocates nothing per flood, and [`Network::flood_reach`] and
//! [`Network::flood_reach_timed`] wrap it for one-shot use.

use rand::Rng;

use crate::time::SimTime;
use crate::topology::Graph;

/// A node identifier (index into the topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Mutable network state: liveness over an immutable topology.
#[derive(Debug, Clone)]
pub struct Network {
    graph: Graph,
    up: Vec<bool>,
}

/// Reusable buffers of [`Network::flood_reach_into`]: a seen stamp per
/// node and the BFS frontiers. A node counts as seen by the current
/// flood when its stamp equals the current epoch, so starting a flood
/// costs one increment instead of clearing `n` flags; the stamps are
/// cleared only when the epoch wraps.
#[derive(Debug, Clone, Default)]
pub struct FloodScratch {
    seen: Vec<u32>,
    epoch: u32,
    frontier: Vec<(NodeId, SimTime)>,
    next: Vec<(NodeId, SimTime)>,
}

impl FloodScratch {
    /// Starts a flood over `n` nodes: sizes the stamps and returns a
    /// fresh epoch that no stamp holds.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.seen.len() < n {
            // New stamps are 0, which no flood uses as its epoch.
            self.seen.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Sets the epoch of the last flood, so a test can reach the wrap.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

impl Network {
    /// Wraps a topology with every node initially up.
    pub fn new(graph: Graph) -> Self {
        let n = graph.len();
        Self {
            graph,
            up: vec![true; n],
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes (up or down).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// True when the node is currently connected.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.up[n.index()]
    }

    /// Marks a node connected.
    pub fn bring_up(&mut self, n: NodeId) {
        self.up[n.index()] = true;
    }

    /// Marks a node disconnected.
    pub fn take_down(&mut self, n: NodeId) {
        self.up[n.index()] = false;
    }

    /// Number of nodes currently up.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&b| b).count()
    }

    /// Live neighbors of a node.
    pub fn live_neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .neighbors(crate::network::NodeId(n.0))
            .iter()
            .map(|e| e.node)
            .filter(|m| self.is_up(*m))
    }

    /// Latency of the direct link, if adjacent.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        self.graph.link_latency(a, b)
    }

    /// The set of live nodes within `ttl` hops of `origin` (excluding the
    /// origin), in BFS order — a TTL-limited broadcast's reach. Each BFS
    /// edge traversal is one message if actually flooded; the returned
    /// `(node, hops)` pairs let callers do exact accounting. A one-shot
    /// wrapper over [`Network::flood_reach_into`].
    pub fn flood_reach(&self, origin: NodeId, ttl: u32) -> Vec<(NodeId, u32)> {
        self.flood_reach_timed(origin, ttl)
            .into_iter()
            .map(|(v, hops, _)| (v, hops))
            .collect()
    }

    /// [`Network::flood_reach`] with per-node arrival latency: each
    /// reached node is annotated with the accumulated link latency along
    /// its BFS discovery path — when a latency-aware caller floods at
    /// virtual time `t`, node `v` receives the request at `t + latency`.
    /// A one-shot wrapper over [`Network::flood_reach_into`] with a
    /// fresh [`FloodScratch`].
    pub fn flood_reach_timed(&self, origin: NodeId, ttl: u32) -> Vec<(NodeId, u32, SimTime)> {
        let mut out = Vec::new();
        self.flood_reach_into(origin, ttl, &mut FloodScratch::default(), &mut out);
        out
    }

    /// The one TTL-flood BFS: clears `out` and fills it with every live
    /// node within `ttl` hops of `origin` (the origin excluded) as
    /// `(node, hops, path latency)`, in BFS order — neighbours in
    /// adjacency order, each node reported at its first discovery.
    /// `scratch` holds the seen stamps and frontiers; a caller that
    /// floods repeatedly reuses one and allocates nothing once it has
    /// grown to the network's size.
    pub fn flood_reach_into(
        &self,
        origin: NodeId,
        ttl: u32,
        scratch: &mut FloodScratch,
        out: &mut Vec<(NodeId, u32, SimTime)>,
    ) {
        out.clear();
        let epoch = scratch.next_epoch(self.len());
        let FloodScratch {
            seen,
            frontier,
            next,
            ..
        } = scratch;
        seen[origin.index()] = epoch;
        frontier.clear();
        frontier.push((origin, SimTime::ZERO));
        for hop in 1..=ttl {
            next.clear();
            for &(u, du) in frontier.iter() {
                for e in self.graph.neighbors(u) {
                    let v = e.node;
                    if self.is_up(v) && seen[v.index()] != epoch {
                        seen[v.index()] = epoch;
                        let dv = du + e.latency;
                        out.push((v, hop, dv));
                        next.push((v, dv));
                    }
                }
            }
            std::mem::swap(frontier, next);
            if frontier.is_empty() {
                break;
            }
        }
    }

    /// Number of edge messages a TTL flood from `origin` would send
    /// (every live node within reach forwards to all its live neighbors
    /// except where TTL expires — the classic Gnutella cost): the
    /// origin's live degree plus that of every node
    /// [`Network::flood_reach_into`] finds within `ttl − 1` hops, the
    /// ones that still forward. Duplicates count: every forward is a
    /// message. 0 for `ttl == 0` or a down origin.
    pub fn flood_message_count(&self, origin: NodeId, ttl: u32) -> u64 {
        if ttl == 0 || !self.is_up(origin) {
            return 0;
        }
        let live_degree = |v: NodeId| self.live_neighbors(v).count() as u64;
        let mut forwarders = Vec::new();
        self.flood_reach_into(
            origin,
            ttl - 1,
            &mut FloodScratch::default(),
            &mut forwarders,
        );
        live_degree(origin)
            + forwarders
                .iter()
                .map(|&(v, _, _)| live_degree(v))
                .sum::<u64>()
    }

    /// One step of a *random walk* over live neighbors.
    pub fn random_step<R: Rng + ?Sized>(&self, from: NodeId, rng: &mut R) -> Option<NodeId> {
        let nbrs: Vec<NodeId> = self.live_neighbors(from).collect();
        if nbrs.is_empty() {
            None
        } else {
            Some(nbrs[rng.gen_range(0..nbrs.len())])
        }
    }

    /// One step of a *selective walk* (§4.1, after Adamic et al. \[23\]):
    /// the highest-degree live neighbor not yet visited.
    pub fn selective_step(&self, from: NodeId, visited: &[bool]) -> Option<NodeId> {
        self.live_neighbors(from)
            .filter(|n| !visited[n.index()])
            .max_by_key(|n| self.graph.degree(*n))
    }

    /// Runs a selective walk from `origin` until `stop` returns true or
    /// `max_hops` is exhausted. Returns the visited path (excluding
    /// origin) and whether the stop condition was met. Each hop is one
    /// message; the caller accounts them.
    pub fn selective_walk<F: FnMut(NodeId) -> bool>(
        &self,
        origin: NodeId,
        max_hops: u32,
        mut stop: F,
    ) -> (Vec<NodeId>, bool) {
        let mut visited = vec![false; self.len()];
        visited[origin.index()] = true;
        let mut path = Vec::new();
        let mut cur = origin;
        for _ in 0..max_hops {
            let Some(next) = self.selective_step(cur, &visited) else {
                return (path, false);
            };
            visited[next.index()] = true;
            path.push(next);
            if stop(next) {
                return (path, true);
            }
            cur = next;
        }
        (path, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Graph, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn net(n: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TopologyConfig {
            nodes: n,
            ..Default::default()
        };
        Network::new(Graph::barabasi_albert(&cfg, &mut rng))
    }

    #[test]
    fn liveness_toggling() {
        let mut n = net(10, 1);
        assert_eq!(n.up_count(), 10);
        n.take_down(NodeId(3));
        assert!(!n.is_up(NodeId(3)));
        assert_eq!(n.up_count(), 9);
        n.bring_up(NodeId(3));
        assert_eq!(n.up_count(), 10);
    }

    #[test]
    fn flood_reach_respects_ttl_and_liveness() {
        let mut n = Network::new(Graph::ring(10, SimTime::from_millis(1)));
        let reach1 = n.flood_reach(NodeId(0), 1);
        assert_eq!(reach1.len(), 2, "two ring neighbors");
        let reach2 = n.flood_reach(NodeId(0), 2);
        assert_eq!(reach2.len(), 4);
        assert!(reach2.iter().all(|&(_, h)| h <= 2));

        n.take_down(NodeId(1));
        let reach = n.flood_reach(NodeId(0), 3);
        // One side of the ring is cut at node 1.
        assert!(reach.iter().all(|&(v, _)| v != NodeId(1)));
        assert_eq!(reach.len(), 3, "only the other direction: 9, 8, 7");
    }

    #[test]
    fn flood_reach_timed_accumulates_latency() {
        let n = Network::new(Graph::ring(10, SimTime::from_millis(2)));
        let reach = n.flood_reach_timed(NodeId(0), 3);
        assert_eq!(reach.len(), 6);
        for &(v, hops, lat) in &reach {
            assert_eq!(
                lat,
                SimTime::from_millis(2 * hops as u64),
                "node {v:?} at {hops} hops"
            );
        }
        // Same nodes and hop counts as the untimed variant.
        let untimed = n.flood_reach(NodeId(0), 3);
        let plain: Vec<(NodeId, u32)> = reach.iter().map(|&(v, h, _)| (v, h)).collect();
        assert_eq!(plain, untimed);
    }

    /// The BFS `flood_reach_timed` ran before it became a wrapper over
    /// `flood_reach_into`: fresh seen flags and frontiers per call.
    fn reference_flood(n: &Network, origin: NodeId, ttl: u32) -> Vec<(NodeId, u32, SimTime)> {
        let mut seen = vec![false; n.len()];
        seen[origin.index()] = true;
        let mut frontier = vec![(origin, SimTime::ZERO)];
        let mut out = Vec::new();
        for hop in 1..=ttl {
            let mut next = Vec::new();
            for &(u, du) in &frontier {
                for e in n.graph().neighbors(u) {
                    let v = e.node;
                    if n.is_up(v) && !seen[v.index()] {
                        seen[v.index()] = true;
                        let dv = du + e.latency;
                        out.push((v, hop, dv));
                        next.push((v, dv));
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn reused_scratch_floods_like_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = FloodScratch::default();
        let mut out = Vec::new();
        let mut floods = 0;
        for (size, seed) in [(60, 1), (300, 2), (40, 3)] {
            let mut n = net(size, seed);
            for _ in 0..150 {
                let v = NodeId(rng.gen_range(0..size as u32));
                if n.is_up(v) {
                    n.take_down(v);
                } else {
                    n.bring_up(v);
                }
                let origin = NodeId(rng.gen_range(0..size as u32));
                let ttl = rng.gen_range(1..=8);
                n.flood_reach_into(origin, ttl, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    n.flood_reach_timed(origin, ttl),
                    "{origin:?} ttl {ttl}"
                );
                assert_eq!(
                    out,
                    reference_flood(&n, origin, ttl),
                    "{origin:?} ttl {ttl}"
                );
                floods += 1;
            }
        }
        assert_eq!(scratch.epoch, floods);
    }

    #[test]
    fn flood_epoch_wrap_clears_the_stamps() {
        let n = net(200, 5);
        let mut scratch = FloodScratch::default();
        let mut out = Vec::new();
        // Epoch 1 stamps the TTL-3 neighbourhood of node 0. The next
        // flood wraps the epoch back to 1 and starts from node 0 again:
        // unless the wrap clears the stamps, it sees that whole
        // neighbourhood as already reached.
        n.flood_reach_into(NodeId(0), 3, &mut scratch, &mut out);
        assert!(!out.is_empty());
        scratch.set_epoch(u32::MAX);
        for (i, origin) in [0u32, 7, 0, 19].into_iter().enumerate() {
            n.flood_reach_into(NodeId(origin), 3, &mut scratch, &mut out);
            assert_eq!(out, reference_flood(&n, NodeId(origin), 3), "flood {i}");
        }
        assert_eq!(scratch.epoch, 4, "1 after the wrap, then 2, 3, 4");
    }

    /// The BFS `flood_message_count` ran before it counted over
    /// `flood_reach_into`: fresh seen flags, every forward counted.
    fn reference_flood_message_count(n: &Network, origin: NodeId, ttl: u32) -> u64 {
        if ttl == 0 || !n.is_up(origin) {
            return 0;
        }
        let mut msgs = 0u64;
        let mut seen = vec![false; n.len()];
        seen[origin.index()] = true;
        let mut frontier = vec![origin];
        let mut remaining = ttl;
        while remaining > 0 && !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for v in n.live_neighbors(u) {
                    msgs += 1;
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        next.push(v);
                    }
                }
            }
            frontier = next;
            remaining -= 1;
        }
        msgs
    }

    #[test]
    fn flood_message_count_matches_the_reference_bfs() {
        let mut rng = StdRng::seed_from_u64(33);
        for (size, seed) in [(50, 1), (250, 2), (30, 3)] {
            let mut n = net(size, seed);
            for _ in 0..120 {
                let v = NodeId(rng.gen_range(0..size as u32));
                n.take_down(v);
                if rng.gen_bool(0.5) {
                    n.bring_up(NodeId(rng.gen_range(0..size as u32)));
                }
                let origin = NodeId(rng.gen_range(0..size as u32));
                for ttl in 0..=5 {
                    assert_eq!(
                        n.flood_message_count(origin, ttl),
                        reference_flood_message_count(&n, origin, ttl),
                        "{origin:?} ttl {ttl}"
                    );
                }
            }
        }
    }

    #[test]
    fn flood_cost_grows_with_ttl() {
        let n = net(500, 3);
        let c1 = n.flood_message_count(NodeId(0), 1);
        let c2 = n.flood_message_count(NodeId(0), 2);
        let c3 = n.flood_message_count(NodeId(0), 3);
        assert!(c1 < c2 && c2 < c3, "{c1} {c2} {c3}");
        assert_eq!(n.flood_message_count(NodeId(0), 0), 0);
    }

    #[test]
    fn flood_cost_on_star_is_exact() {
        let n = Network::new(Graph::star(6, SimTime::from_millis(1)));
        // From center: 5 messages at hop 1; then each leaf forwards back
        // to the center (duplicate) at hop 2: 5 more.
        assert_eq!(n.flood_message_count(NodeId(0), 1), 5);
        assert_eq!(n.flood_message_count(NodeId(0), 2), 10);
    }

    #[test]
    fn selective_walk_prefers_hubs() {
        // Star: any leaf's best neighbor is the hub.
        let n = Network::new(Graph::star(8, SimTime::from_millis(1)));
        let (path, found) = n.selective_walk(NodeId(3), 5, |v| v == NodeId(0));
        assert!(found);
        assert_eq!(path, vec![NodeId(0)], "first hop reaches the hub");
    }

    #[test]
    fn selective_walk_does_not_revisit() {
        let n = Network::new(Graph::ring(6, SimTime::from_millis(1)));
        let (path, found) = n.selective_walk(NodeId(0), 10, |_| false);
        assert!(!found);
        let mut dedup = path.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), path.len(), "no revisits");
        assert!(path.len() >= 4, "walk should cover most of the ring");
    }

    #[test]
    fn random_step_stays_live() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = net(50, 8);
        // Kill most nodes; steps must land on live ones only.
        for i in 10..50 {
            n.take_down(NodeId(i));
        }
        for i in 0..10 {
            if let Some(next) = n.random_step(NodeId(i), &mut rng) {
                assert!(n.is_up(next));
            }
        }
    }

    #[test]
    fn walk_in_dead_region_terminates() {
        let mut n = Network::new(Graph::ring(5, SimTime::from_millis(1)));
        n.take_down(NodeId(1));
        n.take_down(NodeId(4));
        let (path, found) = n.selective_walk(NodeId(0), 10, |_| false);
        assert!(path.is_empty());
        assert!(!found);
    }
}
