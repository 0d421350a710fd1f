//! Domain construction over the physical topology (§4.1) and summary-peer
//! dynamicity (§4.3).
//!
//! Construction starts at each summary peer (SP), which broadcasts a
//! `sumpeer` message with a TTL (the paper's example: 2). A peer
//! receiving its first `sumpeer` joins that SP's domain by shipping its
//! `localsum`; a peer hearing from a *closer* SP (latency along the
//! broadcast path) drops its old partnership (`drop` message) and joins
//! the closer one. Peers out of every broadcast's reach run a *selective
//! walk* — always forwarding to the highest-degree neighbor \[23\] — which
//! stops at the first partner or summary peer found.
//!
//! When an SP departs gracefully it `release`s its partners, who each
//! walk to a new SP; when it fails, partners discover the failure on
//! their next push/query attempt and then walk.
//!
//! With [`crate::config::SimConfig::rebirth`] enabled the story does
//! not end there: the dissolved domain *re-elects* a replacement SP
//! from its live hub candidates ([`elect_replacement_sp`]) — by degree
//! order in instantaneous mode, or minimizing the expected partner
//! round-trip on the candidate's broadcast tree when the latency
//! message plane prices hops ([`ElectionPolicy::LatencyAware`]) — and
//! the orphans re-home to the newborn SP instead of scattering across
//! surviving domains. The kernel drives the election/takeover events;
//! this module holds the topology-level mechanics.

use p2psim::network::{Network, NodeId};
use p2psim::time::SimTime;

/// The outcome of domain construction.
#[derive(Debug, Clone)]
pub struct Domains {
    /// The elected summary peers.
    pub superpeers: Vec<NodeId>,
    /// `assignment[p]` = the SP of peer `p` (`None` for SPs themselves
    /// and unreachable peers).
    pub assignment: Vec<Option<NodeId>>,
    /// Latency distance (µs along the broadcast path) from each peer to
    /// its SP.
    pub distance: Vec<u64>,
    /// Messages the construction protocol cost, all of the
    /// `Construction` class: the `sumpeer` broadcasts, one `drop` per
    /// abandoned partnership, the selective walks' `find` hops and one
    /// `localsum` per partnership formed.
    pub messages: u64,
}

impl Domains {
    /// Members of one SP's domain (partners only).
    pub fn members(&self, sp: NodeId) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Some(sp))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of peers assigned to any domain.
    pub fn assigned_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Virtual time at which peer `p` heard its SP's `sumpeer` broadcast
    /// — the accumulated link latency along the broadcast tree. `None`
    /// for SPs, unassigned peers and selective-walk partners (whose
    /// broadcast-path latency is unknown).
    pub fn join_time(&self, p: NodeId) -> Option<SimTime> {
        match (self.assignment[p.index()], self.distance[p.index()]) {
            (Some(_), d) if d < u64::MAX - 1 => Some(SimTime(d)),
            _ => None,
        }
    }
}

/// Elects `count` summary peers: the highest-degree live nodes, the
/// standard ultrapeer criterion (superpeers must afford the extra load).
pub fn elect_superpeers(net: &Network, count: usize) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = (0..net.len() as u32)
        .map(NodeId)
        .filter(|&p| net.is_up(p))
        .collect();
    by_degree.sort_by_key(|&p| std::cmp::Reverse(net.graph().degree(p)));
    by_degree.truncate(count);
    by_degree
}

/// §4.1's `find`: a selective walk from `p` that stops at the first
/// summary peer or partner it reaches ("once a partner or a summary
/// peer is reached, the find message is stopped"); `p` adopts that
/// SP. Returns the walk's hops, one `find` message each, and the
/// adopted SP (`None` when the walk found nobody).
pub(crate) fn find_domain(
    net: &Network,
    superpeers: &[NodeId],
    assignment: &[Option<NodeId>],
    p: NodeId,
) -> (u64, Option<NodeId>) {
    let max_hops = (net.len() as u32).min(64);
    let (path, found) = net.selective_walk(p, max_hops, |v| {
        superpeers.contains(&v) || assignment[v.index()].is_some()
    });
    let sp = found.then(|| {
        let reached = *path.last().expect("found implies non-empty path");
        if superpeers.contains(&reached) {
            reached
        } else {
            assignment[reached.index()].expect("partner has an SP")
        }
    });
    (path.len() as u64, sp)
}

/// Runs the construction protocol and returns the domain map, with the
/// messages it cost in [`Domains::messages`].
pub fn construct_domains(net: &Network, superpeers: &[NodeId], ttl: u32) -> Domains {
    let n = net.len();
    let mut assignment: Vec<Option<NodeId>> = vec![None; n];
    let mut distance: Vec<u64> = vec![u64::MAX; n];
    let mut messages = 0;

    // Each SP broadcasts `sumpeer` with the TTL; the flood cost is the
    // standard duplicate-counting broadcast cost.
    for &sp in superpeers {
        messages += net.flood_message_count(sp, ttl);
    }

    // Peers adopt the closest SP (latency along the broadcast tree).
    for &sp in superpeers {
        let dist = broadcast_distances(net, sp, ttl);
        for i in 0..n {
            let p = NodeId(i as u32);
            if p == sp || superpeers.contains(&p) {
                continue;
            }
            if let Some(d) = dist[i] {
                if d < distance[i] {
                    if assignment[i].is_some() {
                        // §4.1: drop the farther partnership first.
                        messages += 1;
                    }
                    assignment[i] = Some(sp);
                    distance[i] = d;
                    messages += 1; // localsum
                }
            }
        }
    }

    // Unreached peers walk to the first partner or summary peer.
    for i in 0..n {
        let p = NodeId(i as u32);
        if assignment[i].is_some() || superpeers.contains(&p) || !net.is_up(p) {
            continue;
        }
        let (hops, sp) = find_domain(net, superpeers, &assignment, p);
        messages += hops;
        if let Some(sp) = sp {
            assignment[i] = Some(sp);
            distance[i] = u64::MAX - 1; // out-of-broadcast partner: distance unknown
            messages += 1; // localsum
        }
    }

    Domains {
        superpeers: superpeers.to_vec(),
        assignment,
        distance,
        messages,
    }
}

/// The dissolution half of a §4.3 summary-peer departure: takes the SP
/// down, removes it from the superpeer roster and orphans its members
/// (assignment cleared, broadcast distance forgotten). Returns the
/// orphaned members. The `release` to every partner (graceful) or the
/// timed-out push each partner wastes discovering the failure is the
/// caller's to charge. [`handle_sp_departure`] follows this with
/// selective walks to surviving domains; the rebirth path instead
/// hands the orphans to a freshly elected replacement SP.
pub fn dissolve_domain(net: &mut Network, domains: &mut Domains, sp: NodeId) -> Vec<NodeId> {
    let members = domains.members(sp);
    net.take_down(sp);
    domains.superpeers.retain(|&s| s != sp);
    for &p in &members {
        domains.assignment[p.index()] = None;
        // The broadcast-tree latency was measured to the departed SP;
        // whatever domain the peer lands in next, the path latency is
        // unknown until a new broadcast measures it.
        domains.distance[p.index()] = u64::MAX - 1;
    }
    members
}

/// Handles a summary peer departure (§4.3): the domain dissolves and
/// every live orphaned partner walks to a new SP. Returns the number of
/// re-homed partners and the `Construction` messages the re-homes cost
/// (`find` hops plus one `localsum` per re-homed partner).
pub fn handle_sp_departure(net: &mut Network, domains: &mut Domains, sp: NodeId) -> (usize, u64) {
    let members = dissolve_domain(net, domains, sp);
    let (mut rehomed, mut messages) = (0, 0);
    for p in members {
        if !net.is_up(p) {
            continue;
        }
        let (hops, new_sp) = find_domain(net, &domains.superpeers, &domains.assignment, p);
        messages += hops;
        if let Some(new_sp) = new_sp {
            domains.assignment[p.index()] = Some(new_sp);
            messages += 1; // localsum
            rehomed += 1;
        }
    }
    (rehomed, messages)
}

/// How many of the highest-degree live members stand as candidates in
/// a rebirth election — the construction-time ultrapeer criterion
/// (hubs must afford the SP load) applied to the dissolved domain's
/// own membership, and a bound on the latency-scoring work.
pub const REBIRTH_CANDIDATES: usize = 8;

/// How a replacement summary peer is chosen when a dissolved domain is
/// reborn (§4.3 completed; the ROADMAP's "latency-aware SP election").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionPolicy {
    /// The highest-degree live candidate, ties broken by lowest node
    /// id — the same ultrapeer criterion [`elect_superpeers`] applies
    /// at construction time, and the instantaneous-mode fallback
    /// (without a message plane there are no link costs to weigh).
    Degree,
    /// Among the [`REBIRTH_CANDIDATES`] highest-degree live members,
    /// the one minimizing the expected partner round-trip on its
    /// `sumpeer` broadcast tree: each partner's one-way cost is the
    /// accumulated link latency along its BFS discovery path within
    /// `ttl` hops, and partners out of broadcast reach are priced at
    /// the message plane's `default_hop` (they would re-home via a
    /// selective walk whose path latency is unknown). Ties broken by
    /// lowest node id. Deterministic: no randomness is drawn.
    LatencyAware {
        /// TTL of the candidate's `sumpeer` broadcast (the
        /// construction TTL, §4.1's example: 2).
        ttl: u32,
        /// One-way price of a partner the broadcast does not reach.
        default_hop: SimTime,
    },
}

/// Minimum accumulated broadcast-tree latency (µs) from `origin` to
/// every node within `ttl` BFS hops, over live nodes only — the same
/// tree [`construct_domains`] prices partnerships with.
fn broadcast_distances(net: &Network, origin: NodeId, ttl: u32) -> Vec<Option<u64>> {
    let n = net.len();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    dist[origin.index()] = Some(0);
    let mut frontier = vec![origin];
    for _ in 0..ttl {
        let mut next = Vec::new();
        for &u in &frontier {
            let du = dist[u.index()].expect("frontier has distance");
            let nbrs: Vec<(NodeId, SimTime)> = net
                .graph()
                .neighbors(u)
                .iter()
                .map(|e| (e.node, e.latency))
                .collect();
            for (v, lat) in nbrs {
                if !net.is_up(v) {
                    continue;
                }
                let dv = du + lat.0;
                if dist[v.index()].map(|old| dv < old).unwrap_or(true) {
                    dist[v.index()] = Some(dv);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Elects the replacement SP for a reborn domain from `live_members`
/// (the dissolved domain's members that are still connected), who are
/// also the partners it will serve. Returns `None` when no live
/// candidate exists — the domain then stays dissolved and its members
/// walk to surviving domains as they rejoin.
pub fn elect_replacement_sp(
    net: &Network,
    live_members: &[NodeId],
    policy: ElectionPolicy,
) -> Option<NodeId> {
    let mut hubs: Vec<NodeId> = live_members
        .iter()
        .copied()
        .filter(|&m| net.is_up(m))
        .collect();
    // Highest degree first, ties by lowest id — deterministic.
    hubs.sort_by_key(|&m| (std::cmp::Reverse(net.graph().degree(m)), m.0));
    match policy {
        ElectionPolicy::Degree => hubs.first().copied(),
        ElectionPolicy::LatencyAware { ttl, default_hop } => {
            hubs.truncate(REBIRTH_CANDIDATES);
            hubs.iter()
                .copied()
                .map(|c| {
                    let dist = broadcast_distances(net, c, ttl);
                    let rtt_sum: u64 = live_members
                        .iter()
                        .filter(|&&p| p != c)
                        .map(|&p| 2 * dist[p.index()].unwrap_or(default_hop.0))
                        .sum();
                    (rtt_sum, c)
                })
                .min_by_key(|&(rtt, c)| (rtt, c.0))
                .map(|(_, c)| c)
        }
    }
}

/// The newborn SP's takeover broadcast: `sumpeer` floods over `ttl`
/// hops and the broadcast-tree latencies become the re-homed partners'
/// distances. Registers `new_sp` in the superpeer roster and returns
/// the per-node tree distance so the caller can re-assign the orphans
/// (partners out of reach keep an unknown distance).
pub fn rebirth_broadcast(
    net: &Network,
    domains: &mut Domains,
    new_sp: NodeId,
    ttl: u32,
) -> Vec<Option<u64>> {
    if !domains.superpeers.contains(&new_sp) {
        domains.superpeers.push(new_sp);
    }
    domains.assignment[new_sp.index()] = None;
    domains.distance[new_sp.index()] = u64::MAX;
    broadcast_distances(net, new_sp, ttl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::topology::{Graph, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(n: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TopologyConfig {
            nodes: n,
            ..Default::default()
        };
        Network::new(Graph::barabasi_albert(&cfg, &mut rng))
    }

    #[test]
    fn superpeer_election_prefers_hubs() {
        let n = net(300, 1);
        let sps = elect_superpeers(&n, 5);
        assert_eq!(sps.len(), 5);
        let min_sp_degree = sps.iter().map(|&s| n.graph().degree(s)).min().unwrap();
        let avg: f64 = n.graph().average_degree();
        assert!(min_sp_degree as f64 >= avg, "SPs must be hubs");
    }

    #[test]
    fn construction_assigns_most_peers() {
        let n = net(400, 2);
        let sps = elect_superpeers(&n, 8);
        let domains = construct_domains(&n, &sps, 2);
        // Power-law hubs with TTL 2 + selective-walk fallback reach
        // essentially everyone.
        let assignable = n.len() - sps.len();
        assert!(
            domains.assigned_count() as f64 >= 0.95 * assignable as f64,
            "assigned {}/{assignable}",
            domains.assigned_count()
        );
        assert!(domains.messages > 0);
        // No SP is assigned to another SP.
        for &sp in &sps {
            assert!(domains.assignment[sp.index()].is_none());
        }
    }

    #[test]
    fn closer_sp_wins() {
        // Line: sp0 - a - b - sp1; with TTL 2 both SPs reach a and b.
        let mut g = Graph::empty(4);
        g.add_edge(NodeId(0), NodeId(1), SimTime::from_millis(1));
        g.add_edge(NodeId(1), NodeId(2), SimTime::from_millis(1));
        g.add_edge(NodeId(2), NodeId(3), SimTime::from_millis(1));
        let n = Network::new(g);
        let domains = construct_domains(&n, &[NodeId(0), NodeId(3)], 2);
        assert_eq!(domains.assignment[1], Some(NodeId(0)), "a is closer to sp0");
        assert_eq!(domains.assignment[2], Some(NodeId(3)), "b is closer to sp1");
    }

    #[test]
    fn broadcast_tree_delivers_over_link_latencies() {
        // Line: sp0 - a - b, 1 ms links: a joins at 1 ms, b at 2 ms.
        let mut g = Graph::empty(3);
        g.add_edge(NodeId(0), NodeId(1), SimTime::from_millis(1));
        g.add_edge(NodeId(1), NodeId(2), SimTime::from_millis(1));
        let n = Network::new(g);
        let domains = construct_domains(&n, &[NodeId(0)], 2);
        assert_eq!(domains.join_time(NodeId(1)), Some(SimTime::from_millis(1)));
        assert_eq!(domains.join_time(NodeId(2)), Some(SimTime::from_millis(2)));
        assert_eq!(domains.join_time(NodeId(0)), None, "SPs do not join");
    }

    #[test]
    fn members_listing() {
        let n = net(100, 3);
        let sps = elect_superpeers(&n, 3);
        let domains = construct_domains(&n, &sps, 2);
        let total: usize = sps.iter().map(|&s| domains.members(s).len()).sum();
        assert_eq!(total, domains.assigned_count());
    }

    #[test]
    fn graceful_sp_departure_rehomes_partners() {
        let mut n = net(200, 4);
        let sps = elect_superpeers(&n, 4);
        let mut domains = construct_domains(&n, &sps, 2);
        let sp = sps[0];
        let orphans = domains.members(sp).len();
        let (rehomed, messages) = handle_sp_departure(&mut n, &mut domains, sp);
        assert!(orphans > 0);
        assert!(
            rehomed as f64 >= 0.9 * orphans as f64,
            "{rehomed}/{orphans}"
        );
        assert!(
            messages >= 2 * rehomed as u64,
            "each re-home costs at least one find hop and a localsum"
        );
        assert!(!domains.superpeers.contains(&sp));
        // Nobody points at the departed SP anymore.
        assert!(domains.assignment.iter().all(|a| *a != Some(sp)));
    }

    #[test]
    fn degree_election_prefers_hubs_with_id_tiebreak() {
        // Star with an extra edge: node 0 is the hub.
        let mut g = Graph::star(6, SimTime::from_millis(1));
        g.add_edge(NodeId(3), NodeId(4), SimTime::from_millis(1));
        let n = Network::new(g);
        let members: Vec<NodeId> = (0..6).map(NodeId).collect();
        let sp = elect_replacement_sp(&n, &members, ElectionPolicy::Degree);
        assert_eq!(sp, Some(NodeId(0)), "the hub wins on degree");
        // Without the hub, 3 and 4 tie at degree 2: lowest id wins.
        let rest: Vec<NodeId> = (1..6).map(NodeId).collect();
        let sp = elect_replacement_sp(&n, &rest, ElectionPolicy::Degree);
        assert_eq!(sp, Some(NodeId(3)), "ties break by lowest id");
    }

    #[test]
    fn latency_election_minimizes_partner_round_trip() {
        // Line 0 - 1 - 2 - 3 - 4 with 1 ms links: every node has
        // degree ≤ 2, and the center (2) minimizes the summed
        // broadcast-tree round-trip to the rest.
        let mut g = Graph::empty(5);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), SimTime::from_millis(1));
        }
        let n = Network::new(g);
        let members: Vec<NodeId> = (0..5).map(NodeId).collect();
        let sp = elect_replacement_sp(
            &n,
            &members,
            ElectionPolicy::LatencyAware {
                ttl: 2,
                default_hop: SimTime::from_millis(50),
            },
        );
        assert_eq!(sp, Some(NodeId(2)), "the center minimizes expected RTT");
        // Degree order alone cannot tell 1, 2, 3 apart and falls back
        // to the lowest id — the latency-aware policy does better.
        let by_degree = elect_replacement_sp(&n, &members, ElectionPolicy::Degree);
        assert_eq!(by_degree, Some(NodeId(1)));
    }

    #[test]
    fn election_ignores_down_members_and_may_abstain() {
        let mut net = net(50, 9);
        let members: Vec<NodeId> = (0..10).map(NodeId).collect();
        for &m in &members {
            net.take_down(m);
        }
        assert_eq!(
            elect_replacement_sp(&net, &members, ElectionPolicy::Degree),
            None,
            "no live candidate, no rebirth"
        );
        net.bring_up(NodeId(7));
        assert_eq!(
            elect_replacement_sp(&net, &members, ElectionPolicy::Degree),
            Some(NodeId(7))
        );
    }

    #[test]
    fn dissolve_then_rebirth_broadcast_reassigns_the_roster() {
        let mut n = net(200, 6);
        let sps = elect_superpeers(&n, 4);
        let mut domains = construct_domains(&n, &sps, 2);
        let sp = sps[0];
        let members = domains.members(sp);
        assert!(!members.is_empty());
        let orphans = dissolve_domain(&mut n, &mut domains, sp);
        assert_eq!(orphans, members);
        assert!(!domains.superpeers.contains(&sp));
        assert!(domains.assignment.iter().all(|a| *a != Some(sp)));

        let live: Vec<NodeId> = orphans.iter().copied().filter(|&m| n.is_up(m)).collect();
        let ns =
            elect_replacement_sp(&n, &live, ElectionPolicy::Degree).expect("live members exist");
        let dist = rebirth_broadcast(&n, &mut domains, ns, 2);
        assert!(domains.superpeers.contains(&ns));
        assert_eq!(domains.assignment[ns.index()], None, "SPs are not partners");
        // Nodes in broadcast reach got genuine tree latencies.
        assert!(dist.iter().flatten().any(|&d| d > 0));
        assert_eq!(dist[ns.index()], Some(0));
    }
}
