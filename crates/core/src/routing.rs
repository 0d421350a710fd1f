//! Query processing in a domain (§5, §6.1.2).
//!
//! A query posed at a peer is sent to the domain's summary peer, matched
//! against the global summary (peer localization: `P_Q`), and forwarded
//! according to a **routing policy** built on the cooperation list:
//!
//! * [`RoutingPolicy::All`] — visit all of `P_Q` (the paper's default
//!   and Figure 4's worst-case accounting);
//! * [`RoutingPolicy::FreshOnly`] — visit `P_Q ∩ P_fresh`: maximum
//!   precision, possible false negatives (Figure 5);
//! * [`RoutingPolicy::Extended`] — visit `P_Q ∪ P_old`: maximum recall,
//!   possible false positives.
//!
//! The outcome carries both the paper's **worst-case** accounting (every
//! stale-flagged peer counts as wrong) and the **real** accounting
//! against exact ground truth.
//!
//! The module also holds the state of the kernel's multi-event
//! conversations: reconciliation rings, rebirth hand-overs and
//! inter-domain lookups. A conversation is open exactly while the
//! kernel holds it in its map: finishing or cancelling one removes it,
//! and a delivery or watchdog that finds no conversation does nothing.
//! A lookup keeps its answering peers and the domains it reached in
//! `DenseSet`s — one bit per id, iterated in id order — and the answer
//! list it last gave the originator's cache, rebuilt only when the
//! answer set grew.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::rc::Rc;

use p2psim::network::NodeId;
use p2psim::time::SimTime;
use saintetiq::hierarchy::SummaryTree;
use saintetiq::query::proposition::Proposition;
use saintetiq::query::relevant_sources;

use crate::coop::CooperationList;
use crate::kernel::MultiDomainOutcome;
use crate::peerstate::SummarySnapshot;

/// Which subset of the localized peers a query visits (§6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// `V = P_Q`.
    #[default]
    All,
    /// `V = P_Q ∩ P_fresh` — no stale-flag false positives, FN risk.
    FreshOnly,
    /// `V = P_Q ∪ P_old` — no false negatives from stale flags, FP risk.
    Extended,
}

/// Everything measured about one routed query.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Peer localization result `P_Q` (from the global summary).
    pub pq: Vec<NodeId>,
    /// Peers actually visited under the policy (`V`).
    pub visited: Vec<NodeId>,
    /// Peers that answered (up and truly matching).
    pub answered: usize,
    /// Ground-truth query scope size `|QS|` (up peers with matching data).
    pub qs_size: usize,
    /// Worst-case accounting (Figure 4): stale-flagged peers inside `P_Q`.
    pub stale_selected: usize,
    /// Worst-case accounting: stale-flagged peers outside `P_Q`.
    pub stale_unselected: usize,
    /// Real false positives: visited peers that are down or don't match.
    pub real_fp: usize,
    /// Real false negatives: up, matching peers that were not visited.
    pub real_fn: usize,
    /// Messages: 1 (query to SP) + |V| (forwards) + answers (§6.1.2's
    /// `Cd = 1 + |P_Q| + (1 − FP)·|P_Q|`).
    pub messages: u64,
}

/// State of one reconciliation ring (§4.2.2 as a conversation of token
/// deliveries): the token hops from *stale* live member to stale live
/// member, gathering summary snapshots — fresh members are not visited
/// at all, since their contributions already sit in the SP's
/// accumulator (incremental GS maintenance; see [`crate::peerstate`]).
/// With instantaneous delivery the whole ring runs within the event
/// that armed it. On the latency plane a hop that lands on a
/// churned-out peer silently drops the token; the SP's watchdog then
/// completes the pull with whatever was gathered.
#[derive(Debug)]
pub(crate) struct RingConversation {
    /// The domain running the ring.
    pub domain: usize,
    /// Members the token has not visited yet, in ring order.
    pub route: VecDeque<NodeId>,
    /// Snapshots collected so far, in visit order.
    pub gathered: Vec<SummarySnapshot>,
}

impl RingConversation {
    /// A ring over the given hop order.
    pub fn new(domain: usize, route: Vec<NodeId>) -> Self {
        Self {
            domain,
            route: route.into(),
            gathered: Vec::new(),
        }
    }

    /// The incremental pull route: live partners whose cooperation-list
    /// entries are flagged stale (`NeedsRefresh` / `Unavailable`), in
    /// id order. Fresh partners are skipped — §4.2.2's pull only needs
    /// what changed since the last round.
    pub fn stale_route<F: Fn(NodeId) -> bool>(cl: &CooperationList, up: F) -> Vec<NodeId> {
        cl.old_partners().filter(|&p| up(p)).collect()
    }

    /// Token payload size after `gathered`: the gathered summaries
    /// (`NewGS` grows along the ring), floored at one header's worth.
    pub fn token_bytes(gathered: &[SummarySnapshot]) -> usize {
        gathered
            .iter()
            .map(|s| s.summary.len())
            .sum::<usize>()
            .max(64)
    }
}

/// State of one SP-rebirth hand-over (§4.3 rebirth as a conversation):
/// at takeover every live member of the reborn domain ships a
/// `localsum` confirmation to the newborn SP. The domain is already
/// seeded (descriptions were retained across the dissolution), so each
/// arrival only re-validates the member — on the latency plane, one
/// that churned out while its confirmation was in flight is flagged
/// `Unavailable` for the next pull. The conversation completes when
/// every confirmation landed or (latency plane) the watchdog fires,
/// and is cancelled when the reborn SP departs again; completion
/// re-checks α so a stale-seeded membership can arm the reborn
/// domain's first (delta) pull at once.
#[derive(Debug)]
pub(crate) struct RebirthConversation {
    /// The reborn domain slot.
    pub domain: usize,
    /// `localsum` confirmations still in flight.
    pub outstanding: u64,
}

/// An index a [`DenseSet`] can hold: a peer id or a domain slot.
pub(crate) trait DenseKey: Copy {
    /// The key as a bit index.
    fn index(self) -> usize;
    /// The key of a bit index.
    fn from_index(i: usize) -> Self;
}

impl DenseKey for NodeId {
    fn index(self) -> usize {
        NodeId::index(self)
    }
    fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl DenseKey for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> Self {
        i
    }
}

/// A set of small dense keys, one bit each, grown on demand and
/// iterated in increasing key order — a lookup's answering peers and
/// the domains it reached.
#[derive(Debug, Clone)]
pub(crate) struct DenseSet<K> {
    words: Vec<u64>,
    len: usize,
    key: PhantomData<K>,
}

impl<K> Default for DenseSet<K> {
    fn default() -> Self {
        Self {
            words: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }
}

impl<K: DenseKey> DenseSet<K> {
    /// Adds `k`; true when it was not in the set yet.
    pub fn insert(&mut self, k: K) -> bool {
        let (w, bit) = (k.index() / 64, 1u64 << (k.index() % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        true
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keys in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    K::from_index(w * 64 + bit)
                })
            })
        })
    }
}

impl DenseSet<NodeId> {
    /// The set as a shared id-ordered list, reusing `last` — the list
    /// this set gave out before — unless the set grew since. Keys are
    /// never removed, so an unchanged length means unchanged contents.
    pub fn shared_list(&self, last: &mut Option<Rc<[NodeId]>>) -> Rc<[NodeId]> {
        match last {
            Some(list) if list.len() == self.len => Rc::clone(list),
            _ => Rc::clone(last.insert(self.iter().collect())),
        }
    }
}

/// State of one latency-mode inter-domain lookup (§5.2.2 as a
/// multi-event conversation): query deliveries fan out to domain SPs,
/// per-peer answers and flood discoveries come back as further
/// deliveries, and the lookup completes when its target is met, every
/// branch has drained, or the watchdog fires. The kernel drops the
/// conversation when it completes, so later deliveries find nothing.
#[derive(Debug)]
pub(crate) struct LookupConversation {
    /// The partner that posed the query.
    pub origin: NodeId,
    /// Workload template index.
    pub template: usize,
    /// Results needed (`C_t`, or `usize::MAX` for a total lookup).
    pub need: usize,
    /// Virtual time the query was posed.
    pub started: SimTime,
    /// Ground-truth matches network-wide when the query was posed.
    pub results_total: usize,
    /// Peers whose (re-validated) answers reached the originator.
    pub answered: DenseSet<NodeId>,
    /// `answered` as last stored in the originator's cache.
    pub answer_list: Option<Rc<[NodeId]>>,
    /// Domains already queried *or* with a query in flight — dedup at
    /// schedule time so a domain is contacted once per lookup.
    pub seen_domains: DenseSet<usize>,
    /// Domains whose SP actually processed the query.
    pub visited_domains: usize,
    /// Summary-selected peers that turned out down or drifted —
    /// including those that churned out while the answer was in flight.
    pub stale_answers: usize,
    /// Summary-selected peers whose answers validated on arrival (the
    /// success side of `stale_answers`; cache-recovered answers are
    /// not counted here).
    pub summary_ok: usize,
    /// Messages attributed to this lookup.
    pub messages: u64,
    /// Outstanding scheduled deliveries of this conversation.
    pub branches: u64,
    /// `hop_latency(peer, origin)` per peer id, filled as answers are
    /// sent ([`LookupConversation::HOP_UNKNOWN`] = not computed yet).
    pub hop_to_origin: Vec<SimTime>,
    /// The kernel's topology epoch `hop_to_origin` was filled under;
    /// a newer epoch invalidates it.
    pub hop_epoch: u64,
}

impl LookupConversation {
    /// A `hop_to_origin` slot not computed yet (no hop takes that long).
    pub const HOP_UNKNOWN: SimTime = SimTime(u64::MAX);

    /// A fresh conversation.
    pub fn new(
        origin: NodeId,
        template: usize,
        need: usize,
        started: SimTime,
        results_total: usize,
    ) -> Self {
        Self {
            origin,
            template,
            need,
            started,
            results_total,
            answered: DenseSet::default(),
            answer_list: None,
            seen_domains: DenseSet::default(),
            visited_domains: 0,
            stale_answers: 0,
            summary_ok: 0,
            messages: 0,
            branches: 0,
            hop_to_origin: Vec::new(),
            hop_epoch: 0,
        }
    }

    /// True once enough answers arrived.
    pub fn satisfied(&self) -> bool {
        self.answered.len() >= self.need
    }

    /// The `(started, outcome)` recorded when the conversation
    /// completes at `finished` virtual time (target met, branches
    /// drained, watchdog, or cut off at the horizon).
    pub fn finish(&self, finished: SimTime) -> (SimTime, MultiDomainOutcome) {
        let outcome = MultiDomainOutcome {
            results: self.answered.len(),
            results_total: self.results_total,
            domains_visited: self.visited_domains,
            messages: self.messages,
            satisfied: self.answered.len() >= self.need.min(self.results_total),
            stale_answers: self.stale_answers,
            summary_results: self.summary_ok,
            time_to_answer_s: finished.saturating_sub(self.started).as_secs_f64(),
        };
        (self.started, outcome)
    }
}

/// Routes one query inside a domain and scores it against ground truth.
///
/// `truth(peer)` returns `(is_up, currently_matches)` — the exact state
/// the paper's accounting compares against. The domain's peers are
/// `NodeId(0..domain_size)`; use [`route_query_scoped`] when the domain
/// holds an arbitrary subset of a larger network's ids.
pub fn route_query<F: Fn(NodeId) -> (bool, bool)>(
    gs: &SummaryTree,
    cl: &CooperationList,
    prop: &Proposition,
    policy: RoutingPolicy,
    domain_size: usize,
    truth: F,
) -> QueryOutcome {
    let pq = relevant_sources(gs, prop)
        .into_iter()
        .map(|s| NodeId(s.0))
        .collect();
    let members = (0..domain_size as u32).map(NodeId);
    route_query_scoped(pq, cl, policy, members, truth)
}

/// The peers a query visits under `policy`, sorted, given the sorted
/// localized peers `pq`: all of them, the fresh ones only, or all of
/// them plus every stale-flagged partner — the one implementation of
/// §6.1.2's policies.
pub(crate) fn visited_peers(
    pq: &[NodeId],
    cl: &CooperationList,
    policy: RoutingPolicy,
) -> Vec<NodeId> {
    match policy {
        RoutingPolicy::All => pq.to_vec(),
        RoutingPolicy::FreshOnly => pq
            .iter()
            .copied()
            .filter(|&p| cl.freshness(p).is_some_and(|f| !f.as_stale_bit()))
            .collect(),
        RoutingPolicy::Extended => {
            let mut v = pq.to_vec();
            v.extend(cl.old_partners());
            v.sort_unstable_by_key(|p| p.0);
            v.dedup();
            v
        }
    }
}

/// [`route_query`] over an explicit member set, from the localized peers
/// `pq` (`P_Q`, sorted): the shared-kernel entry point, where a domain's
/// peers carry network-global ids and `P_Q` comes from the domain's
/// accumulator.
pub fn route_query_scoped<F: Fn(NodeId) -> (bool, bool)>(
    pq: Vec<NodeId>,
    cl: &CooperationList,
    policy: RoutingPolicy,
    members: impl IntoIterator<Item = NodeId>,
    truth: F,
) -> QueryOutcome {
    let visited = visited_peers(&pq, cl, policy);

    let mut out = QueryOutcome::default();

    // Worst-case stale accounting (Figure 4): every stale-flagged partner
    // is assumed wrong — FP if selected, FN otherwise.
    for p in cl.old_partners() {
        if pq.contains(&p) {
            out.stale_selected += 1;
        } else {
            out.stale_unselected += 1;
        }
    }

    // Real accounting against exact ground truth.
    let mut truly_matching: Vec<NodeId> = Vec::new();
    for p in members {
        let (up, matches) = truth(p);
        if up && matches {
            truly_matching.push(p);
        }
    }
    out.qs_size = truly_matching.len();
    for &p in &visited {
        let (up, matches) = truth(p);
        if up && matches {
            out.answered += 1;
        } else {
            out.real_fp += 1;
        }
    }
    out.real_fn = truly_matching
        .iter()
        .filter(|p| !visited.contains(p))
        .count();

    out.messages = 1 + visited.len() as u64 + out.answered as u64;
    out.pq = pq;
    out.visited = visited;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshness::Freshness;
    use fuzzy::descriptor::{DescriptorSet, LabelId};
    use saintetiq::cell::{CellKey, SourceId};
    use saintetiq::engine::{incorporate_cell, EngineConfig};
    use saintetiq::query::proposition::Clause;

    /// Builds a GS where peers 0..4 own cell (0,0) and peers 5..9 own
    /// (1,1); query selects attr0 = 0.
    fn setup() -> (SummaryTree, CooperationList, Proposition) {
        let mut gs = SummaryTree::new("bk", vec![2, 2]);
        let cfg = EngineConfig::default();
        for p in 0..5u32 {
            incorporate_cell(
                &mut gs,
                &cfg,
                &CellKey(vec![LabelId(0), LabelId(0)]),
                SourceId(p),
                1.0,
                &[1.0, 1.0],
                None,
            );
        }
        for p in 5..10u32 {
            incorporate_cell(
                &mut gs,
                &cfg,
                &CellKey(vec![LabelId(1), LabelId(1)]),
                SourceId(p),
                1.0,
                &[1.0, 1.0],
                None,
            );
        }
        let mut cl = CooperationList::new();
        for p in 0..10 {
            cl.add_partner(NodeId(p), Freshness::Fresh);
        }
        let prop = Proposition {
            clauses: vec![Clause {
                attr: 0,
                set: DescriptorSet::singleton(LabelId(0)),
            }],
        };
        (gs, cl, prop)
    }

    #[test]
    fn all_policy_visits_pq() {
        let (gs, cl, prop) = setup();
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::All, 10, |p| (true, p.0 < 5));
        assert_eq!(out.pq.len(), 5);
        assert_eq!(out.visited.len(), 5);
        assert_eq!(out.answered, 5);
        assert_eq!(out.qs_size, 5);
        assert_eq!(out.real_fp, 0);
        assert_eq!(out.real_fn, 0);
        // Cd = 1 + 5 + 5.
        assert_eq!(out.messages, 11);
    }

    #[test]
    fn fresh_only_skips_stale_flags() {
        let (gs, mut cl, prop) = setup();
        cl.set_freshness(NodeId(0), Freshness::NeedsRefresh);
        cl.set_freshness(NodeId(1), Freshness::Unavailable);
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::FreshOnly, 10, |p| {
            (true, p.0 < 5)
        });
        assert_eq!(out.visited.len(), 3, "two stale P_Q members skipped");
        // Those two still match in truth → real FNs.
        assert_eq!(out.real_fn, 2);
        assert_eq!(out.real_fp, 0);
        assert_eq!(out.stale_selected, 2, "stale & in P_Q");
    }

    #[test]
    fn extended_policy_adds_old_partners() {
        let (gs, mut cl, prop) = setup();
        // Peer 7 is flagged old (not in P_Q): Extended must visit it too.
        cl.set_freshness(NodeId(7), Freshness::NeedsRefresh);
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::Extended, 10, |p| {
            (true, p.0 < 5 || p.0 == 7) // 7 now matches: drifted data!
        });
        assert!(out.visited.contains(&NodeId(7)));
        assert_eq!(out.real_fn, 0, "extension recovered the drifted peer");
        assert_eq!(out.answered, 6);
    }

    #[test]
    fn down_peers_count_as_real_fp() {
        let (gs, cl, prop) = setup();
        // Peers 3 and 4 silently failed: still in GS/CL as fresh.
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::All, 10, |p| {
            (p.0 != 3 && p.0 != 4, p.0 < 5)
        });
        assert_eq!(out.real_fp, 2, "failed peers yield stale answers");
        assert_eq!(out.answered, 3);
        assert_eq!(out.qs_size, 3);
    }

    #[test]
    fn worst_case_accounting_counts_all_stale_flags() {
        let (gs, mut cl, prop) = setup();
        cl.set_freshness(NodeId(2), Freshness::NeedsRefresh); // in P_Q
        cl.set_freshness(NodeId(8), Freshness::NeedsRefresh); // not in P_Q
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::All, 10, |p| (true, p.0 < 5));
        assert_eq!(out.stale_selected, 1);
        assert_eq!(out.stale_unselected, 1);
    }

    #[test]
    fn dense_sets_iterate_in_id_order_and_share_unchanged_lists() {
        let mut set: DenseSet<NodeId> = DenseSet::default();
        for p in [130u32, 3, 64, 3, 0, 63] {
            set.insert(NodeId(p));
        }
        let want: Vec<NodeId> = [0u32, 3, 63, 64, 130].map(NodeId).to_vec();
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert_eq!(set.len(), 5);

        let mut last = None;
        let first = set.shared_list(&mut last);
        assert_eq!(&*first, &want[..]);
        assert!(Rc::ptr_eq(&first, &set.shared_list(&mut last)), "unchanged");
        assert!(!set.insert(NodeId(3)));
        assert!(Rc::ptr_eq(&first, &set.shared_list(&mut last)), "no growth");
        set.insert(NodeId(1));
        let grown = set.shared_list(&mut last);
        assert!(!Rc::ptr_eq(&first, &grown));
        assert_eq!(grown.len(), 6);
        assert_eq!(grown[1], NodeId(1));
    }

    #[test]
    fn messages_follow_cd_formula() {
        let (gs, cl, prop) = setup();
        // 2 of the 5 matching peers are down → answers = 3.
        let out = route_query(&gs, &cl, &prop, RoutingPolicy::All, 10, |p| {
            (p.0 > 1, p.0 < 5)
        });
        // 1 + |V| + answered = 1 + 5 + 3.
        assert_eq!(out.messages, 9);
    }
}
