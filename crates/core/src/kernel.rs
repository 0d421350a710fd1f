//! The unified event-driven simulation kernel and its message plane.
//!
//! One `p2psim::Simulator` event loop drives *every* process of the
//! paper in a single virtual clock, for one domain or for a whole
//! multi-domain network:
//!
//! * **summary drift** — per-peer lifetimes from Table 3's lognormal;
//!   on expiry the peer's database is redrawn and a `push` flags its
//!   cooperation-list entry. The new local summary is built through the
//!   kernel's [`crate::summary_pool::SummaryPool`], on its summary
//!   worker when the host has a second CPU, and installed only when a
//!   read settles its peer (`SimKernel::settle`): a token hop, a ring
//!   completion (its gathered peers) and a `localsum`. Only where control
//!   leaves the event loop or the whole membership is read does the
//!   kernel install every outstanding summary (`SimKernel::settle_all`).
//!   Until then a drifted peer holds the blank placeholder, so a read
//!   that skipped its settle sees that, on every host, not an old
//!   summary. Summarization draws nothing, so the results cannot depend
//!   on thread timing;
//! * **churn** — session schedules with graceful leaves (`v = 2`
//!   pushes) and silent failures (GS poison until the next pull), plus —
//!   when [`crate::config::SimConfig::sp_lifetime`] is set — summary-peer
//!   departures that dissolve a domain mid-run and re-home its partners
//!   (§4.3, [`crate::construction::handle_sp_departure`]);
//! * **reconciliation** — per-domain α-gated token rings, one
//!   `RingConversation` at a time per domain. Rings are *incremental*: the
//!   token only visits the stale subset of the cooperation list
//!   (`RingConversation::stale_route`); fresh members' contributions
//!   stay in the domain's [`saintetiq::delta::GsAccumulator`] untouched
//!   and departed members are expired in O(1), so per-round merge work
//!   scales with how much actually changed, not with membership. A pull
//!   builds no GS tree: queries localize on the accumulator, and each
//!   domain's GS is materialized when [`SimKernel::run_until`] or
//!   [`SimKernel::run_to_horizon`] hands control back (see the
//!   [`crate::peerstate`] module docs for the full design and the
//!   byte-identical full-rebuild oracle);
//! * **queries** — intra-domain workload samples
//!   ([`KernelEvent::LocalQuery`]) and, in networked mode, inter-domain
//!   lookups ([`KernelEvent::InterQuery`]) routed against the *live*
//!   per-domain accumulator/CL state via §5.2.2's flooding + long-link
//!   protocol;
//! * **α control** — every α-gated decision reads the domain's
//!   *effective* threshold from the maintenance control plane
//!   ([`crate::control`]). With a fixed α (the default) it never moves
//!   and nothing is scheduled; with
//!   [`crate::config::SimConfig::adaptive_alpha`] on, a recurring
//!   [`KernelEvent::ControlTick`] feeds each live domain's measured
//!   stale-answer fraction and pull cost into one bounded proportional
//!   step per epoch.
//!
//! ## The message plane
//!
//! Every push, `localsum`, workload query, reconciliation token and
//! rebirth confirmation is sent through one `send_msg`, and its effects
//! have one implementation, applied when it is delivered. Under the
//! latency plane a lookup's query and flood requests go through
//! `send_lookup` over the same `send_msg`; instantaneous lookups are
//! the exception noted below. Otherwise the delivery mode only sets the
//! transit:
//!
//! * [`crate::config::DeliveryMode::Instantaneous`] (the default) is
//!   the zero-transit plane. A message joins a same-instant FIFO that
//!   the outermost send drains before it returns, so a send completes
//!   its whole cascade (token hops, ring completion, a follow-up ring)
//!   before the sender's next statement, and no timed event runs in
//!   between. Nothing is in flight across events, so the plane's
//!   in-flight and per-class latency tallies stay empty; §5.2.2
//!   lookups are routed synchronously by [`SimKernel::route_live`],
//!   which sends no message through `send_msg` and charges its
//!   messages with `charge` when the lookup ends.
//!   This is byte-identical to the Figure 4–7 pipelines.
//! * Under [`crate::config::DeliveryMode::Latency`] each message is a
//!   [`KernelEvent::Deliver`] scheduled at `now + transit`, where
//!   transit is the topology link latency (partner↔SP hops use the
//!   construction broadcast-tree latency, unknown hops the configured
//!   default) plus the per-class serialization cost of
//!   [`Message::wire_bytes`] at the configured bandwidth. Query hits
//!   are costed the same way, but the answers one sender schedules for
//!   the same arrival instant share one [`KernelEvent::Hits`] event,
//!   handled member by member in send order — the event queue would
//!   have popped them back to back anyway, since equal-time events
//!   leave in push order. Every hit is still counted as its own
//!   message. Conversations then take virtual time:
//!   - a reconciliation ring (`RingConversation`): each live member
//!     snapshots its summary into the token; a member that churned out
//!     mid-ring silently drops the token and the SP's watchdog
//!     completes the pull with what was gathered (missed live members
//!     keep their stale flags, re-arming α);
//!   - an inter-domain lookup (`LookupConversation`) of query / flood /
//!     hit deliveries: per-peer answers are re-validated on arrival, so
//!     peers that churn out while their answer is in flight surface as
//!     stale answers, and the recorded
//!     [`MultiDomainOutcome::time_to_answer_s`] is the genuine virtual
//!     time between posing the query and meeting (or abandoning) its
//!     target;
//!   - a rebirth hand-over (`RebirthConversation`) of `localsum`
//!     confirmations to a newborn SP.
//!
//!   A conversation is open exactly while it sits in its map (`rings`,
//!   `lookups`, `rebirth_convs`): finishing it or cancelling it (its
//!   SP departed) removes it, and a delivery or watchdog that finds no
//!   conversation does nothing. Each conversation has one
//!   [`KernelEvent::Watchdog`], armed when it opens.
//!
//! Floods in both modes reuse the kernel's one `FloodScratch` and reach
//! buffer, so a flood allocates nothing (see `docs/ARCHITECTURE.md`,
//! "The lookup hot path").
//!
//! Both modes are deterministic under a fixed seed — the message plane
//! draws no randomness.
//!
//! ## Message accounting
//!
//! The ledger ([`SimKernel::ledger`]) is the run's only message counter,
//! §6.1's cost unit, and each message is counted at one call. `send_msg`
//! counts what it sends; a lookup sends through `send_lookup`, which
//! also bumps the lookup's own tally ([`MultiDomainOutcome::messages`]).
//! `send_hit_run` (query hits) and `charge` (SP→peer forwards, flood
//! forwards and all of [`SimKernel::route_live`]'s messages, which
//! travel as no event of their own) bump the ledger and the tally
//! together. So the ledger's query, response and flood counts always
//! equal the lookups' summed `messages`. `retire_domain` charges a
//! departing SP's `release`s or failure probes.
//!
//! [`crate::domain::DomainSim`] and [`crate::system::MultiDomainSystem`]
//! are thin facades over this kernel; [`MultiDomainSim`] is the dynamic
//! entry point the churn-under-routing experiments use. Probe entry
//! points ([`SimKernel::route_live`], [`SimKernel::reconcile_all`]) stay
//! synchronous in both modes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use fuzzy::bk::BackgroundKnowledge;
use p2psim::churn::{ChurnConfig, SessionEvent, SessionSchedule};
use p2psim::network::{FloodScratch, Network, NodeId};
use p2psim::sim::Simulator;
use p2psim::time::SimTime;
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saintetiq::engine::EngineConfig;
use saintetiq::query::proposition::{reformulate, SummaryQuery};
use saintetiq::query::relevant_sources;
use saintetiq::wire;

use crate::cache::QueryCache;
use crate::config::{SimConfig, CONVERSATION_TIMEOUT};
use crate::construction::{
    construct_domains, dissolve_domain, elect_replacement_sp, elect_superpeers, find_domain,
    handle_sp_departure, rebirth_broadcast, Domains, ElectionPolicy,
};
use crate::control::AlphaController;
use crate::error::P2pError;
use crate::freshness::Freshness;
use crate::messages::{Message, MessageClass};
use crate::metrics::{DomainReport, MultiDomainReport};
use crate::peerstate::{empty_accumulator, DomainCore, MessageLedger, PeerState, SummarySnapshot};
use crate::routing::{
    visited_peers, DenseSet, LookupConversation, QueryOutcome, RebirthConversation,
    RingConversation,
};
use crate::summary_pool::SummaryPool;
use crate::workload::{make_templates, PeerData, PeerGenerator, PeerSummary, ZipfSampler};

/// Sentinel id for the implicit summary peer of the single-domain
/// simulation (it has no slot in the peer vector or the topology).
const IMPLICIT_SP: NodeId = NodeId(u32::MAX);

/// How many results a query needs (§5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupTarget {
    /// `C_t` result tuples suffice.
    Partial(usize),
    /// Every result in the network is wanted.
    Total,
}

/// Outcome of one multi-domain query.
#[derive(Debug, Clone)]
pub struct MultiDomainOutcome {
    /// Result tuples gathered (one per answering peer — the paper's
    /// high-selectivity assumption).
    pub results: usize,
    /// Ground-truth result count network-wide (live matching peers).
    pub results_total: usize,
    /// Domains whose GS was queried.
    pub domains_visited: usize,
    /// Total messages (intra-domain + flooding + responses).
    pub messages: u64,
    /// Whether the lookup target was met.
    pub satisfied: bool,
    /// Stale answers: peers the (possibly outdated) global summaries
    /// selected that turned out to be down or no longer matching.
    pub stale_answers: usize,
    /// Validated answers the global summaries selected — the
    /// summary-routing successes `stale_answers` is the failure side
    /// of. Excludes results recovered through §5.2.2 answer caches,
    /// which no summary vouched for; `stale / (stale + summary)` is
    /// therefore the stale-answer fraction of summary routing itself,
    /// the signal the adaptive control plane steers.
    pub summary_results: usize,
    /// Virtual seconds between posing the query and completing the
    /// lookup. Strictly positive under the latency message plane; 0.0
    /// in instantaneous mode and for synchronous probes.
    pub time_to_answer_s: f64,
}

impl MultiDomainOutcome {
    /// Network-wide recall of the query.
    pub fn recall(&self) -> f64 {
        if self.results_total == 0 {
            1.0
        } else {
            self.results as f64 / self.results_total as f64
        }
    }

    /// Network-wide false negatives: live matching peers the lookup
    /// never reached (stale summaries, unvisited domains, or an early
    /// partial-lookup stop).
    pub fn false_negatives(&self) -> usize {
        self.results_total.saturating_sub(self.results)
    }

    fn empty(results_total: usize) -> Self {
        Self {
            results: 0,
            results_total,
            domains_visited: 0,
            messages: 0,
            satisfied: false,
            stale_answers: 0,
            summary_results: 0,
            time_to_answer_s: 0.0,
        }
    }
}

/// Simulation events of the unified kernel.
#[derive(Debug, Clone)]
pub enum KernelEvent {
    /// A partner's local summary lifetime expired (data drifted).
    Drift(NodeId),
    /// A churn transition.
    Session(SessionEvent),
    /// An intra-domain workload query (single-domain mode).
    LocalQuery {
        /// Workload template index.
        template: usize,
    },
    /// An inter-domain lookup posed at a partner peer (networked mode).
    InterQuery {
        /// The originating partner.
        origin: NodeId,
        /// Workload template index.
        template: usize,
    },
    /// Latency mode: a protocol message reaches its destination — all
    /// effects of the message happen now, not at send time. Query hits
    /// never travel this way; they arrive as [`KernelEvent::Hits`].
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: Message,
        /// Conversation id (0 for fire-and-forget messages).
        conv: u64,
        /// Virtual send time (delivery latency = now − sent_at).
        sent_at: SimTime,
    },
    /// Latency mode: a run of query hits reaches a lookup's originator.
    /// The run waits in the kernel's hit-run slab under this slot, so
    /// that the variant does not grow every queued event (the queue
    /// holds thousands of pending events in both delivery modes) and a
    /// run costs no allocation of its own.
    Hits(u32),
    /// Latency mode: a conversation's watchdog, [`CONVERSATION_TIMEOUT`]
    /// after it opened. A conversation still open completes with what
    /// it has: a ring stores the snapshots gathered so far, a lookup
    /// records the answers that arrived, a rebirth hand-over the
    /// confirmations that landed. A conversation that already ended is
    /// in no map, and its watchdog does nothing.
    Watchdog {
        /// The conversation.
        conv: u64,
    },
    /// A summary peer's session ends (§4.3): the domain dissolves and
    /// its partners re-home. Scheduled only when
    /// [`crate::config::SimConfig::sp_lifetime`] is set.
    SpDeparture {
        /// The departing summary peer.
        sp: NodeId,
    },
    /// Rebirth, step 1 (§4.3 completed): a dissolved domain elects a
    /// replacement SP from its live hub candidates —
    /// [`crate::construction::ElectionPolicy::LatencyAware`] on the
    /// message plane, degree order otherwise. Scheduled only when
    /// [`crate::config::SimConfig::rebirth`] is set, after the release
    /// transit (graceful departure) or the failure-detection timeout.
    SpElection {
        /// The dissolved domain slot.
        domain: usize,
    },
    /// Rebirth, step 2: the elected SP takes the domain over — the
    /// slot revives seeded from the retained member descriptions, the
    /// orphans re-home to the newborn SP, and their `localsum`
    /// confirmations start a `routing::RebirthConversation`.
    SpTakeover {
        /// The reborn domain slot.
        domain: usize,
        /// The election winner.
        sp: NodeId,
    },
    /// One control epoch of the maintenance control plane
    /// ([`crate::control`]): every live domain's controller folds the
    /// epoch's measured feedback into its effective α. Scheduled
    /// recurring only with [`crate::config::SimConfig::adaptive_alpha`]
    /// on, so fixed-α runs keep their event streams byte-identical. Draws
    /// no randomness.
    ControlTick,
}

/// A run of query hits that one sender scheduled for the same arrival
/// instant at a lookup's originator ([`KernelEvent::Hits`]): one
/// `QueryHit` message per peer of `peers[range]`, each about the peer
/// it names, handled in send order.
#[derive(Debug, Clone)]
struct HitRun {
    conv: u64,
    /// The answer list the run is a range of, shared with the caches
    /// that hold it.
    peers: Rc<[NodeId]>,
    /// The run's range of `peers`: answer lists are indexed by peer, so
    /// `u32` bounds suffice.
    start: u32,
    end: u32,
    /// True for answers the SP's global summary selected, false for
    /// answers recovered from a flooded neighbour's cache.
    summary_selected: bool,
    /// Virtual send time (delivery latency = now − sent_at).
    sent_at: SimTime,
}

/// The hit runs in flight, each under a slot that a queued
/// [`KernelEvent::Hits`] names. Slots are reused through a free list,
/// and the slab grows by fixed-size chunks that never move, so neither
/// a run nor the slab's growth copies or reallocates what is in flight.
/// When the last run in flight is taken the chunks are released, so the
/// slab holds memory only while runs are in flight.
#[derive(Default)]
struct HitSlab {
    chunks: Vec<Box<[Option<HitRun>]>>,
    free: Vec<u32>,
}

impl HitSlab {
    /// Runs per chunk.
    const CHUNK: usize = 256;

    /// Stores `run`, returning its slot.
    fn insert(&mut self, run: HitRun) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let first = (self.chunks.len() * Self::CHUNK) as u32;
                self.chunks
                    .push((0..Self::CHUNK).map(|_| None).collect::<Box<[_]>>());
                self.free
                    .extend((first + 1..first + Self::CHUNK as u32).rev());
                first
            }
        };
        let entry = &mut self.chunks[slot as usize / Self::CHUNK][slot as usize % Self::CHUNK];
        debug_assert!(entry.is_none(), "hit-run slot {slot} in use");
        *entry = Some(run);
        slot
    }

    /// Takes the run under `slot` out, freeing the slot.
    fn take(&mut self, slot: u32) -> HitRun {
        let run = self.chunks[slot as usize / Self::CHUNK][slot as usize % Self::CHUNK]
            .take()
            .expect("a scheduled hit run");
        self.free.push(slot);
        if self.free.len() == self.chunks.len() * Self::CHUNK {
            self.chunks.clear();
            self.free = Vec::new();
        }
        run
    }
}

/// The unified simulation state: peers + domains + (optionally) the
/// physical network, driven by one event loop.
pub struct SimKernel {
    pub(crate) cfg: SimConfig,
    /// Generates every peer's database and local summary, at
    /// construction, drift and promoted-SP re-entry: the draws on the
    /// event loop, the summaries on the pool's worker when there is one.
    /// A summary is installed only when a read settles its peer
    /// ([`Self::settle`]); [`Self::settle_all`] runs only where control
    /// leaves the event loop or the whole membership is read.
    pool: SummaryPool,
    /// The empty summary every peer holds between its draw and its
    /// summary's install ([`drawn`]): at construction, after a drift and
    /// at promoted-SP re-entry.
    blank: PeerSummary,
    reformulated: Vec<SummaryQuery>,
    sim: Simulator<KernelEvent>,
    pub(crate) peers: Vec<Option<PeerState>>,
    pub(crate) domains: Vec<DomainCore>,
    domain_of: Vec<Option<usize>>,
    sp_index: BTreeMap<NodeId, usize>,
    pub(crate) ledger: MessageLedger,
    outcomes: Vec<QueryOutcome>,
    inter_outcomes: Vec<(SimTime, MultiDomainOutcome)>,
    pub(crate) net: Option<Network>,
    pub(crate) topo: Option<Domains>,
    /// Bumped wherever `topo`'s assignments or distances may change:
    /// lookups memoize hop latencies to their originator under it.
    topo_epoch: u64,
    /// The flood BFS's seen stamps and frontiers, reused by every flood.
    flood_scratch: FloodScratch,
    /// The last flood's reach, reused by every flood.
    flood_out: Vec<(NodeId, u32, SimTime)>,
    /// Hit runs in flight, by the slot their [`KernelEvent::Hits`] names.
    hit_runs: HitSlab,
    caches: Vec<QueryCache>,
    cache_hits: u64,
    target: LookupTarget,
    /// The latency plane's default hop, when the plane is enabled
    /// (`cfg.latency()` cached).
    lat: Option<SimTime>,
    /// Conversation id source (0 is reserved for fire-and-forget).
    next_conv: u64,
    rings: BTreeMap<u64, RingConversation>,
    /// Active ring conversation per domain (at most one at a time).
    ring_of_domain: Vec<Option<u64>>,
    lookups: BTreeMap<u64, LookupConversation>,
    /// Instantaneous delivery: zero-transit messages sent but not yet
    /// handled, in send order (`(from, to, msg, conv)`).
    now_queue: VecDeque<(NodeId, NodeId, Message, u64)>,
    /// True while [`Self::send_msg`] drains `now_queue`.
    draining: bool,
    /// Messages currently in flight (latency mode).
    in_flight: u64,
    /// High-water mark of `in_flight`.
    peak_in_flight: u64,
    /// Domain-state errors swallowed by the event loop (impossible for
    /// well-formed configurations; counted instead of panicking).
    domain_errors: u64,
    /// The first such error, kept for diagnostics.
    first_error: Option<P2pError>,
    /// The maintenance control plane: one controller per domain slot
    /// holding that domain's effective α (fixed, or fed back each
    /// control epoch).
    ctl: AlphaController,
    /// Dissolved domains awaiting a rebirth election, keyed by slot:
    /// the retained membership, accumulator and CL flags the reborn
    /// domain is seeded from ([`crate::config::SimConfig::rebirth`]).
    pending_rebirths: BTreeMap<usize, RebirthSeed>,
    /// Open rebirth hand-over conversations.
    rebirth_convs: BTreeMap<u64, RebirthConversation>,
    /// Summary peers that were promoted out of the partner pool by a
    /// rebirth. When such an SP's own session ends, its node returns
    /// to the network as a regular (down) peer and its next scheduled
    /// session join brings it back with a fresh database — without
    /// this the data population would drain by one peer per rebirth
    /// and no long horizon could be stationary.
    promoted_sps: BTreeSet<NodeId>,
    /// Completed SP rebirths over the run.
    rebirths: u64,
    /// `(virtual time, live domains)` samples: the initial point plus
    /// one per dissolution and per rebirth — the domain-count
    /// trajectory `BENCH_rebirth.json` plots. Recorded only when SP
    /// churn is on (empty otherwise).
    domain_trajectory: Vec<(SimTime, usize)>,
}

/// What a dissolved domain retains for its rebirth (§4.3 completed):
/// the membership at dissolution time, the accumulator of member
/// descriptions (descriptions persist until refreshed or expired —
/// §4.3; the newborn SP is seeded from them so its first GS build is a
/// delta hand-over), and the CL freshness flags so only the
/// already-stale subset needs the first pull.
struct RebirthSeed {
    members: Vec<NodeId>,
    acc: saintetiq::delta::GsAccumulator,
    flags: BTreeMap<NodeId, Freshness>,
    /// Set when an election ran and found nobody up: only then does a
    /// former member's rejoin re-trigger the election. Before that,
    /// the regularly scheduled [`KernelEvent::SpElection`] (which
    /// models the release-transit / failure-detection delay) is the
    /// one that must run first.
    stalled: bool,
}

/// The medical workload every kernel mode shares: a summary pool over a
/// peer generator bound to the CBK and the query templates, the blank
/// summary a peer holds until its own is installed, and the templates
/// reformulated against the CBK.
type Workload = (SummaryPool, PeerSummary, Vec<SummaryQuery>);

/// Builds the kernel's [`Workload`].
fn build_workload(cfg: &SimConfig) -> Result<Workload, P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(cfg.template_count);
    let reformulated: Vec<SummaryQuery> = templates
        .iter()
        .map(|t| reformulate(&t.query, &bk))
        .collect::<Result<_, _>>()?;
    let generator = PeerGenerator::new(&bk, &templates)?;
    let blank = generator.summarizer().empty_summary();
    Ok((SummaryPool::new(generator), blank, reformulated))
}

/// Installs `summary` as `peer`'s local summary (a result of the
/// kernel's [`SummaryPool`]); a peer with no state any more drops it.
fn install(peers: &mut [Option<PeerState>], peer: u32, summary: PeerSummary) {
    if let Some(st) = peers.get_mut(peer as usize).and_then(Option::as_mut) {
        st.data.summary = summary.summary;
        st.data.flat = summary.flat;
    }
}

/// A peer's data from its draw until its summary is installed: the
/// drawn match bits and the `blank` summary, which a read that skipped
/// its settle sees instead of an old summary.
fn drawn(blank: &PeerSummary, match_bits: u32) -> PeerData {
    PeerData {
        match_bits,
        summary: blank.summary.clone(),
        flat: Rc::clone(&blank.flat),
    }
}

/// Generates, in id order, the database and local summary of every
/// peer `wanted` names into a new live state in `peers`, as both
/// constructors do: the draws on this thread, the summaries through
/// the workload's pool, all installed before this returns.
fn generate_all<R: Rng + ?Sized>(
    (pool, blank, _): &mut Workload,
    rng: &mut R,
    cfg: &SimConfig,
    peers: &mut [Option<PeerState>],
    wanted: impl Fn(usize) -> bool,
) -> Result<(), P2pError> {
    for i in (0..peers.len()).filter(|&i| wanted(i)) {
        let match_bits =
            pool.regenerate(rng, i as u32, cfg.match_fraction, cfg.records_per_peer)?;
        peers[i] = Some(PeerState::new(drawn(blank, match_bits)));
    }
    pool.settle_all(|q, s| install(peers, q, s));
    Ok(())
}

/// An SP's long-range links (§5.2.2): `round(k)` of the other SPs in
/// `roster`, sampled without replacement from the shuffled roster (so
/// small SP sets still receive their full `k`), in id order. The
/// shuffle follows the roster's order, so callers must keep it stable.
fn sample_long_links<R: Rng>(
    roster: impl Iterator<Item = NodeId>,
    own: NodeId,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut links: Vec<NodeId> = roster.filter(|&o| o != own).collect();
    links.shuffle(rng);
    links.truncate(SimConfig::INTERDOMAIN_K.round() as usize);
    links.sort_unstable_by_key(|n| n.0);
    links
}

/// The answer a peer returns to a lookup's originator: one result tuple
/// when the SP's global summary selected the peer, none when a flooded
/// neighbour's cache named it.
fn hit_msg(summary_selected: bool) -> Message {
    Message::QueryHit {
        results: u32::from(summary_selected),
    }
}

/// Query sample times: `(template, at)` pairs spread across
/// (10%..100%) of the horizon so the first samples already see
/// steady-state maintenance.
fn query_sample_times(cfg: &SimConfig, template_count: usize) -> Vec<(usize, SimTime)> {
    (0..cfg.query_count)
        .map(|i| {
            let frac = 0.1 + 0.9 * (i as f64 / cfg.query_count as f64);
            let at = SimTime::from_secs_f64(cfg.horizon.as_secs_f64() * frac);
            (i % template_count, at)
        })
        .collect()
}

impl SimKernel {
    /// Builds the single-domain simulation: one summary peer with every
    /// generated peer as partner, plus drift, churn and the intra-domain
    /// query workload scheduled across the horizon — the exact
    /// [`crate::domain::DomainSim`] semantics.
    pub fn single_domain(cfg: SimConfig) -> Result<Self, P2pError> {
        cfg.validate()?;
        let mut workload = build_workload(&cfg)?;

        let mut sim = Simulator::<KernelEvent>::new(cfg.seed);
        sim.set_horizon(cfg.horizon);

        let mut peers: Vec<Option<PeerState>> = vec![None; cfg.n_peers];
        generate_all(&mut workload, sim.rng(), &cfg, &mut peers, |_| true)?;

        let domain = DomainCore::new(None, (0..cfg.n_peers as u32).map(NodeId).collect());
        let mut this = Self::assemble(cfg, sim, workload, peers, vec![domain], None)?;
        this.schedule_drift_all();
        this.schedule_churn();
        let zipf = this
            .cfg
            .zipf_exponent
            .map(|s| ZipfSampler::new(this.template_count(), s));
        for (template, at) in query_sample_times(&this.cfg, this.template_count()) {
            let template = match &zipf {
                Some(z) => z.sample(this.sim.rng()),
                None => template,
            };
            this.sim
                .schedule_at(at, KernelEvent::LocalQuery { template });
        }
        this.schedule_control();
        Ok(this)
    }

    /// Builds the networked multi-domain system: topology → SP election
    /// → domain construction → per-peer data + local summaries →
    /// per-domain global summaries → SP long-range links. With
    /// `dynamics`, additionally schedules drift, churn and sampled
    /// inter-domain lookups so maintenance and routing interleave in
    /// virtual time; without it the system is frozen at t = 0 (the
    /// static [`crate::system::MultiDomainSystem`] view).
    pub fn networked(
        cfg: SimConfig,
        domain_target: usize,
        dynamics: Option<LookupTarget>,
    ) -> Result<Self, P2pError> {
        cfg.validate()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let topo_cfg = TopologyConfig {
            nodes: cfg.n_peers,
            m: cfg.topology_m,
        };
        let net = Network::new(Graph::barabasi_albert(&topo_cfg, &mut rng));

        let sp_count = (cfg.n_peers / domain_target.max(2)).max(1);
        let superpeers = elect_superpeers(&net, sp_count);
        let topo = construct_domains(&net, &superpeers, cfg.sumpeer_ttl);

        let mut workload = build_workload(&cfg)?;

        let mut peers: Vec<Option<PeerState>> = vec![None; cfg.n_peers];
        generate_all(&mut workload, &mut rng, &cfg, &mut peers, |i| {
            topo.assignment[i].is_some()
        })?;

        let domains = superpeers
            .iter()
            .map(|&sp| {
                let mut core = DomainCore::new(Some(sp), topo.members(sp));
                core.long_links = sample_long_links(superpeers.iter().copied(), sp, &mut rng);
                core
            })
            .collect();

        // The event loop's RNG is decorrelated from the build RNG (both
        // derive from cfg.seed, so an XOR constant keeps their streams
        // distinct while staying reproducible).
        let mut sim = Simulator::<KernelEvent>::new(cfg.seed ^ 0x5D1F_77A3_9C24_E8B1);
        sim.set_horizon(cfg.horizon);

        let mut this = Self::assemble(cfg, sim, workload, peers, domains, Some((net, topo)))?;
        this.target = dynamics.unwrap_or(LookupTarget::Total);
        if dynamics.is_some() {
            this.schedule_drift_all();
            this.schedule_churn();
            this.schedule_inter_queries();
            this.schedule_sp_sessions();
            this.schedule_control();
            this.record_domain_count();
        }
        Ok(this)
    }

    /// The state both constructors share: enrolls each domain in order
    /// (its first global summary), indexes every CL member's domain and
    /// every SP's slot, and sizes the per-domain controller and ring
    /// slots. A networked kernel (`overlay` holds its physical network
    /// and domain construction) also gets one answer cache per peer.
    fn assemble(
        cfg: SimConfig,
        sim: Simulator<KernelEvent>,
        (pool, blank, reformulated): Workload,
        mut peers: Vec<Option<PeerState>>,
        mut domains: Vec<DomainCore>,
        overlay: Option<(Network, Domains)>,
    ) -> Result<Self, P2pError> {
        let mut ledger = MessageLedger::new();
        let mut domain_of = vec![None; cfg.n_peers];
        let mut sp_index = BTreeMap::new();
        for (d, core) in domains.iter_mut().enumerate() {
            core.enroll_all(&mut peers, &mut ledger)?;
            for m in core.cl.partners() {
                domain_of[m.index()] = Some(d);
            }
            if let Some(sp) = core.sp {
                sp_index.insert(sp, d);
            }
        }
        let caches = match overlay {
            Some(_) => (0..cfg.n_peers).map(|_| QueryCache::new(8)).collect(),
            None => Vec::new(),
        };
        let (net, topo) = overlay.unzip();
        let n_domains = domains.len();
        Ok(Self {
            cfg,
            pool,
            blank,
            reformulated,
            sim,
            peers,
            domains,
            domain_of,
            sp_index,
            ledger,
            outcomes: Vec::new(),
            inter_outcomes: Vec::new(),
            net,
            topo,
            topo_epoch: 0,
            flood_scratch: FloodScratch::default(),
            flood_out: Vec::new(),
            hit_runs: HitSlab::default(),
            caches,
            cache_hits: 0,
            target: LookupTarget::Total,
            lat: cfg.latency(),
            next_conv: 1,
            rings: BTreeMap::new(),
            ring_of_domain: vec![None; n_domains],
            lookups: BTreeMap::new(),
            now_queue: VecDeque::new(),
            draining: false,
            in_flight: 0,
            peak_in_flight: 0,
            domain_errors: 0,
            first_error: None,
            ctl: AlphaController::new(cfg.adaptive_alpha, n_domains, cfg.alpha),
            pending_rebirths: BTreeMap::new(),
            rebirth_convs: BTreeMap::new(),
            promoted_sps: BTreeSet::new(),
            rebirths: 0,
            domain_trajectory: Vec::new(),
        })
    }

    /// Schedules the first control epoch when adaptive α is on.
    /// Fixed-α runs schedule nothing, keeping their event streams
    /// byte-identical to the pre-control-plane kernel.
    fn schedule_control(&mut self) {
        if let Some(epoch) = self.ctl.epoch() {
            self.sim.schedule_in(epoch, KernelEvent::ControlTick);
        }
    }

    /// Samples one drift interval for peer `p`, scaled by its domain's
    /// drift rate on the heterogeneous-drift axis
    /// ([`crate::config::SimConfig::drift_spread`]).
    fn drift_interval(&mut self, p: NodeId) -> SimTime {
        let dt = self.cfg.lifetime.sample(self.sim.rng());
        if self.cfg.drift_spread == 1.0 {
            return dt;
        }
        let rate = self.domain_drift_rate(p);
        SimTime::from_secs_f64(dt.as_secs_f64() / rate)
    }

    /// The per-domain drift-rate multiplier: log-spaced in
    /// `[1/spread, spread]` across domain indices (1.0 for orphans and
    /// single-domain runs).
    fn domain_drift_rate(&self, p: NodeId) -> f64 {
        let Some(d) = self.domain_of.get(p.index()).copied().flatten() else {
            return 1.0;
        };
        let n = self.domains.len();
        if n <= 1 {
            return 1.0;
        }
        let x = d as f64 / (n - 1) as f64;
        self.cfg.drift_spread.powf(2.0 * x - 1.0)
    }

    /// Schedules one departure per summary peer when SP churn is
    /// enabled (`cfg.sp_lifetime`). Disabled by default, so the event
    /// and RNG streams of existing configurations are untouched.
    fn schedule_sp_sessions(&mut self) {
        let Some(dist) = self.cfg.sp_lifetime else {
            return;
        };
        let sps: Vec<NodeId> = self.sp_index.keys().copied().collect();
        for sp in sps {
            let dt = dist.sample(self.sim.rng());
            self.sim.schedule_in(dt, KernelEvent::SpDeparture { sp });
        }
    }

    /// Schedules the first drift expiry of every (assigned) peer.
    fn schedule_drift_all(&mut self) {
        for p in 0..self.cfg.n_peers {
            if self.peers[p].is_some() {
                let dt = self.drift_interval(NodeId(p as u32));
                self.sim
                    .schedule_in(dt, KernelEvent::Drift(NodeId(p as u32)));
            }
        }
    }

    /// Schedules the churn session stream for every (assigned) peer.
    fn schedule_churn(&mut self) {
        let churn_cfg = ChurnConfig {
            lifetime: self.cfg.lifetime,
            mean_downtime_s: self.cfg.mean_downtime_s,
            failure_fraction: self.cfg.failure_fraction,
        };
        let partners: Vec<NodeId> = (0..self.cfg.n_peers as u32)
            .map(NodeId)
            .filter(|p| self.peers[p.index()].is_some())
            .collect();
        let schedule =
            SessionSchedule::generate_for(&partners, self.cfg.horizon, &churn_cfg, self.sim.rng());
        for &(t, ev) in schedule.events() {
            self.sim.schedule_at(t, KernelEvent::Session(ev));
        }
    }

    /// Samples `query_count` inter-domain lookups across (10%..100%) of
    /// the horizon, from random assigned origins.
    fn schedule_inter_queries(&mut self) {
        let partners: Vec<NodeId> = (0..self.cfg.n_peers as u32)
            .map(NodeId)
            .filter(|p| self.peers[p.index()].is_some())
            .collect();
        if partners.is_empty() {
            return;
        }
        let zipf = self
            .cfg
            .zipf_exponent
            .map(|s| ZipfSampler::new(self.template_count(), s));
        for (template, at) in query_sample_times(&self.cfg, self.template_count()) {
            let origin = partners[self.sim.rng().gen_range(0..partners.len())];
            let template = match &zipf {
                Some(z) => z.sample(self.sim.rng()),
                None => template,
            };
            self.sim
                .schedule_at(at, KernelEvent::InterQuery { origin, template });
        }
    }

    /// Processes one event.
    fn handle(&mut self, ev: KernelEvent) {
        match ev {
            KernelEvent::Drift(p) => {
                let idx = p.index();
                let up = self.peers[idx].as_ref().is_some_and(|s| s.up);
                if up {
                    // The data drifted: redraw the database, then push
                    // the stale flag.
                    self.redraw(p);
                    if let Some(d) = self.domain_of[idx] {
                        self.send_push(p, d, 1);
                    }
                    let dt = self.drift_interval(p);
                    self.sim.schedule_in(dt, KernelEvent::Drift(p));
                } else if let Some(st) = self.peers[idx].as_mut() {
                    // While down: drift pauses; rejoin restarts it.
                    st.drift_scheduled = false;
                }
            }
            KernelEvent::Session(SessionEvent::Leave(p)) => {
                let idx = p.index();
                if self.peers[idx].as_ref().is_some_and(|s| s.up) {
                    // The peer is down before its graceful `v = 2` push
                    // lands, so a pull the push arms already sees it
                    // gone (transit reads links, never liveness).
                    self.peers[idx].as_mut().expect("checked").up = false;
                    if let Some(net) = self.net.as_mut() {
                        net.take_down(p);
                    }
                    if let Some(d) = self.domain_of[idx] {
                        self.send_push(p, d, 2);
                    }
                }
            }
            KernelEvent::Session(SessionEvent::Fail(p)) => {
                // Silent: no message, CL unchanged — the GS now carries
                // descriptions of unavailable data until reconciliation.
                if let Some(st) = self.peers[p.index()].as_mut() {
                    st.up = false;
                    if let Some(net) = self.net.as_mut() {
                        net.take_down(p);
                    }
                }
            }
            KernelEvent::Session(SessionEvent::Join(p)) => {
                let idx = p.index();
                if self.peers[idx].as_ref().is_some_and(|s| !s.up) {
                    self.peers[idx].as_mut().expect("checked").up = true;
                    if let Some(net) = self.net.as_mut() {
                        net.bring_up(p);
                    }
                    if let Some(d) = self.domain_of[idx] {
                        self.send_localsum(p, d, SimTime::ZERO, 0);
                    } else if self.cfg.sp_lifetime.is_some() {
                        // A rejoiner whose former domain still awaits a
                        // replacement SP re-triggers the stalled
                        // election instead of walking away — it is a
                        // live candidate now, so the rebirth that found
                        // an all-down membership can finally proceed.
                        let pending = self
                            .cfg
                            .rebirth
                            .then(|| {
                                self.pending_rebirths
                                    .iter()
                                    .find(|(_, seed)| seed.stalled && seed.members.contains(&p))
                                    .map(|(&d, _)| d)
                            })
                            .flatten();
                        if let Some(d) = pending {
                            self.handle_sp_election(d);
                        }
                        // An orphan of a dissolved domain walks to a
                        // surviving one on rejoin (gated on SP churn so
                        // legacy event streams stay byte-identical).
                        else if let Some(d) = self.rehome_orphan(p) {
                            self.send_localsum(p, d, SimTime::ZERO, 0);
                        }
                    }
                    let st = self.peers[idx].as_mut().expect("checked");
                    let restart_drift = !st.drift_scheduled;
                    st.drift_scheduled = true;
                    if restart_drift {
                        let dt = self.drift_interval(p);
                        self.sim.schedule_in(dt, KernelEvent::Drift(p));
                    }
                }
            }
            KernelEvent::LocalQuery { template } => {
                // The query travels to the (implicit) SP first; its
                // processing happens at delivery time.
                self.send_msg(
                    IMPLICIT_SP,
                    self.sp_node(0),
                    Message::Query { template },
                    0,
                    SimTime::ZERO,
                );
            }
            KernelEvent::InterQuery { origin, template } => {
                // Only live peers pose queries; a down origin's sample is
                // simply skipped (nobody is there to ask).
                if self.peers[origin.index()].as_ref().is_some_and(|s| s.up) {
                    if self.lat.is_some() {
                        self.start_lookup(origin, template);
                    } else {
                        let target = self.target;
                        let out = self.route_live(origin, template, target);
                        self.inter_outcomes.push((self.sim.now(), out));
                    }
                }
            }
            KernelEvent::Deliver {
                from,
                to,
                msg,
                conv,
                sent_at,
            } => self.deliver(from, to, msg, conv, sent_at),
            KernelEvent::Hits(slot) => {
                let run = self.hit_runs.take(slot);
                self.deliver_hits(&run);
            }
            KernelEvent::Watchdog { conv } => {
                // Ids are unique across the three maps: at most one of
                // these finds the conversation.
                self.finish_ring(conv);
                self.finish_rebirth(conv);
                if let Some(lc) = self.lookups.remove(&conv) {
                    self.inter_outcomes.push(lc.finish(self.sim.now()));
                }
            }
            KernelEvent::SpDeparture { sp } => self.handle_sp_departure_event(sp),
            KernelEvent::SpElection { domain } => self.handle_sp_election(domain),
            KernelEvent::SpTakeover { domain, sp } => self.handle_sp_takeover(domain, sp),
            KernelEvent::ControlTick => self.control_tick(),
        }
        debug_assert!(
            self.now_queue.is_empty(),
            "zero-transit messages outlived their event"
        );
    }

    /// Redraws drifted peer `p`'s database and submits its local
    /// summary. A generation failure (impossible for a config that
    /// built) is counted and keeps the previous data.
    fn redraw(&mut self, p: NodeId) {
        match self.pool.regenerate(
            self.sim.rng(),
            p.0,
            self.cfg.match_fraction,
            self.cfg.records_per_peer,
        ) {
            Ok(match_bits) => {
                let st = self.peers[p.index()]
                    .as_mut()
                    .expect("drifted peer has state");
                // The ground truth is current from now on; the summary
                // follows when a read settles the peer.
                st.data = drawn(&self.blank, match_bits);
                // Stays set until the new summary is merged into an
                // accumulator — the rebirth seeding signal for pushes
                // lost to a dissolving domain.
                st.dirty = true;
            }
            Err(e) => self.note_error(e),
        }
    }

    /// One control epoch: every live domain's controller folds the
    /// epoch's measured feedback (query staleness, pull cost) into its
    /// effective α, and a tightened α may arm a pull right away.
    fn control_tick(&mut self) {
        let Some(epoch) = self.ctl.epoch() else {
            return;
        };
        let now_s = self.sim.now().as_secs_f64();
        for d in 0..self.domains.len() {
            if self.domains[d].dissolved {
                continue;
            }
            let fallback = self.domains[d].cl.stale_fraction();
            let spent = self.domains[d].delta_bytes_total;
            self.ctl.tick_domain(d, now_s, fallback, spent);
            self.maybe_start_ring(d);
        }
        self.sim.schedule_in(epoch, KernelEvent::ControlTick);
    }

    /// An intra-domain workload query arrives at the (implicit) SP, which
    /// routes it to the localized peers. `send_msg` already counted the
    /// client→SP query message.
    fn process_local_query(&mut self, template: usize) {
        // `route_local` reads liveness and match bits, both set at draw
        // time: no summary to wait for.
        let prop = &self.reformulated[template].proposition;
        let outcome = self.domains[0].route_local(prop, self.cfg.policy, &self.peers, template);
        self.ledger
            .count(&Message::Query { template }, outcome.visited.len() as u64);
        self.ledger
            .count(&Message::QueryHit { results: 1 }, outcome.answered as u64);
        self.ctl.record_query(0, outcome.answered, outcome.real_fp);
        self.outcomes.push(outcome);
    }

    // ------------------------------------------------------------------
    // The message plane: send / deliver plumbing.
    // ------------------------------------------------------------------

    /// The delivery-event node id of a domain's SP.
    fn sp_node(&self, d: usize) -> NodeId {
        self.domains[d].sp.unwrap_or(IMPLICIT_SP)
    }

    /// Base (propagation) latency of the `a → b` hop: the direct
    /// topology link when one exists, the construction broadcast-tree
    /// latency for partner↔SP hops, the configured default otherwise
    /// (implicit SP, long links, walk partners).
    fn hop_latency(&self, a: NodeId, b: NodeId) -> SimTime {
        let default_hop = self.lat.expect("latency mode");
        if a == IMPLICIT_SP || b == IMPLICIT_SP {
            return default_hop;
        }
        if let Some(net) = &self.net {
            if let Some(l) = net.latency(a, b) {
                return l;
            }
            if let Some(topo) = &self.topo {
                for (p, sp) in [(a, b), (b, a)] {
                    if topo.assignment.get(p.index()).copied().flatten() == Some(sp) {
                        if let Some(t) = topo.join_time(p) {
                            return t;
                        }
                    }
                }
            }
        }
        default_hop
    }

    /// Sends one protocol message, counted once in the ledger. On the
    /// latency plane its delivery is scheduled at `now + transit +
    /// extra`. With instantaneous delivery transit is zero: the message
    /// joins the same-instant FIFO, which is drained before this call
    /// returns unless a drain is already running — so a top-level send
    /// completes its whole cascade (token hops, ring completion, a
    /// follow-up ring) before the sender's next statement.
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64, extra: SimTime) {
        debug_assert!(
            !matches!(msg, Message::QueryHit { .. }),
            "query hits travel as KernelEvent::Hits"
        );
        self.ledger.count(&msg, 1);
        if self.lat.is_none() {
            self.now_queue.push_back((from, to, msg, conv));
            if !self.draining {
                self.draining = true;
                while let Some((from, to, msg, conv)) = self.now_queue.pop_front() {
                    self.dispatch(from, to, msg, conv);
                }
                self.draining = false;
            }
            return;
        }
        let transit = msg.transit_time(self.hop_latency(from, to)) + extra;
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        let sent_at = self.sim.now();
        self.sim.schedule_in(
            transit,
            KernelEvent::Deliver {
                from,
                to,
                msg,
                conv,
                sent_at,
            },
        );
    }

    /// Sends one of a lookup's messages through [`Self::send_msg`] and
    /// adds it to the lookup's own tally.
    fn send_lookup(
        &mut self,
        lc: &mut LookupConversation,
        from: NodeId,
        to: NodeId,
        msg: Message,
        conv: u64,
        extra: SimTime,
    ) {
        lc.messages += 1;
        self.send_msg(from, to, msg, conv, extra);
    }

    /// Charges `n` copies of `msg` that travel as no event of their own
    /// (SP→peer forwards, flood forwards, and every message of a
    /// synchronous [`Self::route_live`] lookup) to the ledger and to
    /// `tally`, the lookup's own count.
    fn charge(&mut self, tally: &mut u64, msg: &Message, n: u64) {
        *tally += n;
        self.ledger.count(msg, n);
    }

    /// Sends a freshness push from partner `p` to its domain's SP.
    fn send_push(&mut self, p: NodeId, d: usize, value: u8) {
        let to = self.sp_node(d);
        self.send_msg(p, to, Message::Push { value }, 0, SimTime::ZERO);
    }

    /// Sends a (re)joining partner's `localsum` to its domain's SP,
    /// `extra` late (release transit / failure detection for re-homes).
    /// `conv` is 0 for fire-and-forget sends; rebirth hand-overs pass
    /// their conversation id so arrivals confirm the re-home instead
    /// of re-entering the CL stale.
    fn send_localsum(&mut self, p: NodeId, d: usize, extra: SimTime, conv: u64) {
        self.settle(p);
        let bytes = self.peers[p.index()]
            .as_ref()
            .map(|s| s.data.summary.len())
            .unwrap_or(0);
        let to = self.sp_node(d);
        self.send_msg(p, to, Message::LocalSum { bytes }, conv, extra);
    }

    /// A message reaches its destination on the latency plane: the
    /// plane's tallies, then its effects.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64, sent_at: SimTime) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let latency = self.sim.now().saturating_sub(sent_at);
        self.ledger.count_deliveries(msg.class(), latency, 1);
        self.dispatch(from, to, msg, conv);
    }

    /// Applies a delivered message — all protocol effects happen here,
    /// at delivery time, whatever the transit was.
    fn dispatch(&mut self, from: NodeId, to: NodeId, msg: Message, conv: u64) {
        match msg {
            Message::Push { value } => self.deliver_push(from, value),
            // Only rebirth hand-overs send a `localsum` in a conversation.
            Message::LocalSum { .. } if conv != 0 => self.deliver_rebirth_localsum(conv, from),
            Message::LocalSum { .. } => self.deliver_localsum(from),
            Message::ReconciliationToken { .. } => self.deliver_token(conv, to),
            Message::Query { template } => {
                if self.net.is_none() {
                    // Single-domain mode: the implicit SP processes the
                    // workload query on arrival.
                    self.process_local_query(template);
                } else {
                    self.deliver_query_at_sp(conv, to);
                }
            }
            Message::FloodRequest { ttl } => self.deliver_flood(conv, to, ttl),
            // Construction-time and §4.3 control messages have no
            // delivery-time effect here (re-homing is driven off the
            // `localsum` the released partner sends).
            _ => {}
        }
    }

    /// A freshness push arrives at the SP.
    fn deliver_push(&mut self, from: NodeId, value: u8) {
        let Some(d) = self.domain_of.get(from.index()).copied().flatten() else {
            return;
        };
        let f = if value >= 2 {
            Freshness::Unavailable
        } else {
            Freshness::NeedsRefresh
        };
        if self.domains[d].apply_push(from, f) {
            self.maybe_start_ring(d);
        }
    }

    /// A (re)joining partner's `localsum` arrives at the SP.
    fn deliver_localsum(&mut self, from: NodeId) {
        let Some(d) = self.domain_of.get(from.index()).copied().flatten() else {
            return;
        };
        if self.domains[d].apply_localsum(from) {
            self.maybe_start_ring(d);
        }
    }

    // ------------------------------------------------------------------
    // Reconciliation rings as conversations.
    // ------------------------------------------------------------------

    /// Takes the next conversation id.
    fn open_conversation(&mut self) -> u64 {
        let conv = self.next_conv;
        self.next_conv += 1;
        conv
    }

    /// Schedules `conv`'s [`KernelEvent::Watchdog`] on the latency
    /// plane; with instantaneous delivery a conversation ends within
    /// the event that opened it.
    fn arm_watchdog(&mut self, conv: u64) {
        if self.lat.is_some() {
            self.sim
                .schedule_in(CONVERSATION_TIMEOUT, KernelEvent::Watchdog { conv });
        }
    }

    /// Starts a ring conversation when α crossed and none is running.
    /// The route covers only the *stale* live members (§4.2.2's pull
    /// needs nothing from fresh ones — their contributions already sit
    /// in the SP's accumulator).
    fn maybe_start_ring(&mut self, d: usize) {
        if self.domains[d].dissolved
            || self.ring_of_domain[d].is_some()
            || !self.domains[d].cl.needs_reconciliation(self.ctl.alpha(d))
        {
            return;
        }
        let route = RingConversation::stale_route(&self.domains[d].cl, |m| {
            self.peers[m.index()].as_ref().is_some_and(|s| s.up)
        });
        if route.is_empty() {
            // Every stale entry is a departed member: nothing to pull,
            // just expire them at once. Expiry reads no summary.
            if let Err(e) = self.domains[d].apply_snapshots(&[], &mut self.peers, &mut self.ledger)
            {
                self.note_error(e);
            }
            return;
        }
        let conv = self.open_conversation();
        let mut rc = RingConversation::new(d, route);
        let first = rc.route.pop_front().expect("non-empty route");
        let bytes = RingConversation::token_bytes(&rc.gathered);
        self.rings.insert(conv, rc);
        self.ring_of_domain[d] = Some(conv);
        let sp = self.sp_node(d);
        self.send_msg(
            sp,
            first,
            Message::ReconciliationToken { bytes },
            conv,
            SimTime::ZERO,
        );
        self.arm_watchdog(conv);
    }

    /// The token arrives at its next hop (or back at the SP).
    fn deliver_token(&mut self, conv: u64, to: NodeId) {
        let Some(rc) = self.rings.get(&conv) else {
            return;
        };
        let d = rc.domain;
        let sp = self.sp_node(d);
        if to == sp {
            self.finish_ring(conv);
            return;
        }
        // The member must still be up to stamp the token; a hop landing
        // on a churned-out peer silently drops it — the SP's watchdog
        // completes the pull with what was gathered.
        let up = self
            .peers
            .get(to.index())
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.up);
        if !up {
            return;
        }
        self.settle(to);
        let st = self.peers[to.index()].as_ref().expect("checked above");
        let snap = SummarySnapshot::of(to, st);
        let rc = self.rings.get_mut(&conv).expect("checked above");
        rc.gathered.push(snap);
        let next = rc.route.pop_front();
        let bytes = RingConversation::token_bytes(&rc.gathered);
        let target = next.unwrap_or(sp);
        self.send_msg(
            to,
            target,
            Message::ReconciliationToken { bytes },
            conv,
            SimTime::ZERO,
        );
    }

    /// Completes a ring (token returned, or watchdog): the SP folds the
    /// gathered snapshots into its accumulator (`NewGS`, built when
    /// observed) and resets the CL.
    fn finish_ring(&mut self, conv: u64) {
        let Some(RingConversation {
            domain: d,
            gathered,
            ..
        }) = self.rings.remove(&conv)
        else {
            return;
        };
        self.ring_of_domain[d] = None;
        // The pull compares each gathered peer's current summary with
        // its snapshot, and reads no other peer's.
        for snap in &gathered {
            self.settle(snap.peer);
        }
        if let Err(e) =
            self.domains[d].apply_snapshots(&gathered, &mut self.peers, &mut self.ledger)
        {
            self.note_error(e);
        }
        // Members the token missed kept their stale flags, so α may
        // re-arm a follow-up ring immediately.
        self.maybe_start_ring(d);
    }

    // ------------------------------------------------------------------
    // Inter-domain lookups as conversations.
    // ------------------------------------------------------------------

    /// Poses an inter-domain lookup on the message plane.
    fn start_lookup(&mut self, origin: NodeId, template: usize) {
        let Some(home) = self.domain_of.get(origin.index()).copied().flatten() else {
            return;
        };
        let results_total = self.true_matches(template).len();
        let need = match self.target {
            LookupTarget::Partial(ct) => ct,
            LookupTarget::Total => usize::MAX,
        };
        let conv = self.open_conversation();
        let mut lc = LookupConversation::new(origin, template, need, self.sim.now(), results_total);
        self.schedule_domain_query(&mut lc, conv, home, origin, SimTime::ZERO);
        self.lookups.insert(conv, lc);
        self.arm_watchdog(conv);
    }

    /// Ends a conversation a handler took out of `lookups` — so the
    /// handler pays one map lookup, not one per message it sends: it
    /// records the outcome when no branch is left in flight, and puts
    /// the conversation back otherwise.
    fn settle_lookup(&mut self, conv: u64, lc: LookupConversation) {
        if lc.branches == 0 {
            self.inter_outcomes.push(lc.finish(self.sim.now()));
        } else {
            self.lookups.insert(conv, lc);
        }
    }

    /// Sends this lookup's query to one domain's SP (once per domain).
    fn schedule_domain_query(
        &mut self,
        lc: &mut LookupConversation,
        conv: u64,
        d: usize,
        from: NodeId,
        extra: SimTime,
    ) {
        if !lc.seen_domains.insert(d) {
            return;
        }
        lc.branches += 1;
        let sp = self.sp_node(d);
        let msg = Message::Query {
            template: lc.template,
        };
        self.send_lookup(lc, from, sp, msg, conv, extra);
    }

    /// Sends one `QueryHit` per peer of `peers` to the lookup's
    /// originator, each `extra(peer)` later than its own transit. A run
    /// of consecutive answers that arrive at the same instant travels
    /// as one [`KernelEvent::Hits`]; every answer is still counted as a
    /// message of its own.
    fn send_hits(
        &mut self,
        lc: &mut LookupConversation,
        conv: u64,
        peers: &Rc<[NodeId]>,
        summary_selected: bool,
        extra: impl Fn(&Self, NodeId) -> SimTime,
    ) {
        debug_assert!(self.lat.is_some(), "hit runs travel on the latency plane");
        let msg = hit_msg(summary_selected);
        let origin = lc.origin;
        if lc.hop_epoch != self.topo_epoch {
            lc.hop_to_origin.clear();
            lc.hop_epoch = self.topo_epoch;
        }
        if lc.hop_to_origin.len() < self.peers.len() {
            lc.hop_to_origin
                .resize(self.peers.len(), LookupConversation::HOP_UNKNOWN);
        }
        let mut run: Option<(usize, SimTime)> = None;
        for (i, &q) in peers.iter().enumerate() {
            let hop = match lc.hop_to_origin.get_mut(q.index()) {
                Some(h) if *h != LookupConversation::HOP_UNKNOWN => *h,
                Some(h) => {
                    *h = self.hop_latency(q, origin);
                    *h
                }
                None => self.hop_latency(q, origin),
            };
            debug_assert_eq!(hop, self.hop_latency(q, origin), "stale hop memo");
            let transit = msg.transit_time(hop) + extra(self, q);
            match run {
                Some((_, t)) if t == transit => continue,
                Some((start, t)) => {
                    self.send_hit_run(lc, conv, peers, start..i, t, summary_selected)
                }
                None => {}
            }
            run = Some((i, transit));
        }
        if let Some((start, t)) = run {
            self.send_hit_run(lc, conv, peers, start..peers.len(), t, summary_selected);
        }
    }

    /// Schedules `peers[run]` as one [`KernelEvent::Hits`] `transit`
    /// from now, charging each answer as one message and one branch.
    fn send_hit_run(
        &mut self,
        lc: &mut LookupConversation,
        conv: u64,
        peers: &Rc<[NodeId]>,
        run: std::ops::Range<usize>,
        transit: SimTime,
        summary_selected: bool,
    ) {
        let n = run.len() as u64;
        lc.branches += n;
        self.charge(&mut lc.messages, &hit_msg(summary_selected), n);
        self.in_flight += n;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        let run = HitRun {
            conv,
            peers: Rc::clone(peers),
            start: run.start as u32,
            end: run.end as u32,
            summary_selected,
            sent_at: self.sim.now(),
        };
        let slot = self.hit_runs.insert(run);
        self.sim.schedule_in(transit, KernelEvent::Hits(slot));
    }

    /// A lookup's query arrives at a domain SP: the SP consults its
    /// GS/CL, forwards to the selected peers (whose answers travel back
    /// as hit runs), floods, and follows long links.
    fn deliver_query_at_sp(&mut self, conv: u64, to: NodeId) {
        let Some(mut lc) = self.lookups.remove(&conv) else {
            return;
        };
        lc.branches = lc.branches.saturating_sub(1);
        self.query_at_sp(&mut lc, conv, to);
        self.settle_lookup(conv, lc);
    }

    /// The body of [`Self::deliver_query_at_sp`] on the borrowed
    /// conversation.
    fn query_at_sp(&mut self, lc: &mut LookupConversation, conv: u64, to: NodeId) {
        let sp_up = self.net.as_ref().is_some_and(|n| n.is_up(to));
        let live = |d: &usize| !self.domains[*d].dissolved && sp_up;
        let Some(d) = self.sp_index.get(&to).copied().filter(live) else {
            // Dissolved domain or departed SP: the branch dies here.
            return;
        };
        let template = lc.template;
        let (answering, stale, forwards) = self.query_domain(d, template);
        // Controller feedback, part 1: peers the summary selected that
        // were already down or drifted at SP time. The answers now sent
        // in flight are judged at *arrival* (`deliver_hits`), so peers
        // that churn out mid-flight feed the controller as stale too —
        // keeping the control signal aligned with the per-outcome
        // stale-answer accounting.
        self.ctl.record_query(d, 0, stale);
        self.charge(&mut lc.messages, &Message::Query { template }, forwards);
        lc.visited_domains += 1;
        lc.stale_answers += stale;
        // Group locality: the answering peers remember they answered
        // this template together, all sharing one list.
        let answering: Rc<[NodeId]> = answering.into();
        for &p in answering.iter() {
            self.caches[p.index()].insert(template, Rc::clone(&answering));
        }
        // Each answer travels SP → peer → originator; it is
        // re-validated on arrival (the peer may churn out in flight).
        self.send_hits(lc, conv, &answering, true, |k, p| {
            Message::Query { template }.transit_time(k.hop_latency(to, p))
        });
        // §5.2.2 flooding requests to the answering peers and — in its
        // home domain — the originator.
        let home = self.domain_of[lc.origin.index()] == Some(d);
        let flooders = answering.iter().copied().chain(home.then_some(lc.origin));
        lc.branches += answering.len() as u64 + u64::from(home);
        let ttl = self.cfg.flood_ttl;
        for f in flooders {
            let msg = Message::FloodRequest { ttl };
            self.send_lookup(lc, to, f, msg, conv, SimTime::ZERO);
        }
        // Long-range SP links fan the query out.
        for i in 0..self.domains[d].long_links.len() {
            let sp2 = self.domains[d].long_links[i];
            if let Some(&other) = self.sp_index.get(&sp2) {
                self.schedule_domain_query(lc, conv, other, to, SimTime::ZERO);
            }
        }
    }

    /// A flood request arrives at a flooder, which forwards outside its
    /// domain with the TTL: cached answers reply to the originator, and
    /// newly discovered domains receive the query.
    fn deliver_flood(&mut self, conv: u64, f: NodeId, ttl: u32) {
        let Some(mut lc) = self.lookups.remove(&conv) else {
            return;
        };
        lc.branches = lc.branches.saturating_sub(1);
        self.flood(&mut lc, conv, f, ttl);
        self.settle_lookup(conv, lc);
    }

    /// The body of [`Self::deliver_flood`] on the borrowed conversation.
    fn flood(&mut self, lc: &mut LookupConversation, conv: u64, f: NodeId, ttl: u32) {
        let f_up = self
            .peers
            .get(f.index())
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.up);
        let Some(net) = self.net.as_ref().filter(|_| f_up) else {
            // A churned-out flooder drops the request.
            return;
        };
        let mut reach = std::mem::take(&mut self.flood_out);
        net.flood_reach_into(f, ttl, &mut self.flood_scratch, &mut reach);
        // Each forward is a message.
        let forward = Message::FloodRequest { ttl };
        self.charge(&mut lc.messages, &forward, reach.len() as u64);
        for &(reached, _hops, plat) in &reach {
            // "Its neighbors may have cached answers to similar
            // queries": each cached candidate is re-validated when its
            // reply reaches the originator.
            if let Some(hit) = self.caches[reached.index()].lookup(lc.template) {
                let cached = Rc::clone(&hit.answering);
                self.cache_hits += 1;
                self.send_hits(lc, conv, &cached, false, |_, _| plat);
            }
            if let Some(other_d) = self.domain_of[reached.index()] {
                self.schedule_domain_query(lc, conv, other_d, reached, plat);
            }
        }
        self.flood_out = reach;
    }

    /// A run of answers reaches the originator. Each answer is about one
    /// peer and is validated against the world as it is *now* — peers
    /// that churned out or drifted while it was in flight do not count,
    /// and summary-selected ones surface as stale answers. The run is
    /// handled in send order, exactly as if each answer had arrived on
    /// its own, up to the answer that completes the lookup: the lookup
    /// then leaves `lookups`, so the answers after it find nothing.
    fn deliver_hits(&mut self, run: &HitRun) {
        let HitRun {
            conv,
            summary_selected,
            sent_at,
            ..
        } = *run;
        let peers = &run.peers[run.start as usize..run.end as usize];
        let n = peers.len() as u64;
        let now = self.sim.now();
        self.in_flight = self.in_flight.saturating_sub(n);
        self.ledger
            .count_deliveries(MessageClass::QueryResponse, now.saturating_sub(sent_at), n);
        let Some(lc) = self.lookups.get_mut(&conv) else {
            return;
        };
        let mut answered_live = false;
        let mut finished = false;
        for &q in peers {
            lc.branches = lc.branches.saturating_sub(1);
            let valid = self
                .peers
                .get(q.index())
                .and_then(|s| s.as_ref())
                .is_some_and(|s| s.up && s.data.matches(lc.template));
            // Controller feedback, part 2: the summary-selected answer's
            // verdict *as delivered* — a peer that churned out while its
            // answer was in flight counts as stale here, exactly as it
            // does in the lookup's outcome. Attributed to the peer's
            // current domain (gone only if it was orphaned mid-flight).
            if summary_selected {
                if let Some(dq) = self.domain_of.get(q.index()).copied().flatten() {
                    self.ctl
                        .record_query(dq, usize::from(valid), usize::from(!valid));
                }
            }
            if valid {
                lc.answered.insert(q);
                answered_live = true;
                if summary_selected {
                    lc.summary_ok += 1;
                }
            } else if summary_selected {
                lc.stale_answers += 1;
            }
            if lc.satisfied() || lc.branches == 0 {
                finished = true;
                break;
            }
        }
        // The originator remembers everyone who answered. Every valid
        // answer of the run would re-insert the same template with
        // nothing reading the cache in between, so one insert of the
        // final set leaves the cache in the same state. The list is
        // rebuilt only when the set grew since the last insert.
        if answered_live {
            let answered = lc.answered.shared_list(&mut lc.answer_list);
            self.caches[lc.origin.index()].insert(lc.template, answered);
        }
        if finished {
            let lc = self.lookups.remove(&conv).expect("checked above");
            self.inter_outcomes.push(lc.finish(now));
        }
    }

    // ------------------------------------------------------------------
    // Summary-peer churn (§4.3).
    // ------------------------------------------------------------------

    /// A summary peer's session ends (§4.3): the domain dissolves on the
    /// physical network ([`handle_sp_departure`]), [`Self::retire_domain`]
    /// charges the release or failure-detection traffic, and every
    /// re-homed partner ships its `localsum` to its new SP over the
    /// message plane.
    /// With [`crate::config::SimConfig::rebirth`] the members are not
    /// scattered: the domain retains its member descriptions and a
    /// [`KernelEvent::SpElection`] is scheduled to re-elect a
    /// replacement SP from the orphaned membership.
    fn handle_sp_departure_event(&mut self, sp: NodeId) {
        let Some(&d) = self.sp_index.get(&sp) else {
            return;
        };
        if self.domains[d].dissolved {
            return;
        }
        let graceful = !self
            .sim
            .rng()
            .gen_bool(self.cfg.failure_fraction.clamp(0.0, 1.0));
        // Everyone whose home is this domain re-homes: the CL members
        // *and* peers whose re-home `localsum` is still in flight (in
        // the assignment map but not yet in the CL) — otherwise a
        // second SP departure would strand them pointing at a
        // dissolved domain forever.
        let mut members = self.topo.as_ref().expect("networked kernel").members(sp);
        for m in self.domains[d].cl.partners() {
            if !members.contains(&m) {
                members.push(m);
            }
        }
        // Cancel the domain's in-flight ring, if any, and — a reborn
        // domain's SP can itself depart while the hand-over
        // confirmations are still in flight — its hand-over.
        if let Some(conv) = self.ring_of_domain[d].take() {
            self.rings.remove(&conv);
        }
        self.rebirth_convs.retain(|_, rc| rc.domain != d);
        if self.cfg.rebirth {
            self.dissolve_for_rebirth(d, sp, graceful, members);
            return;
        }
        {
            self.topo_epoch += 1;
            let (Some(net), Some(topo)) = (self.net.as_mut(), self.topo.as_mut()) else {
                return;
            };
            // The re-home walks' `find` hops (the returned cost) are
            // not charged to the ledger; the partners' `localsum`s are.
            handle_sp_departure(net, topo, sp);
        }
        self.retire_domain(d, sp, graceful, members.len());
        // Re-homes: graceful partners act on the release; failed-SP
        // partners discover the failure on their next (timed-out) push.
        let delay = match (graceful, self.lat) {
            (false, Some(_)) => CONVERSATION_TIMEOUT,
            _ => SimTime::ZERO,
        };
        for m in members {
            let new_sp = self.topo.as_ref().expect("networked kernel").assignment[m.index()];
            match new_sp {
                Some(nsp) => {
                    let nd = self.sp_index[&nsp];
                    self.domain_of[m.index()] = Some(nd);
                    self.send_localsum(m, nd, delay, 0);
                }
                None => {
                    self.domain_of[m.index()] = None;
                }
            }
        }
        self.record_domain_count();
    }

    /// The tail every §4.3 dissolution shares: the one place the release
    /// (graceful) or timed-out push (failed) to every partner is
    /// charged, then the SP unregistered, the domain torn down, its
    /// controller frozen and every long link to the SP dropped.
    fn retire_domain(&mut self, d: usize, sp: NodeId, graceful: bool, members: usize) {
        if graceful {
            self.ledger.count(&Message::Release, members as u64);
        } else {
            self.ledger
                .count(&Message::Push { value: 1 }, members as u64);
        }
        self.sp_index.remove(&sp);
        self.domains[d].dissolve();
        // The control plane follows the domain's lifecycle: the slot's
        // controller freezes at its final α (its trajectory ends here);
        // re-homed partners feed their new domains' controllers instead.
        self.ctl.on_dissolve(d);
        for dom in &mut self.domains {
            dom.long_links.retain(|&l| l != sp);
        }
    }

    /// The rebirth flavour of a §4.3 dissolution: the release /
    /// detection traffic is paid and the domain dissolves exactly as in
    /// the terminal path, but instead of walking the orphans to
    /// surviving domains the kernel retains the membership, the
    /// accumulator of member descriptions and the CL flags
    /// ([`RebirthSeed`]), and schedules a [`KernelEvent::SpElection`]
    /// — after the release transit when the departure was graceful, or
    /// after the failure-detection timeout when it was silent.
    fn dissolve_for_rebirth(&mut self, d: usize, sp: NodeId, graceful: bool, members: Vec<NodeId>) {
        // Move (not clone) the retained descriptions out — dissolve()
        // is about to discard the original anyway.
        let acc = std::mem::replace(&mut self.domains[d].acc, empty_accumulator());
        let flags: BTreeMap<NodeId, Freshness> = self.domains[d]
            .cl
            .partners()
            .map(|p| {
                (
                    p,
                    self.domains[d]
                        .cl
                        .freshness(p)
                        .unwrap_or(Freshness::NeedsRefresh),
                )
            })
            .collect();
        {
            self.topo_epoch += 1;
            let (Some(net), Some(topo)) = (self.net.as_mut(), self.topo.as_mut()) else {
                return;
            };
            dissolve_domain(net, topo, sp);
        }
        self.retire_domain(d, sp, graceful, members.len());
        for &m in &members {
            self.domain_of[m.index()] = None;
        }
        self.pending_rebirths.insert(
            d,
            RebirthSeed {
                members,
                acc,
                flags,
                stalled: false,
            },
        );
        // A promoted SP's session is over, but its node is not gone for
        // good: it re-enters the partner pool (down, with a fresh
        // database) and its next scheduled session join revives it —
        // otherwise every rebirth would permanently drain one peer.
        if self.promoted_sps.remove(&sp) {
            // A generation failure is counted and keeps the previous
            // data. The new summary supersedes any the node left
            // outstanding when it was promoted.
            match self.pool.regenerate(
                self.sim.rng(),
                sp.0,
                self.cfg.match_fraction,
                self.cfg.records_per_peer,
            ) {
                Ok(match_bits) => {
                    let mut st = PeerState::new(drawn(&self.blank, match_bits));
                    st.up = false;
                    st.merged_bits = 0;
                    st.drift_scheduled = false;
                    self.peers[sp.index()] = Some(st);
                }
                Err(e) => self.note_error(e),
            }
        }
        // Graceful: the release names the hand-over, so the election
        // starts one hop later. Failed: partners first discover the
        // failure (their next push times out).
        let delay = match (graceful, self.lat) {
            (true, Some(default_hop)) => default_hop,
            (false, Some(_)) => CONVERSATION_TIMEOUT,
            (_, None) => SimTime::ZERO,
        };
        self.sim
            .schedule_in(delay, KernelEvent::SpElection { domain: d });
        self.record_domain_count();
    }

    /// Rebirth, step 1: elect the replacement SP among the dissolved
    /// domain's live, still-unassigned members — latency-aware on the
    /// message plane (minimum expected partner round-trip on the
    /// candidate's broadcast tree), by degree order otherwise. With no
    /// live candidate the rebirth is abandoned: the domain stays
    /// dissolved and its members walk to surviving domains as they
    /// rejoin.
    fn handle_sp_election(&mut self, d: usize) {
        let Some(seed) = self.pending_rebirths.get(&d) else {
            return;
        };
        // Members that already walked into another domain during the
        // orphan window are out: stealing them back would leave two
        // cooperation lists claiming the same partner.
        let live: Vec<NodeId> = seed
            .members
            .iter()
            .copied()
            .filter(|&m| {
                self.peers[m.index()].as_ref().is_some_and(|s| s.up)
                    && self.domain_of[m.index()].is_none()
            })
            .collect();
        let policy = match self.lat {
            Some(default_hop) => ElectionPolicy::LatencyAware {
                ttl: self.cfg.sumpeer_ttl,
                default_hop,
            },
            None => ElectionPolicy::Degree,
        };
        let winner = {
            let net = self.net.as_ref().expect("networked kernel");
            elect_replacement_sp(net, &live, policy)
        };
        let Some(ns) = winner else {
            // Nobody is up to take over right now. The seed stays
            // pending and is marked stalled: the next former member to
            // rejoin re-triggers the election (event-driven retry — no
            // polling), so a domain whose membership was momentarily
            // all-down is not lost forever.
            if let Some(seed) = self.pending_rebirths.get_mut(&d) {
                seed.stalled = true;
            }
            return;
        };
        if let Some(seed) = self.pending_rebirths.get_mut(&d) {
            seed.stalled = false;
        }
        // Election traffic: one candidacy/acknowledgement exchange per
        // live member (the §4.1 `find` vocabulary, construction class).
        self.ledger.count(&Message::Find, live.len() as u64);
        let delay = self.lat.unwrap_or(SimTime::ZERO);
        self.sim
            .schedule_in(delay, KernelEvent::SpTakeover { domain: d, sp: ns });
    }

    /// Rebirth, step 2: the election winner takes over. The winner is
    /// promoted out of the partner role (its database leaves the
    /// workload, like every construction-time SP), announces itself
    /// with a `sumpeer` broadcast whose tree latencies become the
    /// re-homed partners' distances, and the domain slot revives
    /// seeded from the retained descriptions — members whose push
    /// invariant survived the hand-over re-enter `Fresh`, everyone
    /// else stale, so the first α-gated pull is a delta. The members'
    /// `localsum` confirmations run as a [`RebirthConversation`] (with a
    /// watchdog on the latency plane); the last one in may arm the
    /// first pull.
    fn handle_sp_takeover(&mut self, d: usize, ns: NodeId) {
        let Some(seed) = self.pending_rebirths.remove(&d) else {
            return;
        };
        // The winner may have churned out (or walked into another
        // domain) between election and takeover: re-run the election
        // over the remaining candidates.
        if !self.peers[ns.index()].as_ref().is_some_and(|s| s.up)
            || self.domain_of[ns.index()].is_some()
        {
            self.pending_rebirths.insert(d, seed);
            self.handle_sp_election(d);
            return;
        }
        let now_s = self.sim.now().as_secs_f64();
        // Promotion: the newborn SP retires from the partner role
        // (until its own departure returns the node to the pool).
        self.peers[ns.index()] = None;
        self.domain_of[ns.index()] = None;
        self.promoted_sps.insert(ns);
        self.topo_epoch += 1;
        let tree_dist = {
            let (net, topo) = (
                self.net.as_ref().expect("networked kernel"),
                self.topo.as_mut().expect("networked kernel"),
            );
            rebirth_broadcast(net, topo, ns, self.cfg.sumpeer_ttl)
        };
        let live: Vec<NodeId> = seed
            .members
            .iter()
            .copied()
            .filter(|&m| {
                m != ns
                    && self.peers[m.index()].as_ref().is_some_and(|s| s.up)
                    && self.domain_of[m.index()].is_none()
            })
            .collect();
        let seeded: Vec<(NodeId, Freshness)> = live
            .iter()
            .map(|&m| {
                let old = seed
                    .flags
                    .get(&m)
                    .copied()
                    .unwrap_or(Freshness::NeedsRefresh);
                let dirty = self.peers[m.index()].as_ref().is_some_and(|s| s.dirty);
                // A member whose summary regenerated while its push had
                // nowhere to land must not be seeded fresh.
                let f = if dirty && !old.as_stale_bit() {
                    Freshness::NeedsRefresh
                } else {
                    old
                };
                (m, f)
            })
            .collect();
        self.domains[d].revive(ns, seeded, seed.acc);
        self.sp_index.insert(ns, d);
        self.ctl
            .on_rebirth(d, now_s, self.domains[d].delta_bytes_total);
        {
            self.topo_epoch += 1;
            let topo = self.topo.as_mut().expect("networked kernel");
            for &m in &live {
                topo.assignment[m.index()] = Some(ns);
                topo.distance[m.index()] = tree_dist[m.index()].unwrap_or(u64::MAX - 1);
                self.domain_of[m.index()] = Some(d);
            }
        }
        // Long-range links for the newborn SP, from the current SP
        // roster, like construction.
        self.domains[d].long_links =
            sample_long_links(self.sp_index.keys().copied(), ns, self.sim.rng());
        // The newborn SP's own session will end too — that is what
        // keeps the domain population stationary instead of saved-once.
        if let Some(lifetimes) = self.cfg.sp_lifetime {
            let dt = lifetimes.sample(self.sim.rng());
            self.sim
                .schedule_in(dt, KernelEvent::SpDeparture { sp: ns });
        }
        self.rebirths += 1;
        self.record_domain_count();
        // Re-home confirmations: every live member ships its `localsum`
        // to the newborn SP.
        if live.is_empty() {
            return;
        }
        let conv = self.open_conversation();
        self.rebirth_convs.insert(
            conv,
            RebirthConversation {
                domain: d,
                outstanding: live.len() as u64,
            },
        );
        for &m in &live {
            self.send_localsum(m, d, SimTime::ZERO, conv);
        }
        self.arm_watchdog(conv);
    }

    /// A rebirth hand-over `localsum` arrives at the newborn SP. The
    /// member was seeded at takeover; the arrival re-validates it — a
    /// member that churned out while its confirmation was in flight is
    /// flagged `Unavailable` so the next pull expires it.
    fn deliver_rebirth_localsum(&mut self, conv: u64, from: NodeId) {
        let Some(rc) = self.rebirth_convs.get_mut(&conv) else {
            return;
        };
        rc.outstanding = rc.outstanding.saturating_sub(1);
        let (d, outstanding) = (rc.domain, rc.outstanding);
        if !self.peers[from.index()].as_ref().is_some_and(|s| s.up) {
            self.domains[d]
                .cl
                .set_freshness(from, Freshness::Unavailable);
        }
        if outstanding == 0 {
            self.finish_rebirth(conv);
        }
    }

    /// Completes a rebirth hand-over (all confirmations in, or
    /// watchdog): the reborn domain's seeded staleness may arm its
    /// first — delta — pull immediately.
    fn finish_rebirth(&mut self, conv: u64) {
        if let Some(rc) = self.rebirth_convs.remove(&conv) {
            self.maybe_start_ring(rc.domain);
        }
    }

    /// Samples the live-domain count into the trajectory
    /// (`BENCH_rebirth.json`'s stationarity evidence). Only meaningful
    /// under SP churn; a no-op otherwise so existing reports stay
    /// unchanged.
    fn record_domain_count(&mut self) {
        if self.cfg.sp_lifetime.is_none() || self.net.is_none() {
            return;
        }
        let live = self.live_domains();
        self.domain_trajectory.push((self.sim.now(), live));
    }

    /// Walks an orphaned rejoiner (§4.1's `find`) to the nearest
    /// surviving partner or SP and adopts that domain. Returns the new
    /// domain index, or `None` when the walk found nobody.
    fn rehome_orphan(&mut self, p: NodeId) -> Option<usize> {
        let (hops, sp) = {
            let topo = self.topo.as_ref()?;
            find_domain(self.net.as_ref()?, &topo.superpeers, &topo.assignment, p)
        };
        self.ledger.count(&Message::Find, hops);
        let sp = sp?;
        // Adopt the domain only if its SP is actually alive — never
        // leave the assignment pointing at a departed one.
        let d = *self.sp_index.get(&sp)?;
        self.topo_epoch += 1;
        let topo = self.topo.as_mut()?;
        topo.assignment[p.index()] = Some(sp);
        topo.distance[p.index()] = u64::MAX - 1;
        self.domain_of[p.index()] = Some(d);
        Some(d)
    }

    /// Completed SP rebirths so far
    /// ([`crate::config::SimConfig::rebirth`]).
    pub fn rebirths(&self) -> u64 {
        self.rebirths
    }

    /// Domains currently live (not dissolved).
    pub fn live_domains(&self) -> usize {
        self.domains.iter().filter(|d| !d.dissolved).count()
    }

    /// Debug / verification probe: checks every live domain's
    /// incrementally maintained GS against its from-scratch
    /// [`DomainCore::full_rebuild_oracle`], byte-for-byte, and the
    /// accumulator's peer localization against selection over the
    /// oracle tree for every query template. After a completed
    /// reconciliation round in instantaneous mode both must agree —
    /// including for domains reborn from retained descriptions (the
    /// rebirth property tests rely on this probe).
    pub fn live_gs_matches_oracle(&self) -> Result<bool, P2pError> {
        debug_assert!(
            self.pool.is_settled(),
            "control returned with summaries pending"
        );
        for dom in &self.domains {
            if dom.dissolved {
                continue;
            }
            let oracle = dom.full_rebuild_oracle(&self.peers)?;
            if wire::encode(&dom.gs) != wire::encode(&oracle) {
                return Ok(false);
            }
            for sq in &self.reformulated {
                let prop = &sq.proposition;
                if dom.acc.relevant_sources(prop) != relevant_sources(&oracle, prop) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Every domain slot's state, dissolved slots included. Whenever the
    /// kernel hands control back, each live domain's `gs` is the
    /// canonical build of its accumulator.
    pub fn domain_cores(&self) -> &[DomainCore] {
        &self.domains
    }

    /// Messages currently in flight on the message plane.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// High-water mark of in-flight messages over the run.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Builds every domain's GS that a pull left stale, so that what a
    /// caller observes after a run is the stored merged view.
    fn materialize(&mut self) {
        for dom in &mut self.domains {
            dom.materialize();
        }
    }

    /// Installs `p`'s outstanding local summary, if any: whatever reads
    /// one peer's summary or flat form calls this first.
    fn settle(&mut self, p: NodeId) {
        let peers = &mut self.peers;
        self.pool.settle(p.0, |q, s| install(peers, q, s));
    }

    /// Installs every outstanding local summary: where control returns
    /// to the caller, and where the whole membership may be read
    /// ([`Self::reconcile_all`]).
    fn settle_all(&mut self) {
        let peers = &mut self.peers;
        self.pool.settle_all(|q, s| install(peers, q, s));
    }

    /// Number of query templates of the workload.
    fn template_count(&self) -> usize {
        self.pool.generator().templates().len()
    }

    /// Runs every scheduled event to the horizon.
    pub fn run_to_horizon(&mut self) {
        while let Some((_, ev)) = self.sim.next_event() {
            self.handle(ev);
        }
        self.settle_all();
        self.materialize();
        if let (n, Some(e)) = self.error_status() {
            eprintln!("warning: {n} domain-state error(s) swallowed during the run; first: {e}");
        }
    }

    /// Processes events due at or before `t`, then advances the clock to
    /// `t` — the probe-in-the-middle entry the dynamic experiments use.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((_, ev)) = self.sim.next_event_before(t) {
            self.handle(ev);
        }
        self.sim.fast_forward(t);
        self.settle_all();
        self.materialize();
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Ground truth: all live peers currently matching `template`.
    pub fn true_matches(&self, template: usize) -> Vec<NodeId> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|s| s.up && s.data.matches(template)))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Cache hits observed during inter-domain flooding so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Queries one domain's *live* GS/CL under the configured routing
    /// policy: (answering peers, stale answers, forwards to the visited
    /// peers).
    fn query_domain(&self, d: usize, template: usize) -> (Vec<NodeId>, usize, u64) {
        let dom = &self.domains[d];
        let prop = &self.reformulated[template].proposition;
        // Only current partners are contacted: the CL is the membership
        // authority even when the accumulator still carries departed
        // peers' contributions.
        let pq: Vec<NodeId> = dom
            .acc
            .relevant_sources(prop)
            .into_iter()
            .map(|s| NodeId(s.0))
            .filter(|p| dom.cl.contains(*p))
            .collect();
        let visited = visited_peers(&pq, &dom.cl, self.cfg.policy);
        let mut answering = Vec::new();
        let mut stale = 0usize;
        for p in &visited {
            let live_match = self.peers[p.index()]
                .as_ref()
                .is_some_and(|s| s.up && s.data.matches(template));
            if live_match {
                answering.push(*p);
            } else {
                stale += 1;
            }
        }
        (answering, stale, visited.len() as u64)
    }

    /// Routes a query posed at `origin` through the network (§5.2.2),
    /// against the *current* per-domain GS/CL state — under churn this is
    /// where stale summaries become measurable network-wide. Every
    /// message the lookup cost is charged to the ledger as well as to
    /// the outcome's `messages`, probes included.
    pub fn route_live(
        &mut self,
        origin: NodeId,
        template: usize,
        target: LookupTarget,
    ) -> MultiDomainOutcome {
        let results_total = self.true_matches(template).len();
        let need = match target {
            LookupTarget::Partial(ct) => ct,
            LookupTarget::Total => usize::MAX,
        };

        let Some(home) = self.domain_of.get(origin.index()).copied().flatten() else {
            return MultiDomainOutcome::empty(results_total);
        };
        // A down origin cannot pose a query (the scheduled InterQuery
        // path skips it for the same reason); probes get the same rule.
        if !self.peers[origin.index()].as_ref().is_some_and(|s| s.up) {
            return MultiDomainOutcome::empty(results_total);
        }

        // Messages by kind, charged once when the lookup ends: queries
        // (to each SP, its forwards and long links), summary-selected
        // hits, cache replies, and flood requests and forwards.
        let (mut queries, mut hits, mut cache_replies, mut floods) = (0, 0, 0, 0);
        let mut stale_answers = 0usize;
        let mut summary_results = 0usize;
        let mut answered: DenseSet<NodeId> = DenseSet::default();
        // `answered` as last stored in the originator's cache.
        let mut answer_list = None;
        let mut reach = std::mem::take(&mut self.flood_out);
        // Domains to process next, discovered through flooding/long
        // links; each enters once, at its first discovery.
        let mut queued: DenseSet<usize> = DenseSet::default();
        let mut frontier: VecDeque<usize> = VecDeque::new();
        queued.insert(home);
        frontier.push_back(home);
        let mut domains_visited = 0;

        'domains: while let Some(d) = frontier.pop_front() {
            domains_visited += 1;
            let (answering, stale, forwards) = self.query_domain(d, template);
            self.ctl.record_query(d, answering.len(), stale);
            queries += 1 + forwards; // the query to this domain's SP and its forwards
            hits += answering.len() as u64;
            stale_answers += stale;
            summary_results += answering.len();
            for &p in &answering {
                answered.insert(p);
            }
            // Group locality (§5.2.2): the originator and the answering
            // peers remember who answered this template. The originator
            // accumulates everyone seen so far — a later domain with no
            // answerers must not wipe the entry it already earned.
            if !answered.is_empty() {
                let list = answered.shared_list(&mut answer_list);
                self.caches[origin.index()].insert(template, list);
            }
            let answering: Rc<[NodeId]> = answering.into();
            for &p in answering.iter() {
                self.caches[p.index()].insert(template, Rc::clone(&answering));
            }
            if answered.len() >= need {
                break;
            }

            // §5.2.2: flood requests to the answering peers and the
            // originator, who forward the query outside their domain with
            // a limited TTL; plus the SP's long-range links.
            let home = self.domain_of[origin.index()] == Some(d);
            let flooders = answering.iter().copied().chain(home.then_some(origin));
            floods += answering.len() as u64 + u64::from(home);
            for f in flooders {
                let net = self.net.as_ref().expect("networked kernel");
                net.flood_reach_into(f, self.cfg.flood_ttl, &mut self.flood_scratch, &mut reach);
                for &(reached, _, _) in &reach {
                    // Each forward is a message. A reached neighbor with
                    // a cached answer for this template replies at once —
                    // "its neighbors may have cached answers to similar
                    // queries".
                    floods += 1;
                    if let Some(hit) = self.caches[reached.index()].lookup(template) {
                        let cached = Rc::clone(&hit.answering);
                        self.cache_hits += 1;
                        cache_replies += 1;
                        for &q in cached.iter() {
                            // Validate against ground truth: stale cache
                            // entries (peer gone or drifted) add nothing.
                            let valid = self.peers[q.index()]
                                .as_ref()
                                .is_some_and(|s| s.up && s.data.matches(template));
                            if valid {
                                answered.insert(q);
                            }
                        }
                        if answered.len() >= need {
                            break 'domains;
                        }
                    }
                    if let Some(other) = self.domain_of[reached.index()] {
                        if queued.insert(other) {
                            frontier.push_back(other);
                        }
                    }
                }
            }
            for sp in &self.domains[d].long_links {
                queries += 1;
                // A link may point at an SP that departed since (§4.3).
                if let Some(&other) = self.sp_index.get(sp) {
                    if queued.insert(other) {
                        frontier.push_back(other);
                    }
                }
            }
        }

        self.flood_out = reach;
        let mut messages = 0;
        self.charge(&mut messages, &Message::Query { template }, queries);
        self.charge(&mut messages, &hit_msg(true), hits);
        self.charge(&mut messages, &hit_msg(false), cache_replies);
        let flood = Message::FloodRequest {
            ttl: self.cfg.flood_ttl,
        };
        self.charge(&mut messages, &flood, floods);
        MultiDomainOutcome {
            results: answered.len(),
            results_total,
            domains_visited,
            messages,
            satisfied: answered.len() >= need.min(results_total),
            stale_answers,
            summary_results,
            time_to_answer_s: 0.0,
        }
    }

    /// Builds the single-domain report after a completed run.
    pub(crate) fn single_report(&self) -> DomainReport {
        let dom = &self.domains[0];
        let (approx_live, approx_with_departed, approx_errors) = self.approximate_coverage();
        let mut report = DomainReport::from_run(
            &self.cfg,
            &self.outcomes,
            self.ledger.counters(),
            self.ledger.byte_counters(),
            dom.reconciliations,
            dom.gs_bytes_last,
            dom.gs.leaf_count(),
            dom.gs.live_node_count(),
        );
        report.approx_weight_live = approx_live;
        report.approx_weight_with_departed = approx_with_departed;
        let work = self.ledger.reconcile_work();
        report.reconcile_merged_members = work.merged;
        report.reconcile_skipped_members = work.skipped;
        report.reconcile_delta_bytes = work.delta_bytes;
        report.final_alpha = self.ctl.alpha(0);
        report.alpha_trajectory = self.ctl.trajectory(0).to_vec();
        report.domain_errors = self.domain_errors + approx_errors;
        report
    }

    /// §4.3's two alternatives for departed peers' descriptions, made
    /// measurable: the approximate-answer weight per template from the
    /// current GS (alternative 2 — departed data expired, the paper's
    /// and this simulation's routing choice) versus a GS that *keeps*
    /// the last known summaries of down peers (alternative 1 — richer
    /// approximate answers at the price of describing unavailable data).
    /// The third value counts the down peers whose summary failed to
    /// decode or merge; they contribute nothing.
    fn approximate_coverage(&self) -> (Vec<f64>, Vec<f64>, u64) {
        debug_assert!(
            self.pool.is_settled(),
            "control returned with summaries pending"
        );
        let gs = &self.domains[0].gs;
        let weight_of = |gs: &saintetiq::hierarchy::SummaryTree| -> Vec<f64> {
            self.reformulated
                .iter()
                .map(|sq| {
                    saintetiq::query::approx::approximate_answer(gs, sq)
                        .iter()
                        .map(|a| a.weight)
                        .sum()
                })
                .collect()
        };
        let live = weight_of(gs);
        let mut with_departed = gs.clone();
        let ecfg = EngineConfig::default();
        let mut errors = 0;
        for peer in self.peers.iter().flatten() {
            if !peer.up && peer.merged_bits == 0 {
                // Down and absent from the GS: its last summary is the
                // description alternative 1 would have retained.
                let merged = wire::decode(&peer.data.summary).and_then(|tree| {
                    saintetiq::merge::merge_into(&mut with_departed, &tree, &ecfg)
                });
                if merged.is_err() {
                    errors += 1;
                }
            }
        }
        (live, weight_of(&with_departed), errors)
    }

    /// Every inter-domain lookup's `(posing time, outcome)` so far, in
    /// posing order. Lookups posed close to the horizon never see their
    /// remaining deliveries (the simulator drops events past the
    /// horizon); they are recorded as cut off at the horizon instead of
    /// silently discarding the tail — otherwise slow-link sweeps would
    /// compare survivorship-biased query populations.
    pub fn lookup_outcomes(&self) -> Vec<(SimTime, MultiDomainOutcome)> {
        let mut outcomes = self.inter_outcomes.clone();
        outcomes.extend(self.lookups.values().map(|lc| lc.finish(self.cfg.horizon)));
        outcomes.sort_by_key(|o| o.0);
        outcomes
    }

    /// Builds the multi-domain report after a completed dynamic run.
    pub(crate) fn multi_report(&self) -> MultiDomainReport {
        let reconciliations = self.domains.iter().map(|d| d.reconciliations).sum();
        let outcomes = self.lookup_outcomes();
        let mut report = MultiDomainReport::from_run(
            &self.cfg,
            self.live_domains(),
            &outcomes,
            &self.ledger,
            reconciliations,
            self.cache_hits,
            self.peak_in_flight,
        );
        report.final_alphas = self.ctl.final_alphas();
        report.mean_final_alpha = if report.final_alphas.is_empty() {
            self.cfg.alpha
        } else {
            report.final_alphas.iter().sum::<f64>() / report.final_alphas.len() as f64
        };
        report.alpha_trajectories = (0..self.domains.len())
            .map(|d| self.ctl.trajectory(d).to_vec())
            .collect();
        report.rebirths = self.rebirths;
        report.domain_count_trajectory = self
            .domain_trajectory
            .iter()
            .map(|&(t, n)| (t.as_secs_f64(), n))
            .collect();
        report.initial_domains = self
            .domain_trajectory
            .first()
            .map(|&(_, n)| n)
            .unwrap_or(report.n_domains);
        report.min_live_domains = self
            .domain_trajectory
            .iter()
            .map(|&(_, n)| n)
            .min()
            .unwrap_or(report.n_domains);
        report.domain_errors = self.domain_errors;
        report
    }

    /// Forces a reconciliation round in every domain (used by probes and
    /// SP-initiated maintenance scenarios).
    pub fn reconcile_all(&mut self) {
        self.settle_all();
        for d in 0..self.domains.len() {
            let result = {
                let (domains, peers, ledger) =
                    (&mut self.domains, &mut self.peers, &mut self.ledger);
                domains[d].reconcile(peers, ledger)
            };
            if let Err(e) = result {
                self.note_error(e);
            }
        }
    }

    /// Records a domain-state error the event loop swallowed. These are
    /// impossible for configurations that built successfully; counting
    /// them (instead of panicking mid-run) keeps release simulations
    /// total, while debug builds — the tests and CI — still fail loudly
    /// so a corrupted domain can never silently feed the reports.
    fn note_error(&mut self, e: P2pError) {
        debug_assert!(false, "domain-state error swallowed mid-run: {e}");
        self.domain_errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    /// Number of domain-state errors swallowed so far, and the first
    /// one — `(0, None)` on every healthy run.
    pub fn error_status(&self) -> (u64, Option<&P2pError>) {
        (self.domain_errors, self.first_error.as_ref())
    }

    /// Mean stale fraction across domains' cooperation lists.
    pub fn mean_stale_fraction(&self) -> f64 {
        if self.domains.is_empty() {
            return 0.0;
        }
        self.domains
            .iter()
            .map(|d| d.cl.stale_fraction())
            .sum::<f64>()
            / self.domains.len() as f64
    }

    /// Live assigned partners: the peers that can pose a query now.
    pub fn live_origins(&self) -> Vec<NodeId> {
        (0..self.cfg.n_peers as u32)
            .map(NodeId)
            .filter(|p| {
                self.peers[p.index()].as_ref().is_some_and(|s| s.up)
                    && self.domain_of[p.index()].is_some()
            })
            .collect()
    }

    /// The run's message ledger: every message counted once, per class.
    pub fn ledger(&self) -> &MessageLedger {
        &self.ledger
    }
}

/// The dynamic multi-domain simulation: churn, drift and reconciliation
/// interleaved with inter-domain lookups — the network-scale experiment
/// the static [`crate::system::MultiDomainSystem`] cannot express.
pub struct MultiDomainSim {
    kernel: SimKernel,
}

impl MultiDomainSim {
    /// Builds the system and schedules its full dynamic event load.
    pub fn new(
        cfg: SimConfig,
        domain_target: usize,
        target: LookupTarget,
    ) -> Result<Self, P2pError> {
        Ok(Self {
            kernel: SimKernel::networked(cfg, domain_target, Some(target))?,
        })
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> MultiDomainReport {
        self.kernel.run_to_horizon();
        self.kernel.multi_report()
    }

    /// Processes events up to virtual time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        self.kernel.run_until(t);
    }

    /// The domain construction map.
    pub fn domains(&self) -> &Domains {
        self.kernel
            .topo
            .as_ref()
            .expect("networked kernel has a topology")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliveryMode;

    /// The latency plane's default hop in these tests.
    const HOP: SimTime = SimTime::from_millis(50);

    fn cfg(n: usize, seed: u64) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n, 0.3);
        c.horizon = SimTime::from_hours(4);
        c.query_count = 30;
        c.records_per_peer = 10;
        c.seed = seed;
        c
    }

    #[test]
    fn single_domain_kernel_matches_domain_sim_shape() {
        let mut k = SimKernel::single_domain(cfg(24, 1)).unwrap();
        k.run_to_horizon();
        assert_eq!(k.error_status(), (0, None), "healthy run swallows nothing");
        let report = k.single_report();
        assert_eq!(report.queries, 30);
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn undecodable_departed_summary_is_counted_as_an_error() {
        let mut k = SimKernel::single_domain(cfg(24, 1)).unwrap();
        k.run_to_horizon();
        assert_eq!(k.single_report().domain_errors, 0);
        // A down peer absent from the GS whose last summary is cut short:
        // the with-departed coverage cannot decode it.
        let st = k.peers[0].as_mut().unwrap();
        st.up = false;
        st.merged_bits = 0;
        st.data.summary = bytes::Bytes::copy_from_slice(&st.data.summary[..10]);
        assert_eq!(k.single_report().domain_errors, 1);
    }

    #[test]
    fn networked_static_build_has_live_domains() {
        let k = SimKernel::networked(cfg(200, 2), 30, None).unwrap();
        assert!(k.domains.len() >= 4);
        for dom in &k.domains {
            assert_eq!(dom.cl.stale_fraction(), 0.0);
        }
        assert!(k.peers.iter().flatten().all(|s| s.up));
    }

    #[test]
    fn long_links_are_distinct_and_filled() {
        let k = SimKernel::networked(cfg(300, 3), 30, None).unwrap();
        let k_target = SimConfig::INTERDOMAIN_K.round() as usize;
        let sp_count = k.domains.len();
        for dom in &k.domains {
            let links = &dom.long_links;
            let mut dedup = links.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), links.len(), "no duplicate links");
            assert!(!links.contains(&dom.sp.unwrap()), "no self-links");
            assert_eq!(
                links.len(),
                k_target.min(sp_count - 1),
                "k links even on small SP sets"
            );
        }
    }

    /// Construction and a rebirth's takeover both sample long links
    /// through `sample_long_links`: after each, every live domain's
    /// links are sorted, distinct, at most `round(k)`, and name only
    /// other live SPs.
    #[test]
    fn reborn_sps_link_only_to_live_sps() {
        let mut c = crate::scenario::with_sp_churn(&cfg(300, 6), 3600.0);
        c.rebirth = true;
        let mut k = SimKernel::networked(c, 30, Some(LookupTarget::Total)).unwrap();
        let k_target = SimConfig::INTERDOMAIN_K.round() as usize;
        let mut t = SimTime::ZERO;
        loop {
            for dom in k.domains.iter().filter(|d| !d.dissolved) {
                let links = &dom.long_links;
                assert!(
                    links.windows(2).all(|w| w[0].0 < w[1].0),
                    "sorted and distinct: {links:?}"
                );
                assert!(!links.contains(&dom.sp.unwrap()), "no self-links");
                assert!(
                    links.iter().all(|l| k.sp_index.contains_key(l)),
                    "every link names a live SP: {links:?}"
                );
                assert!(links.len() <= k_target);
            }
            if k.rebirths() > 0 {
                break;
            }
            t += SimTime::from_mins(10);
            assert!(t <= c.horizon, "the run must exercise rebirth");
            k.run_until(t);
        }
    }

    #[test]
    fn dynamic_run_produces_outcomes_under_churn() {
        let report = MultiDomainSim::new(cfg(150, 4), 25, LookupTarget::Total)
            .unwrap()
            .run();
        assert!(report.queries > 0, "live origins answered");
        assert!(report.mean_recall > 0.0);
        assert!(report.mean_recall <= 1.0 + 1e-12);
        assert!(
            report.push_messages > 0,
            "drift and leaves push under churn"
        );
    }

    #[test]
    fn probe_reconcile_restores_freshness() {
        let mut k = SimKernel::networked(cfg(120, 5), 20, Some(LookupTarget::Total)).unwrap();
        k.run_until(SimTime::from_hours(2));
        k.reconcile_all();
        assert_eq!(k.mean_stale_fraction(), 0.0);
    }

    #[test]
    fn down_origin_probe_yields_empty_outcome() {
        let mut k = SimKernel::networked(cfg(150, 7), 25, Some(LookupTarget::Total)).unwrap();
        k.run_until(SimTime::from_hours(2));
        let live = k.live_origins();
        let down = k
            .topo
            .as_ref()
            .unwrap()
            .assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .find(|p| !live.contains(p));
        let down = down.expect("two hours of churn took someone down");
        let out = k.route_live(down, 0, LookupTarget::Total);
        assert_eq!(out.messages, 0, "nobody is there to ask");
        assert!(!out.satisfied);
    }

    #[test]
    fn latency_mode_records_positive_offsets_per_lookup() {
        let mut c = cfg(120, 8);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let mut k = SimKernel::networked(c, 20, Some(LookupTarget::Total)).unwrap();
        k.run_to_horizon();
        assert_eq!(k.error_status(), (0, None), "healthy run swallows nothing");
        assert!(!k.inter_outcomes.is_empty(), "lookups completed");
        for (_, out) in &k.inter_outcomes {
            assert!(
                out.time_to_answer_s > 0.0,
                "every lookup takes virtual time: {out:?}"
            );
        }
        assert!(k.peak_in_flight() > 0);
        assert!(
            k.in_flight() <= k.peak_in_flight(),
            "deliveries dropped at the horizon stay bounded by the peak"
        );
    }

    #[test]
    fn latency_mode_ring_conversations_reconcile() {
        let mut c = cfg(24, 9);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let mut k = SimKernel::single_domain(c).unwrap();
        k.run_to_horizon();
        assert!(k.domains[0].reconciliations > 0, "token rings completed");
        let report = k.single_report();
        assert_eq!(report.queries, 30, "all workload queries processed");
    }

    /// The queue holds thousands of pending events in both delivery
    /// modes; a variant that grows the event grows every one of them.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn kernel_events_stay_small() {
        assert!(std::mem::size_of::<KernelEvent>() <= 40);
    }

    #[test]
    fn healthy_runs_report_no_domain_errors() {
        let instant = MultiDomainSim::new(cfg(100, 12), 20, LookupTarget::Total)
            .unwrap()
            .run();
        assert_eq!(instant.domain_errors, 0);
        let mut c = cfg(100, 12);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let latency = MultiDomainSim::new(c, 20, LookupTarget::Total)
            .unwrap()
            .run();
        assert_eq!(latency.domain_errors, 0);
        let single = crate::domain::DomainSim::new(cfg(24, 12)).unwrap().run();
        assert_eq!(single.domain_errors, 0);
    }

    /// A cached answer list whose peers sit at different distances from
    /// the originator leaves as one event per run of equal arrival
    /// time, with every answer still counted, and a partial lookup met
    /// in the middle of a run completes there: the answers after it
    /// change neither its outcome nor the originator's cache.
    #[test]
    fn hit_runs_split_by_arrival_and_finish_mid_run() {
        let mut c = cfg(120, 11);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let mut k = SimKernel::networked(c, 20, None).unwrap();
        let partners = |k: &SimKernel, t: usize| -> Vec<NodeId> {
            let mut m = k.true_matches(t);
            m.retain(|p| !k.sp_index.contains_key(p));
            m
        };
        let template = (0..k.template_count())
            .find(|&t| partners(&k, t).len() >= 7)
            .expect("a template with seven matching partners");
        let m = partners(&k, template);
        let (origin, near, far) = (m[0], m[1], &m[2..7]);
        // A hand-built physical network: isolated peers, except for one
        // 7 ms link between the originator and `near`. Every other
        // answer takes the 50 ms default hop.
        let mut g = Graph::empty(k.cfg.n_peers);
        g.add_edge(origin, near, SimTime::from_millis(7));
        k.net = Some(Network::new(g));
        let hit = Message::QueryHit { results: 0 };
        let t_far = hit.transit_time(HOP);
        let t_near = hit.transit_time(SimTime::from_millis(7));
        assert_ne!(t_far, t_near);

        let list: Rc<[NodeId]> = [far[0], far[1], far[2], near, far[3], far[4]].into();
        let conv = 99;
        let mut lc = LookupConversation::new(origin, template, 2, SimTime::ZERO, 7);
        k.send_hits(&mut lc, conv, &list, false, |_, _| SimTime::ZERO);
        k.lookups.insert(conv, lc);
        assert_eq!(k.in_flight(), 6);
        let mut events = 0;
        while let Some((_, ev)) = k.sim.next_event() {
            assert!(matches!(ev, KernelEvent::Hits(_)), "{ev:?}");
            events += 1;
            k.handle(ev);
        }
        assert_eq!(events, 3, "far ×3, near, far ×2: three runs");

        // Per-message accounting: six answers, whatever the runs.
        assert_eq!(k.ledger.sent(MessageClass::QueryResponse), 6);
        assert_eq!(
            k.ledger
                .latency_counters()
                .get(&MessageClass::QueryResponse),
            Some(&(6, 5 * t_far.0 + t_near.0))
        );
        assert_eq!(k.peak_in_flight(), 6);
        assert_eq!(k.in_flight(), 0);

        // `near` arrives first; `far[0]`, first of the next run, meets
        // the target and ends the lookup; `far[1]`, `far[2]` and the
        // last run find no conversation.
        assert!(k.lookups.is_empty(), "the completed lookup is dropped");
        assert_eq!(k.inter_outcomes.len(), 1);
        let out = &k.inter_outcomes[0].1;
        assert_eq!(out.results, 2);
        assert_eq!(out.messages, 6);
        assert!(out.satisfied);
        assert_eq!(out.time_to_answer_s, t_far.as_secs_f64());
        // The originator's cache holds the set as of the answer that met
        // the target: `far[1]` and `far[2]` match too, but came after.
        let mut want = [near, far[0]];
        want.sort_unstable();
        let cached = k.caches[origin.index()].peek(template).unwrap();
        assert_eq!(&*cached.answering, &want[..]);
    }

    /// A lookup's conversation is dropped when it completes, whether
    /// its target was met, its branches drained or its watchdog fired:
    /// once the run is past a lookup's watchdog the lookup is gone.
    #[test]
    fn completed_lookups_are_dropped() {
        for target in [LookupTarget::Total, LookupTarget::Partial(3)] {
            let mut c = cfg(120, 5);
            c.delivery = DeliveryMode::Latency { default_hop: HOP };
            let mut k = SimKernel::networked(c, 20, Some(target)).unwrap();
            for hours in 1..=4 {
                let now = SimTime::from_hours(hours);
                k.run_until(now);
                for lc in k.lookups.values() {
                    assert!(
                        lc.started + CONVERSATION_TIMEOUT >= now,
                        "{target:?}: a lookup outlived its watchdog"
                    );
                }
            }
            assert!(k.inter_outcomes.len() > 10, "{target:?}: lookups completed");
        }

        // A query that reaches a departed SP kills the lookup's only
        // branch: the lookup completes as its delivery settles, and is
        // dropped there; its watchdog then finds nothing.
        let mut c = cfg(120, 5);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let mut k = SimKernel::networked(c, 20, None).unwrap();
        let origin = k.live_origins()[0];
        let sp = k.sp_node(k.domain_of[origin.index()].expect("a partner"));
        k.net.as_mut().expect("networked").take_down(sp);
        k.start_lookup(origin, 0);
        let mut handled = 0;
        while let Some((_, ev)) = k.sim.next_event() {
            handled += 1;
            k.handle(ev);
            assert!(k.lookups.is_empty(), "completed at the dead SP");
            assert_eq!(k.inter_outcomes.len(), 1);
        }
        assert_eq!(handled, 2, "the query and the watchdog");

        // A watchdog that fires while the query is still in flight
        // completes and drops the lookup; the late query only drains.
        k.net.as_mut().expect("networked").bring_up(sp);
        let conv = k.next_conv;
        k.start_lookup(origin, 0);
        k.handle(KernelEvent::Watchdog { conv });
        assert!(k.lookups.is_empty(), "dropped by its watchdog");
        assert_eq!(k.inter_outcomes.len(), 2);
        while let Some((_, ev)) = k.sim.next_event() {
            k.handle(ev);
        }
        assert_eq!(k.inter_outcomes.len(), 2, "late deliveries record nothing");
        assert_eq!(k.in_flight(), 0);
    }

    /// `send_hits` memoizes each answer's hop to the originator per
    /// lookup. Re-homing the originator forgets its broadcast-tree
    /// distance to its SP, which changes the SP's hop to it: the
    /// topology epoch must invalidate the memo.
    #[test]
    fn hop_memo_follows_topology_changes() {
        let mut c = cfg(120, 11);
        c.delivery = DeliveryMode::Latency { default_hop: HOP };
        let mut k = SimKernel::networked(c, 20, None).unwrap();
        let (origin, sp) = k
            .live_origins()
            .into_iter()
            .find_map(|p| {
                let sp = k.topo.as_ref()?.assignment[p.index()]?;
                let tree = k.topo.as_ref()?.join_time(p)?;
                let linked = k.net.as_ref()?.latency(p, sp).is_some();
                (!linked && tree != HOP).then_some((p, sp))
            })
            .expect("a partner reached over the broadcast tree");
        let list: Rc<[NodeId]> = [sp].into();
        let mut lc = LookupConversation::new(origin, 0, usize::MAX, SimTime::ZERO, 1);
        k.send_hits(&mut lc, 1, &list, false, |_, _| SimTime::ZERO);
        let before = lc.hop_to_origin[sp.index()];
        assert_eq!(before, k.hop_latency(sp, origin));
        k.rehome_orphan(origin).expect("a surviving domain");
        k.send_hits(&mut lc, 1, &list, false, |_, _| SimTime::ZERO);
        let after = lc.hop_to_origin[sp.index()];
        assert_eq!(after, k.hop_latency(sp, origin));
        assert_ne!(after, before, "the re-homing changed the hop");
    }

    /// Drifts send one `v = 1` push each; with α = 0.3 over ten
    /// partners two stale entries wait, and the third arms a ring that
    /// runs whole within the event and visits exactly the three. A
    /// graceful leave then takes its peer down and sends one `v = 2`
    /// push, which flags the entry without arming a pull below α.
    #[test]
    fn alpha_threshold_gates_the_instant_ring() {
        let mut k = SimKernel::single_domain(cfg(10, 13)).unwrap();
        for p in [0, 1] {
            k.handle(KernelEvent::Drift(NodeId(p)));
        }
        assert_eq!(k.ledger.sent(MessageClass::Push), 2);
        assert_eq!(k.domains[0].reconciliations, 0);
        k.handle(KernelEvent::Drift(NodeId(2)));
        assert_eq!(k.domains[0].reconciliations, 1);
        let cl = &k.domains[0].cl;
        assert_eq!(cl.stale_fraction(), 0.0, "reset after the pull");
        let work = k.ledger.reconcile_work();
        assert_eq!((work.merged, work.skipped), (3, 7));
        let hops = k.ledger.sent(MessageClass::Reconciliation);
        assert_eq!(hops, 4, "3 hops + store");
        assert!(k.rings.is_empty() && k.ring_of_domain[0].is_none());

        k.handle(KernelEvent::Session(SessionEvent::Leave(NodeId(3))));
        assert_eq!(k.ledger.sent(MessageClass::Push), 4);
        assert!(!k.peers[3].as_ref().unwrap().up);
        let flag = k.domains[0].cl.freshness(NodeId(3));
        assert_eq!(flag, Some(Freshness::Unavailable));
        assert_eq!(k.domains[0].reconciliations, 1);
    }

    /// Zero-transit delivery never touches the latency plane's tallies:
    /// runs that pull (and, with SP churn, hand reborn domains over)
    /// end with nothing in flight, no peak and no delivery latencies.
    #[test]
    fn instant_runs_leave_the_latency_tallies_empty() {
        let mut rebirth = crate::scenario::with_sp_churn(&cfg(120, 8), 3600.0);
        rebirth.rebirth = true;
        let kernels = [
            SimKernel::networked(cfg(120, 8), 20, Some(LookupTarget::Total)).unwrap(),
            SimKernel::networked(rebirth, 20, Some(LookupTarget::Total)).unwrap(),
            SimKernel::single_domain(cfg(40, 8)).unwrap(),
        ];
        for mut k in kernels {
            k.run_to_horizon();
            let pulls: u64 = k.domains.iter().map(|d| d.reconciliations).sum();
            assert!(pulls > 0, "the run must pull");
            assert_eq!(k.in_flight(), 0);
            assert_eq!(k.peak_in_flight(), 0);
            assert!(k.ledger.latency_counters().is_empty());
            assert!(k.rings.is_empty() && k.rebirth_convs.is_empty());
        }
    }

    /// §4.3's departure traffic is charged in one place, the ledger:
    /// one `release` (`Control`) per partner when the SP leaves
    /// gracefully, one timed-out `Push` per partner when it fails, and
    /// none of the other.
    #[test]
    fn sp_departure_charges_release_or_probes() {
        for graceful in [true, false] {
            let mut k = SimKernel::networked(cfg(200, 4), 30, None).unwrap();
            k.cfg.failure_fraction = if graceful { 0.0 } else { 1.0 };
            let sp = k.domains[0].sp.unwrap();
            let partners = k.domains[0].cl.len() as u64;
            assert!(partners > 0);
            k.handle(KernelEvent::SpDeparture { sp });
            assert!(k.domains[0].dissolved);
            let release = k.ledger.sent(MessageClass::Control);
            let probes = k.ledger.sent(MessageClass::Push);
            let want = if graceful {
                (partners, 0)
            } else {
                (0, partners)
            };
            assert_eq!((release, probes), want, "graceful {graceful}");
        }
    }

    /// A fresh summary pool for `cfg`'s workload, with a summary worker
    /// or without one whatever the host.
    fn test_pool(cfg: &SimConfig, worker: bool) -> SummaryPool {
        let generator = PeerGenerator::new(
            &BackgroundKnowledge::medical_cbk(),
            &make_templates(cfg.template_count),
        )
        .unwrap();
        SummaryPool::with_worker(generator, worker)
    }

    /// A summary built on the worker and one built on the event loop
    /// are the same bytes, installed before the same reads: churn-heavy
    /// runs (doubled churn, SP churn with rebirth, and the single-domain
    /// workload) report the same with a summary worker and without one,
    /// in both delivery modes.
    #[test]
    fn worker_and_inline_summaries_agree() {
        let mut churny = crate::scenario::with_sp_churn(
            &crate::scenario::scale_churn(&cfg(120, 9), 2.0),
            3600.0,
        );
        churny.rebirth = true;
        let mut single = crate::scenario::scale_churn(&cfg(40, 9), 2.0);
        single.alpha = 0.1;
        for latency in [false, true] {
            let mode = |mut c: SimConfig| {
                if latency {
                    c.delivery = DeliveryMode::Latency { default_hop: HOP };
                }
                c
            };
            let (churny, single) = (mode(churny), mode(single));
            let report = |worker: bool, networked: bool| {
                let mut k = if networked {
                    SimKernel::networked(churny, 20, Some(LookupTarget::Total)).unwrap()
                } else {
                    SimKernel::single_domain(single).unwrap()
                };
                k.pool = test_pool(&k.cfg, worker);
                k.run_to_horizon();
                assert_eq!(k.error_status(), (0, None));
                let pulls: u64 = k.domains.iter().map(|d| d.reconciliations).sum();
                assert!(pulls > 0, "the run must pull");
                // `Debug` prints every float in its shortest round-trip
                // form, so equal strings mean equal bits.
                if networked {
                    assert!(k.rebirths() > 0, "the run must hand a domain over");
                    format!("{:?}", k.multi_report())
                } else {
                    format!("{:?}", k.single_report())
                }
            };
            for networked in [true, false] {
                assert_eq!(
                    report(true, networked),
                    report(false, networked),
                    "latency {latency}, networked {networked}"
                );
            }
        }
    }

    /// A member that drifts after the token passed it, to a summary
    /// whose bytes equal its snapshot, is clean once the ring completes:
    /// the completion installs the gathered members' outstanding
    /// summaries before comparing them with their snapshots, instead of
    /// comparing the blank placeholder. The summary is outstanding with
    /// a worker and without one.
    #[test]
    fn ring_completion_installs_the_gathered_summaries() {
        for worker in [false, true] {
            let mut k = SimKernel::networked(cfg(60, 3), 20, None).unwrap();
            k.pool = test_pool(&k.cfg, worker);
            let p = k.domains[0].cl.partners().next().expect("a member");
            let before = k.sim.rng().clone();
            k.redraw(p);
            k.settle(p);
            let snap = SummarySnapshot::of(p, k.peers[p.index()].as_ref().unwrap());
            // The same draw again: the same summary, still outstanding.
            *k.sim.rng() = before;
            k.redraw(p);
            assert!(k.pool.is_pending(p.0), "worker {worker}");
            let conv = k.next_conv;
            k.next_conv += 1;
            let mut rc = RingConversation::new(0, Vec::new());
            rc.gathered.push(snap.clone());
            k.rings.insert(conv, rc);
            k.ring_of_domain[0] = Some(conv);
            k.finish_ring(conv);
            assert_eq!(k.error_status(), (0, None));
            let st = k.peers[p.index()].as_ref().unwrap();
            assert_eq!(
                st.data.summary, snap.summary,
                "installed at completion, worker {worker}"
            );
            assert!(
                !st.dirty,
                "a redraw equal to its snapshot is merged, worker {worker}"
            );
        }
    }

    #[test]
    fn deterministic_dynamic_runs() {
        let a = MultiDomainSim::new(cfg(100, 6), 20, LookupTarget::Partial(5))
            .unwrap()
            .run();
        let b = MultiDomainSim::new(cfg(100, 6), 20, LookupTarget::Partial(5))
            .unwrap()
            .run();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.push_messages, b.push_messages);
        assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    }
}
