//! The shared per-peer / per-domain state machine (§4.2–§4.3), extracted
//! from the old single-domain simulator so that one event loop can drive
//! any number of domains.
//!
//! * [`PeerState`] — one partner peer: liveness, generated database
//!   artifacts, and the bookkeeping the maintenance protocols need;
//! * [`MessageLedger`] — message/byte accounting per [`MessageClass`],
//!   the paper's §6.1 cost unit and a run's only message counter, plus
//!   the reconciliation merge-work counters ([`ReconcileWork`]);
//! * [`DomainCore`] — one domain's summary peer state: the global
//!   summary (GS), the cooperation list (CL) and what each maintenance
//!   message does on arrival ([`DomainCore::apply_push`],
//!   [`DomainCore::apply_localsum`], `DomainCore::apply_snapshots`);
//!   sending, α gating and the token ring live in the kernel.
//!   [`crate::domain::DomainSim`] drives exactly one `DomainCore`; the
//!   unified kernel ([`crate::kernel`]) drives many, interleaved in a
//!   single virtual clock.
//!
//! ## Incremental GS maintenance
//!
//! The GS is **not** rebuilt from every member on every pull. Each
//! domain owns a [`saintetiq::delta::GsAccumulator`] holding one entry
//! per contributing member — the flattened leaves of the summary that
//! member last shipped. A reconciliation round (§4.2.2's pull, one
//! token ring) then only
//!
//! 1. folds in the *stale subset*: the ring visits the live CL entries
//!    flagged `NeedsRefresh` / `Unavailable`, and each gathered
//!    snapshot's flat form — the summary its peer flattened once when it
//!    built it ([`PeerData::flat`]) — replaces the member's entry via
//!    `update_source_flat`, shared rather than decoded (O(|stale|) merge
//!    work — the paper's §6.1 cost unit scales with what changed);
//! 2. expires departed members via `remove_source` (O(1) each);
//! 3. marks the stored GS stale. The canonical merged view
//!    ([`GsAccumulator::build_merged`]) and its size
//!    ([`wire::encoded_size`], computed from the tree without encoding
//!    it) are built by [`DomainCore::materialize`], only when an outside
//!    caller can observe them: on return from
//!    [`DomainCore::enroll_all`], [`DomainCore::reconcile`],
//!    [`DomainCore::reconcile_from_snapshots`] and [`DomainCore::revive`],
//!    and when the kernel hands control back
//!    ([`crate::kernel::SimKernel::run_until`] and
//!    [`crate::kernel::SimKernel::run_to_horizon`]). The kernel's own
//!    pulls (ring completions, `DomainCore::apply_snapshots`) never
//!    build: queries route on the accumulator's cell extents
//!    ([`GsAccumulator::relevant_sources`], equal to selection over the
//!    built tree). A build is Θ(|GS|) — the GS's per-source cell entries
//!    make |GS| itself linear in total contributions — about 4 ms at
//!    1000 members, so a run now pays it per observation, not per pull.
//!
//! Fresh live members are *skipped*: their stored contribution is, by
//! the push-protocol invariant, identical to their current local
//! summary (drift always flags before the next pull can run). The
//! retained escape hatch [`DomainCore::full_rebuild_oracle`] rebuilds
//! from scratch over every live member's decoded wire bytes; because the
//! accumulator's merged view is canonical in the contribution set, the
//! oracle and the incrementally maintained GS agree **byte-for-byte** —
//! asserted by the `gs_incremental` property tests and the debug paths.
//!
//! A second behavioral refinement rides along: a *partial* pull (a
//! latency-plane ring whose token was dropped mid-ring) keeps the
//! still-live members the token missed in the GS with their previous
//! descriptions, instead of dropping them until a follow-up ring — the
//! paper's descriptions persist until refreshed or expired (§4.3),
//! only departed members' data is removed.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use p2psim::network::NodeId;
use p2psim::time::SimTime;
use saintetiq::cell::SourceId;
use saintetiq::delta::{GsAccumulator, SourceDelta};
use saintetiq::hierarchy::SummaryTree;
use saintetiq::query::proposition::Proposition;
use saintetiq::wire;

use crate::coop::CooperationList;
use crate::error::P2pError;
use crate::freshness::Freshness;
use crate::messages::{Message, MessageClass};
use crate::routing::{route_query_scoped, QueryOutcome, RingConversation, RoutingPolicy};
use crate::workload::PeerData;

/// The CBK name every generated summary binds to.
pub const CBK_NAME: &str = "medical-cbk-v1";

/// The label-count shape of the medical CBK's summary grid.
pub const CBK_SHAPE: [usize; 4] = [3, 3, 3, 12];

/// An empty GS over the medical CBK.
pub fn empty_gs() -> SummaryTree {
    SummaryTree::new(CBK_NAME, CBK_SHAPE.to_vec())
}

/// An empty accumulator over the medical CBK.
pub fn empty_accumulator() -> GsAccumulator {
    GsAccumulator::new(CBK_NAME, CBK_SHAPE.to_vec())
}

/// One partner peer's simulation state.
#[derive(Debug, Clone)]
pub struct PeerState {
    /// Currently connected.
    pub up: bool,
    /// The peer's generated database artifacts (summary, match bits).
    pub data: PeerData,
    /// Match bits as of the last time this peer's summary was merged
    /// into its domain's GS (`0` when absent from the GS).
    pub merged_bits: u32,
    /// True while a drift event is in flight for this peer — prevents
    /// rejoin cycles from stacking duplicate drift streams.
    pub drift_scheduled: bool,
    /// True when the local summary was regenerated (drift) since its
    /// contribution was last merged into a domain accumulator. The
    /// push protocol normally mirrors this in the CL flag, but a push
    /// can be lost when its domain dissolves mid-flight (§4.3) or the
    /// peer drifts while orphaned; SP rebirth consults this bit when
    /// seeding a reborn domain so such members are re-flagged stale
    /// instead of silently serving outdated descriptions.
    pub dirty: bool,
}

impl PeerState {
    /// A freshly generated, connected peer with a drift event pending.
    pub fn new(data: PeerData) -> Self {
        Self {
            up: true,
            merged_bits: data.match_bits,
            data,
            drift_scheduled: true,
            dirty: false,
        }
    }
}

/// Merge work done by GS maintenance rounds: how many member summaries
/// were actually folded into the accumulator (`merged`), how many live
/// members were skipped because their stored contribution was still
/// fresh (`skipped`), how many departed contributions were expired
/// (`removed`), and the delta payload bytes pulled (`delta_bytes`).
///
/// `merged` scaling with the stale subset — not total membership — is
/// the entire point of the incremental accumulator; `BENCH_reconcile`
/// tracks it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileWork {
    /// Member summaries folded into the accumulator.
    pub merged: u64,
    /// Live members skipped (contribution reused unchanged).
    pub skipped: u64,
    /// Departed contributions expired from the accumulator.
    pub removed: u64,
    /// Encoded bytes of the summaries actually pulled.
    pub delta_bytes: u64,
}

impl ReconcileWork {
    /// Folds another round's work into this tally.
    pub fn absorb(&mut self, other: ReconcileWork) {
        self.merged += other.merged;
        self.skipped += other.skipped;
        self.removed += other.removed;
        self.delta_bytes += other.delta_bytes;
    }
}

/// Message and wire-byte accounting per class, plus — in latency mode —
/// per-class delivery-latency distributions (count + total virtual time
/// between send and delivery), plus the reconciliation merge-work
/// counters.
#[derive(Debug, Clone, Default)]
pub struct MessageLedger {
    counters: BTreeMap<MessageClass, u64>,
    byte_counters: BTreeMap<MessageClass, u64>,
    latency_counters: BTreeMap<MessageClass, (u64, u64)>,
    reconcile_work: ReconcileWork,
}

impl MessageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `n` copies of `msg`: one message and its wire bytes each.
    pub fn count(&mut self, msg: &Message, n: u64) {
        let class = msg.class();
        *self.counters.entry(class).or_insert(0) += n;
        *self.byte_counters.entry(class).or_insert(0) += n * msg.wire_bytes() as u64;
    }

    /// Message counts per class.
    pub fn counters(&self) -> &BTreeMap<MessageClass, u64> {
        &self.counters
    }

    /// Wire bytes per class.
    pub fn byte_counters(&self) -> &BTreeMap<MessageClass, u64> {
        &self.byte_counters
    }

    /// Messages sent in one class.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.counters.get(&class).copied().unwrap_or(0)
    }

    /// Records `n` latency-mode deliveries of one class that each spent
    /// `latency` virtual time in flight.
    pub fn count_deliveries(&mut self, class: MessageClass, latency: SimTime, n: u64) {
        let slot = self.latency_counters.entry(class).or_insert((0, 0));
        slot.0 += n;
        slot.1 += n * latency.0;
    }

    /// Per-class `(deliveries, total in-flight µs)` — the raw latency
    /// distribution data.
    pub fn latency_counters(&self) -> &BTreeMap<MessageClass, (u64, u64)> {
        &self.latency_counters
    }

    /// Mean in-flight seconds of one class (0.0 when nothing of that
    /// class was delivered — instantaneous mode, or the class is unused).
    pub fn mean_latency_s(&self, class: MessageClass) -> f64 {
        match self.latency_counters.get(&class) {
            Some(&(n, total_us)) if n > 0 => total_us as f64 / n as f64 / 1_000_000.0,
            _ => 0.0,
        }
    }

    /// Folds one reconciliation round's merge work into the tally.
    pub fn count_reconcile_work(&mut self, work: ReconcileWork) {
        self.reconcile_work.absorb(work);
    }

    /// Accumulated reconciliation merge work over the run.
    pub fn reconcile_work(&self) -> ReconcileWork {
        self.reconcile_work
    }
}

/// One member's summary snapshot as carried by a reconciliation token:
/// the member's local summary and match bits *at the virtual time the
/// token passed through it*. If the member drifts or departs after its
/// token hop, the stored GS keeps describing this snapshot — exactly
/// the staleness window instantaneous delivery hides.
#[derive(Debug, Clone)]
pub struct SummarySnapshot {
    /// The member the token visited.
    pub peer: NodeId,
    /// Its encoded local summary at token-pass time (shared with the
    /// peer's own copy, not duplicated).
    pub summary: Bytes,
    /// The same summary's flat form, shared with the peer's
    /// ([`PeerData::flat`]); what the SP folds in.
    pub flat: Rc<SourceDelta>,
    /// Its exact match bits at token-pass time.
    pub match_bits: u32,
}

impl SummarySnapshot {
    /// `peer`'s summary and match bits as they are now.
    pub fn of(peer: NodeId, st: &PeerState) -> Self {
        Self {
            peer,
            summary: st.data.summary.clone(),
            flat: Rc::clone(&st.data.flat),
            match_bits: st.data.match_bits,
        }
    }
}

/// Immutable peer lookup that maps a missing slot to [`P2pError`].
fn peer_ref(peers: &[Option<PeerState>], m: NodeId) -> Result<&PeerState, P2pError> {
    peers
        .get(m.index())
        .and_then(|s| s.as_ref())
        .ok_or(P2pError::UnknownPeer(m.0))
}

/// True when the peer exists and is connected.
fn peer_up(peers: &[Option<PeerState>], m: NodeId) -> bool {
    peers
        .get(m.index())
        .and_then(|s| s.as_ref())
        .is_some_and(|p| p.up)
}

/// One domain's summary-peer state: GS, CL and the §4.2–§4.3 protocol
/// transitions.
#[derive(Debug, Clone)]
pub struct DomainCore {
    /// The summary peer hosting this domain (`None` for the standalone
    /// single-domain simulation, whose SP is implicit).
    pub sp: Option<NodeId>,
    /// The cooperation list: one entry per partner peer (network-global
    /// ids), and so the domain's one member set (§4.1).
    pub cl: CooperationList,
    /// The merged view of [`DomainCore::acc`], built canonically by
    /// [`DomainCore::materialize`]. Current on return from
    /// [`DomainCore::enroll_all`], [`DomainCore::reconcile`],
    /// [`DomainCore::reconcile_from_snapshots`], [`DomainCore::revive`]
    /// and `materialize`; queries route on the accumulator directly.
    pub gs: SummaryTree,
    /// The per-member accumulator behind the GS: one entry per
    /// contributing member, updated/removed incrementally.
    pub acc: GsAccumulator,
    /// Reconciliation rounds completed.
    pub reconciliations: u64,
    /// Cumulative delta payload bytes this domain's pulls have shipped
    /// — the per-domain reconciliation cost signal the control plane
    /// ([`crate::control`]) differences per epoch.
    pub delta_bytes_total: u64,
    /// Encoded size of [`DomainCore::gs`], kept with it.
    pub gs_bytes_last: usize,
    /// Long-range links to other summary peers (§5.2.2's `k`-degree
    /// inter-domain shortcuts; empty in the single-domain simulation).
    pub long_links: Vec<NodeId>,
    /// True after the SP departed (§4.3): the domain no longer answers
    /// queries, forwards tokens or accepts pushes; its former members
    /// re-home to surviving domains.
    pub dissolved: bool,
    /// True when a round ran on [`DomainCore::acc`] since `gs` was built.
    gs_stale: bool,
}

impl DomainCore {
    /// A domain over the given members, each entered in the CL as
    /// fresh; nothing is summarized until [`DomainCore::enroll_all`].
    pub fn new(sp: Option<NodeId>, members: Vec<NodeId>) -> Self {
        let mut cl = CooperationList::new();
        for m in members {
            cl.add_partner(m, Freshness::Fresh);
        }
        Self {
            sp,
            cl,
            gs: empty_gs(),
            acc: empty_accumulator(),
            reconciliations: 0,
            delta_bytes_total: 0,
            gs_bytes_last: 0,
            long_links: Vec::new(),
            dissolved: false,
            gs_stale: false,
        }
    }

    /// Tears the domain down after its SP departed: CL (the members),
    /// GS, accumulator and long links are cleared; the slot stays in
    /// place so domain indices held by in-flight conversations remain
    /// valid (their deliveries no-op against a dissolved domain).
    pub fn dissolve(&mut self) {
        self.dissolved = true;
        self.cl = CooperationList::new();
        self.acc.clear();
        self.gs = empty_gs();
        self.gs_bytes_last = 0;
        self.gs_stale = false;
        self.long_links.clear();
    }

    /// Re-activates a dissolved domain slot under a freshly elected
    /// summary peer (§4.3 rebirth). `seeded` is the reborn membership
    /// with per-member seed freshness — `Fresh` when the member's
    /// retained description is known current (the push-protocol
    /// invariant held across the hand-over), stale otherwise — and
    /// `acc` is the accumulator retained from the dissolved domain.
    /// Contributions of peers outside the reborn membership (the
    /// promoted SP itself, members that departed during the orphan
    /// window) are expired, and the first GS is stored straight from
    /// the surviving contributions: a delta hand-over, not a
    /// from-scratch rebuild — the next α-gated pull visits only the
    /// stale-seeded subset.
    pub fn revive(&mut self, sp: NodeId, seeded: Vec<(NodeId, Freshness)>, acc: GsAccumulator) {
        self.dissolved = false;
        self.sp = Some(sp);
        self.acc = acc;
        self.cl = CooperationList::new();
        for (m, f) in seeded {
            self.cl.add_partner(m, f);
        }
        let cl = &self.cl;
        let drop: Vec<SourceId> = self
            .acc
            .sources()
            .filter(|s| !cl.contains(NodeId(s.0)))
            .collect();
        for s in drop {
            self.acc.remove_source(s);
        }
        self.long_links.clear();
        self.gs_stale = true;
        self.materialize();
    }

    /// Builds the accumulator's canonical merged view into `gs` and its
    /// encoded size into `gs_bytes_last`, unless they are current.
    pub fn materialize(&mut self) {
        if self.gs_stale {
            self.acc.build_merged_into(&mut self.gs);
            // The stored GS stays resident until the next observation:
            // it keeps no spare capacity from its build.
            self.gs.shrink_to_fit();
            self.gs_bytes_last = wire::encoded_size(&self.gs);
            self.gs_stale = false;
        }
    }

    /// Stores `m`'s current local summary, in its shared flat form, in
    /// the accumulator and refreshes its merged bits. Returns the pulled
    /// payload size.
    fn pull_member(
        &mut self,
        m: NodeId,
        peers: &mut [Option<PeerState>],
    ) -> Result<usize, P2pError> {
        let st = peers
            .get_mut(m.index())
            .and_then(|s| s.as_mut())
            .ok_or(P2pError::UnknownPeer(m.0))?;
        let bytes = self.acc.update_source_flat(SourceId(m.0), &st.data.flat)?;
        st.merged_bits = st.data.match_bits;
        st.dirty = false;
        Ok(bytes)
    }

    /// Expires `m`'s contribution (departed member). Returns whether it
    /// was contributing.
    fn expire_member(&mut self, m: NodeId, peers: &mut [Option<PeerState>]) -> bool {
        if let Some(st) = peers.get_mut(m.index()).and_then(|s| s.as_mut()) {
            st.merged_bits = 0;
        }
        self.acc.remove_source(SourceId(m.0))
    }

    /// Initial construction (§4.1): every member ships its `localsum`
    /// (each entered the CL fresh in [`DomainCore::new`]), and every live
    /// member's summary is pulled into the accumulator.
    pub fn enroll_all(
        &mut self,
        peers: &mut [Option<PeerState>],
        ledger: &mut MessageLedger,
    ) -> Result<(), P2pError> {
        self.gs_stale = true;
        for m in self.cl.partners().collect::<Vec<_>>() {
            let bytes = peer_ref(peers, m)?.data.summary.len();
            ledger.count(&Message::LocalSum { bytes }, 1);
            if peer_up(peers, m) {
                self.pull_member(m, peers)?;
            }
        }
        self.materialize();
        Ok(())
    }

    /// Debug / verification oracle: the GS rebuilt from scratch over
    /// every live member's *current* local summary — what a full §4.2.2
    /// pull over the whole membership would store. The incremental path
    /// must agree with this byte-for-byte after every completed round
    /// (asserted by the `gs_incremental` property tests). It decodes each
    /// member's wire bytes rather than sharing its flat form, so it checks
    /// the flattening too.
    pub fn full_rebuild_oracle(
        &self,
        peers: &[Option<PeerState>],
    ) -> Result<SummaryTree, P2pError> {
        let mut acc = empty_accumulator();
        for m in self.cl.partners() {
            if let Some(st) = peers.get(m.index()).and_then(|s| s.as_ref()) {
                if st.up {
                    acc.update_source_encoded(SourceId(m.0), &st.data.summary)?;
                }
            }
        }
        Ok(acc.build_merged())
    }

    /// One whole reconciliation ring at once (§4.2.2's pull), then the
    /// merged view stored — what the kernel's ring conversation does
    /// with zero transit: the token visits the stale live members
    /// (`RingConversation::stale_route`), each hop charged at the
    /// token's cumulative size (`RingConversation::token_bytes` —
    /// `NewGS` grows as it collects summaries, so the final store hop
    /// carries everything), and the gathered snapshots are folded in by
    /// `DomainCore::apply_snapshots`. A ring with no stale live member
    /// circulates no token: the SP just expires departed members.
    pub fn reconcile(
        &mut self,
        peers: &mut [Option<PeerState>],
        ledger: &mut MessageLedger,
    ) -> Result<ReconcileWork, P2pError> {
        let mut gathered = Vec::new();
        for m in RingConversation::stale_route(&self.cl, |m| peer_up(peers, m)) {
            let bytes = RingConversation::token_bytes(&gathered);
            ledger.count(&Message::ReconciliationToken { bytes }, 1);
            gathered.push(SummarySnapshot::of(m, peer_ref(peers, m)?));
        }
        if !gathered.is_empty() {
            let bytes = RingConversation::token_bytes(&gathered);
            ledger.count(&Message::ReconciliationToken { bytes }, 1);
        }
        self.reconcile_from_snapshots(&gathered, peers, ledger)
    }

    /// A freshness push (§4.2.1's `v = 1` on drift, §4.3's `v = 2` on a
    /// graceful leave) arrives at the SP: the CL transition alone. The α
    /// check and the ring *conversation* live in the kernel, which owns
    /// the clock; message accounting happened at send time. A push from
    /// a non-member (e.g. one that was removed while the push was in
    /// flight) is dropped.
    pub fn apply_push(&mut self, peer: NodeId, freshness: Freshness) -> bool {
        if self.dissolved {
            return false;
        }
        self.cl.set_freshness(peer, freshness)
    }

    /// A (re)joining member's `localsum` arrives at the SP (§4.3): the
    /// member enters the CL stale, awaiting the next pull — a new
    /// partner if it was not one (an SP-churn re-home, or a member a
    /// pull dropped while it was away).
    pub fn apply_localsum(&mut self, peer: NodeId) -> bool {
        if self.dissolved {
            return false;
        }
        self.cl.add_partner(peer, Freshness::NeedsRefresh);
        true
    }

    /// Completion of a reconciliation ring, then the merged view stored.
    /// The round itself is `apply_snapshots`: each gathered
    /// snapshot replaces its member's accumulator entry; missed live
    /// members keep their flags and previous descriptions; missed down
    /// members are expired and removed.
    pub fn reconcile_from_snapshots(
        &mut self,
        gathered: &[SummarySnapshot],
        peers: &mut [Option<PeerState>],
        ledger: &mut MessageLedger,
    ) -> Result<ReconcileWork, P2pError> {
        let work = self.apply_snapshots(gathered, peers, ledger)?;
        self.materialize();
        Ok(work)
    }

    /// Completion of a reconciliation ring, without building the GS:
    /// each gathered snapshot replaces its member's accumulator entry,
    /// and `gs` is left stale. Members the token *missed* (on the latency
    /// plane it was dropped at a churned-out peer and the watchdog fired) keep
    /// both their stale flags *and* their previous GS contributions if
    /// they are up — α re-arms a follow-up ring while the old
    /// descriptions keep serving queries; missed members that are down
    /// are expired and removed. Token/message accounting happened per
    /// hop at send time; only the merge work is tallied here.
    pub(crate) fn apply_snapshots(
        &mut self,
        gathered: &[SummarySnapshot],
        peers: &mut [Option<PeerState>],
        ledger: &mut MessageLedger,
    ) -> Result<ReconcileWork, P2pError> {
        self.gs_stale = true;
        let mut work = ReconcileWork::default();
        for snap in gathered {
            self.acc
                .update_source_flat(SourceId(snap.peer.0), &snap.flat)?;
            // §4.2.2: the pulled member's freshness resets to zero.
            self.cl.set_freshness(snap.peer, Freshness::Fresh);
            if let Some(st) = peers.get_mut(snap.peer.index()).and_then(|s| s.as_mut()) {
                st.merged_bits = snap.match_bits;
                // The merged contribution is current again — unless the
                // member drifted after the token passed it, in which
                // case its (re-armed) flag and dirty bit both stand.
                if st.data.summary == snap.summary {
                    st.dirty = false;
                }
            }
            work.merged += 1;
            work.delta_bytes += snap.summary.len() as u64;
        }
        // Unvisited live members keep their flags (partial pull);
        // unvisited down members are expired and drop out of the CL.
        let visited: std::collections::BTreeSet<NodeId> = gathered.iter().map(|s| s.peer).collect();
        let missed: Vec<NodeId> = self
            .cl
            .partners()
            .filter(|m| !visited.contains(m))
            .collect();
        for m in missed {
            if peer_up(peers, m) {
                work.skipped += 1;
                continue;
            }
            if self.expire_member(m, peers) {
                work.removed += 1;
            }
            self.cl.remove_partner(m);
        }
        ledger.count_reconcile_work(work);
        self.delta_bytes_total += work.delta_bytes;
        self.reconciliations += 1;
        Ok(work)
    }

    /// Routes one query against this domain's current accumulator/CL
    /// state and scores it against exact ground truth over the CL's
    /// members. Localization scans the accumulator
    /// ([`GsAccumulator::relevant_sources`]), so it never waits for a
    /// GS build.
    pub fn route_local(
        &self,
        prop: &Proposition,
        policy: RoutingPolicy,
        peers: &[Option<PeerState>],
        template: usize,
    ) -> QueryOutcome {
        let pq = self
            .acc
            .relevant_sources(prop)
            .into_iter()
            .map(|s| NodeId(s.0))
            .collect();
        route_query_scoped(pq, &self.cl, policy, self.cl.partners(), |p| {
            match peers[p.index()].as_ref() {
                Some(st) => (st.up, st.data.matches(template)),
                None => (false, false),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_peer_data, make_templates};
    use fuzzy::bk::BackgroundKnowledge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn domain_with_peers(n: u32) -> (DomainCore, Vec<Option<PeerState>>) {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(2);
        let mut rng = StdRng::seed_from_u64(11);
        let peers: Vec<Option<PeerState>> = (0..n)
            .map(|p| {
                Some(PeerState::new(
                    generate_peer_data(&mut rng, p, &bk, &templates, 0.3, 10)
                        .expect("valid workload"),
                ))
            })
            .collect();
        let core = DomainCore::new(None, (0..n).map(NodeId).collect());
        (core, peers)
    }

    /// Regenerates peer `p`'s data (simulated drift) and flags it.
    fn drift(core: &mut DomainCore, peers: &mut [Option<PeerState>], p: u32, seed: u64) {
        let bk = BackgroundKnowledge::medical_cbk();
        let templates = make_templates(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = generate_peer_data(&mut rng, p, &bk, &templates, 0.3, 10).expect("valid");
        peers[p as usize].as_mut().unwrap().data = data;
        core.cl.set_freshness(NodeId(p), Freshness::NeedsRefresh);
    }

    #[test]
    fn enroll_builds_gs_and_cl() {
        let (mut core, mut peers) = domain_with_peers(12);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        assert_eq!(core.cl.len(), 12);
        assert_eq!(core.cl.stale_fraction(), 0.0);
        assert_eq!(core.gs.all_sources().len(), 12);
        assert_eq!(core.acc.len(), 12);
        assert_eq!(
            ledger.sent(MessageClass::Construction),
            12,
            "one localsum each"
        );
        core.gs.check_invariants();
    }

    #[test]
    fn leave_then_reconcile_drops_member_from_gs() {
        let (mut core, mut peers) = domain_with_peers(10);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();

        peers[3].as_mut().unwrap().up = false;
        assert!(core.apply_push(NodeId(3), Freshness::Unavailable));
        assert_eq!(
            core.gs.all_sources().len(),
            10,
            "GS untouched before the pull"
        );

        let work = core.reconcile(&mut peers, &mut ledger).unwrap();
        assert_eq!(core.gs.all_sources().len(), 9, "departed peer expired");
        assert!(!core.cl.contains(NodeId(3)));
        assert_eq!(core.cl.stale_fraction(), 0.0);
        assert_eq!(core.reconciliations, 1);
        // Incremental ring: the 9 fresh live members are skipped and the
        // departed member is expired locally — no token circulates.
        assert_eq!(work.merged, 0);
        assert_eq!(work.skipped, 9);
        assert_eq!(work.removed, 1);
        assert_eq!(ledger.sent(MessageClass::Reconciliation), 0);
    }

    #[test]
    fn incremental_reconcile_matches_full_oracle() {
        let (mut core, mut peers) = domain_with_peers(12);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        // Drift three members, crash one, leave one.
        for (p, seed) in [(2u32, 101u64), (5, 102), (9, 103)] {
            drift(&mut core, &mut peers, p, seed);
        }
        peers[7].as_mut().unwrap().up = false; // silent failure
        peers[4].as_mut().unwrap().up = false;
        core.cl.set_freshness(NodeId(4), Freshness::Unavailable);

        let work = core.reconcile(&mut peers, &mut ledger).unwrap();
        assert_eq!(work.merged, 3, "only the stale live members were pulled");
        assert_eq!(work.removed, 2, "crash + leave expired");
        assert_eq!(work.skipped, 7);
        let oracle = core.full_rebuild_oracle(&peers).unwrap();
        assert_eq!(
            wire::encode(&core.gs),
            wire::encode(&oracle),
            "incremental GS must be byte-identical to the from-scratch rebuild"
        );
    }

    #[test]
    fn token_bytes_grow_cumulatively_along_the_ring() {
        let (mut core, mut peers) = domain_with_peers(8);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        for p in 0..8 {
            drift(&mut core, &mut peers, p, 200 + p as u64);
        }
        let before = ledger
            .byte_counters()
            .get(&MessageClass::Reconciliation)
            .copied();
        assert_eq!(before, None);
        let work = core.reconcile(&mut peers, &mut ledger).unwrap();
        assert_eq!(work.merged, 8);
        let token_bytes = ledger
            .byte_counters()
            .get(&MessageClass::Reconciliation)
            .copied()
            .unwrap();
        let hops = ledger.sent(MessageClass::Reconciliation);
        assert_eq!(hops, 9, "8 member hops + the store hop");
        // Cumulative growth: total hop bytes are strictly below charging
        // every hop at the final token size (the old upper bound), but at
        // least the final token once plus headers for the other hops.
        let final_token = work.delta_bytes as usize;
        let upper_bound = hops as usize * (40 + final_token);
        assert!(
            (token_bytes as usize) < upper_bound,
            "cumulative {token_bytes} must undercut the flat bound {upper_bound}"
        );
        assert!(token_bytes as usize >= final_token + hops as usize * 40);
    }

    #[test]
    fn partial_snapshot_reconciliation_keeps_missed_live_members() {
        let (mut core, mut peers) = domain_with_peers(6);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        for p in 0..6 {
            core.cl.set_freshness(NodeId(p), Freshness::NeedsRefresh);
        }
        peers[4].as_mut().unwrap().up = false;
        // The token visited members 0..3 and was dropped before 3..6.
        let gathered: Vec<SummarySnapshot> = (0..3u32)
            .map(|p| SummarySnapshot::of(NodeId(p), peers[p as usize].as_ref().unwrap()))
            .collect();
        core.reconcile_from_snapshots(&gathered, &mut peers, &mut ledger)
            .unwrap();
        assert_eq!(
            core.gs.all_sources().len(),
            5,
            "gathered snapshots refreshed, missed live members retained, \
             down member expired"
        );
        assert_eq!(core.cl.freshness(NodeId(0)), Some(Freshness::Fresh));
        assert_eq!(
            core.cl.freshness(NodeId(3)),
            Some(Freshness::NeedsRefresh),
            "missed live member keeps its stale flag so α re-arms"
        );
        assert!(
            core.acc.contains(saintetiq::cell::SourceId(3)),
            "missed live member keeps its previous description"
        );
        assert!(!core.cl.contains(NodeId(4)), "missed down member dropped");
        assert!(!core.acc.contains(saintetiq::cell::SourceId(4)));
        assert_eq!(core.reconciliations, 1);
        let work = ledger.reconcile_work();
        assert_eq!((work.merged, work.skipped, work.removed), (3, 2, 1));
    }

    #[test]
    fn dissolve_clears_domain_state() {
        let (mut core, mut peers) = domain_with_peers(5);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        core.dissolve();
        assert!(core.dissolved);
        assert!(core.cl.is_empty());
        assert!(core.acc.is_empty());
        assert_eq!(core.gs.all_sources().len(), 0);
        assert!(!core.apply_push(NodeId(1), Freshness::NeedsRefresh));
        assert!(!core.apply_localsum(NodeId(1)));
    }

    #[test]
    fn revive_seeds_a_delta_domain_from_retained_descriptions() {
        let (mut core, mut peers) = domain_with_peers(10);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        // Two members drift before the SP departs; their flags are
        // stale at dissolution time.
        drift(&mut core, &mut peers, 2, 301);
        drift(&mut core, &mut peers, 6, 302);
        // §4.3 rebirth: snapshot the seed, dissolve, revive under a
        // promoted member (peer 0) with the retained state. Peer 9
        // departed during the window; everyone else re-homes.
        let acc = core.acc.clone();
        let flags: Vec<(NodeId, Freshness)> = core
            .cl
            .partners()
            .map(|p| (p, core.cl.freshness(p).unwrap()))
            .collect();
        core.dissolve();
        peers[9].as_mut().unwrap().up = false;
        let seeded: Vec<(NodeId, Freshness)> = flags
            .into_iter()
            .filter(|&(m, _)| m != NodeId(0) && m != NodeId(9))
            .collect();
        core.revive(NodeId(0), seeded, acc);
        assert!(!core.dissolved);
        assert_eq!(core.sp, Some(NodeId(0)));
        assert_eq!(core.cl.len(), 8);
        // The first GS is stored straight from the surviving
        // contributions — no member was pulled again.
        assert_eq!(core.gs.all_sources().len(), 8);
        assert!(!core.acc.contains(SourceId(0)), "promoted SP expired");
        assert!(!core.acc.contains(SourceId(9)), "departed member expired");
        assert_eq!(core.cl.freshness(NodeId(2)), Some(Freshness::NeedsRefresh));
        assert_eq!(core.cl.freshness(NodeId(3)), Some(Freshness::Fresh));
        // The first pull is a delta: only the two stale-seeded members
        // are visited, everyone else's contribution is reused.
        let work = core.reconcile(&mut peers, &mut ledger).unwrap();
        assert_eq!((work.merged, work.skipped, work.removed), (2, 6, 0));
        let oracle = core.full_rebuild_oracle(&peers).unwrap();
        assert_eq!(
            wire::encode(&core.gs),
            wire::encode(&oracle),
            "reborn incremental GS must match the from-scratch rebuild"
        );
    }

    #[test]
    fn snapshot_merge_clears_dirty_only_when_current() {
        let (mut core, mut peers) = domain_with_peers(4);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        // Snapshot peer 1, then drift it after the token passed.
        let snap = SummarySnapshot::of(NodeId(1), peers[1].as_ref().unwrap());
        drift(&mut core, &mut peers, 1, 400);
        peers[1].as_mut().unwrap().dirty = true;
        core.reconcile_from_snapshots(&[snap], &mut peers, &mut ledger)
            .unwrap();
        assert!(
            peers[1].as_ref().unwrap().dirty,
            "a post-snapshot drift keeps the dirty bit"
        );
        // A current snapshot clears it.
        let snap2 = SummarySnapshot::of(NodeId(1), peers[1].as_ref().unwrap());
        core.reconcile_from_snapshots(&[snap2], &mut peers, &mut ledger)
            .unwrap();
        assert!(!peers[1].as_ref().unwrap().dirty);
    }

    #[test]
    fn localsum_arrival_admits_rehomed_strangers() {
        let (mut core, mut peers) = domain_with_peers(4);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();
        // A re-homed peer from a dissolved domain carries a foreign id.
        assert!(core.apply_localsum(NodeId(99)));
        assert_eq!(core.cl.freshness(NodeId(99)), Some(Freshness::NeedsRefresh));
    }

    #[test]
    fn missing_peer_state_is_an_error_not_a_panic() {
        let (mut core, mut peers) = domain_with_peers(4);
        let mut ledger = MessageLedger::new();
        core.cl.add_partner(NodeId(40), Freshness::Fresh); // no backing slot
        let err = core.enroll_all(&mut peers, &mut ledger);
        assert_eq!(err, Err(P2pError::UnknownPeer(40)));
    }

    #[test]
    fn ledger_latency_accounting() {
        let mut ledger = MessageLedger::new();
        assert_eq!(ledger.mean_latency_s(MessageClass::Push), 0.0);
        ledger.count_deliveries(MessageClass::Push, SimTime::from_millis(50), 1);
        ledger.count_deliveries(MessageClass::Push, SimTime::from_millis(150), 1);
        ledger.count_deliveries(MessageClass::Query, SimTime::from_millis(10), 1);
        assert!((ledger.mean_latency_s(MessageClass::Push) - 0.1).abs() < 1e-12);
        assert!((ledger.mean_latency_s(MessageClass::Query) - 0.01).abs() < 1e-12);
        assert_eq!(
            ledger.latency_counters().get(&MessageClass::Push),
            Some(&(2, 200_000))
        );
        // A run of three equal-latency deliveries counts as three.
        ledger.count_deliveries(MessageClass::Push, SimTime::from_millis(20), 3);
        assert_eq!(
            ledger.latency_counters().get(&MessageClass::Push),
            Some(&(5, 260_000))
        );
    }

    #[test]
    fn rejoin_enters_cl_stale_until_pull() {
        let (mut core, mut peers) = domain_with_peers(8);
        let mut ledger = MessageLedger::new();
        core.enroll_all(&mut peers, &mut ledger).unwrap();

        peers[5].as_mut().unwrap().up = false;
        core.apply_push(NodeId(5), Freshness::Unavailable);
        core.reconcile(&mut peers, &mut ledger).unwrap();
        assert!(!core.cl.contains(NodeId(5)));

        peers[5].as_mut().unwrap().up = true;
        assert!(core.apply_localsum(NodeId(5)));
        assert_eq!(core.cl.freshness(NodeId(5)), Some(Freshness::NeedsRefresh));
        assert_eq!(
            core.gs.all_sources().len(),
            7,
            "description arrives with the next pull, not the join"
        );
        core.reconcile(&mut peers, &mut ledger).unwrap();
        assert_eq!(core.gs.all_sources().len(), 8);
        assert_eq!(core.cl.freshness(NodeId(5)), Some(Freshness::Fresh));
    }
}
