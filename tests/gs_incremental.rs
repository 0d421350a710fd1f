//! Property tests of incremental global-summary maintenance: after any
//! interleaving of drift, graceful leave, silent crash, rejoin,
//! re-homed joiner and SP-departure dissolution, a completed
//! reconciliation round must leave the incrementally maintained GS
//! **byte-identical** to the from-scratch rebuild over every live
//! member's current local summary — and observably equivalent for
//! query routing. Plus the latency-plane guarantee: a *partial* ring
//! (token dropped by mid-ring churn) leaves the accumulator in exactly
//! the "visited refreshed, missed retained, departed expired" state.

use fuzzy::bk::BackgroundKnowledge;
use p2psim::network::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saintetiq::cell::SourceId;
use saintetiq::query::proposition::reformulate;
use saintetiq::query::relevant_sources;
use saintetiq::wire;
use summary_p2p::freshness::Freshness;
use summary_p2p::peerstate::{
    empty_accumulator, DomainCore, MessageLedger, PeerState, SummarySnapshot,
};
use summary_p2p::workload::{generate_peer_data, make_templates, QueryTemplate};

const N: u32 = 10;
const STRANGERS: u32 = 2;
const RECORDS: usize = 6;

fn templates() -> Vec<QueryTemplate> {
    make_templates(2)
}

fn setup(seed: u64) -> (DomainCore, Vec<Option<PeerState>>) {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = templates();
    let mut rng = StdRng::seed_from_u64(seed);
    let peers: Vec<Option<PeerState>> = (0..N + STRANGERS)
        .map(|p| {
            Some(PeerState::new(
                generate_peer_data(&mut rng, p, &bk, &templates, 0.3, RECORDS)
                    .expect("valid workload"),
            ))
        })
        .collect();
    let mut core = DomainCore::new(None, (0..N).map(NodeId).collect());
    let mut peers = peers;
    core.enroll_all(&mut peers, &mut MessageLedger::new())
        .expect("enrollment succeeds");
    (core, peers)
}

fn regenerate(peers: &mut [Option<PeerState>], p: u32, seed: u64) {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = templates();
    let mut rng = StdRng::seed_from_u64(seed);
    let data =
        generate_peer_data(&mut rng, p, &bk, &templates, 0.3, RECORDS).expect("valid workload");
    peers[p as usize].as_mut().expect("slot exists").data = data;
}

/// One protocol-level operation of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Member data drifts (regenerate + `v = 1` push).
    Drift(u32, u64),
    /// Graceful leave (`v = 2` push, peer goes down).
    Leave(u32),
    /// Silent crash (no push — GS poison until the pull).
    Crash(u32),
    /// Rejoin (localsum, enters CL stale).
    Rejoin(u32),
    /// A re-homed stranger from a dissolved foreign domain arrives.
    JoinStranger(u32),
    /// A full §4.2.2 pull completes.
    Reconcile,
    /// The SP departs: the domain dissolves (§4.3).
    Dissolve,
}

/// Decodes one `(kind, peer, seed)` sample into an operation. Kinds are
/// weighted so pulls are common and dissolution is rare (it ends the
/// domain's useful life).
fn decode_op(kind: u8, peer: u32, seed: u64) -> Op {
    match kind % 16 {
        0..=3 => Op::Drift(peer % N, seed),
        4..=5 => Op::Leave(peer % N),
        6..=7 => Op::Crash(peer % N),
        8..=10 => Op::Rejoin(peer % N),
        11 => Op::JoinStranger(peer % STRANGERS),
        12..=14 => Op::Reconcile,
        _ => Op::Dissolve,
    }
}

/// Asserts the observable-equivalence properties: byte-identical
/// encodings against the accumulator-based oracle, identical query
/// routing (peer localization) for every workload template, and — as an
/// *accumulator-independent* cross-check — per-cell content exactly
/// equal to the PR-2 destructive `merge_into` construction (which
/// shares no code with `GsAccumulator`, so a flattening bug cannot
/// reproduce on both sides).
fn assert_equivalent(core: &DomainCore, peers: &[Option<PeerState>]) {
    let oracle = core.full_rebuild_oracle(peers).expect("oracle rebuild");
    assert_eq!(
        wire::encode(&core.gs),
        wire::encode(&oracle),
        "incremental GS must match the from-scratch oracle byte-for-byte"
    );
    let bk = BackgroundKnowledge::medical_cbk();
    for tpl in templates() {
        let sq = reformulate(&tpl.query, &bk).expect("reformulates");
        assert_eq!(
            relevant_sources(&core.gs, &sq.proposition),
            relevant_sources(&oracle, &sq.proposition),
            "peer localization must agree"
        );
    }
    // Independent witness: rebuild through the destructive merge path,
    // visiting members in id order — the same per-cell fold order
    // `build_merged` uses — so per-cell weights, per-source maps,
    // grades and statistics must be bit-for-bit equal (only the
    // hierarchy above the cells may legitimately differ).
    let mut legacy = summary_p2p::peerstate::empty_gs();
    let ecfg = saintetiq::engine::EngineConfig::default();
    for m in core.cl.partners() {
        if let Some(st) = peers.get(m.index()).and_then(|s| s.as_ref()) {
            if st.up {
                let tree = wire::decode(&st.data.summary).expect("decodes");
                saintetiq::merge::merge_into(&mut legacy, &tree, &ecfg).expect("same CBK");
            }
        }
    }
    assert_eq!(core.gs.leaf_count(), legacy.leaf_count());
    assert_eq!(core.gs.all_sources(), legacy.all_sources());
    for cell in legacy.cells() {
        let g = core.gs.cell(cell.key()).expect("cell in both");
        assert!(g.sources().eq(cell.sources()));
        assert_eq!(g.weight(), cell.weight());
        assert_eq!(g.max_grades(), cell.max_grades());
        for (gs_stats, legacy_stats) in g.stats().iter().zip(cell.stats()) {
            assert_eq!(gs_stats.raw_parts(), legacy_stats.raw_parts());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: any interleaving of the §4.2–§4.3
    /// transitions, closed by a full pull, leaves the incremental GS
    /// observably identical to a from-scratch construction.
    #[test]
    fn incremental_gs_equals_from_scratch_after_any_interleaving(
        seed in 0u64..1_000,
        raw_ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 1..24),
    ) {
        let (mut core, mut peers) = setup(seed);
        let mut ledger = MessageLedger::new();
        // The ops are the SP-side arrivals alone: pulls never
        // self-trigger, only explicit Reconcile ops run them —
        // maximizing how much staleness each round absorbs.
        for (kind, peer, op_seed) in raw_ops {
            match decode_op(kind, peer, op_seed) {
                Op::Drift(p, s) => {
                    if peers[p as usize].as_ref().is_some_and(|st| st.up) {
                        regenerate(&mut peers, p, s);
                        core.apply_push(NodeId(p), Freshness::NeedsRefresh);
                    }
                }
                Op::Leave(p) => {
                    if peers[p as usize].as_ref().is_some_and(|st| st.up) {
                        peers[p as usize].as_mut().expect("slot").up = false;
                        core.apply_push(NodeId(p), Freshness::Unavailable);
                    }
                }
                Op::Crash(p) => {
                    if let Some(st) = peers[p as usize].as_mut() {
                        st.up = false;
                    }
                }
                Op::Rejoin(p) => {
                    // A member a pull dropped while it was away walks
                    // back in like a re-homed orphan.
                    if peers[p as usize].as_ref().is_some_and(|st| !st.up) {
                        peers[p as usize].as_mut().expect("slot").up = true;
                        core.apply_localsum(NodeId(p));
                    }
                }
                Op::JoinStranger(k) => {
                    core.apply_localsum(NodeId(N + k));
                }
                Op::Reconcile => {
                    core.reconcile(&mut peers, &mut ledger).expect("reconcile");
                    if !core.dissolved {
                        assert_equivalent(&core, &peers);
                    }
                }
                Op::Dissolve => {
                    core.dissolve();
                    prop_assert!(core.acc.is_empty());
                    prop_assert_eq!(core.gs.all_sources().len(), 0);
                }
            }
            core.gs.check_invariants();
        }
        // Close with a full pull: the final state must be equivalent
        // (trivially so after a dissolution — both sides are empty).
        core.reconcile(&mut peers, &mut ledger).expect("final reconcile");
        assert_equivalent(&core, &peers);
        // Merge work never exceeded the membership per round.
        let work = ledger.reconcile_work();
        prop_assert!(work.merged + work.skipped <= (N + STRANGERS) as u64 * core.reconciliations);
    }
}

/// The latency-plane guarantee: a partial ring (token dropped mid-ring
/// by churn) leaves the accumulator in exactly the documented state —
/// visited members refreshed from their snapshots, missed live members
/// retained with their *previous* descriptions, departed members
/// expired — and a follow-up full pull restores oracle equivalence.
#[test]
fn partial_ring_leaves_accumulator_consistent() {
    let (mut core, mut peers) = setup(77);
    let mut ledger = MessageLedger::new();
    let originals: Vec<_> = (0..N)
        .map(|p| peers[p as usize].as_ref().unwrap().data.summary.clone())
        .collect();

    // Four members drift; one of them crashes mid-ring; the token only
    // reaches the first two stale members before being dropped.
    for (p, s) in [(1u32, 500u64), (3, 501), (5, 502), (7, 503)] {
        regenerate(&mut peers, p, s);
        core.cl.set_freshness(NodeId(p), Freshness::NeedsRefresh);
    }
    peers[5].as_mut().unwrap().up = false; // crashes before its hop
    let gathered: Vec<SummarySnapshot> = [1u32, 3]
        .iter()
        .map(|&p| SummarySnapshot::of(NodeId(p), peers[p as usize].as_ref().unwrap()))
        .collect();
    core.reconcile_from_snapshots(&gathered, &mut peers, &mut ledger)
        .expect("partial pull");
    core.gs.check_invariants();

    // Expected accumulator: every live member contributes — visited ones
    // their current summaries, everyone else the summary from enrollment
    // time (member 7 drifted but unvisited: its *old* description stays).
    let mut expected = empty_accumulator();
    for p in 0..N {
        if p == 5 {
            continue; // departed: expired
        }
        let bytes = if p == 1 || p == 3 {
            peers[p as usize].as_ref().unwrap().data.summary.clone()
        } else {
            originals[p as usize].clone()
        };
        expected
            .update_source_encoded(SourceId(p), &bytes)
            .expect("decodes");
    }
    assert_eq!(
        wire::encode(&core.gs),
        wire::encode(&expected.build_merged()),
        "partial pull: visited refreshed, missed retained, departed expired"
    );
    assert_eq!(
        core.cl.freshness(NodeId(7)),
        Some(Freshness::NeedsRefresh),
        "missed stale member re-arms α"
    );
    assert!(!core.acc.contains(SourceId(5)));

    // The follow-up full pull converges on the oracle.
    core.reconcile(&mut peers, &mut ledger).expect("full pull");
    let oracle = core.full_rebuild_oracle(&peers).expect("oracle");
    assert_eq!(wire::encode(&core.gs), wire::encode(&oracle));
    let work = ledger.reconcile_work();
    assert_eq!(
        work.merged, 3,
        "two snapshot merges + the one remaining stale member"
    );
}

/// The observation contract: pulls only update the accumulators, and
/// whenever the kernel hands control back every live domain's `gs` is
/// the canonical build of its accumulator, with its encoded size.
#[test]
fn observed_gs_is_the_accumulators_merged_view() {
    use p2psim::time::SimTime;
    use summary_p2p::{DeliveryMode, LookupTarget, SimConfig, SimKernel};
    let cfg = |n: usize, seed: u64| {
        let mut c = SimConfig::paper_defaults(n, 0.3);
        c.horizon = SimTime::from_hours(4);
        c.query_count = 30;
        c.records_per_peer = 10;
        c.seed = seed;
        c
    };
    for latency in [false, true] {
        let mode = |n: usize| {
            let mut c = cfg(n, 8);
            if latency {
                c.delivery = DeliveryMode::Latency {
                    default_hop: SimTime::from_millis(50),
                };
            }
            c
        };
        let kernels = [
            SimKernel::networked(mode(120), 20, Some(LookupTarget::Total)).unwrap(),
            SimKernel::single_domain(mode(40)).unwrap(),
        ];
        for mut k in kernels {
            for hours in 1..=4 {
                k.run_until(SimTime::from_hours(hours));
                for dom in k.domain_cores().iter().filter(|d| !d.dissolved) {
                    assert_eq!(
                        wire::encode(&dom.gs),
                        wire::encode(&dom.acc.build_merged()),
                        "latency {latency}, hour {hours}: stale GS observed"
                    );
                    assert_eq!(dom.gs_bytes_last, wire::encoded_size(&dom.gs));
                }
            }
            let pulls: u64 = k.domain_cores().iter().map(|d| d.reconciliations).sum();
            assert!(pulls > 0, "latency {latency}: the run must pull");
        }
    }
}
