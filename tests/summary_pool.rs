//! Summaries built off the calling thread are the summaries built on it.
//!
//! A simulation kernel draws each peer's database on its event loop and
//! hands the rows to a `SummaryPool`, whose worker thread (when there is
//! one) summarizes them while the loop runs on. Whichever thread builds
//! a summary, and whenever it is installed, it must be exactly what a
//! `PeerGenerator` makes from the same RNG stream on the calling thread;
//! a summary superseded by a later submission for the same peer must
//! never be installed; a settle installs its own peer's summary and no
//! other; the queue never holds more than its depth; and a
//! panic on the worker must surface on the calling thread instead of
//! leaving it waiting.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use fuzzy::bk::BackgroundKnowledge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::value::Value;
use saintetiq::cell::SourceId;
use summary_p2p::error::P2pError;
use summary_p2p::summary_pool::{SummaryPool, SUMMARY_QUEUE_DEPTH};
use summary_p2p::workload::{make_templates, PeerData, PeerGenerator, PeerSummary};

/// Row sets pushed through the pool per run.
const STEPS: usize = 240;
/// Peers the row sets are spread over: few enough that many submissions
/// supersede one still outstanding.
const PEERS: u32 = 12;

/// Asserts that `got` is `want`'s summary for `peer`: the same bytes,
/// the same flat cells bit for bit, and the same recorded encoded size.
fn assert_same(peer: u32, got: &PeerSummary, want: &PeerData, ctx: &str) {
    assert_eq!(
        got.summary[..],
        want.summary[..],
        "peer {peer}: bytes, {ctx}"
    );
    // `Debug` prints every float in its shortest round-trip form, so
    // equal strings mean equal bits.
    assert_eq!(
        format!("{:?}", got.flat),
        format!("{:?}", want.flat),
        "peer {peer}: flat cells, {ctx}"
    );
    assert_eq!(
        got.flat.encoded_bytes(),
        got.summary.len(),
        "peer {peer}: {ctx}"
    );
    assert_eq!(got.flat.source(), SourceId(peer), "peer {peer}: {ctx}");
}

/// Checks every logged install against its peer's latest reference
/// data, and keeps it as the peer's installed summary. Only a peer's
/// current summary is ever installed, so every install must equal that
/// peer's latest reference data.
fn check_installs(
    installs: &mut Vec<(u32, PeerSummary)>,
    latest: &BTreeMap<u32, PeerData>,
    installed: &mut BTreeMap<u32, PeerSummary>,
    ctx: &str,
) {
    for (peer, summary) in installs.drain(..) {
        assert_same(peer, &summary, &latest[&peer], ctx);
        installed.insert(peer, summary);
    }
}

/// Pushes `STEPS` drawn row sets through a pool, with or without a
/// worker, waiting for one peer, for a peer with nothing outstanding,
/// for all peers or for nobody after each submission, and checks every
/// install against a calling-thread generator fed the same RNG stream,
/// and the queue against its depth. Every seventh submission repeats the
/// previous peer, which supersedes its summary when the worker has not
/// finished it yet.
fn pool_matches_the_generator(worker: bool) -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut pool = SummaryPool::with_worker(PeerGenerator::new(&bk, &templates)?, worker);
    assert_eq!(pool.has_worker(), worker);
    let mut reference = PeerGenerator::new(&bk, &templates)?;
    let (mut pool_rng, mut reference_rng) =
        (StdRng::seed_from_u64(303), StdRng::seed_from_u64(303));
    let mut schedule = StdRng::seed_from_u64(304);

    // Each peer's latest reference data, updated before its submission.
    let mut latest: BTreeMap<u32, PeerData> = BTreeMap::new();
    let mut installs: Vec<(u32, PeerSummary)> = Vec::new();
    let mut installed: BTreeMap<u32, PeerSummary> = BTreeMap::new();

    let mut peer = 0;
    for step in 0..STEPS {
        if step % 7 != 0 {
            peer = schedule.gen_range(0..PEERS);
        }
        let fraction = [0.0, 0.1, 1.0][step % 3];
        let records = [1, 24, 16, 3][step / 3 % 4];
        let want = reference.generate(&mut reference_rng, peer, fraction, records)?;
        let bits = want.match_bits;
        latest.insert(peer, want);
        let drawn = pool.regenerate(&mut pool_rng, peer, fraction, records)?;
        assert_eq!(drawn, bits, "step {step}: match bits");
        // A submitted summary is outstanding until a settle installs it.
        assert!(pool.is_pending(peer), "step {step}: pending");
        assert!(
            pool.queued() <= SUMMARY_QUEUE_DEPTH,
            "step {step}: {} jobs queued",
            pool.queued()
        );
        let ctx = format!("step {step}");
        match schedule.gen_range(0..7) {
            0 => {
                let waited = schedule.gen_range(0..PEERS);
                pool.settle(waited, |q, s| installs.push((q, s)));
                assert!(!pool.is_pending(waited), "{ctx}: waited for");
                assert!(
                    installs.len() <= 1 && installs.iter().all(|&(q, _)| q == waited),
                    "{ctx}: a settle installs its own peer only"
                );
                check_installs(&mut installs, &latest, &mut installed, &ctx);
                if let Some(want) = latest.get(&waited) {
                    assert_same(waited, &installed[&waited], want, &ctx);
                }
            }
            6 => {
                // A peer with nothing outstanding (one never submitted,
                // or one already installed): the wait returns at once
                // and installs nothing.
                check_installs(&mut installs, &latest, &mut installed, &ctx);
                let idle = (0..PEERS + 1).find(|&p| !pool.is_pending(p));
                let idle = idle.expect("at most PEERS peers are outstanding");
                pool.settle(idle, |q, s| installs.push((q, s)));
                assert!(
                    installs.is_empty(),
                    "{ctx}: peer {idle} had nothing to install"
                );
                assert!(!pool.is_pending(idle), "{ctx}");
                if let Some(want) = latest.get(&idle) {
                    assert_same(idle, &installed[&idle], want, &ctx);
                }
            }
            1 => {
                pool.settle_all(|q, s| installs.push((q, s)));
                assert!(pool.is_settled());
                check_installs(&mut installs, &latest, &mut installed, &ctx);
            }
            _ => check_installs(&mut installs, &latest, &mut installed, &ctx),
        }
    }
    pool.settle_all(|q, s| installs.push((q, s)));
    check_installs(&mut installs, &latest, &mut installed, "final wait");
    assert!(pool.is_settled());
    assert_eq!(installed.len(), latest.len(), "every peer installed");
    for (peer, want) in &latest {
        assert_same(*peer, &installed[peer], want, "final state");
    }
    assert_eq!(
        pool_rng.gen::<u64>(),
        reference_rng.gen::<u64>(),
        "both made the same draws"
    );
    Ok(())
}

#[test]
fn pooled_summaries_match_the_generator_with_a_worker() -> Result<(), P2pError> {
    pool_matches_the_generator(true)
}

#[test]
fn pooled_summaries_match_the_generator_without_a_worker() -> Result<(), P2pError> {
    pool_matches_the_generator(false)
}

/// A summary cancelled while outstanding is never installed, whatever
/// the worker had done with it: a settle after each of a peer's first
/// two regenerations installs that round's summary, and after a third
/// regeneration is cancelled nothing is installed for the peer.
#[test]
fn cancelled_summaries_are_never_installed() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut pool = SummaryPool::with_worker(PeerGenerator::new(&bk, &templates)?, true);
    let mut reference = PeerGenerator::new(&bk, &templates)?;
    let (mut pool_rng, mut reference_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    let mut installs: Vec<(u32, PeerSummary)> = Vec::new();
    for round in 0..2 {
        let want = reference.generate(&mut reference_rng, 1, 0.5, 16)?;
        pool.regenerate(&mut pool_rng, 1, 0.5, 16)?;
        pool.settle(1, |q, s| installs.push((q, s)));
        assert_eq!(installs.len(), 1, "round {round}: one install");
        let (peer, summary) = installs.pop().expect("checked");
        assert_eq!(peer, 1);
        assert_same(1, &summary, &want, &format!("round {round}"));
    }
    reference.generate(&mut reference_rng, 1, 0.5, 16)?;
    pool.regenerate(&mut pool_rng, 1, 0.5, 16)?;
    pool.cancel(1);
    assert!(pool.is_settled());
    pool.settle(1, |q, s| installs.push((q, s)));
    assert!(
        installs.is_empty(),
        "the cancelled summary is not installed"
    );
    let want = reference.generate(&mut reference_rng, 2, 0.5, 16)?;
    pool.regenerate(&mut pool_rng, 2, 0.5, 16)?;
    pool.settle(1, |q, s| installs.push((q, s)));
    pool.settle_all(|q, s| installs.push((q, s)));
    assert_eq!(installs.len(), 1, "only peer 2's summary is installed");
    assert_eq!(installs[0].0, 2);
    assert_same(2, &installs[0].1, &want, "after a cancel");
    Ok(())
}

/// Without a worker a submitted job waits in the queue for the read
/// that settles it: submissions for distinct peers fill the queue to its
/// depth, and the next one makes room by summarizing the oldest, which
/// stays outstanding until a settle installs it.
#[test]
fn without_a_worker_jobs_wait_for_their_settle() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let mut pool = SummaryPool::with_worker(PeerGenerator::new(&bk, &make_templates(3))?, false);
    let mut rng = StdRng::seed_from_u64(9);
    let depth = SUMMARY_QUEUE_DEPTH as u32;
    for peer in 0..depth {
        pool.regenerate(&mut rng, peer, 0.5, 16)?;
    }
    assert_eq!(pool.queued(), SUMMARY_QUEUE_DEPTH);
    pool.regenerate(&mut rng, depth, 0.5, 16)?;
    assert_eq!(pool.queued(), SUMMARY_QUEUE_DEPTH);
    assert!((0..=depth).all(|p| pool.is_pending(p)), "nothing installed");
    Ok(())
}

/// A row shorter than the patient schema panics in the record mapper.
/// Summarized on the worker, the panic is raised again on the calling
/// thread when it next waits, instead of leaving it waiting for a
/// result that will never come.
#[test]
fn a_worker_panic_surfaces_at_the_next_wait() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let generator = PeerGenerator::new(&bk, &make_templates(1))?;
    let mut pool = SummaryPool::with_worker(generator, true);
    // Without a worker the wait below would never end.
    assert!(pool.has_worker(), "the worker thread was spawned");
    pool.submit(7, vec![vec![Value::Int(30)]]);
    // Let the worker take the job, so that the calling thread does not
    // summarize it itself.
    while pool.queued() > 0 {
        thread::sleep(Duration::from_millis(1));
    }
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.settle(7, |_, _| panic!("a broken summary must not be installed"))
    }));
    let payload = caught.expect_err("the worker's panic surfaces");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("summary worker panicked"),
        "unexpected panic: {message}"
    );
    Ok(())
}
