//! Integration tests of the maintenance protocols (§4.2–§4.3) through
//! the event-driven domain simulation.

use std::collections::BTreeMap;

use fuzzy::bk::BackgroundKnowledge;
use p2psim::network::NodeId;
use p2psim::time::SimTime;
use saintetiq::cell::SourceId;
use summary_p2p::config::SimConfig;
use summary_p2p::domain::DomainSim;
use summary_p2p::freshness::Freshness;
use summary_p2p::kernel::SimKernel;
use summary_p2p::messages::{Message, MessageClass};
use summary_p2p::routing::RoutingPolicy;
use summary_p2p::workload::{make_templates, PeerGenerator};

fn cfg(n: usize, alpha: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, alpha);
    c.horizon = SimTime::from_hours(6);
    c.query_count = 40;
    c.records_per_peer = 12;
    c.seed = seed;
    c
}

#[test]
fn reconciliation_frequency_scales_inversely_with_alpha() {
    let mut counts = Vec::new();
    for alpha in [0.1, 0.3, 0.6, 0.9] {
        let report = DomainSim::new(cfg(50, alpha, 1)).unwrap().run();
        counts.push((alpha, report.reconciliations));
    }
    // Monotone non-increasing in alpha (allow equality at the tail).
    for w in counts.windows(2) {
        assert!(
            w[0].1 >= w[1].1,
            "alpha {} had {} reconciliations, alpha {} had {}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
    assert!(counts[0].1 > counts[3].1, "strictly more at the extremes");
}

#[test]
fn push_traffic_is_alpha_independent() {
    // Eq. (1): the 1/L push term does not depend on alpha.
    let a = DomainSim::new(cfg(50, 0.1, 2)).unwrap().run();
    let b = DomainSim::new(cfg(50, 0.9, 2)).unwrap().run();
    assert_eq!(a.push_messages, b.push_messages);
}

#[test]
fn no_churn_no_drift_means_no_maintenance() {
    let mut c = cfg(30, 0.3, 3);
    // Summaries that (statistically) never expire within the horizon and
    // no failures: push traffic only from the few long-tail expiries.
    c.lifetime = p2psim::churn::LifetimeDistribution::Exponential { mean_s: 1e9 };
    c.mean_downtime_s = 1e9;
    c.failure_fraction = 0.0;
    let report = DomainSim::new(c).unwrap().run();
    assert_eq!(report.push_messages, 0, "nothing drifted, nothing left");
    assert_eq!(report.reconciliations, 0);
    // And queries are perfect: the GS exactly describes the domain.
    assert!((report.mean_recall() - 1.0).abs() < 1e-9);
    assert!((report.mean_precision() - 1.0).abs() < 1e-9);
}

#[test]
fn silent_failures_poison_until_reconciliation() {
    // All departures are failures: no pushes from leaves, so staleness
    // is invisible to the CL and real FPs appear.
    let mut with_failures = cfg(40, 0.3, 4);
    with_failures.failure_fraction = 1.0;
    let rf = DomainSim::new(with_failures).unwrap().run();

    let mut graceful = cfg(40, 0.3, 4);
    graceful.failure_fraction = 0.0;
    let rg = DomainSim::new(graceful).unwrap().run();

    // Graceful leaves trigger pushes (leave notifications), failures
    // don't.
    assert!(rg.push_messages > rf.push_messages);
    // Failures leave poison: precision with failures must not beat the
    // graceful world.
    assert!(rf.mean_precision() <= rg.mean_precision() + 0.05);
}

#[test]
fn extended_policy_maximizes_recall() {
    let mut base = cfg(40, 0.6, 5);
    base.policy = RoutingPolicy::Extended;
    let ext = DomainSim::new(base).unwrap().run();

    let mut fresh = cfg(40, 0.6, 5);
    fresh.policy = RoutingPolicy::FreshOnly;
    let fr = DomainSim::new(fresh).unwrap().run();

    assert!(
        ext.mean_recall() >= fr.mean_recall(),
        "extended {} vs fresh-only {}",
        ext.mean_recall(),
        fr.mean_recall()
    );
    assert!(
        fr.mean_precision() >= ext.mean_precision(),
        "fresh-only {} vs extended {}",
        fr.mean_precision(),
        ext.mean_precision()
    );
}

#[test]
fn update_traffic_grows_linearly_with_domain_size() {
    let small = DomainSim::new(cfg(20, 0.3, 6)).unwrap().run();
    let large = DomainSim::new(cfg(80, 0.3, 6)).unwrap().run();
    let ratio = large.update_messages() as f64 / small.update_messages().max(1) as f64;
    // 4x the peers: traffic should grow roughly 2x–8x, not explode
    // quadratically (Figure 6's "messages per node remains almost the
    // same").
    assert!((1.5..=10.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn gs_stays_well_formed_through_the_whole_run() {
    let sim = DomainSim::new(cfg(30, 0.2, 7)).unwrap();
    sim.gs().check_invariants();
    let report = sim.run();
    assert!(report.gs_cells > 0);
    assert!(report.gs_bytes > 0);
}

#[test]
fn seeds_change_outcomes_but_not_validity() {
    let a = DomainSim::new(cfg(30, 0.3, 100)).unwrap().run();
    let b = DomainSim::new(cfg(30, 0.3, 101)).unwrap().run();
    // Different seeds: almost surely different traffic...
    assert_ne!(
        (a.push_messages, a.reconciliations),
        (b.push_messages, b.reconciliations)
    );
    // ...but all invariants hold for both.
    for r in [a, b] {
        assert!((0.0..=1.0).contains(&r.worst_stale_fraction()));
        assert!((0.0..=1.0).contains(&r.mean_recall()));
        assert!((0.0..=1.0).contains(&r.mean_precision()));
    }
}

/// A rejoining partner's `localsum` carries the summary it holds, not
/// the blank placeholder a drifted peer keeps until a read settles it.
/// At α = 1 a ring runs only once every partner is stale, so a drifted
/// peer's summary is read by nothing but its rejoin. A twin run,
/// stepped ten seconds at a time, finds a peer that drifts, leaves and
/// rejoins with no other rejoin in between and no ring while it is up;
/// the tested run covers that stretch with one `run_until`, so no
/// return to the caller installs the drifted summary first.
#[test]
fn a_rejoin_localsum_carries_the_installed_summary() {
    let mut c = cfg(4, 1.0, 3);
    c.failure_fraction = 0.0;
    // Single-domain construction traffic is the `localsum`s alone.
    let localsums = |k: &SimKernel| {
        let ledger = k.ledger();
        let bytes = ledger.byte_counters()[&MessageClass::Construction];
        (ledger.sent(MessageClass::Construction), bytes)
    };
    let flags = |k: &SimKernel| -> BTreeMap<NodeId, Freshness> {
        let cl = &k.domain_cores()[0].cl;
        cl.partners()
            .filter_map(|p| Some((p, cl.freshness(p)?)))
            .collect()
    };

    // Each peer whose drifted summary no read has settled yet, with the
    // start of the step its drift fell in.
    let mut drifted: BTreeMap<NodeId, SimTime> = BTreeMap::new();
    let mut twin = SimKernel::single_domain(c).unwrap();
    let mut t = SimTime::ZERO;
    let (peer, from) = loop {
        let (before, sent) = (flags(&twin), localsums(&twin).0);
        let pulls = twin.domain_cores()[0].reconciliations;
        let step_start = t;
        t += SimTime::from_secs(10);
        assert!(
            t <= c.horizon,
            "a drift, leave and rejoin within the horizon"
        );
        twin.run_until(t);
        let after = flags(&twin);
        let was = |p: &NodeId| before.get(p).copied();
        if localsums(&twin).0 == sent + 1 {
            // A rejoiner re-enters stale: from `Unavailable`, or anew
            // when a ring expired it while it was away.
            let rejoined = after.iter().find(|&(p, &f)| {
                f == Freshness::NeedsRefresh
                    && matches!(was(p), None | Some(Freshness::Unavailable))
            });
            if let Some((&p, &from)) = rejoined.and_then(|(p, _)| drifted.get_key_value(p)) {
                break (p, from);
            }
        }
        if localsums(&twin).0 != sent {
            // This rejoin falls inside every stretch still open.
            drifted.clear();
            continue;
        }
        if twin.domain_cores()[0].reconciliations != pulls {
            // A ring visits, and so settles, the stale peers that are
            // up; it leaves them fresh.
            drifted.retain(|p, _| after.get(p) != Some(&Freshness::Fresh));
        }
        for (&p, &f) in &after {
            if f == Freshness::NeedsRefresh && was(&p) == Some(Freshness::Fresh) {
                drifted.insert(p, step_start);
            }
        }
    };

    let mut k = SimKernel::single_domain(c).unwrap();
    k.run_until(from);
    let (sent, bytes) = localsums(&k);
    k.run_until(t);
    assert_eq!(localsums(&k).0, sent + 1, "one rejoin");
    let header = Message::LocalSum { bytes: 0 }.wire_bytes() as u64;
    let carried = localsums(&k).1 - bytes - header;
    // The rejoiner is flagged stale, so a pull stores the summary it
    // holds now.
    k.reconcile_all();
    let installed = k.domain_cores()[0]
        .acc
        .deltas()
        .find(|&(s, _)| s == SourceId(peer.0))
        .expect("the rejoiner is pulled")
        .1
        .encoded_bytes() as u64;
    let blank = PeerGenerator::new(
        &BackgroundKnowledge::medical_cbk(),
        &make_templates(c.template_count),
    )
    .unwrap()
    .summarizer()
    .empty_summary()
    .summary
    .len() as u64;
    assert_ne!(installed, blank, "the test tells the two apart");
    assert_eq!(
        carried, installed,
        "{peer:?}'s localsum carries its summary, not the {blank}-byte blank"
    );
}
