//! Integration tests of the latency-aware message plane: every protocol
//! message travels as a virtual-time delivery event, so reconciliation
//! rings, floods and §5.2.2 lookups take genuine time — while the
//! default instantaneous mode keeps the seed semantics byte-identical.

use p2psim::churn::LifetimeDistribution;
use p2psim::time::SimTime;
use summary_p2p::config::{DeliveryMode, SimConfig};
use summary_p2p::domain::DomainSim;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::messages::MessageClass;
use summary_p2p::scenario::with_latency;

fn base(n: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, 0.3);
    c.horizon = SimTime::from_hours(6);
    c.query_count = 40;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

/// A configuration with churn effectively frozen: nobody fails, session
/// lifetimes dwarf the horizon, downtimes are instant.
fn zero_churn(n: usize, seed: u64) -> SimConfig {
    let mut c = base(n, seed);
    c.failure_fraction = 0.0;
    c.lifetime = LifetimeDistribution::Exponential { mean_s: 1e9 };
    c.mean_downtime_s = 1.0;
    c
}

#[test]
fn same_seed_determinism_with_latency_enabled() {
    let cfg = with_latency(&base(150, 1), SimTime::from_millis(50));
    let a = MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run();
    let b = MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.push_messages, b.push_messages);
    assert_eq!(a.reconciliations, b.reconciliations);
    assert_eq!(a.peak_in_flight, b.peak_in_flight);
    assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    assert!((a.mean_messages - b.mean_messages).abs() < 1e-12);
    assert!((a.mean_time_to_answer_s - b.mean_time_to_answer_s).abs() < 1e-12);
}

#[test]
fn lookups_and_rings_complete_at_positive_virtual_offsets() {
    let cfg = with_latency(&base(150, 1), SimTime::from_millis(50));
    let report = MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run();
    assert!(report.queries > 0);
    assert!(
        report.mean_time_to_answer_s > 0.0,
        "lookups must take virtual time"
    );
    assert!(
        report.peak_in_flight > 0,
        "messages were actually in flight"
    );
    assert!(report.reconciliations > 0, "rings ran over the plane");
    let token_latency = report
        .latency_by_class
        .iter()
        .find(|(c, _, _)| *c == MessageClass::Reconciliation)
        .expect("token hops were delivered");
    assert!(token_latency.1 > 0, "token deliveries counted");
    assert!(
        token_latency.2 > 0.0,
        "every token hop takes strictly positive virtual time"
    );
}

#[test]
fn higher_link_latency_raises_time_to_answer_not_lowers_zero_churn_recall() {
    // Monotonicity: with churn frozen, a 5 s hop network answers the
    // same queries as a 1 ms one (recall identical — summaries never go
    // stale), just later.
    let slow_hop = SimTime::from_millis(5000);
    let fast_hop = SimTime::from_millis(1);
    let fast = MultiDomainSim::new(
        with_latency(&zero_churn(150, 3), fast_hop),
        25,
        LookupTarget::Total,
    )
    .unwrap()
    .run();
    let slow = MultiDomainSim::new(
        with_latency(&zero_churn(150, 3), slow_hop),
        25,
        LookupTarget::Total,
    )
    .unwrap()
    .run();
    assert!(fast.queries > 0 && slow.queries > 0);
    assert!(
        slow.mean_time_to_answer_s > fast.mean_time_to_answer_s,
        "5 s hops ({}) must answer slower than 1 ms hops ({})",
        slow.mean_time_to_answer_s,
        fast.mean_time_to_answer_s
    );
    assert!(
        slow.mean_recall >= fast.mean_recall - 1e-12,
        "latency alone must not lose answers at zero churn: {} vs {}",
        slow.mean_recall,
        fast.mean_recall
    );
    assert!(
        fast.mean_recall > 0.999,
        "frozen summaries localize every match"
    );
}

#[test]
fn instantaneous_mode_is_the_unchanged_escape_hatch() {
    // The default config *is* instantaneous mode, and an instantaneous
    // dynamic run reports no in-flight traffic and zero time-to-answer
    // — the PR 1 semantics the figure pipelines rely on.
    let cfg = base(120, 5);
    assert_eq!(cfg.delivery, DeliveryMode::Instantaneous);
    let report = MultiDomainSim::new(cfg, 20, LookupTarget::Total)
        .unwrap()
        .run();
    assert!(report.queries > 0);
    assert_eq!(report.mean_time_to_answer_s, 0.0);
    assert_eq!(report.peak_in_flight, 0);
    assert!(report.latency_by_class.is_empty());

    // And the single-domain figures see the exact same reports.
    let a = DomainSim::new(base(30, 6)).unwrap().run();
    let b = DomainSim::new(base(30, 6)).unwrap().run();
    assert_eq!(a.push_messages, b.push_messages);
    assert_eq!(a.reconciliations, b.reconciliations);
}

#[test]
fn single_domain_rings_run_over_the_plane() {
    let cfg = with_latency(&base(30, 7), SimTime::from_millis(50));
    let report = DomainSim::new(cfg).unwrap().run();
    assert_eq!(report.queries, 40, "every scheduled query was processed");
    assert!(report.reconciliations > 0, "α-gated rings completed");
    assert!(
        report.reconciliation_messages > report.reconciliations,
        "each ring costs one token hop per live member"
    );
    assert!(report.push_messages > 0);
}

#[test]
fn sp_departures_dissolve_domains_and_rehome_partners() {
    // SP churn wired into the kernel: summary peers leave mid-run
    // (§4.3), their domains dissolve, partners re-home over the message
    // plane — and the run keeps answering queries.
    let run = |latency: bool| {
        let mut cfg = base(150, 8);
        cfg.sp_lifetime = Some(LifetimeDistribution::Exponential {
            mean_s: 2.0 * 3600.0,
        });
        if latency {
            cfg = with_latency(&cfg, SimTime::from_millis(50));
        }
        MultiDomainSim::new(cfg, 25, LookupTarget::Total)
            .unwrap()
            .run()
    };
    for latency in [false, true] {
        let report = run(latency);
        let baseline = MultiDomainSim::new(base(150, 8), 25, LookupTarget::Total)
            .unwrap()
            .run();
        assert!(
            report.n_domains < baseline.n_domains,
            "latency={latency}: departures must dissolve domains ({} vs {})",
            report.n_domains,
            baseline.n_domains
        );
        assert!(report.queries > 0, "latency={latency}: lookups still run");
        assert!(
            report.mean_recall > 0.0,
            "latency={latency}: re-homed partners still answer"
        );
    }
    // Deterministic per seed, like every other kernel process.
    let a = run(true);
    let b = run(true);
    assert_eq!(a.queries, b.queries);
    assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    assert_eq!(a.reconciliations, b.reconciliations);
}
