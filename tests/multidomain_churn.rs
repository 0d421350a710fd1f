//! Integration tests of the unified simulation kernel: inter-domain
//! lookups (§5.2.2) routed *while* churn, drift and reconciliation
//! mutate every domain's global summary — the dynamic network-scale
//! scenario the old static `MultiDomainSystem` could not express.

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim, SimKernel};
use summary_p2p::scenario::{figure_multidomain_churn, scale_churn, with_latency};

fn base(n: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, 0.3);
    c.horizon = SimTime::from_hours(6);
    c.query_count = 40;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

#[test]
fn recall_degrades_with_churn_rate() {
    // Same network, same workload, two churn intensities. α is pinned
    // high so the pull frequency cannot scale along with the churn (at
    // the paper's α the reconciliation rate adapts and recall stays in
    // the α-band regardless of turnover — that adaptation is exactly
    // what `lower_alpha_sustains_higher_recall_under_equal_churn`
    // measures). With the pull nearly frozen, staleness accumulates with
    // the churn rate and total-lookup recall drops monotonically.
    let mut b = base(150, 1);
    b.alpha = 1.0;
    let rows =
        figure_multidomain_churn(&[0.25, 4.0], &b, 25, LookupTarget::Total).expect("valid config");
    assert_eq!(rows.len(), 2);
    let (calm, stormy) = (&rows[0].report, &rows[1].report);
    assert!(calm.queries > 0 && stormy.queries > 0);
    assert!(
        stormy.mean_recall < calm.mean_recall,
        "churn x4 recall {} must sit below churn x0.25 recall {}",
        stormy.mean_recall,
        calm.mean_recall
    );
    assert!(
        stormy.mean_false_negatives > calm.mean_false_negatives,
        "faster churn must miss more live matches: {} vs {}",
        stormy.mean_false_negatives,
        calm.mean_false_negatives
    );
}

#[test]
fn reconciliation_recovers_recall_mid_run() {
    // Two identically-seeded dynamic runs advanced to the same virtual
    // time; one forces a reconciliation round in every domain before
    // probing. The pull rebuilds each GS from live members, so the same
    // total lookups recover the matches staleness was hiding.
    let cfg = {
        let mut c = scale_churn(&base(150, 2), 3.0); // aggressive drift
        c.alpha = 1.0; // reconciliation fires only when a CL is fully stale
        c
    };
    let probe_at = SimTime::from_hours(3);

    let probe = |k: &mut SimKernel| -> (f64, usize) {
        let origins = k.live_origins();
        assert!(!origins.is_empty(), "someone is online at the probe time");
        let mut recall_sum = 0.0;
        let mut totals = 0usize;
        let picks: Vec<_> = origins.iter().copied().take(6).collect();
        let n = picks.len();
        for origin in picks {
            let out = k.route_live(origin, 0, LookupTarget::Total);
            recall_sum += out.recall();
            totals += out.results_total;
        }
        (recall_sum / n as f64, totals)
    };

    let mut stale_sim = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
    stale_sim.run_until(probe_at);
    assert!(
        stale_sim.mean_stale_fraction() > 0.0,
        "three hours of drift must have flagged someone"
    );
    let (recall_stale, totals) = probe(&mut stale_sim);
    assert!(totals > 0, "ground truth exists at the probe time");

    let mut fresh_sim = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
    fresh_sim.run_until(probe_at);
    fresh_sim.reconcile_all();
    assert_eq!(
        fresh_sim.mean_stale_fraction(),
        0.0,
        "the pull resets every CL"
    );
    let (recall_fresh, _) = probe(&mut fresh_sim);

    assert!(
        recall_stale < 1.0,
        "staleness must be visible before the pull (recall {recall_stale})"
    );
    assert!(
        recall_fresh > recall_stale,
        "reconciliation must recover recall: fresh {recall_fresh} vs stale {recall_stale}"
    );
    assert!(
        recall_fresh > 0.95,
        "freshly pulled summaries localize (nearly) every live match: {recall_fresh}"
    );
}

#[test]
fn stale_answers_appear_under_churn_and_not_in_static_build() {
    // The same configuration frozen at t = 0 has no stale answers; run
    // under churn, summary-selected peers start failing ground truth.
    let cfg = scale_churn(&base(150, 3), 2.0);
    let report = MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run();
    assert!(report.queries > 0);
    assert!(
        report.mean_stale_answers > 0.0,
        "churn must surface stale answers network-wide"
    );

    let mut static_sys = summary_p2p::system::MultiDomainSystem::build(&base(150, 3), 25).unwrap();
    let origin = static_sys
        .true_matches(0)
        .first()
        .copied()
        .expect("matches exist");
    let out = static_sys.route(origin, 0, LookupTarget::Total);
    assert_eq!(out.stale_answers, 0, "frozen build is perfectly fresh");
}

#[test]
fn lower_alpha_sustains_higher_recall_under_equal_churn() {
    // The maintenance knob of §4.2.2, now measurable network-wide: at
    // equal churn, more frequent reconciliation (lower α) keeps global
    // summaries closer to ground truth.
    let run = |alpha: f64| {
        let mut c = scale_churn(&base(150, 4), 3.0);
        c.alpha = alpha;
        MultiDomainSim::new(c, 25, LookupTarget::Total)
            .unwrap()
            .run()
    };
    let strict = run(0.15);
    let lax = run(0.95);
    assert!(
        strict.reconciliations > lax.reconciliations,
        "α gates the pull frequency: {} vs {}",
        strict.reconciliations,
        lax.reconciliations
    );
    assert!(
        strict.mean_recall >= lax.mean_recall,
        "α=0.15 recall {} must not fall below α=0.95 recall {}",
        strict.mean_recall,
        lax.mean_recall
    );
}

#[test]
fn stale_answer_rate_grows_with_ring_latency() {
    // With the message plane on, the reconciliation token crawls the
    // ring at link speed: slower links stretch the staleness window
    // between a peer churning and the GS noticing, so summary-selected
    // peers fail ground truth more often per lookup.
    let cfg = scale_churn(&base(150, 2), 2.0);
    let run = |hop_ms: u64| {
        MultiDomainSim::new(
            with_latency(&cfg, SimTime::from_millis(hop_ms)),
            25,
            LookupTarget::Total,
        )
        .unwrap()
        .run()
    };
    let crisp = run(1);
    let sluggish = run(20_000);
    assert!(crisp.queries > 0 && sluggish.queries > 0);
    assert!(
        sluggish.mean_stale_answers > crisp.mean_stale_answers,
        "20 s ring hops must serve more stale answers than 1 ms hops: {} vs {}",
        sluggish.mean_stale_answers,
        crisp.mean_stale_answers
    );
    assert!(
        sluggish.mean_time_to_answer_s > crisp.mean_time_to_answer_s,
        "and answer slower: {} vs {}",
        sluggish.mean_time_to_answer_s,
        crisp.mean_time_to_answer_s
    );
}

#[test]
fn dynamic_runs_are_deterministic_per_seed() {
    let cfg = scale_churn(&base(120, 5), 2.0);
    let a = MultiDomainSim::new(cfg, 20, LookupTarget::Partial(5))
        .unwrap()
        .run();
    let b = MultiDomainSim::new(cfg, 20, LookupTarget::Partial(5))
        .unwrap()
        .run();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.push_messages, b.push_messages);
    assert_eq!(a.reconciliations, b.reconciliations);
    assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    assert!((a.mean_messages - b.mean_messages).abs() < 1e-12);
}
