//! Integration tests of SP rebirth with latency-aware re-election
//! (§4.3 completed): when a summary peer departs and its domain
//! dissolves, a replacement SP is elected from the dissolved domain's
//! live hubs, the orphans re-home to it, and the reborn domain is
//! seeded from the retained member descriptions so its first pull is a
//! delta. Covered here: determinism per seed in both delivery modes,
//! the off-by-default escape hatch (no rebirths, monotone domain
//! decay, reports bit-equal to a default-field config), the oracle
//! property (a reborn domain's incremental GS stays byte-identical to
//! the from-scratch rebuild), and long-horizon domain-count
//! stationarity.

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim, SimKernel};
use summary_p2p::metrics::MultiDomainReport;
use summary_p2p::scenario::{figure_rebirth, with_latency, with_sp_churn};

fn base(n: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, 0.3);
    c.horizon = SimTime::from_hours(8);
    c.query_count = 40;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

/// SP churn fast enough that every domain sees several departures.
fn churny(n: usize, seed: u64) -> SimConfig {
    with_sp_churn(&base(n, seed), 3600.0)
}

fn run(cfg: SimConfig) -> MultiDomainReport {
    MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run()
}

#[test]
fn rebirth_keeps_domain_count_stationary_long_horizon() {
    let mut cfg = churny(150, 11);
    cfg.horizon = SimTime::from_hours(16);
    cfg.rebirth = true;
    let on = run(cfg);
    let mut off_cfg = churny(150, 11);
    off_cfg.horizon = SimTime::from_hours(16);
    let off = run(off_cfg);

    assert!(on.rebirths > 0, "departures must trigger re-elections");
    let initial = on.initial_domains as f64;
    assert!(
        (on.mean_live_domains() - initial).abs() <= 0.1 * initial,
        "time-weighted mean live domains {} must stay within ±10% of {}",
        on.mean_live_domains(),
        initial
    );
    assert!(
        off.n_domains < off.initial_domains,
        "terminal dissolutions decay the population ({} of {})",
        off.n_domains,
        off.initial_domains
    );
    assert!(
        on.mean_recall > off.mean_recall,
        "a stationary domain population must answer better ({} vs {})",
        on.mean_recall,
        off.mean_recall
    );
}

#[test]
fn rebirth_disabled_stays_inert_and_monotone() {
    // The escape hatch: with the knob off the kernel schedules no
    // election/takeover events, counts no rebirths, and the
    // domain-count trajectory decays monotonically — and a run whose
    // config merely *spells out* the default is bit-equal to one that
    // never mentions the knob.
    for latency in [false, true] {
        let mut cfg = churny(120, 5);
        if latency {
            cfg = with_latency(&cfg, SimTime::from_millis(50));
        }
        let default_cfg = cfg;
        cfg.rebirth = false;
        let explicit = run(cfg);
        let implicit = run(default_cfg);
        assert_eq!(explicit.rebirths, 0);
        assert_eq!(explicit.queries, implicit.queries);
        assert_eq!(explicit.push_messages, implicit.push_messages);
        assert_eq!(explicit.reconciliations, implicit.reconciliations);
        assert_eq!(explicit.n_domains, implicit.n_domains);
        assert!(
            (explicit.mean_recall - implicit.mean_recall).abs() < 1e-15,
            "latency={latency}"
        );
        let counts: Vec<usize> = explicit
            .domain_count_trajectory
            .iter()
            .map(|&(_, n)| n)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[1] <= w[0]),
            "latency={latency}: without rebirth the live-domain count \
             never recovers: {counts:?}"
        );
    }
}

#[test]
fn rebirth_is_deterministic_per_seed_in_both_modes() {
    for latency in [false, true] {
        let make = || {
            let mut cfg = churny(130, 21);
            cfg.rebirth = true;
            if latency {
                cfg = with_latency(&cfg, SimTime::from_millis(50));
            }
            run(cfg)
        };
        let a = make();
        let b = make();
        assert!(a.rebirths > 0, "latency={latency}: rebirths happened");
        assert_eq!(a.rebirths, b.rebirths, "latency={latency}");
        assert_eq!(a.queries, b.queries, "latency={latency}");
        assert_eq!(a.push_messages, b.push_messages, "latency={latency}");
        assert_eq!(a.reconciliations, b.reconciliations, "latency={latency}");
        assert_eq!(
            a.domain_count_trajectory, b.domain_count_trajectory,
            "latency={latency}"
        );
        assert!(
            (a.mean_recall - b.mean_recall).abs() < 1e-15,
            "latency={latency}"
        );
        // A different seed takes a different trajectory (the whole
        // point of seeding every stochastic choice).
        let mut other = churny(130, 22);
        other.rebirth = true;
        if latency {
            other = with_latency(&other, SimTime::from_millis(50));
        }
        let c = run(other);
        assert!(
            c.push_messages != a.push_messages || c.rebirths != a.rebirths,
            "latency={latency}: seeds must decorrelate"
        );
    }
}

#[test]
fn reborn_domains_incremental_gs_matches_full_rebuild_oracle() {
    // The seeding property: a reborn domain's GS — built from retained
    // descriptions plus delta pulls only — must agree byte-for-byte
    // with a from-scratch rebuild over every live member's current
    // summary, at any probe point after a completed reconciliation
    // round. Instantaneous mode, where no snapshot is ever in flight.
    for seed in [1u64, 7, 42] {
        let mut cfg = churny(140, seed);
        cfg.rebirth = true;
        let mut sim = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
        let mut saw_rebirth = false;
        for hours in [2u64, 4, 6, 8] {
            sim.run_until(SimTime::from_hours(hours));
            saw_rebirth |= sim.rebirths() > 0;
            sim.reconcile_all();
            assert!(
                sim.live_gs_matches_oracle().unwrap(),
                "seed {seed}: live GS diverged from the oracle at {hours} h \
                 ({} rebirths so far)",
                sim.rebirths()
            );
        }
        assert!(
            saw_rebirth,
            "seed {seed}: the probe run must exercise rebirth"
        );
    }
}

#[test]
fn reborn_domains_keep_answering_queries() {
    let mut cfg = churny(150, 33);
    cfg.rebirth = true;
    let mut sim = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
    sim.run_until(SimTime::from_hours(7));
    assert!(sim.rebirths() > 0, "the run must exercise rebirth");
    assert!(sim.live_domains() > 0);
    sim.reconcile_all();
    let origins = sim.live_origins();
    assert!(!origins.is_empty());
    let out = sim.route_live(origins[0], 0, LookupTarget::Total);
    assert!(
        out.results > 0,
        "a network of reborn domains still localizes matches: {out:?}"
    );
}

#[test]
fn failed_sp_rebirth_waits_for_detection_on_the_message_plane() {
    // With every departure silent, latency-mode elections start only
    // after the failure-detection timeout — the run still converges to
    // a stationary population, just with longer dissolution windows.
    let mut cfg = churny(120, 9);
    cfg.failure_fraction = 1.0;
    cfg.rebirth = true;
    let cfg = with_latency(&cfg, SimTime::from_millis(50));
    let report = run(cfg);
    assert!(report.rebirths > 0, "failed SPs are replaced too");
    // The final snapshot can catch domains mid-detection-window (an
    // election scheduled past the horizon never fires), so the honest
    // stationarity metric here is the time-weighted mean.
    assert!(
        report.mean_live_domains() >= 0.7 * report.initial_domains as f64,
        "the population recovers despite silent failures (mean {} of {})",
        report.mean_live_domains(),
        report.initial_domains
    );
}

#[test]
fn rebirth_sweep_emits_consistent_rows() {
    let mut base = base(120, 3);
    base.horizon = SimTime::from_hours(6);
    let rows = figure_rebirth(&base, 3600.0, 25, LookupTarget::Total).unwrap();
    assert_eq!(rows.len(), 2);
    for r in rows.iter().map(|r| &r.report) {
        assert!(r.min_live_domains <= r.initial_domains);
        assert!((0.0..=1.0 + 1e-12).contains(&r.mean_recall));
        assert!(r.mean_live_domains() <= r.initial_domains as f64 + 1e-9);
    }
    assert!(rows[1].report.rebirths > 0);
}
