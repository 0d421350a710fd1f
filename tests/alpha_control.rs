//! Integration tests of the maintenance control plane (`core::control`):
//! bounded per-domain adaptive α, deterministic runs in both delivery
//! modes, a fixed α when no policy is set, and the Zipf workload knob
//! that rides along.

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::control::ControlPolicy;
use summary_p2p::domain::DomainSim;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::metrics::MultiDomainReport;
use summary_p2p::scenario::{with_heterogeneous_drift, with_latency};

fn base(n: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, 0.3);
    c.horizon = SimTime::from_hours(6);
    c.query_count = 40;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

fn adaptive(target: f64, alpha_min: f64, alpha_max: f64, gain: f64) -> ControlPolicy {
    ControlPolicy {
        target_staleness: target,
        alpha_min,
        alpha_max,
        gain,
        epoch_s: 600.0,
    }
}

fn run_multi(cfg: SimConfig) -> MultiDomainReport {
    MultiDomainSim::new(cfg, 25, LookupTarget::Total)
        .unwrap()
        .run()
}

/// Every α the controller ever held — trajectory samples and final
/// values — must sit inside the policy's clamp.
fn assert_bounded(report: &MultiDomainReport, alpha_min: f64, alpha_max: f64) {
    assert!(
        !report.alpha_trajectories.is_empty(),
        "trajectories recorded"
    );
    for traj in &report.alpha_trajectories {
        for &(_, a) in traj.iter().skip(1) {
            assert!(
                (alpha_min..=alpha_max).contains(&a),
                "alpha {a} escaped [{alpha_min}, {alpha_max}]"
            );
        }
    }
    for &a in &report.final_alphas {
        assert!((alpha_min..=alpha_max).contains(&a));
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Whatever the feedback does — any seed, gain, target or drift
        /// spread — adaptive α never leaves `[alpha_min, alpha_max]`.
        #[test]
        fn adaptive_alpha_stays_within_bounds(
            seed in 0u64..1000,
            gain in 0.1f64..2.0,
            target in 0.05f64..0.5,
            spread in 1.0f64..8.0,
        ) {
            let mut cfg = with_heterogeneous_drift(&base(80, seed), spread);
            cfg.control = Some(adaptive(target, 0.1, 0.8, gain));
            let report = run_multi(cfg);
            assert_bounded(&report, 0.1, 0.8);
        }
    }
}

#[test]
fn adaptive_runs_are_deterministic_in_both_delivery_modes() {
    let mut instant = with_heterogeneous_drift(&base(120, 9), 4.0);
    instant.control = Some(adaptive(0.2, 0.05, 0.9, 0.6));
    let a = run_multi(instant);
    let b = run_multi(instant);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.push_messages, b.push_messages);
    assert_eq!(a.reconciliations, b.reconciliations);
    assert_eq!(a.final_alphas, b.final_alphas);
    assert_eq!(a.alpha_trajectories, b.alpha_trajectories);
    assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    assert!((a.mean_stale_answer_fraction - b.mean_stale_answer_fraction).abs() < 1e-12);

    let latency = with_latency(&instant, SimTime::from_millis(50));
    let c = run_multi(latency);
    let d = run_multi(latency);
    assert_eq!(c.queries, d.queries);
    assert_eq!(c.reconciliations, d.reconciliations);
    assert_eq!(c.final_alphas, d.final_alphas);
    assert_eq!(c.alpha_trajectories, d.alpha_trajectories);
    assert!((c.mean_time_to_answer_s - d.mean_time_to_answer_s).abs() < 1e-12);
    assert_bounded(&c, 0.05, 0.9);
}

/// Without a control policy (the default `control: None`) α stays at
/// the configured value: no control tick fires, so every trajectory is
/// its initial point and every final α the configured one.
#[test]
fn fixed_policy_reproduces_the_seed_figures_byte_identically() {
    // Multi-domain, instantaneous mode.
    let cfg = base(150, 4);
    let report = run_multi(cfg);
    assert!(report.queries > 0);
    for traj in &report.alpha_trajectories {
        assert_eq!(traj.len(), 1);
        assert_eq!(traj[0], (0.0, cfg.alpha));
    }
    assert!(report.final_alphas.iter().all(|&x| x == cfg.alpha));

    // Single-domain figure pipeline, both delivery modes.
    for lat in [false, true] {
        let mut cfg = base(40, 5);
        if lat {
            cfg = with_latency(&cfg, SimTime::from_millis(50));
        }
        let report = DomainSim::new(cfg).unwrap().run();
        assert_eq!(report.final_alpha, cfg.alpha);
        assert_eq!(report.alpha_trajectory, vec![(0.0, cfg.alpha)]);
    }
}

/// On the heterogeneous-drift axis the controller actually finds
/// something: per-domain thresholds spread out instead of staying at
/// one global value, and fast-drifting domains do not end *above*
/// slow-drifting ones.
#[test]
fn adaptive_alpha_spreads_across_heterogeneous_domains() {
    let mut cfg = with_heterogeneous_drift(&base(200, 11), 6.0);
    cfg.query_count = 80;
    cfg.control = Some(adaptive(0.2, 0.05, 0.9, 0.6));
    let report = run_multi(cfg);
    assert!(report.final_alphas.len() >= 4, "several domains survived");
    let lo = report
        .final_alphas
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = report
        .final_alphas
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        hi - lo > 1e-6,
        "per-domain alphas converged to distinct values: {:?}",
        report.final_alphas
    );
    assert_bounded(&report, 0.05, 0.9);
    // Trajectories carry one sample per epoch beyond the initial point.
    assert!(report.alpha_trajectories.iter().any(|t| t.len() > 3));
}

/// The Zipf workload knob: the skewed template draw produces a valid,
/// deterministic run (the draw shares the kernel's seeded RNG stream,
/// so the whole run — not just the query mix — is a different but
/// reproducible trajectory than round-robin's).
#[test]
fn zipf_workload_runs_deterministically() {
    let mut cfg = base(120, 13);
    cfg.zipf_exponent = Some(1.2);
    cfg.validate().unwrap();
    let a = run_multi(cfg);
    let b = run_multi(cfg);
    assert!(a.queries > 0);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.push_messages, b.push_messages);
    assert!((a.mean_recall - b.mean_recall).abs() < 1e-12);
    assert!((a.mean_messages - b.mean_messages).abs() < 1e-12);
}
