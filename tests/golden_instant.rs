//! Golden fixtures of instantaneous delivery: a small churning
//! multi-domain run (Total lookups), the same run with Partial lookups,
//! the same run with summary-peer churn (without and with rebirth), the
//! same run under adaptive α, a Figure 4
//! single-domain run and a Figure 5 (`FreshOnly`) single-domain run,
//! each folded into a 64-bit hash over every scalar of its report and
//! compared with the values recorded in `tests/golden/instant_plane.txt`.
//! The single-domain hash covers the materialized GS (`gs_bytes`,
//! `gs_cells`, `gs_nodes`) and the approximate-answer weights read from
//! it, so a GS that is routed on but stored differently shows up here.
//!
//! Re-recording is a deliberate act: run
//! `GOLDEN_BLESS=1 cargo test --test golden_instant` and commit the
//! rewritten fixture together with the reason in `CHANGES.md`.

mod common;

use std::collections::BTreeMap;

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::control::ControlPolicy;
use summary_p2p::domain::DomainSim;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::metrics::{DomainReport, MultiDomainReport};
use summary_p2p::routing::RoutingPolicy;
use summary_p2p::scenario::{with_heterogeneous_drift, with_sp_churn};

use common::{check_fixture, multi_report_hash, Fnv};

const FIXTURE: &str = "tests/golden/instant_plane.txt";

/// Folds every field of a single-domain report, the stored GS's size and
/// shape, the approximate-answer weights and the α trajectory included.
fn domain_report_hash(r: &DomainReport) -> u64 {
    let mut h = Fnv::new();
    h.u(r.n_peers as u64)
        .f(r.alpha)
        .f(r.horizon_s)
        .u(r.queries as u64)
        .f(r.mean_pq)
        .f(r.mean_qs)
        .f(r.mean_stale_selected)
        .f(r.mean_stale_unselected)
        .f(r.mean_real_fp)
        .f(r.mean_real_fn)
        .f(r.mean_answered)
        .u(r.push_messages)
        .u(r.reconciliation_messages)
        .u(r.construction_messages)
        .u(r.query_messages)
        .u(r.reconciliations)
        .u(r.push_bytes)
        .u(r.reconciliation_bytes)
        .u(r.construction_bytes)
        .u(r.gs_bytes as u64)
        .u(r.gs_cells as u64)
        .u(r.gs_nodes as u64)
        .u(r.reconcile_merged_members)
        .u(r.reconcile_skipped_members)
        .u(r.reconcile_delta_bytes)
        .f(r.final_alpha)
        .pairs(&r.alpha_trajectory);
    for weights in [&r.approx_weight_live, &r.approx_weight_with_departed] {
        h.u(weights.len() as u64);
        for &w in weights {
            h.f(w);
        }
    }
    h.0
}

/// About 200 churning peers in ~8 domains, Total lookups.
fn multi_config() -> SimConfig {
    let mut c = SimConfig::paper_defaults(200, 0.3);
    c.horizon = SimTime::from_hours(4);
    c.query_count = 30;
    c.records_per_peer = 10;
    c.seed = 3;
    c
}

fn multi_report(cfg: SimConfig) -> MultiDomainReport {
    target_report(cfg, LookupTarget::Total)
}

fn target_report(cfg: SimConfig, target: LookupTarget) -> MultiDomainReport {
    let report = MultiDomainSim::new(cfg, 25, target)
        .expect("config builds")
        .run();
    assert!(report.queries > 0, "lookups were posed");
    assert!(report.reconciliations > 0, "churn armed pulls");
    assert_eq!(report.domain_errors, 0, "a healthy run swallows nothing");
    report
}

/// The same network with Partial lookups: routing stops once ten
/// answers are in.
fn partial_report() -> MultiDomainReport {
    target_report(multi_config(), LookupTarget::Partial(10))
}

/// The same network with summary peers departing hourly and no
/// rebirth: a terminal departure merges its members into a neighbour.
fn sp_churn_report() -> MultiDomainReport {
    let cfg = with_sp_churn(&multi_config(), 3600.0);
    assert!(!cfg.rebirth, "SP churn alone leaves rebirth off");
    let report = multi_report(cfg);
    assert!(
        report.min_live_domains < report.initial_domains,
        "the run must exercise terminal departures"
    );
    report
}

/// The same network with summary peers departing hourly and reborn
/// domains seeded from the retained descriptions.
fn rebirth_report() -> MultiDomainReport {
    let mut cfg = with_sp_churn(&multi_config(), 3600.0);
    cfg.rebirth = true;
    let report = multi_report(cfg);
    assert!(report.rebirths > 0, "the run must exercise rebirth");
    report
}

/// The same network with heterogeneous drift and per-domain adaptive α:
/// pulls are also armed by the control plane's epoch ticks.
fn adaptive_report() -> MultiDomainReport {
    let mut cfg = with_heterogeneous_drift(&multi_config(), 4.0);
    cfg.control = Some(ControlPolicy {
        target_staleness: 0.2,
        alpha_min: 0.05,
        alpha_max: 0.9,
        gain: 0.6,
        epoch_s: 600.0,
    });
    multi_report(cfg)
}

fn single_config() -> SimConfig {
    let mut c = SimConfig::paper_defaults(100, 0.3);
    c.horizon = SimTime::from_hours(6);
    c.query_count = 60;
    c.records_per_peer = 10;
    c.seed = 5;
    c
}

/// One Figure 4 domain: 100 peers at α = 0.3.
fn single_report() -> u64 {
    single_hash(single_config())
}

/// One Figure 5 domain: the same peers, queries routed to fresh
/// partners only.
fn fresh_only_report() -> u64 {
    let mut c = single_config();
    c.policy = RoutingPolicy::FreshOnly;
    single_hash(c)
}

fn single_hash(c: SimConfig) -> u64 {
    let report = DomainSim::new(c).expect("config builds").run();
    assert!(report.reconciliations > 0, "drift armed pulls");
    assert!(report.gs_cells > 0, "the stored GS describes the domain");
    assert_eq!(report.domain_errors, 0, "a healthy run swallows nothing");
    domain_report_hash(&report)
}

/// Every run against its recorded hash — or, with `GOLDEN_BLESS`
/// set, the fixture rewritten from them.
#[test]
fn instant_runs_match_the_recorded_fixture() {
    let got = BTreeMap::from([
        ("multi", multi_report_hash(&multi_report(multi_config()))),
        ("partial", multi_report_hash(&partial_report())),
        ("sp_churn", multi_report_hash(&sp_churn_report())),
        ("rebirth", multi_report_hash(&rebirth_report())),
        ("adaptive", multi_report_hash(&adaptive_report())),
        ("single", single_report()),
        ("fresh_only", fresh_only_report()),
    ]);
    check_fixture(FIXTURE, "instant-delivery", &got);
}
