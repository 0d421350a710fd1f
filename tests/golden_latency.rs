//! Golden fixtures of the latency message plane: two small churning
//! `MultiDomainSim` runs (a total and a partial lookup target) and one
//! with summary-peer churn and rebirth (takeover confirmations and
//! watchdogs on the plane), whose reports are folded into a 64-bit hash and compared with the values
//! recorded under `tests/golden/`. Any change to the simulated run — an
//! event reordered, a message counted differently, a cache entry that
//! differs — changes the hash.
//!
//! Re-recording is a deliberate act: run
//! `GOLDEN_BLESS=1 cargo test --test golden_latency` and commit the
//! rewritten fixture together with the reason in `CHANGES.md`.

mod common;

use std::collections::BTreeMap;

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::metrics::MultiDomainReport;
use summary_p2p::scenario::{with_latency, with_sp_churn};

use common::{check_fixture, multi_report_hash};

const FIXTURE: &str = "tests/golden/latency_plane.txt";

/// About 200 churning peers in ~8 domains on a 50 ms default hop.
fn config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(200, 0.3);
    c.horizon = SimTime::from_hours(4);
    c.query_count = 30;
    c.records_per_peer = 10;
    c.seed = seed;
    with_latency(&c, SimTime::from_millis(50))
}

fn run(target: LookupTarget) -> MultiDomainReport {
    run_config(config(3), target)
}

fn run_config(cfg: SimConfig, target: LookupTarget) -> MultiDomainReport {
    let report = MultiDomainSim::new(cfg, 25, target)
        .expect("config builds")
        .run();
    assert!(report.queries > 0, "lookups were posed");
    assert!(
        report.cache_hits > 0,
        "the fixture must exercise cached answers"
    );
    assert_eq!(report.domain_errors, 0, "a healthy run swallows nothing");
    report
}

/// The total-lookup network with summary peers departing hourly and
/// reborn domains seeded from the retained descriptions.
fn rebirth_report() -> MultiDomainReport {
    let mut cfg = with_sp_churn(&config(3), 3600.0);
    cfg.rebirth = true;
    let report = run_config(cfg, LookupTarget::Total);
    assert!(report.rebirths > 0, "the run must exercise rebirth");
    report
}

/// Every run against its recorded hash — or, with `GOLDEN_BLESS`
/// set, the fixture rewritten from them.
#[test]
fn latency_plane_runs_match_the_recorded_fixture() {
    let mut got: BTreeMap<&str, u64> = [
        ("total", LookupTarget::Total),
        ("partial", LookupTarget::Partial(10)),
    ]
    .into_iter()
    .map(|(name, target)| (name, multi_report_hash(&run(target))))
    .collect();
    got.insert("rebirth", multi_report_hash(&rebirth_report()));
    check_fixture(FIXTURE, "latency-plane", &got);
}
