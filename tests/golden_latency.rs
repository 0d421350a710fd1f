//! Golden fixtures of the latency message plane: two small churning
//! `MultiDomainSim` runs (a total and a partial lookup target) whose
//! reports are folded into a 64-bit hash and compared with the values
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
use summary_p2p::scenario::with_latency;

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
    let report = MultiDomainSim::new(config(3), 25, target)
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

/// Both runs against their recorded hashes — or, with `GOLDEN_BLESS`
/// set, the fixture rewritten from them.
#[test]
fn latency_plane_runs_match_the_recorded_fixture() {
    let got: BTreeMap<&str, u64> = [
        ("total", LookupTarget::Total),
        ("partial", LookupTarget::Partial(10)),
    ]
    .into_iter()
    .map(|(name, target)| (name, multi_report_hash(&run(target))))
    .collect();
    check_fixture(FIXTURE, "latency-plane", &got);
}
