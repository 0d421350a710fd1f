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

use std::collections::BTreeMap;
use std::path::PathBuf;

use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::metrics::MultiDomainReport;
use summary_p2p::scenario::with_latency;

const FIXTURE: &str = "tests/golden/latency_plane.txt";

/// A std-only FNV-1a fold over the report's scalars.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }
}

/// Folds every field of the report, the per-class latency table, the
/// per-lookup samples and the α and domain-count trajectories included.
fn report_hash(r: &MultiDomainReport) -> u64 {
    let mut h = Fnv::new();
    h.u(r.n_peers as u64)
        .u(r.n_domains as u64)
        .f(r.alpha)
        .f(r.horizon_s)
        .u(r.queries as u64)
        .f(r.mean_recall)
        .f(r.mean_stale_answers)
        .f(r.mean_stale_answer_fraction)
        .f(r.mean_false_negatives)
        .f(r.mean_messages)
        .f(r.mean_domains_visited)
        .f(r.satisfied_fraction)
        .u(r.reconciliations)
        .u(r.push_messages)
        .u(r.reconciliation_messages)
        .u(r.construction_messages)
        .u(r.reconcile_merged_members)
        .u(r.reconcile_skipped_members)
        .u(r.reconcile_delta_bytes)
        .u(r.cache_hits)
        .f(r.mean_time_to_answer_s)
        .u(r.peak_in_flight)
        .f(r.mean_final_alpha)
        .u(r.rebirths)
        .u(r.initial_domains as u64)
        .u(r.min_live_domains as u64);
    for &(class, n, mean_s) in &r.latency_by_class {
        h.bytes(format!("{class:?}").as_bytes()).u(n).f(mean_s);
    }
    for &(t, recall) in &r.samples {
        h.f(t).f(recall);
    }
    for &a in &r.final_alphas {
        h.f(a);
    }
    for traj in &r.alpha_trajectories {
        h.u(traj.len() as u64);
        for &(t, a) in traj {
            h.f(t).f(a);
        }
    }
    for &(t, n) in &r.domain_count_trajectory {
        h.f(t).u(n as u64);
    }
    h.0
}

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

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// Both runs against their recorded hashes — or, with `GOLDEN_BLESS`
/// set, the fixture rewritten from them.
#[test]
fn latency_plane_runs_match_the_recorded_fixture() {
    let got: BTreeMap<&str, String> = [
        ("total", LookupTarget::Total),
        ("partial", LookupTarget::Partial(10)),
    ]
    .into_iter()
    .map(|(name, target)| (name, format!("{:016x}", report_hash(&run(target)))))
    .collect();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let text: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(fixture_path(), text).expect("fixture is writable");
        return;
    }
    let text = std::fs::read_to_string(fixture_path()).expect("fixture is readable");
    let want: BTreeMap<&str, String> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k, v.trim().to_string()))
        .collect();
    assert_eq!(got, want, "the latency-plane runs drifted from {FIXTURE}");
}
