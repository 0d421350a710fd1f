//! Shared pieces of the golden-fixture tests: a std-only FNV-1a fold over
//! report scalars, the multi-domain report hash, and the compare-or-bless
//! step against a fixture file under `tests/golden/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use summary_p2p::metrics::MultiDomainReport;

/// A std-only FNV-1a fold over report scalars.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }

    /// A length-prefixed `(t, value)` trajectory.
    pub fn pairs(&mut self, traj: &[(f64, f64)]) -> &mut Self {
        self.u(traj.len() as u64);
        for &(t, v) in traj {
            self.f(t).f(v);
        }
        self
    }
}

/// Folds every field of a multi-domain report, the per-class latency
/// table, the per-lookup samples and the α and domain-count trajectories
/// included.
pub fn multi_report_hash(r: &MultiDomainReport) -> u64 {
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
        h.pairs(traj);
    }
    for &(t, n) in &r.domain_count_trajectory {
        h.f(t).u(n as u64);
    }
    h.0
}

/// Compares `got` (name → hash) with the fixture at `fixture` (relative
/// to the root package) — or, with `GOLDEN_BLESS` set, rewrites the
/// fixture from it. `what` names the runs in the failure message.
pub fn check_fixture(fixture: &str, what: &str, got: &BTreeMap<&str, u64>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(fixture);
    let got: BTreeMap<&str, String> = got.iter().map(|(&k, v)| (k, format!("{v:016x}"))).collect();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let text: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(path, text).expect("fixture is writable");
        return;
    }
    let text = std::fs::read_to_string(path).expect("fixture is readable");
    let want: BTreeMap<&str, String> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k, v.trim().to_string()))
        .collect();
    assert_eq!(got, want, "the {what} runs drifted from {fixture}");
}
