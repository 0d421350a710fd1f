//! The single-domain simulation facade (§4.2–§4.3, §6.2.2).
//!
//! A domain is a summary peer (SP) plus `n` partner peers. The actual
//! event loop lives in the shared kernel ([`crate::kernel::SimKernel`]);
//! this module keeps the historical `DomainSim` entry point the figure
//! drivers and tests use. Three processes run against virtual time:
//!
//! * **summary drift** — each partner's local summary has a lifetime `L`
//!   (Table 3's lognormal); on expiry the peer's data is regenerated and
//!   a `push` message flags its cooperation-list entry stale;
//! * **churn** — sessions from the same distribution; graceful leaves
//!   push `v = 2` (collapsed to the 1-bit stale flag, §4.3), silent
//!   failures push nothing and poison the GS until reconciliation;
//!   rejoining peers ship their `localsum` and enter the CL with `v = 1`;
//! * **reconciliation** — whenever the stale fraction reaches α, the SP
//!   circulates the token: every live partner merges its local summary
//!   into `NewGS` and forwards it; the SP stores the result and resets
//!   the CL. Cost: one message per live partner plus the final store.
//!
//! Queries are sampled across the horizon and scored against exact
//! ground truth (see [`crate::routing`]).

use saintetiq::hierarchy::SummaryTree;

use crate::config::SimConfig;
use crate::error::P2pError;
use crate::kernel::SimKernel;
use crate::metrics::DomainReport;

/// The single-domain simulator: a facade over the unified kernel with
/// exactly one [`crate::peerstate::DomainCore`].
pub struct DomainSim {
    kernel: SimKernel,
}

impl DomainSim {
    /// Builds the domain: generates every partner's database and local
    /// summary, constructs the initial GS (counting the `localsum`
    /// messages), and schedules drift, churn and the query workload.
    pub fn new(cfg: SimConfig) -> Result<Self, P2pError> {
        Ok(Self {
            kernel: SimKernel::single_domain(cfg)?,
        })
    }

    /// Runs the simulation to the horizon and returns the report.
    pub fn run(mut self) -> DomainReport {
        self.kernel.run_to_horizon();
        self.kernel.single_report()
    }

    /// The current global summary (inspection/testing).
    pub fn gs(&self) -> &SummaryTree {
        &self.kernel.domains[0].gs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::time::SimTime;

    fn small_cfg(n: usize, alpha: f64) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n, alpha);
        c.horizon = SimTime::from_hours(6);
        c.query_count = 40;
        c.records_per_peer = 12;
        c
    }

    #[test]
    fn domain_runs_to_horizon() {
        let report = DomainSim::new(small_cfg(30, 0.3)).unwrap().run();
        assert_eq!(report.queries, 40);
        assert!(report.push_messages > 0, "drift and leaves must push");
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn initial_gs_covers_all_partners() {
        let sim = DomainSim::new(small_cfg(20, 0.3)).unwrap();
        let cl = &sim.kernel.domains[0].cl;
        assert_eq!(cl.len(), 20);
        assert_eq!(cl.stale_fraction(), 0.0);
        let sources = sim.gs().all_sources();
        assert_eq!(sources.len(), 20, "every partner merged into the GS");
        sim.gs().check_invariants();
    }

    #[test]
    fn lower_alpha_reconciles_more_often() {
        let strict = DomainSim::new(small_cfg(40, 0.1)).unwrap().run();
        let lax = DomainSim::new(small_cfg(40, 0.8)).unwrap().run();
        assert!(
            strict.reconciliations > lax.reconciliations,
            "α=0.1 ({}) must reconcile more than α=0.8 ({})",
            strict.reconciliations,
            lax.reconciliations
        );
    }

    #[test]
    fn lower_alpha_reduces_stale_answers() {
        let strict = DomainSim::new(small_cfg(60, 0.1)).unwrap().run();
        let lax = DomainSim::new(small_cfg(60, 0.8)).unwrap().run();
        assert!(
            strict.worst_stale_fraction() <= lax.worst_stale_fraction() + 0.02,
            "strict {} vs lax {}",
            strict.worst_stale_fraction(),
            lax.worst_stale_fraction()
        );
    }

    #[test]
    fn queries_find_true_matches_in_steady_state() {
        let mut cfg = small_cfg(50, 0.2);
        cfg.failure_fraction = 0.0; // no silent poison
        let report = DomainSim::new(cfg).unwrap().run();
        // With reconciliation active, most true matches are found.
        assert!(
            report.mean_recall() > 0.6,
            "recall {} too low",
            report.mean_recall()
        );
    }

    #[test]
    fn departed_descriptions_enrich_approximate_answers() {
        // §4.3's alternative 1 vs 2: keeping departed peers' summaries
        // can only add approximate-answer mass, never remove it.
        let mut cfg = small_cfg(40, 0.4);
        cfg.failure_fraction = 0.5;
        let report = DomainSim::new(cfg).unwrap().run();
        assert_eq!(
            report.approx_weight_live.len(),
            report.approx_weight_with_departed.len()
        );
        assert!(!report.approx_weight_live.is_empty());
        for (live, full) in report
            .approx_weight_live
            .iter()
            .zip(&report.approx_weight_with_departed)
        {
            assert!(
                full >= live,
                "alternative 1 keeps at least as much: {full} vs {live}"
            );
        }
        // With churn active over 6 hours, some departed data exists.
        let extra: f64 = report
            .approx_weight_with_departed
            .iter()
            .zip(&report.approx_weight_live)
            .map(|(f, l)| f - l)
            .sum();
        assert!(extra >= 0.0);
    }

    #[test]
    fn byte_accounting_tracks_messages() {
        let report = DomainSim::new(small_cfg(30, 0.3)).unwrap().run();
        // Every counted message contributed at least header bytes.
        assert!(report.push_bytes >= report.push_messages * 40);
        assert!(report.reconciliation_bytes >= report.reconciliation_messages * 40);
        assert!(report.construction_bytes >= report.construction_messages * 40);
        // Reconciliation tokens carry summaries: far larger than pushes.
        if report.reconciliation_messages > 0 && report.push_messages > 0 {
            let token_avg = report.reconciliation_bytes / report.reconciliation_messages;
            let push_avg = report.push_bytes / report.push_messages;
            assert!(
                token_avg > 10 * push_avg,
                "token {token_avg} vs push {push_avg}"
            );
        }
        assert_eq!(
            report.update_bytes(),
            report.push_bytes + report.reconciliation_bytes
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DomainSim::new(small_cfg(25, 0.3)).unwrap().run();
        let b = DomainSim::new(small_cfg(25, 0.3)).unwrap().run();
        assert_eq!(a.push_messages, b.push_messages);
        assert_eq!(a.reconciliations, b.reconciliations);
        assert!((a.worst_stale_fraction() - b.worst_stale_fraction()).abs() < 1e-12);
    }

    #[test]
    fn fresh_only_policy_never_visits_stale() {
        let mut cfg = small_cfg(40, 0.6); // lax: stale flags accumulate
        cfg.policy = crate::routing::RoutingPolicy::FreshOnly;
        let report = DomainSim::new(cfg).unwrap().run();
        // The policy can only create false negatives from exclusions, and
        // stale-selected FPs never enter V; measured real FP come only
        // from silent failures (down peers believed fresh).
        assert!(report.queries > 0);
        assert!(report.mean_real_fn_fraction() >= 0.0);
    }
}
