//! Aggregated experiment reports.

use std::collections::BTreeMap;

use p2psim::time::SimTime;

use crate::config::SimConfig;
use crate::kernel::MultiDomainOutcome;
use crate::messages::MessageClass;
use crate::peerstate::MessageLedger;
use crate::routing::QueryOutcome;

/// The aggregate of one domain run — everything Figures 4–6 plot.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// Domain size.
    pub n_peers: usize,
    /// Freshness threshold.
    pub alpha: f64,
    /// Horizon in seconds.
    pub horizon_s: f64,
    /// Number of queries sampled.
    pub queries: usize,
    /// Mean |P_Q| over queries.
    pub mean_pq: f64,
    /// Mean ground-truth |QS| over queries.
    pub mean_qs: f64,
    /// Mean worst-case stale-flagged peers in P_Q (Figure 4's FP side).
    pub mean_stale_selected: f64,
    /// Mean worst-case stale-flagged peers outside P_Q (FN side).
    pub mean_stale_unselected: f64,
    /// Mean real false positives per query.
    pub mean_real_fp: f64,
    /// Mean real false negatives per query.
    pub mean_real_fn: f64,
    /// Mean answered (true positives) per query.
    pub mean_answered: f64,
    /// Push messages over the horizon.
    pub push_messages: u64,
    /// Reconciliation messages over the horizon.
    pub reconciliation_messages: u64,
    /// Construction messages (initial localsums + rejoins).
    pub construction_messages: u64,
    /// Query + response messages.
    pub query_messages: u64,
    /// Number of reconciliation rounds.
    pub reconciliations: u64,
    /// Wire bytes of push traffic.
    pub push_bytes: u64,
    /// Wire bytes of reconciliation tokens (per-hop upper bound).
    pub reconciliation_bytes: u64,
    /// Wire bytes of construction traffic (localsum payloads).
    pub construction_bytes: u64,
    /// Encoded size of the GS after the last rebuild, bytes.
    pub gs_bytes: usize,
    /// Distinct cells in the final GS.
    pub gs_cells: usize,
    /// Live nodes in the final GS hierarchy.
    pub gs_nodes: usize,
    /// Member summaries folded by reconciliation rounds —
    /// with the incremental accumulator this scales with the stale
    /// subsets, not with membership × rounds.
    pub reconcile_merged_members: u64,
    /// Live members reconciliation rounds skipped (fresh contribution
    /// reused from the accumulator).
    pub reconcile_skipped_members: u64,
    /// Encoded bytes of the summaries reconciliation actually pulled.
    pub reconcile_delta_bytes: u64,
    /// Final approximate-answer weight per template from the live GS
    /// (§4.3's alternative 2, the paper's choice).
    pub approx_weight_live: Vec<f64>,
    /// The same weights when departed peers' last descriptions are kept
    /// (§4.3's alternative 1).
    pub approx_weight_with_departed: Vec<f64>,
    /// The domain's effective α at the end of the run — equals
    /// [`DomainReport::alpha`] with a fixed α, the converged value with
    /// [`crate::config::SimConfig::adaptive_alpha`] on.
    pub final_alpha: f64,
    /// `(virtual seconds, α)` trajectory of the domain's controller:
    /// the initial point plus one sample per control epoch (just the
    /// initial point with a fixed α).
    pub alpha_trajectory: Vec<(f64, f64)>,
    /// Domain-state errors the event loop swallowed
    /// ([`crate::kernel::SimKernel::error_status`]); 0 on every healthy
    /// run.
    pub domain_errors: u64,
}

impl DomainReport {
    /// Builds the report from raw run artifacts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        cfg: &SimConfig,
        outcomes: &[QueryOutcome],
        counters: &BTreeMap<MessageClass, u64>,
        byte_counters: &BTreeMap<MessageClass, u64>,
        reconciliations: u64,
        gs_bytes: usize,
        gs_cells: usize,
        gs_nodes: usize,
    ) -> Self {
        let q = outcomes.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&QueryOutcome) -> f64| -> f64 { outcomes.iter().map(f).sum::<f64>() / q };
        Self {
            n_peers: cfg.n_peers,
            alpha: cfg.alpha,
            horizon_s: cfg.horizon.as_secs_f64(),
            queries: outcomes.len(),
            mean_pq: mean(&|o| o.pq.len() as f64),
            mean_qs: mean(&|o| o.qs_size as f64),
            mean_stale_selected: mean(&|o| o.stale_selected as f64),
            mean_stale_unselected: mean(&|o| o.stale_unselected as f64),
            mean_real_fp: mean(&|o| o.real_fp as f64),
            mean_real_fn: mean(&|o| o.real_fn as f64),
            mean_answered: mean(&|o| o.answered as f64),
            push_messages: counters.get(&MessageClass::Push).copied().unwrap_or(0),
            reconciliation_messages: counters
                .get(&MessageClass::Reconciliation)
                .copied()
                .unwrap_or(0),
            construction_messages: counters
                .get(&MessageClass::Construction)
                .copied()
                .unwrap_or(0),
            query_messages: counters.get(&MessageClass::Query).copied().unwrap_or(0)
                + counters
                    .get(&MessageClass::QueryResponse)
                    .copied()
                    .unwrap_or(0),
            reconciliations,
            push_bytes: byte_counters.get(&MessageClass::Push).copied().unwrap_or(0),
            reconciliation_bytes: byte_counters
                .get(&MessageClass::Reconciliation)
                .copied()
                .unwrap_or(0),
            construction_bytes: byte_counters
                .get(&MessageClass::Construction)
                .copied()
                .unwrap_or(0),
            gs_bytes,
            gs_cells,
            gs_nodes,
            reconcile_merged_members: 0,
            reconcile_skipped_members: 0,
            reconcile_delta_bytes: 0,
            approx_weight_live: Vec::new(),
            approx_weight_with_departed: Vec::new(),
            final_alpha: cfg.alpha,
            alpha_trajectory: Vec::new(),
            domain_errors: 0,
        }
    }

    /// Total update traffic in wire bytes (push + reconciliation).
    pub fn update_bytes(&self) -> u64 {
        self.push_bytes + self.reconciliation_bytes
    }

    /// Figure 4's y-axis: the worst-case fraction of stale answers — all
    /// stale-flagged partners (FP if selected, FN otherwise) over the
    /// domain size.
    pub fn worst_stale_fraction(&self) -> f64 {
        (self.mean_stale_selected + self.mean_stale_unselected) / self.n_peers as f64
    }

    /// Figure 5's y-axis: the real false-negative fraction over the
    /// domain size.
    pub fn real_fn_fraction(&self) -> f64 {
        self.mean_real_fn / self.n_peers as f64
    }

    /// Mean real-FN per query normalized by ground truth (a recall-style
    /// miss rate).
    pub fn mean_real_fn_fraction(&self) -> f64 {
        if self.mean_qs == 0.0 {
            0.0
        } else {
            self.mean_real_fn / self.mean_qs
        }
    }

    /// Recall: answered / ground truth.
    pub fn mean_recall(&self) -> f64 {
        if self.mean_qs == 0.0 {
            1.0
        } else {
            self.mean_answered / self.mean_qs
        }
    }

    /// Precision: answered / visited.
    pub fn mean_precision(&self) -> f64 {
        let visited = self.mean_answered + self.mean_real_fp;
        if visited == 0.0 {
            1.0
        } else {
            self.mean_answered / visited
        }
    }

    /// Figure 6's y-axis: update messages (push + reconciliation), with
    /// every token *hop* counted — the physical-traffic view.
    pub fn update_messages(&self) -> u64 {
        self.push_messages + self.reconciliation_messages
    }

    /// The paper's §6.1.1 accounting: "during reconciliation, only one
    /// message is propagated among all partner peers" — each round counts
    /// once. The two views bracket Figure 6's reading: the paper counts
    /// a round once, while every hop is traffic on the network.
    pub fn update_messages_token_counted(&self) -> u64 {
        self.push_messages + self.reconciliations
    }

    /// Update messages per node per second — eq. (1)'s measured
    /// counterpart.
    pub fn update_messages_per_node_s(&self) -> f64 {
        self.update_messages() as f64 / (self.n_peers as f64 * self.horizon_s)
    }

    /// All messages of the run.
    pub fn total_messages(&self) -> u64 {
        self.push_messages
            + self.reconciliation_messages
            + self.construction_messages
            + self.query_messages
    }
}

/// The aggregate of one *dynamic* multi-domain run: inter-domain lookups
/// routed while churn, drift and reconciliation were live.
#[derive(Debug, Clone)]
pub struct MultiDomainReport {
    /// Network size.
    pub n_peers: usize,
    /// Live domains at the end of the run (the constructed ones when no
    /// summary peer departed).
    pub n_domains: usize,
    /// Freshness threshold.
    pub alpha: f64,
    /// Horizon in seconds.
    pub horizon_s: f64,
    /// Inter-domain lookups actually posed (down origins skip theirs).
    pub queries: usize,
    /// Mean network-wide recall over the lookups.
    pub mean_recall: f64,
    /// Mean stale answers per lookup (summary-selected peers that were
    /// down or no longer matching).
    pub mean_stale_answers: f64,
    /// Mean per-lookup stale-answer *fraction* of summary routing:
    /// `stale / (stale + summary_results)` averaged over the lookups in
    /// which the summaries selected anybody at all (summary-free
    /// lookups — down origins, cache-only answers — are excluded, not
    /// averaged in as zeros). Cache-recovered answers are excluded
    /// too — no summary vouched for them — so this is exactly the
    /// network-wide form of the per-domain signal the adaptive control
    /// plane steers toward its target.
    pub mean_stale_answer_fraction: f64,
    /// Mean network-wide false negatives per lookup.
    pub mean_false_negatives: f64,
    /// Mean messages per lookup.
    pub mean_messages: f64,
    /// Mean domains visited per lookup.
    pub mean_domains_visited: f64,
    /// Fraction of lookups that met their target.
    pub satisfied_fraction: f64,
    /// Reconciliation rounds summed over all domains.
    pub reconciliations: u64,
    /// Push messages over the horizon (all domains).
    pub push_messages: u64,
    /// Reconciliation token hops over the horizon (all domains).
    pub reconciliation_messages: u64,
    /// Construction messages (initial localsums + rejoins).
    pub construction_messages: u64,
    /// Member summaries folded by reconciliation rounds across all
    /// domains (scales with the stale subsets under incremental GS
    /// maintenance).
    pub reconcile_merged_members: u64,
    /// Live members reconciliation rounds skipped network-wide.
    pub reconcile_skipped_members: u64,
    /// Encoded bytes of the summaries reconciliation actually pulled.
    pub reconcile_delta_bytes: u64,
    /// Cache hits observed during inter-domain flooding.
    pub cache_hits: u64,
    /// Mean virtual seconds between posing a lookup and completing it.
    /// Strictly positive under the latency message plane; 0.0 in
    /// instantaneous mode.
    pub mean_time_to_answer_s: f64,
    /// High-water mark of messages simultaneously in flight on the
    /// message plane (0 in instantaneous mode).
    pub peak_in_flight: u64,
    /// Per-class delivery-latency distribution: `(class, deliveries,
    /// mean in-flight seconds)`, for every class that saw latency-mode
    /// deliveries. Empty in instantaneous mode.
    pub latency_by_class: Vec<(MessageClass, u64, f64)>,
    /// Per-lookup `(virtual time in seconds, recall)` samples, in query
    /// order — the raw series behind recall-over-time analyses.
    pub samples: Vec<(f64, f64)>,
    /// Final effective α of every non-dissolved domain — the converged
    /// α distribution with adaptive α on, a constant vector with a
    /// fixed α.
    pub final_alphas: Vec<f64>,
    /// Mean of [`MultiDomainReport::final_alphas`] (the configured α
    /// when no domain survived).
    pub mean_final_alpha: f64,
    /// Per-domain-slot `(virtual seconds, α)` controller trajectories,
    /// indexed by domain slot (dissolved slots keep the trajectory they
    /// had at dissolution time).
    pub alpha_trajectories: Vec<Vec<(f64, f64)>>,
    /// Completed SP rebirths over the run
    /// ([`crate::config::SimConfig::rebirth`]; 0 when disabled).
    pub rebirths: u64,
    /// `(virtual seconds, live domains)` trajectory: the initial point
    /// plus one sample per dissolution and per rebirth. Empty unless
    /// SP churn ([`crate::config::SimConfig::sp_lifetime`]) is on.
    /// With rebirth enabled this stays near its initial value over
    /// long horizons; without it the count decays monotonically —
    /// `BENCH_rebirth.json`'s stationarity evidence.
    pub domain_count_trajectory: Vec<(f64, usize)>,
    /// Live domains at t = 0 (equals [`MultiDomainReport::n_domains`]
    /// when no SP ever departed).
    pub initial_domains: usize,
    /// Minimum live-domain count ever sampled over the run.
    pub min_live_domains: usize,
    /// Domain-state errors the event loop swallowed
    /// ([`crate::kernel::SimKernel::error_status`]); 0 on every healthy
    /// run.
    pub domain_errors: u64,
}

impl MultiDomainReport {
    /// Builds the report from a finished kernel run.
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        cfg: &SimConfig,
        n_domains: usize,
        outcomes: &[(SimTime, MultiDomainOutcome)],
        ledger: &MessageLedger,
        reconciliations: u64,
        cache_hits: u64,
        peak_in_flight: u64,
    ) -> Self {
        let q = outcomes.len().max(1) as f64;
        let mean = |f: &dyn Fn(&MultiDomainOutcome) -> f64| -> f64 {
            outcomes.iter().map(|(_, o)| f(o)).sum::<f64>() / q
        };
        Self {
            n_peers: cfg.n_peers,
            n_domains,
            alpha: cfg.alpha,
            horizon_s: cfg.horizon.as_secs_f64(),
            queries: outcomes.len(),
            mean_recall: mean(&|o| o.recall()),
            mean_stale_answers: mean(&|o| o.stale_answers as f64),
            mean_stale_answer_fraction: {
                let (sum, cnt) = outcomes.iter().fold((0.0f64, 0usize), |(s, c), (_, o)| {
                    let total = o.stale_answers + o.summary_results;
                    if total == 0 {
                        (s, c)
                    } else {
                        (s + o.stale_answers as f64 / total as f64, c + 1)
                    }
                });
                if cnt == 0 {
                    0.0
                } else {
                    sum / cnt as f64
                }
            },
            mean_false_negatives: mean(&|o| o.false_negatives() as f64),
            mean_messages: mean(&|o| o.messages as f64),
            mean_domains_visited: mean(&|o| o.domains_visited as f64),
            satisfied_fraction: mean(&|o| if o.satisfied { 1.0 } else { 0.0 }),
            reconciliations,
            push_messages: ledger.sent(MessageClass::Push),
            reconciliation_messages: ledger.sent(MessageClass::Reconciliation),
            construction_messages: ledger.sent(MessageClass::Construction),
            reconcile_merged_members: ledger.reconcile_work().merged,
            reconcile_skipped_members: ledger.reconcile_work().skipped,
            reconcile_delta_bytes: ledger.reconcile_work().delta_bytes,
            cache_hits,
            mean_time_to_answer_s: mean(&|o| o.time_to_answer_s),
            peak_in_flight,
            latency_by_class: ledger
                .latency_counters()
                .iter()
                .map(|(&class, &(n, total_us))| {
                    (class, n, total_us as f64 / n.max(1) as f64 / 1_000_000.0)
                })
                .collect(),
            samples: outcomes
                .iter()
                .map(|(t, o)| (t.as_secs_f64(), o.recall()))
                .collect(),
            final_alphas: Vec::new(),
            mean_final_alpha: cfg.alpha,
            alpha_trajectories: Vec::new(),
            rebirths: 0,
            domain_count_trajectory: Vec::new(),
            initial_domains: n_domains,
            min_live_domains: n_domains,
            domain_errors: 0,
        }
    }

    /// Time-weighted mean of the live-domain count over the trajectory
    /// (each sample holds until the next; the last holds to the
    /// horizon). Falls back to the final count when SP churn never
    /// sampled a trajectory. The `BENCH_rebirth.json` stationarity
    /// check compares this against [`MultiDomainReport::initial_domains`].
    pub fn mean_live_domains(&self) -> f64 {
        if self.domain_count_trajectory.is_empty() {
            return self.n_domains as f64;
        }
        let mut weighted = 0.0;
        let mut last_t = 0.0;
        let mut last_n = self.domain_count_trajectory[0].1 as f64;
        for &(t, n) in &self.domain_count_trajectory {
            weighted += last_n * (t - last_t).max(0.0);
            last_t = t;
            last_n = n as f64;
        }
        weighted += last_n * (self.horizon_s - last_t).max(0.0);
        if self.horizon_s > 0.0 {
            weighted / self.horizon_s
        } else {
            last_n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::network::NodeId;

    fn outcome(pq: usize, stale_sel: usize, stale_unsel: usize, fns: usize) -> QueryOutcome {
        QueryOutcome {
            pq: (0..pq as u32).map(NodeId).collect(),
            visited: (0..pq as u32).map(NodeId).collect(),
            answered: pq.saturating_sub(1),
            qs_size: pq,
            stale_selected: stale_sel,
            stale_unselected: stale_unsel,
            real_fp: 1,
            real_fn: fns,
            messages: 1 + 2 * pq as u64,
        }
    }

    fn report(outcomes: &[QueryOutcome]) -> DomainReport {
        let cfg = SimConfig::paper_defaults(100, 0.3);
        let mut counters = BTreeMap::new();
        counters.insert(MessageClass::Push, 50u64);
        counters.insert(MessageClass::Reconciliation, 30u64);
        counters.insert(MessageClass::Query, 200u64);
        let mut bytes = BTreeMap::new();
        bytes.insert(MessageClass::Push, 50u64 * 41);
        bytes.insert(MessageClass::Reconciliation, 30u64 * 2048);
        DomainReport::from_run(&cfg, outcomes, &counters, &bytes, 3, 4096, 40, 70)
    }

    #[test]
    fn fractions_and_messages() {
        let outs = vec![outcome(10, 2, 8, 1), outcome(10, 4, 6, 3)];
        let r = report(&outs);
        assert_eq!(r.queries, 2);
        assert!((r.mean_pq - 10.0).abs() < 1e-12);
        // (3 + 7) / 100.
        assert!((r.worst_stale_fraction() - 0.10).abs() < 1e-12);
        assert!((r.real_fn_fraction() - 0.02).abs() < 1e-12);
        assert_eq!(r.update_messages(), 80);
        let per_node_s = r.update_messages_per_node_s();
        assert!((per_node_s - 80.0 / (100.0 * r.horizon_s)).abs() < 1e-15);
        assert_eq!(r.total_messages(), 50 + 30 + 200);
    }

    #[test]
    fn recall_precision() {
        let outs = vec![outcome(10, 0, 0, 1)];
        let r = report(&outs);
        // answered 9 of qs 10.
        assert!((r.mean_recall() - 0.9).abs() < 1e-12);
        assert!((r.mean_precision() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = report(&[]);
        assert_eq!(r.queries, 0);
        assert_eq!(r.worst_stale_fraction(), 0.0);
        assert_eq!(r.mean_recall(), 1.0);
        assert_eq!(r.mean_precision(), 1.0);
    }
}
