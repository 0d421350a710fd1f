//! The full multi-domain system facade: §5.2.2's inter-domain query
//! routing with partial- and total-lookup termination.
//!
//! When a domain `d_i` answers fewer than the `C_t` results the user
//! requires, the paper floods outward exploiting *group locality*: the
//! summary peer sends a flooding request to the peers that answered
//! (`P_i`) **and** to the originator; each of them forwards the query to
//! its neighbors *outside its domain* with a limited TTL, stopping when a
//! new domain is reached. The SP additionally contacts the summary peers
//! it knows through long-range links, "accelerating covering a large
//! number of domains". Routing terminates when enough results are
//! gathered (*partial lookup*) or the network is covered (*total
//! lookup*).
//!
//! The protocol itself lives in the unified kernel
//! ([`crate::kernel::SimKernel::route_live`]) and always runs against the
//! *live* per-domain GS/CL state. [`MultiDomainSystem`] is the frozen
//! t = 0 view (construction + fresh global summaries, no churn) the
//! static experiments and tests use; for routing *under* churn see
//! [`crate::kernel::MultiDomainSim`].

use p2psim::network::{Network, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::construction::Domains;
use crate::error::P2pError;
use crate::kernel::SimKernel;
pub use crate::kernel::{LookupTarget, MultiDomainOutcome};

/// A constructed multi-domain summary-management system over a power-law
/// topology: the static-network view of the whole paper (construction +
/// global summaries + inter-domain query processing).
pub struct MultiDomainSystem {
    kernel: SimKernel,
}

impl MultiDomainSystem {
    /// Builds the system: topology → SP election → domain construction →
    /// per-peer data + local summaries → per-domain global summaries →
    /// SP long-range links.
    pub fn build(cfg: &SimConfig, domain_target: usize) -> Result<Self, P2pError> {
        Ok(Self {
            kernel: SimKernel::networked(*cfg, domain_target, None)?,
        })
    }

    /// Cache hits observed during flooding so far.
    pub fn cache_hits(&self) -> u64 {
        self.kernel.cache_hits()
    }

    /// The underlying network (liveness, topology).
    pub fn network(&self) -> &Network {
        self.kernel.net.as_ref().expect("networked kernel")
    }

    /// The domain map.
    pub fn domains(&self) -> &Domains {
        self.kernel.topo.as_ref().expect("networked kernel")
    }

    /// Ground truth: all peers currently matching `template`.
    pub fn true_matches(&self, template: usize) -> Vec<NodeId> {
        self.kernel.true_matches(template)
    }

    /// Routes a query posed at `origin` through the network (§5.2.2).
    pub fn route(
        &mut self,
        origin: NodeId,
        template: usize,
        target: LookupTarget,
    ) -> MultiDomainOutcome {
        self.kernel.route_live(origin, template, target)
    }

    /// Convenience: average outcome over `samples` random origins.
    pub fn route_averaged(
        &mut self,
        template: usize,
        target: LookupTarget,
        samples: usize,
        seed: u64,
    ) -> (f64, f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.network().len() as u32;
        let mut msgs = 0.0;
        let mut recall = 0.0;
        let mut domains = 0.0;
        let mut taken = 0usize;
        let mut guard = 0usize;
        while taken < samples && guard < samples * 50 {
            guard += 1;
            let origin = NodeId(rng.gen_range(0..n));
            if self.domains().assignment[origin.index()].is_none() {
                continue;
            }
            let out = self.route(origin, template, target);
            msgs += out.messages as f64;
            recall += out.recall();
            domains += out.domains_visited as f64;
            taken += 1;
        }
        let k = taken.max(1) as f64;
        (msgs / k, recall / k, domains / k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::time::SimTime;

    fn cfg(n: usize, seed: u64) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n, 0.3);
        c.horizon = SimTime::from_hours(1);
        c.records_per_peer = 10;
        c.seed = seed;
        c
    }

    #[test]
    fn build_covers_network_with_domains() {
        let sys = MultiDomainSystem::build(&cfg(300, 1), 40).unwrap();
        assert!(sys.domains().superpeers.len() >= 6);
        let assigned = sys.domains().assigned_count();
        assert!(assigned as f64 > 0.9 * (300 - sys.domains().superpeers.len()) as f64);
    }

    #[test]
    fn total_lookup_finds_everything() {
        let mut sys = MultiDomainSystem::build(&cfg(250, 2), 30).unwrap();
        let matches = sys.true_matches(0);
        assert!(!matches.is_empty(), "workload guarantees ~10% matches");
        // From several origins, total lookup reaches full recall: the GS
        // layer is exact on crisp predicates, and the SP long links +
        // flooding cover all domains.
        let origin = NodeId(
            (0..250u32)
                .find(|&i| sys.domains().assignment[i as usize].is_some())
                .expect("some partner"),
        );
        let out = sys.route(origin, 0, LookupTarget::Total);
        assert_eq!(out.results, out.results_total, "total lookup recall");
        assert!(out.satisfied);
        assert!(out.domains_visited >= 2, "must have crossed domains");
        assert_eq!(
            out.stale_answers, 0,
            "fresh static system has no stale answers"
        );
    }

    #[test]
    fn partial_lookup_stops_early() {
        let mut sys = MultiDomainSystem::build(&cfg(250, 3), 30).unwrap();
        let origin = NodeId(
            (0..250u32)
                .find(|&i| sys.domains().assignment[i as usize].is_some())
                .expect("some partner"),
        );
        let total = sys.route(origin, 0, LookupTarget::Total);
        let partial = sys.route(origin, 0, LookupTarget::Partial(2));
        assert!(partial.results >= 2.min(partial.results_total));
        assert!(
            partial.messages <= total.messages,
            "partial {} must not exceed total {}",
            partial.messages,
            total.messages
        );
        assert!(partial.domains_visited <= total.domains_visited);
    }

    #[test]
    fn partial_lookup_message_cost_grows_with_ct() {
        let mut sys = MultiDomainSystem::build(&cfg(300, 4), 30).unwrap();
        let (m1, _, d1) = sys.route_averaged(0, LookupTarget::Partial(1), 10, 9);
        let (m8, _, d8) = sys.route_averaged(0, LookupTarget::Partial(8), 10, 9);
        assert!(m8 >= m1, "more results need more messages: {m8} vs {m1}");
        assert!(d8 >= d1, "and more domains: {d8} vs {d1}");
    }

    #[test]
    fn flood_ttl_is_respected_not_clamped() {
        // The configured TTL must reach the routing layer as-is (the old
        // implementation silently clamped it to 2).
        let mut base = cfg(250, 6);
        base.flood_ttl = 1;
        let mut narrow = MultiDomainSystem::build(&base, 30).unwrap();
        base.flood_ttl = 4;
        let mut wide = MultiDomainSystem::build(&base, 30).unwrap();
        let origin = NodeId(
            (0..250u32)
                .find(|&i| narrow.domains().assignment[i as usize].is_some())
                .expect("some partner"),
        );
        let out_narrow = narrow.route(origin, 0, LookupTarget::Total);
        let out_wide = wide.route(origin, 0, LookupTarget::Total);
        // A wider flood forwards strictly more messages on the same
        // topology and query load.
        assert!(
            out_wide.messages > out_narrow.messages,
            "TTL 4 ({}) must out-message TTL 1 ({})",
            out_wide.messages,
            out_narrow.messages
        );
    }

    #[test]
    fn caches_warm_up_and_cut_costs() {
        let mut sys = MultiDomainSystem::build(&cfg(300, 8), 30).unwrap();
        let origin = NodeId(
            (0..300u32)
                .find(|&i| sys.domains().assignment[i as usize].is_some())
                .expect("some partner"),
        );
        // Warm the caches with a total lookup, then measure a partial
        // lookup: cached neighbors let it satisfy `C_t` with fewer (or at
        // worst equal) domain visits than the cold system needed.
        let need = sys.true_matches(0).len().clamp(2, 10);
        let mut cold_sys = MultiDomainSystem::build(&cfg(300, 8), 30).unwrap();
        let cold = cold_sys.route(origin, 0, LookupTarget::Partial(need));

        let _ = sys.route(origin, 0, LookupTarget::Total); // warm-up
        let warm = sys.route(origin, 0, LookupTarget::Partial(need));
        assert!(
            warm.domains_visited <= cold.domains_visited,
            "warm visited {} domains vs cold {}",
            warm.domains_visited,
            cold.domains_visited
        );
        assert!(warm.satisfied);
        assert!(sys.cache_hits() > 0, "flooded neighbors served from cache");
        // Total-lookup recall is unaffected by caching.
        let total_warm = sys.route(origin, 0, LookupTarget::Total);
        assert_eq!(total_warm.results, total_warm.results_total);
    }

    #[test]
    fn cached_answers_never_inflate_results() {
        // Cache entries are validated against ground truth, so results
        // never exceed the true match count.
        let mut sys = MultiDomainSystem::build(&cfg(200, 9), 25).unwrap();
        for i in 0..10u32 {
            let origin = NodeId(i * 7 % 200);
            if sys.domains().assignment[origin.index()].is_none() {
                continue;
            }
            let out = sys.route(origin, 0, LookupTarget::Total);
            assert!(out.results <= out.results_total);
        }
    }

    #[test]
    fn unassigned_origin_yields_empty_outcome() {
        let mut sys = MultiDomainSystem::build(&cfg(100, 5), 20).unwrap();
        // A superpeer is not a partner: route from it directly is not
        // defined by §5 (queries are posed at client peers).
        let sp = sys.domains().superpeers[0];
        let out = sys.route(sp, 0, LookupTarget::Partial(1));
        assert_eq!(out.messages, 0);
        assert!(!out.satisfied);
    }

    #[test]
    fn deterministic_construction() {
        let a = MultiDomainSystem::build(&cfg(150, 7), 25).unwrap();
        let b = MultiDomainSystem::build(&cfg(150, 7), 25).unwrap();
        assert_eq!(a.domains().superpeers, b.domains().superpeers);
        assert_eq!(a.domains().assignment, b.domains().assignment);
        assert_eq!(a.true_matches(0), b.true_matches(0));
    }
}
