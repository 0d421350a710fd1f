//! Simulation parameters — the paper's Table 3 as a typed configuration.
//!
//! | parameter | paper value |
//! |---|---|
//! | local summary lifetime `L` | skewed, mean 3 h / median 1 h |
//! | number of peers `n` | 16 – 5000 |
//! | number of queries `q` | 200 |
//! | matching nodes / query hits | 10 % |
//! | freshness threshold `α` | 0.1 – 0.8 |
//!
//! plus §6.2.1's network and workload constants: a power-law topology of
//! average degree 4, a query rate of 0.00083 queries/node/s (one query per
//! node per 20 minutes, after Yang & Garcia-Molina \[5\]), TTL 3 for the
//! flooding baseline, and `k = 3.5` long-range links between summary peers
//! in the inter-domain cost term.
//!
//! ## Defaults and determinism
//!
//! [`SimConfig::paper_defaults`] reproduces Table 3 at a given domain
//! size and α: lognormal lifetimes (mean 3 h / median 1 h), 30 min
//! mean downtime, 30 % silent failures, 200 queries over a 12 h
//! horizon, 10 % match fraction, `flood_ttl` 3, `sumpeer_ttl` 2,
//! `topology_m` 2, seed 42 — and every *optional* subsystem off:
//!
//! | knob | default | when enabled |
//! |---|---|---|
//! | [`SimConfig::delivery`] | [`DeliveryMode::Instantaneous`] | [`DeliveryMode::Latency`] schedules every message as a virtual-time delivery event |
//! | [`SimConfig::sp_lifetime`] | `None` (immortal SPs) | `Some(dist)` schedules §4.3 SP departures |
//! | [`SimConfig::rebirth`] | `false` (terminal dissolutions) | `true` re-elects a replacement SP per dissolved domain |
//! | [`SimConfig::control`] | `None` ⇒ α fixed at [`SimConfig::alpha`] | `Some(policy)` runs the per-domain feedback control plane |
//! | [`SimConfig::drift_spread`] | `1.0` (homogeneous) | `> 1` gives domains log-spaced drift rates |
//! | [`SimConfig::zipf_exponent`] | `None` (round-robin) | `Some(s)` draws templates from a Zipf(s) law |
//!
//! What the paper fixes is a constant, not a knob:
//! [`SimConfig::INTERDOMAIN_K`] (`k = 3.5` long links per SP),
//! [`CONVERSATION_TIMEOUT`] (10 min) and
//! [`crate::messages::BANDWIDTH_BYTES_PER_S`] (10 Mbit/s) on the
//! latency plane, and the topology's plane side and link latencies
//! ([`p2psim::topology`]).
//!
//! The determinism contract: every run is reproducible per
//! [`SimConfig::seed`] in both delivery modes, and each disabled
//! subsystem schedules **no** events and draws **no** randomness — so
//! turning one on never perturbs the event/RNG streams of
//! configurations that leave it off. The seed figure pipelines (and
//! the byte-identity tests) depend on this.

use p2psim::churn::LifetimeDistribution;
use p2psim::time::SimTime;

use crate::control::ControlPolicy;
use crate::error::P2pError;
use crate::routing::RoutingPolicy;

/// How protocol messages move through virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryMode {
    /// The zero-transit message plane — the seed semantics every
    /// Figure 4–7 driver uses. Each message is counted and delivered
    /// through the same handler as on the latency plane, but within the
    /// event that sent it: no virtual time elapses between send and
    /// effect.
    Instantaneous,
    /// Every message becomes a scheduled delivery event whose firing
    /// time is drawn from topology link latencies: reconciliation rings,
    /// floods and §5.2.2 lookups take virtual time, and peers that churn
    /// out mid-conversation actually drop tokens. Transit is
    /// propagation plus serialization at
    /// [`crate::messages::BANDWIDTH_BYTES_PER_S`]; multi-event
    /// conversations time out after [`CONVERSATION_TIMEOUT`].
    Latency {
        /// Fallback one-way latency for hops with no known topology link
        /// (the implicit SP of the single-domain simulation, SP
        /// long-range links, selective-walk partners).
        default_hop: SimTime,
    },
}

/// Watchdog for multi-event conversations on the latency plane
/// (reconciliation rings, inter-domain lookups): a conversation whose
/// token or branches went silent for this long completes with what it
/// gathered.
pub const CONVERSATION_TIMEOUT: SimTime = SimTime::from_mins(10);

/// All tunables of a summary-management experiment.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Domain / network size (Table 3: 16–5000).
    pub n_peers: usize,
    /// Freshness threshold α gating reconciliation (Table 3: 0.1–0.8).
    pub alpha: f64,
    /// Local-summary lifetime distribution (Table 3's skewed L).
    pub lifetime: LifetimeDistribution,
    /// Mean downtime between sessions, seconds.
    pub mean_downtime_s: f64,
    /// Fraction of departures that are silent failures (§4.3).
    pub failure_fraction: f64,
    /// Number of query samples (Table 3: 200).
    pub query_count: usize,
    /// Fraction of peers matching each query (Table 3: 10 %).
    pub match_fraction: f64,
    /// Number of distinct query templates in the workload.
    pub template_count: usize,
    /// Records per peer database.
    pub records_per_peer: usize,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Routing policy (worst-case `All` for Figure 4; `FreshOnly` for
    /// Figure 5).
    pub policy: RoutingPolicy,
    /// TTL of the pure-flooding baseline (§6.2.3: 3).
    pub flood_ttl: u32,
    /// TTL of the `sumpeer` construction broadcast (§4.1's example: 2).
    pub sumpeer_ttl: u32,
    /// Barabási–Albert attachment parameter (m = 2 → average degree 4).
    pub topology_m: usize,
    /// Message delivery mode: [`DeliveryMode::Instantaneous`] reproduces
    /// the seed figures byte-identically; [`DeliveryMode::Latency`]
    /// routes every message through virtual-time delivery events.
    pub delivery: DeliveryMode,
    /// Summary-peer session lifetimes. `None` (the default) keeps SPs
    /// immortal; `Some(dist)` schedules one departure per SP from the
    /// distribution, mid-run (§4.3's release + re-home protocol).
    pub sp_lifetime: Option<LifetimeDistribution>,
    /// Summary-peer *rebirth* (§4.3 completed): `true` re-elects a
    /// replacement SP from a dissolved domain's live hub candidates —
    /// latency-aware on the message plane
    /// ([`crate::construction::ElectionPolicy::LatencyAware`]), by
    /// degree order in instantaneous mode — re-homes the orphaned
    /// partners to the newborn SP, and seeds its global summary from
    /// the retained member descriptions so the first pull is a delta,
    /// not a from-scratch rebuild. `false` (the default) keeps today's
    /// terminal dissolution: departed SPs never return, domain counts
    /// decay monotonically, and — critically — the kernel schedules no
    /// election/takeover events and draws no extra randomness, so
    /// event and RNG streams stay byte-identical to the pre-rebirth
    /// binaries in both delivery modes. Only meaningful together with
    /// [`SimConfig::sp_lifetime`].
    pub rebirth: bool,
    /// The per-domain adaptive α control plane. `None` (the default)
    /// keeps every domain at [`SimConfig::alpha`] for the whole run —
    /// the paper's single threshold, with no control ticks and
    /// byte-identical event and RNG streams. `Some(policy)` turns on
    /// the per-domain feedback control plane ([`crate::control`]).
    pub control: Option<ControlPolicy>,
    /// Heterogeneous per-domain drift: domain `d` of `D` drifts at a
    /// rate scaled by `drift_spread^(2d/(D−1) − 1)` — log-spaced rates
    /// in `[1/spread, spread]` across domains. `1.0` (the default)
    /// keeps every domain on Table 3's homogeneous lifetime `L` and the
    /// legacy event streams byte-identical. This is the scenario axis
    /// adaptive α has something to find on.
    pub drift_spread: f64,
    /// Zipf-distributed query-template popularity: `Some(s)` draws each
    /// scheduled query's template with probability ∝ `1/(rank+1)^s`
    /// instead of round-robin. `None` (the default) keeps the legacy
    /// round-robin schedule and its RNG stream untouched.
    pub zipf_exponent: Option<f64>,
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
}

/// Validates one lifetime distribution's parameters: positive, finite,
/// and (for the lognormal) mean ≥ median — `lognormal_mean_median`
/// takes `√(2·ln(mean/median))`, which is NaN for mean < median.
fn validate_lifetime(dist: &LifetimeDistribution, what: &str) -> Result<(), P2pError> {
    let ok = |x: f64| x.is_finite() && x > 0.0;
    let valid = match *dist {
        LifetimeDistribution::LogNormalMeanMedian { mean_s, median_s } => {
            ok(mean_s) && ok(median_s) && mean_s >= median_s
        }
        LifetimeDistribution::Exponential { mean_s } => ok(mean_s),
        LifetimeDistribution::Weibull { shape, scale_s } => ok(shape) && ok(scale_s),
    };
    if valid {
        Ok(())
    } else {
        Err(P2pError::BadConfig(format!(
            "{what} parameters must be finite and positive \
             (lognormal additionally needs mean >= median): {dist:?}"
        )))
    }
}

impl SimConfig {
    /// Table 3 defaults at a given domain size and α.
    pub fn paper_defaults(n_peers: usize, alpha: f64) -> Self {
        Self {
            n_peers,
            alpha,
            lifetime: LifetimeDistribution::paper_default(),
            mean_downtime_s: 1800.0,
            failure_fraction: 0.3,
            query_count: 200,
            match_fraction: 0.10,
            template_count: 3,
            records_per_peer: 24,
            horizon: SimTime::from_hours(12),
            policy: RoutingPolicy::All,
            flood_ttl: 3,
            sumpeer_ttl: 2,
            topology_m: 2,
            delivery: DeliveryMode::Instantaneous,
            sp_lifetime: None,
            rebirth: false,
            control: None,
            drift_spread: 1.0,
            zipf_exponent: None,
            seed: 42,
        }
    }

    /// The latency plane's default hop when it is enabled.
    pub fn latency(&self) -> Option<SimTime> {
        match self.delivery {
            DeliveryMode::Instantaneous => None,
            DeliveryMode::Latency { default_hop } => Some(default_hop),
        }
    }

    /// Average long-range degree between summary peers (§6.2.1's
    /// `k = 3.5`); the kernel links each SP to `round(k)` others.
    pub const INTERDOMAIN_K: f64 = 3.5;

    /// The paper's query rate: 0.00083 queries per node per second
    /// ("1 query per node per 20 mns").
    pub const QUERY_RATE_PER_NODE_S: f64 = 0.00083;

    /// The domain sizes the figures sweep.
    pub const DOMAIN_SIZES: [usize; 7] = [16, 50, 100, 500, 1000, 2000, 5000];

    /// The α values of Figure 4.
    pub const ALPHAS: [f64; 4] = [0.1, 0.3, 0.5, 0.8];

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), P2pError> {
        if self.n_peers == 0 {
            return Err(P2pError::BadConfig("n_peers must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(P2pError::BadConfig(format!(
                "alpha {} not in [0,1]",
                self.alpha
            )));
        }
        if !(0.0..=1.0).contains(&self.match_fraction) {
            return Err(P2pError::BadConfig("match_fraction not in [0,1]".into()));
        }
        if !(0.0..=1.0).contains(&self.failure_fraction) {
            return Err(P2pError::BadConfig("failure_fraction not in [0,1]".into()));
        }
        if self.template_count == 0 || self.template_count > 3 {
            // The medical CBK reserves 3 diseases for templates and the
            // rest as background noise (see `workload`).
            return Err(P2pError::BadConfig("template_count must be 1..=3".into()));
        }
        if self.query_count == 0 {
            return Err(P2pError::BadConfig("query_count must be >= 1".into()));
        }
        if !(1..=8).contains(&self.flood_ttl) {
            // The routing layer honors the configured TTL verbatim (no
            // silent clamping), so out-of-range values are rejected here:
            // 0 never leaves the domain, and beyond ~8 a degree-4
            // power-law flood covers any Table 3 network many times over.
            return Err(P2pError::BadConfig(format!(
                "flood_ttl {} not in 1..=8",
                self.flood_ttl
            )));
        }
        if self.sumpeer_ttl == 0 {
            return Err(P2pError::BadConfig("sumpeer_ttl must be >= 1".into()));
        }
        if self.latency() == Some(SimTime::ZERO) {
            // `SimTime` is unsigned microseconds, so negative and
            // non-finite hops cannot be represented; zero is the one
            // degenerate value left and it would let "unknown" hops
            // (implicit SP, long links, walks) transit for free.
            return Err(P2pError::BadConfig(
                "latency default_hop must be positive".into(),
            ));
        }
        if self
            .latency()
            .is_some_and(|hop| hop >= CONVERSATION_TIMEOUT)
        {
            // A conversation's messages must land before its watchdog
            // fires: the kernel drops a conversation once it ends, and
            // a message arriving after that finds nothing to act on.
            return Err(P2pError::BadConfig(format!(
                "latency default_hop must be below the {} s conversation timeout",
                CONVERSATION_TIMEOUT.as_secs_f64()
            )));
        }
        validate_lifetime(&self.lifetime, "lifetime")?;
        if let Some(dist) = &self.sp_lifetime {
            validate_lifetime(dist, "sp_lifetime")?;
        }
        if let Some(policy) = &self.control {
            policy.validate()?;
        }
        if !(self.drift_spread.is_finite() && self.drift_spread >= 1.0) {
            return Err(P2pError::BadConfig(format!(
                "drift_spread {} must be finite and >= 1",
                self.drift_spread
            )));
        }
        if let Some(s) = self.zipf_exponent {
            if !(s.is_finite() && s >= 0.0) {
                return Err(P2pError::BadConfig(format!(
                    "zipf_exponent {s} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }

    /// Derived: expected number of peers matching one query.
    pub fn expected_hits(&self) -> f64 {
        self.match_fraction * self.n_peers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = SimConfig::paper_defaults(500, 0.3);
        assert_eq!(c.n_peers, 500);
        assert_eq!(c.alpha, 0.3);
        assert_eq!(c.query_count, 200);
        assert_eq!(c.match_fraction, 0.10);
        assert_eq!(c.flood_ttl, 3);
        assert_eq!(c.sumpeer_ttl, 2);
        assert_eq!(c.topology_m, 2, "average degree 4");
        c.validate().unwrap();
        match c.lifetime {
            LifetimeDistribution::LogNormalMeanMedian { mean_s, median_s } => {
                assert_eq!(mean_s, 3.0 * 3600.0);
                assert_eq!(median_s, 3600.0);
            }
            other => panic!("wrong lifetime distribution {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.alpha = 1.5;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.n_peers = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.template_count = 9;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.match_fraction = -0.1;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.flood_ttl = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.flood_ttl = 9;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.flood_ttl = 4;
        c.validate().unwrap();
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.sumpeer_ttl = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_bounds_lifetimes() {
        // Main lifetime: degenerate lognormal parameters are rejected
        // (mean < median yields a NaN sigma at sampling time).
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.lifetime = LifetimeDistribution::LogNormalMeanMedian {
            mean_s: 100.0,
            median_s: 3600.0,
        };
        assert!(c.validate().is_err());

        // sp_lifetime: zero / negative / non-finite parameters rejected.
        for bad in [
            LifetimeDistribution::Exponential { mean_s: 0.0 },
            LifetimeDistribution::Exponential { mean_s: -5.0 },
            LifetimeDistribution::Exponential { mean_s: f64::NAN },
            LifetimeDistribution::Weibull {
                shape: 0.0,
                scale_s: 100.0,
            },
            LifetimeDistribution::LogNormalMeanMedian {
                mean_s: f64::INFINITY,
                median_s: 3600.0,
            },
        ] {
            let mut c = SimConfig::paper_defaults(100, 0.3);
            c.sp_lifetime = Some(bad);
            assert!(c.validate().is_err(), "{bad:?} must be rejected");
        }
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.sp_lifetime = Some(LifetimeDistribution::Exponential { mean_s: 7200.0 });
        c.validate().unwrap();
    }

    #[test]
    fn validation_bounds_latency_default_hop() {
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.delivery = DeliveryMode::Latency {
            default_hop: SimTime::ZERO,
        };
        assert!(c.validate().is_err());
        c.delivery = DeliveryMode::Latency {
            default_hop: SimTime::from_millis(50),
        };
        c.validate().unwrap();
        assert_eq!(c.latency(), Some(SimTime::from_millis(50)));
        // A hop must be shorter than the conversation watchdog.
        for (hop, ok) in [
            (CONVERSATION_TIMEOUT, false),
            (SimTime::from_hours(1), false),
            (SimTime(CONVERSATION_TIMEOUT.0 - 1), true),
        ] {
            c.delivery = DeliveryMode::Latency { default_hop: hop };
            assert_eq!(c.validate().is_ok(), ok, "default_hop {hop:?}");
        }
    }

    #[test]
    fn validation_bounds_control_knobs() {
        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.control = Some(ControlPolicy::adaptive_default(0.2));
        c.validate().unwrap();
        c.control = Some(ControlPolicy {
            alpha_min: 0.6,
            alpha_max: 0.4,
            ..ControlPolicy::adaptive_default(0.2)
        });
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.drift_spread = 0.5;
        assert!(c.validate().is_err());
        c.drift_spread = f64::NAN;
        assert!(c.validate().is_err());
        c.drift_spread = 4.0;
        c.validate().unwrap();

        let mut c = SimConfig::paper_defaults(100, 0.3);
        c.zipf_exponent = Some(-1.0);
        assert!(c.validate().is_err());
        c.zipf_exponent = Some(1.2);
        c.validate().unwrap();
    }

    #[test]
    fn default_control_policy_is_fixed_at_alpha() {
        let c = SimConfig::paper_defaults(100, 0.3);
        assert!(c.control.is_none());
        assert_eq!(c.drift_spread, 1.0);
        assert!(c.zipf_exponent.is_none());
    }

    #[test]
    fn expected_hits() {
        let c = SimConfig::paper_defaults(2000, 0.3);
        assert!((c.expected_hits() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn delivery_defaults_to_instantaneous() {
        // The escape hatch the figure drivers rely on: unless asked for,
        // the message plane is off and PR 1 semantics apply verbatim.
        let c = SimConfig::paper_defaults(100, 0.3);
        assert_eq!(c.delivery, DeliveryMode::Instantaneous);
        assert!(c.latency().is_none());
        assert!(c.sp_lifetime.is_none());
        assert!(!c.rebirth, "SP rebirth is opt-in");
    }
}
