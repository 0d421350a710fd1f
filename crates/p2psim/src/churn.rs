//! Churn: node session schedules.
//!
//! §6.2.1 assumes node lifetimes follow a skewed distribution with mean
//! 3 h and median 1 h (Table 3); §4.3 observes that "the rate of node
//! arrival/departure is very important" compared to data modification.
//! A [`SessionSchedule`] pre-computes the join/leave event stream of every
//! node over a horizon so the protocol simulator can replay it
//! deterministically.

use rand::Rng;

use crate::network::NodeId;
use crate::rng::{exponential, lognormal_mean_median};
use crate::time::SimTime;

/// Lifetime (session length) distributions.
#[derive(Debug, Clone, Copy)]
pub enum LifetimeDistribution {
    /// Lognormal pinned by mean and median — the paper's Table 3
    /// ("skewed distribution, Mean=3h, Median=1h").
    LogNormalMeanMedian {
        /// Mean session length in seconds.
        mean_s: f64,
        /// Median session length in seconds.
        median_s: f64,
    },
    /// Exponential sessions (memoryless baseline).
    Exponential {
        /// Mean session length in seconds.
        mean_s: f64,
    },
}

impl LifetimeDistribution {
    /// The paper's Table 3 distribution.
    pub fn paper_default() -> Self {
        Self::LogNormalMeanMedian {
            mean_s: 3.0 * 3600.0,
            median_s: 3600.0,
        }
    }

    /// Draws one session length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let secs = match *self {
            Self::LogNormalMeanMedian { mean_s, median_s } => {
                lognormal_mean_median(rng, mean_s, median_s)
            }
            Self::Exponential { mean_s } => exponential(rng, mean_s),
        };
        SimTime::from_secs_f64(secs.max(1.0))
    }
}

/// Churn configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Session (up-time) length distribution.
    pub lifetime: LifetimeDistribution,
    /// Mean downtime between sessions, in seconds (exponential).
    pub mean_downtime_s: f64,
    /// Fraction of departures that are *failures* (no goodbye message),
    /// vs graceful leaves. §4.3 treats the two differently.
    pub failure_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            lifetime: LifetimeDistribution::paper_default(),
            mean_downtime_s: 1800.0,
            failure_fraction: 0.3,
        }
    }
}

/// One liveness transition of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The node connects.
    Join(NodeId),
    /// The node disconnects politely (sends its goodbyes first).
    Leave(NodeId),
    /// The node crashes (no notification to anyone).
    Fail(NodeId),
}

impl SessionEvent {
    /// The node the event concerns.
    pub fn node(&self) -> NodeId {
        match *self {
            SessionEvent::Join(n) | SessionEvent::Leave(n) | SessionEvent::Fail(n) => n,
        }
    }
}

/// A deterministic, time-ordered stream of session events.
#[derive(Debug, Clone, Default)]
pub struct SessionSchedule {
    events: Vec<(SimTime, SessionEvent)>,
}

impl SessionSchedule {
    /// Generates a schedule for `n` nodes over `[0, horizon]`. All nodes
    /// start up (the paper's construction phase assumes a populated
    /// domain); their first departure is drawn from the residual of the
    /// lifetime distribution.
    pub fn generate<R: Rng + ?Sized>(
        n: usize,
        horizon: SimTime,
        cfg: &ChurnConfig,
        rng: &mut R,
    ) -> Self {
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        Self::generate_for(&nodes, horizon, cfg, rng)
    }

    /// Generates a schedule for an explicit node set — the multi-domain
    /// kernel churns partner peers only (summary peers stay up, §4.3's
    /// SP dynamicity being a separate protocol).
    pub fn generate_for<R: Rng + ?Sized>(
        nodes: &[NodeId],
        horizon: SimTime,
        cfg: &ChurnConfig,
        rng: &mut R,
    ) -> Self {
        let mut events: Vec<(SimTime, SessionEvent)> = Vec::new();
        for &node in nodes {
            let mut t = SimTime::ZERO;
            // First session: already in progress at t=0.
            loop {
                let up = cfg.lifetime.sample(rng);
                t += up;
                if t > horizon {
                    break;
                }
                let ev = if rng.gen_bool(cfg.failure_fraction.clamp(0.0, 1.0)) {
                    SessionEvent::Fail(node)
                } else {
                    SessionEvent::Leave(node)
                };
                events.push((t, ev));
                let down = SimTime::from_secs_f64(exponential(rng, cfg.mean_downtime_s));
                t += down;
                if t > horizon {
                    break;
                }
                events.push((t, SessionEvent::Join(node)));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        Self { events }
    }

    /// The ordered event stream.
    pub fn events(&self) -> &[(SimTime, SessionEvent)] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no churn occurs in the horizon.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Average departures (leave + fail) per node per second over the
    /// horizon — the paper's connection/disconnection rate.
    pub fn departure_rate(&self, n: usize, horizon: SimTime) -> f64 {
        if n == 0 || horizon == SimTime::ZERO {
            return 0.0;
        }
        let departures = self
            .events
            .iter()
            .filter(|(_, e)| !matches!(e, SessionEvent::Join(_)))
            .count();
        departures as f64 / (n as f64 * horizon.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_time_ordered_and_alternating() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ChurnConfig::default();
        let horizon = SimTime::from_hours(12);
        let s = SessionSchedule::generate(50, horizon, &cfg, &mut rng);
        assert!(!s.is_empty());
        // Ordered.
        for w in s.events().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Per node: strictly alternating depart / join starting with a
        // departure (everyone starts up).
        for i in 0..50u32 {
            let mine: Vec<&SessionEvent> = s
                .events()
                .iter()
                .filter(|(_, e)| e.node() == NodeId(i))
                .map(|(_, e)| e)
                .collect();
            let mut expect_departure = true;
            for e in mine {
                match e {
                    SessionEvent::Join(_) => {
                        assert!(!expect_departure, "join before departure");
                        expect_departure = true;
                    }
                    _ => {
                        assert!(expect_departure, "double departure");
                        expect_departure = false;
                    }
                }
            }
        }
    }

    #[test]
    fn events_respect_horizon() {
        let mut rng = StdRng::seed_from_u64(2);
        let horizon = SimTime::from_hours(6);
        let s = SessionSchedule::generate(100, horizon, &ChurnConfig::default(), &mut rng);
        assert!(s.events().iter().all(|&(t, _)| t <= horizon));
    }

    #[test]
    fn failure_fraction_zero_means_no_failures() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ChurnConfig {
            failure_fraction: 0.0,
            ..Default::default()
        };
        let s = SessionSchedule::generate(80, SimTime::from_hours(24), &cfg, &mut rng);
        assert!(s
            .events()
            .iter()
            .all(|(_, e)| !matches!(e, SessionEvent::Fail(_))));
    }

    #[test]
    fn failure_fraction_one_means_only_failures() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ChurnConfig {
            failure_fraction: 1.0,
            ..Default::default()
        };
        let s = SessionSchedule::generate(80, SimTime::from_hours(24), &cfg, &mut rng);
        assert!(s
            .events()
            .iter()
            .all(|(_, e)| !matches!(e, SessionEvent::Leave(_))));
        assert!(s
            .events()
            .iter()
            .any(|(_, e)| matches!(e, SessionEvent::Fail(_))));
    }

    #[test]
    fn departure_rate_matches_lifetimes() {
        // With mean lifetime 3h and mean downtime 0.5h, a node cycles
        // every ~3.5h → ~0.29 departures per node-hour.
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ChurnConfig::default();
        let horizon = SimTime::from_hours(48);
        let s = SessionSchedule::generate(200, horizon, &cfg, &mut rng);
        let per_hour = s.departure_rate(200, horizon) * 3600.0;
        assert!(
            (0.15..=0.45).contains(&per_hour),
            "departures/node/hour = {per_hour}"
        );
    }

    #[test]
    fn paper_distribution_sampling() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = LifetimeDistribution::paper_default();
        let xs: Vec<f64> = (0..20_000)
            .map(|_| d.sample(&mut rng).as_secs_f64())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!((median - 3600.0).abs() < 250.0, "median {median}");
        assert!((mean - 10800.0).abs() < 900.0, "mean {mean}");
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = ChurnConfig::default();
        let a = SessionSchedule::generate(
            30,
            SimTime::from_hours(10),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        let b = SessionSchedule::generate(
            30,
            SimTime::from_hours(10),
            &cfg,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a.events(), b.events());
    }
}
