#![warn(missing_docs)]

//! Discrete-event P2P network simulator — the reproduction's substitute
//! for SimJava \[10\] and the BRITE topology generator \[14\] used by the
//! paper's evaluation (§6.2.1).
//!
//! * [`time`] — microsecond simulation clock;
//! * [`event`] / [`sim`] — a deterministic discrete-event core: a
//!   timestamped event queue with FIFO tie-breaking and a seeded RNG, so
//!   every experiment is reproducible from a `--seed`;
//! * [`rng`] — the distributions the paper's setup needs (skewed lognormal
//!   lifetimes with mean 3 h / median 1 h, exponential),
//!   implemented on plain `rand`;
//! * [`topology`] — a BRITE-style generator: Barabási–Albert
//!   preferential attachment ("power law P2P network, with an average
//!   degree of 4"), plus regular test graphs; nodes live on a plane and
//!   link latency grows with euclidean distance;
//! * [`churn`] — session schedules: node join/leave streams drawn from a
//!   lifetime distribution;
//! * [`network`] — node liveness, latency lookup, TTL flooding, random
//!   and *selective* walks (§4.1 cites Adamic's highest-degree-neighbor
//!   walk \[23\]). The simulator counts no messages: floods and walks
//!   report what they reached, and the application charges their cost.

pub mod churn;
pub mod event;
pub mod network;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;

pub use churn::{ChurnConfig, LifetimeDistribution, SessionEvent, SessionSchedule};
pub use network::{Network, NodeId};
pub use sim::Simulator;
pub use time::SimTime;
pub use topology::{Graph, TopologyConfig};
