#![warn(missing_docs)]

//! `summary_p2p` — the primary contribution of *Summary Management in P2P
//! Systems* (Hayek, Raschia, Valduriez, Mouaddib; EDBT 2008).
//!
//! Peers in a superpeer network summarize their relational databases with
//! SaintEtiQ (crate `saintetiq`) and share the summaries as **semantic
//! indexes**: a *domain* is one superpeer (the **summary peer**, SP) plus
//! its client partners; the SP materializes a **global summary** (GS) — the
//! merge of its partners' local summaries — annotated with a **cooperation
//! list** (CL) of per-partner freshness flags. Queries are routed by
//! matching them against the GS (peer localization) or answered
//! approximately straight from it.
//!
//! ## Architecture: one simulation kernel, two facades
//!
//! Every dynamic process of the paper — summary drift, churn sessions,
//! α-gated reconciliation rings, intra-domain workload queries and
//! §5.2.2's inter-domain lookups — runs as interleaved events of a
//! single deterministic event loop:
//!
//! * [`peerstate`] — the shared state machine: [`peerstate::PeerState`]
//!   (one partner's liveness + generated data), [`peerstate::DomainCore`]
//!   (one domain's GS/CL and its push/pull transitions) and
//!   [`peerstate::MessageLedger`] (the §6.1 message/byte accounting);
//! * [`kernel`] — [`kernel::SimKernel`] drives N domains in one
//!   `p2psim::Simulator` loop and rebuilds multi-domain routing on the
//!   *live* per-domain GS/CL state, so recall, stale answers and false
//!   negatives are measurable network-wide while maintenance runs;
//!   [`kernel::MultiDomainSim`] is the dynamic entry point. Under
//!   [`config::DeliveryMode::Latency`] the kernel routes every protocol
//!   message through virtual-time delivery events (the *message plane*):
//!   reconciliation rings and §5.2.2 lookups become multi-event
//!   conversations with genuine time-to-answer, while the default
//!   [`config::DeliveryMode::Instantaneous`] reproduces the figure
//!   pipelines byte-identically;
//! * [`domain`] — [`domain::DomainSim`], the single-domain facade the
//!   Figure 4–6 drivers use (one `DomainCore`, intra-domain queries);
//! * [`system`] — [`system::MultiDomainSystem`], the frozen t = 0 facade
//!   (construction + fresh global summaries) of §5.2.2's static view.
//!
//! ## Supporting modules, following the paper's structure
//!
//! * [`config`] — Table 3's simulation parameters as a typed config;
//! * [`control`] — the maintenance control plane: per-domain effective
//!   α, fixed at [`config::SimConfig::alpha`] (the default — the
//!   paper's single global threshold) or, with
//!   [`config::SimConfig::adaptive_alpha`] on, fed back each control
//!   epoch from measured stale-answer fractions and reconciliation cost;
//! * [`freshness`] / [`coop`] — the 2-bit freshness values and the
//!   cooperation list (§4.1, §4.3);
//! * [`messages`] — the protocol vocabulary (`sumpeer`, `localsum`,
//!   `drop`, `find`, `push`, `reconciliation`, `release`, queries);
//! * [`construction`] — domain construction over the physical topology
//!   (§4.1): TTL-limited `sumpeer` broadcast, closest-SP partnership,
//!   selective-walk `find`;
//! * [`routing`] — query processing (§5): reformulation, GS evaluation,
//!   the recall/precision policies over `P_fresh`/`P_old`, and stale
//!   answer accounting;
//! * [`cache`] — §5.2.2's group-locality answer caches;
//! * [`workload`] — the Table 3 workload: query templates matched by a
//!   configurable fraction of peers, with exact ground truth;
//! * [`summary_pool`] — local summaries built on a summary worker
//!   thread while the event loop runs on, installed before any read;
//! * [`costmodel`] — the closed-form cost model of §6.1 (equations (1)
//!   and (2));
//! * [`baselines`] — §6.2.3's comparators: pure TTL-3 flooding and a
//!   centralized index;
//! * [`metrics`] — accuracy/traffic reports for both facades;
//! * [`scenario`] — the experiment drivers regenerating Figures 4–7 plus
//!   [`scenario::figure_multidomain_churn`], the unified kernel's
//!   churn-under-routing experiment.

pub mod baselines;
pub mod cache;
pub mod config;
pub mod construction;
pub mod control;
pub mod coop;
pub mod costmodel;
pub mod domain;
pub mod error;
pub mod freshness;
pub mod kernel;
pub mod messages;
pub mod metrics;
pub mod peerstate;
pub mod routing;
pub mod scenario;
pub mod summary_pool;
pub mod system;
pub mod workload;

pub use config::{DeliveryMode, SimConfig};
pub use control::AlphaController;
pub use coop::CooperationList;
pub use domain::DomainSim;
pub use error::P2pError;
pub use freshness::Freshness;
pub use kernel::{LookupTarget, MultiDomainOutcome, MultiDomainSim, SimKernel};
pub use routing::RoutingPolicy;
