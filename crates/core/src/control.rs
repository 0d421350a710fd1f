//! The maintenance control plane: per-domain adaptive α.
//!
//! The paper picks **one** freshness threshold α for the whole network
//! (§4.2.2), trading answer staleness against reconciliation bandwidth
//! at a single operating point. Domains are not alike, though: a
//! fast-drifting domain needs a strict α to keep its global summary
//! honest, while a quiet one wastes pull bandwidth at the same
//! threshold. This module closes that loop with measured feedback.
//!
//! ## Feedback signals
//!
//! Each control **epoch** (a recurring [`crate::kernel::KernelEvent::ControlTick`],
//! every [`ControlPolicy::epoch_s`] virtual seconds), every
//! live domain's [`DomainController`] folds two signals:
//!
//! * **stale-answer fraction** — every query the domain's SP processes
//!   ([`AlphaController::record_query`]) contributes its validated and
//!   stale answer counts; an epoch with samples folds
//!   `stale / (stale + ok)` into an exponentially weighted moving
//!   average (new-sample weight 0.7), which smooths the sparse
//!   per-domain query stream without letting one lookup whipsaw α.
//!   Until the *first* query ever touches the domain, the cooperation
//!   list's instantaneous stale fraction (the §6.1.1 trigger metric)
//!   stands in — a worst-case proxy for the same quantity (every
//!   flagged partner counted wrong, the paper's Figure 4 vs Figure 5
//!   gap), good enough to bootstrap but deliberately not used once
//!   real measurements exist.
//! * **reconciliation cost** — the cumulative delta payload bytes the
//!   domain's pulls have shipped ([`crate::peerstate::ReconcileWork`],
//!   mirrored in `DomainCore::delta_bytes_total`). The cost signal
//!   modulates how fast α *relaxes*: the full proportional step while
//!   the domain actually spent pull bandwidth during the epoch (there
//!   is bandwidth to save), half speed when it pulled nothing (an idle
//!   domain gains little from a laxer threshold, so it only drifts
//!   slowly toward `α_max`). Tightening is never slowed — staleness
//!   over target is acted on at full gain regardless of cost.
//!
//! ## The control law
//!
//! A bounded proportional step per epoch:
//!
//! ```text
//! err    = measured_staleness − target_staleness
//! α_next = clamp(α − gain · err, α_min, α_max)
//! ```
//!
//! Staleness above target tightens α (reconcile sooner); staleness
//! below target relaxes it (save bandwidth), at the cost-modulated
//! rate above. The clamp makes the controller *bounded*: whatever the
//! feedback does, the effective α of every domain stays inside
//! `[α_min, α_max]` (property-tested in `tests/alpha_control.rs`).
//!
//! ## Epoch scheduling and determinism
//!
//! Without a policy — [`crate::config::SimConfig::control`] of `None`,
//! the default — every domain keeps [`crate::config::SimConfig::alpha`],
//! no control tick is scheduled and α never moves: the kernel's event
//! and RNG streams are byte-identical to the pre-control-plane
//! behavior, which is what keeps the seed figures (and
//! `tests/latency_plane.rs` / `tests/gs_incremental.rs`) unchanged. A
//! [`ControlPolicy`] schedules one recurring `ControlTick`; the tick
//! draws no randomness, so adaptive runs stay deterministic per seed in
//! both delivery modes.
//!
//! Controller state is **per domain slot** and follows the domain's
//! §4.3 lifecycle: when a summary peer departs and its domain
//! dissolves, the kernel freezes the slot's controller
//! ([`AlphaController::on_dissolve`]) — its trajectory ends there —
//! while partners re-homing into surviving domains start feeding those
//! domains' controllers instead.

use p2psim::time::SimTime;

use crate::error::P2pError;

/// The parameters of per-domain feedback control: each control epoch,
/// every domain's α takes one bounded proportional step toward the
/// staleness target (see the module docs for the law and the signals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPolicy {
    /// The stale-answer fraction the controller steers toward.
    pub target_staleness: f64,
    /// Lower clamp of the effective α.
    pub alpha_min: f64,
    /// Upper clamp of the effective α.
    pub alpha_max: f64,
    /// Proportional gain of the per-epoch step.
    pub gain: f64,
    /// Control epoch length in virtual seconds.
    pub epoch_s: f64,
}

impl ControlPolicy {
    /// A reasonable adaptive default around the given staleness target:
    /// α free in `[0.05, 0.9]`, gain 0.5, 10-minute epochs.
    pub fn adaptive_default(target_staleness: f64) -> Self {
        Self {
            target_staleness,
            alpha_min: 0.05,
            alpha_max: 0.9,
            gain: 0.5,
            epoch_s: 600.0,
        }
    }

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), P2pError> {
        let Self {
            target_staleness,
            alpha_min,
            alpha_max,
            gain,
            epoch_s,
        } = *self;
        if !(target_staleness.is_finite() && (0.0..1.0).contains(&target_staleness)) {
            return Err(P2pError::BadConfig(format!(
                "target_staleness {target_staleness} not in [0,1)"
            )));
        }
        let bounds_ok = (0.0..=1.0).contains(&alpha_min)
            && (0.0..=1.0).contains(&alpha_max)
            && alpha_min <= alpha_max;
        if !bounds_ok {
            return Err(P2pError::BadConfig(format!(
                "alpha bounds [{alpha_min}, {alpha_max}] must satisfy \
                 0 <= min <= max <= 1"
            )));
        }
        if !(gain.is_finite() && gain > 0.0) {
            return Err(P2pError::BadConfig(format!(
                "control gain {gain} must be finite and positive"
            )));
        }
        if !(epoch_s.is_finite() && epoch_s > 0.0) {
            return Err(P2pError::BadConfig(format!(
                "control epoch_s {epoch_s} must be finite and positive"
            )));
        }
        Ok(())
    }

    /// The epoch as virtual time.
    pub fn epoch(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch_s)
    }
}

/// One domain's controller state: its current effective α, the epoch's
/// accumulated query feedback, and the recorded α trajectory.
#[derive(Debug, Clone)]
pub struct DomainController {
    /// The domain's current effective α.
    alpha: f64,
    /// Frozen after the domain dissolved (§4.3 SP departure).
    dissolved: bool,
    /// Validated answers the domain's SP produced this epoch.
    epoch_ok: u64,
    /// Stale answers the domain's SP produced this epoch.
    epoch_stale: u64,
    /// EWMA of the query-derived staleness (`None` until the first
    /// query ever touches the domain).
    staleness_ewma: Option<f64>,
    /// Cumulative pull delta bytes at the end of the previous epoch —
    /// the cost signal is the per-epoch difference.
    last_delta_bytes: u64,
    /// `(virtual seconds, α)` samples: the initial point plus one per
    /// control tick.
    trajectory: Vec<(f64, f64)>,
}

impl DomainController {
    fn new(alpha: f64) -> Self {
        Self {
            alpha,
            dissolved: false,
            epoch_ok: 0,
            epoch_stale: 0,
            staleness_ewma: None,
            last_delta_bytes: 0,
            trajectory: vec![(0.0, alpha)],
        }
    }
}

/// The control plane of one kernel run: the policy (if any) plus one
/// [`DomainController`] per domain slot.
#[derive(Debug, Clone)]
pub struct AlphaController {
    policy: Option<ControlPolicy>,
    domains: Vec<DomainController>,
}

impl AlphaController {
    /// Builds the controller for `n_domains` slots. Without a policy
    /// every slot starts (and stays) at `alpha0`; with one every slot
    /// starts at `alpha0` clamped into the policy's bounds.
    pub fn new(policy: Option<ControlPolicy>, n_domains: usize, alpha0: f64) -> Self {
        let start = match policy {
            None => alpha0,
            Some(p) => alpha0.clamp(p.alpha_min, p.alpha_max),
        };
        Self {
            policy,
            domains: (0..n_domains)
                .map(|_| DomainController::new(start))
                .collect(),
        }
    }

    /// The control epoch (`None` without a policy, which schedules no
    /// control ticks at all).
    pub fn epoch(&self) -> Option<SimTime> {
        self.policy.map(|p| p.epoch())
    }

    /// The current effective α of domain `d`.
    pub fn alpha(&self, d: usize) -> f64 {
        self.domains[d].alpha
    }

    /// The recorded α trajectory of domain `d`.
    pub fn trajectory(&self, d: usize) -> &[(f64, f64)] {
        &self.domains[d].trajectory
    }

    /// Records one processed query at domain `d`'s SP: `ok` validated
    /// answers and `stale` summary-selected peers that were down or no
    /// longer matching.
    pub fn record_query(&mut self, d: usize, ok: usize, stale: usize) {
        let ctl = &mut self.domains[d];
        ctl.epoch_ok += ok as u64;
        ctl.epoch_stale += stale as u64;
    }

    /// Freezes domain `d`'s controller after its SP departed: α stops
    /// moving and the trajectory ends at its last sample.
    pub fn on_dissolve(&mut self, d: usize) {
        self.domains[d].dissolved = true;
    }

    /// Re-activates domain `d`'s frozen controller slot after the
    /// domain was reborn under a replacement SP (§4.3 rebirth). The
    /// slot unfreezes at the α it was frozen with — the reborn
    /// membership is essentially the dissolved one, so its operating
    /// point (and staleness EWMA) carries over — while the epoch's
    /// query accumulators restart empty and the cost signal re-bases
    /// on the domain's current cumulative pull bytes (`cum_delta_bytes`
    /// from `DomainCore::delta_bytes_total`, which survives the
    /// dissolution). A trajectory sample marks the rebirth instant.
    pub fn on_rebirth(&mut self, d: usize, now_s: f64, cum_delta_bytes: u64) {
        let ctl = &mut self.domains[d];
        ctl.dissolved = false;
        ctl.epoch_ok = 0;
        ctl.epoch_stale = 0;
        ctl.last_delta_bytes = cum_delta_bytes;
        let alpha = ctl.alpha;
        ctl.trajectory.push((now_s, alpha));
    }

    /// Runs one control epoch for domain `d` and returns its (possibly
    /// updated) effective α. `cl_stale_fraction` is the cooperation
    /// list's current trigger metric (the fallback staleness signal);
    /// `cum_delta_bytes` is the domain's cumulative pull payload
    /// (`DomainCore::delta_bytes_total`), whose per-epoch difference is
    /// the cost signal. No-op without a policy or after dissolution.
    pub fn tick_domain(
        &mut self,
        d: usize,
        now_s: f64,
        cl_stale_fraction: f64,
        cum_delta_bytes: u64,
    ) -> f64 {
        let Some(ControlPolicy {
            target_staleness,
            alpha_min,
            alpha_max,
            gain,
            ..
        }) = self.policy
        else {
            return self.domains[d].alpha;
        };
        let ctl = &mut self.domains[d];
        if ctl.dissolved {
            return ctl.alpha;
        }
        let sampled = ctl.epoch_ok + ctl.epoch_stale;
        if sampled > 0 {
            let sample = ctl.epoch_stale as f64 / sampled as f64;
            ctl.staleness_ewma = Some(match ctl.staleness_ewma {
                // New-sample weight 0.7: responsive, but one lookup
                // cannot whipsaw α on its own.
                Some(prev) => 0.3 * prev + 0.7 * sample,
                None => sample,
            });
        }
        let measured = ctl.staleness_ewma.unwrap_or(cl_stale_fraction);
        let spent = cum_delta_bytes > ctl.last_delta_bytes;
        ctl.last_delta_bytes = cum_delta_bytes;
        ctl.epoch_ok = 0;
        ctl.epoch_stale = 0;
        let err = measured - target_staleness;
        if err > 0.0 {
            // Too stale: tighten (reconcile sooner).
            ctl.alpha = (ctl.alpha - gain * err).clamp(alpha_min, alpha_max);
        } else if err < 0.0 {
            // Fresher than asked: relax to save bandwidth — at the
            // full proportional step while pulls are actually being
            // paid for, at half speed otherwise (an idle domain has
            // little to save, so it only drifts slowly toward α_max).
            let rate = if spent { 1.0 } else { 0.5 };
            ctl.alpha = (ctl.alpha - gain * rate * err).clamp(alpha_min, alpha_max);
        }
        ctl.trajectory.push((now_s, ctl.alpha));
        ctl.alpha
    }

    /// The final α of every non-dissolved domain slot.
    pub fn final_alphas(&self) -> Vec<f64> {
        self.domains
            .iter()
            .filter(|c| !c.dissolved)
            .map(|c| c.alpha)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive() -> Option<ControlPolicy> {
        Some(ControlPolicy {
            target_staleness: 0.2,
            alpha_min: 0.1,
            alpha_max: 0.8,
            gain: 0.5,
            epoch_s: 600.0,
        })
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut c = AlphaController::new(None, 2, 0.3);
        assert_eq!(c.alpha(0), 0.3);
        assert!(c.epoch().is_none(), "no ticks without a policy");
        c.record_query(0, 1, 99);
        assert_eq!(c.tick_domain(0, 600.0, 1.0, 1 << 20), 0.3);
        assert_eq!(c.trajectory(0), &[(0.0, 0.3)]);
    }

    #[test]
    fn adaptive_tightens_when_stale_and_relaxes_when_spending() {
        let mut c = AlphaController::new(adaptive(), 1, 0.4);
        // Epoch 1: 90% stale answers → err = 0.7, the 0.35 step hits
        // the lower clamp.
        c.record_query(0, 1, 9);
        let a1 = c.tick_domain(0, 600.0, 0.0, 100);
        assert!((a1 - 0.1).abs() < 1e-12, "0.4 - 0.35 clamps to alpha_min");
        // Fresh epochs while still pulling: the EWMA decays below the
        // target and α relaxes.
        let mut bytes = 100;
        let mut last = a1;
        let mut relaxed = false;
        for i in 2..6 {
            c.record_query(0, 10, 0);
            bytes += 100;
            let a = c.tick_domain(0, i as f64 * 600.0, 0.0, bytes);
            assert!(a >= last, "relaxation is monotone here");
            relaxed |= a > last;
            last = a;
        }
        assert!(relaxed, "fresh + spending must eventually relax α");
        // Fresh but no new pull bytes → α still relaxes, at half the
        // spending-epoch rate.
        c.record_query(0, 10, 0);
        let spending_step = {
            let mut probe = c.clone();
            probe.record_query(0, 10, 0);
            probe.tick_domain(0, 6.0 * 600.0, 0.0, bytes + 100) - last
        };
        let idle = c.tick_domain(0, 6.0 * 600.0, 0.0, bytes);
        let idle_step = idle - last;
        assert!(idle_step > 0.0, "idle relax still moves");
        assert!(
            (idle_step - spending_step / 2.0).abs() < 1e-12,
            "idle relax runs at half speed: {idle_step} vs {spending_step}"
        );
    }

    #[test]
    fn cl_fraction_is_the_no_query_fallback() {
        let mut c = AlphaController::new(adaptive(), 1, 0.4);
        // No query ever touched the domain: the CL fraction (0.3)
        // drives the step.
        let a = c.tick_domain(0, 600.0, 0.3, 0);
        assert!((a - (0.4 - 0.5 * (0.3 - 0.2))).abs() < 1e-12);
        // Once a real sample exists, the worst-case CL proxy is out:
        // a perfectly fresh measurement beats a 0.9 CL fraction.
        c.record_query(0, 10, 0);
        let b = c.tick_domain(0, 1200.0, 0.9, 100);
        assert!(b > a, "measured freshness relaxes despite a stale CL");
    }

    #[test]
    fn alpha_stays_clamped_under_extreme_feedback() {
        let mut c = AlphaController::new(adaptive(), 1, 0.4);
        for i in 0..50 {
            c.record_query(0, 0, 100);
            c.tick_domain(0, i as f64 * 600.0, 1.0, 0);
        }
        assert_eq!(c.alpha(0), 0.1, "pinned at alpha_min");
        for i in 50..120 {
            c.record_query(0, 100, 0);
            c.tick_domain(0, i as f64 * 600.0, 0.0, i as u64 + 1);
        }
        assert_eq!(c.alpha(0), 0.8, "pinned at alpha_max");
        for &(_, a) in c.trajectory(0) {
            assert!((0.1..=0.8).contains(&a));
        }
    }

    #[test]
    fn dissolution_freezes_the_slot() {
        let mut c = AlphaController::new(adaptive(), 3, 0.4);
        c.record_query(1, 0, 10);
        c.on_dissolve(1);
        let before = c.alpha(1);
        assert_eq!(c.tick_domain(1, 600.0, 1.0, 50), before);
        assert_eq!(c.final_alphas().len(), 2, "dissolved slot excluded");
    }

    #[test]
    fn policy_validation() {
        let ok = adaptive().unwrap();
        ok.validate().unwrap();
        ControlPolicy::adaptive_default(0.2).validate().unwrap();
        let bad_bounds = ControlPolicy {
            alpha_min: 0.6,
            alpha_max: 0.4,
            ..ok
        };
        assert!(bad_bounds.validate().is_err());
        let bad_gain = ControlPolicy { gain: 0.0, ..ok };
        assert!(bad_gain.validate().is_err());
        let bad_epoch = ControlPolicy {
            epoch_s: f64::NAN,
            ..ok
        };
        assert!(bad_epoch.validate().is_err());
        let bad_target = ControlPolicy {
            target_staleness: 1.0,
            ..ok
        };
        assert!(bad_target.validate().is_err());
    }
}
