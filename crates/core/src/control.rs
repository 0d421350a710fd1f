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
//! every [`EPOCH`] of virtual time), every
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
//!   slowly toward [`ALPHA_MAX`]). Tightening is never slowed — staleness
//!   over target is acted on at full gain regardless of cost.
//!
//! ## The control law
//!
//! A bounded proportional step per epoch:
//!
//! ```text
//! err    = measured_staleness − TARGET_STALENESS
//! α_next = clamp(α − GAIN · err, ALPHA_MIN, ALPHA_MAX)
//! ```
//!
//! Staleness above target tightens α (reconcile sooner); staleness
//! below target relaxes it (save bandwidth), at the cost-modulated
//! rate above. The clamp makes the controller *bounded*: whatever the
//! feedback does, the effective α of every domain stays inside
//! `[ALPHA_MIN, ALPHA_MAX]` (property-tested in `tests/alpha_control.rs`).
//!
//! ## Epoch scheduling and determinism
//!
//! With [`crate::config::SimConfig::adaptive_alpha`] off, the default,
//! every domain keeps [`crate::config::SimConfig::alpha`], no control
//! tick is scheduled and α never moves: the kernel's event and RNG
//! streams are byte-identical to the pre-control-plane behavior, which
//! is what keeps the seed figures (and `tests/latency_plane.rs` /
//! `tests/gs_incremental.rs`) unchanged. Turned on, it schedules one
//! recurring `ControlTick`; the tick draws no randomness, so adaptive
//! runs stay deterministic per seed in both delivery modes.
//!
//! Controller state is **per domain slot** and follows the domain's
//! §4.3 lifecycle: when a summary peer departs and its domain
//! dissolves, the kernel freezes the slot's controller
//! ([`AlphaController::on_dissolve`]) — its trajectory ends there —
//! while partners re-homing into surviving domains start feeding those
//! domains' controllers instead.

use p2psim::time::SimTime;

/// The stale-answer fraction the adaptive controller steers toward.
pub const TARGET_STALENESS: f64 = 0.2;
/// Lower clamp of the adaptive effective α.
pub const ALPHA_MIN: f64 = 0.05;
/// Upper clamp of the adaptive effective α.
pub const ALPHA_MAX: f64 = 0.9;
/// Proportional gain of the per-epoch step.
pub const GAIN: f64 = 0.6;
/// Control epoch length.
pub const EPOCH: SimTime = SimTime::from_mins(10);

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

/// The control plane of one kernel run: whether α adapts, plus one
/// [`DomainController`] per domain slot.
#[derive(Debug, Clone)]
pub struct AlphaController {
    adaptive: bool,
    domains: Vec<DomainController>,
}

impl AlphaController {
    /// Builds the controller for `n_domains` slots. A fixed controller
    /// keeps every slot at `alpha0`; an adaptive one starts every slot
    /// at `alpha0` clamped into `[ALPHA_MIN, ALPHA_MAX]`.
    pub fn new(adaptive: bool, n_domains: usize, alpha0: f64) -> Self {
        let start = if adaptive {
            alpha0.clamp(ALPHA_MIN, ALPHA_MAX)
        } else {
            alpha0
        };
        Self {
            adaptive,
            domains: (0..n_domains)
                .map(|_| DomainController::new(start))
                .collect(),
        }
    }

    /// The control epoch (`None` for a fixed controller, which
    /// schedules no control ticks at all).
    pub fn epoch(&self) -> Option<SimTime> {
        self.adaptive.then_some(EPOCH)
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
    /// the cost signal. No-op on a fixed controller or after
    /// dissolution.
    pub fn tick_domain(
        &mut self,
        d: usize,
        now_s: f64,
        cl_stale_fraction: f64,
        cum_delta_bytes: u64,
    ) -> f64 {
        let ctl = &mut self.domains[d];
        if !self.adaptive || ctl.dissolved {
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
        let err = measured - TARGET_STALENESS;
        if err > 0.0 {
            // Too stale: tighten (reconcile sooner).
            ctl.alpha = (ctl.alpha - GAIN * err).clamp(ALPHA_MIN, ALPHA_MAX);
        } else if err < 0.0 {
            // Fresher than asked: relax to save bandwidth — at the
            // full proportional step while pulls are actually being
            // paid for, at half speed otherwise (an idle domain has
            // little to save, so it only drifts slowly toward α_max).
            let rate = if spent { 1.0 } else { 0.5 };
            ctl.alpha = (ctl.alpha - GAIN * rate * err).clamp(ALPHA_MIN, ALPHA_MAX);
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

    #[test]
    fn fixed_policy_never_moves() {
        let mut c = AlphaController::new(false, 2, 0.3);
        assert_eq!(c.alpha(0), 0.3);
        assert!(c.epoch().is_none(), "no ticks on a fixed controller");
        c.record_query(0, 1, 99);
        assert_eq!(c.tick_domain(0, 600.0, 1.0, 1 << 20), 0.3);
        assert_eq!(c.trajectory(0), &[(0.0, 0.3)]);
    }

    #[test]
    fn adaptive_tightens_when_stale_and_relaxes_when_spending() {
        let mut c = AlphaController::new(true, 1, 0.4);
        assert_eq!(c.epoch(), Some(EPOCH));
        // Epoch 1: 90% stale answers → err = 0.7, the 0.42 step hits
        // the lower clamp.
        c.record_query(0, 1, 9);
        let a1 = c.tick_domain(0, 600.0, 0.0, 100);
        assert_eq!(a1, ALPHA_MIN, "0.4 - 0.42 clamps to ALPHA_MIN");
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
        let mut c = AlphaController::new(true, 1, 0.4);
        // No query ever touched the domain: the CL fraction (0.3)
        // drives the step.
        let a = c.tick_domain(0, 600.0, 0.3, 0);
        assert!((a - (0.4 - GAIN * (0.3 - TARGET_STALENESS))).abs() < 1e-12);
        // Once a real sample exists, the worst-case CL proxy is out:
        // a perfectly fresh measurement beats a 0.9 CL fraction.
        c.record_query(0, 10, 0);
        let b = c.tick_domain(0, 1200.0, 0.9, 100);
        assert!(b > a, "measured freshness relaxes despite a stale CL");
    }

    #[test]
    fn alpha_stays_clamped_under_extreme_feedback() {
        let mut c = AlphaController::new(true, 1, 0.4);
        for i in 0..50 {
            c.record_query(0, 0, 100);
            c.tick_domain(0, i as f64 * 600.0, 1.0, 0);
        }
        assert_eq!(c.alpha(0), ALPHA_MIN, "pinned at ALPHA_MIN");
        for i in 50..120 {
            c.record_query(0, 100, 0);
            c.tick_domain(0, i as f64 * 600.0, 0.0, i as u64 + 1);
        }
        assert_eq!(c.alpha(0), ALPHA_MAX, "pinned at ALPHA_MAX");
        for &(_, a) in c.trajectory(0) {
            assert!((ALPHA_MIN..=ALPHA_MAX).contains(&a));
        }
    }

    #[test]
    fn dissolution_freezes_the_slot() {
        let mut c = AlphaController::new(true, 3, 0.4);
        c.record_query(1, 0, 10);
        c.on_dissolve(1);
        let before = c.alpha(1);
        assert_eq!(c.tick_domain(1, 600.0, 1.0, 50), before);
        assert_eq!(c.final_alphas().len(), 2, "dissolved slot excluded");
    }
}
