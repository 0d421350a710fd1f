//! Control-plane benchmarks: the per-epoch cost of the adaptive-α
//! controller itself, and the end-to-end overhead the control plane
//! adds to a dynamic multi-domain run.
//!
//! The controller is deliberately cheap — one proportional step per
//! domain per epoch over plain counters — so the `controller_tick`
//! group should stay in the tens of nanoseconds per domain, and the
//! `adaptive_vs_fixed` pair should be statistically indistinguishable:
//! adaptation must not tax the kernel's hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2psim::time::SimTime;
use summary_p2p::config::SimConfig;
use summary_p2p::control::AlphaController;
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::scenario::with_heterogeneous_drift;

/// One control epoch over growing domain counts: record a query per
/// domain, tick every slot.
fn bench_controller_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("alpha_controller_tick");
    for &domains in &[10usize, 100, 1_000, 10_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(domains),
            &domains,
            |b, &domains| {
                let mut ctl = AlphaController::new(true, domains, 0.3);
                let mut epoch = 0u64;
                b.iter(|| {
                    epoch += 1;
                    for d in 0..domains {
                        ctl.record_query(d, 7, 3);
                        ctl.tick_domain(d, epoch as f64 * 600.0, 0.2, epoch * 100);
                    }
                    ctl.alpha(domains - 1)
                })
            },
        );
    }
    group.finish();
}

/// The same small heterogeneous-drift churn run, fixed α vs adaptive:
/// the control plane's end-to-end overhead (epoch events + feedback
/// bookkeeping) on the event loop.
fn bench_adaptive_vs_fixed_run(c: &mut Criterion) {
    let mut base = SimConfig::paper_defaults(120, 0.3);
    base.horizon = SimTime::from_hours(4);
    base.query_count = 30;
    base.records_per_peer = 10;
    let base = with_heterogeneous_drift(&base, 4.0);

    let mut group = c.benchmark_group("alpha_control_run");
    group.sample_size(10);
    group.bench_function("fixed", |b| {
        b.iter(|| {
            MultiDomainSim::new(base, 20, LookupTarget::Total)
                .expect("valid config")
                .run()
                .reconciliations
        })
    });
    group.bench_function("adaptive", |b| {
        let mut cfg = base;
        cfg.adaptive_alpha = true;
        b.iter(|| {
            MultiDomainSim::new(cfg, 20, LookupTarget::Total)
                .expect("valid config")
                .run()
                .reconciliations
        })
    });
    group.finish();
}

criterion_group!(benches, bench_controller_tick, bench_adaptive_vs_fixed_run);
criterion_main!(benches);
