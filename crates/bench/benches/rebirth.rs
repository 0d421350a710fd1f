//! SP-rebirth benchmarks: the cost of one latency-aware election over
//! growing candidate pools, and the end-to-end overhead rebirth adds
//! to a dynamic SP-churn run.
//!
//! The election scores at most `REBIRTH_CANDIDATES` hubs with one
//! TTL-bounded BFS each, so `election` should stay microseconds even
//! on large domains; the `rebirth_vs_terminal` pair measures the
//! whole-run cost of keeping the domain population stationary
//! (elections, takeover broadcasts, hand-over conversations, plus the
//! extra maintenance a *living* network does that a decayed one
//! cannot — the two are expected to diverge in favour of terminal
//! dissolution doing less work, which is exactly the recall it gives
//! up).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2psim::network::{Network, NodeId};
use p2psim::time::SimTime;
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use summary_p2p::config::SimConfig;
use summary_p2p::construction::{elect_replacement_sp, ElectionPolicy};
use summary_p2p::kernel::{LookupTarget, MultiDomainSim};
use summary_p2p::scenario::with_sp_churn;

/// One latency-aware election over growing member pools on a
/// power-law topology.
fn bench_election(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebirth_election");
    for &members in &[25usize, 100, 400] {
        let mut rng = StdRng::seed_from_u64(9);
        let topo = TopologyConfig {
            nodes: members * 4,
            ..Default::default()
        };
        let net = Network::new(Graph::barabasi_albert(&topo, &mut rng));
        let pool: Vec<NodeId> = (0..members as u32).map(NodeId).collect();
        group.bench_with_input(BenchmarkId::from_parameter(members), &members, |b, _| {
            b.iter(|| {
                elect_replacement_sp(
                    &net,
                    &pool,
                    ElectionPolicy::LatencyAware {
                        ttl: 2,
                        default_hop: SimTime::from_millis(50),
                    },
                )
            })
        });
    }
    group.finish();
}

/// The same SP-churn run, terminal dissolutions vs rebirth.
fn bench_rebirth_vs_terminal_run(c: &mut Criterion) {
    let mut base = SimConfig::paper_defaults(120, 0.3);
    base.horizon = SimTime::from_hours(4);
    base.query_count = 30;
    base.records_per_peer = 10;
    let base = with_sp_churn(&base, 3600.0);

    let mut group = c.benchmark_group("rebirth_vs_terminal");
    group.sample_size(10);
    for (label, rebirth) in [("terminal", false), ("rebirth", true)] {
        let mut cfg = base;
        cfg.rebirth = rebirth;
        group.bench_function(label, |b| {
            b.iter(|| {
                MultiDomainSim::new(cfg, 20, LookupTarget::Total)
                    .unwrap()
                    .run()
                    .reconciliations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_election, bench_rebirth_vs_terminal_run);
criterion_main!(benches);
