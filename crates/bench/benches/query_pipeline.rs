//! Query-side microbenchmarks: reformulation, valuation/selection over a
//! populated global summary, approximate answering, the routing
//! policies of §6.1.2 and §5.2.2's TTL flood.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy::bk::BackgroundKnowledge;
use p2psim::network::{FloodScratch, Network, NodeId};
use p2psim::topology::{Graph, TopologyConfig};
use rand::SeedableRng;
use relation::query::SelectQuery;
use saintetiq::engine::EngineConfig;
use saintetiq::hierarchy::SummaryTree;
use saintetiq::query::proposition::reformulate;
use saintetiq::query::selection::select_most_abstract;
use saintetiq::query::{approx::approximate_answer, relevant_sources};
use summary_p2p::coop::CooperationList;
use summary_p2p::freshness::Freshness;
use summary_p2p::routing::{route_query, RoutingPolicy};
use summary_p2p::workload::{generate_peer_data, make_templates};

/// Builds a global summary merging `peers` local summaries.
fn global_summary(peers: usize, seed: u64) -> SummaryTree {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    for p in 0..peers {
        let data = generate_peer_data(&mut rng, p as u32, &bk, &templates, 0.1, 24)
            .expect("valid workload");
        let tree = saintetiq::wire::decode(&data.summary).expect("decodes");
        saintetiq::merge::merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
    }
    gs
}

fn bench_reformulation(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let q = SelectQuery::paper_example();
    c.bench_function("reformulate_paper_query", |b| {
        b.iter(|| reformulate(&q, &bk).expect("routable"))
    });
}

fn bench_selection(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let sq = reformulate(&SelectQuery::paper_example(), &bk).expect("routable");
    let mut group = c.benchmark_group("selection");
    for &peers in &[100usize, 500, 2_000] {
        let gs = global_summary(peers, 3);
        group.bench_with_input(BenchmarkId::from_parameter(peers), &gs, |b, gs| {
            b.iter(|| select_most_abstract(gs, &sq.proposition).len())
        });
    }
    group.finish();
}

fn bench_peer_localization(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let sq = reformulate(&SelectQuery::paper_example(), &bk).expect("routable");
    let mut group = c.benchmark_group("peer_localization");
    for &peers in &[100usize, 500, 2_000] {
        let gs = global_summary(peers, 4);
        group.bench_with_input(BenchmarkId::from_parameter(peers), &gs, |b, gs| {
            b.iter(|| relevant_sources(gs, &sq.proposition).len())
        });
    }
    group.finish();
}

fn bench_approximate_answering(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let sq = reformulate(&SelectQuery::paper_example(), &bk).expect("routable");
    let gs = global_summary(500, 5);
    c.bench_function("approximate_answer_500_peers", |b| {
        b.iter(|| approximate_answer(&gs, &sq).len())
    });
}

fn bench_routing_policies(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(1);
    let sq = reformulate(&templates[0].query, &bk).expect("routable");
    let gs = global_summary(1_000, 6);
    let mut cl = CooperationList::new();
    for p in 0..1_000u32 {
        let f = if p % 5 == 0 {
            Freshness::NeedsRefresh
        } else {
            Freshness::Fresh
        };
        cl.add_partner(NodeId(p), f);
    }
    let mut group = c.benchmark_group("routing_policy");
    for (name, policy) in [
        ("all", RoutingPolicy::All),
        ("fresh_only", RoutingPolicy::FreshOnly),
        ("extended", RoutingPolicy::Extended),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                route_query(&gs, &cl, &sq.proposition, policy, 1_000, |p| {
                    (true, p.0 % 10 == 0)
                })
                .messages
            })
        });
    }
    group.finish();
}

/// One TTL-3 flood from each of 64 origins on a Barabási–Albert
/// overlay: a fresh `flood_reach_timed` per flood against
/// `flood_reach_into` with one reused scratch and output buffer.
fn bench_flood_reach(c: &mut Criterion) {
    const TTL: u32 = 3;
    let mut group = c.benchmark_group("flood_reach");
    for &peers in &[400usize, 1_000] {
        let cfg = TopologyConfig {
            nodes: peers,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let net = Network::new(Graph::barabasi_albert(&cfg, &mut rng));
        let origins: Vec<NodeId> = (0..64).map(|i| NodeId((i * 37 % peers) as u32)).collect();
        group.bench_with_input(
            BenchmarkId::new("flood_reach_timed", peers),
            &net,
            |b, net| {
                b.iter(|| {
                    origins
                        .iter()
                        .map(|&o| net.flood_reach_timed(o, TTL).len())
                        .sum::<usize>()
                })
            },
        );
        let mut scratch = FloodScratch::default();
        let mut out = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("flood_reach_into", peers),
            &net,
            |b, net| {
                b.iter(|| {
                    origins
                        .iter()
                        .map(|&o| {
                            net.flood_reach_into(o, TTL, &mut scratch, &mut out);
                            out.len()
                        })
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reformulation,
    bench_selection,
    bench_peer_localization,
    bench_approximate_answering,
    bench_routing_policies,
    bench_flood_reach
);
criterion_main!(benches);
