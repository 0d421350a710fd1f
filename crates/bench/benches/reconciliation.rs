//! Reconciliation-path benchmarks (§4.2.2): the cost of rebuilding a
//! global summary as the token visits every live partner, the
//! ring-vs-star ablation DESIGN.md calls out, and the incremental
//! accumulator against the from-scratch rebuild.
//!
//! The paper distributes the merge work along the ring so the SP does
//! one store; the star alternative makes the SP merge every local
//! summary itself. Total merge work is identical — the ablation shows
//! the *SP-side* work differs, which is the point of the ring. The
//! incremental group then shows the round cost collapsing from
//! O(members) decodes + merges to O(stale subset) + one canonical
//! store: `incremental_1pct` decodes each drifted member's wire bytes,
//! while `incremental_1pct_flat` stores the flat form each peer built
//! with its summary, as the P2P layer's pulls do, so the gap between the
//! two is the decode a pull no longer pays. The store group times that
//! store on its own. The
//! localization group compares the accumulator scan queries route on
//! with building the tree and selecting over it.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy::bk::BackgroundKnowledge;
use rand::SeedableRng;
use saintetiq::cell::SourceId;
use saintetiq::delta::GsAccumulator;
use saintetiq::engine::EngineConfig;
use saintetiq::hierarchy::SummaryTree;
use saintetiq::merge::merge_into;
use saintetiq::query::proposition::{reformulate, Proposition};
use saintetiq::query::relevant_sources;
use saintetiq::wire;
use summary_p2p::workload::{generate_peer_data, make_templates, PeerData};

fn local_data(peers: usize, seed: u64) -> Vec<PeerData> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..peers)
        .map(|p| {
            generate_peer_data(&mut rng, p as u32, &bk, &templates, 0.1, 24)
                .expect("valid workload")
        })
        .collect()
}

fn local_summaries(peers: usize, seed: u64) -> Vec<Bytes> {
    local_data(peers, seed)
        .into_iter()
        .map(|d| d.summary)
        .collect()
}

/// An accumulator holding `peers` generated local summaries.
fn accumulator(peers: usize, seed: u64) -> GsAccumulator {
    let mut acc = GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    for (i, s) in local_summaries(peers, seed).iter().enumerate() {
        acc.update_source_encoded(SourceId(i as u32), s)
            .expect("decodes");
    }
    acc
}

/// Full reconciliation rebuild: decode + merge every partner.
fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconciliation_rebuild");
    group.sample_size(10);
    for &peers in &[50usize, 200, 1_000] {
        let summaries = local_summaries(peers, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(peers),
            &summaries,
            |b, summaries| {
                b.iter(|| {
                    let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
                    for s in summaries {
                        let tree = wire::decode(s).expect("decodes");
                        merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
                    }
                    gs.leaf_count()
                })
            },
        );
    }
    group.finish();
}

/// Ring vs star: the SP-side share of the merging work. In the ring the
/// SP only stores the final tree (modelled as one decode); in the star
/// it performs all merges.
fn bench_ring_vs_star(c: &mut Criterion) {
    let peers = 200usize;
    let summaries = local_summaries(peers, 2);
    // Precompute the ring's final token (the merged GS, built by the
    // partners along the ring).
    let final_token = {
        let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
        for s in &summaries {
            let tree = wire::decode(s).expect("decodes");
            merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
        }
        wire::encode(&gs)
    };

    let mut group = c.benchmark_group("reconciliation_sp_work");
    group.bench_function("ring_sp_store_only", |b| {
        b.iter(|| wire::decode(&final_token).expect("decodes").leaf_count())
    });
    group.bench_function("star_sp_merges_all", |b| {
        b.iter(|| {
            let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
            for s in &summaries {
                let tree = wire::decode(s).expect("decodes");
                merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
            }
            gs.leaf_count()
        })
    });
    group.finish();
}

/// Incremental vs full: one 1%-drift round at growing membership. The
/// full path decodes + merges every partner; the incremental path
/// re-pulls only the drifted partners into a primed accumulator, from
/// their wire bytes or from their shared flat forms, and stores the
/// canonical merged view.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconciliation_incremental");
    group.sample_size(10);
    for &peers in &[200usize, 1_000] {
        let summaries = local_summaries(peers, 3);
        let drifted = local_data(peers, 4);
        let dirty: Vec<usize> = (0..peers).step_by(100).collect(); // 1%
        let mut primed = GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12]);
        for (i, s) in summaries.iter().enumerate() {
            primed
                .update_source_encoded(SourceId(i as u32), s)
                .expect("decodes");
        }
        group.bench_with_input(
            BenchmarkId::new("full", peers),
            &summaries,
            |b, summaries| {
                b.iter(|| {
                    let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
                    for s in summaries {
                        let tree = wire::decode(s).expect("decodes");
                        merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
                    }
                    gs.leaf_count()
                })
            },
        );
        // Re-applying the same updates is idempotent (each replaces its
        // source's entry), so the primed accumulator can be mutated in
        // place across iterations — the timed region is exactly one
        // incremental round: |dirty| decodes + the canonical store.
        group.bench_function(BenchmarkId::new("incremental_1pct", peers), |b| {
            b.iter(|| {
                for &i in &dirty {
                    primed
                        .update_source_encoded(SourceId(i as u32), &drifted[i].summary)
                        .expect("decodes");
                }
                primed.build_merged().leaf_count()
            })
        });
        // The same round as pulls run it: no decode, each drifted
        // member's flat form shared + the canonical store.
        group.bench_function(BenchmarkId::new("incremental_1pct_flat", peers), |b| {
            b.iter(|| {
                for &i in &dirty {
                    primed
                        .update_source_flat(SourceId(i as u32), &drifted[i].flat)
                        .expect("same CBK");
                }
                primed.build_merged().leaf_count()
            })
        });
    }
    group.finish();
}

/// The store step alone: what the SP pays when its GS is observed — the
/// canonical merged view plus its encoded size
/// (`DomainCore::materialize`). Timed apart from decoding at a small and
/// a large domain.
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconciliation_store");
    group.sample_size(10);
    for &peers in &[50usize, 1_000] {
        let acc = accumulator(peers, 5);
        group.bench_with_input(BenchmarkId::from_parameter(peers), &acc, |b, acc| {
            b.iter(|| wire::encoded_size(&acc.build_merged()))
        });
    }
    group.finish();
}

/// Peer localization (§5.2.1) of the three workload templates: the
/// accumulator scan the kernel routes on, against building the canonical
/// tree and selecting its most abstract satisfying nodes (what a pull
/// paid for before the build waited for an observer).
fn bench_localization(c: &mut Criterion) {
    let bk = BackgroundKnowledge::medical_cbk();
    let props: Vec<Proposition> = make_templates(3)
        .iter()
        .map(|t| {
            reformulate(&t.query, &bk)
                .expect("reformulates")
                .proposition
        })
        .collect();
    let mut group = c.benchmark_group("peer_localization");
    group.sample_size(10);
    for &peers in &[50usize, 1_000] {
        let acc = accumulator(peers, 6);
        group.bench_with_input(BenchmarkId::new("scan", peers), &acc, |b, acc| {
            b.iter(|| {
                props
                    .iter()
                    .map(|p| acc.relevant_sources(p).len())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("build_and_select", peers),
            &acc,
            |b, acc| {
                b.iter(|| {
                    let tree = acc.build_merged();
                    props
                        .iter()
                        .map(|p| relevant_sources(&tree, p).len())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rebuild,
    bench_ring_vs_star,
    bench_incremental_vs_full,
    bench_store,
    bench_localization
);
criterion_main!(benches);
