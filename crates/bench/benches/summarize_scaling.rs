//! §6.1.1's time-cost claim: "the time complexity of the SaintEtiQ
//! process is in O(K), where K is the number of cells to incorporate".
//!
//! We sweep both the record count (at fixed grid granularity the cell
//! count saturates, so per-record cost must *drop* toward the cheap
//! sort-into-tree path) and the grid granularity (more labels per
//! attribute → more cells K → proportionally more work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fuzzy::bk::BackgroundKnowledge;
use rand::SeedableRng;
use relation::generator::{numeric_table, patient_table, MatchTarget, PatientDistributions};
use relation::schema::{AttrType, Attribute, Schema};
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use summary_p2p::workload::{make_templates, PeerGenerator};

fn numeric_schema(arity: usize) -> Schema {
    Schema::new(
        (0..arity)
            .map(|i| Attribute::new(format!("attr{i}"), AttrType::Float))
            .collect(),
    )
    .expect("unique names")
}

/// Sweep the number of records at fixed BK granularity.
fn bench_records(c: &mut Criterion) {
    let mut group = c.benchmark_group("summarize_records");
    group.sample_size(10);
    for &n in &[500usize, 2_000, 8_000] {
        let bk = BackgroundKnowledge::synthetic(3, 4).expect("valid synthetic BK");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let table = numeric_table(&mut rng, n, 3, (0.0, 100.0));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, table| {
            b.iter(|| {
                let mut e = SaintEtiQEngine::new(
                    bk.clone(),
                    &numeric_schema(3),
                    EngineConfig::default(),
                    SourceId(0),
                )
                .expect("BK binds");
                e.summarize_table(table);
                e.tree().leaf_count()
            })
        });
    }
    group.finish();
}

/// Sweep the grid granularity (labels per attribute) at a fixed record
/// count: K grows with granularity, and so should total time — linearly.
fn bench_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("summarize_granularity");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let table = numeric_table(&mut rng, 2_000, 3, (0.0, 100.0));
    for &labels in &[2usize, 4, 8] {
        let bk = BackgroundKnowledge::synthetic(3, labels).expect("valid synthetic BK");
        group.bench_with_input(BenchmarkId::from_parameter(labels), &bk, |b, bk| {
            b.iter(|| {
                let mut e = SaintEtiQEngine::new(
                    bk.clone(),
                    &numeric_schema(3),
                    EngineConfig::default(),
                    SourceId(0),
                )
                .expect("BK binds");
                e.summarize_table(&table);
                e.tree().leaf_count()
            })
        });
    }
    group.finish();
}

/// Local summaries as a drift push makes them: the medical CBK over a
/// whole patient table, at 16 records (the kernel benchmark's shape) and
/// 24 (the paper's). Every regeneration pays this.
fn bench_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("summarize_local");
    let bk = BackgroundKnowledge::medical_cbk();
    let dist = PatientDistributions::default();
    for &n in &[16usize, 24] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, table| {
            b.iter(|| {
                let mut e = SaintEtiQEngine::new(
                    bk.clone(),
                    &Schema::patient(),
                    EngineConfig::default(),
                    SourceId(0),
                )
                .expect("BK binds");
                e.summarize_table(table);
                e.tree().leaf_count()
            })
        });
    }
    // One drift's regeneration as the kernel makes it: a bound generator
    // draws a fresh 16-record database (3 templates, match fraction 0.1),
    // verifies its ground truth, summarizes it, encodes and flattens it.
    let mut generator = PeerGenerator::new(&bk, &make_templates(3)).expect("BK binds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    group.throughput(Throughput::Elements(16));
    group.bench_function("regenerate_peer", |b| {
        b.iter(|| {
            let data = generator
                .generate(&mut rng, 0, 0.1, 16)
                .expect("valid workload");
            data.summary.len()
        })
    });
    group.finish();
}

/// Ablation (DESIGN.md): the merge/split operators' cost.
fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("summarize_operators");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let table = numeric_table(&mut rng, 2_000, 3, (0.0, 100.0));
    let bk = BackgroundKnowledge::synthetic(3, 5).expect("valid synthetic BK");
    for (name, cfg) in [
        ("full", EngineConfig::default()),
        (
            "no_restructure",
            EngineConfig {
                enable_merge: false,
                enable_split: false,
                ..Default::default()
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut e = SaintEtiQEngine::new(bk.clone(), &numeric_schema(3), cfg, SourceId(0))
                    .expect("BK binds");
                e.summarize_table(&table);
                e.tree().live_node_count()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_records,
    bench_granularity,
    bench_local,
    bench_operators
);
criterion_main!(benches);
