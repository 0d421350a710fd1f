//! Integration: external data (CSV) → summarization → routing and
//! statistics-enriched approximate answering — the adoption path a
//! downstream user of the library would take.

use fuzzy::BackgroundKnowledge;
use relation::csv::{read_csv, write_csv};
use relation::predicate::Predicate;
use relation::query::SelectQuery;
use relation::schema::Schema;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::query::approx::{approximate_answer, approximate_answer_with_stats};
use saintetiq::query::proposition::reformulate;

const WARD_CSV: &str = "\
age,sex,bmi,disease
8,female,15.2,malaria
11,male,16.8,malaria
9,male,15.9,malaria
14,female,17.1,malaria
82,male,22.0,malaria
35,female,24.5,diabetes
52,male,28.1,hypertension
47,female,26.0,hypertension
61,male,31.2,diabetes
29,female,21.5,asthma
";

#[test]
fn csv_to_summary_to_answer() {
    let table = read_csv(WARD_CSV.as_bytes(), Schema::patient()).unwrap();
    assert_eq!(table.len(), 10);

    let bk = BackgroundKnowledge::medical_cbk();
    let mut engine = SaintEtiQEngine::new(
        bk.clone(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(0),
    )
    .unwrap();
    engine.summarize_table(&table);
    engine.tree().check_invariants();

    let query = SelectQuery::new(
        vec!["age".into()],
        vec![Predicate::eq("disease", "malaria")],
    );
    let sq = reformulate(&query, &bk).unwrap();

    // Plain answer: the young cohort dominates, the old tail appears.
    let answers = approximate_answer(engine.tree(), &sq);
    let total: f64 = answers.iter().map(|a| a.weight).sum();
    assert!((total - 5.0).abs() < 1e-9, "five malaria patients");
    let age_attr = bk.attribute_index("age").unwrap();
    let vocab = bk.attribute_at(age_attr).unwrap();
    let young = vocab.label_id("young").unwrap();
    let old = vocab.label_id("old").unwrap();
    let has = |label| {
        answers.iter().any(|a| {
            a.answer
                .iter()
                .any(|(at, s)| *at == age_attr && s.contains(label))
        })
    };
    assert!(has(young), "children cohort present");
    assert!(has(old), "elderly tail present");

    // Stats-enriched answer matches the exact moments of the cohort.
    let enriched = approximate_answer_with_stats(engine.tree(), &sq);
    let mut count = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (_, stats) in &enriched {
        let s = &stats.iter().find(|c| c.attr == age_attr).unwrap().stats;
        count += s.count();
        if let (Some(lo), Some(hi)) = (s.min(), s.max()) {
            min = min.min(lo);
            max = max.max(hi);
        }
    }
    assert!((count - 5.0).abs() < 1e-9);
    assert_eq!(min, 8.0);
    assert_eq!(max, 82.0);

    // Exact evaluation agrees on the cohort size.
    assert_eq!(query.evaluate(&table).unwrap().len(), 5);
}

#[test]
fn csv_roundtrip_preserves_summarization() {
    let table = read_csv(WARD_CSV.as_bytes(), Schema::patient()).unwrap();
    let mut buf = Vec::new();
    write_csv(&table, &mut buf).unwrap();
    let reloaded = read_csv(&buf[..], Schema::patient()).unwrap();

    let bk = BackgroundKnowledge::medical_cbk();
    let summarize = |t: &relation::table::Table| {
        let mut e = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(0),
        )
        .unwrap();
        e.summarize_table(t);
        e.into_tree()
    };
    let a = summarize(&table);
    let b = summarize(&reloaded);
    assert_eq!(a.leaf_count(), b.leaf_count());
    assert!((a.total_count() - b.total_count()).abs() < 1e-9);
    for cell in a.cells() {
        assert!((cell.weight() - b.cell(cell.key()).unwrap().weight()).abs() < 1e-9);
    }
}
