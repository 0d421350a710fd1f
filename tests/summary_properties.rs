//! Cross-crate property tests: the summary layer's invariants under
//! arbitrary generated databases and merge orders.

use fuzzy::BackgroundKnowledge;
use proptest::prelude::*;
use relation::schema::Schema;
use relation::table::Table;
use relation::value::Value;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::hierarchy::SummaryTree;
use saintetiq::merge::merge_into;
use saintetiq::wire;

/// Strategy: a random patient row within the CBK's domains.
fn patient_row() -> impl Strategy<Value = Vec<Value>> {
    (
        0i64..100,
        prop::bool::ANY,
        12.0f64..45.0,
        prop::sample::select(vec![
            "malaria",
            "tuberculosis",
            "influenza",
            "anorexia",
            "bulimia",
            "diabetes",
            "hypertension",
            "asthma",
        ]),
    )
        .prop_map(|(age, female, bmi, disease)| {
            vec![
                Value::Int(age),
                Value::text(if female { "female" } else { "male" }),
                Value::Float((bmi * 10.0).round() / 10.0),
                Value::text(disease),
            ]
        })
}

fn summarize(rows: &[Vec<Value>], source: u32) -> SummaryTree {
    let mut table = Table::new(Schema::patient());
    for r in rows {
        table.insert(r.clone()).expect("row conforms");
    }
    let mut e = SaintEtiQEngine::new(
        BackgroundKnowledge::medical_cbk(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(source),
    )
    .expect("CBK binds");
    e.summarize_table(&table);
    e.into_tree()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mass conservation: total summary weight equals the row count, for
    /// any database.
    #[test]
    fn summarization_conserves_mass(rows in prop::collection::vec(patient_row(), 1..80)) {
        let tree = summarize(&rows, 1);
        tree.check_invariants();
        prop_assert!((tree.total_count() - rows.len() as f64).abs() < 1e-6);
        prop_assert!(tree.leaf_count() <= 3 * 3 * 3 * 12, "bounded by the grid");
    }

    /// The wire codec is lossless for any generated summary.
    #[test]
    fn wire_roundtrip_any_database(rows in prop::collection::vec(patient_row(), 1..60)) {
        let tree = summarize(&rows, 2);
        let decoded = wire::decode(&wire::encode(&tree)).expect("roundtrip");
        decoded.check_invariants();
        prop_assert_eq!(decoded.leaf_count(), tree.leaf_count());
        prop_assert!((decoded.total_count() - tree.total_count()).abs() < 1e-9);
        prop_assert_eq!(decoded.live_node_count(), tree.live_node_count());
    }

    /// Merging is mass-additive and extent-unioning regardless of the
    /// participating databases.
    #[test]
    fn merge_mass_and_extents(
        a in prop::collection::vec(patient_row(), 1..40),
        b in prop::collection::vec(patient_row(), 1..40),
    ) {
        let ta = summarize(&a, 1);
        let tb = summarize(&b, 2);
        let mut merged = ta.clone();
        merge_into(&mut merged, &tb, &EngineConfig::default()).expect("same CBK");
        merged.check_invariants();
        prop_assert!(
            (merged.total_count() - (ta.total_count() + tb.total_count())).abs() < 1e-6
        );
        prop_assert_eq!(merged.all_sources(), vec![SourceId(1), SourceId(2)]);
    }

    /// Merge is cell-commutative: A∪B and B∪A hold identical cells.
    #[test]
    fn merge_commutes_on_cells(
        a in prop::collection::vec(patient_row(), 1..30),
        b in prop::collection::vec(patient_row(), 1..30),
    ) {
        let ta = summarize(&a, 1);
        let tb = summarize(&b, 2);
        let cfg = EngineConfig::default();
        let mut ab = ta.clone();
        merge_into(&mut ab, &tb, &cfg).expect("same CBK");
        let mut ba = tb.clone();
        merge_into(&mut ba, &ta, &cfg).expect("same CBK");
        let ka: Vec<_> = ab.cells().map(|c| c.key().to_vec()).collect();
        let kb: Vec<_> = ba.cells().map(|c| c.key().to_vec()).collect();
        prop_assert_eq!(&ka, &kb);
        for k in &ka {
            let wa = ab.cell(k).unwrap().weight();
            let wb = ba.cell(k).unwrap().weight();
            prop_assert!((wa - wb).abs() < 1e-9);
        }
    }

    /// Removing a source after merging restores the original cell set.
    #[test]
    fn merge_then_remove_source_restores(
        a in prop::collection::vec(patient_row(), 1..30),
        b in prop::collection::vec(patient_row(), 1..30),
    ) {
        let ta = summarize(&a, 1);
        let tb = summarize(&b, 2);
        let mut merged = ta.clone();
        merge_into(&mut merged, &tb, &EngineConfig::default()).expect("same CBK");
        merged.remove_source(SourceId(2));
        merged.check_invariants();
        prop_assert_eq!(merged.leaf_count(), ta.leaf_count());
        prop_assert!((merged.total_count() - ta.total_count()).abs() < 1e-6);
        for cell in ta.cells() {
            let w = merged.cell(cell.key()).unwrap().weight();
            prop_assert!((cell.weight() - w).abs() < 1e-6);
        }
    }
}
