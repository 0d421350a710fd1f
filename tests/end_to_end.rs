//! End-to-end integration: Table 1 → fuzzy mapping → summary hierarchy →
//! query reformulation → approximate answer and peer localization, with
//! exact evaluation as ground truth. Exercises every crate in one flow.

use fuzzy::BackgroundKnowledge;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relation::generator::{patient_table, MatchTarget, PatientDistributions};
use relation::predicate::Predicate;
use relation::query::SelectQuery;
use relation::schema::Schema;
use relation::table::Table;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::merge::merge_into;
use saintetiq::query::approx::approximate_answer;
use saintetiq::query::proposition::reformulate;
use saintetiq::query::relevant_sources;
use saintetiq::wire;

fn engine_for(source: u32) -> SaintEtiQEngine {
    SaintEtiQEngine::new(
        BackgroundKnowledge::medical_cbk(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(source),
    )
    .expect("CBK binds to the Patient schema")
}

/// The paper's complete §3–§5 walk-through.
#[test]
fn paper_walkthrough() {
    let bk = BackgroundKnowledge::medical_cbk();
    let table = Table::patient_table1();
    let mut engine = engine_for(0);
    engine.summarize_table(&table);

    // Table 2: three cells with counts 2 / 0.7 / 0.3.
    assert_eq!(engine.tree().leaf_count(), 3);

    // §5.1 query, reformulated.
    let query = SelectQuery::paper_example();
    let sq = reformulate(&query, &bk).unwrap();
    assert_eq!(
        sq.render(&bk),
        "(female) AND (underweight OR normal) AND (anorexia)"
    );

    // §5.2.2: approximate answer = age {young}, weight 2 (t1 and t3).
    let answers = approximate_answer(engine.tree(), &sq);
    let total: f64 = answers.iter().map(|a| a.weight).sum();
    assert!((total - 2.0).abs() < 1e-9);
    for a in &answers {
        assert!(a.render(&bk).contains("age = {young}"));
    }

    // Exact evaluation agrees on the cohort.
    let exact = query.evaluate_projected(&table).unwrap();
    assert_eq!(exact.len(), 2);
}

/// Summary-based routing agrees with exact evaluation on crisp
/// (categorical) predicates across many random peers.
#[test]
fn routing_matches_exact_evaluation() {
    let bk = BackgroundKnowledge::medical_cbk();
    let mut rng = StdRng::seed_from_u64(17);
    let dist = PatientDistributions::default();
    let query = SelectQuery::new(
        vec!["age".into()],
        vec![Predicate::eq("disease", "malaria")],
    );
    let sq = reformulate(&query, &bk).unwrap();

    let mut gs = saintetiq::hierarchy::SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    let mut truth = Vec::new();
    for p in 0..40u32 {
        let target = MatchTarget {
            disease: Some("malaria".into()),
            ..Default::default()
        };
        let matches = p % 4 == 0;
        let table = patient_table(&mut rng, 20, &dist, &target, if matches { 2 } else { 0 });
        truth.push(query.matches_any(&table).unwrap());
        let mut e = engine_for(p);
        e.summarize_table(&table);
        merge_into(&mut gs, e.tree(), &EngineConfig::default()).unwrap();
    }
    let routed = relevant_sources(&gs, &sq.proposition);
    for p in 0..40u32 {
        let in_route = routed.contains(&SourceId(p));
        assert_eq!(in_route, truth[p as usize], "peer {p}");
    }
}

/// Range predicates may produce false positives (fuzzy extension) but
/// never false negatives: QS ⊆ QS* (§5.1).
#[test]
fn no_false_negatives_on_range_queries() {
    let bk = BackgroundKnowledge::medical_cbk();
    let mut rng = StdRng::seed_from_u64(23);
    let dist = PatientDistributions::default();
    let query = SelectQuery::new(vec!["age".into()], vec![Predicate::lt("bmi", 19.0)]);
    let sq = reformulate(&query, &bk).unwrap();

    let mut gs = saintetiq::hierarchy::SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    let mut tables = Vec::new();
    for p in 0..30u32 {
        let table = patient_table(&mut rng, 15, &dist, &MatchTarget::default(), 0);
        let mut e = engine_for(p);
        e.summarize_table(&table);
        merge_into(&mut gs, e.tree(), &EngineConfig::default()).unwrap();
        tables.push(table);
    }
    let routed = relevant_sources(&gs, &sq.proposition);
    for (p, table) in tables.iter().enumerate() {
        if query.matches_any(table).unwrap() {
            assert!(
                routed.contains(&SourceId(p as u32)),
                "false negative at peer {p}: matching peer not localized"
            );
        }
    }
}

/// Local summaries survive the wire; a reconstructed GS from decoded
/// summaries equals one built from the originals.
#[test]
fn wire_roundtrip_through_merge() {
    let mut rng = StdRng::seed_from_u64(31);
    let dist = PatientDistributions::default();
    let cfg = EngineConfig::default();

    let mut direct = saintetiq::hierarchy::SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    let mut via_wire = direct.clone();
    for p in 0..10u32 {
        let table = patient_table(&mut rng, 25, &dist, &MatchTarget::default(), 0);
        let mut e = engine_for(p);
        e.summarize_table(&table);
        let tree = e.into_tree();
        merge_into(&mut direct, &tree, &cfg).unwrap();
        let decoded = wire::decode(&wire::encode(&tree)).unwrap();
        merge_into(&mut via_wire, &decoded, &cfg).unwrap();
    }
    assert_eq!(direct.leaf_count(), via_wire.leaf_count());
    assert!((direct.total_count() - via_wire.total_count()).abs() < 1e-9);
    for cell in direct.cells() {
        let other = via_wire.cell(cell.key()).expect("cell in both");
        assert!((cell.weight() - other.weight()).abs() < 1e-9);
        assert!(cell
            .sources()
            .map(|(s, _)| s)
            .eq(other.sources().map(|(s, _)| s)));
    }
}

/// Incremental maintenance (push mode) tracks a mutating database to the
/// same summary a fresh rebuild produces, across a long edit script.
#[test]
fn incremental_equals_rebuild_after_edit_script() {
    let mut rng = StdRng::seed_from_u64(37);
    let dist = PatientDistributions::default();
    let mut table = patient_table(&mut rng, 40, &dist, &MatchTarget::default(), 0);
    let mut incremental = engine_for(1);
    incremental.summarize_table(&table);
    table.drain_changes();

    use rand::Rng;
    for step in 0..120 {
        let ids: Vec<relation::tuple::TupleId> = table.iter().map(|(id, _)| id).collect();
        match step % 3 {
            0 => {
                table
                    .insert(relation::generator::random_patient(&mut rng, &dist))
                    .unwrap();
            }
            1 if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                table.delete(id).unwrap();
            }
            _ if !ids.is_empty() => {
                let id = ids[rng.gen_range(0..ids.len())];
                table
                    .update(id, relation::generator::random_patient(&mut rng, &dist))
                    .unwrap();
            }
            _ => {}
        }
        let changes = table.drain_changes();
        incremental.apply_changes(&table, &changes);
    }
    incremental.tree().check_invariants();

    let mut fresh = engine_for(1);
    fresh.summarize_table(&table);
    assert_eq!(incremental.tree().leaf_count(), fresh.tree().leaf_count());
    assert!((incremental.tree().total_count() - fresh.tree().total_count()).abs() < 1e-6);
    for entry in incremental.tree().cells() {
        let k = entry.key();
        let w = fresh.tree().cell(k).unwrap().weight();
        assert!((entry.weight() - w).abs() < 1e-6, "drift on {k:?}");
    }
}
