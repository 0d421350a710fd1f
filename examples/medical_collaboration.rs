//! Medical collaboration: the paper's motivating scenario (§1).
//!
//! Several hospitals share patient databases in a superpeer domain. Each
//! hospital summarizes its own data locally (the raw records never leave
//! the site); the summary peer merges the local summaries into a global
//! summary that answers a doctor's query two ways:
//!
//! 1. **peer localization** — which hospitals hold relevant patients;
//! 2. **approximate answering** — "age of dead-Malaria-like cohorts"
//!    style answers straight from descriptors, without any record access.
//!
//! Run with: `cargo run --example medical_collaboration`

use fuzzy::BackgroundKnowledge;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relation::generator::{matching_patient, random_patient, MatchTarget, PatientDistributions};
use relation::predicate::Predicate;
use relation::query::SelectQuery;
use relation::schema::Schema;
use relation::table::Table;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::hierarchy::SummaryTree;
use saintetiq::merge::merge_into;
use saintetiq::query::approx::approximate_answer;
use saintetiq::query::proposition::reformulate;
use saintetiq::query::relevant_sources;
use saintetiq::wire;

const HOSPITALS: [&str; 5] = [
    "CHU Nantes",
    "Hotel-Dieu",
    "St-Jacques",
    "Laennec",
    "Nord-Clinique",
];

fn hospital_table(rng: &mut StdRng, idx: usize) -> Table {
    let dist = PatientDistributions::default();
    let mut t = Table::new(Schema::patient());
    // Hospitals 0 and 3 run malaria wards: guaranteed young malaria
    // patients there, none elsewhere.
    let malaria_ward = idx == 0 || idx == 3;
    if malaria_ward {
        let target = MatchTarget {
            disease: Some("malaria".into()),
            age: Some((5.0, 15.0)),
            ..Default::default()
        };
        for _ in 0..4 {
            t.insert(matching_patient(rng, &dist, &target))
                .expect("valid row");
        }
    }
    let bg = PatientDistributions {
        diseases: ["anorexia", "diabetes", "asthma", "hypertension"]
            .iter()
            .map(|&d| (d.into(), 1.0))
            .collect(),
        ..Default::default()
    };
    for _ in 0..30 {
        t.insert(random_patient(rng, &bg)).expect("valid row");
    }
    t
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2008);
    let bk = BackgroundKnowledge::medical_cbk();

    // Each hospital builds its local summary; only the summary crosses
    // the network (we measure the bytes to make that point).
    println!("Local summarization at {} hospitals:", HOSPITALS.len());
    let mut gs = SummaryTree::new("medical-cbk-v1", vec![3, 3, 3, 12]);
    let mut tables = Vec::new();
    for (i, name) in HOSPITALS.iter().enumerate() {
        let table = hospital_table(&mut rng, i);
        let mut engine = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(i as u32),
        )
        .expect("CBK binds");
        engine.summarize_table(&table);
        let tree = engine.into_tree();
        let encoded = wire::encode(&tree);
        println!(
            "  {name}: {} patients -> {} cells, localsum = {} bytes",
            table.len(),
            tree.leaf_count(),
            encoded.len()
        );
        merge_into(&mut gs, &tree, &EngineConfig::default()).expect("same CBK");
        tables.push(table);
    }
    println!(
        "\nGlobal summary at the summary peer: {} cells, {} nodes, {} bytes",
        gs.leaf_count(),
        gs.live_node_count(),
        wire::encoded_size(&gs)
    );

    // The doctor's query: young malaria patients.
    let query = SelectQuery::new(
        vec!["age".into(), "bmi".into()],
        vec![Predicate::eq("disease", "malaria")],
    );
    println!("\nDoctor's query: {query}");
    let sq = reformulate(&query, &bk).expect("routable");
    println!("Routable proposition: {}", sq.render(&bk));

    // 1) Peer localization: which hospitals to contact.
    let sources = relevant_sources(&gs, &sq.proposition);
    println!(
        "\nPeer localization (P_Q): {} hospitals hold relevant data",
        sources.len()
    );
    for s in &sources {
        println!("  -> {}", HOSPITALS[s.0 as usize]);
    }

    // 2) Approximate answer, straight from the global summary.
    println!("\nApproximate answer (no record leaves any hospital):");
    for a in approximate_answer(&gs, &sq) {
        println!("  {}", a.render(&bk));
    }

    // Ground truth for comparison: exact evaluation per hospital.
    println!("\nExact evaluation at the localized hospitals:");
    for s in &sources {
        let table = &tables[s.0 as usize];
        let rows = query.evaluate_projected(table).expect("valid query");
        let ages: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
        println!("  {}: ages {}", HOSPITALS[s.0 as usize], ages.join(", "));
    }

    // Verify the semantic index made no mistake (crisp disease => exact).
    for (i, table) in tables.iter().enumerate() {
        let truly = query.matches_any(table).expect("valid query");
        let routed = sources.iter().any(|s| s.0 as usize == i);
        assert_eq!(truly, routed, "routing error at hospital {i}");
    }
    println!("\n=> peer localization agreed exactly with ground truth");
}
