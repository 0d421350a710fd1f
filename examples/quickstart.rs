//! Quickstart: the paper's running example, end to end.
//!
//! Builds the medical CBK (Figure 2), summarizes the Patient relation of
//! Table 1 into a SaintEtiQ hierarchy (Table 2 / Figure 3), then runs
//! the §5.1 query two ways: *approximate answering* entirely in the
//! summary domain, and *exact evaluation* for comparison.
//!
//! Run with: `cargo run --example quickstart`

use fuzzy::BackgroundKnowledge;
use relation::query::SelectQuery;
use relation::schema::Schema;
use relation::table::Table;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::query::approx::approximate_answer;
use saintetiq::query::proposition::reformulate;

fn main() {
    // --- Background knowledge (Figure 2) -------------------------------
    let bk = BackgroundKnowledge::medical_cbk();
    let age = bk.attribute("age").expect("age vocabulary");
    println!("Fuzzy mapping of age 20 (Figure 2):");
    for (label, grade) in age.fuzzify_numeric(20.0) {
        println!("  {:.1}/{}", grade, age.label_name(label).unwrap());
    }

    // --- Raw data (Table 1) --------------------------------------------
    let table = Table::patient_table1();
    println!("\nPatient relation (Table 1): {} tuples", table.len());
    for t in table.tuples() {
        let row: Vec<String> = t.values.iter().map(|v| v.to_string()).collect();
        println!("  t{}: {}", t.id.0, row.join(", "));
    }

    // --- Summarization (Table 2 / Figure 3) -----------------------------
    let mut engine = SaintEtiQEngine::new(
        bk.clone(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(0),
    )
    .expect("the CBK binds to the Patient schema");
    engine.summarize_table(&table);
    let tree = engine.tree();
    println!(
        "\nSummary hierarchy: {} cells, {} nodes, depth {} (Figure 3)",
        tree.leaf_count(),
        tree.live_node_count(),
        tree.depth()
    );
    let mapper = engine.mapper();
    for cell in tree.cells() {
        println!(
            "  cell {} -> count {:.1}",
            mapper.describe(cell.key()),
            cell.weight()
        );
    }

    // --- Query reformulation (§5.1) -------------------------------------
    let query = SelectQuery::paper_example();
    println!("\nQuery Q: {query}");
    let sq = reformulate(&query, &bk).expect("query is routable");
    println!("Proposition P: {}", sq.render(&bk));

    // --- Approximate answering (§5.2.2): no raw records touched ---------
    let answers = approximate_answer(engine.tree(), &sq);
    println!("\nApproximate answer (from summaries only):");
    for a in &answers {
        println!("  {}", a.render(&bk));
    }

    // --- Exact answering, for comparison --------------------------------
    let exact = query.evaluate_projected(&table).expect("valid query");
    println!("\nExact answer (raw records): {} tuples", exact.len());
    for row in &exact {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  age = {}", cells.join(", "));
    }

    // The headline sentence of §5.2.2.
    println!(
        "\n=> all female patients diagnosed with anorexia and having an \
         underweight or normal BMI are young"
    );
}
