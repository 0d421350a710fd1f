//! Tables 1–3 and Figures 2–3 of the paper, regenerated.
//!
//! * **Table 1** — the raw `Patient` relation;
//! * **Figure 2** — the fuzzy linguistic partition on `age` (sampled);
//! * **Table 2** — the grid-cell mapping with its exact tuple counts
//!   (2 / 0.7 / 0.3);
//! * **Figure 3** — the summary hierarchy built from cells c1–c3;
//! * **Table 3** — the simulation parameters encoded in [`SimConfig`].

use std::collections::BTreeMap;

use fuzzy::BackgroundKnowledge;
use relation::schema::Schema;
use relation::table::Table;
use saintetiq::cell::SourceId;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::hierarchy::{NodeId, SummaryTree};
use saintetiq::mapping::Mapper;
use summary_p2p::config::SimConfig;

use sumq_bench::render_table;

fn print_table1(table: &Table) {
    println!("Table 1: Raw data\n");
    let rows: Vec<Vec<String>> = table
        .tuples()
        .iter()
        .map(|t| {
            let mut row = vec![format!("t{}", t.id.0)];
            row.extend(t.values.iter().map(|v| v.to_string()));
            row
        })
        .collect();
    println!(
        "{}",
        render_table(&["Id", "Age", "Sex", "BMI", "Disease"], &rows)
    );
}

fn print_figure2(bk: &BackgroundKnowledge) {
    println!("Figure 2: Fuzzy linguistic partition on age (sampled grades)\n");
    let age = bk.attribute("age").expect("age in CBK");
    let rows: Vec<Vec<String>> = [0.0, 10.0, 17.0, 20.0, 27.0, 40.0, 60.0, 80.0]
        .iter()
        .map(|&x| {
            let grades: Vec<String> = age
                .fuzzify_numeric(x)
                .into_iter()
                .map(|(l, g)| format!("{:.2}/{}", g, age.label_name(l).unwrap()))
                .collect();
            vec![format!("{x}"), grades.join(", ")]
        })
        .collect();
    println!("{}", render_table(&["age", "memberships"], &rows));
}

fn print_table2(bk: &BackgroundKnowledge, table: &Table) {
    println!("Table 2: Grid-cells mapping\n");
    let mapper = Mapper::bind(bk.clone(), &Schema::patient()).expect("CBK binds");
    let (mapped, _) = mapper.map_table(table);
    let age_i = bk.attribute_index("age").unwrap();
    let bmi_i = bk.attribute_index("bmi").unwrap();
    let mut counts: BTreeMap<(String, String), (f64, f64)> = BTreeMap::new();
    for cells in &mapped {
        for c in cells {
            let age = bk
                .attribute_at(age_i)
                .unwrap()
                .label_name(c.key.0[age_i])
                .unwrap();
            let bmi = bk
                .attribute_at(bmi_i)
                .unwrap()
                .label_name(c.key.0[bmi_i])
                .unwrap();
            let slot = counts.entry((age.into(), bmi.into())).or_insert((0.0, 0.0));
            slot.0 += c.weight;
            slot.1 = slot.1.max(c.grades[age_i]);
        }
    }
    let rows: Vec<Vec<String>> = counts
        .iter()
        .enumerate()
        .map(|(i, ((age, bmi), (count, grade)))| {
            let age_str = if *grade < 1.0 {
                format!("{grade:.1}/{age}")
            } else {
                age.clone()
            };
            vec![
                format!("c{}", i + 1),
                age_str,
                bmi.clone(),
                format!("{count:.1}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Id", "Age", "BMI", "tuple count"], &rows)
    );
}

fn print_node(tree: &SummaryTree, mapper: &Mapper, node: NodeId, depth: usize, out: &mut String) {
    let n = tree.node(node);
    let indent = "  ".repeat(depth);
    let bk = mapper.bk();
    let intent: Vec<String> = bk
        .attributes()
        .iter()
        .enumerate()
        .map(|(i, attr)| {
            let labels: Vec<&str> = n.intent()[i]
                .iter()
                .filter_map(|l| attr.label_name(l))
                .collect();
            format!("{}:{{{}}}", attr.name(), labels.join("|"))
        })
        .collect();
    out.push_str(&format!(
        "{indent}{} count={:.1} {}\n",
        if n.is_leaf() { "leaf" } else { "node" },
        n.count(),
        intent.join(" ")
    ));
    for c in n.children() {
        print_node(tree, mapper, c, depth + 1, out);
    }
}

fn print_figure3(bk: &BackgroundKnowledge, table: &Table) {
    println!("Figure 3: SaintEtiQ hierarchy over Table 1\n");
    let mut engine = SaintEtiQEngine::new(
        bk.clone(),
        &Schema::patient(),
        EngineConfig::default(),
        SourceId(0),
    )
    .expect("CBK binds");
    engine.summarize_table(table);
    let mapper = engine.mapper().clone();
    let tree = engine.into_tree();
    let mut out = String::new();
    print_node(&tree, &mapper, tree.root(), 0, &mut out);
    println!("{out}");
}

fn print_table3() {
    println!("Table 3: Simulation parameters\n");
    let cfg = SimConfig::paper_defaults(500, 0.3);
    let rows = vec![
        vec![
            "local summary lifetime L".to_string(),
            "skewed (lognormal), mean=3h, median=1h".to_string(),
        ],
        vec!["number of peers n".into(), "16-5000".into()],
        vec!["number of queries q".into(), cfg.query_count.to_string()],
        vec![
            "matching nodes/query hits".into(),
            format!("{:.0}%", cfg.match_fraction * 100.0),
        ],
        vec!["freshness threshold alpha".into(), "0.1-0.8".into()],
        vec![
            "query rate".into(),
            format!("{} q/node/s", SimConfig::QUERY_RATE_PER_NODE_S),
        ],
        vec![
            "topology".into(),
            "power law (Barabasi-Albert m=2), avg degree 4".into(),
        ],
        vec!["flooding TTL".into(), cfg.flood_ttl.to_string()],
        vec![
            "inter-domain degree k".into(),
            SimConfig::INTERDOMAIN_K.to_string(),
        ],
    ];
    println!("{}", render_table(&["parameter", "value"], &rows));
}

fn main() {
    let bk = BackgroundKnowledge::medical_cbk();
    let table = Table::patient_table1();
    print_table1(&table);
    print_figure2(&bk);
    print_table2(&bk, &table);
    print_figure3(&bk, &table);
    print_table3();
}
