//! Figure 6 — *Number of update messages vs. domain size*, for
//! α = 0.3 and α = 0.8.
//!
//! Counts push and reconciliation messages over the horizon. The paper's
//! observations to reproduce: total messages grow with the domain size
//! but the per-node rate stays almost flat; tightening α from 0.8 to 0.3
//! costs only ≈1.2× more traffic while sharply improving accuracy.

use summary_p2p::config::SimConfig;
use summary_p2p::scenario::figure6;

use sumq_bench::{exit_on_domain_errors, render_csv, render_table, Cli};

fn main() {
    let cli = Cli::parse();
    let sizes = cli.domain_sizes();
    let alphas = [0.3, 0.8];
    let mut base = SimConfig::paper_defaults(0, 0.3);
    base.seed = cli.seed;

    eprintln!("fig6: sweeping {} sizes x {{0.3, 0.8}} ...", sizes.len());
    let rows = figure6(&sizes, &alphas, &base).expect("valid config");

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1}", r.alpha),
                r.total_messages.to_string(),
                r.token_counted.to_string(),
                format!("{:.6}", r.per_node_s),
                r.reconciliations.to_string(),
            ]
        })
        .collect();
    let headers = [
        "n",
        "alpha",
        "update_msgs",
        "token_counted",
        "msgs_per_node_s",
        "reconciliations",
    ];
    println!("Figure 6: update messages vs domain size\n");
    println!("{}", render_table(&headers, &table_rows));
    println!("CSV:\n{}", render_csv(&headers, &table_rows));

    // Paper check: cost increase when tightening alpha 0.8 -> 0.3, under
    // both accountings (hop-counted tokens vs the paper's single-message
    // token; the paper's ~1.2 sits between the two).
    let mut hop_ratios = Vec::new();
    let mut token_ratios = Vec::new();
    for &n in &sizes {
        let tight = rows.iter().find(|r| r.n == n && r.alpha == 0.3);
        let lax = rows.iter().find(|r| r.n == n && r.alpha == 0.8);
        if let (Some(t), Some(l)) = (tight, lax) {
            if l.total_messages > 0 {
                hop_ratios.push(t.total_messages as f64 / l.total_messages as f64);
            }
            if l.token_counted > 0 {
                token_ratios.push(t.token_counted as f64 / l.token_counted as f64);
            }
        }
    }
    if !hop_ratios.is_empty() {
        let hop = hop_ratios.iter().sum::<f64>() / hop_ratios.len() as f64;
        let token = token_ratios.iter().sum::<f64>() / token_ratios.len() as f64;
        println!(
            "paper check: avg cost ratio alpha 0.3 / 0.8 = {hop:.2} (hop-counted) \
             / {token:.2} (token-counted); paper: ~1.2"
        );
    }
    exit_on_domain_errors(rows.iter().map(|r| r.domain_errors).sum());
}
