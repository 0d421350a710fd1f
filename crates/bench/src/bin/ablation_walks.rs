//! Ablation (DESIGN.md): *selective* walks (highest-degree neighbor,
//! §4.1 after Adamic et al. \[23\]) vs plain random walks for finding a
//! summary peer on a power-law topology.
//!
//! The paper chooses the selective walk because hubs are found in very
//! few hops on heavy-tailed graphs; this measures exactly that.

use p2psim::network::{Network, NodeId};
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use summary_p2p::construction::elect_superpeers;

use sumq_bench::{f1, f4, render_csv, render_table, Cli};

/// Random walk until an SP (or a dead end / hop budget); returns hops.
fn random_walk_hops(
    net: &Network,
    rng: &mut StdRng,
    origin: NodeId,
    sps: &[NodeId],
    max_hops: u32,
) -> Option<u32> {
    let mut cur = origin;
    for hop in 1..=max_hops {
        let next = net.random_step(cur, rng)?;
        if sps.contains(&next) {
            return Some(hop);
        }
        cur = next;
    }
    None
}

fn main() {
    let cli = Cli::parse();
    let mut rows = Vec::new();
    for &n in &(if cli.quick {
        vec![200usize, 800]
    } else {
        vec![200usize, 800, 3000]
    }) {
        let mut rng = StdRng::seed_from_u64(cli.seed);
        let topo = TopologyConfig { nodes: n, m: 2 };
        let net = Network::new(Graph::barabasi_albert(&topo, &mut rng));
        let sps = elect_superpeers(&net, (n / 60).max(2));
        let max_hops = 64u32;
        let trials = if cli.quick { 100 } else { 400 };

        let mut sel_hops = 0u64;
        let mut sel_found = 0usize;
        let mut rnd_hops = 0u64;
        let mut rnd_found = 0usize;
        for _ in 0..trials {
            let origin = NodeId(rng.gen_range(0..n as u32));
            if sps.contains(&origin) {
                continue;
            }
            let (path, found) = net.selective_walk(origin, max_hops, |v| sps.contains(&v));
            if found {
                sel_found += 1;
                sel_hops += path.len() as u64;
            }
            if let Some(h) = random_walk_hops(&net, &mut rng, origin, &sps, max_hops) {
                rnd_found += 1;
                rnd_hops += h as u64;
            }
        }
        rows.push(vec![
            n.to_string(),
            f1(sel_hops as f64 / sel_found.max(1) as f64),
            f4(sel_found as f64 / trials as f64),
            f1(rnd_hops as f64 / rnd_found.max(1) as f64),
            f4(rnd_found as f64 / trials as f64),
        ]);
    }

    let headers = [
        "n",
        "selective_hops",
        "selective_found",
        "random_hops",
        "random_found",
    ];
    println!("Ablation: selective vs random walk to find a summary peer\n");
    println!("{}", render_table(&headers, &rows));
    println!("CSV:\n{}", render_csv(&headers, &rows));
    println!("=> the §4.1 selective walk reaches an SP in a fraction of the hops");
}
