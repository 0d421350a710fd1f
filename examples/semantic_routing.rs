//! Semantic routing over a full power-law network: domain construction
//! (§4.1), summary-peer dynamicity (§4.3) and the §6.2.3 baseline
//! comparison on one concrete query.
//!
//! Run with: `cargo run --release --example semantic_routing`

use p2psim::network::{Network, NodeId};
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use summary_p2p::baselines;
use summary_p2p::construction::{construct_domains, elect_superpeers, handle_sp_departure};
use summary_p2p::costmodel;

fn main() {
    let n = 600;
    let mut rng = StdRng::seed_from_u64(11);
    let topo = TopologyConfig { nodes: n, m: 2 };
    let mut net = Network::new(Graph::barabasi_albert(&topo, &mut rng));
    println!(
        "Power-law network: {} peers, average degree {:.2}, connected: {}",
        n,
        net.graph().average_degree(),
        net.graph().is_connected()
    );

    // --- Domain construction (§4.1) -------------------------------------
    let sps = elect_superpeers(&net, 8);
    println!(
        "\nElected {} summary peers (highest degree: {})",
        sps.len(),
        net.graph().degree(sps[0])
    );
    let mut domains = construct_domains(&net, &sps, 2);
    println!(
        "Construction: {} of {} peers joined a domain with {} messages",
        domains.assigned_count(),
        n - sps.len(),
        domains.messages
    );
    for &sp in &sps {
        println!("  SP {:>4}: {} partners", sp.0, domains.members(sp).len());
    }

    // --- Summary-peer dynamicity (§4.3) ----------------------------------
    let departing = sps[2];
    let orphans = domains.members(departing).len();
    let (rehomed, walk_msgs) = handle_sp_departure(&mut net, &mut domains, departing);
    // A graceful departure sends one `release` to each partner.
    println!(
        "\nSP {} leaves gracefully: {} release msgs, {}/{} partners re-homed \
         via selective walks ({} find msgs)",
        departing.0, orphans, rehomed, orphans, walk_msgs
    );

    // --- Query-cost comparison on this network (§6.2.3) -----------------
    // 10% of peers hold matching data.
    let mut matching = vec![false; n];
    let mut chosen = 0;
    while chosen < n / 10 {
        let i = rng.gen_range(0..n);
        if !matching[i] {
            matching[i] = true;
            chosen += 1;
        }
    }
    let origin = NodeId(rng.gen_range(0..n as u32));
    let flood = baselines::flood_query(&net, origin, 3, |p| matching[p.index()]);
    let central = baselines::centralized_query(&net, |p| matching[p.index()]);
    let sq = costmodel::figure7_sq_cost(n, 0.11, 3.5);

    println!("\nOne query, three algorithms ({} matching peers):", chosen);
    println!(
        "  pure flooding (TTL 3) : {:>6} msgs, recall {:.0}%",
        flood.messages,
        100.0 * flood.recall()
    );
    println!(
        "  summary querying (SQ) : {:>6.0} msgs, recall 100% (visits 10 domains)",
        sq
    );
    println!(
        "  centralized index     : {:>6} msgs, recall 100% (lower bound)",
        central.messages
    );
    println!(
        "\n=> SQ delivers full recall at {:.1}x the centralized cost; flooding \
         finds only {:.0}% of the answers at TTL 3",
        sq / central.messages as f64,
        100.0 * flood.recall()
    );
}
