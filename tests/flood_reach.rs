//! The flood layer's one BFS through the public API: a
//! `FloodScratch` reused across origins, TTLs and liveness changes
//! yields exactly what a fresh `flood_reach_timed` yields, and
//! `flood_reach` is the same reach without latencies.

use p2psim::network::{FloodScratch, Network, NodeId};
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn reused_flood_scratch_matches_fresh_floods() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut scratch = FloodScratch::default();
    let mut out = Vec::new();
    for (nodes, seed) in [(400, 1), (80, 2), (1_000, 3)] {
        let cfg = TopologyConfig {
            nodes,
            ..Default::default()
        };
        let mut net = Network::new(Graph::barabasi_albert(
            &cfg,
            &mut StdRng::seed_from_u64(seed),
        ));
        for _ in 0..100 {
            for _ in 0..rng.gen_range(0..4) {
                let v = NodeId(rng.gen_range(0..nodes as u32));
                if net.is_up(v) {
                    net.take_down(v);
                } else {
                    net.bring_up(v);
                }
            }
            let origin = NodeId(rng.gen_range(0..nodes as u32));
            let ttl = rng.gen_range(1..=8);
            net.flood_reach_into(origin, ttl, &mut scratch, &mut out);
            assert_eq!(
                out,
                net.flood_reach_timed(origin, ttl),
                "{origin:?}, ttl {ttl}"
            );
            let untimed: Vec<(NodeId, u32)> = out.iter().map(|&(v, h, _)| (v, h)).collect();
            assert_eq!(
                untimed,
                net.flood_reach(origin, ttl),
                "{origin:?}, ttl {ttl}"
            );
            assert!(out
                .iter()
                .all(|&(v, h, _)| net.is_up(v) && v != origin && h <= ttl));
        }
    }
}
