//! Integration tests of multi-domain construction (§4.1),
//! summary-peer dynamicity (§4.3) over generated power-law topologies,
//! and the run's one message counter.

use p2psim::network::Network;
use p2psim::time::SimTime;
use p2psim::topology::{Graph, TopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use summary_p2p::config::SimConfig;
use summary_p2p::construction::{construct_domains, elect_superpeers, handle_sp_departure};
use summary_p2p::kernel::{LookupTarget, SimKernel};
use summary_p2p::messages::MessageClass;
use summary_p2p::scenario::{with_latency, with_sp_churn};

fn network(n: usize, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TopologyConfig { nodes: n, m: 2 };
    Network::new(Graph::barabasi_albert(&cfg, &mut rng))
}

#[test]
fn construction_covers_the_network() {
    let net = network(500, 1);
    let sps = elect_superpeers(&net, 10);
    let domains = construct_domains(&net, &sps, 2);
    let assignable = net.len() - sps.len();
    assert!(
        domains.assigned_count() as f64 > 0.95 * assignable as f64,
        "coverage {}/{assignable}",
        domains.assigned_count()
    );
    // Every partner's SP is one of the elected superpeers.
    for (i, a) in domains.assignment.iter().enumerate() {
        if let Some(sp) = a {
            assert!(sps.contains(sp), "peer {i} assigned to non-SP {sp:?}");
        }
    }
}

#[test]
fn broadcast_ttl_bounds_direct_assignments() {
    // With TTL 1, only direct neighbors of SPs join via broadcast; the
    // selective-walk fallback still catches the rest.
    let ttl1 = network(300, 2);
    let sps1 = elect_superpeers(&ttl1, 5);
    let d1 = construct_domains(&ttl1, &sps1, 1);
    let broadcast_hits_ttl1 = d1
        .distance
        .iter()
        .filter(|&&d| d != u64::MAX && d != u64::MAX - 1)
        .count();

    let ttl3 = network(300, 2);
    let sps3 = elect_superpeers(&ttl3, 5);
    let d3 = construct_domains(&ttl3, &sps3, 3);
    let broadcast_hits_ttl3 = d3
        .distance
        .iter()
        .filter(|&&d| d != u64::MAX && d != u64::MAX - 1)
        .count();

    assert!(
        broadcast_hits_ttl3 > broadcast_hits_ttl1,
        "larger TTL reaches more peers directly: {broadcast_hits_ttl3} vs {broadcast_hits_ttl1}"
    );
}

#[test]
fn construction_message_cost_scales_with_ttl() {
    let a = network(400, 3);
    let sps_a = elect_superpeers(&a, 8);
    let cost_ttl1 = construct_domains(&a, &sps_a, 1).messages;

    let b = network(400, 3);
    let sps_b = elect_superpeers(&b, 8);
    let cost_ttl3 = construct_domains(&b, &sps_b, 3).messages;

    assert!(cost_ttl3 > cost_ttl1, "{cost_ttl3} vs {cost_ttl1}");
}

#[test]
fn domains_partition_the_assigned_peers() {
    let net = network(350, 4);
    let sps = elect_superpeers(&net, 7);
    let domains = construct_domains(&net, &sps, 2);
    let mut seen = vec![false; net.len()];
    for &sp in &sps {
        for p in domains.members(sp) {
            assert!(!seen[p.index()], "peer {p:?} in two domains");
            seen[p.index()] = true;
        }
    }
}

#[test]
fn sequential_sp_departures_drain_gracefully() {
    let mut net = network(300, 5);
    let sps = elect_superpeers(&net, 6);
    let mut domains = construct_domains(&net, &sps, 2);

    // Take down SPs one by one; partners keep re-homing to survivors.
    for &sp in sps.iter().take(4) {
        handle_sp_departure(&mut net, &mut domains, sp);
        // Remaining assignments only point at surviving SPs.
        for a in domains.assignment.iter().flatten() {
            assert!(domains.superpeers.contains(a));
            assert!(net.is_up(*a));
        }
    }
    assert_eq!(domains.superpeers.len(), 2);
    assert!(domains.assigned_count() > 0, "survivors still hold domains");
}

#[test]
fn failed_vs_graceful_departure_cost_profile() {
    // Graceful SP departures send each partner a `release`; failed ones
    // send nothing, and each partner pays a timed-out push instead. The
    // per-partner counts are pinned by the kernel's unit tests; here
    // both kinds of run dissolve domains, and only graceful ones pay
    // `Control` messages.
    let run = |failure_fraction: f64| {
        let mut cfg = with_sp_churn(&small(150, 6), 3600.0);
        cfg.failure_fraction = failure_fraction;
        let mut k = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
        let initial = k.live_domains();
        k.run_to_horizon();
        assert!(
            k.live_domains() < initial,
            "failure fraction {failure_fraction}: SPs must depart"
        );
        k.ledger().sent(MessageClass::Control)
    };
    assert!(run(0.0) > 0, "graceful departures release their partners");
    assert_eq!(run(1.0), 0, "failed SPs send no release");
}

fn small(n: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(n, 0.3);
    c.horizon = SimTime::from_hours(4);
    c.query_count = 30;
    c.records_per_peer = 10;
    c.seed = seed;
    c
}

/// Every message a lookup costs is charged at one call, to the run's
/// ledger and to the lookup's own tally together: the ledger's query,
/// response and flood counts equal the summed `messages` of every
/// lookup outcome, at any point of the run and in both delivery modes,
/// lookups still open (cut off at the horizon) included.
#[test]
fn ledger_counts_every_lookup_message_once() {
    let charged = |k: &SimKernel| -> u64 {
        [
            MessageClass::Query,
            MessageClass::QueryResponse,
            MessageClass::Flood,
        ]
        .iter()
        .map(|&c| k.ledger().sent(c))
        .sum()
    };
    let tallied =
        |k: &SimKernel| -> u64 { k.lookup_outcomes().iter().map(|(_, o)| o.messages).sum() };
    for latency in [false, true] {
        let mut cfg = small(150, 3);
        if latency {
            cfg = with_latency(&cfg, SimTime::from_millis(50));
        }
        let mut k = SimKernel::networked(cfg, 25, Some(LookupTarget::Total)).unwrap();
        let mut cut_off = 0;
        for i in 0..cfg.query_count {
            // Just after the kernel poses the i-th lookup (it spreads
            // them evenly over 10%..100% of the horizon).
            let frac = 0.1 + 0.9 * i as f64 / cfg.query_count as f64;
            let now = cfg.horizon.as_secs_f64() * frac + 0.001;
            k.run_until(SimTime::from_secs_f64(now));
            assert_eq!(charged(&k), tallied(&k), "latency {latency}, lookup {i}");
            cut_off += k
                .lookup_outcomes()
                .iter()
                .filter(|(posed, o)| posed.as_secs_f64() + o.time_to_answer_s > now)
                .count();
        }
        k.run_to_horizon();
        assert!(tallied(&k) > 0, "latency {latency}");
        assert_eq!(
            charged(&k),
            tallied(&k),
            "latency {latency}, at the horizon"
        );
        assert_eq!(
            cut_off > 0,
            latency,
            "only the latency plane keeps lookups open"
        );
    }
}
