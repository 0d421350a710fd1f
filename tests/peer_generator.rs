//! A bound peer generator carries nothing from one peer to the next.
//!
//! The simulation kernel keeps one `PeerGenerator` and regenerates every
//! drifted database with it: the engine's mapper stays bound, its
//! buffers are reused and its tree arena is encoded and flattened in
//! place, then cleared with its capacity kept. Each peer must still come
//! out exactly as a generator bound for that call alone would make it,
//! from the same RNG draws, however much larger or smaller the previous
//! peer's summary was.

use fuzzy::bk::BackgroundKnowledge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::generator::{patient_table, MatchTarget, PatientDistributions};
use relation::schema::Schema;
use relation::value::Value;
use saintetiq::cell::SourceId;
use saintetiq::delta::SourceDelta;
use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
use saintetiq::wire;
use summary_p2p::error::P2pError;
use summary_p2p::workload::{generate_peer_data, make_templates, PeerGenerator};

/// Record counts that grow the recycled arena, shrink it to one record,
/// and grow it again.
const GROW_AND_SHRINK: [usize; 4] = [1, 24, 1, 16];

/// 216 peers from one bound generator, cycling through match fractions
/// {0, 0.1, 1} and record counts 1, 24, 1, 16 so that neighbours differ
/// and the arena grows and shrinks, against a fresh generator per peer
/// fed the same RNG stream.
#[test]
fn a_bound_generator_makes_each_peer_as_a_fresh_one() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let templates = make_templates(3);
    let mut bound = PeerGenerator::new(&bk, &templates)?;
    let (mut reused_rng, mut fresh_rng) = (StdRng::seed_from_u64(77), StdRng::seed_from_u64(77));
    for peer in 0..216u32 {
        let fraction = [0.0, 0.1, 1.0][peer as usize % 3];
        let records = GROW_AND_SHRINK[peer as usize / 3 % 4];
        let reused = bound.generate(&mut reused_rng, peer, fraction, records)?;
        let fresh = generate_peer_data(&mut fresh_rng, peer, &bk, &templates, fraction, records)?;
        let ctx = format!("peer {peer}, match fraction {fraction}, {records} records");
        assert_eq!(reused.match_bits, fresh.match_bits, "{ctx}");
        assert_eq!(reused.summary[..], fresh.summary[..], "{ctx}");
        // `Debug` prints every float in its shortest round-trip form, so
        // equal strings mean equal bits.
        assert_eq!(
            format!("{:?}", reused.flat),
            format!("{:?}", fresh.flat),
            "{ctx}"
        );
        wire::decode(&reused.summary)?.check_invariants();
    }
    assert_eq!(
        reused_rng.gen::<u64>(),
        fresh_rng.gen::<u64>(),
        "both made the same draws"
    );
    Ok(())
}

/// An engine whose tree is cleared summarizes its next table as a fresh
/// engine would, through an arena that grows and shrinks, and forgets
/// the unmappable records it skipped: same invariants, bytes and flat
/// form.
#[test]
fn a_reused_engine_summarizes_each_table_as_a_fresh_one() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let dist = PatientDistributions::default();
    let mut rng = StdRng::seed_from_u64(78);
    let new_engine = |source| {
        SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            source,
        )
    };
    let mut reused = new_engine(SourceId(0))?;
    let records = GROW_AND_SHRINK.into_iter().chain([60, 5, 16]);
    for (i, records) in records.enumerate() {
        let mut table = patient_table(&mut rng, records, &dist, &MatchTarget::default(), 0);
        let skipped = i % 2;
        if skipped == 1 {
            let no_age = vec![
                Value::Null,
                Value::text("female"),
                Value::Float(21.0),
                Value::text("asthma"),
            ];
            table.insert(no_age)?;
        }
        let source = SourceId(i as u32 + 1);
        reused.set_source(source);
        reused.summarize_table(&table);
        assert_eq!(reused.unmappable(), skipped, "table {i}");
        let tree = reused.tree();
        tree.check_invariants();

        let mut fresh = new_engine(source)?;
        fresh.summarize_table(&table);
        assert_eq!(fresh.unmappable(), skipped, "table {i}");
        fresh.tree().check_invariants();
        assert_eq!(
            wire::encode(tree)[..],
            wire::encode(fresh.tree())[..],
            "table {i}"
        );
        assert_eq!(
            format!("{:?}", SourceDelta::from_tree(tree, source)),
            format!("{:?}", SourceDelta::from_tree(fresh.tree(), source)),
            "table {i}"
        );
        reused.clear_tree();
        assert_eq!(reused.unmappable(), 0, "table {i}");
        assert_eq!(reused.tree().live_node_count(), 1, "table {i}");
        reused.tree().check_invariants();
    }
    Ok(())
}
