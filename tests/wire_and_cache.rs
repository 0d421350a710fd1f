//! Property tests for the two caching/serialization workhorses of the
//! summary fabric: the `saintetiq::wire` codec (summaries cross the
//! network on every `localsum` and reconciliation token) and the
//! `summary_p2p::cache::QueryCache` (§5.2.2's group-locality device).

use std::rc::Rc;

use proptest::prelude::*;

use fuzzy::descriptor::LabelId;
use p2psim::network::NodeId;
use saintetiq::cell::{CellKey, SourceId};
use saintetiq::engine::{incorporate_cell, EngineConfig};
use saintetiq::hierarchy::SummaryTree;
use saintetiq::wire;
use summary_p2p::cache::QueryCache;

/// The grid shape used by the random-tree strategy.
const SHAPE: [usize; 3] = [3, 4, 5];

/// Strategy: one random cell — its grid coordinate, owning source,
/// weight, and per-attribute grades.
fn cell() -> impl Strategy<Value = (Vec<u16>, u32, f64, Vec<f64>)> {
    (
        (
            0u16..SHAPE[0] as u16,
            0u16..SHAPE[1] as u16,
            0u16..SHAPE[2] as u16,
        ),
        0u32..12,
        0.05f64..4.0,
        (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
    )
        .prop_map(|((a, b, c), src, w, (g0, g1, g2))| (vec![a, b, c], src, w, vec![g0, g1, g2]))
}

fn build_tree(cells: &[(Vec<u16>, u32, f64, Vec<f64>)]) -> SummaryTree {
    let mut tree = SummaryTree::new("prop-bk", SHAPE.to_vec());
    let cfg = EngineConfig::default();
    for (labels, src, weight, grades) in cells {
        let key = CellKey(labels.iter().map(|&l| LabelId(l)).collect());
        incorporate_cell(&mut tree, &cfg, &key, SourceId(*src), *weight, grades, None);
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode/decode is lossless for any random tree: structure, mass,
    /// per-cell weights, per-source contributions and grades all survive.
    #[test]
    fn wire_roundtrip_random_trees(cells in prop::collection::vec(cell(), 0..60)) {
        let tree = build_tree(&cells);
        tree.check_invariants();
        let bytes = wire::encode(&tree);
        let decoded = wire::decode(&bytes).expect("own encodings decode");
        decoded.check_invariants();

        prop_assert_eq!(decoded.bk_name(), tree.bk_name());
        prop_assert_eq!(decoded.label_counts(), tree.label_counts());
        prop_assert_eq!(decoded.leaf_count(), tree.leaf_count());
        prop_assert_eq!(decoded.live_node_count(), tree.live_node_count());
        prop_assert!((decoded.total_count() - tree.total_count()).abs() < 1e-9);
        let mut sa = decoded.all_sources();
        let mut sb = tree.all_sources();
        sa.sort_unstable_by_key(|s| s.0);
        sb.sort_unstable_by_key(|s| s.0);
        prop_assert_eq!(sa, sb);
        for cell in tree.cells() {
            let de = decoded.cell(cell.key()).expect("cell decoded");
            prop_assert!((de.weight() - cell.weight()).abs() < 1e-9);
            prop_assert_eq!(de.sources().collect::<Vec<_>>(), cell.sources().collect::<Vec<_>>());
            prop_assert_eq!(de.max_grades(), cell.max_grades());
        }
    }

    /// A second encode of the decoded tree is byte-identical: the codec
    /// is a canonical form, so re-shipping a relayed summary (as the
    /// reconciliation ring does) never inflates it.
    #[test]
    fn wire_encoding_is_canonical(cells in prop::collection::vec(cell(), 0..40)) {
        let tree = build_tree(&cells);
        let once = wire::encode(&tree);
        let twice = wire::encode(&wire::decode(&once).expect("decodes"));
        prop_assert_eq!(&once[..], &twice[..]);
    }

    /// Truncating an encoding anywhere must error, never panic — a
    /// malformed localsum cannot take down a summary peer.
    #[test]
    fn wire_truncations_error_cleanly(
        cells in prop::collection::vec(cell(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let tree = build_tree(&cells);
        let bytes = wire::encode(&tree);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(wire::decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
    }

    /// The cache never exceeds its capacity, and always serves the most
    /// recently inserted answer for a template.
    #[test]
    fn cache_capacity_and_freshest_answer(
        capacity in 1usize..6,
        ops in prop::collection::vec((0usize..8, 0u32..50), 1..80),
    ) {
        let mut cache = QueryCache::new(capacity);
        let mut latest: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (template, payload) in ops {
            let answering = vec![NodeId(payload), NodeId(payload + 1)];
            cache.insert(template, answering.as_slice().into());
            latest.insert(template, answering);
            prop_assert!(cache.len() <= capacity, "len {} > cap {capacity}", cache.len());
            let hit = cache.lookup(template).expect("just inserted");
            prop_assert_eq!(&*hit.answering, &latest.get(&template).expect("tracked")[..]);
        }
    }

    /// LRU model check: after any op sequence, the cached template set
    /// equals the `capacity` most recently *touched* templates (inserts
    /// and lookup hits both refresh recency).
    #[test]
    fn cache_matches_lru_model(
        capacity in 1usize..5,
        ops in prop::collection::vec((prop::bool::ANY, 0usize..6), 1..60),
    ) {
        let mut cache = QueryCache::new(capacity);
        // Model: templates in MRU-first order.
        let mut model: Vec<usize> = Vec::new();
        for (is_insert, template) in ops {
            if is_insert {
                cache.insert(template, [NodeId(template as u32)].into());
                model.retain(|&t| t != template);
                model.insert(0, template);
                model.truncate(capacity);
            } else {
                let model_hit = model.contains(&template);
                let cache_hit = cache.lookup(template).is_some();
                prop_assert_eq!(cache_hit, model_hit, "hit disagreement on {template}");
                if model_hit {
                    model.retain(|&t| t != template);
                    model.insert(0, template);
                }
            }
            let mut cached: Vec<usize> =
                (0..6).filter(|&t| cache.peek(t).is_some()).collect();
            let mut expected = model.clone();
            cached.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(cached, expected, "retained sets diverge");
        }
    }

    /// Full model check: `QueryCache` and a plain most-recently-used-first
    /// `Vec` agree on every result and on every entry, in order and down
    /// to the shared answer list, after each random `insert`, `lookup`,
    /// `peek` or `clear` — the hit on the most recently used entry
    /// included, which moves nothing.
    #[test]
    fn cache_matches_reference_lru_step_by_step(
        capacity in 1usize..9,
        ops in prop::collection::vec((0u8..10, 0usize..6, 0u32..40), 1..120),
    ) {
        let mut cache = QueryCache::new(capacity);
        let mut model: Vec<(usize, Rc<[NodeId]>)> = Vec::new();
        let same = |got: Option<&summary_p2p::cache::CachedAnswer>,
                    want: Option<&(usize, Rc<[NodeId]>)>| {
            match (got, want) {
                (None, None) => true,
                (Some(g), Some((t, a))) => g.template == *t && Rc::ptr_eq(&g.answering, a),
                _ => false,
            }
        };
        for (op, template, payload) in ops {
            // Inserts, lookups, peeks and clears in the ratio 4:3:2:1.
            match op {
                0..=3 => {
                    let answering: Rc<[NodeId]> = [NodeId(payload), NodeId(payload + 1)].into();
                    cache.insert(template, Rc::clone(&answering));
                    model.retain(|(t, _)| *t != template);
                    model.insert(0, (template, answering));
                    model.truncate(capacity);
                }
                4..=6 => {
                    let pos = model.iter().position(|(t, _)| *t == template);
                    if let Some(pos) = pos {
                        let entry = model.remove(pos);
                        model.insert(0, entry);
                    }
                    let want = pos.map(|_| &model[0]);
                    prop_assert!(same(cache.lookup(template), want), "lookup {template}");
                }
                7 | 8 => {
                    let want = model.iter().find(|(t, _)| *t == template);
                    prop_assert!(same(cache.peek(template), want), "peek {template}");
                }
                _ => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(cache.len(), model.len());
            for (got, want) in cache.iter().zip(&model) {
                prop_assert!(same(Some(got), Some(want)), "entries diverge");
            }
        }
    }

    /// `clear` empties the cache and subsequent lookups miss — the
    /// post-reconciliation invalidation the domain layer relies on.
    #[test]
    fn cache_clear_forgets_everything(
        capacity in 1usize..6,
        templates in prop::collection::vec(0usize..10, 1..20),
    ) {
        let mut cache = QueryCache::new(capacity);
        for &t in &templates {
            cache.insert(t, [NodeId(1)].into());
        }
        cache.clear();
        prop_assert!(cache.is_empty());
        for &t in &templates {
            prop_assert!(cache.lookup(t).is_none());
        }
    }
}
