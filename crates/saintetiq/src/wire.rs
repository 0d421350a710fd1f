//! Wire codec for summary hierarchies.
//!
//! Summaries travel the network constantly (`localsum`, `reconciliation`
//! messages), so their encoded size is the unit of the paper's storage
//! model: §6.1.1 estimates ~512 bytes per summary node and total size
//! `k·(B^{d+1}−1)/(B−1)` for a B-ary tree of depth d. This codec encodes
//! the tree structure plus leaf contents; inner aggregates (counts,
//! histograms, intents) are recomputed on decode, which both shrinks the
//! wire format and guarantees decoded trees satisfy every invariant.
//!
//! Cost model: [`encode`] walks the tree twice — once to size the buffer
//! ([`encoded_size`]), once to write it — and reads each leaf's content
//! straight from its row in the tree's cell columns, in child order, so
//! an encoding makes two allocations (the buffer and the shared bytes)
//! whatever the tree's size. [`encode_into`] writes the same bytes into
//! a caller's buffer, which allocates only when it outgrows its
//! capacity. [`decode`] builds the tree into the same
//! flat storage as summarization does: one descent-free leaf attach per
//! cell (the encoding gives the structure) with one path walk that folds
//! the cell's sources as one run.

use bytes::{Buf, BufMut, Bytes};
use fuzzy::descriptor::LabelId;
use relation::stats::AttributeStats;

use crate::cell::SourceId;
use crate::error::SummaryError;
use crate::hierarchy::{Cell, Contribution, NodeId, StatsUpdate, SummaryTree};

const MAGIC: &[u8; 4] = b"SETQ";
const VERSION: u8 = 1;

/// Encodes a summary tree.
pub fn encode(tree: &SummaryTree) -> Bytes {
    let mut buf = Vec::with_capacity(encoded_size(tree));
    encode_into(tree, &mut buf);
    Bytes::from(buf)
}

/// Encodes a summary tree into `buf`, replacing its contents: the same
/// bytes as [`encode`].
pub fn encode_into(tree: &SummaryTree, buf: &mut Vec<u8>) {
    buf.clear();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    let name = tree.bk_name().as_bytes();
    buf.put_u16(name.len() as u16);
    buf.put_slice(name);
    buf.put_u16(tree.arity() as u16);
    for &n in tree.label_counts() {
        buf.put_u16(n as u16);
    }
    encode_node(tree, tree.root(), buf);
}

fn encode_node(tree: &SummaryTree, id: NodeId, buf: &mut Vec<u8>) {
    let node = tree.node(id);
    if let Some(cell) = node.leaf_cell() {
        buf.put_u8(1); // leaf
        for &l in cell.key() {
            buf.put_u16(l.0);
        }
        buf.put_f64(cell.weight());
        buf.put_u32(cell.source_count() as u32);
        for (s, w) in cell.sources() {
            buf.put_u32(s.0);
            buf.put_f64(w);
        }
        debug_assert_eq!(cell.max_grades().len(), tree.arity());
        for &g in cell.max_grades() {
            buf.put_f64(g);
        }
        for st in cell.stats() {
            let (c, mn, mx, mean, m2) = st.raw_parts();
            if c > 0.0 {
                buf.put_u8(1);
                buf.put_f64(c);
                buf.put_f64(mn);
                buf.put_f64(mx);
                buf.put_f64(mean);
                buf.put_f64(m2);
            } else {
                buf.put_u8(0);
            }
        }
    } else {
        buf.put_u8(0); // internal
        buf.put_u16(node.child_count() as u16);
        for c in node.children() {
            encode_node(tree, c, buf);
        }
    }
}

/// Decodes a summary tree encoded by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<SummaryTree, SummaryError> {
    let mut buf = bytes;
    let err = |m: &str| SummaryError::Codec(m.to_string());
    if buf.remaining() < 5 || &buf[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    buf.advance(4);
    if buf.get_u8() != VERSION {
        return Err(err("unsupported version"));
    }
    if buf.remaining() < 2 {
        return Err(err("truncated name"));
    }
    let name_len = buf.get_u16() as usize;
    if buf.remaining() < name_len {
        return Err(err("truncated name"));
    }
    let name = String::from_utf8(buf[..name_len].to_vec()).map_err(|_| err("name not utf8"))?;
    buf.advance(name_len);
    if buf.remaining() < 2 {
        return Err(err("truncated arity"));
    }
    let arity = buf.get_u16() as usize;
    let mut label_counts = Vec::with_capacity(arity);
    for _ in 0..arity {
        if buf.remaining() < 2 {
            return Err(err("truncated label counts"));
        }
        label_counts.push(buf.get_u16() as usize);
    }
    let mut tree = SummaryTree::new(name, label_counts);
    let root = tree.root();
    decode_node(&mut tree, root, &mut buf, &mut LeafBuffers::default(), true)?;
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(tree)
}

/// The buffers one decode reads its leaves into, reused from leaf to
/// leaf.
#[derive(Default)]
struct LeafBuffers {
    labels: Vec<LabelId>,
    grades: Vec<f64>,
    stats: Vec<AttributeStats>,
}

fn decode_node(
    tree: &mut SummaryTree,
    parent: NodeId,
    buf: &mut &[u8],
    leaf: &mut LeafBuffers,
    is_root: bool,
) -> Result<(), SummaryError> {
    let err = |m: &str| SummaryError::Codec(m.to_string());
    let arity = tree.arity();
    if !buf.has_remaining() {
        return Err(err("truncated node"));
    }
    let tag = buf.get_u8();
    match tag {
        1 => {
            // Leaf: read the cell and attach under `parent`.
            if buf.remaining() < arity * 2 {
                return Err(err("truncated cell key"));
            }
            leaf.labels.clear();
            leaf.labels
                .extend((0..arity).map(|_| LabelId(buf.get_u16())));
            let key = &leaf.labels[..];
            let in_range = |(&l, &n): (&LabelId, &usize)| l.index() < n;
            if !key.iter().zip(tree.label_counts()).all(in_range) {
                return Err(err("label out of range"));
            }
            if tree.leaf_of(key).is_some() {
                return Err(err("duplicate cell"));
            }
            if buf.remaining() < 8 + 4 {
                return Err(err("truncated cell content"));
            }
            let _total = buf.get_f64();
            let n_sources = buf.get_u32() as usize;
            if buf.remaining() < n_sources * 12 {
                return Err(err("truncated sources"));
            }
            // Read once the grades are known, as the cell's run.
            let (mut sources, rest) = buf.split_at(n_sources * 12);
            *buf = rest;
            if buf.remaining() < arity * 8 {
                return Err(err("truncated grades"));
            }
            leaf.grades.clear();
            leaf.grades.extend((0..arity).map(|_| buf.get_f64()));
            let stats = &mut leaf.stats;
            stats.clear();
            for _ in 0..arity {
                if !buf.has_remaining() {
                    return Err(err("truncated stats"));
                }
                if buf.get_u8() == 1 {
                    if buf.remaining() < 40 {
                        return Err(err("truncated stats body"));
                    }
                    let (c, mn, mx, mean, m2) = (
                        buf.get_f64(),
                        buf.get_f64(),
                        buf.get_f64(),
                        buf.get_f64(),
                        buf.get_f64(),
                    );
                    stats.push(AttributeStats::from_raw_parts(c, mn, mx, mean, m2));
                } else {
                    stats.push(AttributeStats::new());
                }
            }
            // A leaf directly at the root slot: the decoded parent here is
            // always an internal node we created, so attach normally.
            tree.attach_leaf(parent, key, &[]);
            let run: Vec<Contribution> = (0..n_sources)
                .map(|_| Contribution {
                    source: SourceId(sources.get_u32()),
                    weight: sources.get_f64(),
                    grades: &leaf.grades,
                    stats: StatsUpdate::None,
                })
                .collect();
            tree.fold_into_cell(key, &run);
            tree.merge_cell_stats(key, stats);
            Ok(())
        }
        0 => {
            if buf.remaining() < 2 {
                return Err(err("truncated child count"));
            }
            let n = buf.get_u16() as usize;
            let host = if is_root {
                parent
            } else {
                tree.create_internal(parent)
            };
            for _ in 0..n {
                decode_node(tree, host, buf, leaf, false)?;
            }
            Ok(())
        }
        _ => Err(err("bad node tag")),
    }
}

/// Encoded size in bytes, `encode(tree).len()`, computed by walking the
/// tree instead of encoding it.
pub fn encoded_size(tree: &SummaryTree) -> usize {
    // Magic, version, name, arity, label counts.
    let mut size = MAGIC.len() + 1 + 2 + tree.bk_name().len() + 2 + 2 * tree.arity();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        match node.leaf_cell() {
            Some(cell) => size += leaf_size(cell),
            None => {
                // Tag and child count.
                size += 3;
                stack.extend(node.children());
            }
        }
    }
    size
}

/// Encoded size of one leaf, mirroring `encode_node`: tag, key, total
/// weight, source count, `(id, weight)` per source, grades, and a flag
/// plus five `f64`s per non-empty statistics slot.
fn leaf_size(cell: Cell<'_>) -> usize {
    let stats: usize = cell
        .stats()
        .iter()
        .map(|st| if st.raw_parts().0 > 0.0 { 41 } else { 1 })
        .sum();
    1 + 2 * cell.key().len()
        + 8
        + 4
        + 12 * cell.source_count()
        + 8 * cell.max_grades().len()
        + stats
}

/// Average encoded bytes per live node — comparable to the paper's
/// `k ≈ 512` bytes/summary estimate.
pub fn avg_node_bytes(tree: &SummaryTree) -> f64 {
    let nodes = tree.live_node_count().max(1);
    encoded_size(tree) as f64 / nodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, SaintEtiQEngine};
    use fuzzy::bk::BackgroundKnowledge;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;
    use relation::table::Table;

    fn summary(seed: u64, n: usize) -> SummaryTree {
        summary_of(seed, n, 7)
    }

    fn summary_of(seed: u64, n: usize, source: u32) -> SummaryTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            crate::cell::SourceId(source),
        )
        .unwrap();
        e.summarize_table(&table);
        e.into_tree()
    }

    #[test]
    fn encoded_size_matches_the_encoder() {
        let same = |t: &SummaryTree| assert_eq!(encoded_size(t), encode(t).len());
        same(&SummaryTree::new("bk", vec![3, 4]));
        same(&SummaryTree::new("", vec![]));
        for seed in 0..20 {
            same(&summary(100 + seed, 1 + 37 * seed as usize));
        }
        // A merged multi-source GS, as the summary peer stores it.
        let mut acc = crate::delta::GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12]);
        for s in 0..40 {
            acc.update_source(SourceId(s), &summary_of(200 + s as u64, 30, s))
                .unwrap();
        }
        let gs = acc.build_merged();
        let slots: Vec<f64> = gs
            .cells()
            .flat_map(|c| c.stats().iter().map(|st| st.raw_parts().0))
            .collect();
        assert!(slots.iter().any(|&c| c > 0.0), "no non-empty stats slot");
        assert!(slots.iter().any(|&c| c <= 0.0), "no empty stats slot");
        assert!(gs.cells().any(|c| c.source_count() > 1));
        same(&gs);
        same(&decode(&encode(&gs)).unwrap());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = summary(1, 150);
        let bytes = encode(&t);
        let d = decode(&bytes).unwrap();
        d.check_invariants();
        assert_eq!(d.bk_name(), t.bk_name());
        assert_eq!(d.label_counts(), t.label_counts());
        assert_eq!(d.leaf_count(), t.leaf_count());
        assert!((d.total_count() - t.total_count()).abs() < 1e-9);
        assert_eq!(
            d.live_node_count(),
            t.live_node_count(),
            "structure preserved"
        );
        assert_eq!(d.depth(), t.depth());
        for cell in t.cells() {
            let de = d.cell(cell.key()).unwrap();
            assert!((de.weight() - cell.weight()).abs() < 1e-12);
            assert!(de.sources().eq(cell.sources()));
            assert_eq!(de.max_grades(), cell.max_grades());
            for (a, b) in de.stats().iter().zip(cell.stats()) {
                assert_eq!(a.raw_parts(), b.raw_parts());
            }
        }
        // Root intents agree.
        assert_eq!(d.node(d.root()).intent(), t.node(t.root()).intent());
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t = SummaryTree::new("bk", vec![3, 4]);
        let d = decode(&encode(&t)).unwrap();
        assert_eq!(d.leaf_count(), 0);
        assert_eq!(d.total_count(), 0.0);
    }

    #[test]
    fn tiny_tree_roundtrip() {
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            crate::cell::SourceId(1),
        )
        .unwrap();
        e.summarize_table(&Table::patient_table1());
        let t = e.into_tree();
        let d = decode(&encode(&t)).unwrap();
        d.check_invariants();
        assert_eq!(d.leaf_count(), 3);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let t = summary(2, 50);
        let bytes = encode(&t);
        // Truncations at every prefix length must fail cleanly.
        for cut in [0, 3, 4, 5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn duplicate_cells_and_foreign_labels_error_not_panic() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        for labels in [[0u16, 0], [2, 3]] {
            let key = crate::cell::CellKey(labels.iter().map(|&l| LabelId(l)).collect());
            t.create_leaf(root, key.clone());
            t.add_to_cell(&key, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        let bytes = encode(&t).to_vec();
        assert!(decode(&bytes).is_ok());
        // The second leaf: its tag, then its key (2, 3).
        let at = (bytes.windows(5))
            .position(|w| w == [1, 0, 2, 0, 3])
            .expect("second leaf encoded");
        for (key, why) in [
            ([0u8, 0, 0, 0], "duplicate cell"),
            ([0, 3, 0, 3], "label out of range"),
        ] {
            let mut bad = bytes.clone();
            bad[at + 1..at + 5].copy_from_slice(&key);
            assert_eq!(decode(&bad).unwrap_err(), SummaryError::Codec(why.into()));
        }
    }

    #[test]
    fn node_size_is_in_the_papers_ballpark() {
        // §6.1.1 estimates ~512 B per summary; our leaner codec must stay
        // within the same order of magnitude (and below it).
        let t = summary(3, 500);
        let per_node = avg_node_bytes(&t);
        assert!(per_node > 16.0, "suspiciously small: {per_node}");
        assert!(per_node < 1024.0, "node encoding exploded: {per_node}");
    }

    #[test]
    fn size_grows_with_content_but_sublinearly() {
        let small = encoded_size(&summary(4, 50));
        let large = encoded_size(&summary(5, 2000));
        assert!(large > small);
        // 40x the tuples must NOT give 40x the bytes: cells saturate.
        assert!(
            (large as f64) < (small as f64) * 10.0,
            "small={small} large={large}"
        );
    }
}
