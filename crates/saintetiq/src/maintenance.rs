//! Incremental-maintenance observation (§4.2.1).
//!
//! A partner peer "observes the modification rate issued on its local
//! summary" — not on the database — and pushes a freshness flag when the
//! summary is "enough modified". The paper: *"A summary modification can
//! be detected by observing the appearance/disappearance of descriptors
//! in summary intentions."* [`SummaryObserver`] snapshots the root intent
//! and leaf-cell set and quantifies drift since the snapshot.

use std::collections::BTreeSet;

use crate::cell::CellKey;
use crate::hierarchy::{Intent, SummaryTree};

/// Snapshot-based drift detector over a summary hierarchy.
#[derive(Debug, Clone)]
pub struct SummaryObserver {
    snapshot_intent: Intent,
    snapshot_cells: BTreeSet<CellKey>,
}

impl SummaryObserver {
    /// Snapshots the current state of `tree`.
    pub fn snapshot(tree: &SummaryTree) -> Self {
        Self {
            snapshot_intent: Intent::from(tree.node(tree.root()).intent()),
            snapshot_cells: tree.cells().map(|c| CellKey(c.key().to_vec())).collect(),
        }
    }

    /// Number of descriptors that appeared or disappeared in the root
    /// intent since the snapshot.
    pub fn descriptor_drift(&self, tree: &SummaryTree) -> usize {
        let now = Intent::from(tree.node(tree.root()).intent());
        self.snapshot_intent.distance(&now)
    }

    /// Number of cells that appeared or disappeared since the snapshot.
    pub fn cell_drift(&self, tree: &SummaryTree) -> usize {
        let now: BTreeSet<CellKey> = tree.cells().map(|c| CellKey(c.key().to_vec())).collect();
        now.symmetric_difference(&self.snapshot_cells).count()
    }

    /// Modification rate in `[0, 1]`: descriptor drift normalized by the
    /// size of the union of old and new intents (so both growth and decay
    /// register), with cell drift as a tie-breaking secondary signal.
    pub fn modification_rate(&self, tree: &SummaryTree) -> f64 {
        let now = Intent::from(tree.node(tree.root()).intent());
        let mut union = self.snapshot_intent.clone();
        union.union_with(&now);
        let denom = union.descriptor_count().max(1);
        (self.descriptor_drift(tree) as f64 / denom as f64).clamp(0.0, 1.0)
    }

    /// True when the summary drifted at least `threshold` (the peer then
    /// sends its `push` message setting freshness to 1).
    pub fn is_modified(&self, tree: &SummaryTree, threshold: f64) -> bool {
        self.modification_rate(tree) >= threshold
    }

    /// Re-snapshots in place (after a push or a reconciliation).
    pub fn reset(&mut self, tree: &SummaryTree) {
        *self = Self::snapshot(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SourceId;
    use crate::engine::{EngineConfig, SaintEtiQEngine};
    use fuzzy::bk::BackgroundKnowledge;
    use relation::schema::Schema;
    use relation::table::Table;
    use relation::value::Value;

    fn engine_with_table1() -> (SaintEtiQEngine, Table) {
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(1),
        )
        .unwrap();
        let t = Table::patient_table1();
        e.summarize_table(&t);
        (e, t)
    }

    #[test]
    fn fresh_snapshot_has_zero_drift() {
        let (e, _) = engine_with_table1();
        let obs = SummaryObserver::snapshot(e.tree());
        assert_eq!(obs.descriptor_drift(e.tree()), 0);
        assert_eq!(obs.cell_drift(e.tree()), 0);
        assert_eq!(obs.modification_rate(e.tree()), 0.0);
        assert!(!obs.is_modified(e.tree(), 0.01));
    }

    #[test]
    fn similar_records_do_not_drift() {
        // §4.2.1: "As more tuples are processed, the need to adapt the
        // hierarchy decreases" — a record mapping into existing cells
        // leaves the intent untouched.
        let (mut e, _) = engine_with_table1();
        let obs = SummaryObserver::snapshot(e.tree());
        e.add_record(&[
            Value::Int(16),
            Value::text("female"),
            Value::Float(16.0),
            Value::text("anorexia"),
        ]);
        assert_eq!(obs.descriptor_drift(e.tree()), 0, "no new descriptors");
        assert!(!obs.is_modified(e.tree(), 0.01));
    }

    #[test]
    fn novel_records_register_as_drift() {
        let (mut e, _) = engine_with_table1();
        let obs = SummaryObserver::snapshot(e.tree());
        e.add_record(&[
            Value::Int(80),
            Value::text("male"),
            Value::Float(30.0),
            Value::text("diabetes"),
        ]);
        assert!(
            obs.descriptor_drift(e.tree()) >= 3,
            "old, overweight, diabetes appear"
        );
        assert!(obs.cell_drift(e.tree()) >= 1);
        assert!(obs.modification_rate(e.tree()) > 0.0);
        assert!(obs.is_modified(e.tree(), 0.1));
    }

    #[test]
    fn disappearance_also_registers() {
        let (mut e, table) = engine_with_table1();
        let obs = SummaryObserver::snapshot(e.tree());
        // Remove the only malaria patient: its descriptors disappear.
        let t2 = table.get(relation::tuple::TupleId(2)).unwrap();
        e.remove_record(&t2.values);
        assert!(
            obs.descriptor_drift(e.tree()) >= 2,
            "male/malaria/adult vanish"
        );
        assert!(obs.modification_rate(e.tree()) > 0.0);
    }

    #[test]
    fn reset_clears_drift() {
        let (mut e, _) = engine_with_table1();
        let mut obs = SummaryObserver::snapshot(e.tree());
        e.add_record(&[
            Value::Int(80),
            Value::text("male"),
            Value::Float(30.0),
            Value::text("diabetes"),
        ]);
        assert!(obs.modification_rate(e.tree()) > 0.0);
        obs.reset(e.tree());
        assert_eq!(obs.modification_rate(e.tree()), 0.0);
    }

    #[test]
    fn rate_is_bounded() {
        let (mut e, _) = engine_with_table1();
        let obs = SummaryObserver::snapshot(e.tree());
        // Blow the summary up with very different data.
        for age in [70, 75, 80, 85] {
            e.add_record(&[
                Value::Int(age),
                Value::text("male"),
                Value::Float(35.0),
                Value::text("hypertension"),
            ]);
        }
        let rate = obs.modification_rate(e.tree());
        assert!((0.0..=1.0).contains(&rate));
        assert!(rate > 0.2, "large drift expected, got {rate}");
    }
}
