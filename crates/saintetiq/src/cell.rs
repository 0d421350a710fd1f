//! Grid cells: the atoms of summarization.
//!
//! The Background Knowledge equips the attribute space `E = ⟨A1..An⟩`
//! with a fuzzy grid; a **cell** is one basic n-dimensional area — one
//! label per attribute (Definition 1). The mapping service locates the
//! overlapping cells a record falls into; "there are finally many more
//! records than cells" (§3.2.1), which is what makes summarization pay.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use fuzzy::descriptor::{Grade, LabelId};

/// Identifier of a data source (a peer, in the P2P setting).
///
/// Local summarization uses a single source (the peer itself); merged
/// *global* summaries accumulate the sources of every partner, realizing
/// Definition 3's peer-extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// A grid-cell coordinate: exactly one label per BK attribute.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey(pub Vec<LabelId>);

impl CellKey {
    /// Number of dimensions (the BK arity).
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The label on dimension `attr`.
    pub fn label(&self, attr: usize) -> LabelId {
        self.0[attr]
    }
}

/// A key compares, orders and hashes as its label slice, so a cell can be
/// looked up by labels without building a key.
impl Borrow<[LabelId]> for CellKey {
    fn borrow(&self) -> &[LabelId] {
        &self.0
    }
}

/// A cell produced by mapping one record: the coordinate plus the record's
/// (fractional) weight in the cell and per-attribute satisfaction grades.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCell {
    /// Grid coordinate.
    pub key: CellKey,
    /// Fraction of the record falling in this cell (product of the kept,
    /// renormalized per-attribute grades). Sums to 1 over the cells of
    /// one record.
    pub weight: f64,
    /// Raw membership grade per attribute (before renormalization) — the
    /// "0.3/adult" annotations of Table 2, computed as the maximum grade
    /// of tuple values in the cell.
    pub grades: Vec<Grade>,
}

/// Aggregated content of one cell inside a summary tree: total weight and
/// the weight contributed per source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellContent {
    /// Sum of record weights mapped into the cell (the "tuple count"
    /// column of Table 2).
    pub weight: f64,
    /// Per-source contribution; keys are the peer-extent of the cell.
    pub per_source: BTreeMap<SourceId, f64>,
    /// Per-attribute maximum membership grade observed in the cell.
    pub max_grades: Vec<Grade>,
}

impl CellContent {
    /// Adds a contribution from `source`.
    pub fn add(&mut self, source: SourceId, weight: f64, grades: &[Grade]) {
        self.weight += weight;
        *self.per_source.entry(source).or_insert(0.0) += weight;
        if self.max_grades.len() < grades.len() {
            self.max_grades.resize(grades.len(), 0.0);
        }
        for (slot, &g) in self.max_grades.iter_mut().zip(grades) {
            if g > *slot {
                *slot = g;
            }
        }
    }

    /// Removes up to `weight` contributed by `source`; returns the weight
    /// actually removed. Cleans the source entry when it drains.
    pub fn remove(&mut self, source: SourceId, weight: f64) -> f64 {
        let Some(w) = self.per_source.get_mut(&source) else {
            return 0.0;
        };
        let removed = weight.min(*w);
        *w -= removed;
        if *w <= 1e-12 {
            self.per_source.remove(&source);
        }
        self.weight = (self.weight - removed).max(0.0);
        removed
    }

    /// Drops every contribution of `source`; returns the removed weight.
    pub fn remove_source(&mut self, source: SourceId) -> f64 {
        let removed = self.per_source.remove(&source).unwrap_or(0.0);
        self.weight = (self.weight - removed).max(0.0);
        removed
    }

    /// True when no weight remains.
    pub fn is_empty(&self) -> bool {
        self.weight <= 1e-12
    }

    /// The sources contributing to this cell.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.per_source.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(labels: &[u16]) -> CellKey {
        CellKey(labels.iter().map(|&l| LabelId(l)).collect())
    }

    #[test]
    fn cell_key_basics() {
        let k = key(&[0, 2, 1]);
        assert_eq!(k.arity(), 3);
        assert_eq!(k.label(1), LabelId(2));
        assert_eq!(k, key(&[0, 2, 1]));
        assert_ne!(k, key(&[0, 2, 2]));
    }

    #[test]
    fn content_accumulates_weight_and_sources() {
        let mut c = CellContent::default();
        c.add(SourceId(1), 0.7, &[0.7, 1.0]);
        c.add(SourceId(2), 1.0, &[1.0, 0.9]);
        assert!((c.weight - 1.7).abs() < 1e-12);
        assert_eq!(c.sources().count(), 2);
        assert_eq!(c.max_grades, vec![1.0, 1.0]);
    }

    #[test]
    fn remove_partial_and_full() {
        let mut c = CellContent::default();
        c.add(SourceId(1), 1.0, &[1.0]);
        c.add(SourceId(2), 0.5, &[0.5]);
        let r = c.remove(SourceId(1), 0.4);
        assert!((r - 0.4).abs() < 1e-12);
        assert_eq!(c.sources().count(), 2);
        let r = c.remove(SourceId(1), 10.0);
        assert!((r - 0.6).abs() < 1e-12);
        assert_eq!(c.sources().count(), 1, "drained source is dropped");
        assert!((c.weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_source_wholesale() {
        let mut c = CellContent::default();
        c.add(SourceId(7), 0.3, &[0.3]);
        c.add(SourceId(8), 0.7, &[0.7]);
        assert!((c.remove_source(SourceId(7)) - 0.3).abs() < 1e-12);
        assert_eq!(c.remove_source(SourceId(7)), 0.0);
        assert!(!c.is_empty());
        c.remove_source(SourceId(8));
        assert!(c.is_empty());
    }

    #[test]
    fn remove_unknown_source_is_noop() {
        let mut c = CellContent::default();
        c.add(SourceId(1), 1.0, &[1.0]);
        assert_eq!(c.remove(SourceId(9), 1.0), 0.0);
        assert!((c.weight - 1.0).abs() < 1e-12);
    }
}
