//! Grid cells: the atoms of summarization.
//!
//! The Background Knowledge equips the attribute space `E = ⟨A1..An⟩`
//! with a fuzzy grid; a **cell** is one basic n-dimensional area — one
//! label per attribute (Definition 1). The mapping service locates the
//! overlapping cells a record falls into; "there are finally many more
//! records than cells" (§3.2.1), which is what makes summarization pay.

use std::borrow::Borrow;
use std::ops::Deref;

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

/// A key is its label run: functions that take `&[LabelId]` take
/// `&CellKey` as well.
impl Deref for CellKey {
    type Target = [LabelId];

    fn deref(&self) -> &[LabelId] {
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
}
