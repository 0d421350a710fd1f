//! Incremental maintenance of merged summaries (delta reconciliation).
//!
//! [`crate::merge::merge_into`] is destructive: once a source's leaves
//! are folded into a global summary there is no way to take them out
//! again short of re-merging every other contributor from scratch. That
//! makes every reconciliation round O(|partners|) even when a single
//! cooperation-list entry crossed the α threshold.
//!
//! [`GsAccumulator`] fixes this at the engine layer. It keeps one
//! [`SourceDelta`] per contributing source — the flattened leaves of
//! that source's last pulled summary — and supports
//! [`GsAccumulator::update_source`] / [`GsAccumulator::remove_source`]
//! in O(|that source's cells|). The merged view is produced by
//! [`GsAccumulator::build_merged`], a **canonical** construction: cells
//! are incorporated in cell-key order and, within a cell, contributors
//! in source-id order. Because the construction is a pure function of
//! the *current* source set (never of the update history), two
//! accumulators holding the same contributions produce byte-identical
//! wire encodings — the property the domain layer's full-rebuild oracle
//! and the `gs_incremental` property tests rely on.
//!
//! Peer localization needs no tree: [`GsAccumulator::relevant_sources`]
//! walks the stored contributions in source order and keeps each source
//! that has a positive-weight cell satisfying every clause. That is
//! exactly `query::relevant_sources(&acc.build_merged(), prop)` as long
//! as no contribution weighs in (0, [`INTENT_THRESHOLD`]]. Every leaf's
//! intent is then its own key and every node's intent the union of its
//! leaves' keys, so the most abstract satisfying nodes cover exactly the
//! satisfying cells. The accumulator counts such faint contributions
//! and, while any are stored, answers from a freshly built tree instead.
//!
//! Cost model: an update stores the changed source's flattened
//! contribution and nothing else. A peer flattens its summary once,
//! when it builds it ([`SourceDelta::from_tree`]: one pass over the
//! tree's key-sorted cell index to size the arrays exactly, one to fill
//! them, reading each cell's rows from the tree's cell columns — eight
//! allocations whatever the summary's size), and every accumulator
//! that pulls it shares that flat form
//! ([`GsAccumulator::update_source_flat`]), so a pull pays no decode and
//! no flatten; [`GsAccumulator::update_source_encoded`] still decodes
//! and flattens wire bytes, for callers that hold only the encoding.
//! The *merge work* per round (the paper's §6.1 cost unit) scales with
//! the stale subset. A flat form stores its cells as a structure of
//! arrays: keys, weights and grades back to back, and only the
//! non-empty statistics, each with its attribute index (merging an
//! empty statistic changes nothing). Localization is one pass over the
//! stored cell keys, O(Σ per-source cells × clauses), and no index is
//! kept between calls. `build_merged` is Θ(total contributions) — the
//! merged summary stores one per-source entry per (source, cell) pair,
//! so materializing it, like the SP storing the full `NewGS` token in
//! §4.2.2, is linear in Σ per-source cells — but a contribution costs
//! only its own arithmetic. The runs are formed by one stable sort of
//! (key, source, cell) entries, 24 bytes each; each stored flat form is
//! one presorted run of it. The contributions to one cell are folded as
//! one run ([`crate::engine::incorporate_contributions`]): one Cobweb
//! descent for the contribution that creates the leaf, one cell lookup,
//! and one leaf-to-root walk that adds each weight to the count and the
//! key's histogram slots only (arity + 1 additions per node, in one
//! pass over the run, not a sweep over every label). Per cell that
//! leaves the descent and the walk; per contribution, those additions
//! plus the content and statistics folds. At 1000 members a build takes milliseconds (about
//! 4 ms in traced `domain_pull` runs of `perfbench/` on a 2-core Xeon
//! host; about 10 ms at seed 1 on a slower shared 2-core container, 11
//! there before the flat tree arena), so the P2P layer builds only when
//! the stored GS is observed, not per pull,
//! and [`GsAccumulator::build_merged_into`] builds into the stored GS's
//! arena, which keeps its capacity from one build to the next.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use fuzzy::descriptor::{Grade, LabelId};
use relation::stats::AttributeStats;

use crate::cell::SourceId;
use crate::engine::{incorporate_contributions, DescentBuffers, EngineConfig};
use crate::error::SummaryError;
use crate::hierarchy::{Contribution, StatsUpdate, SummaryTree, INTENT_THRESHOLD};
use crate::query::proposition::Proposition;

/// One source's flattened contribution to a merged summary: the leaves
/// of its (local) summary hierarchy, restricted to that source's own
/// per-cell weights, as a structure of arrays in cell order.
#[derive(Debug, Clone)]
pub struct SourceDelta {
    /// The source the cells were flattened for.
    source: SourceId,
    /// The BK the cells are keyed over: its name and label counts,
    /// shared with the tree the delta was flattened from.
    bk_name: Arc<str>,
    label_counts: Arc<[usize]>,
    /// The cells' keys, one label per attribute each, back to back:
    /// localization reads them contiguously.
    labels: Vec<LabelId>,
    weights: Vec<f64>,
    /// One grade per attribute and cell, back to back.
    grades: Vec<Grade>,
    /// Cell `i`'s statistics end at `stat_ends[i]` in `stat_attrs` and
    /// `stats`, and start where cell `i - 1`'s end.
    stat_ends: Vec<u32>,
    /// The attribute index of each stored statistic.
    stat_attrs: Vec<u16>,
    /// The non-empty statistics (positive count) only.
    stats: Vec<AttributeStats>,
    /// Encoded size of the summary this delta was flattened from (what
    /// the wire carries; 0 unless recorded).
    encoded_bytes: usize,
}

/// One cell of a [`SourceDelta`], borrowed from its arrays.
#[derive(Debug, Clone, Copy)]
pub struct FlatCell<'a> {
    /// The cell's key, one label per attribute.
    pub key: &'a [LabelId],
    /// The source's weight in the cell.
    pub weight: f64,
    /// The cell's grades, one per attribute.
    pub grades: &'a [Grade],
    /// The attribute index of each entry of `stats`.
    pub stat_attrs: &'a [u16],
    /// The cell's non-empty statistics.
    pub stats: &'a [AttributeStats],
}

impl SourceDelta {
    /// Flattens `source`'s contribution out of a summary tree.
    ///
    /// For the intended use — a peer's *local* summary, where `source`
    /// is the only contributor — the extracted weights, grades and
    /// statistics are exact. On a multi-source tree the per-cell grades
    /// and statistics are shared across contributors, so the flattening
    /// is an upper bound; the P2P layer never needs that case.
    pub fn from_tree(tree: &SummaryTree, source: SourceId) -> Self {
        // Every peer keeps its flat form resident: size each array
        // exactly up front rather than trimming it afterwards.
        let (mut n, mut n_stats) = (0, 0);
        for (_, _, _, stats) in Self::source_cells(tree, source) {
            n += 1;
            n_stats += stats.iter().filter(|st| st.count() > 0.0).count();
        }
        let (bk_name, label_counts) = tree.shared_bk();
        let mut delta = Self::with_capacity(
            source,
            Arc::clone(bk_name),
            Arc::clone(label_counts),
            n,
            n_stats,
        );
        delta.push_cells(tree);
        delta
    }

    /// Flattens `source`'s contribution out of `tree` into `self`, as
    /// [`SourceDelta::from_tree`] would, reusing the arrays' capacity:
    /// the encoded size recorded is reset to 0.
    pub fn refill_from_tree(&mut self, tree: &SummaryTree, source: SourceId) {
        let (bk_name, label_counts) = tree.shared_bk();
        self.source = source;
        self.bk_name = Arc::clone(bk_name);
        self.label_counts = Arc::clone(label_counts);
        self.labels.clear();
        self.weights.clear();
        self.grades.clear();
        self.stat_ends.clear();
        self.stat_attrs.clear();
        self.stats.clear();
        self.encoded_bytes = 0;
        self.push_cells(tree);
    }

    /// `source`'s cells of `tree`, in key order: key, weight, grades and
    /// statistics.
    fn source_cells(
        tree: &SummaryTree,
        source: SourceId,
    ) -> impl Iterator<Item = (&[LabelId], f64, &[Grade], &[AttributeStats])> + '_ {
        tree.cells().filter_map(move |cell| {
            let weight = cell.source_weight(source)?;
            Some((cell.key(), weight, cell.max_grades(), cell.stats()))
        })
    }

    /// Appends the delta's source's cells of `tree`.
    fn push_cells(&mut self, tree: &SummaryTree) {
        for (key, weight, grades, stats) in Self::source_cells(tree, self.source) {
            self.push(key, weight, grades, stats);
        }
    }

    /// A delta of explicit `(key, weight, grades, statistics)` cells for
    /// `source`, over the BK `bk_name` with `label_counts` labels per
    /// attribute: one grade and one statistic per attribute and cell.
    /// Statistics with no positive count are dropped.
    pub fn from_cells<'c>(
        source: SourceId,
        bk_name: &str,
        label_counts: &[usize],
        cells: impl IntoIterator<Item = (&'c [LabelId], f64, &'c [Grade], &'c [AttributeStats])>,
    ) -> Self {
        let cells = cells.into_iter();
        let n = cells.size_hint().1.unwrap_or(0);
        let mut delta = Self::with_capacity(source, bk_name.into(), label_counts.into(), n, 0);
        for (key, weight, grades, stats) in cells {
            delta.push(key, weight, grades, stats);
        }
        // Every peer keeps its flat form resident: hold no spare capacity.
        delta.labels.shrink_to_fit();
        delta.weights.shrink_to_fit();
        delta.grades.shrink_to_fit();
        delta.stat_ends.shrink_to_fit();
        delta.stat_attrs.shrink_to_fit();
        delta.stats.shrink_to_fit();
        delta
    }

    /// An empty delta with room for `cells` cells and `stats` non-empty
    /// statistics.
    fn with_capacity(
        source: SourceId,
        bk_name: Arc<str>,
        label_counts: Arc<[usize]>,
        cells: usize,
        stats: usize,
    ) -> Self {
        let arity = label_counts.len();
        Self {
            source,
            bk_name,
            label_counts,
            labels: Vec::with_capacity(cells * arity),
            weights: Vec::with_capacity(cells),
            grades: Vec::with_capacity(cells * arity),
            stat_ends: Vec::with_capacity(cells),
            stat_attrs: Vec::with_capacity(stats),
            stats: Vec::with_capacity(stats),
            encoded_bytes: 0,
        }
    }

    /// Appends one cell: its key, the source's weight, one grade and one
    /// statistic per attribute. Statistics with no positive count are
    /// dropped.
    fn push(&mut self, key: &[LabelId], weight: f64, grades: &[Grade], stats: &[AttributeStats]) {
        let arity = self.label_counts.len();
        assert_eq!((key.len(), grades.len()), (arity, arity), "cell shape");
        self.labels.extend_from_slice(key);
        self.weights.push(weight);
        self.grades.extend_from_slice(grades);
        for (attr, st) in stats.iter().enumerate() {
            if st.count() > 0.0 {
                self.stat_attrs.push(attr as u16);
                self.stats.push(*st);
            }
        }
        self.stat_ends.push(self.stats.len() as u32);
    }

    /// Records `bytes` as the encoded size of the summary the delta was
    /// flattened from.
    pub fn with_encoded_bytes(mut self, bytes: usize) -> Self {
        self.set_encoded_bytes(bytes);
        self
    }

    /// Records `bytes` as the encoded size of the summary the delta was
    /// flattened from, in place.
    pub fn set_encoded_bytes(&mut self, bytes: usize) {
        self.encoded_bytes = bytes;
    }

    /// The source the delta was flattened for.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// The name of the BK the delta's cells are keyed over.
    pub fn bk_name(&self) -> &str {
        &self.bk_name
    }

    /// Per-attribute label counts of that BK.
    pub fn label_counts(&self) -> &[usize] {
        &self.label_counts
    }

    /// The cells, in the order they were flattened.
    pub fn cells(&self) -> impl Iterator<Item = FlatCell<'_>> {
        (0..self.cell_count()).map(|i| self.cell(i))
    }

    /// Cell `i`, in the order the cells were flattened.
    fn cell(&self, i: usize) -> FlatCell<'_> {
        let arity = self.label_counts.len();
        let row = i * arity..(i + 1) * arity;
        let start = i.checked_sub(1).map_or(0, |p| self.stat_ends[p] as usize);
        let stats = start..self.stat_ends[i] as usize;
        FlatCell {
            key: &self.labels[row.clone()],
            weight: self.weights[i],
            grades: &self.grades[row],
            stat_attrs: &self.stat_attrs[stats.clone()],
            stats: &self.stats[stats],
        }
    }

    /// Number of cells this source contributes.
    pub fn cell_count(&self) -> usize {
        self.weights.len()
    }

    /// Encoded size of the summary the delta was flattened from.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded_bytes
    }

    /// Cells whose weight is positive but too faint to enter an intent.
    pub fn faint_cells(&self) -> usize {
        self.weights
            .iter()
            .filter(|&&w| w > 0.0 && w <= INTENT_THRESHOLD)
            .count()
    }
}

/// A per-source accumulator for one merged (global) summary.
///
/// See the module docs for the design; in short: O(|source|) updates,
/// O(|merged summary|) canonical rebuilds, byte-stable encodings.
#[derive(Debug, Clone)]
pub struct GsAccumulator {
    bk_name: String,
    label_counts: Vec<usize>,
    config: EngineConfig,
    /// Each source's contribution, shared with whoever flattened it.
    sources: BTreeMap<SourceId, Rc<SourceDelta>>,
    /// Stored contributions weighing in (0, [`INTENT_THRESHOLD`]]; while
    /// any exist, localization falls back to the built tree.
    faint: usize,
}

impl GsAccumulator {
    /// An empty accumulator over the given Background Knowledge shape.
    pub fn new(bk_name: impl Into<String>, label_counts: Vec<usize>) -> Self {
        Self {
            bk_name: bk_name.into(),
            label_counts,
            config: EngineConfig::default(),
            sources: BTreeMap::new(),
            faint: 0,
        }
    }

    /// Replaces (or inserts) `source`'s contribution with the leaves of
    /// `tree`. The tree must be built over the accumulator's BK.
    pub fn update_source(
        &mut self,
        source: SourceId,
        tree: &SummaryTree,
    ) -> Result<(), SummaryError> {
        let delta = Rc::new(SourceDelta::from_tree(tree, source));
        self.update_source_flat(source, &delta).map(drop)
    }

    /// [`GsAccumulator::update_source`] from an encoded summary: decodes
    /// `bytes` and records its size as the pulled delta payload.
    /// Returns the payload size on success.
    pub fn update_source_encoded(
        &mut self,
        source: SourceId,
        bytes: &[u8],
    ) -> Result<usize, SummaryError> {
        let tree = crate::wire::decode(bytes)?;
        let delta = SourceDelta::from_tree(&tree, source).with_encoded_bytes(bytes.len());
        self.update_source_flat(source, &Rc::new(delta))
    }

    /// Stores `delta` — shared, not copied — as `source`'s contribution,
    /// replacing any previous one. The delta must be keyed over the
    /// accumulator's BK and flattened for `source`; otherwise nothing
    /// changes. Returns the delta's recorded encoded size.
    pub fn update_source_flat(
        &mut self,
        source: SourceId,
        delta: &Rc<SourceDelta>,
    ) -> Result<usize, SummaryError> {
        if *delta.bk_name != *self.bk_name || *delta.label_counts != *self.label_counts {
            return Err(SummaryError::IncompatibleBk {
                left: self.bk_name.clone(),
                right: delta.bk_name.to_string(),
            });
        }
        if delta.source != source {
            return Err(SummaryError::ForeignSource {
                source: source.0,
                flattened_for: delta.source.0,
            });
        }
        self.faint += delta.faint_cells();
        if let Some(old) = self.sources.insert(source, Rc::clone(delta)) {
            self.faint -= old.faint_cells();
        }
        Ok(delta.encoded_bytes)
    }

    /// Drops `source`'s contribution. Returns whether it was present.
    pub fn remove_source(&mut self, source: SourceId) -> bool {
        let Some(old) = self.sources.remove(&source) else {
            return false;
        };
        self.faint -= old.faint_cells();
        true
    }

    /// True when `source` currently contributes.
    pub fn contains(&self, source: SourceId) -> bool {
        self.sources.contains_key(&source)
    }

    /// Number of contributing sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when no source contributes.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The contributing sources, in id order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.sources.keys().copied()
    }

    /// Each contributing source with its stored delta, in id order.
    pub fn deltas(&self) -> impl Iterator<Item = (SourceId, &SourceDelta)> + '_ {
        self.sources.iter().map(|(&s, d)| (s, &**d))
    }

    /// Stored cells weighing in (0, [`INTENT_THRESHOLD`]]; while any
    /// exist, [`GsAccumulator::relevant_sources`] builds the tree.
    pub fn faint_cells(&self) -> usize {
        self.faint
    }

    /// Drops every contribution (domain dissolution).
    pub fn clear(&mut self) {
        self.sources.clear();
        self.faint = 0;
    }

    /// Peer localization (§5.2.1) without building the tree: the sources
    /// with a positive-weight cell that satisfies every clause of `prop`,
    /// sorted — equal to [`crate::query::relevant_sources`] over
    /// [`GsAccumulator::build_merged`] (see the module docs). While a
    /// faint contribution is stored, it answers from the built tree.
    pub fn relevant_sources(&self, prop: &Proposition) -> Vec<SourceId> {
        if self.faint > 0 {
            return crate::query::relevant_sources(&self.build_merged(), prop);
        }
        let arity = self.label_counts.len();
        // Labels first: they sit back to back, weights in a run of their
        // own.
        let satisfies = |(key, &weight): (&[LabelId], &f64)| {
            prop.clauses.iter().all(|c| c.set.contains(key[c.attr])) && weight > 0.0
        };
        self.sources
            .iter()
            .filter(|(_, delta)| {
                let mut cells = delta.labels.chunks_exact(arity).zip(&delta.weights);
                cells.any(satisfies)
            })
            .map(|(&source, _)| source)
            .collect()
    }

    /// Builds the canonical merged summary of the current contributions.
    ///
    /// Deterministic in the source *set*: cells are incorporated in
    /// cell-key order and contributors within a cell in source-id
    /// order, so the output — including every floating-point low bit of
    /// the folded statistics — depends only on what is contributed, not
    /// on the order updates and removals happened in.
    pub fn build_merged(&self) -> SummaryTree {
        let mut tree = SummaryTree::new(self.bk_name.clone(), self.label_counts.clone());
        self.build_merged_into(&mut tree);
        tree
    }

    /// [`GsAccumulator::build_merged`] into `tree`, which is cleared first
    /// and keeps its arena's capacity: rebuilding a domain's GS in place
    /// allocates no tree storage once it has grown. `tree` must be over
    /// the accumulator's BK.
    pub fn build_merged_into(&self, tree: &mut SummaryTree) {
        assert!(
            tree.bk_name() == self.bk_name && tree.label_counts() == &self.label_counts[..],
            "a merged view over another BK"
        );
        tree.clear();
        // Every stored cell as (key, source, cell), stably sorted by key:
        // the contributions to one cell stay in source-id order. A flat
        // form from a tree is in key order, so the sort merges presorted
        // runs.
        let deltas: Vec<(SourceId, &SourceDelta)> = self.deltas().collect();
        let cells = deltas.iter().map(|(_, d)| d.cell_count()).sum();
        let mut order: Vec<(&[LabelId], u32, u32)> = Vec::with_capacity(cells);
        for (d, (_, delta)) in deltas.iter().enumerate() {
            let keys = (0..delta.cell_count()).map(|c| (delta.cell(c).key, d as u32, c as u32));
            order.extend(keys);
        }
        order.sort_by(|a, b| a.0.cmp(b.0));
        let mut run = Vec::new();
        let mut buffers = DescentBuffers::default();
        for contributors in order.chunk_by(|a, b| a.0 == b.0) {
            run.clear();
            run.extend(contributors.iter().map(|&(_, d, c)| {
                let (source, delta) = deltas[d as usize];
                let cell = delta.cell(c as usize);
                Contribution {
                    source,
                    weight: cell.weight,
                    grades: cell.grades,
                    stats: StatsUpdate::Merge(cell.stat_attrs, cell.stats),
                }
            }));
            let labels = contributors[0].0;
            incorporate_contributions(tree, &self.config, labels, &run, &mut buffers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SaintEtiQEngine;
    use crate::merge::merge_all;
    use crate::wire;
    use fuzzy::bk::BackgroundKnowledge;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;

    fn local_summary(seed: u64, source: u32, n: usize) -> SummaryTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
        let mut e = SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(source),
        )
        .unwrap();
        e.summarize_table(&table);
        e.into_tree()
    }

    fn acc() -> GsAccumulator {
        GsAccumulator::new("medical-cbk-v1", vec![3, 3, 3, 12])
    }

    #[test]
    fn build_matches_merge_all_at_the_cell_level() {
        let locals: Vec<SummaryTree> = (0..6)
            .map(|i| local_summary(40 + i, i as u32, 60))
            .collect();
        let mut a = acc();
        for (i, t) in locals.iter().enumerate() {
            a.update_source(SourceId(i as u32), t).unwrap();
        }
        let built = a.build_merged();
        built.check_invariants();
        let merged = merge_all(
            locals[0].bk_name(),
            locals[0].label_counts(),
            locals.iter(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(built.leaf_count(), merged.leaf_count());
        assert!((built.total_count() - merged.total_count()).abs() < 1e-6);
        assert_eq!(built.all_sources(), merged.all_sources());
        // Per-cell content is *exactly* equal: for any one cell, both
        // paths fold the same contributions in the same source order
        // (merge_all visits sources in order; build_merged orders
        // contributors per cell by source id), so even the
        // floating-point low bits of weights, grades and statistics
        // must agree — only the hierarchy above the cells may differ.
        for m in merged.cells() {
            let b = built.cell(m.key()).expect("cell in both");
            assert!(b.sources().eq(m.sources()));
            assert_eq!(b.weight(), m.weight());
            assert_eq!(b.max_grades(), m.max_grades());
            for (bs, ms) in b.stats().iter().zip(m.stats()) {
                assert_eq!(bs.raw_parts(), ms.raw_parts());
            }
        }
    }

    #[test]
    fn encoding_is_canonical_in_the_source_set() {
        let locals: Vec<SummaryTree> = (0..5)
            .map(|i| local_summary(50 + i, i as u32, 40))
            .collect();
        let drifted = local_summary(99, 2, 40);

        // History A: enroll 0..5 in order, then re-pull source 2.
        let mut a = acc();
        for (i, t) in locals.iter().enumerate() {
            a.update_source(SourceId(i as u32), t).unwrap();
        }
        a.update_source(SourceId(2), &drifted).unwrap();

        // History B: reversed enrollment, a removal, a re-add, then the
        // same final contribution set.
        let mut b = acc();
        for (i, t) in locals.iter().enumerate().rev() {
            b.update_source(SourceId(i as u32), t).unwrap();
        }
        b.remove_source(SourceId(4));
        b.update_source(SourceId(2), &drifted).unwrap();
        b.update_source(SourceId(4), &locals[4]).unwrap();

        assert_eq!(
            wire::encode(&a.build_merged()),
            wire::encode(&b.build_merged()),
            "merged view is a pure function of the contribution set"
        );
    }

    #[test]
    fn update_and_remove_roundtrip() {
        let t1 = local_summary(60, 1, 50);
        let t2 = local_summary(61, 2, 50);
        let mut a = acc();
        a.update_source(SourceId(1), &t1).unwrap();
        a.update_source(SourceId(2), &t2).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.contains(SourceId(1)));

        assert!(a.remove_source(SourceId(2)));
        assert!(!a.remove_source(SourceId(2)), "double remove is a no-op");
        let solo = a.build_merged();
        assert_eq!(solo.all_sources(), vec![SourceId(1)]);
        // With only source 1 left, the merged view is source 1's cells.
        assert_eq!(solo.leaf_count(), t1.leaf_count());
        assert!((solo.total_count() - t1.total_count()).abs() < 1e-9);

        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.build_merged().leaf_count(), 0);
    }

    #[test]
    fn encoded_update_tracks_payload_bytes() {
        let t = local_summary(70, 3, 30);
        let bytes = wire::encode(&t);
        let mut a = acc();
        let n = a.update_source_encoded(SourceId(3), &bytes).unwrap();
        assert_eq!(n, bytes.len());
        assert!(a.contains(SourceId(3)));
        assert!(a.update_source_encoded(SourceId(4), &bytes[..10]).is_err());
        assert!(!a.contains(SourceId(4)), "failed decode leaves no entry");
    }

    #[test]
    fn incompatible_bk_rejected() {
        let t = local_summary(80, 1, 20);
        let mut wrong = GsAccumulator::new("other-bk", t.label_counts().to_vec());
        assert!(matches!(
            wrong.update_source(SourceId(1), &t),
            Err(SummaryError::IncompatibleBk { .. })
        ));
        let mut wrong_shape = GsAccumulator::new(t.bk_name(), vec![1, 2]);
        assert!(wrong_shape.update_source(SourceId(1), &t).is_err());

        // The shared flat form is checked the same way, and a delta
        // flattened for another source is refused too. A refused update
        // leaves the accumulator as it was.
        let flat = Rc::new(SourceDelta::from_tree(&t, SourceId(1)));
        for acc in [&mut wrong, &mut wrong_shape] {
            assert!(matches!(
                acc.update_source_flat(SourceId(1), &flat),
                Err(SummaryError::IncompatibleBk { .. })
            ));
            assert!(acc.is_empty());
        }
        let mut a = acc();
        a.update_source(SourceId(1), &local_summary(81, 1, 20))
            .unwrap();
        a.update_source(SourceId(2), &local_summary(82, 2, 20))
            .unwrap();
        let before = wire::encode(&a.build_merged());
        assert!(matches!(
            a.update_source_flat(SourceId(2), &flat),
            Err(SummaryError::ForeignSource {
                source: 2,
                flattened_for: 1
            })
        ));
        assert!(matches!(
            a.update_source_flat(SourceId(3), &flat),
            Err(SummaryError::ForeignSource { .. })
        ));
        assert_eq!(a.sources().collect::<Vec<_>>(), [SourceId(1), SourceId(2)]);
        assert_eq!(wire::encode(&a.build_merged()), before);
        assert_eq!(a.update_source_flat(SourceId(1), &flat), Ok(0));
        assert_ne!(wire::encode(&a.build_merged()), before);
    }
}
