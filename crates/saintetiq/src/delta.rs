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
//! Cost model: an update decodes and flattens only the changed source,
//! so the *merge/decode work* per round (the paper's §6.1 cost unit)
//! scales with the stale subset. Localization is one pass over the
//! stored cell keys, O(Σ per-source cells × clauses); each source keeps
//! its keys back to back in one label run, and no index is kept between
//! calls. `build_merged` is Θ(total contributions) — the merged summary
//! stores one per-source entry per (source, cell) pair, so materializing
//! it, like the SP storing the full `NewGS` token in §4.2.2, is linear in
//! Σ per-source cells — but a contribution costs only its own
//! arithmetic. The contributions to one cell are folded as one run
//! ([`crate::engine::incorporate_contributions`]): one Cobweb descent for
//! the contribution that creates the leaf, one cell-map lookup, and one
//! leaf-to-root walk that adds each weight to the count and the key's
//! histogram slots only (arity + 1 additions per node, not a sweep over
//! every label). Per cell that leaves the descent and the walk; per
//! contribution, those additions plus the content and statistics folds.
//! At 1000 members a build takes about 4 ms (traced `domain_pull` runs
//! of `perfbench/` on a 2-core Xeon host), so the P2P layer builds only
//! when the stored GS is observed, not per pull.

use std::collections::BTreeMap;

use fuzzy::descriptor::{Grade, LabelId};
use relation::stats::AttributeStats;

use crate::cell::{CellKey, SourceId};
use crate::engine::{incorporate_contributions, EngineConfig};
use crate::error::SummaryError;
use crate::hierarchy::{Contribution, StatsUpdate, SummaryTree, INTENT_THRESHOLD};
use crate::query::proposition::Proposition;

/// One contributed cell: everything the merge needs to replay it into a
/// fresh tree, besides its key (kept in [`SourceDelta`]'s label run).
#[derive(Debug, Clone)]
struct DeltaCell {
    weight: f64,
    grades: Vec<Grade>,
    stats: Vec<AttributeStats>,
}

/// One source's flattened contribution to a merged summary: the leaves
/// of its (local) summary hierarchy, restricted to that source's own
/// per-cell weights.
#[derive(Debug, Clone)]
pub struct SourceDelta {
    /// The cells' keys, one label per attribute each, back to back in
    /// cell order: localization reads them contiguously, and a cell
    /// costs no key allocation of its own.
    labels: Vec<LabelId>,
    cells: Vec<DeltaCell>,
    /// Encoded size of the summary this delta was flattened from (what
    /// the wire carried; 0 when built straight from a tree).
    encoded_bytes: usize,
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
        Self::from_cells(tree.cells().iter().filter_map(|(key, entry)| {
            let weight = entry.content.per_source.get(&source).copied()?;
            let cell = DeltaCell {
                weight,
                grades: entry.content.max_grades.clone(),
                stats: entry.stats.clone(),
            };
            Some((key, cell))
        }))
    }

    /// A delta over `(key, cell)` pairs.
    fn from_cells<'k>(cells: impl IntoIterator<Item = (&'k CellKey, DeltaCell)>) -> Self {
        let mut labels = Vec::new();
        let cells = cells
            .into_iter()
            .map(|(key, cell)| {
                labels.extend_from_slice(&key.0);
                cell
            })
            .collect();
        Self {
            labels,
            cells,
            encoded_bytes: 0,
        }
    }

    /// Each cell with its key's labels, over a BK of `arity` attributes.
    fn keyed_cells(&self, arity: usize) -> impl Iterator<Item = (&[LabelId], &DeltaCell)> {
        self.labels.chunks_exact(arity).zip(&self.cells)
    }

    /// Number of cells this source contributes.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Encoded size of the summary the delta was flattened from.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded_bytes
    }

    /// Cells whose weight is positive but too faint to enter an intent.
    fn faint_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.weight > 0.0 && c.weight <= INTENT_THRESHOLD)
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
    sources: BTreeMap<SourceId, SourceDelta>,
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

    /// Stores `delta` as `source`'s contribution, replacing any previous
    /// one, and keeps the faint-contribution count.
    fn insert(&mut self, source: SourceId, delta: SourceDelta) {
        self.faint += delta.faint_cells();
        if let Some(old) = self.sources.insert(source, delta) {
            self.faint -= old.faint_cells();
        }
    }

    /// Replaces (or inserts) `source`'s contribution with the leaves of
    /// `tree`. The tree must be built over the accumulator's BK.
    pub fn update_source(
        &mut self,
        source: SourceId,
        tree: &SummaryTree,
    ) -> Result<(), SummaryError> {
        if tree.bk_name() != self.bk_name || tree.label_counts() != &self.label_counts[..] {
            return Err(SummaryError::IncompatibleBk {
                left: self.bk_name.clone(),
                right: tree.bk_name().to_string(),
            });
        }
        self.insert(source, SourceDelta::from_tree(tree, source));
        Ok(())
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
        self.update_source(source, &tree)?;
        if let Some(delta) = self.sources.get_mut(&source) {
            delta.encoded_bytes = bytes.len();
        }
        Ok(bytes.len())
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
        // Labels first: they sit back to back, while a weight is a load
        // from the cell's payload.
        let satisfies = |(key, cell): (&[LabelId], &DeltaCell)| {
            prop.clauses.iter().all(|c| c.set.contains(key[c.attr])) && cell.weight > 0.0
        };
        self.sources
            .iter()
            .filter(|(_, delta)| delta.keyed_cells(arity).any(satisfies))
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
        let mut run = Vec::new();
        for (labels, contribs) in self.by_cell() {
            let key = CellKey(labels.to_vec());
            run.clear();
            run.extend(contribs.into_iter().map(|(source, cell)| Contribution {
                source,
                weight: cell.weight,
                grades: &cell.grades,
                stats: StatsUpdate::Merge(&cell.stats),
            }));
            incorporate_contributions(&mut tree, &self.config, &key, &run);
        }
        tree
    }

    /// Every stored contribution grouped by cell, cells in key order and
    /// contributors in source-id order.
    fn by_cell(&self) -> BTreeMap<&[LabelId], Vec<(SourceId, &DeltaCell)>> {
        let arity = self.label_counts.len();
        let mut by_cell: BTreeMap<&[LabelId], Vec<(SourceId, &DeltaCell)>> = BTreeMap::new();
        for (&src, delta) in &self.sources {
            for (key, cell) in delta.keyed_cells(arity) {
                by_cell.entry(key).or_default().push((src, cell));
            }
        }
        by_cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{incorporate_cell, SaintEtiQEngine};
    use crate::hierarchy::Node;
    use crate::merge::merge_all;
    use crate::wire;
    use fuzzy::bk::BackgroundKnowledge;
    use rand::{Rng, SeedableRng};
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::schema::Schema;
    use std::collections::BTreeSet;

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
        for (k, entry) in merged.cells() {
            let b = &built.cells()[k];
            assert_eq!(b.content.per_source, entry.content.per_source);
            assert_eq!(b.content.weight, entry.content.weight);
            assert_eq!(b.content.max_grades, entry.content.max_grades);
            for (bs, ms) in b.stats.iter().zip(&entry.stats) {
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

    /// The build before cells were folded as runs, kept as the reference:
    /// every contribution goes through `incorporate_cell` and
    /// `merge_cell_stats` on its own.
    fn reference_build(a: &GsAccumulator) -> SummaryTree {
        let mut tree = SummaryTree::new(a.bk_name.clone(), a.label_counts.clone());
        for (labels, contribs) in a.by_cell() {
            let key = &CellKey(labels.to_vec());
            for (src, cell) in contribs {
                incorporate_cell(
                    &mut tree,
                    &a.config,
                    key,
                    src,
                    cell.weight,
                    &cell.grades,
                    None,
                );
                tree.merge_cell_stats(key, &cell.stats);
            }
        }
        tree
    }

    /// Asserts that two trees are equal node for node, down to the bits of
    /// every count and histogram slot, and that every intent is its
    /// histogram's support.
    fn assert_same_tree(a: &SummaryTree, b: &SummaryTree) {
        assert_eq!(wire::encode(a), wire::encode(b));
        let hist_bits = |n: &Node| -> Vec<u64> { n.hist.iter().map(|w| w.to_bits()).collect() };
        let support =
            |n: &Node| -> Vec<bool> { n.hist.iter().map(|&w| w > INTENT_THRESHOLD).collect() };
        let intent_bits = |n: &Node| -> Vec<bool> {
            a.label_counts()
                .iter()
                .zip(&n.intent.sets)
                .flat_map(|(&len, s)| (0..len).map(|l| s.contains(LabelId(l as u16))))
                .collect()
        };
        let mut stack = vec![(a.root(), b.root())];
        while let Some((x, y)) = stack.pop() {
            let (nx, ny) = (a.node(x), b.node(y));
            assert_eq!(nx.count.to_bits(), ny.count.to_bits(), "count at {x:?}");
            assert_eq!(hist_bits(nx), hist_bits(ny), "hist at {x:?}");
            assert_eq!(nx.intent, ny.intent, "intent at {x:?}");
            assert_eq!(intent_bits(nx), support(nx), "intent != support at {x:?}");
            assert_eq!(nx.cell, ny.cell, "cell at {x:?}");
            assert_eq!(nx.children.len(), ny.children.len(), "arity at {x:?}");
            stack.extend(nx.children.iter().copied().zip(ny.children.iter().copied()));
        }
    }

    /// `n` synthetic sources over the CBK grid. Every source contributes to
    /// one hot cell; the first 27 also own a private cell each; the rest
    /// of the cells are random. Weights mix ordinary values with zero and
    /// negative ones (which add nothing) and positive ones at or below the
    /// intent threshold.
    fn synthetic(n: u32, seed: u64) -> GsAccumulator {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let key = |l: [u16; 4]| CellKey(l.iter().map(|&x| LabelId(x)).collect());
        let mut a = acc();
        for s in 0..n {
            let mut keys = BTreeSet::from([key([0, 0, 0, 0])]);
            if s < 27 {
                keys.insert(key([
                    (s % 3) as u16,
                    (s / 3 % 3) as u16,
                    (s / 9) as u16,
                    11,
                ]));
            }
            for _ in 0..rng.gen_range(0..8) {
                keys.insert(key([
                    rng.gen_range(0..3),
                    rng.gen_range(0..3),
                    rng.gen_range(0..3),
                    rng.gen_range(0..11),
                ]));
            }
            let cells = keys.iter().map(|key| {
                let weight = match (s, rng.gen_range(0..10)) {
                    (0, _) | (_, 0) => -0.5,
                    (1, _) | (_, 1) => 0.0,
                    (2, _) | (_, 2) => 1e-13,
                    (_, 3) => 1e-12,
                    _ => rng.gen_range(0.01..2.0),
                };
                let mut stats = vec![AttributeStats::new(); 4];
                for st in &mut stats {
                    if rng.gen_bool(0.5) {
                        st.push_weighted(rng.gen_range(0.0..100.0), rng.gen_range(0.1..2.0));
                    }
                }
                let grades = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
                let cell = DeltaCell {
                    weight,
                    grades,
                    stats,
                };
                (key, cell)
            });
            a.insert(SourceId(s), SourceDelta::from_cells(cells));
        }
        a
    }

    #[test]
    fn folded_runs_match_the_one_at_a_time_build() {
        for (n, seed) in [(3, 1), (40, 2), (400, 3)] {
            let a = synthetic(n, seed);
            let built = a.build_merged();
            assert_same_tree(&built, &reference_build(&a));
            if n == 400 {
                let sources = |e: &crate::hierarchy::CellEntry| e.content.per_source.len();
                assert!(built.cells().values().any(|e| sources(e) == 1));
                assert!(built.cells().values().any(|e| sources(e) >= 200));
            }
        }
        // Real local summaries, one source per cell and many.
        let mut a = acc();
        for i in 0..60 {
            a.update_source(SourceId(i), &local_summary(300 + i as u64, i, 40))
                .unwrap();
        }
        let built = a.build_merged();
        built.check_invariants();
        assert_same_tree(&built, &reference_build(&a));
    }

    /// Every one-clause proposition over each attribute's label subsets
    /// (the 12-label attribute: every subset when `all_subsets`, else its
    /// singletons and their complements), two-clause ones, an
    /// unsatisfiable one and the empty one.
    fn propositions(all_subsets: bool) -> Vec<Proposition> {
        use crate::query::proposition::Clause;
        use fuzzy::descriptor::DescriptorSet;
        let counts = acc().label_counts;
        let set = |mask: u32| {
            DescriptorSet::from_labels((0..12u16).filter(|l| mask >> l & 1 == 1).map(LabelId))
        };
        let clause = |attr: usize, mask: u32| Clause {
            attr,
            set: set(mask),
        };
        let mut out = vec![Proposition::default()];
        for (attr, &n) in counts.iter().enumerate() {
            let full = (1u32 << n) - 1;
            let masks: Vec<u32> = if n <= 3 || all_subsets {
                (1..=full).collect()
            } else {
                (0..n).flat_map(|l| [1 << l, full ^ (1 << l)]).collect()
            };
            out.extend(masks.into_iter().map(|m| Proposition {
                clauses: vec![clause(attr, m)],
            }));
        }
        for (a, b) in [(0b001, 0b011), (0b110, 0b010), (0b101, 0b111)] {
            out.push(Proposition {
                clauses: vec![clause(0, a), clause(2, b)],
            });
            out.push(Proposition {
                clauses: vec![clause(1, a), clause(3, b << 9 | b)],
            });
        }
        out.push(Proposition {
            clauses: vec![clause(0, 0b001), clause(1, 0)],
        });
        out
    }

    fn assert_scan_matches_tree(a: &GsAccumulator, props: &[Proposition]) {
        let tree = a.build_merged();
        for p in props {
            assert_eq!(
                a.relevant_sources(p),
                crate::query::relevant_sources(&tree, p),
                "localization differs for {p:?}"
            );
        }
    }

    #[test]
    fn localization_scan_matches_tree_selection() {
        // Zero, negative and faint weights: faint ones take the fallback.
        for (n, seed) in [(3, 1), (40, 2), (400, 3)] {
            let a = synthetic(n, seed);
            assert!(a.faint > 0, "the synthetic sources carry faint cells");
            assert_scan_matches_tree(&a, &propositions(false));
        }
        // Real local summaries: the scan itself.
        let mut a = acc();
        for i in 0..60 {
            a.update_source(SourceId(i), &local_summary(300 + i as u64, i, 40))
                .unwrap();
        }
        assert_eq!(a.faint, 0);
        assert_scan_matches_tree(&a, &propositions(true));
        // The faint count follows replacements and removals.
        let mut b = synthetic(40, 2);
        let faint: Vec<SourceId> = b
            .sources
            .iter()
            .filter(|(_, d)| d.faint_cells() > 0)
            .map(|(&s, _)| s)
            .collect();
        for s in faint {
            if s.0 % 2 == 0 {
                b.remove_source(s);
            } else {
                b.update_source(s, &local_summary(500 + u64::from(s.0), s.0, 20))
                    .unwrap();
            }
        }
        assert_eq!(b.faint, 0);
        assert_scan_matches_tree(&b, &propositions(false));
        b.clear();
        assert!(b.relevant_sources(&Proposition::default()).is_empty());
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
    }
}
