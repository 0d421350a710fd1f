//! The summarization service (§3.2.2): top-down Cobweb-style
//! incorporation of grid cells into the summary hierarchy.
//!
//! Cells descend the tree from the root. At each level the engine scores
//! four operators with the category-utility partition score
//! ([`crate::score`]) and applies the best:
//!
//! * **incorporate** — place the cell into the best-fitting child (and
//!   recurse if that child is internal);
//! * **create** — open a fresh singleton child for the cell;
//! * **merge** — fuse the two best children under a new host, then
//!   descend into it;
//! * **split** — dissolve the best child, promoting its children, and
//!   rescore.
//!
//! Each level is scored once: the parent's expected-correct term and
//! every child's CU term, with and without the cell, are computed up
//! front, and every operator's score is a sum of those cached terms in
//! the order [`crate::score`] adds them (so the scores are bit-identical
//! to its reference functions). A level with `k` children thus costs
//! `O(k)` histogram passes — two per internal child, one for the parent,
//! one for a merge candidate, two per internal grandchild of a split
//! candidate — plus `O(k²)` scalar additions for the `k` host
//! hypotheses. A leaf's terms read only its key's slots and the pending
//! cell's, one or two per attribute, since a leaf holds no weight
//! elsewhere ([`crate::score`]'s `leaf_expected_correct`). Most children
//! are leaves: a local summary's levels have two or three children.
//!
//! Once a cell's coordinate already exists in the tree, incorporation
//! degenerates to "sorting it in a tree" (§4.2.1) — a count update along
//! one root-to-leaf path — which is why summaries stabilize and the
//! whole process is `O(K)` in the number of cells (§6.1.1; benchmarked
//! in `sumq-bench`). The cell is looked up once, by its labels; a key is
//! allocated only for a new leaf.
//!
//! The [`SaintEtiQEngine`] owns the buffers a record passes through: the
//! mapped cells ([`crate::mapping::MappedCells`]), the raw values, and
//! the descent's children and terms ([`DescentBuffers`]), and the tree
//! itself, one flat arena ([`crate::hierarchy`]). A new leaf or host
//! node appends rows to the arena's columns; nothing is allocated per
//! node or cell. [`SaintEtiQEngine::clear_tree`] empties the arena and
//! keeps its capacity, so one engine, with its mapper bound once,
//! summarizes table after table and allocates nothing for them once its
//! buffers and arena have grown to the largest table's summary.

use fuzzy::bk::BackgroundKnowledge;
use fuzzy::descriptor::{Grade, LabelId};
use relation::schema::Schema;
use relation::table::{ChangeKind, Table, TableChange};

use crate::cell::{CellKey, SourceId};
use crate::error::SummaryError;
use crate::hierarchy::{Contribution, NodeId, StatsUpdate, SummaryTree};
use crate::mapping::{MappedCells, Mapper};
use crate::score::{expected_correct, leaf_expected_correct};

/// Tunables of the summarization service.
///
/// The cited SaintEtiQ papers leave these constants open; defaults follow
/// classic Cobweb. Benchmarks ablate `enable_merge` / `enable_split`.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Consider the *merge* operator during descent.
    pub enable_merge: bool,
    /// Consider the *split* operator during descent.
    pub enable_split: bool,
    /// Score improvements below this epsilon do not justify a merge or a
    /// split (hysteresis keeps the tree stable, which §4.2.1 relies on).
    pub restructure_epsilon: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            enable_merge: true,
            enable_split: true,
            restructure_epsilon: 1e-6,
        }
    }
}

/// What the descent decided at one level.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operator {
    Host(usize),
    Create,
    Merge(usize, usize),
    Split(usize),
}

/// Incorporates one weighted cell contribution into `tree`.
///
/// This free function is the engine's core; [`SaintEtiQEngine`] wraps it
/// for local tables. It is the one-contribution case of
/// [`incorporate_contributions`].
pub fn incorporate_cell(
    tree: &mut SummaryTree,
    config: &EngineConfig,
    key: &CellKey,
    source: SourceId,
    weight: f64,
    grades: &[Grade],
    raw_values: Option<&[Option<f64>]>,
) {
    let stats = raw_values.map_or(StatsUpdate::None, StatsUpdate::Raw);
    incorporate_contributions(
        tree,
        config,
        &key.0,
        &[Contribution {
            source,
            weight,
            grades,
            stats,
        }],
        &mut DescentBuffers::default(),
    );
}

/// Incorporates a run of contributions to one cell, in order.
///
/// The tree is the one [`incorporate_cell`] would build contribution by
/// contribution, but the run takes at most one Cobweb descent and one
/// path walk. No decision is taken between two contributions to the
/// same cell: once the coordinate exists, sorting in the tree is a path
/// update. A new cell is placed by the descent at its first positive
/// weight; contributions before it add nothing, as there is no leaf to
/// hold their statistics. [`crate::merge`] and
/// [`crate::delta::GsAccumulator::build_merged`] fold whole cells with
/// it.
///
/// The cell (grid coordinate `labels`) is looked up once; its key is
/// allocated only when a leaf is created for it. `buffers` serve the
/// descent and can be reused from call to call.
pub fn incorporate_contributions(
    tree: &mut SummaryTree,
    config: &EngineConfig,
    labels: &[LabelId],
    contributions: &[Contribution<'_>],
    buffers: &mut DescentBuffers,
) {
    if tree.fold_into_existing(labels, contributions) {
        return;
    }
    let Some(first) = contributions.iter().position(|c| c.weight > 0.0) else {
        return;
    };
    let leaf_parent = descend(tree, config, labels, contributions[first].weight, buffers);
    tree.attach_leaf(leaf_parent, labels, &contributions[first..]);
}

/// The buffers a Cobweb descent works in: a level's children, their
/// CU terms, a split candidate's promoted grandchildren's, and the
/// expected-correct sums known so far. They are reused from level to
/// level and, when the caller keeps them, from cell to cell.
#[derive(Debug, Clone, Default)]
pub struct DescentBuffers {
    children: Vec<NodeId>,
    terms: Vec<ChildTerms>,
    promoted: Vec<ChildTerms>,
    known: KnownEcs,
}

/// The [`ChildEc`]s one descent has computed, by node, cleared when a
/// descent starts. A level below an internal host finds the sums the
/// level above computed: its parent's as that child's `hosted`, its
/// children's as the split candidate's grandchildren. They stay exact for
/// the whole descent: descending into an internal child and splitting
/// move no weight, and a merge changes the weights of the node being
/// descended and its ancestors only, which the descent never scores
/// again. Debug builds recompute every sum they lend and compare.
#[derive(Debug, Clone, Default)]
struct KnownEcs(Vec<(NodeId, ChildEc)>);

/// Cobweb descent: returns the internal node that should directly parent
/// the new leaf for cell `labels`.
fn descend(
    tree: &mut SummaryTree,
    config: &EngineConfig,
    labels: &[LabelId],
    weight: f64,
    buf: &mut DescentBuffers,
) -> NodeId {
    let mut node = tree.root();
    // Per-node guards: after a merge/split at this node we must make
    // progress through host/create, so restructuring can't loop.
    let mut merged_here = false;
    let mut split_here = false;
    buf.known.0.clear();
    loop {
        buf.children.clear();
        buf.children.extend(tree.node(node).children());
        if buf.children.is_empty() {
            return node;
        }

        let level = Level::score(
            tree,
            node,
            &buf.children,
            labels,
            weight,
            &mut buf.terms,
            &mut buf.known,
        );
        let op = level.choose(
            config,
            merged_here,
            split_here,
            &mut buf.promoted,
            &mut buf.known,
        );
        let children = &buf.children;
        match op {
            Operator::Create => return node,
            Operator::Host(i) => {
                let child = children[i];
                if tree.node(child).is_leaf() {
                    // Turn the leaf into a cluster: host = {old leaf, new}.
                    let host = tree.create_internal(node);
                    tree.reparent(child, host);
                    return host;
                }
                node = child;
                merged_here = false;
                split_here = false;
            }
            Operator::Merge(i, j) => {
                let host = tree.merge_children(node, children[i], children[j]);
                node = host;
                // The fresh host was just merged into existence; don't
                // merge again at this level before placing the cell.
                merged_here = true;
                split_here = false;
            }
            Operator::Split(i) => {
                tree.split_node(children[i]);
                split_here = true;
            }
        }
    }
}

/// A child's two CU terms at one level, `(total / parent_total) * (ec −
/// parent_ec)`: as it stands (`plain`) and hosting the pending cell
/// (`hosted`). `None` when that total is not positive (the term is
/// skipped).
#[derive(Debug, Clone, Copy)]
struct ChildTerms {
    plain: Option<f64>,
    hosted: Option<f64>,
}

/// A child's two expected-correct sums `ec`, as it stands and hosting the
/// pending cell; `None` when that total is not positive. They depend on
/// the child and the pending cell only, not on the level.
#[derive(Debug, Clone, Copy)]
struct ChildEc {
    plain: Option<f64>,
    hosted: Option<f64>,
}

/// One descent level, scored once: the parent's expected-correct term
/// with the pending cell in it, and every child's [`ChildTerms`]. Each
/// operator's score sums cached terms in the order the reference scorers
/// ([`crate::score::category_utility`] and
/// [`crate::score::category_utility_with_new_child`]) add them, so every
/// score is bit-identical to theirs.
struct Level<'a> {
    tree: &'a SummaryTree,
    children: &'a [NodeId],
    labels: &'a [LabelId],
    weight: f64,
    parent_total: f64,
    parent_ec: f64,
    /// `terms[i]` belongs to `children[i]`; empty when `parent_total` is
    /// not positive (every score is then 0).
    terms: &'a [ChildTerms],
}

impl<'a> Level<'a> {
    /// Scores the level of `node`, whose children are `children`, for a
    /// pending cell `labels` of weight `weight`. `buf` holds the cached
    /// terms; `known` lends the sums computed earlier in the descent and
    /// keeps the new ones.
    fn score(
        tree: &'a SummaryTree,
        node: NodeId,
        children: &'a [NodeId],
        labels: &'a [LabelId],
        weight: f64,
        buf: &'a mut Vec<ChildTerms>,
        known: &mut KnownEcs,
    ) -> Self {
        let parent = tree.node(node);
        let parent_total = parent.count() + weight;
        let mut level = Level {
            tree,
            children,
            labels,
            weight,
            parent_total,
            parent_ec: 0.0,
            terms: &[],
        };
        buf.clear();
        if parent_total > 0.0 {
            let hist = parent.hist();
            let computed = || {
                expected_correct(tree.offsets(), parent_total, Some((labels, weight)), |s| {
                    hist[s]
                })
            };
            // The parent's sum is the one it had as a child hosting the
            // cell, at the same total.
            level.parent_ec = match known.get(node).and_then(|ec| ec.hosted) {
                Some(ec) => {
                    debug_assert_eq!(ec.to_bits(), computed().to_bits(), "stale sum for {node:?}");
                    ec
                }
                None => computed(),
            };
            buf.extend(children.iter().map(|&c| level.terms_of(c, known)));
        }
        level.terms = buf;
        level
    }

    /// `child`'s terms at this level, from its sums in `known` or, when
    /// they are not there yet, computed and kept there.
    fn terms_of(&self, child: NodeId, known: &mut KnownEcs) -> ChildTerms {
        let ec = match known.get(child) {
            Some(ec) => {
                debug_assert_eq!(
                    ec.bits(),
                    self.ec_of(child).bits(),
                    "stale sums for {child:?}"
                );
                ec
            }
            None => {
                let ec = self.ec_of(child);
                known.0.push((child, ec));
                ec
            }
        };
        let count = self.tree.node(child).count();
        let term = |total: f64, ec: Option<f64>| {
            ec.map(|ec| (total / self.parent_total) * (ec - self.parent_ec))
        };
        ChildTerms {
            plain: term(count, ec.plain),
            hosted: term(count + self.weight, ec.hosted),
        }
    }

    /// `child`'s sums for this level's pending cell. A leaf's read only
    /// its key's slots and the pending cell's.
    fn ec_of(&self, child: NodeId) -> ChildEc {
        let c = self.tree.node(child);
        let (offsets, hist) = (self.tree.offsets(), c.hist());
        let ec = |total: f64, pending| {
            (total > 0.0).then(|| match c.cell() {
                Some(key) => leaf_expected_correct(offsets, total, pending, key, hist),
                None => expected_correct(offsets, total, pending, |s| hist[s]),
            })
        };
        ChildEc {
            plain: ec(c.count(), None),
            hosted: ec(c.count() + self.weight, Some((self.labels, self.weight))),
        }
    }

    /// CU with the cell hosted in child `i`.
    fn host(&self, i: usize) -> f64 {
        if self.parent_total <= 0.0 {
            return 0.0;
        }
        cu_hosted_in(0.0, self.terms, Some(i)) / self.children.len() as f64
    }

    /// CU with the cell in a new singleton child.
    fn create(&self) -> f64 {
        if self.parent_total <= 0.0 {
            return 0.0;
        }
        let mut cu = cu_hosted_in(0.0, self.terms, None);
        // A singleton's Σ P(l|C)² is the number of attributes.
        let singleton_ec = self.labels.len() as f64;
        cu += (self.weight / self.parent_total) * (singleton_ec - self.parent_ec);
        cu / (self.children.len() + 1) as f64
    }

    /// CU if children `i` and `j` were fused into one host that also
    /// receives the cell.
    fn merge(&self, i: usize, j: usize) -> f64 {
        if self.parent_total <= 0.0 {
            return 0.0;
        }
        let k = self.children.len() - 1; // i and j fuse into one
        let mut cu = 0.0;
        let (ci, cj) = (
            self.tree.node(self.children[i]),
            self.tree.node(self.children[j]),
        );
        let (hi, hj) = (ci.hist(), cj.hist());
        let fused_count = ci.count() + cj.count();
        let fused_total = fused_count + self.weight;
        if fused_total > 0.0 {
            // Fused histogram = hist_i + hist_j, slot by slot.
            let ec = expected_correct(
                self.tree.offsets(),
                fused_total,
                Some((self.labels, self.weight)),
                |s| hi[s] + hj[s],
            );
            cu += (fused_total / self.parent_total) * (ec - self.parent_ec);
        }
        for (idx, t) in self.terms.iter().enumerate() {
            if idx != i && idx != j {
                if let Some(t) = t.plain {
                    cu += t;
                }
            }
        }
        cu / k as f64
    }

    /// CU if child `i` (internal) were dissolved, its children promoted,
    /// and the cell placed in the best promoted grandchild. `promoted`
    /// holds the grandchildren's terms; their sums are kept in `known`.
    fn split(&self, i: usize, promoted: &mut Vec<ChildTerms>, known: &mut KnownEcs) -> f64 {
        if self.parent_total <= 0.0 {
            return 0.0;
        }
        let grandchildren = self.tree.node(self.children[i]);
        let k = self.children.len() - 1 + grandchildren.child_count();
        if k == 0 {
            return f64::NEG_INFINITY;
        }
        // Contribution of the unaffected children.
        let mut base = 0.0;
        for (idx, t) in self.terms.iter().enumerate() {
            if idx != i {
                if let Some(t) = t.plain {
                    base += t;
                }
            }
        }
        // Try the cell in each promoted grandchild; keep the best.
        promoted.clear();
        promoted.extend(grandchildren.children().map(|g| self.terms_of(g, known)));
        let mut best = f64::NEG_INFINITY;
        for gi in 0..promoted.len() {
            best = best.max(cu_hosted_in(base, promoted, Some(gi)));
        }
        best / k as f64
    }

    /// Picks the operator for this level; `promoted` and `known` serve a
    /// split candidate's scoring.
    fn choose(
        &self,
        config: &EngineConfig,
        merged_here: bool,
        split_here: bool,
        promoted: &mut Vec<ChildTerms>,
        known: &mut KnownEcs,
    ) -> Operator {
        // Score hosting in each child.
        let mut best: (f64, usize) = (f64::NEG_INFINITY, 0);
        let mut second: (f64, usize) = (f64::NEG_INFINITY, 0);
        for i in 0..self.children.len() {
            let s = self.host(i);
            if s > best.0 {
                second = best;
                best = (s, i);
            } else if s > second.0 {
                second = (s, i);
            }
        }
        let create_score = self.create();

        let mut winner = if create_score > best.0 {
            (create_score, Operator::Create)
        } else {
            (best.0, Operator::Host(best.1))
        };

        // Merge: fuse the two best hosts, place the cell inside the fusion.
        if config.enable_merge
            && !merged_here
            && self.children.len() >= 3
            && second.0 > f64::NEG_INFINITY
        {
            let s = self.merge(best.1, second.1);
            if s > winner.0 + config.restructure_epsilon {
                winner = (s, Operator::Merge(best.1, second.1));
            }
        }

        // Split: dissolve the best host if it is internal.
        if config.enable_split && !split_here {
            let host = self.children[best.1];
            if !self.tree.node(host).is_leaf() {
                let s = self.split(best.1, promoted, known);
                if s > winner.0 + config.restructure_epsilon {
                    winner = (s, Operator::Split(best.1));
                }
            }
        }

        winner.1
    }
}

impl KnownEcs {
    fn get(&self, node: NodeId) -> Option<ChildEc> {
        self.0.iter().find(|(id, _)| *id == node).map(|&(_, ec)| ec)
    }
}

impl ChildEc {
    /// The sums' bits, for comparisons.
    fn bits(self) -> [Option<u64>; 2] {
        [self.plain.map(f64::to_bits), self.hosted.map(f64::to_bits)]
    }
}

/// `cu` plus every term of a partition, in child order: child `host`'s
/// hosted term and every other child's plain term.
fn cu_hosted_in(mut cu: f64, terms: &[ChildTerms], host: Option<usize>) -> f64 {
    for (j, t) in terms.iter().enumerate() {
        let term = if Some(j) == host { t.hosted } else { t.plain };
        if let Some(term) = term {
            cu += term;
        }
    }
    cu
}

/// The per-peer summarization engine: a [`Mapper`] feeding a
/// [`SummaryTree`], consuming tables and push-mode change feeds.
///
/// The engine owns the buffers a record passes through — its mapped
/// cells, its raw values and the descent's — and the tree's arena.
/// [`SaintEtiQEngine::clear_tree`] empties the tree for the next table
/// and keeps the bound mapper, the buffers and the arena's capacity.
#[derive(Debug, Clone)]
pub struct SaintEtiQEngine {
    mapper: Mapper,
    tree: SummaryTree,
    config: EngineConfig,
    source: SourceId,
    unmappable: usize,
    /// The current record's candidate cells.
    cells: MappedCells,
    /// The current record's raw numeric values, per BK attribute.
    raw: Vec<Option<f64>>,
    descent: DescentBuffers,
}

impl SaintEtiQEngine {
    /// Builds an engine for `source` over the given BK and relation
    /// schema.
    pub fn new(
        bk: BackgroundKnowledge,
        schema: &Schema,
        config: EngineConfig,
        source: SourceId,
    ) -> Result<Self, SummaryError> {
        let label_counts: Vec<usize> = bk.attributes().iter().map(|a| a.label_count()).collect();
        let tree = SummaryTree::new(bk.name(), label_counts);
        let mapper = Mapper::bind(bk, schema)?;
        Ok(Self {
            mapper,
            tree,
            config,
            source,
            unmappable: 0,
            cells: MappedCells::default(),
            raw: Vec::new(),
            descent: DescentBuffers::default(),
        })
    }

    /// The engine's source id (the owning peer).
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Attributes the records incorporated from now on to `source`.
    pub fn set_source(&mut self, source: SourceId) {
        self.source = source;
    }

    /// The mapper (BK binding).
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }

    /// The summary hierarchy.
    pub fn tree(&self) -> &SummaryTree {
        &self.tree
    }

    /// Consumes the engine, returning the hierarchy.
    pub fn into_tree(self) -> SummaryTree {
        self.tree
    }

    /// Empties the hierarchy, keeping its arena's capacity, and forgets
    /// the unmappable records counted: the engine then summarizes its
    /// next table as a fresh one would.
    pub fn clear_tree(&mut self) {
        self.tree.clear();
        self.unmappable = 0;
    }

    /// Records skipped as unmappable so far.
    pub fn unmappable(&self) -> usize {
        self.unmappable
    }

    /// Incorporates one record.
    pub fn add_record(&mut self, row: &[relation::value::Value]) {
        if self.mapper.map_record_into(row, &mut self.cells).is_err() {
            self.unmappable += 1;
            return;
        }
        // Raw numeric values per BK attribute, for the cell statistics.
        self.raw.clear();
        let columns = (0..self.mapper.bk().arity()).map(|i| self.mapper.column(i));
        self.raw.extend(columns.map(|col| row[col].as_f64()));
        for i in 0..self.cells.len() {
            let run = [Contribution {
                source: self.source,
                weight: self.cells.weight(i),
                grades: self.cells.grades(i),
                stats: StatsUpdate::Raw(&self.raw),
            }];
            incorporate_contributions(
                &mut self.tree,
                &self.config,
                self.cells.labels(i),
                &run,
                &mut self.descent,
            );
        }
    }

    /// Retracts one record (its before-image).
    pub fn remove_record(&mut self, row: &[relation::value::Value]) {
        if let Ok(cells) = self.mapper.map_record(row) {
            for cand in cells {
                self.tree
                    .remove_from_cell(&cand.key, self.source, cand.weight);
            }
        }
    }

    /// Summarizes a whole table (initial build). Raw data is parsed once,
    /// as §3.2.3 highlights.
    pub fn summarize_table(&mut self, table: &Table) {
        self.summarize_rows(table.iter().map(|(_, row)| row));
    }

    /// Summarizes rows in the order given — a table's insertion order
    /// makes the same tree as [`SaintEtiQEngine::summarize_table`].
    pub fn summarize_rows<'r>(
        &mut self,
        rows: impl IntoIterator<Item = &'r [relation::value::Value]>,
    ) {
        for row in rows {
            self.add_record(row);
        }
    }

    /// Applies a push-mode change feed (§4.2.1). `table` provides the
    /// after-images of inserts/updates.
    pub fn apply_changes(&mut self, table: &Table, changes: &[TableChange]) {
        for ch in changes {
            match &ch.kind {
                ChangeKind::Insert => {
                    if let Some(t) = table.get(ch.id) {
                        self.add_record(&t.values);
                    }
                }
                ChangeKind::Delete { old } => self.remove_record(old),
                ChangeKind::Update { old } => {
                    self.remove_record(old);
                    if let Some(t) = table.get(ch.id) {
                        self.add_record(&t.values);
                    }
                }
            }
        }
    }

    /// Rebuilds the hierarchy from scratch off the current table —
    /// used after heavy churn, mirroring the paper's global-summary
    /// reconciliation which reconstructs `NewGS`.
    pub fn rebuild(&mut self, table: &Table) {
        self.clear_tree();
        self.summarize_table(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy::bk::BackgroundKnowledge;
    use rand::Rng;
    use rand::SeedableRng;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};

    fn engine() -> SaintEtiQEngine {
        SaintEtiQEngine::new(
            BackgroundKnowledge::medical_cbk(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(1),
        )
        .unwrap()
    }

    /// The paper's Figure 3: summarizing Table 1 yields a hierarchy whose
    /// leaves are exactly cells c1, c2, c3 with Table 2's counts.
    #[test]
    fn figure3_hierarchy_from_table1() {
        let mut e = engine();
        e.summarize_table(&Table::patient_table1());
        let t = e.tree();
        t.check_invariants();
        assert_eq!(t.leaf_count(), 3, "cells c1, c2, c3");
        assert!((t.total_count() - 3.0).abs() < 1e-9, "three patients");
        // Counts per cell match Table 2.
        let weights: Vec<f64> = t.cells().map(|c| c.weight()).collect();
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 0.3).abs() < 1e-9);
        assert!((sorted[1] - 0.7).abs() < 1e-9);
        assert!((sorted[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn incorporation_is_idempotent_on_structure() {
        // Re-adding records with existing coordinates must only touch
        // counts ("incorporating new tuple consists only in sorting it in
        // a tree", §4.2.1).
        let mut e = engine();
        let table = Table::patient_table1();
        e.summarize_table(&table);
        let nodes_before = e.tree().live_node_count();
        e.summarize_table(&table);
        assert_eq!(e.tree().live_node_count(), nodes_before);
        assert!((e.tree().total_count() - 6.0).abs() < 1e-9);
        e.tree().check_invariants();
    }

    #[test]
    fn push_mode_insert_delete_update() {
        let mut e = engine();
        let mut table = Table::patient_table1();
        e.summarize_table(&table);
        table.drain_changes();

        // Insert a new patient, delete t2, update t1.
        table
            .insert(vec![
                relation::value::Value::Int(70),
                relation::value::Value::text("male"),
                relation::value::Value::Float(28.0),
                relation::value::Value::text("diabetes"),
            ])
            .unwrap();
        table.delete(relation::tuple::TupleId(2)).unwrap();
        table
            .update(
                relation::tuple::TupleId(1),
                vec![
                    relation::value::Value::Int(16),
                    relation::value::Value::text("female"),
                    relation::value::Value::Float(17.2),
                    relation::value::Value::text("anorexia"),
                ],
            )
            .unwrap();
        let changes = table.drain_changes();
        e.apply_changes(&table, &changes);
        e.tree().check_invariants();
        assert!((e.tree().total_count() - 3.0).abs() < 1e-9, "3 live tuples");

        // A rebuilt engine over the same table must agree on cells.
        let mut fresh = engine();
        fresh.summarize_table(&table);
        let keys_inc: Vec<_> = e.tree().cells().map(|c| c.key().to_vec()).collect();
        let keys_fresh: Vec<_> = fresh.tree().cells().map(|c| c.key().to_vec()).collect();
        assert_eq!(keys_inc, keys_fresh, "incremental == from-scratch cell set");
        for entry in e.tree().cells() {
            let k = entry.key();
            let w_fresh = fresh.tree().cell(k).unwrap().weight();
            assert!(
                (entry.weight() - w_fresh).abs() < 1e-9,
                "weight drift on {k:?}"
            );
        }
    }

    #[test]
    fn larger_table_keeps_invariants_and_mass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let dist = PatientDistributions::default();
        let target = MatchTarget {
            disease: Some("malaria".into()),
            ..Default::default()
        };
        let table = patient_table(&mut rng, 300, &dist, &target, 30);
        let mut e = engine();
        e.summarize_table(&table);
        let t = e.tree();
        t.check_invariants();
        assert!((t.total_count() - 300.0).abs() < 1e-6);
        assert_eq!(e.unmappable(), 0);
        // K << N: the grid bounds the number of leaves.
        assert!(
            t.leaf_count() <= 324,
            "leaves {} exceed grid",
            t.leaf_count()
        );
        assert!(t.leaf_count() < 300, "summarization must compress");
        // Tree is genuinely hierarchical, not a flat root.
        assert!(t.depth() >= 2, "depth {}", t.depth());
    }

    #[test]
    fn removal_mirrors_addition_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let dist = PatientDistributions::default();
        let mut e = engine();
        let base = patient_table(&mut rng, 50, &dist, &MatchTarget::default(), 0);
        e.summarize_table(&base);
        let leaf_count = e.tree().leaf_count();
        let total = e.tree().total_count();

        // Add then remove 20 extra random records: tree returns to the
        // same cell multiset.
        let extra: Vec<Vec<relation::value::Value>> = (0..20)
            .map(|_| relation::generator::random_patient(&mut rng, &dist))
            .collect();
        for row in &extra {
            e.add_record(row);
        }
        for row in &extra {
            e.remove_record(row);
        }
        e.tree().check_invariants();
        assert_eq!(e.tree().leaf_count(), leaf_count);
        assert!((e.tree().total_count() - total).abs() < 1e-6);
    }

    #[test]
    fn unmappable_records_are_counted() {
        let mut e = engine();
        e.add_record(&[
            relation::value::Value::Null,
            relation::value::Value::text("female"),
            relation::value::Value::Float(20.0),
            relation::value::Value::text("malaria"),
        ]);
        assert_eq!(e.unmappable(), 1);
        assert_eq!(e.tree().leaf_count(), 0);
    }

    #[test]
    fn rebuild_matches_incremental_cells() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, 120, &dist, &MatchTarget::default(), 0);
        let mut e = engine();
        e.summarize_table(&table);
        let before: Vec<_> = e
            .tree()
            .cells()
            .map(|c| (c.key().to_vec(), c.weight()))
            .collect();
        e.rebuild(&table);
        let after: Vec<_> = e
            .tree()
            .cells()
            .map(|c| (c.key().to_vec(), c.weight()))
            .collect();
        assert_eq!(before.len(), after.len());
        for ((ka, wa), (kb, wb)) in before.iter().zip(&after) {
            assert_eq!(ka, kb);
            assert!((wa - wb).abs() < 1e-9);
        }
        e.tree().check_invariants();
    }

    #[test]
    fn ablation_no_restructure_still_correct() {
        // With merge/split disabled the tree may be flatter but cells and
        // mass must be identical.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let dist = PatientDistributions::default();
        let table = patient_table(&mut rng, 200, &dist, &MatchTarget::default(), 0);

        let full = {
            let mut e = engine();
            e.summarize_table(&table);
            e.into_tree()
        };
        let plain = {
            let mut e = SaintEtiQEngine::new(
                BackgroundKnowledge::medical_cbk(),
                &Schema::patient(),
                EngineConfig {
                    enable_merge: false,
                    enable_split: false,
                    ..Default::default()
                },
                SourceId(1),
            )
            .unwrap();
            e.summarize_table(&table);
            e.into_tree()
        };
        plain.check_invariants();
        assert_eq!(full.leaf_count(), plain.leaf_count());
        assert!((full.total_count() - plain.total_count()).abs() < 1e-6);
    }

    #[test]
    fn order_invariance_of_cells() {
        // Different insertion orders may shape the tree differently, but
        // the leaf cells (the summary's semantics) are order-independent.
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let dist = PatientDistributions::default();
        let rows: Vec<Vec<relation::value::Value>> = (0..80)
            .map(|_| relation::generator::random_patient(&mut rng, &dist))
            .collect();

        let mut forward = engine();
        for r in &rows {
            forward.add_record(r);
        }
        let mut backward = engine();
        for r in rows.iter().rev() {
            backward.add_record(r);
        }
        let f: Vec<_> = forward.tree().cells().map(|c| c.key().to_vec()).collect();
        let b: Vec<_> = backward.tree().cells().map(|c| c.key().to_vec()).collect();
        assert_eq!(f, b);
        for k in &f {
            let wf = forward.tree().cell(k).unwrap().weight();
            let wb = backward.tree().cell(k).unwrap().weight();
            assert!((wf - wb).abs() < 1e-9);
        }
    }

    #[test]
    fn random_small_batches_keep_invariants() {
        // Smoke-level property test: random add/remove interleavings
        // never break structural invariants.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let dist = PatientDistributions::default();
        for round in 0..10 {
            let mut e = engine();
            let mut live: Vec<Vec<relation::value::Value>> = Vec::new();
            for _ in 0..60 {
                if !live.is_empty() && rng.gen_bool(0.3) {
                    let idx = rng.gen_range(0..live.len());
                    let row = live.swap_remove(idx);
                    e.remove_record(&row);
                } else {
                    let row = relation::generator::random_patient(&mut rng, &dist);
                    e.add_record(&row);
                    live.push(row);
                }
                e.tree().check_invariants();
            }
            assert!(
                (e.tree().total_count() - live.len() as f64).abs() < 1e-6,
                "round {round}: mass {} vs {}",
                e.tree().total_count(),
                live.len()
            );
        }
    }
}

/// The descent's bit-exact reference, kept as a self-check that tests
/// call.
mod reference {
    use fuzzy::bk::BackgroundKnowledge;
    use fuzzy::descriptor::LabelId;
    use relation::generator::{patient_table, MatchTarget, PatientDistributions};
    use relation::rand::rngs::StdRng;
    use relation::rand::{Rng, SeedableRng};
    use relation::schema::Schema;

    use super::{EngineConfig, KnownEcs, Level, Operator, SaintEtiQEngine};
    use crate::cell::{CellKey, SourceId};
    use crate::hierarchy::{NodeId, SummaryTree};

    /// A node's histogram in the nested per-attribute layout the reference
    /// scorer read, rebuilt from the flat one.
    fn nested(tree: &SummaryTree, id: NodeId) -> Vec<Vec<f64>> {
        let n = tree.node(id);
        tree.label_counts()
            .iter()
            .enumerate()
            .map(|(a, &len)| {
                (0..len)
                    .map(|l| n.hist()[tree.slot(a, LabelId(l as u16))])
                    .collect()
            })
            .collect()
    }

    fn ref_ec_of(hist: &[Vec<f64>], count: f64, pending: Option<(&[LabelId], f64)>) -> f64 {
        let total = count + pending.map(|(_, w)| w).unwrap_or(0.0);
        if total <= 0.0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (attr, labels) in hist.iter().enumerate() {
            for (l, &w) in labels.iter().enumerate() {
                let mut w = w;
                if let Some((key, pw)) = pending {
                    if key[attr].index() == l {
                        w += pw;
                    }
                }
                if w > 0.0 {
                    let p = w / total;
                    sum += p * p;
                }
            }
        }
        sum
    }

    fn ref_category_utility(
        tree: &SummaryTree,
        parent: NodeId,
        pending: Option<(usize, &[LabelId], f64)>,
    ) -> f64 {
        let p = tree.node(parent);
        let k = p.child_count();
        if k == 0 {
            return 0.0;
        }
        let extra_w = pending.map(|(_, _, w)| w).unwrap_or(0.0);
        let parent_total = p.count() + extra_w;
        if parent_total <= 0.0 {
            return 0.0;
        }
        let parent_ec = ref_ec_of(
            &nested(tree, parent),
            p.count(),
            pending.map(|(_, key, w)| (key, w)),
        );
        let mut cu = 0.0;
        for (i, child) in p.children().enumerate() {
            let c = tree.node(child);
            let child_pending = match pending {
                Some((idx, key, w)) if idx == i => Some((key, w)),
                _ => None,
            };
            let child_total = c.count() + child_pending.map(|(_, w)| w).unwrap_or(0.0);
            if child_total <= 0.0 {
                continue;
            }
            let child_ec = ref_ec_of(&nested(tree, child), c.count(), child_pending);
            cu += (child_total / parent_total) * (child_ec - parent_ec);
        }
        cu / k as f64
    }

    fn ref_create_score(tree: &SummaryTree, parent: NodeId, key: &[LabelId], weight: f64) -> f64 {
        let p = tree.node(parent);
        let k = p.child_count() + 1;
        let parent_total = p.count() + weight;
        if parent_total <= 0.0 {
            return 0.0;
        }
        let parent_ec = ref_ec_of(&nested(tree, parent), p.count(), Some((key, weight)));
        let mut cu = 0.0;
        for child in p.children() {
            let c = tree.node(child);
            if c.count() <= 0.0 {
                continue;
            }
            let child_ec = ref_ec_of(&nested(tree, child), c.count(), None);
            cu += (c.count() / parent_total) * (child_ec - parent_ec);
        }
        let singleton_ec = key.len() as f64;
        cu += (weight / parent_total) * (singleton_ec - parent_ec);
        cu / k as f64
    }

    fn ref_merge_score(
        tree: &SummaryTree,
        node: NodeId,
        children: &[NodeId],
        i: usize,
        j: usize,
        labels: &[LabelId],
        weight: f64,
    ) -> f64 {
        let parent = tree.node(node);
        let parent_total = parent.count() + weight;
        if parent_total <= 0.0 {
            return 0.0;
        }
        let parent_ec = ref_ec_of(&nested(tree, node), parent.count(), Some((labels, weight)));
        let k = children.len() - 1;
        let mut cu = 0.0;
        let (ci, cj) = (tree.node(children[i]), tree.node(children[j]));
        let mut fused: Vec<Vec<f64>> = nested(tree, children[i]);
        let hist_j = nested(tree, children[j]);
        for (attr, labels_h) in fused.iter_mut().enumerate() {
            for (l, slot) in labels_h.iter_mut().enumerate() {
                *slot += hist_j[attr][l];
            }
        }
        let fused_count = ci.count() + cj.count();
        let fused_total = fused_count + weight;
        if fused_total > 0.0 {
            let ec = ref_ec_of(&fused, fused_count, Some((labels, weight)));
            cu += (fused_total / parent_total) * (ec - parent_ec);
        }
        for (idx, &c) in children.iter().enumerate() {
            if idx == i || idx == j {
                continue;
            }
            let child = tree.node(c);
            if child.count() <= 0.0 {
                continue;
            }
            let ec = ref_ec_of(&nested(tree, c), child.count(), None);
            cu += (child.count() / parent_total) * (ec - parent_ec);
        }
        cu / k as f64
    }

    fn ref_split_score(
        tree: &SummaryTree,
        node: NodeId,
        children: &[NodeId],
        i: usize,
        labels: &[LabelId],
        weight: f64,
    ) -> f64 {
        let parent = tree.node(node);
        let parent_total = parent.count() + weight;
        if parent_total <= 0.0 {
            return 0.0;
        }
        let parent_ec = ref_ec_of(&nested(tree, node), parent.count(), Some((labels, weight)));
        let grandchildren: Vec<NodeId> = tree.node(children[i]).children().collect();
        let k = children.len() - 1 + grandchildren.len();
        if k == 0 {
            return f64::NEG_INFINITY;
        }
        let mut base = 0.0;
        for (idx, &c) in children.iter().enumerate() {
            if idx == i {
                continue;
            }
            let child = tree.node(c);
            if child.count() <= 0.0 {
                continue;
            }
            base += (child.count() / parent_total)
                * (ref_ec_of(&nested(tree, c), child.count(), None) - parent_ec);
        }
        let mut best = f64::NEG_INFINITY;
        for gi in 0..grandchildren.len() {
            let mut cu = base;
            for (gj, &h) in grandchildren.iter().enumerate() {
                let gc = tree.node(h);
                let pending = (gi == gj).then_some((labels, weight));
                let total = gc.count() + pending.map(|(_, w)| w).unwrap_or(0.0);
                if total <= 0.0 {
                    continue;
                }
                let ec = ref_ec_of(&nested(tree, h), gc.count(), pending);
                cu += (total / parent_total) * (ec - parent_ec);
            }
            best = best.max(cu);
        }
        best / k as f64
    }

    #[allow(clippy::too_many_arguments)]
    fn ref_choose_operator(
        tree: &SummaryTree,
        config: &EngineConfig,
        node: NodeId,
        children: &[NodeId],
        labels: &[LabelId],
        weight: f64,
        merged_here: bool,
        split_here: bool,
    ) -> Operator {
        let mut best: (f64, usize) = (f64::NEG_INFINITY, 0);
        let mut second: (f64, usize) = (f64::NEG_INFINITY, 0);
        for i in 0..children.len() {
            let s = ref_category_utility(tree, node, Some((i, labels, weight)));
            if s > best.0 {
                second = best;
                best = (s, i);
            } else if s > second.0 {
                second = (s, i);
            }
        }
        let create_score = ref_create_score(tree, node, labels, weight);
        let mut winner = if create_score > best.0 {
            (create_score, Operator::Create)
        } else {
            (best.0, Operator::Host(best.1))
        };
        if config.enable_merge
            && !merged_here
            && children.len() >= 3
            && second.0 > f64::NEG_INFINITY
        {
            let s = ref_merge_score(tree, node, children, best.1, second.1, labels, weight);
            if s > winner.0 + config.restructure_epsilon {
                winner = (s, Operator::Merge(best.1, second.1));
            }
        }
        if config.enable_split && !split_here {
            let host = children[best.1];
            if !tree.node(host).is_leaf() {
                let s = ref_split_score(tree, node, children, best.1, labels, weight);
                if s > winner.0 + config.restructure_epsilon {
                    winner = (s, Operator::Split(best.1));
                }
            }
        }
        winner.1
    }

    /// What the scorer comparison has exercised.
    #[derive(Debug, Default)]
    struct Seen {
        levels: usize,
        arity: [usize; 3],
        leaf_hosts: usize,
        internal_hosts: usize,
        zero_count_children: usize,
        /// Reference decisions: host, create, merge, split.
        ops: [usize; 4],
    }

    /// Scores one level both ways and asserts bit-equal scores and the
    /// same decision under every guard and config.
    fn assert_level_matches(
        tree: &SummaryTree,
        node: NodeId,
        labels: &[LabelId],
        weight: f64,
        seen: &mut Seen,
    ) {
        let children: Vec<NodeId> = tree.node(node).children().collect();
        let k = children.len();
        let (mut buf, mut promoted, mut known) = (Vec::new(), Vec::new(), KnownEcs::default());
        let level = Level::score(tree, node, &children, labels, weight, &mut buf, &mut known);
        let ctx = format!("node {node:?}, key {labels:?}, weight {weight}");
        for i in 0..k {
            let want = ref_category_utility(tree, node, Some((i, labels, weight)));
            assert_eq!(level.host(i).to_bits(), want.to_bits(), "host {i}, {ctx}");
            let public = crate::score::category_utility(tree, node, Some((i, labels, weight)));
            assert_eq!(public.to_bits(), want.to_bits(), "public host {i}, {ctx}");
            for j in (0..k).filter(|&j| j != i) {
                let want = ref_merge_score(tree, node, &children, i, j, labels, weight);
                assert_eq!(
                    level.merge(i, j).to_bits(),
                    want.to_bits(),
                    "merge {i} {j}, {ctx}"
                );
            }
            let child = tree.node(children[i]);
            if child.is_leaf() {
                seen.leaf_hosts += 1;
            } else {
                seen.internal_hosts += 1;
                let want = ref_split_score(tree, node, &children, i, labels, weight);
                assert_eq!(
                    level.split(i, &mut promoted, &mut known).to_bits(),
                    want.to_bits(),
                    "split {i}, {ctx}"
                );
            }
            if child.count() == 0.0 {
                seen.zero_count_children += 1;
            }
        }
        let want = ref_create_score(tree, node, labels, weight);
        assert_eq!(level.create().to_bits(), want.to_bits(), "create, {ctx}");
        let public = crate::score::category_utility_with_new_child(tree, node, labels, weight);
        assert_eq!(public.to_bits(), want.to_bits(), "public create, {ctx}");

        // The level below an internal child, scored from the sums this
        // level and its split scoring left, scores as one scored afresh.
        for &c in children.iter().filter(|&&c| !tree.node(c).is_leaf()) {
            let grandchildren: Vec<NodeId> = tree.node(c).children().collect();
            let (mut reused_buf, mut fresh_buf) = (Vec::new(), Vec::new());
            let reused = Level::score(
                tree,
                c,
                &grandchildren,
                labels,
                weight,
                &mut reused_buf,
                &mut known,
            );
            let fresh = Level::score(
                tree,
                c,
                &grandchildren,
                labels,
                weight,
                &mut fresh_buf,
                &mut KnownEcs::default(),
            );
            for g in 0..grandchildren.len() {
                assert_eq!(
                    reused.host(g).to_bits(),
                    fresh.host(g).to_bits(),
                    "host {g} below {c:?}, {ctx}"
                );
            }
            assert_eq!(
                reused.create().to_bits(),
                fresh.create().to_bits(),
                "create below {c:?}, {ctx}"
            );
        }

        let configs = [
            EngineConfig::default(),
            EngineConfig {
                restructure_epsilon: 0.0,
                ..Default::default()
            },
        ];
        for config in &configs {
            for (merged_here, split_here) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let op = level.choose(config, merged_here, split_here, &mut promoted, &mut known);
                let want = ref_choose_operator(
                    tree,
                    config,
                    node,
                    &children,
                    labels,
                    weight,
                    merged_here,
                    split_here,
                );
                assert_eq!(
                    op, want,
                    "{ctx}, merged_here {merged_here}, split_here {split_here}"
                );
                seen.ops[match want {
                    Operator::Host(_) => 0,
                    Operator::Create => 1,
                    Operator::Merge(..) => 2,
                    Operator::Split(_) => 3,
                }] += 1;
            }
        }
        seen.levels += 1;
        seen.arity[k.min(3) - 1] += 1;
    }

    /// Compares the scorers at every internal node of `tree`, for random
    /// keys and weights.
    fn assert_tree_levels_match(tree: &SummaryTree, rng: &mut StdRng, seen: &mut Seen) {
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            if node.child_count() == 0 {
                continue;
            }
            stack.extend(node.children());
            for _ in 0..3 {
                let labels: Vec<LabelId> = tree
                    .label_counts()
                    .iter()
                    .map(|&n| LabelId(rng.gen_range(0..n) as u16))
                    .collect();
                let weight = match rng.gen_range(0..4) {
                    0 => 1.0,
                    1 => rng.gen_range(1e-6..1e-3),
                    2 => rng.gen_range(1.0..8.0),
                    _ => rng.gen_range(0.0..1.0),
                };
                assert_level_matches(tree, id, &labels, weight, seen);
            }
        }
    }

    /// Self-check: every level's cached scores against the scorer before
    /// per-level caching, bit for bit, and the same operator under every
    /// guard and config, at every internal node of local summaries, merged
    /// global summaries, trees with a zero-count child and a one-child
    /// level. Panics on the first difference.
    #[doc(hidden)]
    pub fn level_scores_match_the_reference_scorer() {
        let mut rng = StdRng::seed_from_u64(41);
        let dist = PatientDistributions::default();
        let mut trees = Vec::new();
        // Local summaries of random tables, from a single record up.
        let mut locals = Vec::new();
        for (i, n) in [1usize, 2, 5, 16, 24, 60, 200].into_iter().enumerate() {
            let table = patient_table(&mut rng, n, &dist, &MatchTarget::default(), 0);
            let mut e = SaintEtiQEngine::new(
                BackgroundKnowledge::medical_cbk(),
                &Schema::patient(),
                EngineConfig::default(),
                SourceId(i as u32),
            )
            .unwrap();
            e.summarize_table(&table);
            locals.push(e.into_tree());
        }
        // Merged multi-source global summaries.
        let bk = BackgroundKnowledge::medical_cbk();
        let label_counts: Vec<usize> = bk.attributes().iter().map(|a| a.label_count()).collect();
        for sources in [&locals[3..5], &locals[..]] {
            let gs = crate::merge::merge_all(
                bk.name(),
                &label_counts,
                sources.iter(),
                &EngineConfig::default(),
            )
            .unwrap();
            trees.push(gs);
        }
        trees.extend(locals);
        // The same trees with a zero-count child under every internal node.
        let unused = CellKey(vec![LabelId(0), LabelId(0), LabelId(0), LabelId(0)]);
        let with_empty: Vec<SummaryTree> = trees
            .iter()
            .filter(|t| t.leaf_of(&unused).is_none())
            .map(|t| {
                let mut t = t.clone();
                let mut internal = Vec::new();
                let mut stack = vec![t.root()];
                while let Some(id) = stack.pop() {
                    if !t.node(id).is_leaf() {
                        internal.push(id);
                        stack.extend(t.node(id).children());
                    }
                }
                let empty =
                    t.create_leaf(internal[rng.gen_range(0..internal.len())], unused.clone());
                assert_eq!(t.node(empty).count(), 0.0);
                t
            })
            .collect();
        trees.extend(with_empty);
        // A single internal child holding two leaves: k = 1, split-able.
        let mut narrow = SummaryTree::new(bk.name(), label_counts.clone());
        let host = narrow.create_internal(narrow.root());
        for labels in [[0u16, 1, 0, 2], [1, 1, 2, 2]] {
            let key = CellKey(labels.iter().map(|&l| LabelId(l)).collect());
            narrow.create_leaf(host, key.clone());
            narrow.add_to_cell(&key, SourceId(1), 1.0, &[1.0; 4], None);
        }
        trees.push(narrow);

        let mut seen = Seen::default();
        for tree in &trees {
            assert_tree_levels_match(tree, &mut rng, &mut seen);
        }
        assert!(seen.arity.iter().all(|&n| n > 0), "{seen:?}");
        assert!(seen.leaf_hosts > 0 && seen.internal_hosts > 0, "{seen:?}");
        assert!(seen.zero_count_children > 0, "{seen:?}");
        assert!(seen.ops.iter().all(|&n| n > 0), "{seen:?}");
    }
}

#[doc(hidden)]
pub use reference::level_scores_match_the_reference_scorer;
