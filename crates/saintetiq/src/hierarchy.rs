//! The summary tree (Definitions 1–4 of the paper).
//!
//! A summary `z` is the bounding hyperrectangle of a cluster of grid
//! cells: an **intent** (one descriptor set per attribute), an extent
//! (here: a fractional tuple count plus per-attribute label histograms),
//! a set of covered cells `L_z`, and — the paper's P2P extension — a
//! **peer-extent** `P_z` (Definition 3) realized by per-cell source sets.
//! Summaries are arranged in a tree by the partial order `z ≼ z'` ⇔
//! `R_z ⊆ R_z'` (Definition 2): children specialize parents, leaves are
//! the grid cells themselves.
//!
//! # Storage
//!
//! The tree is one flat arena of columns, indexed by `u32` ids, with
//! tombstones; nothing is allocated per node or per cell once the columns
//! have grown, and [`SummaryTree::clear`] empties the arena but keeps
//! every column's capacity, so one tree can be rebuilt table after table.
//!
//! * **Nodes** ([`NodeId`]): a links column (parent, first and last
//!   child, previous and next sibling, child count, and the cell a leaf
//!   stands for), a count column, an alive column, and two slabs with
//!   one row per node: the histograms (`Vec<f64>`, stride = the slot
//!   count, see [`SummaryTree::slot`]) and the intents (one
//!   [`DescriptorSet`] per attribute, stride = the arity). Children form
//!   a doubly linked sibling list, in insertion order.
//! * **Cells**: a label slab (stride = the arity; a cell's key is its
//!   run of labels), and columns for the leaf, the weight, the max grades
//!   and statistics (slabs, stride = the arity) and the per-source
//!   weights (one row per cell, sorted by source; rows are recycled).
//!   A drained cell keeps its rows but leaves the index, as a pruned
//!   node keeps its rows as a tombstone: rows are reclaimed only by
//!   [`SummaryTree::clear`]. A tree that takes push-mode removals
//!   ([`SummaryTree::remove_from_cell`]) for a long time without being
//!   rebuilt therefore keeps a row for every cell it ever held. The
//!   simulator never does that: its trees are rebuilt from scratch
//!   (regeneration, merged builds, decoding).
//! * **Index**: the live cells' ids sorted by key. A cell is looked up by
//!   binary search on its labels, and [`SummaryTree::cells`] iterates in
//!   key order, the order the wire encoding, the flat forms of
//!   [`crate::delta`] and the canonical merged build rely on.
//!
//! Structural edits are primitives the engine composes (create leaf,
//! create internal host, promote children, prune). Every primitive keeps
//! the cached per-node histograms, counts and intents consistent, and
//! [`SummaryTree::check_invariants`] verifies all of it for tests: the
//! slab strides, the sibling links and child counts, the index (sorted,
//! one live leaf per cell and one cell per live leaf), and the two
//! invariants below.
//!
//! Two of those invariants let the hot paths skip work without changing
//! a bit:
//!
//! * **intent support** — a node's intent holds label `l` of attribute
//!   `a` exactly when its histogram slot for it exceeds
//!   [`INTENT_THRESHOLD`]. A path update therefore touches only the
//!   slots whose weight changes: [`SummaryTree::fold_into_cell`] the
//!   cell's key slots, a move ([`SummaryTree::reparent`], and so
//!   [`SummaryTree::merge_children`]) the non-zero slots of the moved
//!   histogram.
//! * **leaf support** — a leaf's histogram is zero off its key's slots,
//!   each of which holds the leaf's count. The descent scores a leaf
//!   from those slots alone.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use fuzzy::descriptor::{DescriptorSet, Grade, LabelId};
use relation::stats::AttributeStats;

use crate::cell::{CellKey, SourceId};

/// The weight a histogram slot must exceed for its label to enter the
/// node's intent. Fainter support counts as absent, so a cell whose
/// contributions sum to this or less has an empty intent on every
/// attribute.
pub const INTENT_THRESHOLD: f64 = 1e-12;

/// No node or cell: the root's parent, an empty sibling link, an
/// internal node's cell.
const NONE: u32 = u32::MAX;

/// Node identifier inside one [`SummaryTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A summary intent: one descriptor set per BK attribute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Intent {
    /// `sets[a]` = labels of attribute `a` present in the summary.
    pub sets: Vec<DescriptorSet>,
}

impl From<&[DescriptorSet]> for Intent {
    fn from(sets: &[DescriptorSet]) -> Self {
        Self {
            sets: sets.to_vec(),
        }
    }
}

impl Intent {
    /// An empty intent of the given arity.
    pub fn empty(arity: usize) -> Self {
        Self {
            sets: vec![DescriptorSet::EMPTY; arity],
        }
    }

    /// Component-wise union.
    pub fn union_with(&mut self, other: &Intent) {
        for (s, o) in self.sets.iter_mut().zip(&other.sets) {
            *s = s.union(*o);
        }
    }

    /// Total number of descriptors across attributes.
    pub fn descriptor_count(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Symmetric-difference size against another intent — the summary
    /// "modification" measure of §4.2.1 (descriptor appearance and
    /// disappearance).
    pub fn distance(&self, other: &Intent) -> usize {
        self.sets
            .iter()
            .zip(&other.sets)
            .map(|(a, b)| a.symmetric_distance(b))
            .sum()
    }
}

/// One node's row of the links column.
#[derive(Debug, Clone, Copy)]
struct Links {
    parent: u32,
    first_child: u32,
    last_child: u32,
    prev_sibling: u32,
    next_sibling: u32,
    children: u32,
    /// The cell a leaf stands for; [`NONE`] for an internal node.
    cell: u32,
}

/// One tree node, as [`SummaryTree::node`] lends it: a view of its rows
/// in the arena's columns.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    tree: &'a SummaryTree,
    id: usize,
}

impl<'a> Node<'a> {
    fn links(&self) -> &'a Links {
        &self.tree.links[self.id]
    }

    /// The parent (`None` for the root).
    pub fn parent(&self) -> Option<NodeId> {
        let p = self.links().parent;
        (p != NONE).then_some(NodeId(p))
    }

    /// The children, in order (none for a leaf).
    pub fn children(&self) -> Children<'a> {
        let l = self.links();
        Children {
            links: &self.tree.links,
            front: l.first_child,
            back: l.last_child,
            left: l.children,
        }
    }

    /// Number of children.
    pub fn child_count(&self) -> usize {
        self.links().children as usize
    }

    /// Total cell weight below (fractional tuple count).
    pub fn count(&self) -> f64 {
        self.tree.count[self.id]
    }

    /// The flat, attribute-major label histogram: label `l` of attribute
    /// `a` sits at [`SummaryTree::slot`]`(a, l)`.
    pub fn hist(&self) -> &'a [f64] {
        self.tree.hist_row(self.id)
    }

    /// The intent: one descriptor set per attribute, the labels whose
    /// histogram slot exceeds [`INTENT_THRESHOLD`].
    pub fn intent(&self) -> &'a [DescriptorSet] {
        self.tree.intent_row(self.id)
    }

    /// True when every label of `key` is in the intent.
    pub fn covers_cell(&self, key: &[LabelId]) -> bool {
        self.intent().iter().zip(key).all(|(s, &l)| s.contains(l))
    }

    /// For a leaf, the grid cell it stands for.
    pub fn cell(&self) -> Option<&'a [LabelId]> {
        let c = self.links().cell;
        (c != NONE).then(|| self.tree.cell_key(c as usize))
    }

    /// For a leaf, its cell's content, read without a lookup.
    pub fn leaf_cell(&self) -> Option<Cell<'a>> {
        let c = self.links().cell;
        (c != NONE).then_some(Cell {
            tree: self.tree,
            cell: c as usize,
        })
    }

    /// True when the node is a leaf (stands for one cell).
    pub fn is_leaf(&self) -> bool {
        self.links().cell != NONE
    }

    /// False once the node was pruned or dissolved.
    pub fn is_alive(&self) -> bool {
        self.tree.alive[self.id]
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("parent", &self.parent())
            .field("children", &self.children().collect::<Vec<_>>())
            .field("count", &self.count())
            .field("cell", &self.cell())
            .field("alive", &self.is_alive())
            .finish()
    }
}

/// The children of a node, in order: a walk along the sibling links.
#[derive(Debug, Clone)]
pub struct Children<'a> {
    links: &'a [Links],
    front: u32,
    back: u32,
    left: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let id = self.front;
        self.front = self.links[id as usize].next_sibling;
        Some(NodeId(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let id = self.back;
        self.back = self.links[id as usize].prev_sibling;
        Some(NodeId(id))
    }
}

/// One cell of a [`SummaryTree`], as [`SummaryTree::cells`] and
/// [`SummaryTree::cell`] lend it: a view of its rows in the cell
/// columns.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    tree: &'a SummaryTree,
    cell: usize,
}

impl<'a> Cell<'a> {
    /// The cell's grid coordinate, one label per attribute.
    pub fn key(&self) -> &'a [LabelId] {
        self.tree.cell_key(self.cell)
    }

    /// The leaf standing for the cell.
    pub fn leaf(&self) -> NodeId {
        NodeId(self.tree.cell_leaf[self.cell])
    }

    /// Sum of the record weights mapped into the cell (the "tuple count"
    /// column of Table 2).
    pub fn weight(&self) -> f64 {
        self.tree.cell_weight[self.cell]
    }

    /// Each contributing source with its weight, in source-id order (the
    /// cell's peer-extent).
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, f64)> + 'a {
        self.tree.cell_sources[self.cell].iter().copied()
    }

    /// Number of contributing sources.
    pub fn source_count(&self) -> usize {
        self.tree.cell_sources[self.cell].len()
    }

    /// `source`'s weight in the cell, if it contributes.
    pub fn source_weight(&self, source: SourceId) -> Option<f64> {
        let row = &self.tree.cell_sources[self.cell];
        let i = row.binary_search_by_key(&source, |&(s, _)| s).ok()?;
        Some(row[i].1)
    }

    /// Per-attribute maximum membership grade observed in the cell.
    pub fn max_grades(&self) -> &'a [Grade] {
        let a = self.tree.arity();
        &self.tree.cell_grades[self.cell * a..(self.cell + 1) * a]
    }

    /// Per *BK attribute* statistics of the raw numeric values mapped into
    /// the cell (entries for categorical attributes stay empty).
    pub fn stats(&self) -> &'a [AttributeStats] {
        let a = self.tree.arity();
        &self.tree.cell_stats[self.cell * a..(self.cell + 1) * a]
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("key", &self.key())
            .field("leaf", &self.leaf())
            .field("weight", &self.weight())
            .field("sources", &self.tree.cell_sources[self.cell])
            .field("max_grades", &self.max_grades())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One non-zero slot of a histogram delta: its flat index, its attribute
/// and its weight.
#[derive(Debug, Clone, Copy)]
struct SlotDelta {
    slot: usize,
    attr: usize,
    weight: f64,
}

/// How one [`Contribution`] updates its cell's per-attribute statistics.
#[derive(Debug, Clone, Copy)]
pub enum StatsUpdate<'a> {
    /// The contribution carries no statistics.
    None,
    /// Raw numeric values, one per BK attribute, pushed at the
    /// contribution's weight (local summarization).
    Raw(&'a [Option<f64>]),
    /// Already-folded statistics, merged in (merging hierarchies, where
    /// raw values are no longer available): `stats[i]` is attribute
    /// `attrs[i]`'s, and attributes left out carry none.
    Merge(&'a [u16], &'a [AttributeStats]),
}

/// One source's contribution to a grid cell, as folded by
/// [`SummaryTree::fold_into_cell`].
#[derive(Debug, Clone, Copy)]
pub struct Contribution<'a> {
    /// The contributing source.
    pub source: SourceId,
    /// Weight added to the cell. A non-positive weight adds nothing; only
    /// its statistics are folded.
    pub weight: f64,
    /// Per-attribute membership grades.
    pub grades: &'a [Grade],
    /// The statistics update.
    pub stats: StatsUpdate<'a>,
}

/// A hierarchy of summaries over a fixed Background Knowledge, stored as
/// the flat arena the module docs describe.
#[derive(Debug, Clone)]
pub struct SummaryTree {
    /// Name of the BK this tree was built against (merge compatibility),
    /// shared with the flat forms flattened out of the tree.
    bk_name: Arc<str>,
    /// Labels per attribute (histogram dimensions), shared likewise.
    label_counts: Arc<[usize]>,
    /// `offsets[a]` = flat histogram index of attribute `a`'s first label;
    /// the last entry is the histogram length.
    offsets: Vec<usize>,
    /// Histogram slots per node: the histogram slab's stride.
    slots: usize,
    // ---- node columns, indexed by node id ----
    links: Vec<Links>,
    count: Vec<f64>,
    alive: Vec<bool>,
    /// One row of `slots` weights per node.
    hist: Vec<f64>,
    /// One row of `arity` descriptor sets per node.
    intent: Vec<DescriptorSet>,
    // ---- cell columns, indexed by cell id ----
    /// One row of `arity` labels per cell: its key.
    cell_labels: Vec<LabelId>,
    cell_leaf: Vec<u32>,
    cell_weight: Vec<f64>,
    /// One row of `arity` max grades per cell.
    cell_grades: Vec<Grade>,
    /// One row of `arity` statistics per cell.
    cell_stats: Vec<AttributeStats>,
    /// Per-source weights, one row per cell sorted by source. Rows past
    /// the cell count are spare: [`SummaryTree::clear`] keeps them, and
    /// a new cell takes the next one, emptied.
    cell_sources: Vec<Vec<(SourceId, f64)>>,
    /// The live cells' ids, sorted by key.
    index: Vec<u32>,
    /// The moved histogram of [`SummaryTree::reparent`] and the key
    /// slots of a removal, reused from call to call.
    delta: Vec<SlotDelta>,
}

impl SummaryTree {
    /// Creates an empty tree for a BK with the given per-attribute label
    /// counts.
    pub fn new(bk_name: impl Into<Arc<str>>, label_counts: impl Into<Arc<[usize]>>) -> Self {
        let label_counts = label_counts.into();
        let arity = label_counts.len();
        let mut offsets = Vec::with_capacity(arity + 1);
        offsets.push(0);
        for &n in label_counts.iter() {
            offsets.push(offsets[offsets.len() - 1] + n);
        }
        let slots = offsets[arity];
        let mut tree = Self {
            bk_name: bk_name.into(),
            label_counts,
            offsets,
            slots,
            links: Vec::new(),
            count: Vec::new(),
            alive: Vec::new(),
            hist: Vec::new(),
            intent: Vec::new(),
            cell_labels: Vec::new(),
            cell_leaf: Vec::new(),
            cell_weight: Vec::new(),
            cell_grades: Vec::new(),
            cell_stats: Vec::new(),
            cell_sources: Vec::new(),
            index: Vec::new(),
            delta: Vec::new(),
        };
        tree.push_node(NONE, NONE);
        tree
    }

    /// Empties the tree to a lone root over the same BK, keeping every
    /// column's capacity: building the next tree in it allocates nothing
    /// until it outgrows the largest one built so far.
    pub fn clear(&mut self) {
        self.links.clear();
        self.count.clear();
        self.alive.clear();
        self.hist.clear();
        self.intent.clear();
        self.cell_labels.clear();
        self.cell_leaf.clear();
        self.cell_weight.clear();
        self.cell_grades.clear();
        self.cell_stats.clear();
        self.index.clear();
        self.push_node(NONE, NONE);
    }

    /// Releases the arena's spare capacity, spare per-source rows
    /// included, for a tree kept resident after its build. The next
    /// build into the arena grows it again.
    pub fn shrink_to_fit(&mut self) {
        self.cell_sources.truncate(self.cell_leaf.len());
        for row in &mut self.cell_sources {
            row.shrink_to_fit();
        }
        self.cell_sources.shrink_to_fit();
        self.links.shrink_to_fit();
        self.count.shrink_to_fit();
        self.alive.shrink_to_fit();
        self.hist.shrink_to_fit();
        self.intent.shrink_to_fit();
        self.cell_labels.shrink_to_fit();
        self.cell_leaf.shrink_to_fit();
        self.cell_weight.shrink_to_fit();
        self.cell_grades.shrink_to_fit();
        self.cell_stats.shrink_to_fit();
        self.index.shrink_to_fit();
        self.delta = Vec::new();
    }

    /// The BK name the tree is bound to.
    pub fn bk_name(&self) -> &str {
        &self.bk_name
    }

    /// Per-attribute label counts.
    pub fn label_counts(&self) -> &[usize] {
        &self.label_counts
    }

    /// The BK name and label counts as the tree holds them, for flat
    /// forms to share rather than copy.
    pub(crate) fn shared_bk(&self) -> (&Arc<str>, &Arc<[usize]>) {
        (&self.bk_name, &self.label_counts)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.label_counts.len()
    }

    /// Index of label `label` of attribute `attr` in a node's flat
    /// [`Node::hist`].
    pub fn slot(&self, attr: usize, label: LabelId) -> usize {
        self.offsets[attr] + label.index()
    }

    /// The flat histogram's attribute boundaries: attribute `a` spans
    /// `offsets[a]..offsets[a + 1]`.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(id.idx() < self.links.len(), "no node {id:?}");
        Node {
            tree: self,
            id: id.idx(),
        }
    }

    fn hist_row(&self, id: usize) -> &[f64] {
        &self.hist[id * self.slots..(id + 1) * self.slots]
    }

    fn intent_row(&self, id: usize) -> &[DescriptorSet] {
        let a = self.arity();
        &self.intent[id * a..(id + 1) * a]
    }

    fn cell_key(&self, cell: usize) -> &[LabelId] {
        let a = self.arity();
        &self.cell_labels[cell * a..(cell + 1) * a]
    }

    /// Number of live nodes.
    pub fn live_node_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Number of live leaves (= number of distinct cells).
    pub fn leaf_count(&self) -> usize {
        self.index.len()
    }

    /// Total tuple weight in the tree.
    pub fn total_count(&self) -> f64 {
        self.count[0]
    }

    /// Depth of the tree (root = 0; empty tree = 0).
    pub fn depth(&self) -> usize {
        fn walk(t: &SummaryTree, id: NodeId) -> usize {
            t.node(id)
                .children()
                .map(|c| 1 + walk(t, c))
                .max()
                .unwrap_or(0)
        }
        walk(self, self.root())
    }

    /// `(B, d)`: average branching factor over internal nodes and average
    /// leaf depth — the parameters of §6.1.1's storage model
    /// `C_m = k·(B^{d+1} − 1)/(B − 1)`.
    pub fn branching_stats(&self) -> (f64, f64) {
        let mut internal = 0usize;
        let mut child_sum = 0usize;
        let mut leaf_depth_sum = 0usize;
        let mut leaves = 0usize;
        let mut stack = vec![(self.root(), 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let n = self.node(id);
            if n.is_leaf() {
                leaves += 1;
                leaf_depth_sum += depth;
            } else {
                internal += 1;
                child_sum += n.child_count();
                stack.extend(n.children().map(|c| (c, depth + 1)));
            }
        }
        let b = if internal == 0 {
            0.0
        } else {
            child_sum as f64 / internal as f64
        };
        let d = if leaves == 0 {
            0.0
        } else {
            leaf_depth_sum as f64 / leaves as f64
        };
        (b, d)
    }

    /// §6.1.1's average-case storage estimate in *nodes*:
    /// `(B^{d+1} − 1)/(B − 1)` for the tree's measured `(B, d)`. The
    /// actual node count should sit in the same ballpark — asserted by
    /// the `wire_codec` bench and the storage tests.
    pub fn storage_model_nodes(&self) -> f64 {
        let (b, d) = self.branching_stats();
        if b <= 1.0 {
            return self.live_node_count() as f64;
        }
        (b.powf(d + 1.0) - 1.0) / (b - 1.0)
    }

    /// The cells, in key order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = Cell<'_>> + '_ {
        self.index.iter().map(|&c| Cell {
            tree: self,
            cell: c as usize,
        })
    }

    /// The cell with these labels, if present.
    pub fn cell(&self, key: &[LabelId]) -> Option<Cell<'_>> {
        let cell = self.find(key).ok()?;
        Some(Cell { tree: self, cell })
    }

    /// The leaf standing for `key`, if the cell is present.
    pub fn leaf_of(&self, key: &[LabelId]) -> Option<NodeId> {
        self.cell(key).map(|c| c.leaf())
    }

    /// The live cell with labels `key` (its cell id), or the index
    /// position a cell with these labels would take.
    fn find(&self, key: &[LabelId]) -> Result<usize, usize> {
        self.index
            .binary_search_by(|&c| self.cell_key(c as usize).cmp(key))
            .map(|pos| self.index[pos] as usize)
    }

    /// Peer-extent of a summary node (Definition 3): the union of sources
    /// of every cell below it.
    pub fn peer_extent(&self, id: NodeId) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = Vec::new();
        self.for_each_leaf(id, |key, _| {
            if let Some(c) = self.cell(key) {
                out.extend(c.sources().map(|(s, _)| s));
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All sources present anywhere in the tree (Definition 4's partner
    /// set `P_S`).
    pub fn all_sources(&self) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = self
            .cells()
            .flat_map(|c| c.sources().map(|(s, _)| s))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Aggregated statistics of a node: merged stats of every cell below.
    pub fn stats_of(&self, id: NodeId) -> Vec<AttributeStats> {
        let mut acc = vec![AttributeStats::new(); self.arity()];
        self.for_each_leaf(id, |key, _| {
            if let Some(c) = self.cell(key) {
                for (a, s) in acc.iter_mut().zip(c.stats()) {
                    a.merge(s);
                }
            }
        });
        acc
    }

    /// Visits every live leaf below `id` (inclusive), passing its cell key
    /// and node id.
    pub fn for_each_leaf<'a, F: FnMut(&'a [LabelId], NodeId)>(&'a self, id: NodeId, mut f: F) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if !node.is_alive() {
                continue;
            }
            match node.cell() {
                Some(key) => f(key, n),
                None => stack.extend(node.children()),
            }
        }
    }

    // ---- structural primitives (used by the engine) ----

    /// Appends a node with zeroed rows under `parent` (or as the root when
    /// `parent` is [`NONE`]), standing for `cell` ([`NONE`] for an
    /// internal node).
    fn push_node(&mut self, parent: u32, cell: u32) -> usize {
        let id = self.links.len();
        self.links.push(Links {
            parent: NONE,
            first_child: NONE,
            last_child: NONE,
            prev_sibling: NONE,
            next_sibling: NONE,
            children: 0,
            cell,
        });
        self.count.push(0.0);
        self.alive.push(true);
        self.hist.resize(self.hist.len() + self.slots, 0.0);
        let arity = self.arity();
        self.intent
            .resize(self.intent.len() + arity, DescriptorSet::EMPTY);
        if parent != NONE {
            self.append_child(parent as usize, id);
        }
        id
    }

    /// Links the detached node `child` as `parent`'s last child.
    fn append_child(&mut self, parent: usize, child: usize) {
        let last = self.links[parent].last_child;
        let c = &mut self.links[child];
        c.parent = parent as u32;
        c.prev_sibling = last;
        c.next_sibling = NONE;
        match last {
            NONE => self.links[parent].first_child = child as u32,
            _ => self.links[last as usize].next_sibling = child as u32,
        }
        let p = &mut self.links[parent];
        p.last_child = child as u32;
        p.children += 1;
    }

    /// Unlinks `child` from its parent's children; its parent link stays.
    fn unlink(&mut self, child: usize) {
        let Links {
            parent,
            prev_sibling: prev,
            next_sibling: next,
            ..
        } = self.links[child];
        let parent = parent as usize;
        match prev {
            NONE => self.links[parent].first_child = next,
            _ => self.links[prev as usize].next_sibling = next,
        }
        match next {
            NONE => self.links[parent].last_child = prev,
            _ => self.links[next as usize].prev_sibling = prev,
        }
        self.links[parent].children -= 1;
        let c = &mut self.links[child];
        c.prev_sibling = NONE;
        c.next_sibling = NONE;
    }

    /// Puts `id`'s children, in order, in `id`'s place among its parent's
    /// children, and kills `id`.
    fn promote_children(&mut self, id: usize) {
        let l = self.links[id];
        let mut c = l.first_child;
        while c != NONE {
            self.links[c as usize].parent = l.parent;
            c = self.links[c as usize].next_sibling;
        }
        if l.first_child == NONE {
            self.unlink(id);
        } else {
            let parent = l.parent as usize;
            match l.prev_sibling {
                NONE => self.links[parent].first_child = l.first_child,
                prev => self.links[prev as usize].next_sibling = l.first_child,
            }
            self.links[l.first_child as usize].prev_sibling = l.prev_sibling;
            match l.next_sibling {
                NONE => self.links[parent].last_child = l.last_child,
                next => self.links[next as usize].prev_sibling = l.last_child,
            }
            self.links[l.last_child as usize].next_sibling = l.next_sibling;
            self.links[parent].children += l.children - 1;
        }
        let dead = &mut self.links[id];
        dead.first_child = NONE;
        dead.last_child = NONE;
        dead.prev_sibling = NONE;
        dead.next_sibling = NONE;
        dead.children = 0;
        self.alive[id] = false;
    }

    /// Creates an empty leaf for `key` under `parent` and registers the
    /// cell. The caller then adds weight via [`SummaryTree::add_to_cell`].
    pub fn create_leaf(&mut self, parent: NodeId, key: CellKey) -> NodeId {
        self.attach_leaf(parent, &key, &[])
    }

    /// Creates the leaf for cell `labels` under `parent`, registers the
    /// cell and folds `run` into it as [`SummaryTree::fold_into_cell`]
    /// would.
    pub(crate) fn attach_leaf(
        &mut self,
        parent: NodeId,
        labels: &[LabelId],
        run: &[Contribution<'_>],
    ) -> NodeId {
        debug_assert!(!self.node(parent).is_leaf(), "cannot parent under a leaf");
        let arity = self.arity();
        assert_eq!(labels.len(), arity, "cell key arity");
        let pos = self.find(labels).expect_err("cell already present");
        let cell = self.cell_leaf.len();
        let leaf = self.push_node(parent.0, cell as u32);
        for (set, &l) in self.intent[leaf * arity..].iter_mut().zip(labels) {
            *set = DescriptorSet::singleton(l);
        }
        self.cell_labels.extend_from_slice(labels);
        self.cell_leaf.push(leaf as u32);
        self.cell_weight.push(0.0);
        self.cell_grades.resize(self.cell_grades.len() + arity, 0.0);
        self.cell_stats
            .resize(self.cell_stats.len() + arity, AttributeStats::new());
        match self.cell_sources.get_mut(cell) {
            Some(row) => row.clear(),
            None => self.cell_sources.push(Vec::new()),
        }
        self.index.insert(pos, cell as u32);
        if !run.is_empty() {
            self.fold(cell, run);
        }
        NodeId(leaf as u32)
    }

    /// Creates an empty internal node under `parent`.
    pub fn create_internal(&mut self, parent: NodeId) -> NodeId {
        debug_assert!(!self.node(parent).is_leaf());
        NodeId(self.push_node(parent.0, NONE) as u32)
    }

    /// Moves `child` under `new_parent`, transferring its aggregates along
    /// both paths (up to their common ancestor the net change is zero, so
    /// we simply subtract along the old path and add along the new one).
    pub fn reparent(&mut self, child: NodeId, new_parent: NodeId) {
        let old_parent = self.node(child).parent().expect("cannot reparent the root");
        if old_parent == new_parent {
            return;
        }
        // Detach.
        self.unlink(child.idx());
        // Subtract aggregates along the old ancestor chain, add them along
        // the new one.
        let count = self.count[child.idx()];
        let mut delta = std::mem::take(&mut self.delta);
        self.nonzero_slots(child.idx(), &mut delta);
        let mut cur = Some(old_parent);
        while let Some(id) = cur {
            self.apply_delta(id, -count, &delta, -1.0);
            cur = self.node(id).parent();
        }
        // Attach.
        self.append_child(new_parent.idx(), child.idx());
        let mut cur = Some(new_parent);
        while let Some(id) = cur {
            self.apply_delta(id, count, &delta, 1.0);
            cur = self.node(id).parent();
        }
        self.delta = delta;
    }

    /// Applies a signed count delta and the histogram delta `delta` to one
    /// node, and refreshes the touched slots' intent bits. `sign` tells
    /// whether `delta` is added or subtracted (+1 / −1).
    ///
    /// `delta` lists the non-zero slots of the histogram moved. A zero slot
    /// would leave its (non-negative) weight as it is, and its intent bit
    /// already equals its support (the intent-support invariant; see the
    /// module docs), so it is not visited.
    fn apply_delta(&mut self, id: NodeId, dcount: f64, delta: &[SlotDelta], sign: f64) {
        let (n, slots, arity) = (id.idx(), self.slots, self.arity());
        self.count[n] = (self.count[n] + dcount).max(0.0);
        for d in delta {
            let slot = &mut self.hist[n * slots + d.slot];
            *slot = (*slot + sign * d.weight).max(0.0);
            let label = LabelId((d.slot - self.offsets[d.attr]) as u16);
            let set = &mut self.intent[n * arity + d.attr];
            if *slot > INTENT_THRESHOLD {
                set.insert(label);
            } else {
                set.remove(label);
            }
        }
    }

    /// Fills `delta` with the non-zero slots of node `id`'s histogram, in
    /// slot order.
    fn nonzero_slots(&self, id: usize, delta: &mut Vec<SlotDelta>) {
        delta.clear();
        let hist = self.hist_row(id);
        for (attr, span) in self.offsets.windows(2).enumerate() {
            for (slot, &weight) in hist.iter().enumerate().take(span[1]).skip(span[0]) {
                if weight != 0.0 {
                    delta.push(SlotDelta { slot, attr, weight });
                }
            }
        }
    }

    /// Fills `delta` with the key's slots, each holding `weight`.
    fn key_slots(&self, key: &[LabelId], weight: f64, delta: &mut Vec<SlotDelta>) {
        delta.clear();
        delta.extend(key.iter().enumerate().map(|(attr, &l)| SlotDelta {
            slot: self.slot(attr, l),
            attr,
            weight,
        }));
    }

    /// Adds `weight` of cell `key` from `source`, updating the leaf's
    /// content and aggregates along the path to the root. Optional raw
    /// numeric values update the cell statistics. A non-positive weight
    /// adds nothing.
    ///
    /// The one-contribution case of [`SummaryTree::fold_into_cell`]; the
    /// cell must already have a leaf (see [`SummaryTree::create_leaf`]).
    pub fn add_to_cell(
        &mut self,
        key: &[LabelId],
        source: SourceId,
        weight: f64,
        grades: &[Grade],
        raw_values: Option<&[Option<f64>]>,
    ) {
        let stats = raw_values.map_or(StatsUpdate::None, StatsUpdate::Raw);
        self.fold_into_cell(
            key,
            &[Contribution {
                source,
                weight,
                grades,
                stats,
            }],
        );
    }

    /// Folds a run of contributions into cell `key`, in order. Each
    /// positive weight is added to the cell's content and to every node
    /// on the leaf-to-root path; every contribution's statistics are
    /// folded into the cell's.
    ///
    /// Bit for bit the same as adding the contributions one at a time:
    /// each node receives the same additions in the same order. Only the
    /// key's histogram slots and their intent bits are touched — every
    /// other slot would only receive `+0.0`, and its intent bit already
    /// equals its support (the intent-support invariant; see the module
    /// docs).
    ///
    /// The cell must already have a leaf (see [`SummaryTree::create_leaf`]).
    pub fn fold_into_cell(&mut self, key: &[LabelId], contributions: &[Contribution<'_>]) {
        let found = self.fold_into_existing(key, contributions);
        assert!(found, "cell registered");
    }

    /// [`SummaryTree::fold_into_cell`] for the cell with these labels, if
    /// it has a leaf; returns whether it had one. The cell is looked up
    /// once.
    pub(crate) fn fold_into_existing(
        &mut self,
        labels: &[LabelId],
        contributions: &[Contribution<'_>],
    ) -> bool {
        let Ok(cell) = self.find(labels) else {
            return false;
        };
        self.fold(cell, contributions);
        true
    }

    /// The body of [`SummaryTree::fold_into_cell`], on the cell's id.
    fn fold(&mut self, cell: usize, contributions: &[Contribution<'_>]) {
        let (arity, slots) = (self.arity(), self.slots);
        for c in contributions {
            if c.weight > 0.0 {
                self.add_content(cell, c.source, c.weight, c.grades);
            }
            let stats = &mut self.cell_stats[cell * arity..(cell + 1) * arity];
            match c.stats {
                StatsUpdate::None => {}
                StatsUpdate::Raw(raw) => {
                    for (s, v) in stats.iter_mut().zip(raw) {
                        if let Some(x) = v {
                            s.push_weighted(*x, c.weight);
                        }
                    }
                }
                StatsUpdate::Merge(attrs, merged) => {
                    for (&attr, other) in attrs.iter().zip(merged) {
                        stats[usize::from(attr)].merge(other);
                    }
                }
            }
        }
        let weights = || contributions.iter().map(|c| c.weight).filter(|&w| w > 0.0);
        let labels = &self.cell_labels[cell * arity..(cell + 1) * arity];
        let mut cur = self.cell_leaf[cell];
        while cur != NONE {
            let n = cur as usize;
            let hist = &mut self.hist[n * slots..(n + 1) * slots];
            // The count and each key slot add the positive weights in run
            // order. The sums are independent, so one pass over the run
            // feeds them all without reordering any of them.
            for w in weights() {
                self.count[n] = (self.count[n] + w).max(0.0);
                for (&offset, label) in self.offsets.iter().zip(labels) {
                    let slot = &mut hist[offset + label.index()];
                    *slot = (*slot + w).max(0.0);
                }
            }
            let sets = &mut self.intent[n * arity..(n + 1) * arity];
            for ((set, &offset), &label) in sets.iter_mut().zip(&self.offsets).zip(labels) {
                if hist[offset + label.index()] > INTENT_THRESHOLD {
                    set.insert(label);
                } else {
                    set.remove(label);
                }
            }
            cur = self.links[n].parent;
        }
    }

    /// Adds `source`'s `weight` to the cell's weight and per-source
    /// weights, and raises its max grades to `grades`.
    fn add_content(&mut self, cell: usize, source: SourceId, weight: f64, grades: &[Grade]) {
        self.cell_weight[cell] += weight;
        let row = &mut self.cell_sources[cell];
        match row.binary_search_by_key(&source, |&(s, _)| s) {
            Ok(i) => row[i].1 += weight,
            Err(i) => row.insert(i, (source, weight)),
        }
        let arity = self.arity();
        let max = &mut self.cell_grades[cell * arity..(cell + 1) * arity];
        for (slot, &g) in max.iter_mut().zip(grades) {
            if g > *slot {
                *slot = g;
            }
        }
    }

    /// Merges externally-computed statistics into a cell (used when
    /// merging two hierarchies, where raw values are no longer available).
    pub fn merge_cell_stats(&mut self, key: &[LabelId], stats: &[AttributeStats]) {
        if let Ok(cell) = self.find(key) {
            let arity = self.arity();
            let own = &mut self.cell_stats[cell * arity..(cell + 1) * arity];
            for (own, other) in own.iter_mut().zip(stats) {
                own.merge(other);
            }
        }
    }

    /// Removes up to `weight` of `source`'s contribution to cell `key`;
    /// prunes the leaf if it drains. Returns the removed weight.
    ///
    /// Used by push-mode deletes/updates: the before-image maps to cells
    /// whose weights are retracted.
    pub fn remove_from_cell(&mut self, key: &[LabelId], source: SourceId, weight: f64) -> f64 {
        let Ok(cell) = self.find(key) else {
            return 0.0;
        };
        let row = &mut self.cell_sources[cell];
        let Ok(i) = row.binary_search_by_key(&source, |&(s, _)| s) else {
            return 0.0;
        };
        let w = &mut row[i].1;
        let removed = weight.min(*w);
        *w -= removed;
        if *w <= 1e-12 {
            row.remove(i);
        }
        self.retract(cell, removed)
    }

    /// Removes every contribution of `source` from cell `key`; prunes the
    /// leaf if it drains. Returns the removed weight.
    pub fn remove_source_from_cell(&mut self, key: &[LabelId], source: SourceId) -> f64 {
        match self.find(key) {
            Ok(cell) => self.remove_source_from(cell, source),
            Err(_) => 0.0,
        }
    }

    /// [`SummaryTree::remove_source_from_cell`] on a cell id.
    fn remove_source_from(&mut self, cell: usize, source: SourceId) -> f64 {
        let row = &mut self.cell_sources[cell];
        let removed = match row.binary_search_by_key(&source, |&(s, _)| s) {
            Ok(i) => row.remove(i).1,
            Err(_) => 0.0,
        };
        self.retract(cell, removed)
    }

    /// Takes `removed` (already taken out of the cell's per-source
    /// weights) off the cell's weight and the leaf-to-root path; drops
    /// the cell and prunes its leaf if it drained. Returns `removed`.
    fn retract(&mut self, cell: usize, removed: f64) -> f64 {
        self.cell_weight[cell] = (self.cell_weight[cell] - removed).max(0.0);
        if removed == 0.0 {
            return 0.0;
        }
        let drained = self.cell_weight[cell] <= 1e-12;
        let leaf = NodeId(self.cell_leaf[cell]);
        let mut delta = std::mem::take(&mut self.delta);
        self.key_slots(self.cell_key(cell), removed, &mut delta);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            self.apply_delta(id, -removed, &delta, -1.0);
            cur = self.node(id).parent();
        }
        self.delta = delta;
        if drained {
            let key = self.cell_key(cell);
            let pos = (self.index)
                .binary_search_by(|&c| self.cell_key(c as usize).cmp(key))
                .expect("live cell indexed");
            self.index.remove(pos);
            self.kill_and_prune(leaf);
        }
        removed
    }

    /// Removes every contribution of `source` across the whole tree —
    /// what reconciliation effectively does for a departed partner when
    /// rebuilding is not desired (§4.3's first alternative keeps the
    /// descriptions; this primitive implements the second).
    pub fn remove_source(&mut self, source: SourceId) -> f64 {
        let cells: Vec<usize> = self
            .cells()
            .filter(|c| c.source_weight(source).is_some())
            .map(|c| c.cell)
            .collect();
        cells
            .into_iter()
            .map(|c| self.remove_source_from(c, source))
            .sum()
    }

    /// Tombstones a node and prunes now-useless ancestors: empty internal
    /// nodes die; internal nodes left with a single child are collapsed
    /// (the child is spliced up), keeping the tree compact.
    fn kill_and_prune(&mut self, id: NodeId) {
        self.alive[id.idx()] = false;
        if let Some(p) = self.node(id).parent() {
            self.unlink(id.idx());
            self.prune_upwards(p);
        }
    }

    fn prune_upwards(&mut self, id: NodeId) {
        let node = self.node(id);
        if id == self.root() || node.is_leaf() || !node.is_alive() {
            return;
        }
        match node.child_count() {
            0 => self.kill_and_prune(id),
            // Splice the only child into the grandparent.
            1 => self.promote_children(id.idx()),
            _ => {}
        }
    }

    /// Splits `id` (an internal, non-root node): its children are promoted
    /// into its parent and `id` dies. This is the Cobweb *split* operator.
    pub fn split_node(&mut self, id: NodeId) {
        assert!(id != self.root(), "cannot split the root");
        assert!(!self.node(id).is_leaf(), "cannot split a leaf");
        self.promote_children(id.idx());
        // Aggregates of parent are unchanged: same leaves below.
    }

    /// Merges two children of `parent` under a fresh internal host and
    /// returns the host — the Cobweb *merge* operator.
    pub fn merge_children(&mut self, parent: NodeId, a: NodeId, b: NodeId) -> NodeId {
        assert_ne!(a, b);
        let host = self.create_internal(parent);
        self.reparent(a, host);
        self.reparent(b, host);
        host
    }

    /// Verifies every structural invariant, the intent-support and
    /// leaf-support ones of the module docs included; panics with a
    /// description on violation. Used heavily by tests and property
    /// tests.
    pub fn check_invariants(&self) {
        let (arity, nodes, cells) = (self.arity(), self.links.len(), self.cell_leaf.len());
        // Column lengths and slab strides.
        assert_eq!(self.slots, self.offsets[arity], "histogram stride");
        assert_eq!(
            (self.count.len(), self.alive.len()),
            (nodes, nodes),
            "node column lengths"
        );
        assert_eq!(self.hist.len(), nodes * self.slots, "histogram slab stride");
        assert_eq!(self.intent.len(), nodes * arity, "intent slab stride");
        assert_eq!(self.cell_labels.len(), cells * arity, "label slab stride");
        assert_eq!(self.cell_grades.len(), cells * arity, "grade slab stride");
        assert_eq!(
            self.cell_stats.len(),
            cells * arity,
            "statistics slab stride"
        );
        assert_eq!(self.cell_weight.len(), cells, "cell column lengths");
        assert!(self.cell_sources.len() >= cells, "per-source rows");
        // Index: strictly sorted by key, and every indexed cell stands on
        // a live leaf that stands for it.
        for pair in self.index.windows(2) {
            assert_eq!(
                self.cell_key(pair[0] as usize)
                    .cmp(self.cell_key(pair[1] as usize)),
                Ordering::Less,
                "cell index not sorted"
            );
        }
        for cell in self.cells() {
            let key = cell.key();
            let leaf = self.node(cell.leaf());
            assert!(leaf.is_alive(), "cell {key:?} points at dead leaf");
            assert_eq!(
                self.links[cell.leaf().idx()].cell as usize,
                cell.cell,
                "leaf/cell id mismatch at {key:?}"
            );
            assert!(
                (leaf.count() - cell.weight()).abs() < 1e-6,
                "leaf count {} != cell weight {}",
                leaf.count(),
                cell.weight()
            );
            let sources = &self.cell_sources[cell.cell];
            assert!(
                sources.windows(2).all(|p| p[0].0 < p[1].0),
                "per-source weights of {key:?} not sorted by source"
            );
        }
        // Tree structure + aggregates.
        assert_eq!(self.links[0].parent, NONE, "root has a parent");
        let mut seen_leaves = 0usize;
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            assert!(node.is_alive(), "dead node {id:?} reachable");
            // Sibling links: both directions agree with the child count.
            let l = &self.links[id.idx()];
            let walk = |mut c: u32, step: fn(&Links) -> u32| {
                let mut out = Vec::new();
                while c != NONE {
                    out.push(NodeId(c));
                    assert!(out.len() <= nodes, "sibling cycle at {id:?}");
                    c = step(&self.links[c as usize]);
                }
                out
            };
            let forward = walk(l.first_child, |l| l.next_sibling);
            let mut backward = walk(l.last_child, |l| l.prev_sibling);
            backward.reverse();
            assert_eq!(forward, backward, "sibling links broken at {id:?}");
            assert_eq!(forward.len(), l.children as usize, "child count at {id:?}");
            // Intent bits are exactly the histogram support: the sparse
            // path update of `fold_into_cell` never revisits other slots.
            for (attr, span) in self.offsets.windows(2).enumerate() {
                for (l, &w) in node.hist()[span[0]..span[1]].iter().enumerate() {
                    assert_eq!(
                        node.intent()[attr].contains(LabelId(l as u16)),
                        w > INTENT_THRESHOLD,
                        "intent bit ({attr}, {l}) != histogram support at {id:?}"
                    );
                }
            }
            if let Some(key) = node.cell() {
                assert_eq!(node.child_count(), 0, "leaf with children");
                assert_eq!(
                    self.find(key).ok(),
                    Some(l.cell as usize),
                    "leaf {id:?} for an unindexed cell"
                );
                assert_eq!(
                    self.cell_leaf[l.cell as usize], id.0,
                    "cell/leaf id mismatch"
                );
                // A leaf's weight sits in its key's slots and nowhere else;
                // a wrong flat offset would move it.
                let key_slots: Vec<usize> = key
                    .iter()
                    .enumerate()
                    .map(|(a, &l)| self.slot(a, l))
                    .collect();
                for (s, &w) in node.hist().iter().enumerate() {
                    if key_slots.contains(&s) {
                        assert!(
                            (w - node.count()).abs() < 1e-6,
                            "leaf slot {s} holds {w}, not the leaf count {} at {id:?}",
                            node.count()
                        );
                    } else {
                        assert_eq!(w, 0.0, "leaf support outside its key: slot {s} at {id:?}");
                    }
                }
                seen_leaves += 1;
            } else {
                let mut count = 0.0;
                let mut intent = Intent::empty(arity);
                for c in node.children() {
                    let child = self.node(c);
                    assert_eq!(child.parent(), Some(id), "parent link broken");
                    count += child.count();
                    intent.union_with(&Intent::from(child.intent()));
                    stack.push(c);
                }
                assert!(
                    (node.count() - count).abs() < 1e-6,
                    "count mismatch at {id:?}: {} vs children {}",
                    node.count(),
                    count
                );
                if id != self.root() || node.child_count() != 0 {
                    assert_eq!(
                        node.intent(),
                        &intent.sets[..],
                        "intent != union of children at {id:?}"
                    );
                }
                // Histogram totals must match the count on every attribute.
                for span in self.offsets.windows(2) {
                    let total: f64 = node.hist()[span[0]..span[1]].iter().sum();
                    assert!(
                        (total - node.count()).abs() < 1e-6,
                        "hist mass {total} != count {} at {id:?}",
                        node.count()
                    );
                }
                // No internal node (except a root that still has < 2
                // leaves overall) may have exactly one child.
                if id != self.root() {
                    assert!(node.child_count() != 1, "unary internal node {id:?}");
                }
            }
        }
        assert_eq!(
            seen_leaves,
            self.index.len(),
            "unreachable or duplicate leaves"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(labels: &[u16]) -> CellKey {
        CellKey(labels.iter().map(|&l| LabelId(l)).collect())
    }

    fn tree() -> SummaryTree {
        SummaryTree::new("test-bk", vec![3, 4])
    }

    #[test]
    fn empty_tree() {
        let t = tree();
        assert_eq!(t.live_node_count(), 1);
        assert_eq!(t.leaf_count(), 0);
        assert_eq!(t.total_count(), 0.0);
        assert_eq!(t.depth(), 0);
        t.check_invariants();
    }

    #[test]
    fn single_cell_aggregates() {
        let mut t = tree();
        let root = t.root();
        let k = key(&[1, 2]);
        t.create_leaf(root, k.clone());
        t.add_to_cell(&k, SourceId(1), 0.7, &[0.7, 1.0], Some(&[Some(20.0), None]));
        t.check_invariants();
        assert!((t.total_count() - 0.7).abs() < 1e-12);
        assert!(t.node(root).covers_cell(&k));
        let stats = t.stats_of(root);
        assert_eq!(stats[0].count(), 0.7);
        assert_eq!(stats[0].mean(), Some(20.0));
        assert_eq!(t.peer_extent(root), vec![SourceId(1)]);
    }

    #[test]
    fn multi_source_peer_extent() {
        let mut t = tree();
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[2, 3]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&ka, SourceId(2), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(3), 1.0, &[1.0, 1.0], None);
        t.check_invariants();
        assert_eq!(
            t.peer_extent(root),
            vec![SourceId(1), SourceId(2), SourceId(3)]
        );
        let leaf_a = t.leaf_of(&ka).unwrap();
        assert_eq!(t.peer_extent(leaf_a), vec![SourceId(1), SourceId(2)]);
        assert_eq!(t.all_sources().len(), 3);
    }

    #[test]
    fn remove_source_drains_and_prunes() {
        let mut t = tree();
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[1, 1]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 0.5, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(2), 0.5, &[1.0, 1.0], None);

        let removed = t.remove_source(SourceId(1));
        assert!((removed - 1.5).abs() < 1e-12);
        t.check_invariants();
        assert_eq!(t.leaf_count(), 1, "cell a fully drained");
        assert!((t.total_count() - 0.5).abs() < 1e-12);
        // Intent no longer covers the drained cell's labels.
        assert!(!t.node(t.root()).covers_cell(&ka));
    }

    #[test]
    fn cell_content_accumulates_weight_sources_and_max_grades() {
        let mut t = tree();
        let k = key(&[1, 2]);
        t.create_leaf(t.root(), k.clone());
        t.add_to_cell(&k, SourceId(2), 1.0, &[1.0, 0.9], None);
        t.add_to_cell(&k, SourceId(1), 0.7, &[0.7, 1.0], None);
        t.check_invariants();
        let c = t.cell(&k).unwrap();
        assert!((c.weight() - 1.7).abs() < 1e-12);
        let sources: Vec<_> = c.sources().collect();
        assert_eq!(sources, vec![(SourceId(1), 0.7), (SourceId(2), 1.0)]);
        assert_eq!(c.max_grades(), &[1.0, 1.0]);
    }

    #[test]
    fn remove_from_cell_caps_at_the_sources_weight() {
        let mut t = tree();
        let k = key(&[0, 3]);
        t.create_leaf(t.root(), k.clone());
        t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&k, SourceId(2), 0.5, &[0.5, 0.5], None);

        let r = t.remove_from_cell(&k, SourceId(1), 0.4);
        assert!((r - 0.4).abs() < 1e-12);
        t.check_invariants();
        let c = t.cell(&k).unwrap();
        assert_eq!(c.source_count(), 2);
        assert!((c.source_weight(SourceId(1)).unwrap() - 0.6).abs() < 1e-12);

        // An over-large removal takes only what is left and drops the
        // source once its weight is used up.
        let r = t.remove_from_cell(&k, SourceId(1), 10.0);
        assert!((r - 0.6).abs() < 1e-12);
        t.check_invariants();
        let c = t.cell(&k).unwrap();
        assert_eq!(c.source_count(), 1, "drained source is dropped");
        assert_eq!(c.source_weight(SourceId(1)), None);
        assert!((c.weight() - 0.5).abs() < 1e-12);
        assert!((t.total_count() - 0.5).abs() < 1e-12);
        assert_eq!(t.remove_from_cell(&k, SourceId(1), 1.0), 0.0);
    }

    #[test]
    fn remove_source_from_cell_is_wholesale_and_once() {
        let mut t = tree();
        let k = key(&[2, 1]);
        t.create_leaf(t.root(), k.clone());
        t.add_to_cell(&k, SourceId(7), 0.3, &[0.3, 0.3], None);
        t.add_to_cell(&k, SourceId(8), 0.7, &[0.7, 0.7], None);

        assert!((t.remove_source_from_cell(&k, SourceId(7)) - 0.3).abs() < 1e-12);
        assert_eq!(t.remove_source_from_cell(&k, SourceId(7)), 0.0);
        t.check_invariants();
        let c = t.cell(&k).unwrap();
        assert!((c.weight() - 0.7).abs() < 1e-12);
        assert_eq!(c.source_count(), 1);

        assert!((t.remove_source_from_cell(&k, SourceId(8)) - 0.7).abs() < 1e-12);
        t.check_invariants();
        assert!(t.cell(&k).is_none(), "drained cell leaves the index");
        assert_eq!(t.leaf_count(), 0);
    }

    #[test]
    fn removing_an_unknown_source_or_cell_changes_nothing() {
        let mut t = tree();
        let k = key(&[1, 1]);
        t.create_leaf(t.root(), k.clone());
        t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);

        assert_eq!(t.remove_from_cell(&k, SourceId(9), 1.0), 0.0);
        assert_eq!(t.remove_source_from_cell(&k, SourceId(9)), 0.0);
        assert_eq!(t.remove_from_cell(&key(&[0, 0]), SourceId(1), 1.0), 0.0);
        assert_eq!(t.remove_source_from_cell(&key(&[0, 0]), SourceId(1)), 0.0);
        t.check_invariants();
        let c = t.cell(&k).unwrap();
        assert!((c.weight() - 1.0).abs() < 1e-12);
        assert_eq!(c.source_weight(SourceId(1)), Some(1.0));
        assert!((t.total_count() - 1.0).abs() < 1e-12);
        assert!(t.node(t.root()).covers_cell(&k));
    }

    #[test]
    fn reparent_moves_aggregates() {
        let mut t = tree();
        let root = t.root();
        let host = t.create_internal(root);
        let ka = key(&[0, 0]);
        let kb = key(&[1, 1]);
        t.create_leaf(host, ka.clone());
        let leaf_b = t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 1.0, &[1.0, 1.0], None);

        t.reparent(leaf_b, host);
        t.check_invariants();
        assert!((t.node(host).count() - 2.0).abs() < 1e-12);
        assert!(t.node(host).covers_cell(&kb));
        assert_eq!(
            t.node(root).child_count(),
            1,
            "root now holds just the host"
        );
    }

    #[test]
    fn split_promotes_children() {
        let mut t = tree();
        let root = t.root();
        let first = t.create_leaf(root, key(&[2, 0]));
        let host = t.create_internal(root);
        let last = t.create_leaf(root, key(&[2, 3]));
        let ka = key(&[0, 0]);
        let kb = key(&[1, 1]);
        let la = t.create_leaf(host, ka.clone());
        let lb = t.create_leaf(host, kb.clone());
        for k in [&ka, &kb, &key(&[2, 0]), &key(&[2, 3])] {
            t.add_to_cell(k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        t.split_node(host);
        t.check_invariants();
        // The promoted children take the host's place, in order.
        let children: Vec<NodeId> = t.node(root).children().collect();
        assert_eq!(children, [first, la, lb, last]);
        assert!(!t.node(host).is_alive());
        assert!((t.total_count() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_children_creates_host() {
        let mut t = tree();
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[0, 1]);
        let kc = key(&[2, 3]);
        let la = t.create_leaf(root, ka.clone());
        let lb = t.create_leaf(root, kb.clone());
        t.create_leaf(root, kc.clone());
        for k in [&ka, &kb, &kc] {
            t.add_to_cell(k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        let host = t.merge_children(root, la, lb);
        t.check_invariants();
        assert_eq!(t.node(root).child_count(), 2);
        assert!((t.node(host).count() - 2.0).abs() < 1e-12);
        assert!(t.node(host).covers_cell(&ka));
        assert!(t.node(host).covers_cell(&kb));
        assert!(!t.node(host).covers_cell(&kc));
    }

    #[test]
    fn unary_chain_collapses_after_drain() {
        let mut t = tree();
        let root = t.root();
        let host = t.create_internal(root);
        let ka = key(&[0, 0]);
        let kb = key(&[1, 1]);
        t.create_leaf(host, ka.clone());
        t.create_leaf(host, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(2), 1.0, &[1.0, 1.0], None);
        // Drain cell a; host becomes unary and must collapse.
        t.remove_source(SourceId(1));
        t.check_invariants();
        let root_children: Vec<NodeId> = t.node(root).children().collect();
        assert_eq!(root_children.len(), 1);
        assert!(t.node(root_children[0]).is_leaf(), "host collapsed away");
    }

    #[test]
    fn branching_stats_on_known_shape() {
        // root -> host{(0,0),(1,1)}, leaf(2,2): B = (2+1)/2? No — root
        // has 2 children, host has 2: internal nodes {root, host} with
        // child sum 4 → B = 2; leaf depths: 2, 2, 1 → d = 5/3.
        let mut t = tree();
        let root = t.root();
        let host = t.create_internal(root);
        for (parent, labels) in [(host, [0u16, 0]), (host, [1, 1]), (root, [2, 2])] {
            let k = key(&labels);
            t.create_leaf(parent, k.clone());
            t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        let (b, d) = t.branching_stats();
        assert!((b - 2.0).abs() < 1e-12);
        assert!((d - 5.0 / 3.0).abs() < 1e-12);
        // The model estimate is in the ballpark of the real node count.
        let model = t.storage_model_nodes();
        let real = t.live_node_count() as f64;
        assert!(
            model > real * 0.4 && model < real * 2.5,
            "model {model} real {real}"
        );
    }

    /// The dense path update `add_to_cell` used to make: a full-histogram
    /// delta swept over every slot of every node on the path.
    fn add_dense(t: &mut SummaryTree, key: &CellKey, source: SourceId, weight: f64) {
        let cell = t.find(key).expect("cell registered");
        t.add_content(cell, source, weight, &[1.0, 1.0]);
        let mut hist = vec![0.0; t.slots];
        for (attr, &l) in key.iter().enumerate() {
            hist[t.slot(attr, l)] = weight;
        }
        let (offsets, slots, arity) = (t.offsets.clone(), t.slots, t.arity());
        let mut cur = t.cell_leaf[cell];
        while cur != NONE {
            let n = cur as usize;
            t.count[n] = (t.count[n] + weight).max(0.0);
            for (attr, span) in offsets.windows(2).enumerate() {
                for (l, s) in (span[0]..span[1]).enumerate() {
                    let slot = &mut t.hist[n * slots + s];
                    *slot = (*slot + hist[s]).max(0.0);
                    let label = LabelId(l as u16);
                    if *slot > INTENT_THRESHOLD {
                        t.intent[n * arity + attr].insert(label);
                    } else {
                        t.intent[n * arity + attr].remove(label);
                    }
                }
            }
            cur = t.links[n].parent;
        }
    }

    #[test]
    fn sparse_path_update_matches_the_dense_sweep() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // (cell, source, weight, remove the source instead of adding)
        let ops: Vec<(CellKey, u32, f64, bool)> = (0..600)
            .map(|_| {
                let k = key(&[rng.gen_range(0..3), rng.gen_range(0..4)]);
                let w = match rng.gen_range(0..6) {
                    0 => 1e-13,
                    1 => 1e-12,
                    _ => rng.gen_range(0.01..3.0),
                };
                (k, rng.gen_range(0..4), w, rng.gen_bool(0.2))
            })
            .collect();
        let (mut sparse, mut dense) = (tree(), tree());
        let root = sparse.root();
        let mut hosts = [root; 3];
        for t in [&mut sparse, &mut dense] {
            hosts = [root, t.create_internal(root), t.create_internal(root)];
        }
        // Both trees take the same steps; after each one they must agree
        // on every node, down to the bits.
        for (i, (k, src, w, remove)) in ops.iter().enumerate() {
            let src = SourceId(*src);
            for (t, is_dense) in [(&mut sparse, false), (&mut dense, true)] {
                if *remove {
                    t.remove_source_from_cell(k, src);
                    continue;
                }
                if t.leaf_of(k).is_none() {
                    let host = hosts[i % 3];
                    let parent = if t.node(host).is_alive() { host } else { root };
                    t.create_leaf(parent, k.clone());
                }
                if is_dense {
                    add_dense(t, k, src, *w);
                } else {
                    t.add_to_cell(k, src, *w, &[1.0, 1.0], None);
                }
            }
            assert_eq!(sparse.links.len(), dense.links.len(), "step {i}");
            for n in 0..sparse.links.len() {
                let (s, d) = (sparse.node(NodeId(n as u32)), dense.node(NodeId(n as u32)));
                assert_eq!(s.is_alive(), d.is_alive(), "step {i}, node {n}");
                assert_eq!(
                    s.count().to_bits(),
                    d.count().to_bits(),
                    "step {i}, node {n}"
                );
                for (hs, hd) in s.hist().iter().zip(d.hist()) {
                    assert_eq!(hs.to_bits(), hd.to_bits(), "step {i}, node {n}");
                }
                assert_eq!(s.intent(), d.intent(), "step {i}, node {n}");
            }
        }
    }

    /// A tree with three leaves under the root, one of them hosted.
    fn three_cells() -> SummaryTree {
        let mut t = tree();
        let root = t.root();
        let host = t.create_internal(root);
        for (parent, labels) in [(host, [0u16, 0]), (host, [1, 1]), (root, [2, 2])] {
            let k = key(&labels);
            t.create_leaf(parent, k.clone());
            t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        t.check_invariants();
        t
    }

    #[test]
    fn a_cleared_tree_is_a_new_one_with_its_capacity() {
        let mut t = three_cells();
        let capacity = (t.hist.capacity(), t.links.capacity(), t.cell_sources.len());
        t.clear();
        t.check_invariants();
        assert_eq!(t.live_node_count(), 1);
        assert_eq!(t.leaf_count(), 0);
        assert_eq!(t.total_count(), 0.0);
        let new = tree();
        assert_eq!(t.node(t.root()).hist(), new.node(new.root()).hist());
        assert_eq!(t.node(t.root()).intent(), new.node(new.root()).intent());
        assert_eq!(t.node(t.root()).child_count(), 0);
        assert_eq!(t.hist.capacity(), capacity.0, "histogram slab kept");
        assert_eq!(t.links.capacity(), capacity.1, "links kept");
        assert_eq!(t.cell_sources.len(), capacity.2, "per-source rows kept");
        // Rebuilt in the recycled arena, the tree is the fresh one.
        let mut rebuilt = t;
        let root = rebuilt.root();
        let host = rebuilt.create_internal(root);
        for (parent, labels) in [(host, [0u16, 0]), (host, [1, 1]), (root, [2, 2])] {
            let k = key(&labels);
            rebuilt.create_leaf(parent, k.clone());
            rebuilt.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        let fresh = three_cells();
        assert_eq!(format!("{:?}", rebuilt.cells().collect::<Vec<_>>()), {
            format!("{:?}", fresh.cells().collect::<Vec<_>>())
        });
        assert_eq!(rebuilt.hist, fresh.hist);
        assert_eq!(rebuilt.intent, fresh.intent);
        assert_eq!(rebuilt.count, fresh.count);
    }

    #[test]
    #[should_panic(expected = "histogram support")]
    fn invariants_catch_an_intent_bit_without_support() {
        let mut t = tree();
        let root = t.root();
        let k = key(&[1, 2]);
        t.create_leaf(root, k.clone());
        t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.check_invariants();
        // The same stale bit on the leaf and the root still passes the
        // union-of-children check; only the support check sees it.
        for id in [t.leaf_of(&k).unwrap(), root] {
            t.intent[id.idx() * 2].insert(LabelId(0));
        }
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "leaf support outside its key")]
    fn invariants_catch_leaf_weight_in_the_wrong_slot() {
        let mut t = tree();
        let root = t.root();
        let k = key(&[1, 2]);
        t.create_leaf(root, k.clone());
        t.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        t.check_invariants();
        // What an off-by-one offset would write: attribute 0's weight in
        // label 0's slot instead of label 1's, with intent bits to match,
        // on the leaf and the root alike. Counts, masses, supports and
        // unions all still agree; only the leaf check sees it.
        let (right, wrong) = (t.slot(0, LabelId(1)), t.slot(0, LabelId(0)));
        for id in [t.leaf_of(&k).unwrap(), root] {
            let row = id.idx() * t.slots;
            t.hist.swap(row + right, row + wrong);
            t.intent[id.idx() * 2] = DescriptorSet::singleton(LabelId(0));
        }
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "cell index not sorted")]
    fn invariants_catch_an_unsorted_cell_index() {
        let mut t = three_cells();
        t.index.swap(0, 2);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "histogram slab stride")]
    fn invariants_catch_a_wrong_histogram_stride() {
        let mut t = three_cells();
        t.hist.push(0.0);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "sibling links broken")]
    fn invariants_catch_a_broken_sibling_link() {
        let mut t = three_cells();
        let host = t.links[0].first_child as usize;
        let first = t.links[host].first_child as usize;
        t.links[first].next_sibling = NONE;
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "leaf/cell id mismatch")]
    fn invariants_catch_a_cell_on_the_wrong_leaf() {
        let mut t = three_cells();
        t.cell_leaf.swap(0, 1);
        t.check_invariants();
    }

    #[test]
    fn slots_are_attribute_major() {
        let t = tree();
        let slots: Vec<usize> = (0..3)
            .map(|l| t.slot(0, LabelId(l)))
            .chain((0..4).map(|l| t.slot(1, LabelId(l))))
            .collect();
        assert_eq!(slots, (0..7).collect::<Vec<_>>());
        assert_eq!(t.node(t.root()).hist().len(), 7);
    }

    #[test]
    fn intent_distance_counts_appearances() {
        let a = Intent {
            sets: vec![
                DescriptorSet::from_labels([LabelId(0), LabelId(1)]),
                DescriptorSet::singleton(LabelId(2)),
            ],
        };
        let b = Intent {
            sets: vec![
                DescriptorSet::singleton(LabelId(1)),
                DescriptorSet::from_labels([LabelId(2), LabelId(3)]),
            ],
        };
        assert_eq!(a.distance(&b), 2); // label 0 disappeared, label 3 appeared
        assert_eq!(a.descriptor_count(), 3);
    }
}
