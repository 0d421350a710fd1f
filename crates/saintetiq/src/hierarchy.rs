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
//! The tree is an arena (`Vec<Node>` + `u32` ids) with tombstones;
//! structural edits are primitives the engine composes (create leaf,
//! create internal host, promote children, prune). Every primitive keeps
//! the cached per-node histograms, counts and intents consistent, and
//! [`SummaryTree::check_invariants`] verifies all of it for tests.
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

use std::collections::BTreeMap;

use fuzzy::descriptor::{DescriptorSet, Grade, LabelId};
use relation::stats::AttributeStats;

use crate::cell::{CellContent, CellKey, SourceId};

/// The weight a histogram slot must exceed for its label to enter the
/// node's intent. Fainter support counts as absent, so a cell whose
/// contributions sum to this or less has an empty intent on every
/// attribute.
pub const INTENT_THRESHOLD: f64 = 1e-12;

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

impl Intent {
    /// An empty intent of the given arity.
    pub fn empty(arity: usize) -> Self {
        Self {
            sets: vec![DescriptorSet::EMPTY; arity],
        }
    }

    /// The intent of a single cell.
    pub fn of_cell(key: &CellKey) -> Self {
        Self {
            sets: key.0.iter().map(|&l| DescriptorSet::singleton(l)).collect(),
        }
    }

    /// True when the cell's labels are all inside the intent.
    pub fn covers_cell(&self, key: &CellKey) -> bool {
        self.sets.iter().zip(&key.0).all(|(s, &l)| s.contains(l))
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

/// One tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent link (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children in insertion order (empty for leaves).
    pub children: Vec<NodeId>,
    /// Cached intent: union of the intents below.
    pub intent: Intent,
    /// Total cell weight below (fractional tuple count).
    pub count: f64,
    /// Per-label weight histogram (drives the partition score and keeps
    /// intents exact under removals), flat and attribute-major: the
    /// labels of attribute 0, then those of attribute 1, and so on. Label
    /// `l` of attribute `a` sits at [`SummaryTree::slot`]`(a, l)`.
    pub hist: Vec<f64>,
    /// For a leaf: the grid cell it stands for.
    pub cell: Option<CellKey>,
    /// Tombstone flag: dead nodes stay in the arena until rebuild.
    pub alive: bool,
}

impl Node {
    fn new(arity: usize, slots: usize, parent: Option<NodeId>) -> Self {
        Self {
            parent,
            children: Vec::new(),
            intent: Intent::empty(arity),
            count: 0.0,
            hist: vec![0.0; slots],
            cell: None,
            alive: true,
        }
    }

    /// True when the node is a leaf (stands for one cell).
    pub fn is_leaf(&self) -> bool {
        self.cell.is_some()
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

/// Per-cell bookkeeping held by the tree.
#[derive(Debug, Clone)]
pub struct CellEntry {
    /// Aggregated weight / per-source contributions / max grades.
    pub content: CellContent,
    /// The leaf node standing for this cell.
    pub leaf: NodeId,
    /// Per *BK attribute* statistics of the raw numeric values mapped
    /// into the cell (entries for categorical attributes stay empty).
    pub stats: Vec<AttributeStats>,
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

/// A hierarchy of summaries over a fixed Background Knowledge.
#[derive(Debug, Clone)]
pub struct SummaryTree {
    /// Name of the BK this tree was built against (merge compatibility).
    bk_name: String,
    /// Labels per attribute (histogram dimensions).
    label_counts: Vec<usize>,
    /// `offsets[a]` = flat histogram index of attribute `a`'s first label;
    /// the last entry is the histogram length.
    offsets: Vec<usize>,
    nodes: Vec<Node>,
    root: NodeId,
    cells: BTreeMap<CellKey, CellEntry>,
}

impl SummaryTree {
    /// Creates an empty tree for a BK with the given per-attribute label
    /// counts.
    pub fn new(bk_name: impl Into<String>, label_counts: Vec<usize>) -> Self {
        let arity = label_counts.len();
        let mut offsets = Vec::with_capacity(arity + 1);
        offsets.push(0);
        for &n in &label_counts {
            offsets.push(offsets[offsets.len() - 1] + n);
        }
        let root_node = Node::new(arity, offsets[arity], None);
        Self {
            bk_name: bk_name.into(),
            label_counts,
            offsets,
            nodes: vec![root_node],
            root: NodeId(0),
            cells: BTreeMap::new(),
        }
    }

    /// The BK name the tree is bound to.
    pub fn bk_name(&self) -> &str {
        &self.bk_name
    }

    /// Per-attribute label counts.
    pub fn label_counts(&self) -> &[usize] {
        &self.label_counts
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
        self.root
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.idx()]
    }

    /// Number of live nodes.
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Number of live leaves (= number of distinct cells).
    pub fn leaf_count(&self) -> usize {
        self.cells.len()
    }

    /// Total tuple weight in the tree.
    pub fn total_count(&self) -> f64 {
        self.node(self.root).count
    }

    /// Depth of the tree (root = 0; empty tree = 0).
    pub fn depth(&self) -> usize {
        fn walk(t: &SummaryTree, id: NodeId) -> usize {
            let n = t.node(id);
            n.children
                .iter()
                .map(|&c| 1 + walk(t, c))
                .max()
                .unwrap_or(0)
        }
        walk(self, self.root)
    }

    /// `(B, d)`: average branching factor over internal nodes and average
    /// leaf depth — the parameters of §6.1.1's storage model
    /// `C_m = k·(B^{d+1} − 1)/(B − 1)`.
    pub fn branching_stats(&self) -> (f64, f64) {
        let mut internal = 0usize;
        let mut child_sum = 0usize;
        let mut leaf_depth_sum = 0usize;
        let mut leaves = 0usize;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let n = self.node(id);
            if n.is_leaf() {
                leaves += 1;
                leaf_depth_sum += depth;
            } else {
                internal += 1;
                child_sum += n.children.len();
                for &c in &n.children {
                    stack.push((c, depth + 1));
                }
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

    /// The cell registry.
    pub fn cells(&self) -> &BTreeMap<CellKey, CellEntry> {
        &self.cells
    }

    /// The leaf standing for `key`, if the cell is present.
    pub fn leaf_of(&self, key: &CellKey) -> Option<NodeId> {
        self.cells.get(key).map(|e| e.leaf)
    }

    /// Peer-extent of a summary node (Definition 3): the union of sources
    /// of every cell below it.
    pub fn peer_extent(&self, id: NodeId) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = Vec::new();
        self.for_each_leaf(id, |key, _| {
            if let Some(e) = self.cells.get(key) {
                out.extend(e.content.sources());
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
            .cells
            .values()
            .flat_map(|e| e.content.sources())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Aggregated statistics of a node: merged stats of every cell below.
    pub fn stats_of(&self, id: NodeId) -> Vec<AttributeStats> {
        let mut acc = vec![AttributeStats::new(); self.arity()];
        self.for_each_leaf(id, |key, _| {
            if let Some(e) = self.cells.get(key) {
                for (a, s) in acc.iter_mut().zip(&e.stats) {
                    a.merge(s);
                }
            }
        });
        acc
    }

    /// Visits every live leaf below `id` (inclusive), passing its cell key
    /// and node id.
    pub fn for_each_leaf<'a, F: FnMut(&'a CellKey, NodeId)>(&'a self, id: NodeId, mut f: F) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if !node.alive {
                continue;
            }
            if let Some(key) = &node.cell {
                f(key, n);
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
    }

    // ---- structural primitives (used by the engine) ----

    fn alloc(&mut self, parent: Option<NodeId>) -> NodeId {
        let node = Node::new(self.arity(), self.offsets[self.arity()], parent);
        self.push(node)
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Creates an empty leaf for `key` under `parent` and registers the
    /// cell. The caller then adds weight via [`SummaryTree::add_to_cell`].
    pub fn create_leaf(&mut self, parent: NodeId, key: CellKey) -> NodeId {
        self.attach_leaf(parent, key, &[])
    }

    /// Creates the leaf for `key` under `parent`, registers the cell and
    /// folds `run` into it as [`SummaryTree::fold_into_cell`] would.
    pub(crate) fn attach_leaf(
        &mut self,
        parent: NodeId,
        key: CellKey,
        run: &[Contribution<'_>],
    ) -> NodeId {
        debug_assert!(!self.node(parent).is_leaf(), "cannot parent under a leaf");
        debug_assert!(!self.cells.contains_key(&key), "cell already present");
        let id = self.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            intent: Intent::of_cell(&key),
            count: 0.0,
            hist: vec![0.0; self.offsets[self.arity()]],
            cell: None,
            alive: true,
        });
        self.node_mut(parent).children.push(id);
        let stats = vec![AttributeStats::new(); self.arity()];
        let entry = self.cells.entry(key.clone()).or_insert(CellEntry {
            content: CellContent::default(),
            leaf: id,
            stats,
        });
        if !run.is_empty() {
            Self::fold(&mut self.nodes, &self.offsets, entry, &key.0, run);
        }
        self.node_mut(id).cell = Some(key);
        id
    }

    /// Creates an empty internal node under `parent`.
    pub fn create_internal(&mut self, parent: NodeId) -> NodeId {
        debug_assert!(!self.node(parent).is_leaf());
        let id = self.alloc(Some(parent));
        self.node_mut(parent).children.push(id);
        id
    }

    /// Moves `child` under `new_parent`, transferring its aggregates along
    /// both paths (up to their common ancestor the net change is zero, so
    /// we simply subtract along the old path and add along the new one).
    pub fn reparent(&mut self, child: NodeId, new_parent: NodeId) {
        let old_parent = self.node(child).parent.expect("cannot reparent the root");
        if old_parent == new_parent {
            return;
        }
        // Detach.
        let pos = self
            .node(old_parent)
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child listed under parent");
        self.node_mut(old_parent).children.remove(pos);
        // Subtract aggregates along the old ancestor chain, add them along
        // the new one.
        let count = self.node(child).count;
        let delta = self.nonzero_slots(&self.node(child).hist);
        let mut cur = Some(old_parent);
        while let Some(id) = cur {
            self.apply_delta(id, -count, &delta, -1.0);
            cur = self.node(id).parent;
        }
        // Attach.
        self.node_mut(child).parent = Some(new_parent);
        self.node_mut(new_parent).children.push(child);
        let mut cur = Some(new_parent);
        while let Some(id) = cur {
            self.apply_delta(id, count, &delta, 1.0);
            cur = self.node(id).parent;
        }
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
        let node = &mut self.nodes[id.idx()];
        node.count = (node.count + dcount).max(0.0);
        for d in delta {
            let slot = &mut node.hist[d.slot];
            *slot = (*slot + sign * d.weight).max(0.0);
            let label = LabelId((d.slot - self.offsets[d.attr]) as u16);
            if *slot > INTENT_THRESHOLD {
                node.intent.sets[d.attr].insert(label);
            } else {
                node.intent.sets[d.attr].remove(label);
            }
        }
    }

    /// The non-zero slots of a flat histogram, in slot order.
    fn nonzero_slots(&self, hist: &[f64]) -> Vec<SlotDelta> {
        let mut delta = Vec::new();
        for (attr, span) in self.offsets.windows(2).enumerate() {
            for (slot, &weight) in hist.iter().enumerate().take(span[1]).skip(span[0]) {
                if weight != 0.0 {
                    delta.push(SlotDelta { slot, attr, weight });
                }
            }
        }
        delta
    }

    /// The key's slots, each holding `weight`.
    fn key_slots(&self, key: &CellKey, weight: f64) -> Vec<SlotDelta> {
        (key.0.iter().enumerate())
            .map(|(attr, &l)| SlotDelta {
                slot: self.slot(attr, l),
                attr,
                weight,
            })
            .collect()
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
        key: &CellKey,
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
    pub fn fold_into_cell(&mut self, key: &CellKey, contributions: &[Contribution<'_>]) {
        let found = self.fold_into_existing(&key.0, contributions);
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
        let Some(entry) = self.cells.get_mut(labels) else {
            return false;
        };
        Self::fold(&mut self.nodes, &self.offsets, entry, labels, contributions);
        true
    }

    /// The body of [`SummaryTree::fold_into_cell`], on the cell's entry
    /// and labels.
    fn fold(
        nodes: &mut [Node],
        offsets: &[usize],
        entry: &mut CellEntry,
        labels: &[LabelId],
        contributions: &[Contribution<'_>],
    ) {
        for c in contributions {
            if c.weight > 0.0 {
                entry.content.add(c.source, c.weight, c.grades);
            }
            match c.stats {
                StatsUpdate::None => {}
                StatsUpdate::Raw(raw) => {
                    for (s, v) in entry.stats.iter_mut().zip(raw) {
                        if let Some(x) = v {
                            s.push_weighted(*x, c.weight);
                        }
                    }
                }
                StatsUpdate::Merge(attrs, stats) => {
                    for (&attr, other) in attrs.iter().zip(stats) {
                        entry.stats[usize::from(attr)].merge(other);
                    }
                }
            }
        }
        let weights = || contributions.iter().map(|c| c.weight).filter(|&w| w > 0.0);
        let mut cur = Some(entry.leaf);
        while let Some(id) = cur {
            let node = &mut nodes[id.idx()];
            for w in weights() {
                node.count = (node.count + w).max(0.0);
            }
            for (attr, &label) in labels.iter().enumerate() {
                let slot = &mut node.hist[offsets[attr] + label.index()];
                for w in weights() {
                    *slot = (*slot + w).max(0.0);
                }
                if *slot > INTENT_THRESHOLD {
                    node.intent.sets[attr].insert(label);
                } else {
                    node.intent.sets[attr].remove(label);
                }
            }
            cur = node.parent;
        }
    }

    /// Merges externally-computed statistics into a cell (used when
    /// merging two hierarchies, where raw values are no longer available).
    pub fn merge_cell_stats(&mut self, key: &CellKey, stats: &[AttributeStats]) {
        if let Some(entry) = self.cells.get_mut(key) {
            for (own, other) in entry.stats.iter_mut().zip(stats) {
                own.merge(other);
            }
        }
    }

    /// Removes up to `weight` of `source`'s contribution to cell `key`;
    /// prunes the leaf if it drains. Returns the removed weight.
    ///
    /// Used by push-mode deletes/updates: the before-image maps to cells
    /// whose weights are retracted.
    pub fn remove_from_cell(&mut self, key: &CellKey, source: SourceId, weight: f64) -> f64 {
        let Some(entry) = self.cells.get_mut(key) else {
            return 0.0;
        };
        let leaf = entry.leaf;
        let removed = entry.content.remove(source, weight);
        if removed == 0.0 {
            return 0.0;
        }
        let drained = entry.content.is_empty();
        let delta = self.key_slots(key, removed);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            self.apply_delta(id, -removed, &delta, -1.0);
            cur = self.node(id).parent;
        }
        if drained {
            self.cells.remove(key);
            self.kill_and_prune(leaf);
        }
        removed
    }

    /// Removes every contribution of `source` from cell `key`; prunes the
    /// leaf if it drains. Returns the removed weight.
    pub fn remove_source_from_cell(&mut self, key: &CellKey, source: SourceId) -> f64 {
        let Some(entry) = self.cells.get_mut(key) else {
            return 0.0;
        };
        let leaf = entry.leaf;
        let removed = entry.content.remove_source(source);
        if removed == 0.0 {
            return 0.0;
        }
        let drained = entry.content.is_empty();
        let delta = self.key_slots(key, removed);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            self.apply_delta(id, -removed, &delta, -1.0);
            cur = self.node(id).parent;
        }
        if drained {
            self.cells.remove(key);
            self.kill_and_prune(leaf);
        }
        removed
    }

    /// Removes every contribution of `source` across the whole tree —
    /// what reconciliation effectively does for a departed partner when
    /// rebuilding is not desired (§4.3's first alternative keeps the
    /// descriptions; this primitive implements the second).
    pub fn remove_source(&mut self, source: SourceId) -> f64 {
        let keys: Vec<CellKey> = self
            .cells
            .iter()
            .filter(|(_, e)| e.content.per_source.contains_key(&source))
            .map(|(k, _)| k.clone())
            .collect();
        keys.iter()
            .map(|k| self.remove_source_from_cell(k, source))
            .sum()
    }

    /// Tombstones a node and prunes now-useless ancestors: empty internal
    /// nodes die; internal nodes left with a single child are collapsed
    /// (the child is spliced up), keeping the tree compact.
    fn kill_and_prune(&mut self, id: NodeId) {
        let parent = self.node(id).parent;
        self.node_mut(id).alive = false;
        if let Some(p) = parent {
            let pos = self.node(p).children.iter().position(|&c| c == id);
            if let Some(pos) = pos {
                self.node_mut(p).children.remove(pos);
            }
            self.prune_upwards(p);
        }
    }

    fn prune_upwards(&mut self, id: NodeId) {
        if id == self.root {
            return;
        }
        let node = self.node(id);
        if node.is_leaf() || !node.alive {
            return;
        }
        match node.children.len() {
            0 => {
                let parent = node.parent;
                self.node_mut(id).alive = false;
                if let Some(p) = parent {
                    let pos = self.node(p).children.iter().position(|&c| c == id);
                    if let Some(pos) = pos {
                        self.node_mut(p).children.remove(pos);
                    }
                    self.prune_upwards(p);
                }
            }
            1 => {
                // Splice the only child into the grandparent.
                let child = self.node(id).children[0];
                let parent = self.node(id).parent.expect("non-root");
                let pos = self
                    .node(parent)
                    .children
                    .iter()
                    .position(|&c| c == id)
                    .expect("listed");
                self.node_mut(parent).children[pos] = child;
                self.node_mut(child).parent = Some(parent);
                self.node_mut(id).alive = false;
                self.node_mut(id).children.clear();
            }
            _ => {}
        }
    }

    /// Splits `id` (an internal, non-root node): its children are promoted
    /// into its parent and `id` dies. This is the Cobweb *split* operator.
    pub fn split_node(&mut self, id: NodeId) {
        assert!(id != self.root, "cannot split the root");
        let node = self.node(id);
        assert!(!node.is_leaf(), "cannot split a leaf");
        let parent = node.parent.expect("non-root");
        let children = node.children.clone();
        let pos = self
            .node(parent)
            .children
            .iter()
            .position(|&c| c == id)
            .expect("listed");
        self.node_mut(parent).children.remove(pos);
        for c in &children {
            self.node_mut(*c).parent = Some(parent);
        }
        let insert_at = pos.min(self.node(parent).children.len());
        for (i, c) in children.into_iter().enumerate() {
            self.node_mut(parent).children.insert(insert_at + i, c);
        }
        self.node_mut(id).alive = false;
        self.node_mut(id).children.clear();
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
        // Cell registry ↔ leaves.
        for (key, entry) in &self.cells {
            let leaf = self.node(entry.leaf);
            assert!(leaf.alive, "cell {key:?} points at dead leaf");
            assert_eq!(leaf.cell.as_ref(), Some(key), "leaf/cell key mismatch");
            assert!(
                (leaf.count - entry.content.weight).abs() < 1e-6,
                "leaf count {} != cell weight {}",
                leaf.count,
                entry.content.weight
            );
        }
        // Tree structure + aggregates.
        let mut seen_leaves = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            assert!(node.alive, "dead node {id:?} reachable");
            // Intent bits are exactly the histogram support: the sparse
            // path update of `fold_into_cell` never revisits other slots.
            for (attr, span) in self.offsets.windows(2).enumerate() {
                for (l, &w) in node.hist[span[0]..span[1]].iter().enumerate() {
                    assert_eq!(
                        node.intent.sets[attr].contains(LabelId(l as u16)),
                        w > INTENT_THRESHOLD,
                        "intent bit ({attr}, {l}) != histogram support at {id:?}"
                    );
                }
            }
            if let Some(key) = &node.cell {
                assert!(node.children.is_empty(), "leaf with children");
                assert!(self.cells.contains_key(key), "leaf for unregistered cell");
                // A leaf's weight sits in its key's slots and nowhere else;
                // a wrong flat offset would move it.
                let key_slots: Vec<usize> = key
                    .0
                    .iter()
                    .enumerate()
                    .map(|(a, &l)| self.slot(a, l))
                    .collect();
                for (s, &w) in node.hist.iter().enumerate() {
                    if key_slots.contains(&s) {
                        assert!(
                            (w - node.count).abs() < 1e-6,
                            "leaf slot {s} holds {w}, not the leaf count {} at {id:?}",
                            node.count
                        );
                    } else {
                        assert_eq!(w, 0.0, "leaf support outside its key: slot {s} at {id:?}");
                    }
                }
                seen_leaves += 1;
            } else {
                let mut count = 0.0;
                let mut intent = Intent::empty(self.arity());
                for &c in &node.children {
                    let child = self.node(c);
                    assert_eq!(child.parent, Some(id), "parent link broken");
                    count += child.count;
                    intent.union_with(&child.intent);
                    stack.push(c);
                }
                assert!(
                    (node.count - count).abs() < 1e-6,
                    "count mismatch at {id:?}: {} vs children {}",
                    node.count,
                    count
                );
                if id != self.root || !node.children.is_empty() {
                    assert_eq!(node.intent, intent, "intent != union of children at {id:?}");
                }
                // Histogram totals must match the count on every attribute.
                for span in self.offsets.windows(2) {
                    let total: f64 = node.hist[span[0]..span[1]].iter().sum();
                    assert!(
                        (total - node.count).abs() < 1e-6,
                        "hist mass {total} != count {} at {id:?}",
                        node.count
                    );
                }
                // No internal node (except a root that still has < 2
                // leaves overall) may have exactly one child.
                if id != self.root {
                    assert!(node.children.len() != 1, "unary internal node {id:?}");
                }
            }
        }
        assert_eq!(
            seen_leaves,
            self.cells.len(),
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
        assert!(t.node(root).intent.covers_cell(&k));
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
        assert!(!t.node(t.root()).intent.covers_cell(&ka));
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
        assert!((t.node(host).count - 2.0).abs() < 1e-12);
        assert!(t.node(host).intent.covers_cell(&kb));
        assert_eq!(
            t.node(root).children.len(),
            1,
            "root now holds just the host"
        );
    }

    #[test]
    fn split_promotes_children() {
        let mut t = tree();
        let root = t.root();
        let host = t.create_internal(root);
        let ka = key(&[0, 0]);
        let kb = key(&[1, 1]);
        let kc = key(&[2, 2]);
        t.create_leaf(host, ka.clone());
        t.create_leaf(host, kb.clone());
        t.create_leaf(root, kc.clone());
        for k in [&ka, &kb, &kc] {
            t.add_to_cell(k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        t.split_node(host);
        t.check_invariants();
        assert_eq!(t.node(root).children.len(), 3);
        assert!((t.total_count() - 3.0).abs() < 1e-12);
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
        assert_eq!(t.node(root).children.len(), 2);
        assert!((t.node(host).count - 2.0).abs() < 1e-12);
        assert!(t.node(host).intent.covers_cell(&ka));
        assert!(t.node(host).intent.covers_cell(&kb));
        assert!(!t.node(host).intent.covers_cell(&kc));
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
        let root_children = &t.node(root).children;
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
        let entry = t.cells.get_mut(key).expect("cell registered");
        entry.content.add(source, weight, &[1.0, 1.0]);
        let leaf = entry.leaf;
        let mut hist = vec![0.0; t.offsets[t.arity()]];
        for (attr, &l) in key.0.iter().enumerate() {
            hist[t.slot(attr, l)] = weight;
        }
        let offsets = t.offsets.clone();
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            let node = &mut t.nodes[id.idx()];
            node.count = (node.count + weight).max(0.0);
            for (attr, span) in offsets.windows(2).enumerate() {
                for (l, s) in (span[0]..span[1]).enumerate() {
                    node.hist[s] = (node.hist[s] + hist[s]).max(0.0);
                    let label = LabelId(l as u16);
                    if node.hist[s] > INTENT_THRESHOLD {
                        node.intent.sets[attr].insert(label);
                    } else {
                        node.intent.sets[attr].remove(label);
                    }
                }
            }
            cur = node.parent;
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
                    let parent = if t.node(host).alive { host } else { root };
                    t.create_leaf(parent, k.clone());
                }
                if is_dense {
                    add_dense(t, k, src, *w);
                } else {
                    t.add_to_cell(k, src, *w, &[1.0, 1.0], None);
                }
            }
            assert_eq!(sparse.nodes.len(), dense.nodes.len(), "step {i}");
            for (n, (s, d)) in sparse.nodes.iter().zip(&dense.nodes).enumerate() {
                assert_eq!(s.alive, d.alive, "step {i}, node {n}");
                assert_eq!(s.count.to_bits(), d.count.to_bits(), "step {i}, node {n}");
                for (hs, hd) in s.hist.iter().zip(&d.hist) {
                    assert_eq!(hs.to_bits(), hd.to_bits(), "step {i}, node {n}");
                }
                assert_eq!(s.intent, d.intent, "step {i}, node {n}");
            }
        }
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
            t.node_mut(id).intent.sets[0].insert(LabelId(0));
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
            let node = t.node_mut(id);
            node.hist.swap(right, wrong);
            node.intent.sets[0] = DescriptorSet::singleton(LabelId(0));
        }
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
        assert_eq!(t.node(t.root()).hist.len(), 7);
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
