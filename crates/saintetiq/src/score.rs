//! Partition score: the category-utility measure steering the
//! summarization service.
//!
//! §3.2.2: cells are incorporated "with a top-down approach inspired of
//! D.H. Fisher's Cobweb", and the create/merge/split operators are applied
//! "depending on partition's score". We use Gluck & Corter's category
//! utility, the score Cobweb itself optimizes, computed over the fuzzy
//! label-weight histograms the tree maintains:
//!
//! ```text
//! CU({C1..Ck} of N) = (1/k) Σ_i P(Ci) [ Σ_a Σ_l P(l|Ci)² − Σ_a Σ_l P(l|N)² ]
//! ```
//!
//! where `P(l|X)` is label weight / node count. Weights are fractional
//! (cells carry fuzzy tuple counts) which generalizes the classic formula
//! without changing its fixed points on crisp data.
//!
//! Every score is a sum of per-node terms `P(C) [EC(C) − EC(N)]`, each
//! built on `expected_correct` — the one full pass of
//! `Σ_a Σ_l P(l|X)²`, which adds every slot's `p²` without a branch.
//! `leaf_expected_correct` is its shortcut for a leaf: it reads only the
//! slots that can hold weight, in the same order, so it returns the same
//! bits. [`category_utility`] and [`category_utility_with_new_child`]
//! score one hypothesis each; the descent ([`crate::engine`]) computes
//! the terms of a level once and sums them per hypothesis in the same
//! order, so its scores are bit-identical to these.

use fuzzy::descriptor::LabelId;

use crate::hierarchy::{NodeId, SummaryTree};

/// Σ_a Σ_l P(l|X)² of a flat histogram at total weight `total`; returns 0
/// unless `total` is positive.
///
/// `slot(s)` is the weight in slot `s`; `offsets` are the histogram's
/// attribute boundaries (attribute `a` spans `offsets[a]..offsets[a +
/// 1]`). `pending` adds a hypothetical cell's weight to its label on
/// every attribute before scoring; the caller's `total` includes it.
///
/// Every slot adds its `p²`, in slot order, without a branch: a slot off
/// the pending label gets `+0.0` added to its weight, which changes no
/// square, and an empty slot adds `+0.0` to the sum, which leaves the
/// non-negative sum as it is. The sum is therefore bit for bit the one
/// that adds only the non-empty slots.
pub(crate) fn expected_correct(
    offsets: &[usize],
    total: f64,
    pending: Option<(&[LabelId], f64)>,
    slot: impl Fn(usize) -> f64,
) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (attr, span) in offsets.windows(2).enumerate() {
        let (hit, pw) = match pending {
            Some((key, pw)) => (span[0] + key[attr].index(), pw),
            None => (usize::MAX, 0.0),
        };
        for s in span[0]..span[1] {
            let p = (slot(s) + if s == hit { pw } else { 0.0 }) / total;
            sum += p * p;
        }
    }
    sum
}

/// [`expected_correct`] of a leaf standing for cell `key`, whose
/// histogram `hist` is zero off the key's slots (the leaf-support
/// invariant of [`SummaryTree::check_invariants`]). Only the key's slot
/// and the pending cell's slot of each attribute can add anything, so
/// only they are read, in slot order: the sum is bit-identical to the
/// full pass.
pub(crate) fn leaf_expected_correct(
    offsets: &[usize],
    total: f64,
    pending: Option<(&[LabelId], f64)>,
    key: &[LabelId],
    hist: &[f64],
) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut add = |w: f64| {
        let p = w / total;
        sum += p * p;
    };
    for (attr, &label) in key.iter().enumerate() {
        let own = offsets[attr] + label.index();
        match pending {
            None => add(hist[own]),
            Some((labels, pw)) => {
                let hit = offsets[attr] + labels[attr].index();
                if hit < own {
                    add(pw);
                    add(hist[own]);
                } else if hit == own {
                    add(hist[own] + pw);
                } else {
                    add(hist[own]);
                    add(pw);
                }
            }
        }
    }
    sum
}

/// Category utility of the current partition of `parent`'s children,
/// with an optional hypothetical insertion of a cell into one child
/// (`pending`: child index in `parent.children`, cell labels, weight).
///
/// Returns 0 for childless nodes.
pub fn category_utility(
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
    let offsets = tree.offsets();
    let parent_ec = expected_correct(
        offsets,
        parent_total,
        pending.map(|(_, key, w)| (key, w)),
        |s| p.hist()[s],
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
        let child_ec = expected_correct(offsets, child_total, child_pending, |s| c.hist()[s]);
        cu += (child_total / parent_total) * (child_ec - parent_ec);
    }
    cu / k as f64
}

/// Category utility if a brand-new singleton child were added for the
/// cell. A singleton's `Σ P(l|C)²` is exactly the number of attributes
/// (every label is certain).
pub fn category_utility_with_new_child(
    tree: &SummaryTree,
    parent: NodeId,
    key: &[LabelId],
    weight: f64,
) -> f64 {
    let p = tree.node(parent);
    let k = p.child_count() + 1;
    let parent_total = p.count() + weight;
    if parent_total <= 0.0 {
        return 0.0;
    }
    let offsets = tree.offsets();
    let parent_ec = expected_correct(offsets, parent_total, Some((key, weight)), |s| p.hist()[s]);
    let mut cu = 0.0;
    for child in p.children() {
        let c = tree.node(child);
        if c.count() <= 0.0 {
            continue;
        }
        let child_ec = expected_correct(offsets, c.count(), None, |s| c.hist()[s]);
        cu += (c.count() / parent_total) * (child_ec - parent_ec);
    }
    // The hypothetical singleton child.
    let singleton_ec = key.len() as f64;
    cu += (weight / parent_total) * (singleton_ec - parent_ec);
    cu / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKey, SourceId};
    use fuzzy::descriptor::LabelId;

    fn key(labels: &[u16]) -> CellKey {
        CellKey(labels.iter().map(|&l| LabelId(l)).collect())
    }

    /// Two tight clusters must score higher than a scrambled partition.
    #[test]
    fn cu_prefers_coherent_partitions() {
        // Build: root -> host1{(0,0),(0,1)}, host2{(2,2),(2,3)}  (coherent)
        let mut coherent = SummaryTree::new("bk", vec![3, 4]);
        let root = coherent.root();
        let h1 = coherent.create_internal(root);
        let h2 = coherent.create_internal(root);
        for (host, labels) in [(h1, [0u16, 0]), (h1, [0, 1]), (h2, [2, 2]), (h2, [2, 3])] {
            let k = key(&labels);
            coherent.create_leaf(host, k.clone());
            coherent.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        coherent.check_invariants();

        // Scrambled: hosts mix the two clusters.
        let mut scrambled = SummaryTree::new("bk", vec![3, 4]);
        let root_s = scrambled.root();
        let s1 = scrambled.create_internal(root_s);
        let s2 = scrambled.create_internal(root_s);
        for (host, labels) in [(s1, [0u16, 0]), (s1, [2, 2]), (s2, [0, 1]), (s2, [2, 3])] {
            let k = key(&labels);
            scrambled.create_leaf(host, k.clone());
            scrambled.add_to_cell(&k, SourceId(1), 1.0, &[1.0, 1.0], None);
        }
        scrambled.check_invariants();

        let cu_good = category_utility(&coherent, root, None);
        let cu_bad = category_utility(&scrambled, root_s, None);
        assert!(
            cu_good > cu_bad,
            "coherent {cu_good} should beat scrambled {cu_bad}"
        );
    }

    #[test]
    fn cu_of_childless_node_is_zero() {
        let t = SummaryTree::new("bk", vec![2, 2]);
        assert_eq!(category_utility(&t, t.root(), None), 0.0);
    }

    /// Adding a cell identical to a child's content scores better into
    /// that child than into a dissimilar one.
    #[test]
    fn pending_insertion_prefers_similar_child() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[2, 3]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 2.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 2.0, &[1.0, 1.0], None);

        // Incoming cell (0,1): closer to child a (shares label 0 on attr 0).
        let incoming = [LabelId(0), LabelId(1)];
        let into_a = category_utility(&t, root, Some((0, &incoming, 1.0)));
        let into_b = category_utility(&t, root, Some((1, &incoming, 1.0)));
        assert!(into_a > into_b, "into_a {into_a} vs into_b {into_b}");
    }

    /// A cell completely unlike both children should prefer a new
    /// singleton child.
    #[test]
    fn dissimilar_cell_prefers_new_child() {
        let mut t = SummaryTree::new("bk", vec![3, 4]);
        let root = t.root();
        let ka = key(&[0, 0]);
        let kb = key(&[0, 1]);
        t.create_leaf(root, ka.clone());
        t.create_leaf(root, kb.clone());
        t.add_to_cell(&ka, SourceId(1), 3.0, &[1.0, 1.0], None);
        t.add_to_cell(&kb, SourceId(1), 3.0, &[1.0, 1.0], None);

        let incoming = [LabelId(2), LabelId(3)];
        let best_existing = (0..2)
            .map(|i| category_utility(&t, root, Some((i, &incoming, 1.0))))
            .fold(f64::NEG_INFINITY, f64::max);
        let as_new = category_utility_with_new_child(&t, root, &incoming, 1.0);
        assert!(
            as_new > best_existing,
            "new {as_new} vs existing {best_existing}"
        );
    }
}
