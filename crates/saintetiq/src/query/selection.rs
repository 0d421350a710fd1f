//! Valuation and selection (§5.2; FQAS 2004 \[31\]).
//!
//! The proposition `P` is valuated in the context of each summary `z` by
//! comparing `z`'s intent to every clause:
//!
//! * every intent descriptor of the clause's attribute lies in the clause
//!   → **certain** (all of `z`'s content satisfies the predicate);
//! * some but not all → **possible** (descend for precision);
//! * none → **no** (prune the whole subtree: children specialize, so they
//!   cannot satisfy either).
//!
//! The selection algorithm performs "a fast exploration of the hierarchy
//! and returns the set `Z_Q` of most abstract summaries that satisfy the
//! query": certain nodes are reported without descending.

use fuzzy::descriptor::DescriptorSet;

use crate::hierarchy::{NodeId, SummaryTree};

use super::proposition::Proposition;

/// Three-valued clause/proposition satisfaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Satisfaction {
    /// Every tuple described by the summary satisfies the proposition.
    Certain,
    /// Some descriptors match, some do not — children must be examined.
    Possible,
    /// No tuple described by the summary can satisfy the proposition.
    No,
}

/// Valuates `prop` against an intent, one descriptor set per attribute.
pub fn valuate(prop: &Proposition, intent: &[DescriptorSet]) -> Satisfaction {
    let mut all_certain = true;
    for clause in &prop.clauses {
        let have = intent[clause.attr];
        if have.is_empty() {
            // An empty attribute set means "no content": nothing to match.
            return Satisfaction::No;
        }
        if have.is_subset_of(&clause.set) {
            continue;
        }
        if have.intersects(&clause.set) {
            all_certain = false;
        } else {
            return Satisfaction::No;
        }
    }
    if all_certain {
        Satisfaction::Certain
    } else {
        Satisfaction::Possible
    }
}

/// The selection algorithm: returns `Z_Q`, the most abstract summaries
/// certainly satisfying the proposition, in DFS order.
///
/// Leaves valuate to either certain or no (their per-attribute intents
/// are singletons), so `Possible` only triggers descent.
pub fn select_most_abstract(tree: &SummaryTree, prop: &Proposition) -> Vec<NodeId> {
    if prop.is_unsatisfiable() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        if node.count() <= 0.0 {
            continue;
        }
        match valuate(prop, node.intent()) {
            Satisfaction::Certain => out.push(id),
            Satisfaction::Possible => stack.extend(node.children().rev()),
            Satisfaction::No => {}
        }
    }
    out
}

/// Brute-force reference: the cells (leaves) whose single labels satisfy
/// every clause — the ground truth [`select_most_abstract`] must cover.
/// Only used by tests and debug assertions; O(#cells · #clauses).
pub fn satisfying_cells(tree: &SummaryTree, prop: &Proposition) -> Vec<crate::cell::CellKey> {
    tree.cells()
        .map(|cell| cell.key())
        .filter(|key| prop.clauses.iter().all(|c| c.set.contains(key[c.attr])))
        .map(|key| crate::cell::CellKey(key.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKey, SourceId};
    use crate::engine::{incorporate_cell, EngineConfig, SaintEtiQEngine};
    use crate::query::proposition::{reformulate, Clause};
    use fuzzy::bk::BackgroundKnowledge;
    use fuzzy::descriptor::{DescriptorSet, LabelId};
    use proptest::prelude::*;
    use relation::query::SelectQuery;
    use relation::schema::Schema;
    use relation::table::Table;

    fn key(labels: &[u16]) -> CellKey {
        CellKey(labels.iter().map(|&l| LabelId(l)).collect())
    }

    fn intent_of(sets: &[&[u16]]) -> Vec<DescriptorSet> {
        sets.iter()
            .map(|ls| DescriptorSet::from_labels(ls.iter().map(|&l| LabelId(l))))
            .collect()
    }

    #[test]
    fn valuation_three_values() {
        let prop = Proposition {
            clauses: vec![Clause {
                attr: 0,
                set: DescriptorSet::from_labels([LabelId(0), LabelId(1)]),
            }],
        };
        assert_eq!(
            valuate(&prop, &intent_of(&[&[0], &[5]])),
            Satisfaction::Certain
        );
        assert_eq!(
            valuate(&prop, &intent_of(&[&[0, 1], &[5]])),
            Satisfaction::Certain
        );
        assert_eq!(
            valuate(&prop, &intent_of(&[&[0, 2], &[5]])),
            Satisfaction::Possible
        );
        assert_eq!(valuate(&prop, &intent_of(&[&[2], &[5]])), Satisfaction::No);
        assert_eq!(valuate(&prop, &intent_of(&[&[], &[5]])), Satisfaction::No);
    }

    #[test]
    fn empty_proposition_is_certain() {
        let prop = Proposition::default();
        assert_eq!(
            valuate(&prop, &intent_of(&[&[1], &[2]])),
            Satisfaction::Certain
        );
    }

    #[test]
    fn selection_returns_most_abstract() {
        // Tree: two clusters; query matches exactly one whole cluster →
        // the cluster host (not its leaves) must be returned.
        let mut t = SummaryTree::new("bk", vec![4, 4]);
        let cfg = EngineConfig::default();
        for labels in [[0u16, 0], [0, 1], [3, 2], [3, 3]] {
            incorporate_cell(
                &mut t,
                &cfg,
                &key(&labels),
                SourceId(1),
                2.0,
                &[1.0, 1.0],
                None,
            );
        }
        t.check_invariants();
        let prop = Proposition {
            clauses: vec![Clause {
                attr: 0,
                set: DescriptorSet::singleton(LabelId(0)),
            }],
        };
        let zq = select_most_abstract(&t, &prop);
        assert!(!zq.is_empty());
        // Every selected node is certain, and no selected node's parent is.
        for &z in &zq {
            assert_eq!(valuate(&prop, t.node(z).intent()), Satisfaction::Certain);
            if let Some(p) = t.node(z).parent() {
                assert_ne!(
                    valuate(&prop, t.node(p).intent()),
                    Satisfaction::Certain,
                    "parent of a selected node must not be certain"
                );
            }
        }
        // The two matching cells are covered by the selection.
        let mut covered = 0.0;
        for &z in &zq {
            covered += t.node(z).count();
        }
        assert!((covered - 4.0).abs() < 1e-9, "both (0,*) cells selected");
    }

    #[test]
    fn unsatisfiable_proposition_selects_nothing() {
        let mut t = SummaryTree::new("bk", vec![2, 2]);
        incorporate_cell(
            &mut t,
            &EngineConfig::default(),
            &key(&[0, 0]),
            SourceId(1),
            1.0,
            &[1.0, 1.0],
            None,
        );
        let prop = Proposition {
            clauses: vec![Clause {
                attr: 0,
                set: DescriptorSet::EMPTY,
            }],
        };
        assert!(select_most_abstract(&t, &prop).is_empty());
    }

    /// End-to-end: paper query over Table 1's summary selects summaries
    /// covering exactly t1 and t3.
    #[test]
    fn paper_query_on_table1_summary() {
        let bk = BackgroundKnowledge::medical_cbk();
        let mut e = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(1),
        )
        .unwrap();
        e.summarize_table(&Table::patient_table1());
        let tree = e.tree();

        let sq = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
        let zq = select_most_abstract(tree, &sq.proposition);
        assert!(!zq.is_empty());
        let covered: f64 = zq.iter().map(|&z| tree.node(z).count()).sum();
        // t1 and t3 weigh 1.0 each (cell c1 holds both); t2's cells
        // (male, malaria) must be excluded.
        assert!((covered - 2.0).abs() < 1e-9, "covered {covered}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `select_most_abstract` covers exactly the cells the brute-force
        /// reference finds, for random trees and random propositions —
        /// the core correctness property of summary-based routing.
        #[test]
        fn selection_equals_bruteforce(
            cells in prop::collection::btree_set((0u16..4, 0u16..4), 1..14),
            clause0 in 1u128..16,
            clause1 in 1u128..16,
        ) {
            let mut t = SummaryTree::new("bk", vec![4, 4]);
            let cfg = EngineConfig::default();
            for (i, &(a, b)) in cells.iter().enumerate() {
                incorporate_cell(
                    &mut t,
                    &cfg,
                    &key(&[a, b]),
                    SourceId(i as u32),
                    1.0,
                    &[1.0, 1.0],
                    None,
                );
            }
            t.check_invariants();
            let prop_q = Proposition {
                clauses: vec![
                    Clause { attr: 0, set: DescriptorSet(clause0) },
                    Clause { attr: 1, set: DescriptorSet(clause1) },
                ],
            };
            // Selected subtrees must cover exactly the brute-force cells.
            let zq = select_most_abstract(&t, &prop_q);
            let mut covered: Vec<CellKey> = Vec::new();
            for &z in &zq {
                t.for_each_leaf(z, |k, _| covered.push(CellKey(k.to_vec())));
            }
            covered.sort();
            let mut expected = satisfying_cells(&t, &prop_q);
            expected.sort();
            prop_assert_eq!(covered, expected);
            // And no two selected nodes overlap (most-abstract = disjoint).
            let total: f64 = zq.iter().map(|&z| t.node(z).count()).sum();
            let expected_mass = satisfying_cells(&t, &prop_q).len() as f64;
            prop_assert!((total - expected_mass).abs() < 1e-9);
        }
    }

    #[test]
    fn selection_skips_drained_nodes() {
        let mut t = SummaryTree::new("bk", vec![2, 2]);
        let cfg = EngineConfig::default();
        incorporate_cell(
            &mut t,
            &cfg,
            &key(&[0, 0]),
            SourceId(1),
            1.0,
            &[1.0, 1.0],
            None,
        );
        incorporate_cell(
            &mut t,
            &cfg,
            &key(&[1, 1]),
            SourceId(2),
            1.0,
            &[1.0, 1.0],
            None,
        );
        t.remove_source(SourceId(1));
        let prop = Proposition {
            clauses: vec![Clause {
                attr: 0,
                set: DescriptorSet::singleton(LabelId(0)),
            }],
        };
        assert!(
            select_most_abstract(&t, &prop).is_empty(),
            "drained data is gone"
        );
    }
}
