//! Approximate answering (§5.2.2).
//!
//! *"A distinctive feature of our approach is that a query can be
//! processed entirely in the summary domain."* The selected summaries
//! `Z_Q` are grouped into **classes**: summaries with the same
//! characteristics on every predicate attribute. Within a class, the
//! answer for each selection-list attribute is the union of descriptors
//! — e.g. for the paper's query, classes `{female, underweight,
//! anorexia}` and `{female, normal, anorexia}` both answer
//! `age = {young}`.

use std::collections::BTreeMap;

use fuzzy::bk::BackgroundKnowledge;
use fuzzy::descriptor::DescriptorSet;

use crate::hierarchy::SummaryTree;

use super::proposition::{Proposition, SummaryQuery};
use super::selection::select_most_abstract;

/// One interpretation class with its aggregated answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxAnswer {
    /// Per predicate attribute: the descriptors this class carries
    /// (always a subset of the clause set — certainty guarantees it).
    pub class: Vec<(usize, DescriptorSet)>,
    /// Per selection-list attribute: the union of descriptors over the
    /// class — the approximate answer itself.
    pub answer: Vec<(usize, DescriptorSet)>,
    /// Total tuple weight behind the class (how "typical" it is).
    pub weight: f64,
}

impl ApproxAnswer {
    /// Renders the answer with label names:
    /// `[female, underweight, anorexia] => age = {young} (weight 2.0)`.
    pub fn render(&self, bk: &BackgroundKnowledge) -> String {
        let fmt_sets = |sets: &[(usize, DescriptorSet)]| {
            sets.iter()
                .map(|(attr, set)| {
                    let vocab = bk.attribute_at(*attr).expect("attr in bk");
                    let labels: Vec<&str> =
                        set.iter().filter_map(|l| vocab.label_name(l)).collect();
                    format!("{} = {{{}}}", vocab.name(), labels.join(", "))
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "[{}] => {} (weight {:.2})",
            fmt_sets(&self.class),
            fmt_sets(&self.answer),
            self.weight
        )
    }
}

/// Computes the approximate answer to a reformulated query against a
/// summary hierarchy, without touching any raw record.
pub fn approximate_answer(tree: &SummaryTree, query: &SummaryQuery) -> Vec<ApproxAnswer> {
    approximate_answer_inner(tree, &query.proposition, &query.selection_attrs)
}

/// Numeric statistics accompanying one interpretation class: the
/// attribute-dependent measures every summary stores (§3.2.1 — count,
/// min, max, mean, standard deviation).
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// BK attribute index.
    pub attr: usize,
    /// Aggregated statistics over the class's extent.
    pub stats: relation::stats::AttributeStats,
}

/// Like [`approximate_answer`], but each class additionally carries the
/// merged numeric statistics of the selection attributes — so a
/// decision-support user gets "age = {young}, mean 12.4 ± 3.1 over
/// [6, 17]" instead of the descriptor alone.
pub fn approximate_answer_with_stats(
    tree: &SummaryTree,
    query: &SummaryQuery,
) -> Vec<(ApproxAnswer, Vec<ClassStats>)> {
    let zq = select_most_abstract(tree, &query.proposition);
    // Group the selected summaries into classes exactly as
    // `approximate_answer` does, but keep the node lists around to
    // aggregate their statistics.
    let mut class_nodes: BTreeMap<Vec<(usize, u128)>, Vec<crate::hierarchy::NodeId>> =
        BTreeMap::new();
    for z in zq {
        let node = tree.node(z);
        let class_key: Vec<(usize, u128)> = query
            .proposition
            .clauses
            .iter()
            .map(|c| (c.attr, node.intent()[c.attr].0))
            .collect();
        class_nodes.entry(class_key).or_default().push(z);
    }
    let answers = approximate_answer(tree, query);
    answers
        .into_iter()
        .map(|answer| {
            let key: Vec<(usize, u128)> = answer.class.iter().map(|(a, s)| (*a, s.0)).collect();
            let nodes = class_nodes.get(&key).cloned().unwrap_or_default();
            let stats = query
                .selection_attrs
                .iter()
                .map(|&attr| {
                    let mut acc = relation::stats::AttributeStats::new();
                    for &z in &nodes {
                        acc.merge(&tree.stats_of(z)[attr]);
                    }
                    ClassStats { attr, stats: acc }
                })
                .collect();
            (answer, stats)
        })
        .collect()
}

fn approximate_answer_inner(
    tree: &SummaryTree,
    prop: &Proposition,
    selection_attrs: &[usize],
) -> Vec<ApproxAnswer> {
    let zq = select_most_abstract(tree, prop);
    // Class key: the summary's descriptor sets restricted to the
    // predicate attributes ("same required characteristics on all
    // predicates").
    type ClassAccumulator = (Vec<(usize, DescriptorSet)>, f64);
    let mut classes: BTreeMap<Vec<(usize, u128)>, ClassAccumulator> = BTreeMap::new();
    for z in zq {
        let node = tree.node(z);
        let class_key: Vec<(usize, u128)> = prop
            .clauses
            .iter()
            .map(|c| (c.attr, node.intent()[c.attr].0))
            .collect();
        let entry = classes.entry(class_key).or_insert_with(|| {
            (
                selection_attrs
                    .iter()
                    .map(|&a| (a, DescriptorSet::EMPTY))
                    .collect(),
                0.0,
            )
        });
        for (attr, set) in entry.0.iter_mut() {
            *set = set.union(node.intent()[*attr]);
        }
        entry.1 += node.count();
    }
    classes
        .into_iter()
        .map(|(key, (answer, weight))| ApproxAnswer {
            class: key
                .into_iter()
                .map(|(a, bits)| (a, DescriptorSet(bits)))
                .collect(),
            answer,
            weight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SourceId;
    use crate::engine::{EngineConfig, SaintEtiQEngine};
    use crate::query::proposition::reformulate;
    use fuzzy::bk::BackgroundKnowledge;
    use relation::query::SelectQuery;
    use relation::schema::Schema;
    use relation::table::Table;
    use relation::value::Value;

    fn summarized_table1() -> (SummaryTree, BackgroundKnowledge) {
        let bk = BackgroundKnowledge::medical_cbk();
        let mut e = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(1),
        )
        .unwrap();
        e.summarize_table(&Table::patient_table1());
        (e.into_tree(), bk)
    }

    /// The paper's §5.2.2 example: the output set for both classes is
    /// `age = {young}` — "all female patients diagnosed with anorexia and
    /// having an underweight or normal BMI are young girls."
    #[test]
    fn paper_approximate_answer() {
        let (tree, bk) = summarized_table1();
        let sq = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
        let answers = approximate_answer(&tree, &sq);
        assert!(!answers.is_empty());

        let age_attr = bk.attribute_index("age").unwrap();
        let age_vocab = bk.attribute_at(age_attr).unwrap();
        let young = age_vocab.label_id("young").unwrap();
        for ans in &answers {
            let (_, age_set) = ans.answer.iter().find(|(a, _)| *a == age_attr).unwrap();
            assert_eq!(age_set.len(), 1, "answer is exactly one descriptor");
            assert!(age_set.contains(young), "age = {{young}}");
        }
        // Total weight behind the answers covers t1 and t3.
        let total: f64 = answers.iter().map(|a| a.weight).sum();
        assert!((total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_readable() {
        let (tree, bk) = summarized_table1();
        let sq = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
        let answers = approximate_answer(&tree, &sq);
        let text = answers[0].render(&bk);
        assert!(text.contains("age = {young}"), "{text}");
        assert!(text.contains("anorexia"), "{text}");
    }

    #[test]
    fn classes_split_on_predicate_characteristics() {
        // Distinct bmi readings (underweight vs normal) form distinct
        // classes when both satisfy the clause.
        let (tree, bk) = summarized_table1();
        let q = SelectQuery::new(
            vec!["age".into()],
            vec![relation::predicate::Predicate::eq("sex", "female")],
        );
        let sq = reformulate(&q, &bk).unwrap();
        let answers = approximate_answer(&tree, &sq);
        // All of Table 1's female patients are young; classes may merge
        // or split depending on tree shape, but every answer is young.
        let age_attr = bk.attribute_index("age").unwrap();
        for ans in &answers {
            let (_, set) = ans.answer.iter().find(|(a, _)| *a == age_attr).unwrap();
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn no_answers_for_unmatched_query() {
        let (tree, bk) = summarized_table1();
        let q = SelectQuery::new(
            vec!["age".into()],
            vec![relation::predicate::Predicate::eq("disease", "diabetes")],
        );
        let sq = reformulate(&q, &bk).unwrap();
        assert!(approximate_answer(&tree, &sq).is_empty());
    }

    #[test]
    fn stats_enriched_answers_carry_real_moments() {
        let (tree, bk) = summarized_table1();
        let sq = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
        let enriched = approximate_answer_with_stats(&tree, &sq);
        assert!(!enriched.is_empty());
        let age_attr = bk.attribute_index("age").unwrap();
        // The paper's matching cohort is t1 (15) and t3 (18): the class
        // statistics must bracket those raw values.
        let mut total_count = 0.0;
        for (_, stats) in &enriched {
            let s = stats.iter().find(|cs| cs.attr == age_attr).unwrap();
            total_count += s.stats.count();
            if s.stats.count() > 0.0 {
                assert!(s.stats.min().unwrap() >= 15.0);
                assert!(s.stats.max().unwrap() <= 18.0);
                let mean = s.stats.mean().unwrap();
                assert!((15.0..=18.0).contains(&mean), "mean {mean}");
            }
        }
        assert!((total_count - 2.0).abs() < 1e-9, "two matching tuples");
    }

    #[test]
    fn stats_align_with_descriptor_answers() {
        // Every enriched answer pairs with the plain answer for the same
        // class key, in the same order.
        let (tree, bk) = summarized_table1();
        let sq = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
        let plain = approximate_answer(&tree, &sq);
        let enriched = approximate_answer_with_stats(&tree, &sq);
        assert_eq!(plain.len(), enriched.len());
        for (p, (e, stats)) in plain.iter().zip(&enriched) {
            assert_eq!(p.class, e.class);
            assert_eq!(p.answer, e.answer);
            assert_eq!(stats.len(), sq.selection_attrs.len());
        }
    }

    #[test]
    fn answer_weight_reflects_typicality() {
        let bk = BackgroundKnowledge::medical_cbk();
        let mut e = SaintEtiQEngine::new(
            bk.clone(),
            &Schema::patient(),
            EngineConfig::default(),
            SourceId(1),
        )
        .unwrap();
        let mut table = Table::new(Schema::patient());
        // 10 young malaria patients, 1 old one.
        for _ in 0..10 {
            table
                .insert(vec![
                    Value::Int(10),
                    Value::text("male"),
                    Value::Float(21.0),
                    Value::text("malaria"),
                ])
                .unwrap();
        }
        table
            .insert(vec![
                Value::Int(80),
                Value::text("male"),
                Value::Float(21.0),
                Value::text("malaria"),
            ])
            .unwrap();
        e.summarize_table(&table);

        let q = SelectQuery::new(
            vec!["age".into()],
            vec![relation::predicate::Predicate::eq("disease", "malaria")],
        );
        let sq = reformulate(&q, &bk).unwrap();
        let answers = approximate_answer(e.tree(), &sq);
        let total: f64 = answers.iter().map(|a| a.weight).sum();
        assert!((total - 11.0).abs() < 1e-6);
        // The young reading dominates by weight — "malaria patients are
        // typically young".
        let age_attr = bk.attribute_index("age").unwrap();
        let young = bk
            .attribute_at(age_attr)
            .unwrap()
            .label_id("young")
            .unwrap();
        let young_weight: f64 = answers
            .iter()
            .filter(|a| {
                a.answer
                    .iter()
                    .any(|(attr, set)| *attr == age_attr && set.contains(young))
            })
            .map(|a| a.weight)
            .sum();
        assert!(young_weight >= 10.0);
    }
}
