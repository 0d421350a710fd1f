//! Conjunctive selection queries, evaluated exactly.
//!
//! The exact evaluation path is the *ground truth* of the reproduction:
//! the paper's false-positive / false-negative accounting (§5.2.1, Figures
//! 4–5) compares summary-based routing decisions against which peers
//! actually hold matching tuples — which is what [`SelectQuery::evaluate`]
//! computes.

use serde::{Deserialize, Serialize};

use crate::error::RelationError;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::TupleId;
use crate::value::Value;

/// `SELECT <projection> FROM r WHERE p1 AND p2 AND ...`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectQuery {
    /// Projected attribute names (empty = `*`).
    pub projection: Vec<String>,
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
}

impl SelectQuery {
    /// Creates a query with a projection list.
    pub fn new(projection: Vec<String>, predicates: Vec<Predicate>) -> Self {
        Self {
            projection,
            predicates,
        }
    }

    /// The paper's §5.1 example:
    /// `select age from Patient where sex = 'female' and bmi < 19 and
    /// disease = 'anorexia'`.
    pub fn paper_example() -> Self {
        Self::new(
            vec!["age".into()],
            vec![
                Predicate::eq("sex", "female"),
                Predicate::lt("bmi", 19.0),
                Predicate::eq("disease", "anorexia"),
            ],
        )
    }

    /// True when the row satisfies every predicate.
    pub fn matches_row(&self, table: &Table, row: &[Value]) -> Result<bool, RelationError> {
        self.matches_values(table.schema(), row)
    }

    /// True when the row satisfies every predicate, its attributes
    /// resolved against `schema`.
    pub fn matches_values(&self, schema: &Schema, row: &[Value]) -> Result<bool, RelationError> {
        for p in &self.predicates {
            if !p.matches(schema, row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Exact evaluation: ids of matching tuples.
    pub fn evaluate(&self, table: &Table) -> Result<Vec<TupleId>, RelationError> {
        let mut out = Vec::new();
        for (id, row) in table.iter() {
            if self.matches_row(table, row)? {
                out.push(id);
            }
        }
        Ok(out)
    }

    /// Exact evaluation with projection: the projected values of matching
    /// tuples, in schema order of the projection list.
    pub fn evaluate_projected(&self, table: &Table) -> Result<Vec<Vec<Value>>, RelationError> {
        let idxs: Vec<usize> = self
            .projection
            .iter()
            .map(|name| {
                table
                    .schema()
                    .index_of(name)
                    .ok_or_else(|| RelationError::UnknownAttribute(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let mut out = Vec::new();
        for (_, row) in table.iter() {
            if self.matches_row(table, row)? {
                if idxs.is_empty() {
                    out.push(row.to_vec());
                } else {
                    out.push(idxs.iter().map(|&i| row[i].clone()).collect());
                }
            }
        }
        Ok(out)
    }

    /// True when at least one tuple matches — the per-peer relevance bit
    /// the routing metrics need.
    pub fn matches_any(&self, table: &Table) -> Result<bool, RelationError> {
        self.matches_any_row(table.schema(), table.iter().map(|(_, row)| row))
    }

    /// [`SelectQuery::matches_any`] over rows held outside a table, in
    /// the order given: true at the first matching row.
    pub fn matches_any_row<'r>(
        &self,
        schema: &Schema,
        rows: impl IntoIterator<Item = &'r [Value]>,
    ) -> Result<bool, RelationError> {
        for row in rows {
            if self.matches_values(schema, row)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl std::fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let proj = if self.projection.is_empty() {
            "*".to_string()
        } else {
            self.projection.join(", ")
        };
        write!(f, "select {proj} where ")?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_on_table1() {
        let t = Table::patient_table1();
        let q = SelectQuery::paper_example();
        let ids: Vec<u64> = q.evaluate(&t).unwrap().into_iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![1, 3]);

        let ages = q.evaluate_projected(&t).unwrap();
        assert_eq!(ages, vec![vec![Value::Int(15)], vec![Value::Int(18)]]);
        assert!(q.matches_any(&t).unwrap());
    }

    #[test]
    fn empty_projection_returns_star() {
        let t = Table::patient_table1();
        let q = SelectQuery::new(vec![], vec![Predicate::eq("sex", "male")]);
        let rows = q.evaluate_projected(&t).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn no_predicates_matches_everything() {
        let t = Table::patient_table1();
        let q = SelectQuery::new(vec!["age".into()], vec![]);
        assert_eq!(q.evaluate(&t).unwrap().len(), 3);
    }

    #[test]
    fn unknown_projection_attribute_errors() {
        let t = Table::patient_table1();
        let q = SelectQuery::new(vec!["height".into()], vec![]);
        assert!(q.evaluate_projected(&t).is_err());
    }

    #[test]
    fn display_round_trips_the_paper_query() {
        let q = SelectQuery::paper_example();
        let s = q.to_string();
        assert!(s.contains("select age"));
        assert!(s.contains("sex = female"));
        assert!(s.contains("bmi < 19"));
        assert!(s.contains("disease = anorexia"));
    }
}
