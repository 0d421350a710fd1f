#![warn(missing_docs)]

//! Relational substrate for the *Summary Management in P2P Systems*
//! reproduction.
//!
//! Every peer in the paper hosts a relational database (the running example
//! is a `Patient` relation — Table 1) and a DBMS that feeds tuples to the
//! SaintEtiQ summarization service in *push mode*. This crate provides that
//! substrate from scratch:
//!
//! * [`value`] / [`schema`] / [`tuple`](mod@tuple) — typed values,
//!   attribute schemas and records;
//! * [`table`] — an in-memory table with insert/delete/update, a
//!   monotonically growing revision counter, and a change feed so the
//!   summarizer can maintain summaries incrementally;
//! * [`predicate`] / [`query`] — conjunctive selection queries (the class
//!   of queries the paper routes: `select age from Patient where
//!   sex = "female" and bmi < 19 and disease = "anorexia"`), evaluated
//!   exactly for ground truth;
//! * [`stats`] — incremental per-attribute statistics (count/min/max/
//!   mean/std) — the measures every summary stores (§3.2.1);
//! * [`generator`] — synthetic dataset generators (patients and generic
//!   numeric tables) with controllable distributions, used to realize the
//!   paper's workload ("each query is matched by 10 % of the peers").

pub mod csv;
pub mod error;
pub mod generator;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

/// The random-number crate the generators are generic over, re-exported
/// so that a dependent crate's self-checks can seed them.
#[doc(hidden)]
pub use rand;

pub use error::RelationError;
pub use predicate::{CompareOp, Predicate};
pub use query::SelectQuery;
pub use schema::{AttrType, Attribute, Schema};
pub use stats::AttributeStats;
pub use table::{ChangeKind, Table, TableChange};
pub use tuple::{Tuple, TupleId};
pub use value::Value;
