#![warn(missing_docs)]

//! # summary-management
//!
//! A full reproduction of **“Summary Management in P2P Systems”** (Rabab
//! Hayek, Guillaume Raschia, Patrick Valduriez, Noureddine Mouaddib —
//! EDBT 2008) as a Rust workspace.
//!
//! The paper combines P2P networking and database summarization: every
//! peer compresses its relational database into a hierarchy of fuzzy
//! linguistic summaries (the SaintEtiQ model), and superpeer *domains*
//! maintain merged **global summaries** that serve simultaneously as
//!
//! * **semantic indexes** — routing queries to the peers whose data can
//!   match (peer localization), and
//! * **approximate answers** — a query can be answered entirely in the
//!   summary domain ("dead Malaria patients are typically children and
//!   old") without touching raw records.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`fuzzy`] | membership functions, linguistic variables, partitions, taxonomies, Background Knowledge |
//! | [`relation`] | typed tables, conjunctive queries, change feeds, workload generators |
//! | [`saintetiq`] | the summarization engine: mapping, Cobweb-style hierarchy, merging, valuation/selection, approximate answering, wire codec |
//! | [`p2psim`] | deterministic discrete-event simulator, BRITE-style topologies, churn models |
//! | [`summary_p2p`] | the paper's contribution: domains, cooperation lists, construction/push/pull protocols, routing policies, cost model, baselines, experiment drivers |
//!
//! ## Quickstart
//!
//! ```
//! use fuzzy::BackgroundKnowledge;
//! use relation::{SelectQuery, Table};
//! use relation::schema::Schema;
//! use saintetiq::cell::SourceId;
//! use saintetiq::engine::{EngineConfig, SaintEtiQEngine};
//! use saintetiq::query::proposition::reformulate;
//!
//! // Summarize the paper's Table 1 and answer its §5.1 query
//! // approximately, without reading any tuple back.
//! let bk = BackgroundKnowledge::medical_cbk();
//! let mut engine = SaintEtiQEngine::new(
//!     bk.clone(), &Schema::patient(), EngineConfig::default(), SourceId(0),
//! ).unwrap();
//! engine.summarize_table(&Table::patient_table1());
//!
//! let q = reformulate(&SelectQuery::paper_example(), &bk).unwrap();
//! let answers = saintetiq::query::approx::approximate_answer(engine.tree(), &q);
//! assert!(answers[0].render(&bk).contains("age = {young}"));
//! ```
//!
//! The experiment harness regenerating every figure of the paper lives in
//! the `sumq-bench` crate (`cargo run -p sumq-bench --release --bin
//! fig4_stale_answers`, etc.): one binary per figure, printing its rows.

pub use fuzzy;
pub use p2psim;
pub use relation;
pub use saintetiq;
pub use summary_p2p;
