#![warn(missing_docs)]

//! SaintEtiQ: the database summarization engine the paper builds on
//! (Raschia & Mouaddib 2002 \[12\]; Saint-Paul, Raschia & Mouaddib, VLDB
//! 2005 \[29\]).
//!
//! The engine turns a relational table into a hierarchy of fuzzy,
//! linguistic **summaries** through a two-step online process (§3.2):
//!
//! 1. **Mapping service** ([`mapping`]) — each record is rewritten into
//!    linguistic descriptors from the Background Knowledge; overlapping
//!    readings split the record across *grid cells* with fractional
//!    weights (Table 2 of the paper: three patients become cells `c1`
//!    (count 2), `c2` (0.7), `c3` (0.3)).
//! 2. **Summarization service** ([`engine`], [`hierarchy`]) — cells are
//!    incorporated one by one into a tree of summaries, descending from
//!    the root with Cobweb-style operators (*incorporate*, *create*,
//!    *merge*, *split*) scored by a category-utility partition score
//!    ([`score`]). Leaves are the grid cells themselves; inner nodes are
//!    hyperrectangle summaries (Definition 1).
//!
//! On top of the engine this crate implements everything the P2P layer
//! needs from the cited companion papers:
//!
//! * summary **merging** ([`merge`]) — incorporate the leaves of one
//!   hierarchy into another (Bechchi et al., CIKM 2007 \[27\]), with cost
//!   independent of the number of raw tuples;
//! * **delta reconciliation** ([`delta`]) — a per-source accumulator
//!   over merged summaries (`update_source_flat` / `remove_source`),
//!   fed each source's summary in a flat form built once, whose
//!   canonical rebuild lets global summaries be maintained by pulling
//!   only the stale subset of partners instead of re-merging everyone;
//! * **incremental maintenance** ([`maintenance`]) — a summary changes
//!   only when descriptors appear/disappear in intents, which is how
//!   partner peers decide to send `push` messages (§4.2.1);
//! * **querying** ([`query`]) — CNF valuation and the selection algorithm
//!   returning the most abstract satisfying summaries `Z_Q` (Voglozin et
//!   al., FQAS 2004 \[31\]), plus the class-based **approximate answering**
//!   of §5.2.2;
//! * **wire encoding** ([`wire`]) — a compact binary codec (on `bytes`)
//!   used to measure summary sizes (§6.1.1 estimates ~512 B per node) and
//!   to ship summaries between peers.
//!
//! Sources: every cell carries the set of *sources* (peer ids) that
//! contributed it, realizing Definition 3's **peer-extent** — the summary
//! is simultaneously a database index and a semantic network index.

pub mod cell;
pub mod delta;
pub mod engine;
pub mod error;
pub mod hierarchy;
pub mod maintenance;
pub mod mapping;
pub mod merge;
pub mod query;
pub mod score;
pub mod wire;

pub use cell::{CandidateCell, CellKey, SourceId};
pub use delta::{GsAccumulator, SourceDelta};
pub use engine::{EngineConfig, SaintEtiQEngine};
pub use error::SummaryError;
pub use hierarchy::{Intent, NodeId, SummaryTree};
pub use mapping::Mapper;
pub use query::approx::{approximate_answer, ApproxAnswer};
pub use query::proposition::{Clause, Proposition};
pub use query::selection::{select_most_abstract, Satisfaction};
