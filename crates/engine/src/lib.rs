//! # acep-engine
//!
//! The complex-event evaluation engines of the `acep` library: the
//! runtime machinery that turns evaluation plans into matches.
//!
//! * [`order_exec`] — the lazy order-based (NFA-style) executor of the
//!   paper's reference \[36\] (Fig. 1(b)): a chain of join levels
//!   following an [`OrderPlan`](acep_plan::OrderPlan).
//! * [`tree_exec`] — the ZStream-style tree executor (paper Fig. 3):
//!   events buffered at leaves, internal nodes joining child results.
//! * [`lazy_exec`] — the lazy-chain executor: events buffered per join
//!   position, chain construction deferred until a rare-slot trigger's
//!   window closes, trading detection latency for near-zero live
//!   partial-match state.
//! * [`finalize`] — negation guards and Kleene-closure sets, applied as
//!   plan post-processing (paper §4.1) with correct window semantics.
//! * [`migration`] — live plan replacement (paper §2.2): overlapping
//!   plan generations partitioned by match start time, so replacement
//!   never loses or duplicates matches.
//! * [`composite`] — the static whole-pattern engine (one executor per
//!   disjunction branch), which is also the semantic reference for the
//!   adaptive runtime.
//!
//! * [`selection`] — selection-policy semantics (skip-till-any /
//!   skip-till-next / strict contiguity): the emit-time validation the
//!   per-policy oracles pin, plus conservative cascade/join pruning.
//!
//! * [`relevance`] — batched type-relevance pre-filtering for
//!   multi-query hosts: per-type query bitmasks packed into one table,
//!   so a host classifies a whole batch's events in one columnar pass
//!   and dispatches only to the queries whose bit is set.
//!
//! * [`buffer`] — stream-ordered event histories: every history the
//!   executors and the finalizer scan is kept in `(timestamp, seq)`
//!   order by construction, so a scan bounded in time reads one
//!   binary-searched slice.
//!
//! * [`partial`] — arena-backed partial matches: a per-executor
//!   [`PartialStore`] slab of `(slot, event, parent)` binding nodes, so
//!   extending or merging a partial is O(1)/O(shorter chain) node
//!   pushes with shared suffixes instead of per-partial event vectors
//!   (SASE+-style shared match buffer).
//!
//! Both executors expose their stored-partial-match counts and
//! comparison counters — the quantities the paper's cost model predicts —
//! so benchmarks can verify that plan quality translates into work.

pub mod buffer;
pub mod composite;
pub mod context;
pub mod executor;
pub mod finalize;
pub mod lazy_exec;
pub mod matches;
pub mod migration;
pub mod order_exec;
pub mod partial;
pub mod relevance;
pub mod selection;
pub mod tree_exec;

pub use buffer::EventBuffer;
pub use composite::StaticEngine;
pub use context::{ExecContext, NegGuard, StepMasks};
pub use executor::{build_executor, restore_executor, Executor};
pub use finalize::{Completed, Finalizer, FinalizerHistory};
pub use lazy_exec::LazyExecutor;
pub use matches::{Match, MatchKey};
pub use migration::MigratingExecutor;
pub use order_exec::OrderExecutor;
pub use partial::{Partial, PartialStore};
pub use relevance::{QueryMask, RelevanceIndex};
pub use selection::{SeenLog, SeenRef, SharedSeen};
pub use tree_exec::TreeExecutor;
