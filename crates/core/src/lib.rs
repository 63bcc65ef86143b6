//! # acep — Efficient Adaptive Detection of Complex Event Patterns
//!
//! A from-scratch Rust implementation of the invariant-based adaptive
//! complex event processing method of **Kolchinsky & Schuster (VLDB
//! 2018)**, together with every substrate it runs on: the pattern
//! language, sliding-window statistics maintenance, instrumented plan
//! generation (greedy order-based and ZStream tree-based), lazy NFA and
//! join-tree evaluation engines, and lossless on-the-fly plan migration.
//!
//! The paper's contribution lives in this crate:
//!
//! * [`invariant`] — deciding conditions selected as invariants, the
//!   K-invariant method, distance-based invariants, and the selection
//!   strategies of §3;
//! * [`policy`] — the reoptimizing decision functions `D`: the
//!   invariant-based method plus the static / unconditional /
//!   constant-threshold baselines it is evaluated against;
//! * [`distance`] — the `d_avg` average-relative-difference distance
//!   estimator of §3.4;
//! * [`controller`] — [`QueryController`], the *shared adaptation
//!   plane*: statistics + `D` + `A` + plan epochs for one query,
//!   shareable across every partition key of a shard;
//! * [`keyed`] — [`KeyedEngine`], the lean per-key evaluation half
//!   (branch executors only) with lazy epoch-tagged plan migration;
//! * [`runtime`] — [`AdaptiveCep`], the detection-adaptation loop of
//!   Algorithm 1 as the single-key controller + engine composition,
//!   and [`EngineTemplate`] for stamping out controllers and engines
//!   of one pattern cheaply.
//!
//! To run *many* patterns over a *partitioned* stream across parallel
//! worker shards, layer the `acep-stream` crate on top: it hosts one
//! [`QueryController`] per (shard, query) and one [`KeyedEngine`] per
//! (partition key, query), instantiated from [`EngineTemplate`]s, with
//! batched ingestion and aggregated observability.
//!
//! ## Quickstart
//!
//! ```
//! use acep_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Register event types and declare the paper's Example 1 pattern:
//! // SEQ(A, B, C) with matching person ids within 10 minutes.
//! let mut registry = SchemaRegistry::new();
//! let a = registry.register("A", &["person_id"]);
//! let b = registry.register("B", &["person_id"]);
//! let c = registry.register("C", &["person_id"]);
//! let pattern = Pattern::builder("intrusion")
//!     .expr(PatternExpr::seq([
//!         PatternExpr::prim(a),
//!         PatternExpr::prim(b),
//!         PatternExpr::prim(c),
//!     ]))
//!     .condition(attr(0, 0).eq(attr(1, 0)))
//!     .condition(attr(1, 0).eq(attr(2, 0)))
//!     .window(10 * 60 * 1000)
//!     .build()
//!     .unwrap();
//!
//! // Run the adaptive engine with the invariant-based decision method.
//! let mut engine = AdaptiveCep::new(&pattern, registry.len(), AdaptiveConfig::default()).unwrap();
//! let mut matches = Vec::new();
//! for (i, ty) in [a, b, c].into_iter().enumerate() {
//!     let ev = Event::new(ty, (i as u64) * 1000, i as u64, vec![Value::Int(7)]);
//!     engine.on_event(&ev, &mut matches);
//! }
//! engine.finish(&mut matches);
//! assert_eq!(matches.len(), 1);
//! ```

pub mod controller;
pub mod distance;
pub mod invariant;
pub mod keyed;
pub mod policy;
pub mod runtime;

pub use controller::{AdaptationStats, QueryController};
pub use distance::{average_invariant_relative_difference, average_relative_difference};
pub use invariant::{Invariant, InvariantSet, SelectionStrategy};
pub use keyed::KeyedEngine;
pub use policy::{
    ConstantThresholdPolicy, DeviationMode, InvariantPolicy, InvariantPolicyConfig, PolicyKind,
    ReoptOutcome, ReoptPolicy, StaticPolicy, UnconditionalPolicy,
};
pub use runtime::{AdaptiveCep, AdaptiveConfig, AdaptiveMetrics, EngineTemplate};

/// Commonly used items across the whole stack.
pub mod prelude {
    pub use crate::controller::{AdaptationStats, QueryController};
    pub use crate::invariant::SelectionStrategy;
    pub use crate::keyed::KeyedEngine;
    pub use crate::policy::{DeviationMode, InvariantPolicyConfig, PolicyKind};
    pub use crate::runtime::{AdaptiveCep, AdaptiveConfig, AdaptiveMetrics, EngineTemplate};
    pub use acep_engine::{Match, StaticEngine};
    pub use acep_plan::{EvalPlan, PlannerKind};
    pub use acep_stats::{StatSnapshot, StatsConfig};
    pub use acep_types::prelude::*;
}
