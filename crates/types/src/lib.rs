//! # acep-types
//!
//! Core data model for the `acep` adaptive complex event processing (CEP)
//! library: events, attribute values, event-type schemas, the pattern
//! specification language (sequence, conjunction, disjunction, negation,
//! Kleene closure, predicates, time windows), and the canonical pattern
//! form consumed by the planner and the evaluation engines.
//!
//! This crate is dependency-free and deliberately small; it is shared by
//! every other crate in the workspace.
//!
//! ## Pattern model
//!
//! A [`Pattern`] pairs a [`PatternExpr`] (the operator tree) with a set of
//! [`Predicate`]s over the pattern's primitive events and a time window.
//! Primitive events are identified by [`VarId`]s assigned in left-to-right
//! order of appearance, mirroring the SASE-style declaration used by the
//! paper:
//!
//! ```text
//! PATTERN SEQ(A a, B b, C c)
//! WHERE a.person_id = b.person_id AND b.person_id = c.person_id
//! WITHIN 10 minutes
//! ```
//!
//! ```
//! use acep_types::prelude::*;
//!
//! let mut registry = SchemaRegistry::new();
//! let a = registry.register("A", &["person_id"]);
//! let b = registry.register("B", &["person_id"]);
//! let c = registry.register("C", &["person_id"]);
//!
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
//! assert_eq!(pattern.canonical().branches.len(), 1);
//! ```

pub mod batch;
pub mod canonical;
pub mod disorder;
pub mod error;
pub mod event;
pub mod faultpoint;
pub mod partition;
pub mod pattern;
pub mod predicate;
pub mod program;
pub mod ring;
pub mod schema;
pub mod selection;
pub mod value;

pub use batch::{RoutedEvent, ShardBatch};
pub use canonical::{
    CanonicalPattern, CompiledCondition, CondVars, NegatedSlot, Slot, SubKind, SubPattern,
};
pub use disorder::{DisorderConfig, LatenessPolicy, SourceId, WatermarkStrategy};
pub use error::AcepError;
pub use event::{Event, EventTypeId, Timestamp};
pub use faultpoint::FaultPoint;
pub use partition::{
    mix64, value_key, AttrKeyExtractor, KeyExtractor, LastAttrKeyExtractor, TypeKeyExtractor,
};
pub use pattern::{Pattern, PatternBuilder, PatternExpr};
pub use predicate::{attr, attr_plus, constant, CmpOp, Operand, Predicate, VarId};
pub use program::{PairGroup, Programs};
pub use ring::{RingStats, SpscRing};
pub use schema::{AttrId, EventSchema, SchemaRegistry};
pub use selection::SelectionPolicy;
pub use value::Value;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::canonical::{CanonicalPattern, SubKind, SubPattern};
    pub use crate::disorder::{DisorderConfig, LatenessPolicy, SourceId, WatermarkStrategy};
    pub use crate::error::AcepError;
    pub use crate::event::{Event, EventTypeId, Timestamp};
    pub use crate::partition::{AttrKeyExtractor, KeyExtractor, LastAttrKeyExtractor};
    pub use crate::pattern::{Pattern, PatternExpr};
    pub use crate::predicate::{attr, attr_plus, constant, CmpOp, Operand, Predicate, VarId};
    pub use crate::schema::{AttrId, EventSchema, SchemaRegistry};
    pub use crate::selection::SelectionPolicy;
    pub use crate::value::Value;
}
