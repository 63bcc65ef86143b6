//! # acep-stats
//!
//! Sliding-window statistics maintenance for the `acep` adaptive CEP
//! engine: the *dedicated statistics component* of the paper's ACEP
//! architecture (Fig. 2), which continuously re-estimates event arrival
//! rates and predicate selectivities and hands snapshots to the optimizer.
//!
//! * [`dgim`] — the exponential-histogram sliding-window counter of Datar,
//!   Gionis, Indyk & Motwani (the paper's reference \[27\]): ε-approximate
//!   event counts over a time window in logarithmic memory.
//! * [`rates`] — per-type arrival-rate estimators (DGIM-backed, plus an
//!   exact ring-buffer reference implementation).
//! * [`sample`] — bounded buffers of recent events per type, used for
//!   pair selectivity estimation.
//! * [`selectivity`] — pair selectivity estimation by evaluating the
//!   pattern's inter-event predicates over sampled event pairs.
//! * [`snapshot`] — [`StatSnapshot`]: the `Stat` vector the paper's plan
//!   generation algorithm `A` and decision function `D` consume.
//! * [`collector`] — [`StatisticsCollector`]: glues the above together
//!   for all branches of a canonical pattern, and counts unary
//!   selectivities over the rate window.
//! * [`variance`] — running mean/variance trackers (used by the
//!   violation-probability invariant selection strategy, paper §3.5).

pub mod collector;
pub mod dgim;
pub mod rates;
pub mod sample;
pub mod selectivity;
pub mod snapshot;
pub mod variance;

pub use collector::{CollectorState, RateState, SharedSnapshot, StatisticsCollector, StatsConfig};
pub use dgim::ExponentialHistogram;
pub use rates::{DgimRateEstimator, ExactRateEstimator, RateEstimator};
pub use sample::EventSample;
pub use selectivity::SelectivityEstimator;
pub use snapshot::StatSnapshot;
pub use variance::{Ewma, RunningStats};
