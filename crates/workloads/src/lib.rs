//! # acep-workloads
//!
//! Synthetic workloads reproducing the *statistical profiles* of the two
//! real-world datasets of the paper's evaluation (§5.1), plus the five
//! pattern sets used across its figures.
//!
//! The real datasets (City of Aarhus traffic sensors; NASDAQ price
//! updates) are not redistributable, so this crate implements generators
//! that reproduce exactly the properties the paper says drive the
//! results:
//!
//! * [`traffic`] — highly skewed, stable arrival rates and
//!   selectivities; rare but extreme shifts;
//! * [`stocks`] — near-uniform initial statistics with highly frequent
//!   but minor drift;
//! * [`patterns`] — the five pattern sets (sequence, conjunction,
//!   negation, Kleene, composite) at sizes 3–8;
//! * [`scenario`] — reproducible bundles of registry + stream +
//!   patterns, keyed by an RNG seed so competing adaptation methods see
//!   byte-identical input;
//! * [`disorder`] — bounded out-of-order delivery generators (per-event
//!   jitter, per-source skew) for exercising event-time ingestion;
//! * [`iot`] — adversarial IoT-fleet scenario: 100k+ partition keys,
//!   Zipf-skewed device traffic, correlated cross-device bursts;
//! * [`mod@clickstream`] — adversarial clickstream-funnel scenario: deep
//!   `SEQ` with heavy negation and pathological per-source lateness.

pub mod clickstream;
pub mod disorder;
pub mod iot;
pub mod model;
pub mod partition;
pub mod patterns;
pub mod sampling;
pub mod scenario;
pub mod stocks;
pub mod traffic;

pub use clickstream::{clickstream, clickstream_tagged, ClickstreamConfig};
pub use disorder::{bounded_shuffle, max_disorder, source_skew, source_skew_tagged};
pub use iot::{iot_fleet, IotConfig};
pub use model::{empirical_rates, DatasetModel, StreamGenerator};
pub use partition::{events_for_key, keyed_events, merge_streams, offset_types};
pub use patterns::{build_pattern, pattern_set, DatasetKind, PatternSetKind, PATTERN_SIZES};
pub use scenario::{Scenario, ScenarioConfig};
pub use stocks::{StocksConfig, StocksModel};
pub use traffic::{TrafficConfig, TrafficModel};
