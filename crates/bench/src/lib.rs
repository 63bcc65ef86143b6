//! # acep-bench
//!
//! Experiment harness and benchmark support regenerating every table and
//! figure of the paper's evaluation (the `experiments` binary's usage
//! text is the per-experiment index).
//!
//! * [`harness`] — run one configuration, scan `d`/`t` parameters,
//!   estimate `d_avg`;
//! * [`experiments`] — the figure/table drivers shared by the
//!   `experiments` binary and the criterion benches;
//! * [`scale_cores`] — the multicore data-plane gate behind
//!   `experiments scale-cores`.
//!
//! The criterion benches time single layers; end-to-end performance is
//! measured by the benchmark package (`benchmark/run.sh`, documented in
//! `benchmark/README.md`).

pub mod experiments;
pub mod harness;
pub mod scale_cores;

pub use experiments::{
    appendix, fig5, fig6to9, method_comparison, methods, table1, Combo, ComboInputs, MethodRow,
    Scale, COMBOS,
};
pub use harness::{
    best_of, estimate_d_avg, run_one, scan_distance, scan_threshold, HarnessConfig, RunResult,
};
