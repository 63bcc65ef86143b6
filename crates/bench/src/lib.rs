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
//! * [`smoke`] — the reduced per-commit performance probe CI runs and
//!   uploads as `BENCH_smoke.json`.

pub mod experiments;
pub mod harness;
pub mod smoke;

pub use experiments::{
    appendix, fig5, fig6to9, method_comparison, methods, table1, Combo, ComboInputs, MethodRow,
    Scale, COMBOS,
};
pub use harness::{
    best_of, estimate_d_avg, run_one, scan_distance, scan_threshold, HarnessConfig, RunResult,
};
pub use smoke::{
    diff_reports, parse_points, run_scale_cores, run_smoke, ParsedPoint, ScaleCoresPoint,
    ScaleCoresReport, SmokeConfig, SmokeDiff, SmokePoint, SmokeReport, SCALE_CORES_WORKERS,
};
