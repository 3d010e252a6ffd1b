//! # asap-bench — experiment harness regenerating every table and figure
//!
//! Shared machinery for the `fig*` binaries: running a kernel variant on
//! a matrix under a simulator configuration, collecting paper-style
//! metrics (throughput in nnz/ms, L2 MPKI), and the Equal-Work harmonic
//! mean Speedup (EWS) aggregation of Section 5.

pub mod checkpoint;
pub mod cli;
pub mod ews;
pub mod pool;
pub mod predict;
pub mod run;
pub mod table;

pub use checkpoint::{cell_key, Checkpoint};
pub use cli::{linear_fit, Options, UsageError};
pub use ews::{ews_speedup, harmonic_mean};
pub use pool::{
    auto_threads, parallel_map, parallel_map_isolated, parallel_map_isolated_labeled, skip_report,
    JobFailure,
};
pub use predict::{aj_coverage, predict_asap_over_aj, predicted_advantage};
pub use run::{
    results_to_json, run_spmm, run_spmm_budgeted, run_spmm_threads, run_spmv, run_spmv_budgeted,
    run_spmv_threads, sweep_spmv_dir, ExperimentResult, SkippedMatrix, SweepReport, Variant,
};
pub use table::{fmt_f64, markdown_table};

/// Paper-fixed prefetch distance (Section 4.3).
pub const PAPER_DISTANCE: usize = 45;

/// Dense columns for SpMM with f64 values: one cache line per row
/// (Section 5.2).
pub const SPMM_COLS_F64: usize = 8;
