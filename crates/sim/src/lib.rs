//! # asap-sim — an execution-driven Gracemont-like memory-hierarchy
//! simulator
//!
//! Stands in for the paper's Intel Alder Lake E-core testbed (Table 1)
//! and its MSR-controlled hardware prefetchers (Table 2). A [`Machine`]
//! implements [`asap_ir::MemoryModel`], so sparsified kernels run on it
//! directly through the IR interpreter, producing PMU-style [`Counters`]
//! (instructions, cycles, the paper's L2-miss approximation
//! `L3_HIT + DRAM_HIT`, prefetch outcomes, DRAM traffic).
//!
//! Modeled first-order effects (see DESIGN.md for the approximations):
//! finite MSHRs shared by demand misses and both kinds of prefetch,
//! DRAM bandwidth queueing, per-line fill timestamps (timeliness),
//! LRU pollution, and the six Table-2 hardware prefetchers, each
//! individually toggleable.

pub mod cache;
pub mod config;
pub mod counters;
pub mod dram;
pub mod hwpf;
pub mod machine;
pub mod mshr;
pub mod multicore;
pub mod report;
pub mod tlb;

pub use cache::{line_of, Cache, Evicted, Probe};
pub use config::{table2, CacheParams, GracemontConfig, PrefetcherConfig, LINE_BYTES};
pub use counters::Counters;
pub use dram::Dram;
pub use hwpf::{Amp, FillLevel, Ipp, NextLine, PfRequest, Streamer};
pub use machine::{Machine, Uncore};
pub use mshr::{Alloc, Mshr};
pub use multicore::{run_parallel, MulticoreResult, Recorder};
pub use report::{summarize, Rates};
pub use tlb::{Tlb, TlbConfig};
