//! End-to-end and per-layer benchmark of the Baseline and DORA engines.
//!
//! One run loads one database per engine, drives each through the
//! `ExecutionEngine` seam with closed-loop clients for a measured window,
//! checks the tables it leaves behind, and prints every metric by name and
//! unit. See `README.md` for the workloads, the metrics and how to run it.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux's process CPU clock (`run::process_cpu_time`)");

pub mod alloc;
pub mod checks;
pub mod ops;
pub mod report;
pub mod run;
