//! The OLTP workloads the paper evaluates with: Nokia's TM1 (Network
//! Database Benchmark), transactions from TPC-C, and TPC-B.
//!
//! Each workload provides the schema, a scaled data loader and a transaction
//! mix in which every transaction is defined **exactly once** as a
//! declarative `dora_core::TxnProgram` — an ordered list of typed steps with
//! explicit rendezvous points. `TxnProgram::prepare` lowers that single
//! definition once into a `PreparedProgram`, which each execution engine
//! runs its own way: the conventional engine runs the steps in order under
//! full centralized concurrency control (`run_baseline`), DORA runs the
//! transaction flow graph of Section 4.1.2 (`flow_graph`: actions with
//! routing-field identifiers, phases split at the RVPs).
//!
//! All workloads route on the leading primary-key column (subscriber id,
//! warehouse id, branch id, counter id), the choice the paper recommends.
//!
//! Beyond the paper's three benchmarks, [`skewed`] adds a zipfian
//! counter workload (backed by the [`zipf`] generators) whose hot range can
//! drift over time — the adversarial distribution the adaptive
//! repartitioning subsystem is exercised with — and [`fanout`] adds a
//! high-fan-out counter workload whose every transaction sprays actions
//! across the whole executor set, the stress test for the batched message
//! path measured by the `dispatch` benchmark.

pub mod analytics;
pub mod fanout;
pub mod skewed;
pub mod spec;
pub mod tm1;
pub mod tpcb;
pub mod tpcc;
pub mod zipf;

pub use analytics::{AnalyticalScan, ScanSink, ScanSummary};
pub use fanout::FanoutCounters;
pub use skewed::SkewedCounters;
pub use spec::{OutcomeCounts, TxnTypeStats, Workload, WorkloadStats};
pub use tm1::{Tm1, Tm1Mix};
pub use tpcb::TpcB;
pub use tpcc::{Tpcc, TpccMix};
pub use zipf::{DriftingHotSpot, Zipfian};
