//! The ppfts benchmark: four closed-loop workloads through the crates'
//! public API, end-to-end metrics per workload, and a traced run that
//! prices each layer through forwarding wrappers.
//!
//! * [`workloads`] — the workloads, their seed-derived inputs and one run;
//! * [`harness`] — set-up, the run set, output checks, metrics;
//! * [`probe`] — the layer wrappers, call counters and span log;
//! * [`metrics`] — the metric ledger that `BENCHMARK.json` mirrors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod metrics;
pub mod probe;
pub mod workloads;
