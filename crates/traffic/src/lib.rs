//! # p4update-traffic
//!
//! Workload generation for the evaluation (§9.1): gravity-model traffic
//! matrices (Roughan's synthesis) and the single-flow / multiple-flows
//! scenario builders, including the feasibility acceptance loop the paper
//! describes ("if the new flow paths are not feasible w.r.t. capacity, we
//! repeat the traffic generation").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gravity;
pub mod scenario;

pub use gravity::TrafficMatrix;
pub use scenario::{bench_workload, multi_flow, single_flow, Workload};
