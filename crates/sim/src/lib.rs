//! # p4update-sim
//!
//! The experiment harness: assembles switches (with any system's update
//! logic), the controller, and the timing model of §9.1 into a
//! deterministic discrete-event world; injects faults; checks the paper's
//! three consistency properties after every event; and collects the
//! measurements every figure is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod config;
#[cfg(test)]
mod differential;
pub mod metrics;
pub mod network;
pub mod table;

pub use checker::{FlowSpec, Violation};
pub use config::{
    ByzantineConfig, ControlLatency, FaultConfig, InstallDelay, SimConfig, TimingConfig,
};
pub use metrics::{Metrics, MetricsCounts, StreamingMetrics};
pub use network::{
    batch_simulation, simulation, ByzDisposition, ByzOutcome, Event, NetworkSim, SwitchImpl, System,
};
pub use p4update_messages::ByzVector;
pub use table::SwitchTable;
