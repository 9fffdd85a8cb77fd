//! # p4update-dataplane
//!
//! The BMv2-like switch model the reproduction runs on:
//!
//! - [`Uib`] / [`UibEntry`]: the Update Information Base — Table 1's
//!   registers as one record per flow, indexed by the flow's register
//!   index.
//! - [`SwitchState`]: UIB plus outgoing-link capacity accounting (the local
//!   knowledge the congestion scheduler of §7.4 relies on).
//! - [`Switch`]: the chassis — forwards data packets by the active rules
//!   (shared across all systems under test) and dispatches control traffic
//!   to the [`SwitchLogic`] it holds by value. This crate cannot name the
//!   systems, so the simulator's `SwitchImpl` enum of the three is the
//!   logic every simulated switch holds.
//! - [`SwitchLogic`] / [`ControllerLogic`]: the interface each system
//!   (P4Update, ez-Segway, Central) implements; all timing is applied by
//!   the harness to the returned [`Effect`]s, so protocol differences are
//!   the only source of measured performance differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod logic;
mod state;
mod switch;
mod uib;

pub use logic::{ControllerLogic, CtrlEffect, DropReason, Effect, Endpoint, SwitchLogic};
pub use state::SwitchState;
pub use switch::Switch;
pub use uib::{FlowPriority, HopRegister, Uib, UibEntry};
