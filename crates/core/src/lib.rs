//! # p4update-core
//!
//! The P4Update framework (Zhou et al., CoNEXT '21): fast, locally
//! verifiable consistent network updates in the data plane.
//!
//! The crate is organized along the paper's structure:
//!
//! - [`segment`] — gateway detection and forward/backward segment
//!   classification for the dual-layer mechanism (§3.2); it lives beside
//!   the update model in `p4update-net`, where ez-Segway and the workload
//!   generator read the same segmentation, and is re-exported here.
//! - [`verify`](mod@verify) — Algorithms 1 and 2 as pure functions: each switch
//!   locally decides whether applying an update preserves blackhole and
//!   loop freedom (§7.1).
//! - [`congestion`] — the local, dynamic inter-flow dependency scheduler
//!   (§7.4): per-link wait queues and priority raising, entirely in the
//!   data plane.
//! - [`switch_logic`] — the complete data-plane protocol (§7.2, §8,
//!   Appendix B), plugged into the `p4update-dataplane` chassis.
//! - [`controller`] — the control plane (§6): flow database, update
//!   preparation (the Fig. 8 measurement target), strategy choice (§7.5),
//!   feedback handling.
//! - [`violation`] — the three safety properties' violation reports, with
//!   the stable text encoding the explorer's trace corpus relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod controller;
pub mod switch_logic;
pub mod verify;
pub mod violation;

pub use congestion::CongestionScheduler;
pub use controller::{
    prepare_batch, prepare_update, P4UpdateController, PreparedUpdate, Strategy, SL_NODE_THRESHOLD,
};
pub use p4update_net::segment::{self, segment_update, Segment, SegmentDir, Segmentation};
pub use switch_logic::P4UpdateLogic;
pub use verify::{verify, verify_dl, verify_sl, Verdict};
pub use violation::Violation;
