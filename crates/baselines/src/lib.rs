//! # p4update-baselines
//!
//! The two state-of-the-art systems the P4Update evaluation compares
//! against (paper §9.1), reimplemented on the same switch chassis so that
//! protocol structure is the only performance variable:
//!
//! - [`central`] — **Central**: the controller computes greedy dependency
//!   rounds (Mahajan–Wattenhofer / Dionysus lineage) and drives every round
//!   through a control-plane round trip.
//! - [`ez_segway`] — **ez-Segway** (Nguyen et al., SOSR '17): the
//!   controller computes segments, dependencies, and (under congestion
//!   awareness) a global priority assignment once; switches coordinate via
//!   data-plane notifications. No verification, no fast-forward.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod central;
pub mod ez_segway;

pub use central::{CentralController, CentralSwitchLogic};
pub use ez_segway::{
    ez_prepare, ez_prepare_congestion, EzController, EzPlan, EzSegment, EzSegmentKind,
    EzSwitchLogic,
};
