//! # p4update-messages
//!
//! The message vocabulary of the P4Update framework and its baselines:
//!
//! - the paper's four control messages — [`Frm`] (flow report), [`Uim`]
//!   (update indication), [`Unm`] (update notification), [`Ufm`] (update
//!   feedback) — plus [`DataPacket`] for data-plane traffic (§6);
//! - fixed-layout wire encodings ([`wire`]) of the headers the P4 prototype
//!   parses; the simulator passes typed messages, so only the codec's own
//!   tests, the property and fuzz tests and the benchmark's micros reach
//!   them;
//! - the control messages of the two baseline systems the evaluation
//!   compares against (Central and ez-Segway, §9.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod types;
pub mod wire;

pub use byzantine::{ByzDelivery, ByzVector};
pub use types::{
    CentralMsg, Cleanup, DataPacket, EzMsg, EzPriority, EzSegmentKind, EzUpdate, Frm, Message,
    RejectReason, Ufm, UfmStatus, Uim, Unm, UnmLayer, UpdateKind,
};
pub use wire::{decode, encode, WireError, WireType};
