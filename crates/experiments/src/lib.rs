//! # p4update-experiments
//!
//! Regenerates every table and figure of the P4Update evaluation:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — inconsistent/reordered updates (§4.1) |
//! | [`fig4`] | Fig. 4 — fast-forward over an in-flight update (§4.2) |
//! | [`fig7`] | Fig. 7a–f — total update time CDFs (§9.2) |
//! | [`fig8`] | Fig. 8a/8b — control-plane preparation ratios (§9.3) |
//! | [`sweep`] | Fig. 7 under each timing cost scaled ×0.1 to ×2 |
//!
//! Table 1 (the UIB register inventory) is code, not an experiment: see
//! `p4update_dataplane::UibEntry` or run the binary's `table1` command,
//! which prints the inventory from the live register file.
//!
//! The `p4update-experiments` binary prints each figure's data rows; the
//! integration tests in `tests/` assert the paper's qualitative claims
//! (who wins, by roughly what factor) on the same code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig2;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod scenarios;
pub mod sweep;
pub mod table1;
