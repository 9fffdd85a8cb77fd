//! # p4update
//!
//! A full Rust reproduction of **P4Update: Fast and Locally Verifiable
//! Consistent Network Updates in the P4 Data Plane** (Zhou, He, Kellerer,
//! Blenk, Foerster — CoNEXT '21), including every substrate the paper's
//! evaluation depends on.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates under
//! stable module names so downstream users depend on one crate.
//!
//! ## Quick start
//!
//! Migrate a flow on the paper's Fig. 1 topology with the dual-layer
//! mechanism and verify the result:
//!
//! ```
//! use p4update::net::{topologies, FlowId, FlowUpdate, Path, Version};
//! use p4update::core::Strategy;
//! use p4update::sim::{batch_simulation, NetworkSim, SimConfig, System, TimingConfig};
//! use p4update::des::SimTime;
//!
//! let topo = topologies::fig1();
//! let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1);
//! let world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
//!
//! // The old path is installed at version 1, then the update is triggered at t = 0.
//! let old = Path::new(topologies::fig1_old_path());
//! let new = Path::new(topologies::fig1_new_path());
//! let update = FlowUpdate::new(FlowId(0), Some(old), new, 1.0);
//! let mut sim = batch_simulation(world, vec![update], SimTime::ZERO);
//! assert!(sim.run().drained());
//!
//! let world = sim.into_world();
//! assert!(world.metrics().completion_of(FlowId(0), Version(2)).is_some());
//! assert!(world.violations.is_empty()); // loop/blackhole/congestion free throughout
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the paper's contribution: labels, segmentation, Algorithms 1–2, the data-plane congestion scheduler, the controller |
//! | [`analysis`] | static plan verifier: lints prepared updates against the proof-labeling invariants before they ship |
//! | [`dataplane`] | BMv2-like switch chassis, the UIB register file (Table 1) |
//! | [`messages`] | FRM/UIM/UNM/UFM and data packets, with wire layouts |
//! | [`net`] | topology graph, Dijkstra/Yen, the evaluation topologies |
//! | [`baselines`] | ez-Segway and Central reimplementations |
//! | [`traffic`] | gravity-model traffic and the §9.1 workload scenarios |
//! | [`sim`] | the deterministic event-driven harness + consistency checker |
//! | [`des`] | the discrete-event engine, RNG, statistics |
//! | [`explore`] | exhaustive adversarial schedule search, replayable choice traces |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use p4update_analysis as analysis;
pub use p4update_baselines as baselines;
pub use p4update_core as core;
pub use p4update_dataplane as dataplane;
pub use p4update_des as des;
pub use p4update_explore as explore;
pub use p4update_messages as messages;
pub use p4update_net as net;
pub use p4update_sim as sim;
pub use p4update_traffic as traffic;
