//! # p4update-net
//!
//! Network topology substrate for the P4Update reproduction: the switch
//! graph with latency/capacity-annotated links, path search (one
//! [`PathSolver`] behind shortest-path, avoid-these-nodes and Yen's
//! k-shortest queries, every tie resolved by one stated rule and every
//! search bounded by what its answer can depend on), which node pairs have
//! a second simple path at all, read off the bridges without a search
//! ([`BridgeClasses`]), the
//! flow/update model of the paper's §5 with its segmentation (§3.2), and
//! all the evaluation topologies
//! (Fig. 1/Fig. 2 synthetics, fat-tree, B4, Internet2, AttMpls, Chinanet).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod geo;
pub mod graph;
pub mod path;
pub mod segment;
pub mod topologies;

pub use flow::{FlowId, FlowUpdate, Version};
pub use graph::{
    BridgeClasses, Link, LinkId, Node, NodeId, Topology, TopologyBuilder, CAPACITY_SLACK,
};
pub use path::{
    k_shortest_paths, latency_distances_from, shortest_path, shortest_path_avoiding, Path,
    PathSolver,
};
pub use segment::{segment_update, Segment, SegmentDir, Segmentation};
