//! # mtnet-cellularip — Cellular IP access networks
//!
//! Implements the micro-tier mobility protocol of the paper (§2.2.2):
//! a tree of base stations under a gateway router, with
//!
//! * [`SoftStateCache`] — the soft-state mapping primitive behind
//!   routing caches, paging caches and the paper's cell tables;
//! * [`CipTree`] — the base-station tree: parent links and the **crossover
//!   base station** (common branch node of old and new paths, Fig 2.4);
//! * [`CipNetwork`] — routing-cache maintenance from route-update packets,
//!   hop-by-hop downlink path resolution, paging for idle nodes;
//! * [`MnCipState`] — per-node active/idle state machine driven by
//!   `route-update-time`, `paging-update-time` and `active-state-timeout`;
//! * [`HandoffKind`] — hard vs semisoft handoff semantics and their
//!   loss-window arithmetic.
//!
//! ```
//! use mtnet_cellularip::{CipNetwork, CipConfig};
//! use mtnet_net::{Addr, NodeId};
//! use mtnet_sim::SimTime;
//!
//! // gateway(0) over two base stations 1 and 2
//! let mut net = CipNetwork::new(NodeId(0), CipConfig::default());
//! net.add_bs(NodeId(1), NodeId(0));
//! net.add_bs(NodeId(2), NodeId(0));
//!
//! let mn: Addr = "20.0.1.7".parse().unwrap();
//! net.route_update(mn, NodeId(1), SimTime::ZERO);
//! assert_eq!(net.locate(mn, SimTime::ZERO), Some(NodeId(1)));
//! assert_eq!(net.next_hop(NodeId(0), mn, SimTime::ZERO), Some(NodeId(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod handoff;
mod network;
mod state;
mod tree;

pub use cache::SoftStateCache;
pub use handoff::{HandoffKind, SemisoftController};
pub use network::{CipConfig, CipNetwork, PageOutcome};
pub use state::{CipTimers, MnCipState, MnMode};
pub use tree::CipTree;
