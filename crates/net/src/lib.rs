//! # mtnet-net — packet-level IP network substrate
//!
//! The wired-network substrate under the Mobile IP / Cellular IP
//! reproduction. It provides:
//!
//! * [`Addr`] / [`Prefix`] — IPv4-style 32-bit addressing with
//!   longest-prefix-match semantics.
//! * [`Packet`] — a simulated datagram carrying a caller-defined payload and
//!   an IP-in-IP encapsulation stack (for Home-Agent tunneling, Fig 2.2 of
//!   the paper).
//! * [`Link`] — a bandwidth + propagation-delay + drop-tail-queue link model
//!   computing per-packet delivery times.
//! * [`RoutingTable`] — longest-prefix-match forwarding, the reference
//!   model the world's route cache is tested against.
//! * [`Topology`] — a graph of nodes and links with Dijkstra shortest paths,
//!   used to auto-populate routing tables.
//! * [`RouteCache`] — a generation-keyed shortest-path cache answering
//!   `next_hop` / `path_delay` in O(1) after one Dijkstra per source per
//!   topology version.
//!
//! The substrate is protocol-agnostic: payloads are a generic parameter, so
//! protocol crates define their own message enums.
//!
//! ```
//! use mtnet_net::{Addr, Prefix, RoutingTable, NodeId};
//!
//! let mut table = RoutingTable::new();
//! table.insert("10.0.0.0/8".parse().unwrap(), NodeId(1));
//! table.insert("10.1.0.0/16".parse().unwrap(), NodeId(2));
//! let dst: Addr = "10.1.2.3".parse().unwrap();
//! assert_eq!(table.lookup(dst), Some(NodeId(2))); // longest prefix wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod link;
mod packet;
mod routecache;
mod routing;
mod topology;

pub use addr::{Addr, ParseAddrError, ParsePrefixError, Prefix};
pub use link::{Link, LinkConfig, LinkStats, TransmitOutcome};
pub use packet::{EncapHeader, FlowId, Packet, PacketId, TunnelKind};
pub use routecache::RouteCache;
pub use routing::RoutingTable;
pub use topology::{LinkId, NodeId, Topology, TopologyError};
