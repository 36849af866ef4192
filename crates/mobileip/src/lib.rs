//! # mtnet-mobileip — Mobile IP (RFC 3344 style) protocol entities
//!
//! Implements the macro-tier mobility protocol of the paper (§2.2.1):
//! the three functional entities and their message exchanges.
//!
//! * [`MipMessage`] — agent advertisements, registration request/reply,
//!   binding warnings/updates (smooth handoff, paper ref \[5]).
//! * [`HomeAgent`] — binding cache with lifetimes; intercepts packets for
//!   home addresses and tunnels them to the registered care-of address.
//! * [`ForeignAgent`] — visitor list, care-of address, registration relay
//!   and detunneling; optional previous-FA forwarding for smooth handoff.
//! * [`MobileNode`] — agent discovery, movement detection and the
//!   registration state machine with retransmission.
//!
//! The entities are *pure protocol state machines*: they consume messages
//! and emit messages (plus tunnel actions) without owning sockets or the
//! event loop, so the simulation crate can drive them over its packet
//! substrate and unit tests can drive them directly.
//!
//! ```
//! use mtnet_mobileip::{HomeAgent, RegistrationRequest};
//! use mtnet_net::Addr;
//! use mtnet_sim::{SimDuration, SimTime};
//!
//! let home: Addr = "10.0.0.7".parse().unwrap();
//! let ha_addr: Addr = "10.0.0.1".parse().unwrap();
//! let coa: Addr = "20.0.0.1".parse().unwrap();
//! let mut ha = HomeAgent::new(ha_addr, "10.0.0.0/16".parse().unwrap());
//!
//! let req = RegistrationRequest {
//!     mn_home: home, coa, ha: ha_addr,
//!     lifetime: SimDuration::from_secs(300), id: 1,
//! };
//! let reply = ha.process_registration(&req, SimTime::ZERO);
//! assert!(reply.accepted());
//! assert_eq!(ha.tunnel_endpoint(home, SimTime::ZERO), Some(coa));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod foreign_agent;
mod home_agent;
mod messages;
mod mobile_node;

pub use foreign_agent::{ForeignAgent, VisitorEntry};
pub use home_agent::HomeAgent;
pub use messages::{
    AgentAdvertisement, MipMessage, RegistrationReply, RegistrationRequest, ReplyCode,
};
pub use mobile_node::{MnAction, MnState, MobileNode};
