//! # mtnet-core — IP-based multi-tier mobility management (the paper)
//!
//! Implementation of *"Mobility Management of IP-Based Multi-tier Network
//! Supporting Mobile Multimedia Communication Services"* (Wang, Tsai,
//! Huang; ICDCSW'02): a multi-tier wireless architecture running
//! **Mobile IP in the macro-tier** and **Cellular IP in the micro-tier**,
//! with
//!
//! * hierarchical **cell tables** (`micro_table` / `macro_table`) refreshed
//!   by periodic *Location Messages* and erased on time-limit (§3.1,
//!   [`tables`], [`location`]);
//! * a mobile-controlled **handoff strategy** choosing the target tier from
//!   the node's *speed*, BS *signal power* and BS *resources* (§3.2,
//!   [`handoff`]), covering the five procedures of Figs 3.2–3.4
//!   (inter-domain same/different upper BS; intra-domain macro→micro,
//!   micro→macro, micro→micro);
//! * the **RSMC** (Resource Switching Management Center, §4, [`rsmc`]):
//!   a per-domain control center combining the Cellular IP gateway with a
//!   location cache, MN authentication and HA/CN movement notification;
//! * the **MNLD** (Mobile Node Location Database, [`mnld`]).
//!
//! Everything runs inside a deterministic packet-level simulation
//! ([`world`]), with declarative scenario specs ([`spec`]) run under the
//! proposed architecture or the baselines it is compared against
//! ([`scenario::ArchKind`]: pure Mobile IP, flat Cellular IP), and a
//! [`report`] module aggregating QoS, handoff and signaling statistics.
//!
//! ```no_run
//! use mtnet_core::{ArchKind, ScenarioSpec};
//!
//! let report = ScenarioSpec::small_city()
//!     .with_raw_seed(42)
//!     .with_arch(ArchKind::multi_tier())
//!     .with_duration_s(60.0)
//!     .run(0);
//! println!("voice loss: {:.3}%", report.aggregate_qos().loss_rate * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod handoff;
pub mod hierarchy;
pub mod kv;
pub mod location;
pub mod messages;
pub mod mnld;
pub mod report;
pub mod rsmc;
pub mod scenario;
pub mod spec;
pub mod tables;
pub mod tier;
pub mod world;

pub use arena::{PacketArena, PacketRef};
pub use handoff::{HandoffDecision, HandoffEngine, HandoffFactors, HandoffType};
pub use hierarchy::{Domain, DomainId, Hierarchy};
pub use messages::{MnId, MtMessage, Payload};
pub use report::SimReport;
pub use scenario::ArchKind;
pub use spec::{ScenarioSpec, SeedSpec};
pub use tables::CellTable;
pub use tier::Tier;
