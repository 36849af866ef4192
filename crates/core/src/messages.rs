//! Multi-tier control messages and the unified packet payload.

use mtnet_mobileip::MipMessage;
use mtnet_net::Addr;
use mtnet_radio::CellId;
use std::fmt;

/// Identifier of a mobile node in a scenario (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MnId(pub u32);

impl fmt::Display for MnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mn{}", self.0)
    }
}

/// Cellular IP control carried inside simulation packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipControl {
    /// Route-update packet climbing from the attach BS to the gateway,
    /// refreshing each routing cache it passes (paper §2.2.2).
    RouteUpdate {
        /// The mobile node's (home) address being refreshed.
        mn: Addr,
    },
    /// Paging-update packet from an idle node (coarse location).
    PagingUpdate {
        /// The mobile node's (home) address.
        mn: Addr,
    },
    /// Semisoft notification: open a bicast window at the crossover before
    /// the node retunes (paper §2.2.2 semisoft handoff).
    Semisoft {
        /// The mobile node about to hand off.
        mn: Addr,
    },
}

/// Multi-tier mobility-management messages (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtMessage {
    /// "Update Location Message" after a successful handoff (§3.2).
    UpdateLocation {
        /// The node that moved.
        mn: Addr,
        /// Its new serving cell.
        new_cell: CellId,
    },
    /// RSMC → HA/CN movement notification (§4): lets correspondents send
    /// straight to the new RSMC without waiting for a full Mobile IP
    /// registration.
    RsmcNotify {
        /// The node that moved.
        mn: Addr,
        /// The RSMC (gateway/care-of) address now serving it.
        rsmc: Addr,
    },
}

impl MtMessage {
    /// Wire size of the control payload in bytes. Small fixed sizes in the
    /// range of the Mobile IP registration messages they complement.
    pub fn size_bytes(&self) -> u32 {
        match self {
            MtMessage::UpdateLocation { .. } => 32,
            MtMessage::RsmcNotify { .. } => 40,
        }
    }
}

/// Everything a simulation packet can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Application (multimedia flow) data.
    Data,
    /// Mobile IP control.
    Mip(MipMessage),
    /// Cellular IP control.
    Cip(CipControl),
    /// Multi-tier mobility control.
    Mt(MtMessage),
}

impl Payload {
    /// True for application data.
    pub fn is_data(&self) -> bool {
        matches!(self, Payload::Data)
    }

    /// Control payload size; data payload size lives on the packet.
    pub fn control_size_bytes(&self) -> u32 {
        match self {
            Payload::Data => 0,
            Payload::Mip(m) => m.size_bytes(),
            Payload::Cip(_) => 28,
            Payload::Mt(m) => m.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn sizes_positive_for_control() {
        let msgs = [
            MtMessage::UpdateLocation {
                mn: addr("1.1.1.1"),
                new_cell: CellId(1),
            },
            MtMessage::RsmcNotify {
                mn: addr("1.1.1.1"),
                rsmc: addr("2.2.2.2"),
            },
        ];
        for m in msgs {
            assert!(m.size_bytes() > 0);
            assert!(Payload::Mt(m).control_size_bytes() > 0);
        }
    }

    #[test]
    fn data_payload_classification() {
        assert!(Payload::Data.is_data());
        assert_eq!(Payload::Data.control_size_bytes(), 0);
        let cip = Payload::Cip(CipControl::RouteUpdate {
            mn: addr("1.1.1.1"),
        });
        assert!(!cip.is_data());
        assert!(cip.control_size_bytes() > 0);
    }

    #[test]
    fn mn_id_display() {
        assert_eq!(MnId(4).to_string(), "mn4");
    }
}
