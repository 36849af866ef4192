//! Classification of a handoff into the paper's five procedures
//! (Figs 3.2–3.4), which determine the signaling sequence and cost.

use crate::hierarchy::Hierarchy;
use crate::tier::Tier;
use mtnet_radio::CellId;
use std::fmt;

/// The five handoff procedures of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HandoffType {
    /// Fig 3.4 case (c): micro-cell to micro-cell inside a domain.
    IntraMicroToMicro,
    /// Fig 3.4 case (a): macro-cell to micro-cell (overlap area or
    /// bandwidth demand).
    IntraMacroToMicro,
    /// Fig 3.4 case (b): micro-cell to macro-cell (left micro coverage).
    IntraMicroToMacro,
    /// Fig 3.2: inter-domain, the two domains share the upper-layer BS.
    InterDomainSameUpper,
    /// Fig 3.3: inter-domain, different upper BS — the update must travel
    /// via the home network.
    InterDomainDifferentUpper,
}

impl HandoffType {
    /// All five types, for reporting tables.
    pub const ALL: [HandoffType; 5] = [
        HandoffType::IntraMicroToMicro,
        HandoffType::IntraMacroToMicro,
        HandoffType::IntraMicroToMacro,
        HandoffType::InterDomainSameUpper,
        HandoffType::InterDomainDifferentUpper,
    ];

    /// True for the two inter-domain procedures.
    pub fn is_inter_domain(&self) -> bool {
        matches!(
            self,
            HandoffType::InterDomainSameUpper | HandoffType::InterDomainDifferentUpper
        )
    }

    /// Nominal control-message count of the procedure (request + accept +
    /// update/delete messages), used to sanity-check the simulation's
    /// measured signaling. Derived by reading the message sequences off
    /// Figs 3.2–3.4:
    ///
    /// * micro→micro: request, accept, update to new BS chain, delete to
    ///   old BS → 4
    /// * macro→micro: request, accept, update, **and** delete "in the same
    ///   time" → 4
    /// * micro→macro: request, accept, update (forwarded to parent macro)
    ///   → 4
    /// * inter same-upper: request, accept, location message via the shared
    ///   upper → 3
    /// * inter different-upper: request, accept, update to new top, to home
    ///   network, reply to the original domain → 5
    pub fn nominal_messages(&self) -> u32 {
        match self {
            HandoffType::IntraMicroToMicro => 4,
            HandoffType::IntraMacroToMicro => 4,
            HandoffType::IntraMicroToMacro => 4,
            HandoffType::InterDomainSameUpper => 3,
            HandoffType::InterDomainDifferentUpper => 5,
        }
    }
}

impl fmt::Display for HandoffType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HandoffType::IntraMicroToMicro => "intra micro→micro",
            HandoffType::IntraMacroToMicro => "intra macro→micro",
            HandoffType::IntraMicroToMacro => "intra micro→macro",
            HandoffType::InterDomainSameUpper => "inter-domain (same upper)",
            HandoffType::InterDomainDifferentUpper => "inter-domain (diff upper)",
        };
        f.write_str(s)
    }
}

/// Classifies a handoff `old → new` against the hierarchy.
///
/// # Panics
///
/// Panics if either cell is unknown or is an upper-layer (domainless) BS —
/// nodes never attach to those directly — and on a domain's macro cell
/// handing off to itself, the only intra-domain macro→macro pair.
pub fn classify(hierarchy: &Hierarchy, old: CellId, new: CellId) -> HandoffType {
    let old_domain = hierarchy
        .domain_of(old)
        .expect("old cell must be in a domain");
    let new_domain = hierarchy
        .domain_of(new)
        .expect("new cell must be in a domain");
    if old_domain != new_domain {
        return if hierarchy.same_upper(old_domain, new_domain) {
            HandoffType::InterDomainSameUpper
        } else {
            HandoffType::InterDomainDifferentUpper
        };
    }
    match (hierarchy.tier_of(old), hierarchy.tier_of(new)) {
        (Tier::Micro, Tier::Micro) => HandoffType::IntraMicroToMicro,
        (Tier::Macro, Tier::Micro) => HandoffType::IntraMacroToMicro,
        (Tier::Micro, Tier::Macro) => HandoffType::IntraMicroToMacro,
        (Tier::Macro, Tier::Macro) => unreachable!(
            "a domain has one macro cell, so an intra-domain macro→macro handoff \
             would be {old:?} handing off to itself"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two regions: R3(100) over R1(101)+R2(102); isolated R4(103).
    /// Micros: 1,2 under 101; 3 under 102; 4 under 103.
    fn world() -> Hierarchy {
        let mut h = Hierarchy::new();
        let r3 = h.add_upper_macro(CellId(100));
        h.add_domain(CellId(101), Some(r3));
        h.add_domain(CellId(102), Some(r3));
        h.add_domain(CellId(103), None);
        h.add_micro(CellId(1), CellId(101));
        h.add_micro(CellId(2), CellId(101));
        h.add_micro(CellId(3), CellId(102));
        h.add_micro(CellId(4), CellId(103));
        h
    }

    #[test]
    fn intra_domain_cases() {
        let h = world();
        assert_eq!(
            classify(&h, CellId(1), CellId(2)),
            HandoffType::IntraMicroToMicro
        );
        assert_eq!(
            classify(&h, CellId(101), CellId(1)),
            HandoffType::IntraMacroToMicro
        );
        assert_eq!(
            classify(&h, CellId(1), CellId(101)),
            HandoffType::IntraMicroToMacro
        );
    }

    #[test]
    fn inter_domain_same_upper() {
        let h = world();
        assert_eq!(
            classify(&h, CellId(1), CellId(3)),
            HandoffType::InterDomainSameUpper,
            "R1 and R2 share R3 (Fig 3.2)"
        );
        assert_eq!(
            classify(&h, CellId(101), CellId(102)),
            HandoffType::InterDomainSameUpper
        );
    }

    #[test]
    fn inter_domain_different_upper() {
        let h = world();
        assert_eq!(
            classify(&h, CellId(1), CellId(4)),
            HandoffType::InterDomainDifferentUpper,
            "domain 103 has no shared upper (Fig 3.3)"
        );
    }

    #[test]
    fn inter_domain_flags() {
        assert!(HandoffType::InterDomainSameUpper.is_inter_domain());
        assert!(!HandoffType::IntraMicroToMicro.is_inter_domain());
    }

    #[test]
    fn nominal_message_ordering() {
        // The different-upper procedure is the most expensive; same-upper
        // the cheapest.
        assert!(
            HandoffType::InterDomainDifferentUpper.nominal_messages()
                > HandoffType::InterDomainSameUpper.nominal_messages()
        );
        assert!(
            HandoffType::IntraMicroToMicro.nominal_messages()
                >= HandoffType::InterDomainSameUpper.nominal_messages()
        );
    }

    #[test]
    fn display_distinct() {
        let names: std::collections::HashSet<String> =
            HandoffType::ALL.iter().map(|t| t.to_string()).collect();
        assert_eq!(names.len(), HandoffType::ALL.len());
    }

    #[test]
    #[should_panic(expected = "must be in a domain")]
    fn upper_bs_attachment_rejected() {
        let h = world();
        classify(&h, CellId(100), CellId(1));
    }
}
