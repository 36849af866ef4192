//! Integration: the multi-tier mobility management (cell tables, handoff
//! engine, RSMC) composed outside the full simulator — §3 and §4 logic
//! working together over the Fig 3.1 hierarchy.

use mtnet_core::handoff::{
    classify, Candidate, CurrentAttachment, DecisionConfig, HandoffDecision, HandoffEngine,
    HandoffFactors, HandoffType,
};
use mtnet_core::hierarchy::Hierarchy;
use mtnet_core::location::LocationDirectory;
use mtnet_core::rsmc::Rsmc;
use mtnet_core::tier::Tier;
use mtnet_net::Addr;
use mtnet_radio::CellId;
use mtnet_sim::{SimDuration, SimTime};

fn addr(s: &str) -> Addr {
    s.parse().unwrap()
}

/// Follows the records down from `start` to the cell serving `mn`: each
/// step must be answered by the table at that cell itself. `None` on a
/// broken chain.
fn serving_cell(
    dir: &mut LocationDirectory,
    h: &Hierarchy,
    mn: Addr,
    start: CellId,
    now: SimTime,
) -> Option<CellId> {
    let mut cur = start;
    loop {
        let at = dir
            .locate(h, mn, cur, now)
            .filter(|at| at.levels_climbed == 0)?;
        if at.toward == cur {
            return Some(cur);
        }
        cur = at.toward;
    }
}

/// Fig 3.1: R3(100) over R1(101), R2(102); A(1)←B(2),C(3); D(4)←E(5),F(6).
fn fig31() -> Hierarchy {
    let mut h = Hierarchy::new();
    let r3 = h.add_upper_macro(CellId(100));
    h.add_domain(CellId(101), Some(r3));
    h.add_domain(CellId(102), Some(r3));
    h.add_micro(CellId(1), CellId(101));
    h.add_micro(CellId(2), CellId(1));
    h.add_micro(CellId(3), CellId(1));
    h.add_micro(CellId(4), CellId(102));
    h.add_micro(CellId(5), CellId(4));
    h.add_micro(CellId(6), CellId(4));
    h
}

#[test]
fn paper_walkthrough_x_y_z() {
    // The full §3.2 walkthrough: X does macro→micro, Y micro→macro,
    // Z micro→micro — each handoff classified and reflected in the tables.
    let h = fig31();
    let mut dir = LocationDirectory::new(&h, SimDuration::from_secs(6));
    let t0 = SimTime::ZERO;
    let x = addr("10.0.2.1");
    let y = addr("10.0.2.2");
    let z = addr("10.0.2.3");

    // Initial positions: X on macro R1, Y on micro C, Z on micro F.
    dir.on_location_message(&h, x, CellId(101), t0);
    dir.on_location_message(&h, y, CellId(3), t0);
    dir.on_location_message(&h, z, CellId(6), t0);

    // X: macro R1 → micro B (Fig 3.4a).
    assert_eq!(
        classify(&h, CellId(101), CellId(2)),
        HandoffType::IntraMacroToMicro
    );
    // The Update Location Message from the new cell propagates exactly
    // like a Location Message.
    dir.on_location_message(&h, x, CellId(2), SimTime::from_secs(1));
    dir.on_delete_location(x, CellId(101));
    // The paper's resulting records: B, A, R1, R3 know the way to X.
    let t = SimTime::from_secs(2);
    assert_eq!(
        serving_cell(&mut dir, &h, x, CellId(100), t),
        Some(CellId(2))
    );

    // Y: micro C → macro R1 (Fig 3.4b).
    assert_eq!(
        classify(&h, CellId(3), CellId(101)),
        HandoffType::IntraMicroToMacro
    );
    dir.on_location_message(&h, y, CellId(101), SimTime::from_secs(1));
    dir.on_delete_location(y, CellId(3));
    // The micro-first lookup order means R1's *stale* micro record (from
    // Y's time at C) shadows the fresh macro record until the
    // time-limitation erases it — a real property of the paper's scheme.
    let shadowed = dir.locate(&h, y, CellId(101), t).unwrap();
    assert_eq!(
        shadowed.hit.tier(),
        Tier::Micro,
        "stale micro record shadows first"
    );
    // Refresh only the macro attachment past the old record's lifetime…
    dir.on_location_message(&h, y, CellId(101), SimTime::from_secs(5));
    let after_expiry = SimTime::from_secs(7);
    let loc = dir.locate(&h, y, CellId(101), after_expiry).unwrap();
    assert_eq!(loc.hit.tier(), Tier::Macro, "macro_table holds Y now");

    // Z: micro F → micro E (Fig 3.4c).
    assert_eq!(
        classify(&h, CellId(6), CellId(5)),
        HandoffType::IntraMicroToMicro
    );
    dir.on_location_message(&h, z, CellId(5), SimTime::from_secs(1));
    dir.on_delete_location(z, CellId(6));
    assert_eq!(
        serving_cell(&mut dir, &h, z, CellId(102), t),
        Some(CellId(5))
    );
}

#[test]
fn decision_engine_drives_the_expected_procedures() {
    let h = fig31();
    let engine = HandoffEngine::new(DecisionConfig::default(), HandoffFactors::all());
    // A node slowing down under macro coverage with a strong micro nearby:
    // the engine proposes the macro→micro switch of Fig 3.4a.
    let decision = engine.decide(
        1.0,
        Some(CurrentAttachment {
            cell: CellId(101),
            tier: Tier::Macro,
            rssi_dbm: Some(-70.0),
        }),
        &[
            Candidate {
                cell: CellId(101),
                tier: Tier::Macro,
                rssi_dbm: -70.0,
                free_ratio: 0.8,
            },
            Candidate {
                cell: CellId(2),
                tier: Tier::Micro,
                rssi_dbm: -65.0,
                free_ratio: 0.9,
            },
        ],
    );
    let HandoffDecision::Handoff { target, .. } = decision else {
        panic!("expected a handoff, got {decision:?}");
    };
    assert_eq!(
        classify(&h, CellId(101), target),
        HandoffType::IntraMacroToMicro
    );
}

#[test]
fn rsmc_location_cache_outlives_cell_tables() {
    let h = fig31();
    let mut dir = LocationDirectory::new(&h, SimDuration::from_secs(6));
    let mut rsmc = Rsmc::new(addr("20.0.0.1"));
    let mn = addr("10.0.2.1");

    dir.on_location_message(&h, mn, CellId(2), SimTime::ZERO);
    rsmc.on_route_update(mn, CellId(2), SimTime::ZERO, 2);

    // A minute later the cell tables have long erased the record…
    let late = SimTime::from_secs(60);
    assert!(dir.locate(&h, mn, CellId(2), late).is_none());
    // …but the RSMC still places the node (its cache is paging-scale).
    assert_eq!(rsmc.locate(mn, late), Some(CellId(2)));
}

#[test]
fn rsmc_notifications_only_on_movement() {
    let mut rsmc = Rsmc::new(addr("20.0.0.1"));
    let mn = addr("10.0.2.1");
    let mut notify_count = 0;
    let mut t = SimTime::ZERO;
    // Ten updates from the same cell, then one move.
    for _ in 0..10 {
        notify_count += rsmc.on_route_update(mn, CellId(2), t, 2).len();
        t += SimDuration::from_secs(1);
    }
    notify_count += rsmc.on_route_update(mn, CellId(3), t, 2).len();
    assert_eq!(
        notify_count, 4,
        "2 for the first sighting + 2 for the move; refreshes are silent"
    );
}

#[test]
fn inter_domain_classification_matches_hierarchy() {
    let h = fig31();
    // B(2) in domain 0 → E(5) in domain 1, both under R3: Fig 3.2.
    assert_eq!(
        classify(&h, CellId(2), CellId(5)),
        HandoffType::InterDomainSameUpper
    );

    // A third domain with no upper: Fig 3.3 from anywhere.
    let mut h2 = fig31();
    h2.add_domain(CellId(103), None);
    h2.add_micro(CellId(7), CellId(103));
    assert_eq!(
        classify(&h2, CellId(2), CellId(7)),
        HandoffType::InterDomainDifferentUpper
    );
}

#[test]
fn resource_exhaustion_tier_fallback_in_context() {
    // §3.2 / Fig 3.2: "If macro-tier has no free channels for handoff, MN
    // turns to ask micro-tier for handoff."
    let engine = HandoffEngine::new(DecisionConfig::default(), HandoffFactors::all());
    let decision = engine.decide(
        20.0, // fast: wants macro
        None,
        &[
            Candidate {
                cell: CellId(101),
                tier: Tier::Macro,
                rssi_dbm: -60.0,
                free_ratio: 0.0,
            },
            Candidate {
                cell: CellId(2),
                tier: Tier::Micro,
                rssi_dbm: -70.0,
                free_ratio: 0.9,
            },
        ],
    );
    assert_eq!(
        decision,
        HandoffDecision::Handoff {
            target: CellId(2),
            tier: Tier::Micro,
            fallback: None
        },
        "macro full → micro fallback chosen directly"
    );
}

#[test]
fn stale_records_age_out_exactly_per_time_limitation() {
    let h = fig31();
    let lifetime = SimDuration::from_secs(4);
    let mut dir = LocationDirectory::new(&h, lifetime);
    let mn = addr("10.0.2.1");
    dir.on_location_message(&h, mn, CellId(2), SimTime::ZERO);
    assert!(dir
        .locate(&h, mn, CellId(2), SimTime::from_millis(3999))
        .is_some());
    assert!(dir
        .locate(&h, mn, CellId(2), SimTime::from_millis(4000))
        .is_none());
    // Sweep reclaims the memory.
    let evicted = dir.sweep(SimTime::from_secs(5));
    assert_eq!(evicted, 4, "record existed at B, A, R1, R3");
    assert_eq!(dir.sweep(SimTime::from_secs(5)), 0, "nothing left to evict");
}
