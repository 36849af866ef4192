//! Memory tripwire for the MNLD: what a sparse set of reporting nodes
//! costs the heap, counted by a global allocator of this test binary's
//! own (`heap_probe`).
//!
//! The home network hears from a node only when it roams between
//! domains or is in a call, so the MNLD must hold a record per node that
//! has reported, not a row per id up to the highest one. 100 reports at
//! ids 0, 10 000, …, 990 000 fit in a few KiB as map entries; a dense
//! `Option` column grown to id 990 000 needs ≈ 23.8 MB.

use mtnet_core::hierarchy::DomainId;
use mtnet_core::messages::MnId;
use mtnet_core::mnld::Mnld;
use mtnet_net::Addr;
use mtnet_sim::SimTime;

#[path = "../../sim/src/heap_probe.rs"]
#[allow(dead_code)] // only the peak is read here
mod heap_probe;

#[test]
fn sparse_reports_cost_their_records_not_the_id_range() {
    const REPORTS: u32 = 100;
    const STRIDE: u32 = 10_000;
    const BUDGET: usize = 64 * 1024;
    let before = heap_probe::restart_peak();
    let mut mnld = Mnld::new();
    let rsmc = Addr::from_octets(20, 0, 0, 1);
    for i in 0..REPORTS {
        let first = mnld.update(MnId(i * STRIDE), DomainId(i), rsmc, SimTime::ZERO);
        assert!(first, "a first report is a domain change");
    }
    let peak = heap_probe::peak() - before;
    assert!(
        peak <= BUDGET,
        "{REPORTS} reports up to id {} peaked at {peak} B, over the {BUDGET} B budget",
        (REPORTS - 1) * STRIDE
    );
    for i in 0..REPORTS {
        let id = i * STRIDE;
        assert_eq!(mnld.query(MnId(id)).map(|e| e.domain), Some(DomainId(i)));
        assert!(mnld.query(MnId(id + 1)).is_none());
    }
}
