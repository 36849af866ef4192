//! Memory tripwire for the MNLD: what a sparse set of reporting nodes
//! costs the heap, counted by a global allocator of this test binary's
//! own.
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live now and their high-water mark: statistics only, which
/// publish no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn sparse_reports_cost_their_records_not_the_id_range() {
    const REPORTS: u32 = 100;
    const STRIDE: u32 = 10_000;
    const BUDGET: usize = 64 * 1024;
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut mnld = Mnld::new();
    let rsmc = Addr::from_octets(20, 0, 0, 1);
    for i in 0..REPORTS {
        let first = mnld.update(MnId(i * STRIDE), DomainId(i), rsmc, SimTime::ZERO);
        assert!(first, "a first report is a domain change");
    }
    let peak = PEAK.load(Relaxed) - before;
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
