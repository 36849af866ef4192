//! Memory tripwire for the scheduler's tick lanes: what a pending
//! periodic timer costs the heap at launch, counted by a global
//! allocator of this test binary's own.
//!
//! A lane stores a tick in 16 bytes, in blocks of 1 024, and its one
//! sort — at the first read — works inside those blocks. So filing N
//! launch ticks out of order, sealing and popping one peaks at 16 B × N
//! plus a few blocks: the last block's unused tail, the sort's spare
//! blocks and the headers. 24-byte slots (≈ 2.5 MB at this N) or a sort
//! through a copy of the lane (≈ 4.8 MB) break the budget.

use mtnet_sim::{Scheduler, SimDuration, SimTime};
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
fn launch_ticks_peak_at_sixteen_bytes_apiece() {
    const N: u64 = 100_000;
    const BLOCK_BYTES: usize = 1024 * 16;
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut q: Scheduler<u32> = Scheduler::new();
    let lane = q.add_lane(SimDuration::from_secs(1), |id| id);
    // A permutation of the launch instants, as a stagger files them.
    for i in 0..N {
        let at = SimTime::from_nanos((i * 7_919) % N * 64);
        q.schedule_lane_at(lane, at, i as u32);
    }
    let first = q.pop().expect("filed above");
    assert_eq!((q.now(), first.into_event()), (SimTime::ZERO, 0));
    let peak = PEAK.load(Relaxed) - before;
    let budget = 16 * N as usize + 4 * BLOCK_BYTES;
    assert!(
        peak <= budget,
        "{N} launch ticks peaked at {peak} B, over the {budget} B budget"
    );
}
