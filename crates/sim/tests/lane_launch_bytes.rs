//! Memory tripwire for the scheduler's tick lanes: what a pending
//! periodic timer costs the heap at launch, counted by a global
//! allocator of this test binary's own (`heap_probe`).
//!
//! A lane stores a tick in 16 bytes, in blocks of 1 024, and its one
//! sort — at the first read — works inside those blocks. So filing N
//! launch ticks out of order, sealing and popping one peaks at 16 B × N
//! plus a few blocks: the last block's unused tail, the sort's spare
//! blocks and the headers. 24-byte slots (≈ 2.5 MB at this N) or a sort
//! through a copy of the lane (≈ 4.8 MB) break the budget.

use mtnet_sim::{Scheduler, SimDuration, SimTime};

#[path = "../src/heap_probe.rs"]
#[allow(dead_code)] // only the peak is read here
mod heap_probe;

#[test]
fn launch_ticks_peak_at_sixteen_bytes_apiece() {
    const N: u64 = 100_000;
    const BLOCK_BYTES: usize = 1024 * 16;
    let before = heap_probe::restart_peak();
    let mut q: Scheduler<u32> = Scheduler::new();
    let lane = q.add_lane(SimDuration::from_secs(1), |id| id);
    // A permutation of the launch instants, as a stagger files them.
    for i in 0..N {
        let at = SimTime::from_nanos((i * 7_919) % N * 64);
        q.schedule_lane_at(lane, at, i as u32);
    }
    let first = q.pop().expect("filed above");
    assert_eq!((q.now(), first.into_event()), (SimTime::ZERO, 0));
    let peak = heap_probe::peak() - before;
    let budget = 16 * N as usize + 4 * BLOCK_BYTES;
    assert!(
        peak <= budget,
        "{N} launch ticks peaked at {peak} B, over the {budget} B budget"
    );
}
