//! A heap probe: a global allocator that forwards every call to `System`
//! unchanged and observes it on the way.
//!
//! This file is not a module of `mtnet_sim`. A binary that wants the
//! probe includes it with `#[path]` as a module of its own, which
//! installs the allocator as that binary's `#[global_allocator]`:
//! `metro_probe` and the heap tripwire tests do. It keeps two things.
//! - Bytes live and their high-water mark, over every thread
//!   ([`restart_peak`], [`peak`]). A realloc counts its new block before
//!   it drops the old one.
//! - A digest per thread: while [`digested`] runs a closure, each heap
//!   call the thread makes folds into an FNV-1a hash, read and reset by
//!   [`take_digest`]. Other threads (a test harness's own, a sharded
//!   world's workers) stay out of it.
//!
//! A call folds its kind byte (alloc 1, zeroed alloc 2, dealloc 3,
//! realloc 4), then each size as 8 little-endian bytes: a realloc folds
//! the old size, then the new one. glibc's heap-trim mode follows the
//! sequence of sizes it is handed, so two builds whose digests agree for
//! a world cannot differ in it there (EXPERIMENTS.md § How performance is
//! measured).

use mtnet_sim::rng::{fnv1a, FNV_OFFSET};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live now and their high-water mark: statistics only, which
/// publish no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's heap calls fold now: only inside
    /// [`digested`].
    static ON: Cell<bool> = const { Cell::new(false) };
    /// This thread's FNV-1a state over the calls folded so far, and
    /// their number. Const-initialized and without a destructor, so the
    /// allocator may touch it at any time without allocating.
    static DIGEST: Cell<(u64, u64)> = const { Cell::new((FNV_OFFSET, 0)) };
}

/// Call kinds, the first byte each call folds.
const ALLOC: u8 = 1;
const ALLOC_ZEROED: u8 = 2;
const DEALLOC: u8 = 3;
const REALLOC: u8 = 4;

/// Folds one call into this thread's digest if it is on.
fn fold(kind: u8, sizes: &[usize]) {
    if !ON.get() {
        return;
    }
    let (h, calls) = DIGEST.get();
    let h = sizes.iter().fold(fnv1a(h, &[kind]), |h, s| {
        fnv1a(h, &(*s as u64).to_le_bytes())
    });
    DIGEST.set((h, calls + 1));
}

/// Counts `size` more bytes live.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

/// Runs `f` with this thread's heap calls folded into its digest.
pub fn digested<T>(f: impl FnOnce() -> T) -> T {
    ON.set(true);
    let out = f();
    ON.set(false);
    out
}

/// This thread's digest and call count so far; the digest starts over.
pub fn take_digest() -> (u64, u64) {
    DIGEST.replace((FNV_OFFSET, 0))
}

/// Restarts the high-water mark at the bytes live now, and returns them.
pub fn restart_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since the last [`restart_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

struct Probe;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the probe only observes sizes, in atomics
// and in const-initialized thread locals, and never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        fold(ALLOC, &[layout.size()]);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        fold(ALLOC_ZEROED, &[layout.size()]);
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        fold(DEALLOC, &[layout.size()]);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        fold(REALLOC, &[layout.size(), new_size]);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`; the caller's guarantees for `new_size` hold.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // New block first: a moving realloc holds both for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static PROBE: Probe = Probe;
