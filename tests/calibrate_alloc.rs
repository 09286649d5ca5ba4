//! Heap bytes of a serving set-up's calibration.
//!
//! `LiveMatcher::calibrate` races the cached arm in the matcher's own
//! decision cache, and only when the sample repeats some tuple, so it
//! builds no second table. A byte-counting global allocator checks that
//! calibrating a matcher with a 65,536-entry cache enabled allocates less
//! than one table of that capacity, on a uniform sample (no cached arm)
//! and on a Zipf sample (the cached arm races). The counter is per thread
//! and the calibrations run on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diverse_firewall::exec::{LiveMatcher, PacketBatch, CALIBRATE_SAMPLE};
use diverse_firewall::synth::{university_large, PacketTrace};

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` states; counting
// touches only a thread-local `Cell` and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block `System` returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates on this thread (a reallocation counts its new size).
fn bytes_in(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn calibrating_a_cached_matcher_allocates_less_than_one_table() {
    const CAPACITY: usize = 65_536;
    let policy = university_large();
    let schema = policy.schema().clone();
    // One full-capacity table: 32 bytes of slot metadata and one value per
    // field for each slot.
    let table = CAPACITY * (32 + 8 * schema.len());
    let uniform = PacketTrace::random(schema.clone(), CALIBRATE_SAMPLE, 1);
    let zipf = PacketTrace::zipf(&policy, 16 * CALIBRATE_SAMPLE, 1.0, 2, 3);
    for (kind, packets, races_cache) in [
        ("uniform", uniform.packets(), false),
        ("zipf", &zipf.packets()[..CALIBRATE_SAMPLE], true),
    ] {
        let live = LiveMatcher::new(policy.clone()).expect("the policy compiles");
        live.enable_cache(CAPACITY).expect("non-zero capacity");
        let batch = PacketBatch::from_trace(schema.clone(), packets).expect("valid packets");
        let mut calibrated = None;
        let bytes = bytes_in(|| calibrated = Some(live.calibrate(&batch, None, 1)));
        let cal = calibrated.expect("ran").expect("a valid sample");
        assert_eq!(
            cal.trials.iter().any(|t| t.choice.cached),
            races_cache,
            "{kind}: {:?}",
            cal.trials
        );
        assert!(
            bytes < table,
            "{kind}: calibrating allocated {bytes} B, one table is {table} B"
        );
    }
}
