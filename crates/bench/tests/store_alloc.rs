//! Allocation accounting of the trace-store read path.
//!
//! A store hit is `TraceStore::map`: open and stat the entry, map it,
//! verify the checksums, and validate the trace body in place with
//! `Trace::parse` — the returned `Trace` replays straight out of the
//! mapping. A counting global allocator pins that down: parsing an owned
//! buffer is a constant number of allocations (the small static µop table
//! and the shared handle on the buffer), mapping an entry is a small,
//! **trace-size-independent** count, and mapping plus walking the full
//! replay cursor never allocates anything close to the trace body. A
//! positive control — a capture of the same trace, which must build a
//! body-sized buffer — proves the counter would have caught a copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vpsim_bench::store::TraceStore;
use vpsim_isa::{ProgramBuilder, Reg, Trace};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Record one allocation of `size` bytes if a counting window is open.
fn charge(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations during `f` (single-threaded test binary, one test —
/// nothing else can be charged to the window).
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Largest single allocation charged during the last counting window.
fn peak_allocation_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// A loop with loads and branches, captured to `budget` µops.
fn captured_trace(budget: u64) -> Trace {
    let mut b = ProgramBuilder::new();
    let (i, n, x) = (Reg::int(1), Reg::int(2), Reg::int(3));
    b.load_imm(n, i64::MAX / 2);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.andi(x, i, 0xFF);
    b.shli(x, x, 3);
    b.load(x, x, 64);
    b.blt(i, n, top);
    b.halt();
    Trace::capture(&b.build().unwrap(), budget)
}

#[test]
fn store_reads_decode_with_a_constant_allocation_count() {
    let dir = std::env::temp_dir().join(format!("vpsim-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = TraceStore::open(&dir).unwrap();

    let small = captured_trace(2_000);
    let large = captured_trace(64_000);
    store.save("small", 1, 1, 2_000, true, &small);
    store.save("large", 1, 1, 64_000, true, &large);

    // Parsing an owned buffer keeps it as the trace's backing store: a
    // constant allocation count (no per-record or per-section copies).
    let (small_bytes, large_bytes) = (small.to_bytes(), large.to_bytes());
    let body_len = large_bytes.len() as u64;
    let mut corrupt = large_bytes.clone();
    let (small_parsed, small_allocs) = count_allocations(|| Trace::parse(small_bytes).unwrap());
    let (large_parsed, large_allocs) = count_allocations(|| Trace::parse(large_bytes).unwrap());
    assert_eq!(small_parsed, small);
    assert_eq!(large_parsed, large);
    assert_eq!(small_allocs, large_allocs, "parse allocations must not scale with trace size");
    assert!(large_allocs <= 4, "parse allocated {large_allocs} times");
    assert!(peak_allocation_bytes() < body_len / 8, "parse must not copy the trace body");

    // A corrupt buffer still fails cleanly under the counter.
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;
    let (err, _) = count_allocations(|| Trace::parse(corrupt));
    assert!(err.is_err(), "a flipped bit must not decode");

    // The store hit is zero-copy: path construction, open, stat, map,
    // checksums and in-place parse are a constant allocation count, and
    // mapping AND walking the full replay cursor never allocates anything
    // close to the trace body.
    let (small_map, small_allocs) = count_allocations(|| store.map("small", 1, 1).unwrap());
    assert!(small_map.cursor().eq(small.cursor()));
    let ((), large_allocs) = count_allocations(|| {
        let mapped = store.map("large", 1, 1).expect("mapped store hit");
        assert_eq!(mapped.cursor().count(), large.len(), "cursor walks every record");
    });
    let map_peak = peak_allocation_bytes();
    assert!(
        map_peak < body_len / 8,
        "mapped load+replay must not copy the trace body: \
         largest allocation {map_peak} B vs {body_len} B body"
    );
    assert_eq!(small_allocs, large_allocs, "map allocations must not scale with trace size");
    assert!(large_allocs <= 16, "mapped path allocated {large_allocs} times");

    // Positive control: capturing the same trace necessarily builds a
    // body-sized buffer, so the measurement above would have caught a
    // copy.
    let (recaptured, _) = count_allocations(|| captured_trace(64_000));
    assert_eq!(recaptured, large);
    assert!(
        peak_allocation_bytes() >= body_len / 8,
        "a capture allocates a body-sized buffer ({} B peak vs {body_len} B body)",
        peak_allocation_bytes()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
