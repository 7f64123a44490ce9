//! Heap-allocation accounting for the `alloc_b_per_txn` metrics.
//!
//! [`CountingAlloc`] wraps the system allocator and adds every allocation's
//! size to one of a few cache-line-padded counters, chosen per thread, so
//! threads that allocate at the same time do not fight over one cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicU64);

static BYTES: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> usize {
    MY_SHARD
        .try_with(|cell| {
            let mut shard = cell.get();
            if shard == usize::MAX {
                shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
                cell.set(shard);
            }
            shard
        })
        .unwrap_or(0)
}

/// The system allocator plus a count of the bytes it handed out.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter update, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES[shard()]
            .0
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES[shard()]
            .0
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES[shard()]
            .0
            .fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total bytes allocated by every thread of the process so far (a
/// `realloc` counts its new size).
pub fn allocated_bytes() -> u64 {
    BYTES
        .iter()
        .map(|shard| shard.0.load(Ordering::Relaxed))
        .sum()
}
