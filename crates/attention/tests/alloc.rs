//! One fused run allocates only when it loads a K/V row.
//!
//! This file is its own test binary so that its counting
//! `#[global_allocator]` serves only this test. Counts are kept per
//! thread, so the test harness's other threads never show up in them.
//! Inputs are built before a count starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swat_attention::fused::{fused_pattern_attention_in, FusedRun};
use swat_attention::SparsityPattern;
use swat_numeric::{SplitMix64, F16};
use swat_tensor::{Matrix, Scalar};

thread_local! {
    /// Calls this thread has made to `alloc` or `realloc`.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation against the allocating thread, then hands it to
/// the system allocator.
struct Counting;

/// Adds one to this thread's count. `try_with` fails only while the
/// thread is being torn down, when nothing is counted.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counter is
// a thread-local `Cell` with a const initializer and no destructor, so
// counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a run makes besides its K/V loads: the three quantised
/// inputs, the output, the FIFO's slot table, and the target, score and
/// `z` buffers its rows share.
const FIXED: u64 = 8;

fn qkv(n: usize, h: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    let mut rng = SplitMix64::new(seed);
    let mut gen = |_: usize, _: usize| rng.next_f32_in(-1.0, 1.0);
    (
        Matrix::from_fn(n, h, &mut gen),
        Matrix::from_fn(n, h, &mut gen),
        Matrix::from_fn(n, h, &mut gen),
    )
}

/// One run of `pattern` in precision `T`, with the allocations it made on
/// this thread.
fn counted<T: Scalar>(pattern: &SparsityPattern, seed: u64) -> (FusedRun, u64) {
    let (q, k, v) = qkv(pattern.seq_len(), 16, seed);
    let before = ALLOCATIONS.with(Cell::get);
    let run = fused_pattern_attention_in::<T>(&q, &k, &v, pattern, 0.25);
    (run, ALLOCATIONS.with(Cell::get) - before)
}

/// A load copies one K row and one V row into the FIFO; nothing else in a
/// run allocates per row or per attended pair, whatever the pattern.
fn allocations_follow_loads<T: Scalar>() {
    let patterns = [
        SparsityPattern::sliding_window(300, 8),
        SparsityPattern::longformer(300, 8, &[0, 150]),
        SparsityPattern::bigbird(300, 8, 4, 6, 9),
        SparsityPattern::causal_window(300, 4),
    ];
    for pattern in &patterns {
        let (run, allocations) = counted::<T>(pattern, 7);
        assert!(
            allocations <= 2 * run.kv_loads + FIXED,
            "{}: {allocations} allocations for {} loads of {} rows",
            T::NAME,
            run.kv_loads,
            pattern.seq_len()
        );
    }
}

#[test]
fn a_fused_run_allocates_only_for_its_kv_loads() {
    allocations_follow_loads::<F16>();
    allocations_follow_loads::<f32>();
}

/// A wider window attends eight times the pairs but loads the same rows,
/// so it allocates exactly as often.
#[test]
fn the_window_width_does_not_change_the_allocation_count() {
    fn by_width<T: Scalar>() {
        let (narrow, a) = counted::<T>(&SparsityPattern::sliding_window(256, 8), 3);
        let (wide, b) = counted::<T>(&SparsityPattern::sliding_window(256, 64), 3);
        assert_eq!(narrow.kv_loads, wide.kv_loads);
        assert_eq!(
            a,
            b,
            "{}: w = 8 made {a} allocations, w = 64 made {b}",
            T::NAME
        );
    }
    by_width::<F16>();
    by_width::<f32>();
}
