//! The kernel's heap follows the work in flight, not the trace length.
//!
//! This file is its own test binary so that its counting
//! `#[global_allocator]` serves only this test. Counts are kept per
//! thread, so the test harness's other threads never show up in them.
//! A trace is built before its measurement starts: the caller's trace is
//! the caller's memory, and the test counts what one `Simulation::run`
//! allocates on top of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::policy::LeastLoaded;
use swat_serve::request::Request;
use swat_serve::sim::{Simulation, TrafficSpec};
use swat_serve::trace::TelemetryMode;
use swat_workloads::RequestMix;

thread_local! {
    /// Bytes this thread holds. Signed: a thread may free what another
    /// allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has reached since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// The largest single allocation since the last [`measure`] began.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Counts every allocation's bytes against the allocating thread, then
/// hands it to the system allocator.
struct Counting;

/// Charges `delta` bytes to this thread, from an allocation of `size`
/// bytes when it grows the heap. `try_with` fails only while the thread
/// is being torn down, when nothing is measured.
fn charge(delta: isize, size: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counters
// are thread-local `Cell`s with const initializers and no destructor, so
// counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            charge(layout.size() as isize, layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        charge(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            charge(new_size as isize - layout.size() as isize, new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one call allocated on this thread.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    /// Peak live heap above the level the call started from, in bytes.
    peak: isize,
    /// The largest single allocation, in bytes.
    largest: usize,
}

/// Runs `f` and returns its [`Footprint`].
fn measure(f: impl FnOnce()) -> Footprint {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    LARGEST.with(|largest| largest.set(0));
    f();
    Footprint {
        peak: PEAK.with(Cell::get) - base,
        largest: LARGEST.with(Cell::get),
    }
}

/// Poisson(14) production traffic on six cards under least-loaded
/// dispatch, the shape of perfbench's `steady-long`, at 10k and then 100k
/// requests. The fleet keeps up, so the queue stays shallow and the work
/// in flight is about the same at both lengths.
///
/// Streaming telemetry must hold the run's heap flat: the peak may grow by
/// at most 64 KiB, and no single allocation may grow with the trace (a
/// per-request bitmap or copy would). Exact telemetry keeps two `f64`
/// latency samples per completion by design, so its peak may grow by at
/// most 32 B per extra request: 16 B of samples plus `Vec` doubling.
#[test]
fn a_run_holds_memory_for_the_work_in_flight_not_the_trace() {
    let fleet = FleetConfig::standard(6);
    let spec = TrafficSpec {
        arrivals: ArrivalProcess::poisson(14.0),
        mix: RequestMix::Production,
        seed: 24301,
    };
    let (short, long) = (spec.requests(10_000), spec.requests(100_000));
    let extra = (long.len() - short.len()) as f64;
    for mode in [TelemetryMode::Streaming, TelemetryMode::Exact] {
        let sim = Simulation::new(&fleet).telemetry(mode);
        let run = |trace: &[Request]| {
            measure(|| {
                let report = sim.run(&mut LeastLoaded::default(), trace);
                assert_eq!(report.completed, trace.len(), "{mode:?}");
            })
        };
        let (a, b) = (run(&short), run(&long));
        let growth = b.peak - a.peak;
        match mode {
            TelemetryMode::Streaming => {
                assert!(
                    growth <= 64 * 1024,
                    "streaming peak grew by {growth} B: {a:?} at 10k, {b:?} at 100k"
                );
                assert!(
                    b.largest <= a.largest,
                    "an allocation grew with the trace: {a:?} at 10k, {b:?} at 100k"
                );
            }
            TelemetryMode::Exact => {
                let per_request = growth as f64 / extra;
                assert!(
                    per_request <= 32.0,
                    "exact peak grew by {per_request:.1} B per request: \
                     {a:?} at 10k, {b:?} at 100k"
                );
            }
        }
    }
}
