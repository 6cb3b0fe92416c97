//! Shared helpers for the recorded benches.
//!
//! Each bench target under `benches/` measures one property of the
//! implementation (simulator throughput, streaming-attack memory,
//! telemetry overhead) and rewrites its committed `BENCH_*.json`
//! record. The paper's tables and figures are printed by
//! `examples/reproduce_all.rs`, not by benches.

use rcoal_scenario::json::{ObjBuilder, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Canonical seed used by the benches so printed numbers are reproducible
/// run to run.
pub const BENCH_SEED: u64 = 0xbe_c4;

/// Starts an `rcoal-bench/v1` record with its `schema` and `bench`
/// fields; the bench appends its own fields in order.
pub fn record(bench: &str) -> ObjBuilder {
    ObjBuilder::new()
        .field("schema", Value::str("rcoal-bench/v1"))
        .field("bench", Value::str(bench))
}

/// Writes `record` as one line of compact JSON to `BENCH_<name>.json`
/// at the repository root.
///
/// # Errors
///
/// The file path and the I/O error when the write fails.
pub fn write_record(name: &str, record: ObjBuilder) -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(path).join(format!("BENCH_{name}.json"));
    let mut json = record.build().to_json();
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  recorded to BENCH_{name}.json");
    Ok(())
}

/// A counting wrapper around the system allocator for benches that
/// report peak heap usage alongside wall-clock numbers.
///
/// Opt-in per bench binary (so perf-only benches pay nothing):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rcoal_bench::PeakAlloc = rcoal_bench::PeakAlloc;
/// ```
///
/// Tracking is two relaxed atomics per (de)allocation — negligible next
/// to simulation work, but it *is* a measurement probe: record heap
/// numbers and timings from the same run only when that overhead is
/// acceptable.
pub struct PeakAlloc;

static HEAP_CURRENT: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every allocation verbatim to `System`; the atomics
// only observe sizes and never affect pointer validity.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            let c = HEAP_CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            HEAP_PEAK.fetch_max(c, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        HEAP_CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

impl PeakAlloc {
    /// Restarts the peak-tracking window at the current live heap size.
    pub fn reset_peak() {
        HEAP_PEAK.store(HEAP_CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap bytes since the last [`PeakAlloc::reset_peak`].
    pub fn peak_bytes() -> usize {
        HEAP_PEAK.load(Ordering::Relaxed)
    }

    /// Live heap bytes right now.
    pub fn current_bytes() -> usize {
        HEAP_CURRENT.load(Ordering::Relaxed)
    }
}
