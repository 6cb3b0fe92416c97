//! The allocation budget of sample generation, prediction and the
//! 256-guess push.
//!
//! A counting global allocator tallies every heap allocation of the
//! process. Streamed generation reuses one kernel per launch worker and
//! draws subwarp assignments into stack buffers, and the attack engine
//! reuses its column scratch, so once warm:
//!
//! * `SimulatorSource::next_batch` allocates only what each sample must
//!   own (its `Arc`'d ciphertext lines) plus a per-chunk constant: at
//!   most 2.5 allocations per sample, at one and two worker threads, on
//!   the paper's AES and on `present80`, whose index function writes
//!   into the kernel's reused description;
//! * `AccessPredictor::predict_bytes` allocates nothing per call, on the
//!   randomized RSS(8)+RTS replay as on the deterministic baseline;
//! * `StreamingByteRecovery::push_chunk` on the deterministic baseline
//!   allocates a per-push constant: a 64-sample and a 1,024-sample push
//!   allocate equally often, at one and two worker threads.
//!
//! This file holds exactly one test, so no other test allocates while
//! it counts.

use rcoal_attack::{AccessPredictor, Attack, AttackSample, StreamingByteRecovery};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded verbatim to `System`; the counter only
// observes calls and never affects pointers or layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Samples per generated chunk, as the repository benchmark pulls them.
const CHUNK: usize = 1024;

/// Most allocations one generated sample may cost once warm.
const SAMPLE_BUDGET: f64 = 2.5;

fn generation_allocations_per_sample(
    workload: &str,
    policy: CoalescingPolicy,
    threads: usize,
) -> f64 {
    let cfg = ExperimentConfig::new(policy, CHUNK, 32)
        .with_workload(workload)
        .with_seed(1)
        .with_threads(threads)
        .functional_only();
    let mut source =
        SimulatorSource::new(cfg, TimingSource::ByteAccesses(0)).expect("valid stream config");
    let mut out: Vec<AttackSample> = Vec::with_capacity(CHUNK);
    source.next_batch(CHUNK, &mut out).expect("warm-up chunk");
    out.clear();
    let n = allocations_in(|| {
        source.next_batch(CHUNK, &mut out).expect("measured chunk");
    });
    assert_eq!(out.len(), CHUNK);
    n as f64 / CHUNK as f64
}

fn prediction_allocations_per_call(policy: CoalescingPolicy) -> f64 {
    const CALLS: u64 = 256;
    let mut predictor = AccessPredictor::new(policy, 32, 7);
    let columns: Vec<Vec<u8>> = (0..CALLS)
        .map(|c| (0..32).map(|l| (c * 31 + l * 7) as u8).collect())
        .collect();
    let guess = 0x42;
    let first = predictor.predict_bytes(&columns[0], guess);
    assert!(first > 0.0);
    let n = allocations_in(|| {
        for column in &columns {
            std::hint::black_box(predictor.predict_bytes(std::hint::black_box(column), guess));
        }
    });
    n as f64 / CALLS as f64
}

/// `(small, large)`: allocations of one push of the first 64 and of
/// all 1,024 `samples` through a warm baseline engine.
fn push_allocations(samples: &[AttackSample], threads: usize) -> (u64, u64) {
    let attack = Attack::baseline(32).with_threads(Some(threads));
    let mut engine = StreamingByteRecovery::new(&attack, 0).expect("byte 0 exists");
    // Warm-up: builds the row table and sizes the column scratch.
    engine.push_chunk(samples);
    let small = allocations_in(|| engine.push_chunk(&samples[..64]));
    let large = allocations_in(|| engine.push_chunk(samples));
    (small, large)
}

#[test]
fn generation_and_randomized_prediction_stay_within_the_allocation_budget() {
    let rss_rts = CoalescingPolicy::rss_rts(8).expect("valid subwarp count");
    for policy in [CoalescingPolicy::Baseline, rss_rts] {
        for (workload, threads) in [("aes", 1), ("aes", 2), ("present80", 1), ("present80", 2)] {
            let per_sample = generation_allocations_per_sample(workload, policy, threads);
            assert!(
                per_sample <= SAMPLE_BUDGET,
                "{workload} under {policy} at {threads} thread(s): {per_sample:.2} \
                 allocations per generated sample (budget {SAMPLE_BUDGET})"
            );
        }
        let per_call = prediction_allocations_per_call(policy);
        assert_eq!(
            per_call, 0.0,
            "{policy}: {per_call} allocations per prediction"
        );
    }

    let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, CHUNK, 32)
        .with_seed(1)
        .with_threads(1)
        .functional_only();
    let mut source =
        SimulatorSource::new(cfg, TimingSource::ByteAccesses(0)).expect("valid stream config");
    let mut samples: Vec<AttackSample> = Vec::with_capacity(CHUNK);
    source.next_batch(CHUNK, &mut samples).expect("push chunk");
    for threads in [1, 2] {
        let (small, large) = push_allocations(&samples, threads);
        assert_eq!(
            small, large,
            "at {threads} thread(s) a 64-sample push allocates {small} times \
             but a {CHUNK}-sample push {large} times"
        );
    }
}
