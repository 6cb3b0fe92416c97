//! # rcoal-parallel — deterministic parallel execution
//!
//! Pure-`std` data parallelism for the workspace's embarrassingly
//! parallel sweeps (per-plaintext kernel launches, per-policy figure
//! rows, per-guess correlation scans). The design contract is
//! *determinism*: [`parallel_map`] returns exactly the vector the
//! sequential loop would return, for any thread count, because
//!
//! * work items are distributed by an atomic index (no per-thread
//!   pre-partitioning, so there is no load-balance-dependent split), and
//! * results are collected **by item index**, never by completion order.
//!
//! Every item must therefore derive its own randomness from its index
//! (the workspace's seed-per-launch convention), never from shared
//! mutable state; under that convention the output is bit-identical at
//! `threads = 1` and `threads = N`.
//!
//! Every map runs on one worker loop. `threads <= 1` runs its single
//! worker on the calling thread — no thread is spawned, and fallible
//! maps short-circuit exactly like a plain `for` loop.
//!
//! ```
//! use rcoal_parallel::{parallel_map, resolve_threads};
//!
//! let squares = parallel_map(resolve_threads(None), &[1u64, 2, 3, 4], |_i, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod supervise;

pub use supervise::{supervised_map, FailureKind};

use rcoal_telemetry::MetricsRegistry;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-thread count for every
/// parallel sweep in the workspace (`0` and unparseable values are
/// ignored; explicit API arguments win over the environment).
pub const THREADS_ENV: &str = "RCOAL_THREADS";

/// Resolves the worker-thread count for a parallel sweep.
///
/// Precedence: an explicit `requested` count (already validated by the
/// caller), else a positive [`THREADS_ENV`] value, else
/// [`std::thread::available_parallelism`], else 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// the results in item order. `f(i, &items[i])` must depend only on its
/// arguments (derive per-item randomness from `i`); the output is then
/// identical for every thread count.
///
/// With `threads <= 1` (or fewer than two items) no thread is spawned
/// and the map runs on the calling thread.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (slots, _) = run_workers(
        threads,
        items,
        || (),
        |(), i, x| Ok::<R, Never>(f(i, x)),
        None,
    );
    // Without an abort flag every item runs, so every slot is filled.
    slots
        .into_iter()
        .flatten()
        .map(|r| match r {
            Ok(v) => v,
            Err(never) => match never {},
        })
        .collect()
}

/// [`parallel_map`] over items the map updates in place: `f(i, &mut
/// items[i])`. Each item is claimed by exactly one worker, so `f` may
/// keep per-item mutable state (an RNG stream, running sums) across
/// calls without any sharing between items.
pub fn parallel_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    parallel_map(threads, &cells, |i, cell| {
        f(i, &mut cell.lock().unwrap_or_else(PoisonError::into_inner))
    })
}

/// Fallible [`parallel_map`]: maps `f` over `items` and collects
/// `Ok` results in item order, or returns the error of the
/// *lowest-indexed* failing item — the same error the sequential
/// short-circuiting loop would return, keeping failure behavior
/// deterministic across thread counts.
///
/// After the first observed error, workers stop claiming new items
/// (items already claimed still finish); every item below the failing
/// index is guaranteed to have completed, so the reported error index
/// cannot drift with scheduling.
///
/// # Errors
///
/// The error produced by the lowest-indexed item on which `f` failed.
pub fn try_parallel_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_parallel_map_init(threads, items, || (), |(), i, x| f(i, x)).0
}

/// [`try_parallel_map`] with per-worker state and a host-domain
/// [`PoolReport`]: each worker calls `init` once, before its first
/// item, then `f(&mut state, i, &items[i])` for every item it claims.
/// The report is returned even when the map fails (covering the items
/// that did run).
///
/// State is how a worker reuses buffers across items (a launch worker
/// keeps one kernel and rewrites it per launch). Which worker runs an
/// item depends on scheduling, so `f`'s result must depend only on
/// `(i, &items[i])`, never on what the state held before.
///
/// # Errors
///
/// As [`try_parallel_map`]: the error of the lowest-indexed failing item.
pub fn try_parallel_map_init<T, S, R, E, I, F>(
    threads: usize,
    items: &[T],
    init: I,
    f: F,
) -> (Result<Vec<R>, E>, PoolReport)
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let abort = AtomicBool::new(false);
    let (slots, report) = run_workers(threads, items, init, f, Some(&abort));
    // Slots left empty by the abort all lie past the failing item, so
    // the first error in item order is still the lowest-indexed one.
    let result = slots.into_iter().flatten().collect();
    (result, report)
}

/// Host-domain utilization report of one parallel sweep.
///
/// Everything here is wall-clock and scheduling-dependent: two runs with
/// identical inputs produce identical *results* but different reports.
/// Record reports into a [`MetricsRegistry`]; never compare them across
/// runs or let them influence computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Workers that actually ran (1 when the map ran on the calling
    /// thread).
    pub workers: usize,
    /// Items mapped.
    pub items: usize,
    /// Items completed by each worker.
    pub per_worker_items: Vec<u64>,
    /// Time each worker spent inside the mapped closure.
    pub per_worker_busy: Vec<Duration>,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
}

impl PoolReport {
    /// Fraction of the pool's total capacity (`workers × wall`) spent
    /// inside the mapped closure — 1.0 is a perfectly packed pool.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.per_worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / capacity).min(1.0)
    }

    /// Records the report into `registry` under `pool.<name>.*`:
    /// total items and wall micros as counters, worker count and
    /// per-mille utilization as gauges, and per-worker item counts as a
    /// histogram (so imbalance is visible without one metric per worker).
    pub fn record_into(&self, registry: &MetricsRegistry, name: &str) {
        registry
            .counter(&format!("pool.{name}.items"))
            .add(self.items as u64);
        registry
            .counter(&format!("pool.{name}.wall_micros"))
            .add(self.wall.as_micros().min(u128::from(u64::MAX)) as u64);
        registry.counter(&format!("pool.{name}.sweeps")).inc();
        registry
            .gauge(&format!("pool.{name}.workers"))
            .raise_to(self.workers as u64);
        registry
            .gauge(&format!("pool.{name}.utilization_permille"))
            .set((self.utilization() * 1000.0) as u64);
        let worker_items = registry.histogram(&format!("pool.{name}.worker_items"));
        for &n in &self.per_worker_items {
            worker_items.record(n);
        }
        let worker_busy = registry.histogram(&format!("pool.{name}.worker_busy_micros"));
        for d in &self.per_worker_busy {
            worker_busy.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
}

/// An uninhabited error type for the infallible path (a local stand-in
/// for the unstable `!`).
enum Never {}

/// The one worker loop behind every map: claims indices from an atomic
/// counter, applies `f` to the worker's state (built by `init` before
/// its first item), times each item, and returns one result slot per
/// item, in item order, with the pool's [`PoolReport`]. When `abort` is
/// provided, an `Err` result raises the flag and stops further claims;
/// the slots of items never claimed stay `None`.
///
/// Results go straight into their item's slot, so the loop allocates
/// the same whatever worker claims which item: the slots, not per-worker
/// buffers that grow with a worker's share.
///
/// With `threads.min(items.len()) <= 1` the single worker runs on the
/// calling thread: nothing is spawned and a panic propagates directly.
/// Otherwise workers run on scoped threads and a worker's panic is
/// re-raised on the caller once the scope joins.
///
/// The atomic counter hands indices out in increasing order, so by the
/// time index `k` fails, every index below `k` has already been claimed
/// and will run to completion — which is what makes "first error by
/// index" well defined under any interleaving.
#[allow(clippy::type_complexity)]
fn run_workers<T, S, R, E, I, F>(
    threads: usize,
    items: &[T],
    init: I,
    f: F,
    abort: Option<&AtomicBool>,
) -> (Vec<Option<Result<R, E>>>, PoolReport)
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let start = Instant::now();
    let n = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut claimed = 0u64;
        let mut busy = Duration::ZERO;
        let mut state = None;
        loop {
            if abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let t0 = Instant::now();
            let r = f(state.get_or_insert_with(&init), i, &items[i]);
            busy += t0.elapsed();
            if r.is_err() {
                if let Some(a) = abort {
                    a.store(true, Ordering::Relaxed);
                }
            }
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            claimed += 1;
        }
        (claimed, busy)
    };
    let workers = threads.min(n);
    let per_worker: Vec<(u64, Duration)> = if workers <= 1 {
        vec![worker()]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let report = PoolReport {
        workers: per_worker.len(),
        items: n,
        per_worker_items: per_worker.iter().map(|&(claimed, _)| claimed).collect(),
        per_worker_busy: per_worker.iter().map(|&(_, busy)| busy).collect(),
        wall: start.elapsed(),
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn matches_sequential_output_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(1, &items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 8, 64] {
            let par = parallel_map(threads, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn map_mut_updates_every_item_in_place_once() {
        for threads in [1, 3] {
            let mut items: Vec<Vec<u64>> = (0..10).map(|i| vec![i]).collect();
            let lens = parallel_map_mut(threads, &mut items, |i, v| {
                v.push(i as u64 * 10);
                v.len()
            });
            assert_eq!(lens, vec![2; 10], "threads = {threads}");
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, v)| *v == [i as u64, i as u64 * 10]));
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(100, &[1u32, 2, 3], |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn try_map_collects_in_order() {
        let items: Vec<u32> = (0..100).collect();
        let out: Result<Vec<u32>, String> = try_parallel_map(4, &items, |_, &x| Ok(x * 2));
        assert_eq!(
            out.unwrap(),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_map_returns_the_lowest_indexed_error() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4, 16] {
            let err = try_parallel_map(threads, &items, |i, _| {
                if i >= 13 {
                    Err(format!("fail at {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "fail at 13", "threads = {threads}");
        }
    }

    #[test]
    fn sequential_path_short_circuits() {
        let seen = Mutex::new(Vec::new());
        let items: Vec<u32> = (0..10).collect();
        let err: Result<Vec<u32>, &str> = try_parallel_map(1, &items, |i, &x| {
            seen.lock().unwrap().push(i);
            if i == 3 {
                Err("boom")
            } else {
                Ok(x)
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_errors_stop_new_claims() {
        // With an early error, far fewer than all items should run
        // (best effort — only check that the result is still correct).
        let items: Vec<u32> = (0..10_000).collect();
        let err = try_parallel_map(8, &items, |i, _| if i == 0 { Err("first") } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, "first");
    }

    #[test]
    fn init_map_builds_state_at_most_once_per_worker() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 4] {
            let inits = AtomicU32::new(0);
            let (out, report) = try_parallel_map_init(
                threads,
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |buf: &mut Vec<u64>, i, &x| {
                    // The buffer is reused scratch: the result must not
                    // depend on what an earlier item left in it.
                    buf.clear();
                    buf.extend(0..=x);
                    Ok::<u64, String>(buf.iter().sum::<u64>() + i as u64)
                },
            );
            let want: Vec<u64> = items.iter().map(|&x| x * (x + 1) / 2 + x).collect();
            assert_eq!(out.unwrap(), want, "threads = {threads}");
            let inits = inits.load(Ordering::Relaxed) as usize;
            assert!(inits >= 1 && inits <= report.workers, "{inits} inits");
        }
        let empty: Vec<u64> = Vec::new();
        let (out, _) = try_parallel_map_init(
            1,
            &empty,
            || panic!("no item, no init"),
            |(), _, &x| Ok::<u64, String>(x),
        );
        assert!(out.unwrap().is_empty());
    }

    #[test]
    fn init_map_returns_the_lowest_indexed_error() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4] {
            let (out, report) = try_parallel_map_init(
                threads,
                &items,
                || 0u32,
                |seen, i, &x| {
                    *seen += 1;
                    if i >= 13 {
                        Err(format!("fail at {i}"))
                    } else {
                        Ok(x)
                    }
                },
            );
            assert_eq!(out.unwrap_err(), "fail at 13", "threads = {threads}");
            assert_eq!(report.items, 64);
        }
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit zero clamps to one");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn metered_map_matches_unmetered_output() {
        let items: Vec<u64> = (0..123).collect();
        let plain = parallel_map(4, &items, |i, &x| x * 7 + i as u64);
        let (metered, report) = try_parallel_map_init(
            4,
            &items,
            || (),
            |(), i, &x| Ok::<u64, String>(x * 7 + i as u64),
        );
        let metered = metered.unwrap();
        assert_eq!(metered, plain, "metering must not change results");
        assert_eq!(report.items, 123);
        assert!(report.workers >= 1 && report.workers <= 4);
        assert_eq!(
            report.per_worker_items.iter().sum::<u64>(),
            123,
            "every item is attributed to exactly one worker"
        );
        assert_eq!(report.per_worker_items.len(), report.workers);
        assert_eq!(report.per_worker_busy.len(), report.workers);
    }

    #[test]
    fn metered_sequential_path_reports_one_worker() {
        let (out, report) = try_parallel_map_init(
            1,
            &[1u32, 2, 3],
            || (),
            |(), _, &x| Ok::<u32, String>(x * 2),
        );
        assert_eq!(out.unwrap(), vec![2, 4, 6]);
        assert_eq!(report.workers, 1);
        assert_eq!(report.per_worker_items, vec![3]);
        assert!(report.utilization() <= 1.0);
    }

    #[test]
    fn try_metered_reports_even_on_failure() {
        let items: Vec<u32> = (0..64).collect();
        let (out, report) = try_parallel_map_init(
            4,
            &items,
            || (),
            |(), i, &x| if i == 20 { Err("boom") } else { Ok(x) },
        );
        assert_eq!(out.unwrap_err(), "boom");
        assert!(report.items == 64 && report.workers >= 1);
    }

    #[test]
    fn pool_report_records_into_registry() {
        let report = PoolReport {
            workers: 2,
            items: 10,
            per_worker_items: vec![6, 4],
            per_worker_busy: vec![Duration::from_micros(500), Duration::from_micros(300)],
            wall: Duration::from_micros(600),
        };
        // busy 800µs over capacity 1200µs ⇒ 2/3 utilization.
        assert!((report.utilization() - 2.0 / 3.0).abs() < 1e-9);
        let reg = MetricsRegistry::new();
        report.record_into(&reg, "sweep");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pool.sweep.items"], 10);
        assert_eq!(snap.counters["pool.sweep.sweeps"], 1);
        assert_eq!(snap.gauges["pool.sweep.workers"], 2);
        assert_eq!(snap.gauges["pool.sweep.utilization_permille"], 666);
        assert_eq!(snap.hists["pool.sweep.worker_items"].count(), 2);
        assert_eq!(snap.hists["pool.sweep.worker_items"].sum(), 10);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(4, &items, |i, &x| {
                assert!(i != 5, "deliberate panic");
                x
            })
        });
        assert!(result.is_err());
    }

    // ---- supervised mode --------------------------------------------

    /// Supervised maps quarantine a panicking task instead of killing
    /// the pool: every other task keeps its result, ordering is by item
    /// index, and no task is lost.
    #[test]
    fn supervised_panic_is_quarantined_not_fatal() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4] {
            let out = supervised_map(threads, &items, |i, &x| {
                assert!(i != 5, "deliberate panic at 5");
                Ok::<u32, String>(x * 2)
            });
            assert_eq!(out.len(), 32, "no lost tasks (threads = {threads})");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let failure = r.as_ref().unwrap_err();
                    assert!(
                        matches!(failure, FailureKind::Panicked(m) if m.contains("deliberate")),
                        "{failure:?}"
                    );
                    assert!(failure.to_string().starts_with("panicked: deliberate"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 2, "index order preserved");
                }
            }
        }
    }

    /// After a panic the pool stays usable: an immediately following
    /// sweep on the same thread count completes cleanly.
    #[test]
    fn supervised_pool_remains_usable_after_panic() {
        let items: Vec<u32> = (0..64).collect();
        let first = supervised_map(4, &items, |i, &x| {
            assert!(i % 7 != 3, "poison");
            Ok::<u32, String>(x)
        });
        assert!(first.iter().any(|r| r.is_err()));
        let second = supervised_map(4, &items, |_, &x| Ok::<u32, String>(x + 1));
        assert_eq!(
            second.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            items.iter().map(|x| x + 1).collect::<Vec<_>>(),
            "pool is reusable"
        );
    }

    /// A failing task is not re-run: a task that always errors and one
    /// that always panics are each called exactly once, and every other
    /// slot keeps its value in index order.
    #[test]
    fn supervised_tasks_run_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u32> = (0..8).collect();
        for threads in [1, 3] {
            let calls: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            let out = supervised_map(threads, &items, |i, &x| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 6, "always panics");
                if i == 3 {
                    Err(format!("always fails {i}"))
                } else {
                    Ok(x * 10)
                }
            });
            let calls: Vec<u32> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(calls, vec![1; 8], "threads = {threads}");
            assert_eq!(
                out[3],
                Err(FailureKind::Errored("always fails 3".to_string()))
            );
            assert!(matches!(&out[6], Err(FailureKind::Panicked(m)) if m == "always panics"));
            for (i, r) in out.iter().enumerate() {
                if i != 3 && i != 6 {
                    assert_eq!(*r, Ok(items[i] * 10), "slot {i} (threads = {threads})");
                }
            }
        }
    }
}
