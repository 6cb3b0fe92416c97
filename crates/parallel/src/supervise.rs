//! Supervised execution: panic isolation and a fixed retry schedule on
//! top of the deterministic worker pool.
//!
//! The plain maps in this crate propagate the first failure (an `Err`
//! aborts the sweep; a panic unwinds through the pool). That is the
//! right contract for figure generation — a wrong answer should never
//! be papered over — but the wrong one for long campaign sweeps, where
//! one poisoned scenario must not discard hours of completed work.
//! [`supervised_map`] inverts the contract: **every item always gets a
//! terminal outcome**, and the pool itself never fails. It runs on the
//! same worker loop as the plain maps; only the task body differs.
//!
//! * A panicking task is caught with [`std::panic::catch_unwind`]; the
//!   worker moves on.
//! * A panicking or failing task is retried twice, sleeping 10 ms
//!   before the first retry and 20 ms before the second, then
//!   quarantined with its last panic payload or error.
//!
//! Nothing here watches the clock: the simulator's own `max_cycles`
//! bound and `SimError::Stalled` watchdog bound how long a task runs.
//!
//! Determinism: the mapped closure must be a pure function of
//! `(index, item)`, so a retry re-executes the identical computation —
//! a deterministic failure stays a failure (and is quarantined), while
//! a host-transient one (e.g. an injected fault schedule keyed off the
//! attempt count in chaos tests) can recover.

use crate::run_workers;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

/// Extra attempts granted to a failing task.
const MAX_RETRIES: u32 = 2;

/// Sleep before the first retry; each later retry doubles it.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// The sleep before retry `retry` (1-based): 10 ms, then 20 ms.
pub(crate) fn backoff_before(retry: u32) -> Duration {
    BASE_BACKOFF * (1 << (retry - 1))
}

/// Why a task was denied a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The final attempt panicked; the payload is rendered to a string.
    Panicked(String),
    /// The final attempt returned this error.
    Errored(E),
}

/// Terminal failure record of one quarantined task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure<E> {
    /// Index of the item in the input slice.
    pub index: usize,
    /// Attempts performed (first try plus retries).
    pub attempts: u32,
    /// The failure of the final attempt.
    pub kind: FailureKind<E>,
}

impl<E: std::fmt::Display> std::fmt::Display for TaskFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panicked(msg) => {
                write!(
                    f,
                    "task {} panicked after {} attempt(s): {msg}",
                    self.index, self.attempts
                )
            }
            FailureKind::Errored(e) => write!(
                f,
                "task {} failed after {} attempt(s): {e}",
                self.index, self.attempts
            ),
        }
    }
}

/// Typed outcome tally of one [`supervised_map`] call.
///
/// `ok` counts tasks that succeeded on their first attempt; `retried`
/// counts tasks that succeeded only after at least one retry (the two
/// are disjoint; `ok + retried` is the number of tasks with results).
/// `retries` is the total number of extra attempts granted across all
/// tasks, successful or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Tasks that succeeded first try.
    pub ok: u64,
    /// Tasks that succeeded after retrying.
    pub retried: u64,
    /// Tasks quarantined with a panic or error.
    pub quarantined: u64,
    /// Extra attempts performed beyond each task's first.
    pub retries: u64,
}

/// Maps `f` over `items` under supervision: results come back in item
/// order, one `Result<R, TaskFailure<E>>` per item, with the tally of
/// how they ended. The pool itself never panics or aborts — a poisoned
/// item is quarantined, the rest of the sweep completes. See the module
/// docs for the exact semantics.
pub fn supervised_map<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> (Vec<Result<R, TaskFailure<E>>>, OutcomeCounts)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let (slots, _) = run_workers(threads, items, || (), |(), i, x| run_task(i, x, &f), None);
    let mut outcomes = OutcomeCounts::default();
    // Without an abort flag every item runs, so every slot is filled.
    let results = slots
        .into_iter()
        .flatten()
        .map(|r| match r {
            Ok((value, attempts)) => {
                if attempts > 1 {
                    outcomes.retried += 1;
                } else {
                    outcomes.ok += 1;
                }
                outcomes.retries += u64::from(attempts - 1);
                Ok(value)
            }
            Err(failure) => {
                outcomes.quarantined += 1;
                outcomes.retries += u64::from(failure.attempts - 1);
                Err(failure)
            }
        })
        .collect();
    (results, outcomes)
}

/// One task under supervision: the attempt/retry loop. A success
/// carries the attempts it took.
fn run_task<T, R, E, F>(index: usize, item: &T, f: &F) -> Result<(R, u32), TaskFailure<E>>
where
    F: Fn(usize, &T) -> Result<R, E>,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let kind = match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
            Ok(Ok(value)) => return Ok((value, attempts)),
            Ok(Err(e)) => FailureKind::Errored(e),
            Err(payload) => FailureKind::Panicked(panic_message(&*payload)),
        };
        if attempts > MAX_RETRIES {
            return Err(TaskFailure {
                index,
                attempts,
                kind,
            });
        }
        thread::sleep(backoff_before(attempts));
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
