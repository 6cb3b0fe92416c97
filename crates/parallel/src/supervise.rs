//! Supervised execution: panic isolation on top of the deterministic
//! worker pool.
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
//! * Each task runs exactly once. A panic or an error is the task's
//!   outcome: the mapped closure must be a pure function of
//!   `(index, item)`, so running it again would repeat the failure.
//!
//! Nothing here watches the clock: the simulator's own `max_cycles`
//! bound and `SimError::Stalled` watchdog bound how long a task runs.

use crate::run_workers;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a task was denied a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The task panicked; the payload is rendered to a string.
    Panicked(String),
    /// The task returned this error.
    Errored(E),
}

impl<E: std::fmt::Display> std::fmt::Display for FailureKind<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailureKind::Errored(e) => write!(f, "{e}"),
        }
    }
}

/// Maps `f` over `items` under supervision: one result per item, in
/// item order, each the task's value or the panic or error that denied
/// it one. The pool itself never panics or aborts — a poisoned item is
/// quarantined, the rest of the sweep completes. See the module docs
/// for the exact semantics.
pub fn supervised_map<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<R, FailureKind<E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let (slots, _) = run_workers(
        threads,
        items,
        || (),
        |(), i, x| {
            catch_unwind(AssertUnwindSafe(|| f(i, x)))
                .map_err(|payload| FailureKind::Panicked(panic_message(&*payload)))?
                .map_err(FailureKind::Errored)
        },
        None,
    );
    // Without an abort flag every item runs, so every slot is filled.
    slots.into_iter().flatten().collect()
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
