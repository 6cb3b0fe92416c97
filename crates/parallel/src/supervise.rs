//! Supervised execution: panic isolation, retry budgets, and deadline
//! accounting on top of the deterministic worker pool.
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
//! * A panicking task is caught with [`std::panic::catch_unwind`] and
//!   quarantined with its payload; the worker moves on.
//! * A failing task is retried up to [`SupervisorPolicy::max_retries`]
//!   times with exponential backoff, then quarantined with its error.
//! * A task whose attempt overruns [`SupervisorPolicy::deadline`] is
//!   classified as timed out. The watchdog is *detection, not
//!   preemption*: the attempt runs to completion on its worker (the
//!   simulator's own `SimError::Stalled` watchdog bounds task runtime),
//!   but its result is discarded and the overrun is surfaced — so a
//!   wall-clock-dependent result can never silently enter a sweep that
//!   promised determinism. Deadlines are host-domain and therefore
//!   **opt-in**; the default policy has none.
//!
//! Determinism: the mapped closure must be a pure function of
//! `(index, item)`, so a retry re-executes the identical computation —
//! a deterministic failure stays a failure (and is quarantined), while
//! a host-transient one (e.g. an injected fault schedule keyed off the
//! attempt count in chaos tests) can recover.

use crate::{run_workers, PoolReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

/// How a supervised pool treats misbehaving tasks.
///
/// Task panics are always caught and quarantined. The default policy
/// grants two retries with a 10 ms exponential backoff, and sets **no
/// deadline** — deadlines compare wall-clock time and are therefore
/// host-domain; enable one only where a discarded-late-result is
/// acceptable (campaign sweeps, chaos tests), never where results must
/// be machine-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Extra attempts granted to a failing task (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff before retry `k` (slept for `backoff << (k - 1)`,
    /// capped at [`SupervisorPolicy::MAX_BACKOFF`]).
    pub backoff: Duration,
    /// Per-attempt wall-clock budget; `None` disables the watchdog.
    pub deadline: Option<Duration>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(10),
            deadline: None,
        }
    }
}

impl SupervisorPolicy {
    /// Upper bound on a single backoff sleep.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(1);

    /// Sets the retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base backoff (`Duration::ZERO` retries immediately).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Arms the per-attempt deadline watchdog.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The sleep granted before retry attempt `attempt + 1` (attempts
    /// are 1-based; exponential in the number of failures so far).
    pub fn backoff_for(&self, attempts_so_far: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = attempts_so_far.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(1u32 << shift)
            .min(Self::MAX_BACKOFF)
    }
}

/// Why a task was denied a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The final attempt panicked; the payload is rendered to a string.
    Panicked(String),
    /// The final attempt returned this error.
    Errored(E),
    /// The final attempt completed only after the policy deadline; its
    /// result was discarded. Carries the elapsed wall-clock time.
    TimedOut(Duration),
}

/// Terminal failure record of one quarantined task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure<E> {
    /// Index of the item in the input slice.
    pub index: usize,
    /// Attempts performed (1 = no retry was granted or needed).
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
            FailureKind::TimedOut(d) => write!(
                f,
                "task {} overran its deadline ({} ms elapsed, {} attempt(s))",
                self.index,
                d.as_millis(),
                self.attempts
            ),
        }
    }
}

/// Typed per-sweep outcome tally (ok / retried / quarantined /
/// timed-out), carried by [`PoolReport`].
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
    /// Tasks quarantined for overrunning the deadline.
    pub timed_out: u64,
    /// Extra attempts performed beyond each task's first.
    pub retries: u64,
}

impl OutcomeCounts {
    /// The tally of an unsupervised sweep: every task ok, nothing else.
    pub fn all_ok(items: usize) -> Self {
        OutcomeCounts {
            ok: items as u64,
            ..Self::default()
        }
    }

    /// Tasks that ended without a result (quarantined or timed out).
    pub fn failed(&self) -> u64 {
        self.quarantined + self.timed_out
    }
}

/// Maps `f` over `items` under supervision: results come back in item
/// order, one `Result<R, TaskFailure<E>>` per item, and the pool itself
/// never panics or aborts — a poisoned item is quarantined, the rest of
/// the sweep completes. See the module docs for the exact semantics.
///
/// The report's [`PoolReport::outcomes`] carries the typed tally;
/// everything else in the report keeps the host-domain caveats of the
/// unsupervised maps.
pub fn supervised_map<T, R, E, F>(
    threads: usize,
    policy: &SupervisorPolicy,
    items: &[T],
    f: F,
) -> (Vec<Result<R, TaskFailure<E>>>, PoolReport)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let (indexed, mut report) = run_workers(
        threads,
        items,
        || (),
        |(), i, x| run_task(policy, i, x, &f),
        None,
    );
    let mut outcomes = OutcomeCounts::default();
    let results = indexed
        .into_iter()
        .map(|(_, r)| match r {
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
                match failure.kind {
                    FailureKind::TimedOut(_) => outcomes.timed_out += 1,
                    _ => outcomes.quarantined += 1,
                }
                outcomes.retries += u64::from(failure.attempts - 1);
                Err(failure)
            }
        })
        .collect();
    report.outcomes = outcomes;
    (results, report)
}

/// One task under supervision: the attempt/retry/deadline loop. A
/// success carries the attempts it took.
fn run_task<T, R, E, F>(
    policy: &SupervisorPolicy,
    index: usize,
    item: &T,
    f: &F,
) -> Result<(R, u32), TaskFailure<E>>
where
    F: Fn(usize, &T) -> Result<R, E>,
{
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let t0 = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| f(index, item)));
        let elapsed = t0.elapsed();
        let overran = policy.deadline.is_some_and(|d| elapsed > d);
        let failure: FailureKind<E> = match attempt {
            Ok(Ok(value)) if !overran => return Ok((value, attempts)),
            // A late success is a watchdog violation: the result is
            // discarded so wall-clock speed can never select results.
            Ok(Ok(_)) => FailureKind::TimedOut(elapsed),
            Ok(Err(_)) if overran => FailureKind::TimedOut(elapsed),
            Ok(Err(e)) => FailureKind::Errored(e),
            Err(_) if overran => FailureKind::TimedOut(elapsed),
            Err(payload) => FailureKind::Panicked(panic_message(&*payload)),
        };
        if attempts >= max_attempts {
            return Err(TaskFailure {
                index,
                attempts,
                kind: failure,
            });
        }
        let backoff = policy.backoff_for(attempts);
        if backoff > Duration::ZERO {
            thread::sleep(backoff);
        }
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
