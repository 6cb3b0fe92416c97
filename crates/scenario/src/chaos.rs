//! Seeded host-fault injection for chaos testing the run store and the
//! sweep runner.
//!
//! PR 1 proved the *simulated GPU* tolerates injected DRAM/interconnect
//! faults; this module brings the same discipline to the host layer
//! that runs it. A [`ChaosPlan`] is a deterministic schedule of
//! host-level faults — worker panics, disk-write failures, payload
//! corruption, torn writes, and a mid-sweep process abort — keyed by a
//! seed and an operation index, so a chaos run is exactly reproducible
//! (the same plan fires on the same operations every time) and the
//! tests can compute the expected fault set with the same functions the
//! injection uses.
//!
//! The plan is carried by [`crate::RunCache`] (write-path faults) and
//! by the experiment layer's sweep runner (worker panics and the abort
//! switch). A default-constructed plan is inert: every predicate is
//! `false`, and production code pays only an `Option`-style check.

/// A deterministic schedule of injected host faults.
///
/// Each fault class has an independent period `p`: with seed `s`, the
/// class fires on operation `op` iff `mix(s ^ salt, op) % p == 0`, so
/// roughly one in `p` operations faults, spread pseudo-randomly but
/// reproducibly. `None` (the default) disables the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Seed shared by every fault class (classes are decorrelated by
    /// per-class salts).
    pub seed: u64,
    /// Worker-panic period: the sweep runner panics instead of running
    /// the scheduled task.
    pub panic_period: Option<u64>,
    /// Disk-write failure period: the run store drops the write on the
    /// floor (counted, never silently).
    pub io_fail_period: Option<u64>,
    /// Payload-corruption period: a byte of the encoded payload is
    /// flipped after checksumming, simulating bit rot / decode
    /// corruption that the entry checksum must catch.
    pub corrupt_period: Option<u64>,
    /// Torn-write period: only a prefix of the entry reaches disk,
    /// simulating a crash or reordering between write and rename.
    pub torn_write_period: Option<u64>,
    /// Process abort after this many runs have completed and been
    /// inserted into the store — the kill-and-resume switch
    /// (`std::process::abort`, no unwinding, no destructors: the honest
    /// crash).
    pub abort_after: Option<u64>,
}

impl ChaosPlan {
    /// A plan that injects nothing (the default).
    pub fn inert() -> Self {
        Self::default()
    }

    /// A plan with this seed and no faults armed.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..Self::default()
        }
    }

    /// Whether every fault class is disabled.
    pub fn is_inert(&self) -> bool {
        self.panic_period.is_none()
            && self.io_fail_period.is_none()
            && self.corrupt_period.is_none()
            && self.torn_write_period.is_none()
            && self.abort_after.is_none()
    }

    /// Arms worker-panic injection with period `p`.
    #[must_use]
    pub fn with_panics(mut self, p: u64) -> Self {
        self.panic_period = Some(p);
        self
    }

    /// Arms disk-write-failure injection with period `p`.
    #[must_use]
    pub fn with_io_failures(mut self, p: u64) -> Self {
        self.io_fail_period = Some(p);
        self
    }

    /// Arms payload-corruption injection with period `p`.
    #[must_use]
    pub fn with_corruption(mut self, p: u64) -> Self {
        self.corrupt_period = Some(p);
        self
    }

    /// Arms torn-write injection with period `p`.
    #[must_use]
    pub fn with_torn_writes(mut self, p: u64) -> Self {
        self.torn_write_period = Some(p);
        self
    }

    /// Arms the process-abort switch after the `n`-th run completes
    /// and is stored.
    #[must_use]
    pub fn with_abort_after(mut self, n: u64) -> Self {
        self.abort_after = Some(n);
        self
    }

    /// Whether the worker-panic fault fires on task `op`.
    pub fn panics_on(&self, op: u64) -> bool {
        fires(self.panic_period, self.seed ^ SALT_PANIC, op)
    }

    /// Whether the disk-write-failure fault fires on store write `op`.
    pub fn io_fails_on(&self, op: u64) -> bool {
        fires(self.io_fail_period, self.seed ^ SALT_IO, op)
    }

    /// Whether the corruption fault fires on store write `op`.
    pub fn corrupts_on(&self, op: u64) -> bool {
        fires(self.corrupt_period, self.seed ^ SALT_CORRUPT, op)
    }

    /// Whether the torn-write fault fires on store write `op`.
    pub fn tears_on(&self, op: u64) -> bool {
        fires(self.torn_write_period, self.seed ^ SALT_TORN, op)
    }
}

const SALT_PANIC: u64 = 0x70616e6963; // "panic"
const SALT_IO: u64 = 0x696f_6661696c; // "iofail"
const SALT_CORRUPT: u64 = 0x636f7272; // "corr"
const SALT_TORN: u64 = 0x746f726e; // "torn"

fn fires(period: Option<u64>, seed: u64, op: u64) -> bool {
    match period {
        None | Some(0) => false,
        Some(p) => mix(seed, op).is_multiple_of(p),
    }
}

/// SplitMix64 finalizer over `(seed, op)` — the standard avalanche mix,
/// good enough to decorrelate fault classes and spread fault positions.
fn mix(seed: u64, op: u64) -> u64 {
    let mut z = seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = ChaosPlan::inert();
        assert!(plan.is_inert());
        for op in 0..1000 {
            assert!(!plan.panics_on(op));
            assert!(!plan.io_fails_on(op));
            assert!(!plan.corrupts_on(op));
            assert!(!plan.tears_on(op));
        }
        // Period zero is also inert (not a division by zero).
        let zero = ChaosPlan::seeded(1).with_panics(0);
        assert!(!zero.panics_on(0));
    }

    #[test]
    fn schedules_are_deterministic_and_roughly_periodic() {
        let plan = ChaosPlan::seeded(42).with_corruption(4);
        let fired: Vec<u64> = (0..1000).filter(|&op| plan.corrupts_on(op)).collect();
        let again: Vec<u64> = (0..1000).filter(|&op| plan.corrupts_on(op)).collect();
        assert_eq!(fired, again, "same plan, same schedule");
        assert!(
            fired.len() > 150 && fired.len() < 350,
            "period 4 fires ~1/4 of the time, got {}",
            fired.len()
        );
    }

    #[test]
    fn classes_and_seeds_are_decorrelated() {
        let plan = ChaosPlan::seeded(7).with_io_failures(3).with_torn_writes(3);
        let io: Vec<u64> = (0..400).filter(|&op| plan.io_fails_on(op)).collect();
        let torn: Vec<u64> = (0..400).filter(|&op| plan.tears_on(op)).collect();
        assert_ne!(io, torn, "same period, different salts");
        let other = ChaosPlan::seeded(8).with_io_failures(3);
        let io2: Vec<u64> = (0..400).filter(|&op| other.io_fails_on(op)).collect();
        assert_ne!(io, io2, "seed changes the schedule");
    }
}
