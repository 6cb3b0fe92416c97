//! Differential conformance for the attacker's access predictor.
//!
//! No golden stores predictions, and the streaming-equivalence proofs
//! compare two engines that both call
//! [`AccessPredictor::predict_bytes`], so a change to the predictor
//! would move both sides at once. This section pins it to a reference
//! built from first principles: each warp's assignment is drawn from an
//! identically seeded `StdRng` (per warp, in column order), the lanes
//! become `block_of(b, m) × 64` pseudo-addresses coalesced by
//! [`reference_coalesce`], and each warp adds its count to an `f64`
//! total. The predictor must match bit for bit.
//!
//! Coverage: every policy of [`policy_pool`] × every registered
//! workload's oracle plus `XorWhiteningOracle::new(0, 16)`, whose 256
//! blocks overflow the 64-block window of the bitmask count. Columns of
//! 32 lines are one full warp; columns of 36 add a 4-lane tail that no
//! FSS(8) or wider split fits (one access per thread). One predictor
//! serves a sequence of guesses, so its per-guess memo is exercised
//! across switches.

use crate::oracle::reference_coalesce;
use crate::report::SectionReport;
use crate::strategies::policy_pool;
use rcoal_attack::{AccessPredictor, TableOracle, XorWhiteningOracle};
use rcoal_core::{CoalescingPolicy, DEFAULT_BLOCK_SIZE};
use rcoal_rng::{RngCore, SeedableRng, StdRng};
use std::sync::Arc;

/// Warp size the predictor and the reference split columns into.
const WARP_SIZE: usize = 32;

/// Columns per guess in each case.
const COLUMNS_PER_GUESS: usize = 6;

/// The reference prediction for each `(guess, column)` pair in order,
/// replaying one RNG stream across the whole sequence.
fn reference_predictions(
    policy: CoalescingPolicy,
    oracle: &dyn TableOracle,
    seed: u64,
    inputs: &[(u8, Vec<u8>)],
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    inputs
        .iter()
        .map(|(guess, column)| {
            let mut total = 0.0;
            for warp in column.chunks(WARP_SIZE) {
                let addrs: Vec<Option<u64>> = warp
                    .iter()
                    .map(|&b| Some(oracle.block_of(b, *guess) * DEFAULT_BLOCK_SIZE))
                    .collect();
                let accesses = match policy.assignment(warp.len(), &mut rng) {
                    Ok(assignment) => {
                        reference_coalesce(&assignment, &addrs, DEFAULT_BLOCK_SIZE).len()
                    }
                    Err(_) => warp.len(),
                };
                total += accesses as f64;
            }
            total
        })
        .collect()
}

/// Every registered workload's oracle, plus the 256-block whitening
/// oracle that only the fallback count can handle.
pub(crate) fn oracles() -> Vec<(String, Arc<dyn TableOracle>)> {
    let mut oracles: Vec<(String, Arc<dyn TableOracle>)> = rcoal_workload::registry()
        .iter()
        .map(|w| (w.name().to_string(), w.oracle()))
        .collect();
    oracles.push((
        "xor-whitening(0, 16)".into(),
        Arc::new(XorWhiteningOracle::new(0, 16)),
    ));
    oracles
}

/// Compares one predictor against the reference over the same
/// `(guess, column)` sequence. Returns mismatch descriptions.
fn check_case(
    policy: CoalescingPolicy,
    oracle: &Arc<dyn TableOracle>,
    seed: u64,
    inputs: &[(u8, Vec<u8>)],
) -> Vec<String> {
    let expected = reference_predictions(policy, oracle.as_ref(), seed, inputs);
    let mut predictor =
        AccessPredictor::new(policy, WARP_SIZE, seed).with_oracle(Arc::clone(oracle));
    inputs
        .iter()
        .zip(expected)
        .enumerate()
        .filter_map(|(i, ((guess, column), want))| {
            let got = predictor.predict_bytes(column, *guess);
            (got.to_bits() != want.to_bits()).then(|| {
                format!(
                    "input {i} (guess {guess:#04x}, {} lines): predicted {got} but reference {want}",
                    column.len()
                )
            })
        })
        .collect()
}

/// The predictor differential over the policy pool × oracles × column
/// shapes.
pub fn section(seed: u64) -> SectionReport {
    let mut section = SectionReport::new("attack predictor oracle");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11);
    for (name, oracle) in oracles() {
        for policy in policy_pool() {
            for lines in [32, 36] {
                section.cases += 1;
                let first = rng.next_u64() as u8;
                let guesses = [first, rng.next_u64() as u8, first];
                let inputs: Vec<(u8, Vec<u8>)> = guesses
                    .iter()
                    .flat_map(|&g| std::iter::repeat_n(g, COLUMNS_PER_GUESS))
                    .map(|g| (g, (0..lines).map(|_| rng.next_u64() as u8).collect()))
                    .collect();
                let case_seed = rng.next_u64();
                for f in check_case(policy, &oracle, case_seed, &inputs) {
                    section
                        .failures
                        .push(format!("{policy} x {name}, {lines} lines: {f}"));
                }
            }
        }
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_section_is_clean() {
        let s = section(0x5eed);
        assert_eq!(s.cases, oracles().len() * policy_pool().len() * 2);
        assert!(s.passed(), "{:?}", s.failures);
    }

    #[test]
    fn reference_detects_a_shifted_replay_stream() {
        // The check has teeth: a predictor seeded off by one draws
        // different RSS+RTS assignments and disagrees somewhere.
        let policy = CoalescingPolicy::rss_rts(8).unwrap();
        let oracle = rcoal_attack::aes_oracle();
        let mut rng = StdRng::seed_from_u64(3);
        let inputs: Vec<(u8, Vec<u8>)> = (0..8)
            .map(|_| (0x42, (0..32).map(|_| rng.next_u64() as u8).collect()))
            .collect();
        let expected = reference_predictions(policy, oracle.as_ref(), 7, &inputs);
        let mut predictor = AccessPredictor::new(policy, WARP_SIZE, 8).with_oracle(oracle);
        let got: Vec<f64> = inputs
            .iter()
            .map(|(g, col)| predictor.predict_bytes(col, *g))
            .collect();
        assert_ne!(got, expected);
        assert!(check_case(policy, &rcoal_attack::aes_oracle(), 7, &inputs).is_empty());
    }

    #[test]
    fn tail_warps_take_the_one_access_per_thread_branch() {
        // FSS(8) cannot split a 4-lane tail: the reference charges one
        // access per tail thread.
        let policy = CoalescingPolicy::fss(8).unwrap();
        let oracle = rcoal_attack::aes_oracle();
        let full = vec![0u8; 32];
        let mut with_tail = full.clone();
        with_tail.extend([0u8; 4]);
        let p = reference_predictions(policy, oracle.as_ref(), 0, &[(0, full), (0, with_tail)]);
        assert_eq!(p[1] - p[0], 4.0);
    }
}
