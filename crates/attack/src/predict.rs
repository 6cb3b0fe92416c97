use crate::oracle::{aes_oracle, TableOracle};
use rcoal_aes::Block;
use rcoal_core::{count_block_accesses, CoalescingPolicy, SubwarpAssignment};
use rcoal_rng::SeedableRng;
use rcoal_rng::StdRng;
use std::sync::Arc;

/// The attacker's model of the victim GPU's coalescing: predicts how many
/// last-round coalesced accesses a plaintext generates for a given key
/// byte position and guess.
///
/// Construction mirrors the paper's "corresponding attacks" (§IV-E): the
/// predictor replays whatever policy the attacker believes the defense
/// uses. With [`CoalescingPolicy::Baseline`] this is the original attack
/// of Jiang et al.; with an FSS policy it is Algorithm 1; with
/// RSS/RTS policies it simulates the defense's own randomness.
#[derive(Debug, Clone)]
pub struct AccessPredictor {
    policy: CoalescingPolicy,
    warp_size: usize,
    rng: StdRng,
    /// Workload table oracle mapping (byte, guess) → block index;
    /// defaults to the AES-128 last round.
    oracle: Arc<dyn TableOracle>,
    /// Memoized `(guess, table)`: `table[b]` is the block index of
    /// observed byte `b` under `guess`. The 256-guess sweep calls the
    /// predictor with one guess many times (once per sample), so the
    /// oracle runs 256 times per guess instead of `samples × lines`
    /// times, and each lane's block is one lookup. Built on first use.
    block_table: Option<(u8, Box<[u64; 256]>)>,
    /// Deterministic policies' assignments, built on first use of each
    /// warp width (`None`: the policy cannot split a warp that narrow).
    /// They draw nothing from the RNG, so one assignment per width
    /// serves every warp.
    fixed_assignments: Vec<(usize, Option<SubwarpAssignment>)>,
    /// Ciphertext byte-column scratch backing [`AccessPredictor::predict`].
    bytes_scratch: Vec<u8>,
}

impl AccessPredictor {
    /// Creates a predictor mirroring `policy` over `warp_size`-thread
    /// warps. `seed` drives the attacker-side randomness of RSS/RTS
    /// replays.
    pub fn new(policy: CoalescingPolicy, warp_size: usize, seed: u64) -> Self {
        AccessPredictor {
            policy,
            warp_size: warp_size.max(1),
            rng: StdRng::seed_from_u64(seed),
            oracle: aes_oracle(),
            block_table: None,
            fixed_assignments: Vec::new(),
            bytes_scratch: Vec::new(),
        }
    }

    /// Replaces the table oracle (AES-128 last round by default) —
    /// how the predictor maps an observed byte plus a guess onto the
    /// block its table lookup touches.
    pub fn with_oracle(mut self, oracle: Arc<dyn TableOracle>) -> Self {
        self.oracle = oracle;
        self.block_table = None;
        self
    }

    /// The mirrored policy.
    pub fn policy(&self) -> CoalescingPolicy {
        self.policy
    }

    /// Predicts the number of last-round coalesced accesses for key byte
    /// `j` under guess `m`, for one plaintext whose per-line ciphertexts
    /// are `ciphertexts` (threads are mapped to lines sequentially,
    /// `warp_size` per warp).
    pub fn predict(&mut self, ciphertexts: &[Block], j: usize, guess: u8) -> f64 {
        let mut bytes = std::mem::take(&mut self.bytes_scratch);
        bytes.clear();
        bytes.extend(ciphertexts.iter().map(|ct| ct[j]));
        let total = self.predict_bytes(&bytes, guess);
        self.bytes_scratch = bytes;
        total
    }

    /// Like [`AccessPredictor::predict`], but takes the ciphertext byte
    /// column `ciphertexts[..][j]` directly — the form the 256-guess
    /// sweep uses, so the column is extracted once per byte position
    /// instead of once per (sample, guess) pair. Bit-identical to
    /// `predict` on the same column: the RNG draw order and the
    /// floating-point accumulation order are unchanged.
    pub fn predict_bytes(&mut self, bytes: &[u8], guess: u8) -> f64 {
        // Only block identity matters for the count, and it depends only
        // on (observed byte, guess) — 256 possible values.
        let memo = match self.block_table.take() {
            Some((memo_guess, table)) if memo_guess == guess => (guess, table),
            _ => {
                let oracle = &self.oracle;
                let table = std::array::from_fn(|b| oracle.block_of(b as u8, guess));
                (guess, Box::new(table))
            }
        };
        let table = &self.block_table.insert(memo).1;
        let mut total = 0.0;
        for warp in bytes.chunks(self.warp_size) {
            let accesses = |assignment: Option<&SubwarpAssignment>| match assignment {
                Some(a) => count_block_accesses(a, |lane| Some(table[usize::from(warp[lane])])),
                // A policy that cannot split this (partial) warp — e.g.
                // FSS(8) on a 4-line tail — degrades to the worst case of
                // one access per thread.
                None => warp.len(),
            };
            let count = if self.policy.is_randomized() {
                let assignment = self.policy.assignment(warp.len(), &mut self.rng).ok();
                accesses(assignment.as_ref())
            } else {
                let cached = &mut self.fixed_assignments;
                let assignment = fixed_assignment(cached, self.policy, warp.len(), &mut self.rng);
                accesses(assignment)
            };
            total += count as f64;
        }
        total
    }
}

/// The memoized assignment of a deterministic `policy` over a
/// `width`-lane warp, built on first use (drawing nothing from `rng`).
fn fixed_assignment<'a>(
    cache: &'a mut Vec<(usize, Option<SubwarpAssignment>)>,
    policy: CoalescingPolicy,
    width: usize,
    rng: &mut StdRng,
) -> Option<&'a SubwarpAssignment> {
    let slot = match cache.iter().position(|(w, _)| *w == width) {
        Some(slot) => slot,
        None => {
            cache.push((width, policy.assignment(width, rng).ok()));
            cache.len() - 1
        }
    };
    cache[slot].1.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::XorWhiteningOracle;
    use rcoal_aes::{last_round_index, Aes128};

    fn ciphertexts(n: usize, key: &[u8; 16]) -> (Vec<Block>, [u8; 16]) {
        let aes = Aes128::new(key);
        let cts = (0..n)
            .map(|i| {
                let mut pt = [0u8; 16];
                for (k, b) in pt.iter_mut().enumerate() {
                    *b = (i * 37 + k * 11) as u8;
                }
                aes.encrypt_block(pt)
            })
            .collect();
        (cts, aes.last_round_key())
    }

    #[test]
    fn baseline_prediction_counts_distinct_blocks() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        let predicted = p.predict(&cts, 0, k10[0]);
        // Recompute independently.
        let mut blocks: Vec<u8> = cts
            .iter()
            .map(|ct| last_round_index(ct[0], k10[0]) >> 4)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(predicted, blocks.len() as f64);
    }

    #[test]
    fn correct_guess_reproduces_true_indices() {
        // With the right key byte, predictions equal the defense's actual
        // baseline coalesced counts; sanity-check bounds here.
        let (cts, k10) = ciphertexts(64, b"another-aes-key!");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        for (j, &kj) in k10.iter().enumerate() {
            let a = p.predict(&cts, j, kj);
            assert!((1.0..=32.0).contains(&a));
        }
    }

    #[test]
    fn fss_prediction_sums_per_subwarp_counts() {
        // Algorithm 1 semantics: per in-order group, count distinct
        // blocks, then sum.
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let policy = CoalescingPolicy::fss(4).unwrap();
        let mut p = AccessPredictor::new(policy, 32, 0);
        let predicted = p.predict(&cts, 3, k10[3]);

        let mut manual = 0usize;
        for group in cts.chunks(8) {
            let mut blocks: Vec<u8> = group
                .iter()
                .map(|ct| last_round_index(ct[3], k10[3]) >> 4)
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            manual += blocks.len();
        }
        assert_eq!(predicted, manual as f64);
    }

    #[test]
    fn fss_at_32_subwarps_is_constant() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let policy = CoalescingPolicy::fss(32).unwrap();
        let mut p = AccessPredictor::new(policy, 32, 0);
        for m in [0u8, 17, k10[0], 255] {
            assert_eq!(p.predict(&cts, 0, m), 32.0);
        }
    }

    #[test]
    fn multi_warp_plaintexts_sum_over_warps() {
        let (cts, k10) = ciphertexts(96, b"0123456789abcdef");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        let total = p.predict(&cts, 0, k10[0]);
        let per_warp: f64 = cts
            .chunks(32)
            .map(|w| AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0).predict(w, 0, k10[0]))
            .sum();
        assert_eq!(total, per_warp);
    }

    #[test]
    fn predict_bytes_is_bit_identical_to_predict() {
        // The memoized byte-column path must replay the same RNG stream
        // and the same f64 accumulation as the Block-based path, across
        // guess switches (which rebuild the block table).
        let (cts, k10) = ciphertexts(96, b"0123456789abcdef");
        let column: Vec<u8> = cts.iter().map(|ct| ct[5]).collect();
        for policy in [
            CoalescingPolicy::Baseline,
            CoalescingPolicy::fss(4).unwrap(),
            CoalescingPolicy::rss_rts(4).unwrap(),
        ] {
            let mut a = AccessPredictor::new(policy, 32, 7);
            let mut b = AccessPredictor::new(policy, 32, 7);
            for guess in [0u8, k10[5], 255, k10[5]] {
                let va = a.predict(&cts, 5, guess);
                let vb = b.predict_bytes(&column, guess);
                assert_eq!(va.to_bits(), vb.to_bits(), "guess {guess} {policy:?}");
            }
        }
    }

    #[test]
    fn xor_oracle_predictor_counts_whitened_blocks() {
        // A whitening-cipher predictor over 8-byte-entry tables (block
        // index = (b ^ g) >> 3): baseline count = distinct block count.
        let texts: Vec<Block> = (0..32u8)
            .map(|l| {
                let mut b = [0u8; 16];
                b.iter_mut()
                    .enumerate()
                    .for_each(|(k, x)| *x = l.wrapping_mul(37) ^ (k as u8) << 3);
                b
            })
            .collect();
        let key_byte = 0x5a;
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0)
            .with_oracle(Arc::new(XorWhiteningOracle::new(3, 8)));
        let predicted = p.predict(&texts, 0, key_byte);
        let mut blocks: Vec<u8> = texts.iter().map(|t| (t[0] ^ key_byte) >> 3).collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(predicted, blocks.len() as f64);
        // Switching oracles invalidates the memoized block table.
        let aes_pred = p.with_oracle(aes_oracle()).predict(&texts, 0, key_byte);
        let mut aes_blocks: Vec<u8> = texts
            .iter()
            .map(|t| last_round_index(t[0], key_byte) >> 4)
            .collect();
        aes_blocks.sort_unstable();
        aes_blocks.dedup();
        assert_eq!(aes_pred, aes_blocks.len() as f64);
    }
}
