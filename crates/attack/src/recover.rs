use crate::error::AttackError;
use crate::oracle::{aes_oracle, TableOracle};
use crate::predict::AccessPredictor;
use crate::stream::StreamingByteRecovery;
use rcoal_aes::Block;
use rcoal_core::CoalescingPolicy;
use rcoal_telemetry::MetricsRegistry;
use std::sync::Arc;

/// One observation the attacker collected from the encryption server:
/// the ciphertext lines of one plaintext and its (last-round) execution
/// time.
///
/// The ciphertext lines are shared via [`Arc`]: one launch's ciphertexts
/// are referenced by the timing sample, the functional sample, and every
/// noise-perturbed copy, so cloning a sample never deep-copies blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSample {
    /// Ciphertext lines in line order.
    pub ciphertexts: Arc<Vec<Block>>,
    /// The timing measurement the attacker correlates against (the paper
    /// grants the attacker the clean last-round time; see §II-C).
    pub time: f64,
}

/// Result of attacking one key byte: the correlation of every guess.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteRecovery {
    /// `correlations[m]` is the Pearson correlation of guess `m`.
    pub correlations: Vec<f64>,
    /// The winning guess (argmax of the correlations; the first maximum
    /// wins exact ties).
    pub best_guess: u8,
}

impl ByteRecovery {
    /// Correlation achieved by guess `m`.
    pub fn correlation_of(&self, m: u8) -> f64 {
        self.correlations[usize::from(m)]
    }

    /// Rank of guess `m` among all 256 (0 = highest correlation). The
    /// paper's scatter plots are exactly this data; a defense is working
    /// when the correct byte's rank is large.
    pub fn rank_of(&self, m: u8) -> usize {
        let mine = self.correlations[usize::from(m)];
        self.correlations.iter().filter(|&&c| c > mine).count()
    }
}

/// Result of attacking every subkey byte the workload exposes (16 for
/// the AES last round; 8 for the whitening ciphers).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRecovery {
    /// Per-byte recovery detail, indexed by byte position `j`.
    pub bytes: Vec<ByteRecovery>,
}

impl KeyRecovery {
    /// The attacker's best guess for the attacked subkey, zero-padded
    /// past the workload's byte count.
    pub fn recovered_key(&self) -> [u8; 16] {
        let mut k = [0u8; 16];
        for (j, b) in self.bytes.iter().enumerate().take(16) {
            k[j] = b.best_guess;
        }
        k
    }

    /// Scores the recovery against the true subkey (only the attacked
    /// prefix of `true_key` is consulted).
    pub fn outcome(&self, true_key: &[u8; 16]) -> RecoveryOutcome {
        let n = self.bytes.len().max(1) as f64;
        let num_correct = self
            .bytes
            .iter()
            .zip(true_key)
            .filter(|(b, &k)| b.best_guess == k)
            .count();
        let avg_correct_correlation = self
            .bytes
            .iter()
            .zip(true_key)
            .map(|(b, &k)| b.correlation_of(k))
            .sum::<f64>()
            / n;
        let avg_rank = self
            .bytes
            .iter()
            .zip(true_key)
            .map(|(b, &k)| b.rank_of(k))
            .sum::<usize>() as f64
            / n;
        RecoveryOutcome {
            bytes_attacked: self.bytes.len(),
            num_correct,
            avg_correct_correlation,
            avg_rank_of_correct: avg_rank,
        }
    }
}

/// Summary of a key-recovery attempt relative to the true key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Subkey bytes the attack swept (16 for AES).
    pub bytes_attacked: usize,
    /// Key bytes whose argmax-correlation guess was the true byte
    /// (`bytes_attacked` = complete break).
    pub num_correct: usize,
    /// Mean over the attacked byte positions of the *correct* guess's
    /// correlation — the paper's Figures 7b, 15 and 18a metric.
    pub avg_correct_correlation: f64,
    /// Mean rank of the correct guess among the 256 (0 = always wins).
    pub avg_rank_of_correct: f64,
}

impl RecoveryOutcome {
    /// Whether every attacked byte was recovered.
    pub fn complete(&self) -> bool {
        self.num_correct == self.bytes_attacked
    }
}

/// A correlation timing attack parameterized by the attacker's model of
/// the victim's coalescing policy.
///
/// The attack holds no sample state; call [`Attack::recover_key`] (or the
/// per-byte variants) with the collected [`AttackSample`]s, or stream
/// samples through [`crate::stream_recover_key`]. Both run the same
/// engine, [`StreamingByteRecovery`].
#[derive(Debug, Clone)]
pub struct Attack {
    policy: CoalescingPolicy,
    warp_size: usize,
    seed: u64,
    threads: Option<usize>,
    metrics: Option<MetricsRegistry>,
    oracle: Arc<dyn TableOracle>,
}

impl Attack {
    /// The baseline attack of Jiang et al.: the attacker assumes stock
    /// coalescing (one subwarp per warp).
    pub fn baseline(warp_size: usize) -> Self {
        Self::against(CoalescingPolicy::Baseline, warp_size)
    }

    /// The corresponding attack against a known defense (§IV-E): the
    /// attacker mirrors `policy` when predicting access counts.
    pub fn against(policy: CoalescingPolicy, warp_size: usize) -> Self {
        Attack {
            policy,
            warp_size,
            seed: 0x5eed,
            threads: None,
            metrics: None,
            oracle: aes_oracle(),
        }
    }

    /// Replaces the table oracle (AES-128 last round by default); the
    /// oracle also bounds the attacked byte range.
    pub fn with_oracle(mut self, oracle: Arc<dyn TableOracle>) -> Self {
        self.oracle = oracle;
        self
    }

    /// Number of subkey bytes this attack sweeps.
    pub fn key_bytes(&self) -> usize {
        self.oracle.key_bytes()
    }

    /// Sets the attacker-side randomness seed (RSS/RTS replays).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for the 256-guess correlation sweep
    /// (`None` defers to `RCOAL_THREADS` / the machine's parallelism).
    /// Every guess has an independent predictor seed, so the result is
    /// bit-identical at any thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a host-domain metrics sink that
    /// [`crate::stream_recover_byte`] and [`crate::stream_recover_key`]
    /// record into: `span.attack.stream_{byte,key}.*` wall-clock spans, the
    /// `attack.stream.*` checkpoint gauges and counters, and
    /// `attack.samples_correlated`. Metrics never influence the
    /// recovery itself — results stay bit-identical with and without a
    /// sink.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// The mirrored policy.
    pub fn policy(&self) -> CoalescingPolicy {
        self.policy
    }

    /// Threads per warp the predictions split the lines into.
    pub(crate) fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// The configured worker-thread override (the streaming engine
    /// parallelizes over blocks of guesses).
    pub(crate) fn threads_option(&self) -> Option<usize> {
        self.threads
    }

    /// The oracle mapping (observed byte, guess) to a block index.
    pub(crate) fn oracle(&self) -> &dyn TableOracle {
        self.oracle.as_ref()
    }

    /// The attached metrics sink, if any.
    pub(crate) fn metrics_ref(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The predictor this attack uses for guess `m` (each guess gets an
    /// independent replay seed so randomized-policy replays do not share
    /// a stream across guesses).
    pub fn predictor_for_guess(&self, m: u8) -> AccessPredictor {
        AccessPredictor::new(self.policy, self.warp_size, self.seed ^ u64::from(m))
            .with_oracle(Arc::clone(&self.oracle))
    }

    /// Attacks key byte `j`: pushes `samples` through one
    /// [`StreamingByteRecovery`] and snapshots it.
    ///
    /// # Errors
    ///
    /// [`AttackError::ByteIndex`] for `j >= self.key_bytes()` and
    /// [`AttackError::NoSamples`] for an empty sample set.
    pub fn recover_byte(
        &self,
        samples: &[AttackSample],
        j: usize,
    ) -> Result<ByteRecovery, AttackError> {
        let mut engine = StreamingByteRecovery::new(self, j)?;
        if samples.is_empty() {
            return Err(AttackError::NoSamples);
        }
        engine.push_chunk(samples);
        Ok(engine.snapshot())
    }

    /// Attacks every subkey byte the oracle exposes (16 for AES).
    ///
    /// # Errors
    ///
    /// [`AttackError::NoSamples`] for an empty sample set.
    pub fn recover_key(&self, samples: &[AttackSample]) -> Result<KeyRecovery, AttackError> {
        let bytes = (0..self.oracle.key_bytes())
            .map(|j| self.recover_byte(samples, j))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KeyRecovery { bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_aes::{last_round_index, Aes128};

    /// Builds noise-free samples whose "time" is the true baseline
    /// coalesced-access count summed over the byte positions in `bytes` —
    /// all 16 models the last-round time; a single byte isolates that
    /// byte's channel for fast deterministic tests.
    fn synthetic_samples_for(
        n: usize,
        key: &[u8; 16],
        bytes: &[usize],
    ) -> (Vec<AttackSample>, [u8; 16]) {
        let aes = Aes128::new(key);
        let k10 = aes.last_round_key();
        let samples = (0..n)
            .map(|i| {
                let cts: Vec<Block> = (0..32)
                    .map(|line| {
                        let mut pt = [0u8; 16];
                        for (b, x) in pt.iter_mut().enumerate() {
                            *x = (i * 131 + line * 17 + b * 29) as u8
                                ^ (i as u8)
                                ^ (line as u8).rotate_left(3);
                        }
                        aes.encrypt_block(pt)
                    })
                    .collect();
                // True number of baseline last-round accesses over the
                // requested byte positions.
                let mut time = 0.0;
                for &j in bytes {
                    let mut blocks: Vec<u8> = cts
                        .iter()
                        .map(|ct| last_round_index(ct[j], k10[j]) >> 4)
                        .collect();
                    blocks.sort_unstable();
                    blocks.dedup();
                    time += blocks.len() as f64;
                }
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time,
                }
            })
            .collect();
        (samples, k10)
    }

    #[test]
    fn baseline_attack_recovers_byte_zero_from_its_clean_channel() {
        // Time carries only byte 0's access count: the correlation of the
        // correct guess is near 1 and recovery is immediate.
        let (samples, k10) = synthetic_samples_for(80, b"attack test key!", &[0]);
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert_eq!(rec.best_guess, k10[0]);
        assert_eq!(rec.rank_of(k10[0]), 0);
        assert!(rec.correlation_of(k10[0]) > 0.95);
    }

    #[test]
    fn baseline_attack_ranks_correct_byte_highly_under_full_time() {
        // With all 16 bytes contributing, each byte's share of the time
        // variance is ~1/16, so at small N the correct guess may not be
        // the absolute argmax (the paper needs its low-noise simulator for
        // that) — but it must already rank far above the median guess.
        let (samples, k10) =
            synthetic_samples_for(200, b"attack test key!", &(0..16).collect::<Vec<_>>());
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert!(
            rec.rank_of(k10[0]) < 16,
            "correct byte ranked {} of 256",
            rec.rank_of(k10[0])
        );
        assert!(rec.correlation_of(k10[0]) > 0.1);
    }

    #[test]
    fn baseline_attack_recovers_two_target_bytes() {
        let (samples, k10) = synthetic_samples_for(80, b"attack test key!", &[3, 7]);
        let attack = Attack::baseline(32);
        for j in [3usize, 7] {
            let rec = attack.recover_byte(&samples, j).unwrap();
            assert_eq!(rec.best_guess, k10[j], "byte {j}");
        }
        // An untargeted byte's channel is absent: its correct guess holds
        // no special rank.
        let rec = attack.recover_byte(&samples, 11).unwrap();
        assert!(rec.correlation_of(k10[11]).abs() < 0.4);
    }

    #[test]
    fn constant_time_defeats_the_attack() {
        let (mut samples, k10) = synthetic_samples_for(100, b"attack test key!", &[0]);
        for s in &mut samples {
            s.time = 512.0; // e.g. coalescing disabled: always 32 × 16
        }
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert_eq!(rec.correlation_of(k10[0]), 0.0);
        assert!(rec.correlations.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn exact_ties_go_to_the_first_guess() {
        // Under a whitening oracle a guess only XOR-relabels blocks, and
        // the baseline count (distinct blocks) is relabel-invariant: all
        // 256 predictions, hence all 256 correlations, tie exactly. The
        // first maximum wins.
        use rcoal_rng::{Rng, SeedableRng, StdRng};
        let attack = Attack::baseline(32)
            .with_oracle(Arc::new(crate::oracle::XorWhiteningOracle::new(4, 8)));
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<AttackSample> = (0..40)
            .map(|_| {
                let cts: Vec<Block> = (0..32)
                    .map(|_| {
                        let mut b = [0u8; 16];
                        rng.fill(&mut b);
                        b
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts.iter().map(|ct| (ct[0] ^ 0xa7) >> 4).collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        let rec = attack.recover_byte(&samples, 0).unwrap();
        let first = rec.correlations[0];
        assert!(first > 0.99, "every guess sees the channel, r = {first}");
        assert!(rec
            .correlations
            .iter()
            .all(|c| c.to_bits() == first.to_bits()));
        assert_eq!(rec.best_guess, 0);
    }

    #[test]
    fn rank_counts_strictly_better_guesses() {
        let br = ByteRecovery {
            correlations: vec![0.1, 0.9, 0.5, 0.9],
            best_guess: 1,
        };
        assert_eq!(br.rank_of(1), 0);
        assert_eq!(br.rank_of(3), 0, "ties don't worsen rank");
        assert_eq!(br.rank_of(2), 2);
        assert_eq!(br.rank_of(0), 3);
    }

    #[test]
    fn outcome_aggregates() {
        let (samples, k10) = synthetic_samples_for(60, b"attack test key!", &[0, 1]);
        let rec = Attack::baseline(32).recover_key(&samples).unwrap();
        let o = rec.outcome(&k10);
        assert!(o.num_correct >= 2, "bytes 0 and 1 carry clean channels");
        assert_eq!(rec.bytes[0].rank_of(k10[0]), 0);
        assert_eq!(rec.bytes[1].rank_of(k10[1]), 0);
        assert!(o.avg_correct_correlation > 0.0);
        // 14 untargeted bytes rank randomly (mean 127.5), two rank 0.
        assert!(o.avg_rank_of_correct < 220.0);
        assert!(!o.complete() || o.num_correct == 16);
        assert_eq!(rec.recovered_key()[0], rec.bytes[0].best_guess);
    }

    #[test]
    fn byte_index_and_empty_samples_are_typed_errors() {
        let attack = Attack::baseline(32);
        assert_eq!(
            attack.recover_byte(&[], 16).unwrap_err(),
            crate::AttackError::ByteIndex { j: 16 }
        );
        assert_eq!(
            attack.recover_byte(&[], 0).unwrap_err(),
            crate::AttackError::NoSamples
        );
        assert_eq!(
            attack.recover_key(&[]).unwrap_err(),
            crate::AttackError::NoSamples
        );
    }
}
