//! # rcoal-attack
//!
//! The correlation timing attacks the RCoal paper defends against and
//! evaluates with.
//!
//! The baseline attack (Jiang et al., HPCA 2016) recovers the AES-128
//! last-round key byte by byte: for each of the 256 guesses `m` of byte
//! `k_j`, the attacker computes the last-round table index of every
//! thread from the observed ciphertexts (`t_j = S⁻¹[c_j ⊕ m]`, Eq. 3),
//! replays the GPU's *deterministic* coalescing logic to predict the
//! number of coalesced accesses per plaintext, and picks the guess whose
//! prediction correlates best with the measured execution time.
//!
//! The paper's generalized attacks (§IV-E) assume the attacker knows the
//! deployed defense and mirrors it: the FSS attack is Algorithm 1; the
//! RSS / RTS attacks simulate the defense's randomness on the attacker's
//! side. That is exactly how [`Attack`] is built here: the attacker's
//! predictor reuses the same [`rcoal_core::CoalescingPolicy`] machinery
//! the defense uses — the strongest "corresponding attack" possible.

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod key_rank;
mod noise;
mod oracle;
mod predict;
mod recover;
mod samples;
mod stream;

pub use error::AttackError;
pub use key_rank::{log2_key_rank, remaining_security_bits};
pub use noise::{attenuated_correlation, GaussianNoise};
pub use oracle::{aes_oracle, AesLastRoundOracle, TableOracle, XorWhiteningOracle};
pub use predict::AccessPredictor;
pub use recover::{Attack, AttackSample, ByteRecovery, KeyRecovery, RecoveryOutcome};
pub use samples::{samples_needed, samples_needed_approx, z_quantile};
pub use stream::{
    even_checkpoints, pearson, recovery_curve, stream_recover_byte, stream_recover_key, EarlyStop,
    PearsonAccumulator, SampleSource, SliceSource, StreamCheckpoint, StreamKeyRecovery,
    StreamOptions, StreamRecovery, StreamingByteRecovery, StreamingKeyRecovery,
};
