//! # rcoal-aes
//!
//! AES-128 and the GPU execution model of a table-based kernel for the
//! RCoal reproduction.
//!
//! Four layers:
//!
//! * [`tables`] — the S-box, inverse S-box and T-tables, generated at
//!   compile time from the GF(2⁸) field definition.
//! * [`Aes128`] — a T-table AES-128 implementation (FIPS-197-validated)
//!   that can *trace* every table lookup it performs.
//! * [`TableProgram`] — the warp program of a table-based kernel as
//!   data: every load's table and each lane's entry index, expanded into
//!   a trace only for the cycle-level simulator.
//! * [`TableKernel`] — the CUDA-style kernel model the paper attacks:
//!   one line per thread, 32 threads per warp in lock step, so each
//!   table lookup becomes a warp-wide load for the coalescing unit.
//!   [`TableKernel::aes`] is the paper's AES kernel;
//!   [`TableKernel::first_round`] serves the 64-bit-block ciphers and
//!   the gather control of `rcoal-workload`.
//!
//! The AES kernel fills each line's 160 table indices with one of two
//! fills, chosen once per kernel build: AES-NI when the CPU reports
//! `aes` and `ssse3`, the T-table core of [`Aes128`] otherwise. They
//! write the same bytes because T-table lookup `4i + k` of round `r`
//! reads row `k` of column `(i + k) mod 4` of the state entering round
//! `r`: the round's index row is `ShiftRows` of that state, which the
//! AES-NI fill stores before each `aesenc` and before the final
//! `aesenclast`. The T-table core is the reference: a unit test runs
//! both fills directly on the FIPS-197 vector and 10⁴ seeded (key,
//! line) pairs, so the portable fill stays tested on AES-NI hosts too,
//! and `rcoal-conformance` diffs the kernel against
//! [`Aes128::encrypt_block_traced`].
//!
//! The timing channel lives in AES's last round: lookup `j` uses index
//! `t_j = S⁻¹[c_j ⊕ k_j]` ([`last_round_index`]), so the number of
//! coalesced accesses is a deterministic function of ciphertext byte `j`
//! and last-round key byte `k_j` — which is what `rcoal-attack` exploits
//! and the subwarp mechanisms in `rcoal-core` randomize.

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cipher;
mod kernel;
mod program;
pub mod tables;

pub use cipher::{last_round_index, Aes128, Aes192, Aes256, Block, LookupTrace, TableLookup};
pub use kernel::{TableKernel, LAST_ROUND_TAG_BASE, OUTPUT_TAG};
pub use program::{LineLoad, TableLoad, TableProgram};
