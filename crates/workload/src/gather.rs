//! The irregular-access control workload: a seeded hash-gather kernel
//! with *no* secret-dependent indexing.
//!
//! Its table indices diffuse every byte of the input line through a
//! 64-bit mix, so no single observed byte (with or without a key
//! guess) predicts the coalescing behaviour — the exact shape of a
//! data-dependent but key-independent GPU workload. A sound leakage
//! audit must therefore label it `secure` even under the leakiest
//! policies; if it ever gates `leaky`, the audit is flagging irregular
//! access itself rather than key leakage (a false positive).

use rcoal_aes::Block;

/// Rounds of gather loads (kept short: the control does not need a
/// deep pipeline to exercise the channel machinery).
pub const GATHER_ROUNDS: usize = 4;

/// One table index for round `r`, lane byte-slot `j`: an FNV-style mix
/// of the full input line with the (round, slot) pair folded in.
pub fn gather_index(line: &Block, r: usize, j: usize) -> u8 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ ((r as u64) << 8) ^ j as u64;
    for &b in line {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    // Finalizer (Murmur3-style): the multiply chain alone diffuses a
    // last-byte flip poorly into any fixed output window.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h & 0xFF) as u8
}

/// Per-round index arrays for one line, written into `out` (the first
/// [`GATHER_ROUNDS`] entries): the [`rcoal_aes::TableKernel::first_round`] index
/// function of the gather workload.
pub fn gather_round_indices(line: &Block, out: &mut [[u8; 8]]) {
    for (r, idx) in out.iter_mut().take(GATHER_ROUNDS).enumerate() {
        for (j, slot) in idx.iter_mut().enumerate() {
            *slot = gather_index(line, r, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_indices(line: &Block) -> [[u8; 8]; GATHER_ROUNDS] {
        let mut out = [[0u8; 8]; GATHER_ROUNDS];
        gather_round_indices(line, &mut out);
        out
    }

    #[test]
    fn indices_are_deterministic_and_line_sensitive() {
        let a = *b"abcdefghijklmnop";
        let mut b = a;
        b[15] ^= 1;
        assert_eq!(round_indices(&a), round_indices(&a));
        assert_ne!(round_indices(&a), round_indices(&b));
        assert_eq!(round_indices(&a)[1][3], gather_index(&a, 1, 3));
    }

    #[test]
    fn single_byte_does_not_determine_the_index() {
        // Flip a byte the oracle would NOT attack (byte 12) and watch
        // slot 0's index change anyway: the mix is not byte-local.
        let a = [0u8; 16];
        let mut b = a;
        b[12] = 0xFF;
        assert_ne!(gather_index(&a, 0, 0), gather_index(&b, 0, 0));
    }

    #[test]
    fn indices_spread_over_the_full_table() {
        let mut seen = [false; 256];
        for i in 0..512u16 {
            let mut line = [0u8; 16];
            line[0] = (i & 0xFF) as u8;
            line[1] = (i >> 8) as u8;
            for r in 0..GATHER_ROUNDS {
                seen[usize::from(gather_index(&line, r, 0))] = true;
            }
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > 200, "only {covered}/256 indices reached");
    }
}
