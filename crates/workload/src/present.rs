//! PRESENT-80 (Bogdanov et al., CHES 2007): 64-bit block, 80-bit key,
//! 31 S-box/pLayer rounds plus a final key addition.
//!
//! Beyond encryption, the core exports the *byte-table view* the GPU
//! kernel model needs: each round computes
//! `state' = T0[b0] ^ T1[b1] ^ … ^ T7[b7]` where `b_j` is byte `j` of
//! `state ^ K_i` and `T_j[v] = pLayer(sBox(v) placed at byte j)` — the
//! standard software trick of folding sBoxLayer + pLayer into eight
//! 256-entry `u64` tables, built once from the bitwise layers.
//! [`Present80::encrypt8`] and [`Present80::round_index_bytes`] compute
//! every round with those lookups, so the kernel's memory trace is the
//! trace of a real table-based implementation. Round 1's indices are
//! `pt_j ^ K1_j`: the byte-local key dependence the coalescing attack
//! targets.

use crate::byte_tables::ByteTables;
use std::sync::OnceLock;

/// The PRESENT 4-bit S-box.
pub const PRESENT_SBOX: [u8; 16] = [
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
];

/// S-box/pLayer rounds, each one round of eight table lookups.
pub const ROUNDS: usize = 31;
const KEY_MASK: u128 = (1u128 << 80) - 1;

fn inv_sbox() -> [u8; 16] {
    let mut inv = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        inv[PRESENT_SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Bit permutation: bit `i` of the state moves to `P(i) = 16·i mod 63`
/// (bit 63 is fixed), bit 0 being the least significant.
fn p_layer(x: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..63 {
        out |= ((x >> i) & 1) << ((i * 16) % 63);
    }
    out | (x & (1 << 63))
}

fn inv_p_layer(x: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..63 {
        out |= ((x >> ((i * 16) % 63)) & 1) << i;
    }
    out | (x & (1 << 63))
}

fn sbox_layer(x: u64) -> u64 {
    let mut out = 0u64;
    for n in 0..16 {
        out |= u64::from(PRESENT_SBOX[((x >> (4 * n)) & 0xF) as usize]) << (4 * n);
    }
    out
}

/// `p_layer ∘ sbox_layer` as eight byte tables.
fn round_tables() -> &'static ByteTables {
    static TABLES: OnceLock<ByteTables> = OnceLock::new();
    TABLES.get_or_init(|| ByteTables::new(sbox_layer, p_layer))
}

fn inv_sbox_layer(x: u64) -> u64 {
    let inv = inv_sbox();
    let mut out = 0u64;
    for n in 0..16 {
        out |= u64::from(inv[((x >> (4 * n)) & 0xF) as usize]) << (4 * n);
    }
    out
}

/// PRESENT-80 with its 32 precomputed round keys.
#[derive(Debug, Clone)]
pub struct Present80 {
    round_keys: [u64; 32],
}

impl Present80 {
    /// Expands a 10-byte (80-bit) key, `key[0]` most significant.
    pub fn new(key: &[u8; 10]) -> Self {
        let mut reg: u128 = 0;
        for &b in key {
            reg = (reg << 8) | u128::from(b);
        }
        let mut round_keys = [0u64; 32];
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = (reg >> 16) as u64;
            // Update for the next round key: rotate left 61 over 80
            // bits, S-box the top nibble, XOR the round counter into
            // bits 19..15.
            reg = ((reg << 61) | (reg >> 19)) & KEY_MASK;
            let nib = ((reg >> 76) & 0xF) as usize;
            reg = (reg & !(0xFu128 << 76)) | (u128::from(PRESENT_SBOX[nib]) << 76);
            reg ^= ((i as u128) + 1) << 15;
        }
        Present80 { round_keys }
    }

    /// The 32 round keys (K1..K32), leftmost 64 bits of the register.
    pub fn round_keys(&self) -> &[u64; 32] {
        &self.round_keys
    }

    /// Round-1 whitening bytes (big-endian K1) — the byte subkey the
    /// coalescing attack recovers, equal to the first 8 key bytes.
    pub fn whitening(&self) -> [u8; 8] {
        self.round_keys[0].to_be_bytes()
    }

    /// Encrypts one 64-bit block (big-endian byte order).
    pub fn encrypt8(&self, pt: [u8; 8]) -> [u8; 8] {
        let tables = round_tables();
        let mut s = u64::from_be_bytes(pt);
        for key in &self.round_keys[..ROUNDS] {
            s = tables.round(s ^ key);
        }
        (s ^ self.round_keys[31]).to_be_bytes()
    }

    /// Decrypts one 64-bit block (round-trip check only).
    pub fn decrypt8(&self, ct: [u8; 8]) -> [u8; 8] {
        let mut s = u64::from_be_bytes(ct) ^ self.round_keys[31];
        for i in (0..ROUNDS).rev() {
            s = inv_sbox_layer(inv_p_layer(s)) ^ self.round_keys[i];
        }
        s.to_be_bytes()
    }

    /// Per-round byte-table indices for one plaintext, written into
    /// `out` (the first [`ROUNDS`] entries; a shorter `out` gets the
    /// first rounds): entry `r` holds the eight lookup indices of round
    /// `r + 1`, i.e. the big-endian bytes of `state ^ K_{r+1}`. Entry 0
    /// is `pt ^ K1` byte for byte.
    pub fn round_index_bytes(&self, pt: [u8; 8], out: &mut [[u8; 8]]) {
        let tables = round_tables();
        let mut s = u64::from_be_bytes(pt);
        for (slot, key) in out.iter_mut().zip(&self.round_keys[..ROUNDS]) {
            let keyed = s ^ key;
            *slot = keyed.to_be_bytes();
            s = tables.round(keyed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex8(s: &str) -> [u8; 8] {
        u64::from_str_radix(s, 16).expect("hex").to_be_bytes()
    }

    /// The four published test vectors from the CHES 2007 paper
    /// (Appendix, Table: test vectors for PRESENT-80).
    #[test]
    fn ches_2007_published_vectors() {
        let cases: [([u8; 10], [u8; 8], &str); 4] = [
            ([0x00; 10], [0x00; 8], "5579C1387B228445"),
            ([0xFF; 10], [0x00; 8], "E72C46C0F5945049"),
            ([0x00; 10], [0xFF; 8], "A112FFC72F68417B"),
            ([0xFF; 10], [0xFF; 8], "3333DCD3213210D2"),
        ];
        for (key, pt, ct) in cases {
            let cipher = Present80::new(&key);
            assert_eq!(cipher.encrypt8(pt), hex8(ct), "key {key:02x?} pt {pt:02x?}");
            assert_eq!(cipher.decrypt8(hex8(ct)), pt);
        }
    }

    #[test]
    fn decrypt_round_trips_arbitrary_blocks() {
        let cipher = Present80::new(b"presentKEY");
        for i in 0..32u64 {
            let pt = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_be_bytes();
            assert_eq!(cipher.decrypt8(cipher.encrypt8(pt)), pt);
        }
    }

    #[test]
    fn p_layer_is_a_self_inverse_pair() {
        for x in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63] {
            assert_eq!(inv_p_layer(p_layer(x)), x);
            assert_eq!(p_layer(inv_p_layer(x)), x);
        }
        // Spec anchors: P(0)=0, P(1)=16, P(4)=1, P(63)=63.
        assert_eq!(p_layer(1), 1);
        assert_eq!(p_layer(1 << 1), 1 << 16);
        assert_eq!(p_layer(1 << 4), 1 << 1);
        assert_eq!(p_layer(1 << 63), 1 << 63);
    }

    #[test]
    fn table_round_equals_the_bitwise_round() {
        let tables = round_tables();
        for x in crate::byte_tables::seeded_states(0x9E5E_4780, 10_000) {
            assert_eq!(tables.round(x), p_layer(sbox_layer(x)), "state {x:#018x}");
        }
    }

    #[test]
    fn sbox_is_a_bijection() {
        let mut seen = [false; 16];
        for v in PRESENT_SBOX {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn round_indices_start_at_whitened_plaintext_and_rebuild_the_cipher() {
        let cipher = Present80::new(b"0123456789");
        let pt = *b"abcdefgh";
        // One entry past the rounds: the cipher must leave it alone.
        let mut idx = [[0xA5u8; 8]; ROUNDS + 1];
        cipher.round_index_bytes(pt, &mut idx);
        assert_eq!(idx[ROUNDS], [0xA5; 8]);
        let idx = &idx[..ROUNDS];
        let w = cipher.whitening();
        for j in 0..8 {
            assert_eq!(idx[0][j], pt[j] ^ w[j], "round 1 is byte-local in the key");
        }
        // Replaying the table view reproduces the ciphertext: apply
        // sbox+player to each recorded keyed state and compare ends.
        let mut s = u64::from_be_bytes(pt);
        for (i, bytes) in idx.iter().enumerate() {
            assert_eq!(s ^ cipher.round_keys()[i], u64::from_be_bytes(*bytes));
            s = p_layer(sbox_layer(u64::from_be_bytes(*bytes)));
        }
        assert_eq!(
            (s ^ cipher.round_keys()[31]).to_be_bytes(),
            cipher.encrypt8(pt)
        );
    }
}
