//! One substitution-permutation round folded into eight byte tables.

/// A round `linear ∘ sbox` of a 64-bit cipher, where `sbox` works on
/// nibbles and `linear` is a bit permutation, as eight 256-entry tables:
/// `round(x) = T0[x0] ^ … ^ T7[x7]` over the big-endian bytes `xj` of `x`.
/// Table `j` holds `linear` of byte `j`'s substituted nibbles alone.
pub(crate) struct ByteTables([[u64; 256]; 8]);

impl ByteTables {
    /// Builds the tables from the bitwise layers.
    pub(crate) fn new(sbox: fn(u64) -> u64, linear: fn(u64) -> u64) -> Self {
        let mut tables = [[0u64; 256]; 8];
        for (j, table) in tables.iter_mut().enumerate() {
            let shift = 8 * (7 - j);
            for (v, entry) in (0u64..).zip(table.iter_mut()) {
                *entry = linear(sbox(v << shift) & (0xFF << shift));
            }
        }
        ByteTables(tables)
    }

    /// The round of state `x`: eight lookups.
    pub(crate) fn round(&self, x: u64) -> u64 {
        x.to_be_bytes()
            .iter()
            .zip(&self.0)
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)])
    }
}

/// `n` seeded, well-mixed 64-bit states (SplitMix64), for differential
/// tests of a table round against its bitwise layers.
#[cfg(test)]
pub(crate) fn seeded_states(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| {
        let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}
