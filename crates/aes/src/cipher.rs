use crate::tables::{gf_mul, INV_SBOX, SBOX, T0, T1, T2, T3};

/// An AES-128 block, 16 bytes.
pub type Block = [u8; 16];

/// One table lookup performed during encryption, as seen by the memory
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableLookup {
    /// Which table: 0–3 for the round T-tables, 4 for the last-round T4.
    pub table: u8,
    /// The 8-bit index into the table.
    pub index: u8,
}

/// The per-round table lookups one thread performs while encrypting one
/// block: rounds 1–9 do 16 T0–T3 lookups each; round 10 does 16 T4
/// lookups, one per ciphertext byte and **indexed by ciphertext byte
/// position** — exactly the ordering the correlation attack exploits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTrace {
    /// `rounds[r - 1]` holds round `r`'s 16 lookups, `r ∈ 1..=10`.
    pub rounds: Vec<[TableLookup; 16]>,
}

impl LookupTrace {
    /// The 16 last-round T4 indices, `t_j` for ciphertext byte `j`, or
    /// `None` for an empty trace.
    pub fn last_round_indices(&self) -> Option<[u8; 16]> {
        let last = self.rounds.last()?;
        debug_assert!(last.iter().all(|l| l.table == 4));
        Some(last.map(|l| l.index))
    }
}

/// An expanded AES-128 key schedule.
///
/// ```
/// use rcoal_aes::Aes128;
///
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1b00_0000,
    0x3600_0000,
];

/// FIPS-197 key expansion of a `K`-byte key into `W` round-key words,
/// `4 · (rounds + 1)`.
fn expand_key<const K: usize, const W: usize>(key: &[u8; K]) -> [u32; W] {
    let nk = K / 4;
    let mut w = [0u32; W];
    for (word, bytes) in w.iter_mut().zip(key.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for i in nk..W {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp = sub_word(temp.rotate_left(8)) ^ RCON[i / nk - 1];
        } else if nk > 6 && i % nk == 4 {
            // AES-256's extra SubWord step.
            temp = sub_word(temp);
        }
        w[i] = w[i - nk] ^ temp;
    }
    w
}

/// The shared T-table encryption core for any AES variant: `nr` rounds
/// over the round keys `w`, handing each round's 16 table lookups to
/// `record` in round order.
fn encrypt_rounds(
    w: &[u32],
    nr: usize,
    plaintext: Block,
    mut record: impl FnMut(&[TableLookup; 16]),
) -> Block {
    let mut s = [0u32; 4];
    for i in 0..4 {
        s[i] = u32::from_be_bytes([
            plaintext[4 * i],
            plaintext[4 * i + 1],
            plaintext[4 * i + 2],
            plaintext[4 * i + 3],
        ]) ^ w[i];
    }
    for r in 1..nr {
        let mut t = [0u32; 4];
        let mut lookups = [TableLookup { table: 0, index: 0 }; 16];
        for i in 0..4 {
            let i0 = (s[i] >> 24) as usize;
            let i1 = (s[(i + 1) % 4] >> 16) as usize & 0xff;
            let i2 = (s[(i + 2) % 4] >> 8) as usize & 0xff;
            let i3 = s[(i + 3) % 4] as usize & 0xff;
            t[i] = T0[i0] ^ T1[i1] ^ T2[i2] ^ T3[i3] ^ w[4 * r + i];
            lookups[4 * i] = TableLookup {
                table: 0,
                index: i0 as u8,
            };
            lookups[4 * i + 1] = TableLookup {
                table: 1,
                index: i1 as u8,
            };
            lookups[4 * i + 2] = TableLookup {
                table: 2,
                index: i2 as u8,
            };
            lookups[4 * i + 3] = TableLookup {
                table: 3,
                index: i3 as u8,
            };
        }
        record(&lookups);
        s = t;
    }
    // Last round: SubBytes + ShiftRows + AddRoundKey via T4. Lookup j
    // produces ciphertext byte j.
    let mut ct = [0u8; 16];
    let mut lookups = [TableLookup { table: 4, index: 0 }; 16];
    for j in 0..16 {
        let word = j / 4;
        let lane = j % 4;
        let src = s[(word + lane) % 4];
        let idx = (src >> (24 - 8 * lane)) as usize & 0xff;
        let key_byte = (w[4 * nr + word] >> (24 - 8 * lane)) as u8;
        ct[j] = SBOX[idx] ^ key_byte;
        lookups[j] = TableLookup {
            table: 4,
            index: idx as u8,
        };
    }
    record(&lookups);
    ct
}

/// The AES-NI twin of the T-table core's kernel fill, for AES-128.
///
/// T-table lookup `4i + k` of a round reads row `k` of column
/// `(i + k) mod 4` of the state entering that round, so the round's 16
/// indices are `ShiftRows` of that state: one `pshufb` before each
/// `aesenc` (rounds 1–9) and before the final `aesenclast`. The rows and
/// ciphertexts equal [`Aes128::encrypt_indexed`]'s bit for bit.
#[cfg(target_arch = "x86_64")]
mod aes_ni {
    use super::Block;
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_shuffle_epi8,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// `ShiftRows` as a byte shuffle: byte `4i + k` of the result is byte
    /// `4 · ((i + k) mod 4) + k` of the state.
    const SHIFT_ROWS: Block = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];

    /// An AES-128 key schedule as 11 round keys, held only on a CPU that
    /// reports `aes` and `ssse3`: [`AesNi::new`] is the one constructor,
    /// and it checks.
    #[derive(Debug, Clone)]
    pub(crate) struct AesNi {
        round_keys: [Block; 11],
    }

    impl AesNi {
        /// The schedule, or `None` when the CPU lacks `aes` or `ssse3`.
        pub(super) fn new(round_keys: [Block; 11]) -> Option<Self> {
            (is_x86_feature_detected!("aes") && is_x86_feature_detected!("ssse3"))
                .then_some(AesNi { round_keys })
        }

        /// [`super::Aes128::encrypt_indexed`] on AES-NI.
        pub(crate) fn encrypt_indexed(&self, plaintext: &Block, rows: &mut [[u8; 16]]) -> Block {
            // SAFETY: `encrypt_indexed` needs only `aes` and `ssse3`, and
            // `new` made `self` only after the CPU reported both.
            unsafe { encrypt_indexed(&self.round_keys, plaintext, rows) }
        }
    }

    /// Encrypts `plaintext` under `round_keys` and writes round `r`'s
    /// indices, `ShiftRows` of the state entering round `r`, to
    /// `rows[r - 1]`.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `ssse3`.
    #[target_feature(enable = "aes,ssse3")]
    fn encrypt_indexed(
        round_keys: &[Block; 11],
        plaintext: &Block,
        rows: &mut [[u8; 16]],
    ) -> Block {
        let shift_rows = load(&SHIFT_ROWS);
        let mut rows = rows.iter_mut();
        let mut state = _mm_xor_si128(load(plaintext), load(&round_keys[0]));
        for (r, key) in round_keys.iter().enumerate().skip(1) {
            if let Some(row) = rows.next() {
                store(row, _mm_shuffle_epi8(state, shift_rows));
            }
            state = if r < 10 {
                _mm_aesenc_si128(state, load(key))
            } else {
                _mm_aesenclast_si128(state, load(key))
            };
        }
        let mut ct = [0u8; 16];
        store(&mut ct, state);
        ct
    }

    #[inline(always)]
    fn load(bytes: &Block) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(out: &mut Block, value: __m128i) {
        // SAFETY: `out` is 16 writable bytes, and an unaligned store has
        // no alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), value) }
    }
}

#[inline]
fn sub_word(w: u32) -> u32 {
    (u32::from(SBOX[(w >> 24) as usize]) << 24)
        | (u32::from(SBOX[(w >> 16) as usize & 0xff]) << 16)
        | (u32::from(SBOX[(w >> 8) as usize & 0xff]) << 8)
        | u32::from(SBOX[w as usize & 0xff])
}

impl Aes128 {
    /// Expands a 128-bit key into the 11-round key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        Aes128 {
            round_keys: expand_key(key),
        }
    }

    /// The 16-byte round key of round `r` (0 = whitening key, 10 = last).
    ///
    /// # Panics
    ///
    /// Panics if `r > 10`.
    pub fn round_key(&self, r: usize) -> Block {
        assert!(r <= 10, "AES-128 has rounds 0..=10");
        let mut out = [0u8; 16];
        for i in 0..4 {
            out[4 * i..4 * i + 4].copy_from_slice(&self.round_keys[4 * r + i].to_be_bytes());
        }
        out
    }

    /// The last round key — the attack's target.
    pub fn last_round_key(&self) -> Block {
        self.round_key(10)
    }

    /// Encrypts one block with the T-table implementation.
    pub fn encrypt_block(&self, plaintext: Block) -> Block {
        encrypt_rounds(&self.round_keys, 10, plaintext, |_| {})
    }

    /// Encrypts one block, also recording every table lookup the T-table
    /// implementation performs — the memory-access trace of one GPU
    /// thread.
    pub fn encrypt_block_traced(&self, plaintext: Block) -> (Block, LookupTrace) {
        let mut trace = LookupTrace {
            rounds: Vec::with_capacity(10),
        };
        let ct = encrypt_rounds(&self.round_keys, 10, plaintext, |round| {
            trace.rounds.push(*round)
        });
        (ct, trace)
    }

    /// Encrypts one block with the T-table core and writes round `r`'s
    /// 16 table indices to `rows[r - 1]` (as many rounds as `rows`
    /// holds): the portable kernel fill, and the reference the AES-NI
    /// fill is tested against.
    pub(crate) fn encrypt_indexed(&self, plaintext: &Block, rows: &mut [[u8; 16]]) -> Block {
        let mut rows = rows.iter_mut();
        encrypt_rounds(&self.round_keys, 10, *plaintext, |lookups| {
            if let Some(row) = rows.next() {
                *row = lookups.map(|lookup| lookup.index);
            }
        })
    }

    /// This schedule's AES-NI kernel fill, when the CPU reports `aes` and
    /// `ssse3`.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn aes_ni(&self) -> Option<aes_ni::AesNi> {
        aes_ni::AesNi::new(std::array::from_fn(|r| round_key_at(&self.round_keys, r)))
    }

    /// Decrypts one block (reference inverse cipher; not on the timing
    /// path, used for validation).
    pub fn decrypt_block(&self, ciphertext: Block) -> Block {
        let mut state = ciphertext;
        add_round_key(&mut state, &self.round_key(10));
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        for r in (1..10).rev() {
            add_round_key(&mut state, &self.round_key(r));
            inv_mix_columns(&mut state);
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
        }
        add_round_key(&mut state, &self.round_key(0));
        state
    }
}

fn add_round_key(state: &mut Block, rk: &Block) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn inv_sub_bytes(state: &mut Block) {
    for s in state.iter_mut() {
        *s = INV_SBOX[*s as usize];
    }
}

/// State byte order is column-major: byte `4c + r` is row `r`, column `c`.
fn inv_shift_rows(state: &mut Block) {
    let old = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = old[4 * ((c + 4 - r) % 4) + r];
        }
    }
}

fn inv_mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf_mul(col[0], 0x0e)
            ^ gf_mul(col[1], 0x0b)
            ^ gf_mul(col[2], 0x0d)
            ^ gf_mul(col[3], 0x09);
        state[4 * c + 1] = gf_mul(col[0], 0x09)
            ^ gf_mul(col[1], 0x0e)
            ^ gf_mul(col[2], 0x0b)
            ^ gf_mul(col[3], 0x0d);
        state[4 * c + 2] = gf_mul(col[0], 0x0d)
            ^ gf_mul(col[1], 0x09)
            ^ gf_mul(col[2], 0x0e)
            ^ gf_mul(col[3], 0x0b);
        state[4 * c + 3] = gf_mul(col[0], 0x0b)
            ^ gf_mul(col[1], 0x0d)
            ^ gf_mul(col[2], 0x09)
            ^ gf_mul(col[3], 0x0e);
    }
}

/// Recovers the last-round table index for ciphertext byte `j` given the
/// ciphertext byte and a (guessed) last-round key byte — Equation 3 of
/// the paper: `t_j = S⁻¹[c_j ⊕ k_j]`.
pub fn last_round_index(cipher_byte: u8, key_byte: u8) -> u8 {
    INV_SBOX[(cipher_byte ^ key_byte) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn fips197_key_expansion() {
        // FIPS-197 Appendix A.1.
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(aes.round_keys[4], 0xa0fafe17);
        assert_eq!(aes.round_keys[43], 0xb6630ca6);
        assert_eq!(aes.round_key(10), block("d014f9a8c9ee2589e13f0cc8b6630ca6"));
    }

    #[test]
    fn fips197_appendix_b_vector() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(block("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, block("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt_block(block("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, block("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(
            aes.decrypt_block(ct),
            block("00112233445566778899aabbccddeeff")
        );
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        for i in 0..32u8 {
            let mut pt = [0u8; 16];
            for (k, b) in pt.iter_mut().enumerate() {
                *b = i.wrapping_mul(31).wrapping_add(k as u8).wrapping_mul(17);
            }
            assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn traced_encryption_matches_untraced() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        let pt = block("00112233445566778899aabbccddeeff");
        let (ct, trace) = aes.encrypt_block_traced(pt);
        assert_eq!(ct, aes.encrypt_block(pt));
        assert_eq!(trace.rounds.len(), 10);
        for r in 0..9 {
            for (pos, l) in trace.rounds[r].iter().enumerate() {
                assert_eq!(l.table as usize, pos % 4);
            }
        }
        assert!(trace.rounds[9].iter().all(|l| l.table == 4));
    }

    #[test]
    fn equation_3_recovers_last_round_indices() {
        // The invariant the whole attack rests on:
        // t_j == INV_SBOX[c_j ^ k_j] for every byte j.
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let k10 = aes.last_round_key();
        for seed in 0..20u8 {
            let mut pt = [0u8; 16];
            for (i, b) in pt.iter_mut().enumerate() {
                *b = seed.wrapping_mul(13).wrapping_add(i as u8).wrapping_mul(7);
            }
            let (ct, trace) = aes.encrypt_block_traced(pt);
            let t = trace.last_round_indices().unwrap();
            for j in 0..16 {
                assert_eq!(
                    t[j],
                    last_round_index(ct[j], k10[j]),
                    "byte {j} of seed {seed}"
                );
            }
        }
    }

    /// Runs both fills on `line` and requires equal ciphertexts and
    /// equal rows; returns the T-table fill's.
    #[cfg(target_arch = "x86_64")]
    fn fills_agree(aes: &Aes128, line: &Block) -> (Block, [[u8; 16]; 10]) {
        let aes_ni = aes.aes_ni().expect("the CPU reported aes and ssse3");
        let (mut want, mut got) = ([[0u8; 16]; 10], [[0xa5u8; 16]; 10]);
        let ct = aes.encrypt_indexed(line, &mut want);
        assert_eq!(
            aes_ni.encrypt_indexed(line, &mut got),
            ct,
            "line {line:02x?}"
        );
        assert_eq!(got, want, "line {line:02x?}");
        (ct, want)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn aes_ni_fill_equals_the_t_table_fill() {
        use rcoal_rng::{Rng, SeedableRng, StdRng};
        if Aes128::new(&[0; 16]).aes_ni().is_none() {
            eprintln!("this CPU lacks aes or ssse3: only the T-table fill runs here");
            return;
        }
        // FIPS-197 Appendix B. Round r's indices are ShiftRows of the
        // state entering round r, so their S-box images are the
        // appendix's "After ShiftRows" rows.
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let (ct, rows) = fills_agree(&aes, &block("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, block("3925841d02dc09fbdc118597196a0b32"));
        let shifted = |row: [u8; 16]| row.map(|i| SBOX[usize::from(i)]);
        assert_eq!(shifted(rows[0]), block("d4bf5d30e0b452aeb84111f11e2798e5"));
        assert_eq!(shifted(rows[9]), block("e9317db5cb322c723d2e895faf090794"));

        let mut rng = StdRng::seed_from_u64(0xae5);
        let (mut key, mut line) = ([0u8; 16], [0u8; 16]);
        for _ in 0..10_000 {
            rng.fill(&mut key);
            rng.fill(&mut line);
            fills_agree(&Aes128::new(&key), &line);
        }
    }

    #[test]
    fn round_key_bounds() {
        let aes = Aes128::new(&[0u8; 16]);
        let _ = aes.round_key(0);
        let _ = aes.round_key(10);
        assert!(std::panic::catch_unwind(|| aes.round_key(11)).is_err());
    }
}

/// An expanded AES-192 key schedule (12 rounds).
///
/// The paper evaluates AES-128 "without losing generality"; the larger
/// variants share the vulnerable T4 last round, so the same attack and
/// defenses apply. Provided for cipher completeness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes192 {
    round_keys: [u32; 52],
}

impl Aes192 {
    /// Expands a 192-bit key.
    pub fn new(key: &[u8; 24]) -> Self {
        Aes192 {
            round_keys: expand_key(key),
        }
    }

    /// Encrypts one block.
    pub fn encrypt_block(&self, plaintext: Block) -> Block {
        encrypt_rounds(&self.round_keys, 12, plaintext, |_| {})
    }

    /// Encrypts one block, recording every table lookup (12 rounds of 16).
    pub fn encrypt_block_traced(&self, plaintext: Block) -> (Block, LookupTrace) {
        let mut trace = LookupTrace {
            rounds: Vec::with_capacity(12),
        };
        let ct = encrypt_rounds(&self.round_keys, 12, plaintext, |round| {
            trace.rounds.push(*round)
        });
        (ct, trace)
    }

    /// The last (12th) round key — the analogue of the AES-128 attack
    /// target.
    pub fn last_round_key(&self) -> Block {
        round_key_at(&self.round_keys, 12)
    }
}

/// An expanded AES-256 key schedule (14 rounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes256 {
    round_keys: [u32; 60],
}

impl Aes256 {
    /// Expands a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        Aes256 {
            round_keys: expand_key(key),
        }
    }

    /// Encrypts one block.
    pub fn encrypt_block(&self, plaintext: Block) -> Block {
        encrypt_rounds(&self.round_keys, 14, plaintext, |_| {})
    }

    /// Encrypts one block, recording every table lookup (14 rounds of 16).
    pub fn encrypt_block_traced(&self, plaintext: Block) -> (Block, LookupTrace) {
        let mut trace = LookupTrace {
            rounds: Vec::with_capacity(14),
        };
        let ct = encrypt_rounds(&self.round_keys, 14, plaintext, |round| {
            trace.rounds.push(*round)
        });
        (ct, trace)
    }

    /// The last (14th) round key.
    pub fn last_round_key(&self) -> Block {
        round_key_at(&self.round_keys, 14)
    }
}

fn round_key_at(w: &[u32], r: usize) -> Block {
    let mut out = [0u8; 16];
    for i in 0..4 {
        out[4 * i..4 * i + 4].copy_from_slice(&w[4 * r + i].to_be_bytes());
    }
    out
}

#[cfg(test)]
mod large_key_tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key: [u8; 24] = hex("000102030405060708090a0b0c0d0e0f1011121314151617")
            .try_into()
            .unwrap();
        let pt: Block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes192::new(&key);
        assert_eq!(
            aes.encrypt_block(pt).to_vec(),
            hex("dda97ca4864cdfe06eaf70a0ec0d7191")
        );
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let pt: Block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes256::new(&key);
        assert_eq!(
            aes.encrypt_block(pt).to_vec(),
            hex("8ea2b7ca516745bfeafc49904b496089")
        );
    }

    #[test]
    fn large_variants_trace_their_rounds() {
        let aes192 = Aes192::new(&[7u8; 24]);
        let (ct, trace) = aes192.encrypt_block_traced([3u8; 16]);
        assert_eq!(ct, aes192.encrypt_block([3u8; 16]));
        assert_eq!(trace.rounds.len(), 12);
        assert!(trace.rounds[11].iter().all(|l| l.table == 4));

        let aes256 = Aes256::new(&[9u8; 32]);
        let (_, trace) = aes256.encrypt_block_traced([4u8; 16]);
        assert_eq!(trace.rounds.len(), 14);
    }

    #[test]
    fn equation_3_holds_for_larger_keys_too() {
        // The last-round relation the attack exploits is key-size
        // independent: t_j = S⁻¹[c_j ⊕ k_j].
        let aes = Aes256::new(&[0x42u8; 32]);
        let k_last = aes.last_round_key();
        for seed in 0..8u8 {
            let pt = [seed.wrapping_mul(29); 16];
            let (ct, trace) = aes.encrypt_block_traced(pt);
            let t = trace.last_round_indices().unwrap();
            for j in 0..16 {
                assert_eq!(t[j], last_round_index(ct[j], k_last[j]));
            }
        }
    }
}

impl Aes128 {
    /// Reconstructs the full key schedule — and thus the original private
    /// key — from the *last* round key alone.
    ///
    /// This is the final step of the correlation timing attack: the
    /// paper targets the last round key "since ... key expansion is
    /// invertible (i.e., it is possible to derive the original private
    /// key from any round key)" (§II-C, citing Neve & Seifert). The
    /// expansion recurrence `w[i] = w[i-4] ⊕ temp(w[i-1])` solves
    /// backwards as `w[i-4] = w[i] ⊕ temp(w[i-1])`.
    pub fn from_last_round_key(k10: &Block) -> Self {
        let mut w = [0u32; 44];
        for i in 0..4 {
            w[40 + i] =
                u32::from_be_bytes([k10[4 * i], k10[4 * i + 1], k10[4 * i + 2], k10[4 * i + 3]]);
        }
        for i in (4..44).rev().map(|i| i - 4) {
            // Recover w[i] from w[i+4] and w[i+3].
            let mut temp = w[i + 3];
            if (i + 4) % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ RCON[(i + 4) / 4 - 1];
            }
            w[i] = w[i + 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// The original 128-bit private key (round-0 key).
    pub fn master_key(&self) -> Block {
        self.round_key(0)
    }
}

#[cfg(test)]
mod inversion_tests {
    use super::*;

    #[test]
    fn last_round_key_recovers_the_master_key() {
        let key = *b"top secret key!!";
        let aes = Aes128::new(&key);
        let recovered = Aes128::from_last_round_key(&aes.last_round_key());
        assert_eq!(recovered.master_key(), key);
        assert_eq!(recovered, aes, "entire schedule matches");
    }

    #[test]
    fn inversion_roundtrips_for_many_keys() {
        for seed in 0..50u8 {
            let mut key = [0u8; 16];
            for (i, b) in key.iter_mut().enumerate() {
                *b = seed
                    .wrapping_mul(37)
                    .wrapping_add(i as u8)
                    .wrapping_mul(101);
            }
            let aes = Aes128::new(&key);
            let recovered = Aes128::from_last_round_key(&aes.last_round_key());
            assert_eq!(recovered.master_key(), key, "seed {seed}");
            // And the recovered schedule encrypts identically.
            assert_eq!(
                recovered.encrypt_block([seed; 16]),
                aes.encrypt_block([seed; 16])
            );
        }
    }

    #[test]
    fn wrong_last_round_key_gives_wrong_master_key() {
        let aes = Aes128::new(b"top secret key!!");
        let mut k10 = aes.last_round_key();
        k10[0] ^= 1;
        let recovered = Aes128::from_last_round_key(&k10);
        assert_ne!(recovered.master_key(), *b"top secret key!!");
    }
}
