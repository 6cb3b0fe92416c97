//! Input-material generators for experiments, parameterized by the
//! workload registry's declared geometry.

use rcoal_aes::Block;
use rcoal_rng::StdRng;
use rcoal_rng::{Rng, SeedableRng};
use rcoal_workload::KernelWorkload;

/// Generates `num_samples` random inputs of `lines` 16-byte lines each,
/// reproducibly from `seed` — the attacker-observed uniformly random
/// text stream every registered workload consumes (workloads with
/// 8-byte blocks read each line's first 8 bytes).
///
/// The draw is workload-independent on purpose: an AES run and a
/// PRESENT run with the same `(num, lines, seed)` see the same bytes,
/// and the AES path stays bit-identical to the pre-registry pipeline.
pub fn random_lines(num_samples: usize, lines: usize, seed: u64) -> Vec<Vec<Block>> {
    let mut flat = Vec::new();
    fill_lines(
        &mut StdRng::seed_from_u64(seed),
        num_samples,
        lines,
        &mut flat,
    );
    (0..num_samples)
        .map(|s| flat[s * lines..(s + 1) * lines].to_vec())
        .collect()
}

/// Overwrites `buf` with the next `num_samples` inputs of `lines` lines
/// each from `rng`, sample-major and flat (input `s` is
/// `buf[s * lines..(s + 1) * lines]`). Every input stream draws in this
/// one order, so repeated calls against one carried `rng` reproduce the
/// prefixes of a single [`random_lines`] call — the contract the
/// streaming [`crate::SimulatorSource`] relies on.
pub(crate) fn fill_lines(rng: &mut StdRng, num_samples: usize, lines: usize, buf: &mut Vec<Block>) {
    buf.clear();
    buf.extend((0..num_samples * lines).map(|_| {
        let mut b = [0u8; 16];
        rng.fill(&mut b);
        b
    }));
}

/// AES-era name for [`random_lines`] (the plaintext stream of the
/// paper's workload); kept as a thin wrapper.
pub fn random_plaintexts(num_plaintexts: usize, lines: usize, seed: u64) -> Vec<Vec<Block>> {
    random_lines(num_plaintexts, lines, seed)
}

/// The fixed demonstration key used by examples and benches (any key
/// works; the attack recovers whatever key the server holds).
pub const DEMO_KEY: [u8; 16] = *b"rcoal demo key<>";

/// The demonstration key trimmed to `workload`'s declared key size:
/// bytes past `geometry().key_bytes` are zeroed, making the key
/// material the kernel actually consumes explicit (PRESENT-80 uses 10
/// bytes; the gather control uses none).
pub fn demo_key_for(workload: &dyn KernelWorkload) -> [u8; 16] {
    let mut key = DEMO_KEY;
    for b in key.iter_mut().skip(workload.geometry().key_bytes.min(16)) {
        *b = 0;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let a = random_plaintexts(3, 32, 9);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|p| p.len() == 32));
        let b = random_plaintexts(3, 32, 9);
        assert_eq!(a, b);
        let c = random_plaintexts(3, 32, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn plaintexts_differ_across_samples_and_lines() {
        let p = random_plaintexts(2, 4, 1);
        assert_ne!(p[0][0], p[0][1]);
        assert_ne!(p[0][0], p[1][0]);
    }

    #[test]
    fn random_lines_is_the_same_stream() {
        assert_eq!(random_lines(2, 8, 42), random_plaintexts(2, 8, 42));
    }

    #[test]
    fn demo_key_respects_declared_key_sizes() {
        let aes = rcoal_workload::find("aes").unwrap();
        assert_eq!(demo_key_for(aes), DEMO_KEY, "AES uses the full key");
        let present = rcoal_workload::find("present80").unwrap();
        let k = demo_key_for(present);
        assert_eq!(&k[..10], &DEMO_KEY[..10]);
        assert_eq!(&k[10..], &[0u8; 6]);
        let gather = rcoal_workload::find("gather").unwrap();
        assert_eq!(demo_key_for(gather), [0u8; 16], "keyless control");
    }
}
