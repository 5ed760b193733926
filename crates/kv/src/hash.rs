//! The two hashes of the store: a word-at-a-time checksum for WAL records,
//! the manifest and the superblock, and the seeded FNV-1a pair behind the
//! bloom filters.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// 2^64 / golden ratio, odd: multiplying by it is a bijection of `u64`.
const WORD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A 64-bit checksum of `bytes`: the length, then eight bytes per multiply
/// (little-endian words), then the tail bytes one at a time. Every step is a
/// bijection of the running state for a fixed input word and of the input word
/// for a fixed state, so two inputs of one length that differ in a single word
/// — any single flipped byte — never collide.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mix = |state: u64, word: u64| {
        let mixed = (state ^ word).wrapping_mul(WORD_MULTIPLIER);
        mixed ^ (mixed >> 32)
    };
    let mut state = mix(OFFSET_BASIS, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        state = mix(state, word);
    }
    for &byte in words.remainder() {
        state = mix(state, u64::from(byte));
    }
    state
}

/// Seeded FNV-1a of `bytes` under both `seeds` in one pass (the bloom filter's
/// hash pair: every probe position derives from it). Each hash starts from
/// the 64-bit offset basis perturbed by its seed, so the two are independent
/// families.
pub(crate) fn fnv1a_pair(bytes: &[u8], seeds: (u64, u64)) -> (u64, u64) {
    let mut first = OFFSET_BASIS ^ seeds.0;
    let mut second = OFFSET_BASIS ^ seeds.1;
    for &byte in bytes {
        first = (first ^ u64::from(byte)).wrapping_mul(PRIME);
        second = (second ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    (first, second)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-serial FNV-1a with a seeded offset basis: what each half of the
    /// pair must equal.
    fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
        let mut hash = OFFSET_BASIS ^ seed;
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        hash
    }

    #[test]
    fn distinct_inputs_and_seeds_hash_apart() {
        assert_ne!(fnv1a_pair(b"abc", (0, 0)).0, fnv1a_pair(b"abd", (0, 0)).0);
        assert_ne!(fnv1a_pair(b"abc", (0, 1)).0, fnv1a_pair(b"abc", (0, 1)).1);
        assert_eq!(fnv1a_pair(b"abc", (7, 7)), fnv1a_pair(b"abc", (7, 7)));
    }

    #[test]
    fn the_pair_is_the_two_single_hashes() {
        for bytes in [&b""[..], b"a", b"key00042"] {
            assert_eq!(fnv1a_pair(bytes, (3, 9)), (fnv1a(bytes, 3), fnv1a(bytes, 9)));
        }
    }

    #[test]
    fn the_checksum_tells_flips_lengths_and_zero_padding_apart() {
        let bytes: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(37)).collect();
        let sum = checksum64(&bytes);
        assert_eq!(sum, checksum64(&bytes), "deterministic");
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), sum, "bit {bit} of byte {at}");
            }
            assert_ne!(checksum64(&bytes[..at]), sum, "truncated to {at} bytes");
        }
        // The length is part of the sum: zero bytes are not free to append.
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 16]));
    }
}
