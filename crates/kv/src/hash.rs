//! Seeded FNV-1a hashing shared by the WAL checksums and the bloom filters.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, with the 64-bit offset basis perturbed by `seed` so two
/// seeds give independent hash families (the bloom filter's double hashing).
pub(crate) fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = OFFSET_BASIS ^ seed;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

/// `(fnv1a(bytes, seeds.0), fnv1a(bytes, seeds.1))` in one pass over `bytes`
/// (the bloom filter's hash pair: every probe position derives from it).
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

    #[test]
    fn distinct_inputs_and_seeds_hash_apart() {
        assert_ne!(fnv1a(b"abc", 0), fnv1a(b"abd", 0));
        assert_ne!(fnv1a(b"abc", 0), fnv1a(b"abc", 1));
        assert_eq!(fnv1a(b"abc", 7), fnv1a(b"abc", 7));
    }

    #[test]
    fn the_pair_is_the_two_single_hashes() {
        for bytes in [&b""[..], b"a", b"key00042"] {
            assert_eq!(fnv1a_pair(bytes, (3, 9)), (fnv1a(bytes, 3), fnv1a(bytes, 9)));
        }
    }
}
