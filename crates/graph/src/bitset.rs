//! Word-packed `u64` bitset primitives.
//!
//! The grooming pipeline manipulates dense sets over `0..n` ids constantly:
//! edge-subset membership ([`crate::view::EdgeSubset`]), clique-enumeration
//! adjacency rows ([`crate::cliques::maximal_cliques`]), touched-node
//! bitmaps. All of
//! them share the same layout — `⌈n/64⌉` machine words, bit `i` in word
//! `i / 64` — so the bit twiddling lives here once. Free functions over
//! `&[u64]` keep the storage inline in the owning structs (no indirection,
//! no generic wrapper) while popcount-based cardinality and intersection
//! come for free from the packed layout.

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Tests bit `i`. `i` must be within `words.len() * 64`.
#[inline]
pub fn test(words: &[u64], i: usize) -> bool {
    words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
}

/// Tests bit `i`, treating out-of-range indices as unset.
#[inline]
pub fn test_checked(words: &[u64], i: usize) -> bool {
    words
        .get(i / WORD_BITS)
        .is_some_and(|w| w & (1u64 << (i % WORD_BITS)) != 0)
}

/// Sets bit `i`.
#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
}

/// Clears bit `i`.
#[inline]
pub fn clear(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
}

/// Number of set bits (popcount over all words).
#[inline]
pub fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Number of bits set in both sets (popcount of the word-wise AND). Sets of
/// different lengths are compared over their common prefix.
#[inline]
pub fn intersection_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Indices of the set bits, ascending.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                None
            } else {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * WORD_BITS + bit)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut w = vec![0u64; words_for(130)];
        assert_eq!(w.len(), 3);
        for i in [0usize, 63, 64, 127, 129] {
            assert!(!test(&w, i));
            set(&mut w, i);
            assert!(test(&w, i));
        }
        assert_eq!(count(&w), 5);
        clear(&mut w, 64);
        assert!(!test(&w, 64));
        assert_eq!(count(&w), 4);
    }

    #[test]
    fn ones_ascending() {
        let mut w = vec![0u64; words_for(200)];
        let idx = [3usize, 64, 65, 128, 199];
        for &i in &idx {
            set(&mut w, i);
        }
        assert_eq!(ones(&w).collect::<Vec<_>>(), idx);
    }

    #[test]
    fn intersection_counts_common_bits() {
        let mut a = vec![0u64; 2];
        let mut b = vec![0u64; 2];
        for i in [1usize, 70, 100] {
            set(&mut a, i);
        }
        for i in [70usize, 100, 127] {
            set(&mut b, i);
        }
        assert_eq!(intersection_count(&a, &b), 2);
        assert_eq!(intersection_count(&a, &[]), 0);
    }

    #[test]
    fn test_checked_tolerates_out_of_range() {
        let w = vec![u64::MAX; 1];
        assert!(test_checked(&w, 63));
        assert!(!test_checked(&w, 64));
        assert!(!test_checked(&[], 0));
    }
}
