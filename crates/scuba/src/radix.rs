//! LSD radix sort + dedup for the fixed-width keys of the result path:
//! [`QueryMatch`] batches (result merge, stripe merge) and packed `u64`
//! slot-pair keys (pair discovery).
//!
//! Ids and slots are dense small integers, so most key bytes are constant
//! across a batch; only the bytes that vary get a counting pass. Batches
//! too small to amortise the histograms, or whose keys vary in so many
//! bytes that the passes would cost more than a comparison sort, fall back
//! to `sort_unstable`. Either way the output is exactly
//! `sort_unstable` + `dedup`.

use scuba_stream::QueryMatch;

/// A key made of 64-bit words, least significant first, whose word-wise
/// order equals the type's `Ord`.
pub(crate) trait RadixKey: Copy + Ord {
    const WORDS: usize;
    fn word(&self, w: usize) -> u64;
}

impl RadixKey for u64 {
    const WORDS: usize = 1;
    #[inline(always)]
    fn word(&self, _w: usize) -> u64 {
        *self
    }
}

impl RadixKey for QueryMatch {
    const WORDS: usize = 2;
    #[inline(always)]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.object.0
        } else {
            self.query.0
        }
    }
}

/// Below this length the 256-counter histograms dominate.
const RADIX_MIN: usize = 256;

/// Sorts `v` ascending and removes duplicates. `tmp` is the scatter
/// buffer: it only ever grows, so a caller that keeps it allocates nothing
/// in steady state.
pub(crate) fn sort_dedup<T: RadixKey>(v: &mut Vec<T>, tmp: &mut Vec<T>) {
    let n = v.len();
    // Bits that differ anywhere in the batch, per key word.
    let mut varying = [0u64; 2];
    if n >= RADIX_MIN {
        for (w, bits) in varying.iter_mut().enumerate().take(T::WORDS) {
            let (or, and) = v.iter().fold((0, u64::MAX), |(or, and), x| {
                (or | x.word(w), and & x.word(w))
            });
            *bits = or ^ and;
        }
    }
    let digits = |bits: u64| (0..64).step_by(8).filter(move |s| (bits >> s) & 0xff != 0);
    let passes: usize = varying.iter().map(|&bits| digits(bits).count()).sum();
    // One counting pass costs about two levels of a comparison sort; a
    // batch of identical keys (no pass) is sorted already.
    if n < RADIX_MIN || passes == 0 || 2 * passes > n.ilog2() as usize {
        v.sort_unstable();
        v.dedup();
        return;
    }
    if tmp.len() < n {
        // Grown like a pushed-to `Vec`, in powers of two, so a batch a
        // little over the previous high-water mark does not reallocate.
        tmp.resize(n.next_power_of_two(), v[0]);
    }
    let (mut src, mut dst) = (&mut v[..], &mut tmp[..n]);
    for w in 0..T::WORDS {
        for shift in digits(varying[w]) {
            let mut next = [0usize; 256];
            for x in src.iter() {
                next[(x.word(w) >> shift) as u8 as usize] += 1;
            }
            let mut sum = 0;
            for c in &mut next {
                sum += std::mem::replace(c, sum);
            }
            for x in src.iter() {
                let digit = (x.word(w) >> shift) as u8 as usize;
                dst[next[digit]] = *x;
                next[digit] += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
    }
    if passes % 2 == 1 {
        v.copy_from_slice(&tmp[..n]);
    }
    v.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::pack_pair;
    use crate::store::ClusterSlot;
    use proptest::prelude::*;
    use scuba_motion::{ObjectId, QueryId};

    fn check<T: RadixKey + std::fmt::Debug>(mut v: Vec<T>, tmp: &mut Vec<T>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        expected.dedup();
        sort_dedup(&mut v, tmp);
        assert_eq!(v, expected);
    }

    /// Ids drawn from `0..=max`: small `max` gives heavy duplicates and
    /// few varying bytes, `u64::MAX` makes every byte vary (the fallback).
    fn arb_matches() -> impl Strategy<Value = Vec<QueryMatch>> {
        let max = prop_oneof![
            Just(0u64),
            Just(3),
            Just(4_000),
            Just(1 << 24),
            Just(u64::MAX)
        ];
        // Lengths straddle RADIX_MIN and the pass-count fallback (2·passes
        // vs log2 n).
        (max, 0usize..2_000).prop_flat_map(|(max, len)| {
            prop::collection::vec((0..=max, 0..=max), len..=len).prop_map(|ids| {
                ids.into_iter()
                    .map(|(q, o)| QueryMatch::new(QueryId(q), ObjectId(o)))
                    .collect()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_sort_like_sort_unstable_dedup(v in arb_matches(), base in any::<u64>()) {
            let mut tmp = Vec::new();
            // As drawn, then shifted so constant high bytes are non-zero.
            let shifted = v
                .iter()
                .map(|m| QueryMatch::new(QueryId(m.query.0 ^ base), ObjectId(m.object.0 ^ !base)))
                .collect();
            check(v, &mut tmp);
            check(shifted, &mut tmp);
        }

        #[test]
        fn pair_keys_sort_like_sort_unstable_dedup(
            slots in prop::collection::vec((0u32..40, 0u32..40), 0..1_500),
            offset in prop_oneof![Just(0u32), Just(1 << 24), Just(u32::MAX - 40)],
        ) {
            let keys = slots
                .iter()
                .map(|&(a, b)| pack_pair(ClusterSlot(a + offset), ClusterSlot(b + offset)))
                .collect();
            check(keys, &mut Vec::new());
        }
    }

    #[test]
    fn edge_batches() {
        let mut tmp = Vec::new();
        check(Vec::<u64>::new(), &mut tmp);
        for n in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1, 5_000] {
            check(vec![7u64; n], &mut tmp); // all equal: zero passes
            check((0..n as u64).rev().collect(), &mut tmp);
            check((0..n as u64).map(|i| (i % 3) << 40).collect(), &mut tmp); // one pass (odd)
            check(
                (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .collect(),
                &mut tmp,
            );
        }
        // The scatter buffer only grows.
        assert_eq!(tmp.len(), 8_192);
    }
}
