//! LSD radix sort + dedup for the [`QueryMatch`] batches of the result
//! path: the result merge of the joining phase and the stripe merge.
//!
//! Ids are dense small integers, so most key bytes are constant across a
//! batch; only the bytes that vary get a counting pass. Batches too small
//! to amortise the histograms, or whose keys vary in so many bytes that
//! the passes would cost more than a comparison sort, fall back to
//! `sort_unstable`. Either way the output is exactly `sort_unstable` +
//! `dedup`.

use scuba_stream::QueryMatch;

/// Key words of a match, least significant first: their word-wise order
/// equals `QueryMatch`'s `Ord` (query, then object).
const WORDS: usize = 2;

#[inline(always)]
fn word(m: &QueryMatch, w: usize) -> u64 {
    if w == 0 {
        m.object.0
    } else {
        m.query.0
    }
}

/// Below this length the 256-counter histograms dominate.
const RADIX_MIN: usize = 256;

/// Sorts `v` ascending and removes duplicates. `tmp` is the scatter
/// buffer: it only ever grows, so a caller that keeps it allocates nothing
/// in steady state.
pub(crate) fn sort_dedup(v: &mut Vec<QueryMatch>, tmp: &mut Vec<QueryMatch>) {
    let n = v.len();
    // Bits that differ anywhere in the batch, per key word.
    let mut varying = [0u64; WORDS];
    if n >= RADIX_MIN {
        for (w, bits) in varying.iter_mut().enumerate() {
            let (or, and) = v.iter().fold((0, u64::MAX), |(or, and), x| {
                (or | word(x, w), and & word(x, w))
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
    for w in 0..WORDS {
        for shift in digits(varying[w]) {
            let mut next = [0usize; 256];
            for x in src.iter() {
                next[(word(x, w) >> shift) as u8 as usize] += 1;
            }
            let mut sum = 0;
            for c in &mut next {
                sum += std::mem::replace(c, sum);
            }
            for x in src.iter() {
                let digit = (word(x, w) >> shift) as u8 as usize;
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
    use scuba_motion::{ObjectId, QueryId};
    use scuba_testkit::Xoshiro256;

    fn check(mut v: Vec<QueryMatch>, tmp: &mut Vec<QueryMatch>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        expected.dedup();
        sort_dedup(&mut v, tmp);
        assert_eq!(v, expected);
    }

    /// Ids drawn from `0..=max`: small `max` gives heavy duplicates and
    /// few varying bytes, `u64::MAX` makes every byte vary (the fallback).
    /// Lengths straddle RADIX_MIN and the pass-count fallback (2·passes vs
    /// log2 n).
    fn matches(rng: &mut Xoshiro256) -> Vec<QueryMatch> {
        let max = [0u64, 3, 4_000, 1 << 24, u64::MAX][rng.gen_range(0..5usize)];
        let len = rng.gen_range(0..2_000usize);
        (0..len)
            .map(|_| {
                let q = rng.gen_range(0..=max);
                QueryMatch::new(QueryId(q), ObjectId(rng.gen_range(0..=max)))
            })
            .collect()
    }

    #[test]
    fn matches_sort_like_sort_unstable_dedup() {
        scuba_testkit::check("matches_sort_like_sort_unstable_dedup", 96, |rng| {
            let v = matches(rng);
            let base = rng.next_u64();
            let mut tmp = Vec::new();
            // As drawn, then shifted so constant high bytes are non-zero.
            let shifted = v
                .iter()
                .map(|m| QueryMatch::new(QueryId(m.query.0 ^ base), ObjectId(m.object.0 ^ !base)))
                .collect();
            check(v, &mut tmp);
            check(shifted, &mut tmp);
        });
    }

    /// One query's matches with the given object ids: only the object
    /// word varies.
    fn objects(ids: impl Iterator<Item = u64>) -> Vec<QueryMatch> {
        ids.map(|o| QueryMatch::new(QueryId(1), ObjectId(o)))
            .collect()
    }

    #[test]
    fn edge_batches() {
        let mut tmp = Vec::new();
        check(Vec::new(), &mut tmp);
        for n in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1, 5_000] {
            let n = n as u64;
            check(objects((0..n).map(|_| 7)), &mut tmp); // all equal: zero passes
            check(objects((0..n).rev()), &mut tmp);
            check(objects((0..n).map(|i| (i % 3) << 40)), &mut tmp); // one pass (odd)
            check(
                objects((0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))),
                &mut tmp,
            );
        }
        // The scatter buffer only grows.
        assert_eq!(tmp.len(), 8_192);
    }
}
