//! A small Zipf-distributed sampler.
//!
//! Enterprise block workloads show heavily skewed access popularity: a small set of
//! logical regions receives most of the traffic. The synthetic generators model that
//! skew with a Zipf distribution. Implemented here rather than pulling in
//! `rand_distr`, keeping the dependency set to the approved list.
//!
//! Sampling is an inverse-CDF lookup over a precomputed table, started from a guide
//! table (Chen & Asau, "On generating random variates from an empirical
//! distribution", AIIE Transactions 6(2), 1974): one slot per rank says where the
//! CDF crosses `j / n`, so a draw lands a step or two from its rank instead of
//! binary-searching for it. The answer is the one a binary search over the CDF
//! gives, draw for draw.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank 0 is the most popular item. `s = 0` degenerates to the uniform distribution;
/// `s` around 0.9–1.2 matches measured block-level popularity skew. A draw costs
/// O(1) expected time and one uniform variate; the tables cost 12 bytes per rank.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use vflash_trace::Zipf;
///
/// let zipf = Zipf::new(1_000, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let sample = zipf.sample(&mut rng);
/// assert!(sample < 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF value is at least `j / n`: where
    /// the search for a draw in `[j / n, (j + 1) / n)` starts.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the distribution table for `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in 32 bits");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for value in &mut cdf {
            *value /= total;
        }
        Zipf::with_guide(cdf)
    }

    /// Wraps a non-empty, non-decreasing `cdf` ending at 1.0 with its guide
    /// table, built in one forward pass.
    fn with_guide(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for slot in 0..n {
            let threshold = slot as f64 / n as f64;
            while rank < n - 1 && cdf[rank] < threshold {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of items in the distribution.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`; smaller ranks are more likely.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen_range(0.0..1.0))
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to: the first rank whose CDF
    /// value is at least `u`. The search starts at `u`'s guide slot and steps
    /// back, then forward, to that partition point, so the answer does not
    /// depend on how the slot thresholds round. An exact tie (`u` equal to a CDF
    /// value, possibly on a plateau of equal values) takes the binary search's
    /// answer, so ties resolve exactly as a binary search over the CDF does.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let mut rank = self.guide[((u * n as f64) as usize).min(n - 1)] as usize;
        while rank > 0 && self.cdf[rank - 1] >= u {
            rank -= 1;
        }
        while rank < n && self.cdf[rank] < u {
            rank += 1;
        }
        if rank < n && self.cdf[rank] == u {
            return self
                .cdf
                .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
                .expect("u is in the table");
        }
        rank.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The lookup the guide table replaced: a binary search over the CDF.
    fn binary_search_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(index) => index,
            Err(index) => index.min(cdf.len() - 1),
        }
    }

    /// The exponents the workspace samples, the uniform and near-uniform ends,
    /// and `s = 60`, whose CDF is one plateau of equal values (every term past
    /// the first is lost against it).
    const EXPONENTS: [f64; 8] = [0.0, 0.5, 0.8, 0.9, 0.99, 1.0, 1.1, 60.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sample_matches_the_binary_search_draw_for_draw(
            n in prop_oneof![1usize..5_001, Just(100_000usize)],
            exponent in 0usize..EXPONENTS.len(),
            seed in any::<u64>(),
        ) {
            let zipf = Zipf::new(n, EXPONENTS[exponent]);
            let mut guided = StdRng::seed_from_u64(seed);
            let mut model = StdRng::seed_from_u64(seed);
            for draw in 0..100_000 {
                let u: f64 = model.gen_range(0.0..1.0);
                prop_assert_eq!(
                    zipf.sample(&mut guided),
                    binary_search_rank(&zipf.cdf, u),
                    "draw {} (u = {}) of n = {}, s = {}", draw, u, n, EXPONENTS[exponent]
                );
            }
        }
    }

    /// Every CDF value, its neighbours, 0 and the largest draw below 1.
    fn tie_queries(zipf: &Zipf) -> Vec<f64> {
        let mut queries = vec![0.0, 1.0f64.next_down()];
        for &value in &zipf.cdf {
            queries.extend([value, value.next_up(), value.next_down()]);
        }
        queries.retain(|u| (0.0..1.0).contains(u));
        queries
    }

    #[test]
    fn exact_ties_and_the_ends_of_the_unit_interval_match_the_binary_search() {
        // At s = 0 the CDF values are (i + 1) / n, so for these n draws can hit
        // a table value exactly.
        for n in [1, 2, 64, 1_000] {
            let zipf = Zipf::new(n, 0.0);
            for u in tie_queries(&zipf) {
                assert_eq!(zipf.rank_of(u), binary_search_rank(&zipf.cdf, u), "n = {n}, u = {u}");
            }
        }
        for (table, zipf) in hand_built().iter().enumerate() {
            for u in tie_queries(zipf) {
                let expected = binary_search_rank(&zipf.cdf, u);
                assert_eq!(zipf.rank_of(u), expected, "table {table}, u = {u}");
            }
        }
    }

    /// Tables no exponent produces. A plateau of equal values below 1, where
    /// a tie is whichever index the binary search lands on, not the first of
    /// the run. And a value just below the slot threshold 0.9 at n = 10: a
    /// draw equal to it computes slot 9, one past its rank's, so the search
    /// has to step back.
    fn hand_built() -> [Zipf; 2] {
        let mut tenths: Vec<f64> = (1..=10).map(|tenth| f64::from(tenth) / 10.0).collect();
        tenths[8] = 0.9f64.next_down();
        let plateau = vec![0.125, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 1.0];
        [Zipf::with_guide(plateau), Zipf::with_guide(tenths)]
    }

    #[test]
    fn the_guide_points_at_the_first_rank_reaching_its_slot() {
        let tables =
            EXPONENTS.iter().map(|&exponent| Zipf::new(1_000, exponent)).chain(hand_built());
        for (table, zipf) in tables.enumerate() {
            let n = zipf.len() as f64;
            for (slot, &rank) in zipf.guide.iter().enumerate() {
                let (rank, threshold) = (rank as usize, slot as f64 / n);
                assert!(zipf.cdf[rank] >= threshold, "table {table}, slot {slot}");
                assert!(rank == 0 || zipf.cdf[rank - 1] < threshold, "table {table}, slot {slot}");
            }
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate_for_positive_exponent() {
        let zipf = Zipf::new(1_000, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut top_ten = 0;
        let draws = 20_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) < 10 {
                top_ten += 1;
            }
        }
        // With s = 1.1 over 1000 items the top 10 ranks carry well over 30% of mass.
        assert!(
            top_ten as f64 / draws as f64 > 0.3,
            "top-10 share was only {top_ten}/{draws}"
        );
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.3, "uniform sampling too skewed: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
