//! Shared generator utilities.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Seeded RNG used by all generators (reproducible across runs/platforms).
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A pool of synthetic labelled values: `prefix_0 … prefix_{n-1}`.
pub fn label_pool(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}_{i}")).collect()
}

/// Draws an instance size from `[lo, hi]` with a distribution skewed toward
/// the low end (matching the paper's entity-size distributions, where the
/// mean sits well below the maximum).
pub fn skewed_size(rng: &mut ChaCha8Rng, lo: usize, hi: usize, mean: usize) -> usize {
    debug_assert!(lo <= mean && mean <= hi);
    // Mixture: mostly near the mean (geometric-ish), occasionally large.
    if rng.gen_bool(0.08) {
        rng.gen_range(mean..=hi)
    } else {
        let spread = (mean - lo).max(1);
        lo + rng.gen_range(0..=spread) + rng.gen_range(0..=spread) / 2
    }
}

/// Splits `total` into `parts` positive integers (for spreading constraint
/// budgets across chains).
pub fn split_budget(total: usize, parts: usize) -> Vec<usize> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_pool_is_distinct() {
        let pool = label_pool("x", 100);
        let set: std::collections::HashSet<&String> = pool.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn skewed_size_respects_bounds() {
        let mut r = rng(1);
        for _ in 0..1000 {
            let s = skewed_size(&mut r, 2, 136, 27);
            assert!((2..=136).contains(&s));
        }
    }

    #[test]
    fn split_budget_sums() {
        assert_eq!(split_budget(10, 3), vec![4, 3, 3]);
        assert_eq!(split_budget(10, 3).iter().sum::<usize>(), 10);
        assert!(split_budget(5, 0).is_empty());
    }

    #[test]
    fn rng_is_deterministic() {
        let a: u64 = rng(42).gen();
        let b: u64 = rng(42).gen();
        assert_eq!(a, b);
    }
}
