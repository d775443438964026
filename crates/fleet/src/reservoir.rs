//! Bounded outlier selection: top-k exemplars and weighted reservoir
//! sampling, both fully deterministic.
//!
//! Streams of cells arrive with device-count weights; the report wants a
//! bounded set of per-device exemplars — worst forward progress, worst
//! quality, highest backup energy, plus a representative sample of the
//! population. Both structures hold at most `k` entries regardless of how
//! many are offered, and both are *order-independent*: offering the same
//! (item, weight) multiset in any order yields the same selection, which
//! is what keeps reports byte-identical across chunking and resume.
//!
//! The reservoir is A-ES (Efraimidis–Spirakis) with deterministic
//! pseudo-randomness: item priority is `ln(u) / w` where `u ∈ (0,1)`
//! derives from a splitmix64 hash of `(seed, item key)` and `w` is the
//! item's total weight. Larger keys win, so an item's selection odds are
//! proportional to its weight — a uniform draw of *devices*, not cells —
//! while the hash makes the draw a pure function of the population.

use crate::sample::splitmix64;
use std::cmp::Ordering;

/// Keeps the `k` smallest (by `(metric, tie)` lexicographic order)
/// entries ever offered. Offer with a negated metric to keep the largest.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    entries: Vec<(f64, String, T)>,
}

impl<T> TopK<T> {
    /// An empty selector of capacity `k`.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// Offers one entry. `tie` breaks metric ties deterministically (use
    /// the item's canonical string).
    pub fn offer(&mut self, metric: f64, tie: String, item: T) {
        if self.k == 0 {
            return;
        }
        self.entries.push((metric, tie, item));
        self.entries
            .sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.entries.truncate(self.k);
    }

    /// The selected entries, best (smallest) first.
    pub fn into_sorted(self) -> Vec<(f64, String, T)> {
        self.entries
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Weighted reservoir (A-ES) of at most `k` items.
#[derive(Debug, Clone)]
pub struct WeightedReservoir<T> {
    seed: u64,
    k: usize,
    entries: Vec<(f64, String, T)>,
}

impl<T> WeightedReservoir<T> {
    /// An empty reservoir of capacity `k`, drawing with `seed`.
    pub fn new(seed: u64, k: usize) -> Self {
        WeightedReservoir {
            seed,
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// A-ES key for an item: `ln(u)/w` with `u ∈ (0,1)` hashed from the
    /// item. Larger is better; dividing the (negative) log by the weight
    /// pulls heavy items toward zero, giving them proportionally better
    /// odds. Offering the same `(key, weight)` twice yields the same
    /// priority — the reservoir must be fed *total* weights, once per item.
    fn priority(&self, key: &str, weight: u64) -> f64 {
        let h = splitmix64(self.seed ^ nvp_exec::fnv1a64(key.as_bytes()));
        // Map to (0,1): never exactly 0 (ln would be -inf for weightless
        // items) and never 1.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(f64::MIN_POSITIVE);
        u.ln() / weight.max(1) as f64
    }

    /// Offers one item with its total population weight.
    pub fn offer(&mut self, key: String, weight: u64, item: T) {
        if self.k == 0 {
            return;
        }
        let p = self.priority(&key, weight);
        self.entries.push((p, key, item));
        // Keep the k largest priorities; ties (identical hashes) break on
        // the canonical key so the selection is still total-ordered.
        self.entries
            .sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        self.entries.truncate(self.k);
    }

    /// The sampled items in canonical-key order (presentation order must
    /// not leak priority values, which are an implementation detail).
    pub fn into_sorted(mut self) -> Vec<(String, T)> {
        self.entries
            .sort_by(|a, b| a.1.cmp(&b.1).then(Ordering::Equal));
        self.entries.into_iter().map(|(_, k, v)| (k, v)).collect()
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_the_smallest_with_stable_ties() {
        let mut t = TopK::new(2);
        for (m, tag) in [(5.0, "e"), (1.0, "b"), (1.0, "a"), (3.0, "c")] {
            t.offer(m, tag.to_string(), tag);
        }
        let kept = t.into_sorted();
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].0, kept[0].2), (1.0, "a"));
        assert_eq!((kept[1].0, kept[1].2), (1.0, "b"));
    }

    #[test]
    fn topk_is_order_independent() {
        let items = [(9.0, "i"), (2.0, "b"), (7.0, "g"), (2.0, "a"), (4.0, "d")];
        let mut fwd = TopK::new(3);
        let mut rev = TopK::new(3);
        for &(m, t) in &items {
            fwd.offer(m, t.into(), t);
        }
        for &(m, t) in items.iter().rev() {
            rev.offer(m, t.into(), t);
        }
        let (f, r) = (fwd.into_sorted(), rev.into_sorted());
        assert_eq!(f.len(), r.len());
        for (a, b) in f.iter().zip(&r) {
            assert_eq!((a.0, a.2), (b.0, b.2));
        }
    }

    #[test]
    fn reservoir_is_deterministic_and_order_independent() {
        let items: Vec<(String, u64)> = (0..50)
            .map(|i| (format!("cell{i:02}"), 1 + (i % 7)))
            .collect();
        let mut fwd = WeightedReservoir::new(42, 5);
        let mut rev = WeightedReservoir::new(42, 5);
        for (k, w) in &items {
            fwd.offer(k.clone(), *w, *w);
        }
        for (k, w) in items.iter().rev() {
            rev.offer(k.clone(), *w, *w);
        }
        let (f, r) = (fwd.into_sorted(), rev.into_sorted());
        assert_eq!(f, r);
        assert_eq!(f.len(), 5);
        // A different seed draws a different sample.
        let mut other = WeightedReservoir::new(43, 5);
        for (k, w) in &items {
            other.offer(k.clone(), *w, *w);
        }
        assert_ne!(other.into_sorted(), f);
    }

    #[test]
    fn reservoir_weight_steers_selection_odds() {
        // One overwhelming item should be selected for almost any seed.
        let mut picked = 0;
        for seed in 0..100 {
            let mut res = WeightedReservoir::new(seed, 1);
            res.offer("whale".into(), 1_000_000, ());
            for i in 0..20 {
                res.offer(format!("minnow{i}"), 1, ());
            }
            if res.into_sorted()[0].0 == "whale" {
                picked += 1;
            }
        }
        assert!(picked > 90, "whale picked only {picked}/100 times");
    }

    #[test]
    fn zero_capacity_structures_keep_nothing() {
        let mut t = TopK::new(0);
        t.offer(1.0, "a".into(), ());
        assert!(t.is_empty());
        let mut r = WeightedReservoir::new(0, 0);
        r.offer("a".into(), 5, ());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
