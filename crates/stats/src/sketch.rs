//! Mergeable streaming sketches for the out-of-core pipeline.
//!
//! The shape analyses only need exact numbers where the fidelity report
//! grades them; everywhere else a sketch with a *provable* error bound
//! is enough and keeps the fold state O(k) per shard. Two sketches live
//! here, both deterministic (no internal randomness, so shard merges are
//! reproducible) and both mergeable in any order:
//!
//! * [`QuantileSketch`] — a KLL-style compactor hierarchy over `u64`
//!   values. Each compaction of a full level keeps every second item of
//!   the sorted buffer (alternating offset) and promotes it with doubled
//!   weight; a compaction at level `l` can shift any rank by at most the
//!   level weight `2^l`, and the sketch *accounts* each one, so
//!   [`QuantileSketch::rank_error_bound`] is a rigorous (conservative)
//!   bound on the absolute rank error of any reported quantile — zero
//!   while the sketch has never compacted.
//! * [`SpaceSaving`] — Metwally et al.'s heavy-hitter summary. Every
//!   estimate over-counts by at most its recorded `overcount`, and any
//!   key whose true count exceeds [`SpaceSaving::min_count`] is
//!   guaranteed present, a property the merge preserves.

use std::collections::BTreeMap;

/// Deterministic KLL-style quantile sketch over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    k: usize,
    /// `levels[l]` holds items of weight `2^l`, unsorted between
    /// compactions.
    levels: Vec<Vec<u64>>,
    /// Per-level parity of the next compaction (alternates which half of
    /// the sorted buffer survives, bounding drift in expectation and —
    /// for the accounting below — deterministically).
    parity: Vec<bool>,
    n: u64,
    error_mass: u64,
}

impl QuantileSketch {
    /// A sketch keeping at most `k` items per level (`k` is clamped to
    /// at least 8). Memory is O(k · log(n/k)).
    pub fn new(k: usize) -> QuantileSketch {
        QuantileSketch {
            k: k.max(8),
            levels: vec![Vec::new()],
            parity: vec![false],
            n: 0,
            error_mass: 0,
        }
    }

    /// Number of values offered.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Offers one value.
    pub fn offer(&mut self, value: u64) {
        self.levels[0].push(value);
        self.n += 1;
        self.compact_from(0);
    }

    fn compact_from(&mut self, mut level: usize) {
        while self.levels[level].len() >= self.k {
            if level + 1 == self.levels.len() {
                self.levels.push(Vec::new());
                self.parity.push(false);
            }
            let mut buffer = std::mem::take(&mut self.levels[level]);
            buffer.sort_unstable();
            // An odd buffer keeps its largest item at this level so
            // total weight is conserved exactly; pairs compact below.
            if buffer.len() % 2 == 1 {
                let leftover = buffer.pop().expect("odd buffer is nonempty");
                self.levels[level].push(leftover);
            }
            let offset = usize::from(self.parity[level]);
            self.parity[level] = !self.parity[level];
            let promoted: Vec<u64> = buffer
                .into_iter()
                .enumerate()
                .filter_map(|(i, v)| (i % 2 == offset).then_some(v))
                .collect();
            self.levels[level + 1].extend(promoted);
            // One compaction of adjacent weight-2^l pairs misplaces any
            // rank by at most 2^l: only the pair straddling the queried
            // value can err, and by exactly one item weight.
            self.error_mass += 1u64 << level.min(62);
            level += 1;
        }
    }

    /// Merges `other` into `self`. Merge is order-insensitive up to the
    /// accounted error bound: both orders yield a sketch whose reported
    /// quantiles are within the (summed) bound of exact.
    pub fn merge(&mut self, other: &QuantileSketch) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        for (level, items) in other.levels.iter().enumerate() {
            self.levels[level].extend_from_slice(items);
        }
        self.n += other.n;
        self.error_mass += other.error_mass;
        for level in 0..self.levels.len() {
            self.compact_from(level);
        }
    }

    /// All retained `(value, weight)` pairs, sorted by value.
    fn materialize(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for (level, items) in self.levels.iter().enumerate() {
            let weight = 1u64 << level.min(62);
            pairs.extend(items.iter().map(|&v| (v, weight)));
        }
        pairs.sort_unstable();
        pairs
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), or `None` on an
    /// empty sketch. With no compactions this is the exact empirical
    /// quantile; otherwise its *rank* is within
    /// [`rank_error_bound`](Self::rank_error_bound) of exact.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        let pairs = self.materialize();
        for &(value, weight) in &pairs {
            seen += weight;
            if seen >= target {
                return Some(value);
            }
        }
        pairs.last().map(|&(value, _)| value)
    }

    /// Absolute rank-error bound of any reported quantile: the summed
    /// weight displaced by every compaction so far (0 ⇒ exact).
    pub fn rank_error_bound(&self) -> u64 {
        self.error_mass
    }

    /// [`rank_error_bound`](Self::rank_error_bound) as a fraction of the
    /// stream length (0.0 on an empty sketch).
    pub fn relative_error_bound(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.error_mass as f64 / self.n as f64
        }
    }
}

/// SpaceSaving heavy-hitter summary over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    capacity: usize,
    /// key → (estimated count, overcount at adoption).
    entries: BTreeMap<u64, (u64, u64)>,
    total: u64,
}

impl SpaceSaving {
    /// A summary tracking at most `capacity` keys (clamped to ≥ 1).
    pub fn new(capacity: usize) -> SpaceSaving {
        SpaceSaving {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            total: 0,
        }
    }

    /// Offers `weight` occurrences of `key`.
    pub fn offer(&mut self, key: u64, weight: u64) {
        self.total += weight;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (weight, 0));
            return;
        }
        // Evict the (count, key)-minimal entry; the newcomer inherits
        // its count as overcount — the classic SpaceSaving step.
        let (&victim_key, &(victim_count, _)) = self
            .entries
            .iter()
            .min_by_key(|(&k, &(count, _))| (count, k))
            .expect("capacity >= 1");
        self.entries.remove(&victim_key);
        self.entries
            .insert(key, (victim_count + weight, victim_count));
    }

    /// Merges `other` into `self`, then trims back to capacity keeping
    /// the largest estimates. Keys absent from one side gain that side's
    /// [`min_count`](Self::min_count) as extra estimate *and* overcount,
    /// which preserves both guarantees (estimate ≥ true ≥ estimate −
    /// overcount) under merge.
    pub fn merge(&mut self, other: &SpaceSaving) {
        let self_floor = if self.entries.len() < self.capacity {
            0
        } else {
            self.min_count()
        };
        let other_floor = if other.entries.len() < other.capacity {
            0
        } else {
            other.min_count()
        };
        let mut merged: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (&key, &(count, over)) in &self.entries {
            let (extra, extra_over) = match other.entries.get(&key) {
                Some(&(c, o)) => (c, o),
                None => (other_floor, other_floor),
            };
            merged.insert(key, (count + extra, over + extra_over));
        }
        for (&key, &(count, over)) in &other.entries {
            merged
                .entry(key)
                .or_insert((count + self_floor, over + self_floor));
        }
        // Trim to capacity, keeping the largest estimates (ties broken
        // toward smaller keys so the result is deterministic).
        while merged.len() > self.capacity {
            let (&victim, _) = merged
                .iter()
                .min_by_key(|(&k, &(count, _))| (count, k))
                .expect("nonempty");
            merged.remove(&victim);
        }
        self.entries = merged;
        self.total += other.total;
    }

    /// Total weight offered (exact).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The smallest estimate currently tracked (0 when under capacity).
    /// Any key with true count strictly above this is guaranteed
    /// present in the summary.
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        self.entries
            .values()
            .map(|&(count, _)| count)
            .min()
            .unwrap_or(0)
    }

    /// The top `k` keys as `(key, estimate, overcount)`, sorted by
    /// estimate descending then key ascending. `estimate` never
    /// undercounts; `estimate - overcount` never overcounts.
    pub fn top(&self, k: usize) -> Vec<(u64, u64, u64)> {
        let mut all: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .map(|(&key, &(count, over))| (key, count, over))
            .collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[target - 1]
    }

    #[test]
    fn small_streams_are_exact() {
        let mut sketch = QuantileSketch::new(64);
        let values = [9u64, 1, 5, 3, 7];
        for v in values {
            sketch.offer(v);
        }
        assert_eq!(sketch.rank_error_bound(), 0, "no compaction yet");
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(sketch.quantile(q), Some(exact_quantile(&sorted, q)));
        }
        assert_eq!(QuantileSketch::new(8).quantile(0.5), None);
    }

    #[test]
    fn rank_error_stays_within_bound_on_large_streams() {
        let mut sketch = QuantileSketch::new(128);
        let mut values: Vec<u64> = (0..50_000u64)
            .map(|i| (i * 2_654_435_761) % 100_000)
            .collect();
        for &v in &values {
            sketch.offer(v);
        }
        values.sort_unstable();
        let bound = sketch.rank_error_bound();
        assert!(bound > 0, "this stream must have compacted");
        assert!(
            sketch.relative_error_bound() < 0.30,
            "advertised bound unusably loose: {}",
            sketch.relative_error_bound()
        );
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let approx = sketch.quantile(q).unwrap();
            // True rank window of the reported value.
            let lo = values.partition_point(|&v| v < approx) as u64;
            let hi = values.partition_point(|&v| v <= approx) as u64;
            let target = ((q * values.len() as f64).ceil() as u64).clamp(1, values.len() as u64);
            let rank_err = if target < lo {
                lo - target
            } else {
                target.saturating_sub(hi)
            };
            assert!(
                rank_err <= bound,
                "q={q}: rank error {rank_err} exceeds advertised bound {bound}"
            );
        }
    }

    #[test]
    fn merge_accumulates_counts_and_bounds() {
        let mut a = QuantileSketch::new(64);
        let mut b = QuantileSketch::new(64);
        for i in 0..5000u64 {
            a.offer(i);
            b.offer(10_000 - i);
        }
        let (na, nb) = (a.count(), b.count());
        let bound_sum = a.rank_error_bound() + b.rank_error_bound();
        a.merge(&b);
        assert_eq!(a.count(), na + nb);
        assert!(a.rank_error_bound() >= bound_sum);
        let median = a.quantile(0.5).unwrap();
        assert!((4000..=6000).contains(&median), "median {median}");
    }

    #[test]
    fn space_saving_estimates_bracket_truth() {
        let mut ss = SpaceSaving::new(4);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        // 3 heavy keys + a tail of singletons.
        let stream: Vec<u64> = (0..300u64)
            .map(|i| match i % 10 {
                0..=4 => 1,
                5..=7 => 2,
                8 => 3,
                _ => 100 + i,
            })
            .collect();
        for &key in &stream {
            ss.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        assert_eq!(ss.total(), stream.len() as u64);
        for (key, est, over) in ss.top(4) {
            let true_count = truth.get(&key).copied().unwrap_or(0);
            assert!(est >= true_count, "estimate must not undercount");
            assert!(est - over <= true_count, "guaranteed part overcounts");
        }
        // Heavy keys are guaranteed present.
        for heavy in [1u64, 2] {
            assert!(truth[&heavy] > ss.min_count());
            assert!(ss.top(4).iter().any(|&(k, _, _)| k == heavy));
        }
    }

    #[test]
    fn space_saving_merge_preserves_guarantees() {
        let mut left = SpaceSaving::new(3);
        let mut right = SpaceSaving::new(3);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..200u64 {
            let key = if i % 3 == 0 { 7 } else { i % 20 };
            if i % 2 == 0 {
                left.offer(key, 1);
            } else {
                right.offer(key, 1);
            }
            *truth.entry(key).or_default() += 1;
        }
        left.merge(&right);
        assert_eq!(left.total(), 200);
        for (key, est, over) in left.top(3) {
            let true_count = truth.get(&key).copied().unwrap_or(0);
            assert!(est >= true_count);
            assert!(est - over <= true_count);
        }
        assert!(left.top(1)[0].0 == 7, "dominant key must survive the merge");
    }
}
