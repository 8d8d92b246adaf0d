//! Replacement policies.
//!
//! All policies store app ids (`u32`) and assume unit-size objects, as in
//! the paper ("we varied the cache size in terms of apps, assuming that
//! all apps have the same size" — 3.5 MB average). Each implements
//! [`ReplacementPolicy`]: `access` records a request and returns whether
//! it hit, evicting per policy when full.
//!
//! The LRU implementation is an intrusive doubly-linked list over a slab
//! with an integer-hashed index — O(1) per access, no allocations after
//! warmup — because Fig. 19 pushes millions of requests through it.

use crate::hash::IdMap;

/// A cache replacement policy over unit-size apps.
pub trait ReplacementPolicy {
    /// Records an access; returns `true` on hit.
    fn access(&mut self, app: u32) -> bool;

    /// Inserts an app without counting a hit or miss (warm start).
    fn warm(&mut self, app: u32);

    /// Number of apps currently cached.
    fn len(&self) -> usize;

    /// True if the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of apps the cache can hold.
    fn capacity(&self) -> usize;

    /// True if the given app is currently cached (for tests/inspection).
    fn contains(&self, app: u32) -> bool;

    /// Number of evictions performed so far (warm inserts never evict).
    fn evictions(&self) -> u64 {
        0
    }
}

/// Which policy to run (for experiment configs and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used (the paper's Fig. 19 policy).
    Lru,
    /// First in, first out.
    Fifo,
    /// Least frequently used (with recency tie-break).
    Lfu,
    /// Segmented LRU: probation + protected segments.
    SegmentedLru,
    /// Category-aware LRU (the §7 suggestion).
    CategoryLru,
}

impl PolicyKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lfu => "LFU",
            PolicyKind::SegmentedLru => "SLRU",
            PolicyKind::CategoryLru => "Category-LRU",
        }
    }
}

// ---------------------------------------------------------------------------
// Intrusive doubly-linked list over a slab (shared by LRU variants).
// ---------------------------------------------------------------------------

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    app: u32,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU list: O(1) touch / push-front / pop-back.
#[derive(Debug, Clone)]
struct LruList {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    index: IdMap<u32, u32>, // app -> node slot
}

impl LruList {
    fn with_capacity(capacity: usize) -> LruList {
        LruList {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: IdMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, app: u32) -> bool {
        self.index.contains_key(&app)
    }

    fn unlink(&mut self, slot: u32) {
        let node = self.nodes[slot as usize];
        match node.prev {
            NIL => self.head = node.next,
            p => self.nodes[p as usize].next = node.next,
        }
        match node.next {
            NIL => self.tail = node.prev,
            n => self.nodes[n as usize].prev = node.prev,
        }
    }

    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[slot as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves an existing app to the front; returns false if absent.
    fn touch(&mut self, app: u32) -> bool {
        let Some(&slot) = self.index.get(&app) else {
            return false;
        };
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        true
    }

    /// Inserts a new app at the front.
    ///
    /// # Panics
    /// Panics if the app is already present.
    fn push_front(&mut self, app: u32) {
        assert!(!self.contains(app), "duplicate insert of app {app}");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node {
                    app,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    app,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.index.insert(app, slot);
        self.link_front(slot);
    }

    /// Removes and returns the least-recently-used app.
    fn pop_back(&mut self) -> Option<u32> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let app = self.nodes[slot as usize].app;
        self.unlink(slot);
        self.index.remove(&app);
        self.free.push(slot);
        Some(app)
    }

    /// Removes a specific app; returns true if present.
    fn remove(&mut self, app: u32) -> bool {
        let Some(&slot) = self.index.get(&app) else {
            return false;
        };
        self.unlink(slot);
        self.index.remove(&app);
        self.free.push(slot);
        true
    }

    /// The app at the LRU end, if any.
    fn back(&self) -> Option<u32> {
        if self.tail == NIL {
            None
        } else {
            Some(self.nodes[self.tail as usize].app)
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used cache (the paper's Fig. 19 policy).
///
/// ```
/// use appstore_cache::{Lru, ReplacementPolicy};
///
/// let mut cache = Lru::new(2);
/// assert!(!cache.access(1));     // cold miss
/// assert!(!cache.access(2));
/// assert!(cache.access(1));      // hit; 1 becomes most recent
/// assert!(!cache.access(3));     // evicts 2 (least recent)
/// assert!(!cache.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    list: LruList,
    capacity: usize,
    evictions: u64,
}

impl Lru {
    /// Creates an LRU cache holding up to `capacity` apps.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Lru {
        assert!(capacity > 0, "cache capacity must be positive");
        Lru {
            list: LruList::with_capacity(capacity),
            capacity,
            evictions: 0,
        }
    }

    /// Promotes `app` to most-recently-used if it is cached; returns
    /// whether it was. Unlike [`ReplacementPolicy::access`] a miss does
    /// NOT insert — the serve-layer edge cache only admits an app after
    /// its payload has actually been fetched from the backing store.
    pub fn touch(&mut self, app: u32) -> bool {
        self.list.touch(app)
    }

    /// Inserts `app` as most-recently-used, returning the app evicted to
    /// make room (so a value-carrying cache layered on top can drop the
    /// matching payload). Promotes without evicting when already cached.
    pub fn insert_evicting(&mut self, app: u32) -> Option<u32> {
        if self.list.touch(app) {
            return None;
        }
        let evicted = if self.list.len() == self.capacity {
            self.evictions += 1;
            self.list.pop_back()
        } else {
            None
        };
        self.list.push_front(app);
        evicted
    }
}

impl ReplacementPolicy for Lru {
    fn access(&mut self, app: u32) -> bool {
        if self.list.touch(app) {
            return true;
        }
        if self.list.len() == self.capacity {
            self.list.pop_back();
            self.evictions += 1;
        }
        self.list.push_front(app);
        false
    }

    fn warm(&mut self, app: u32) {
        if !self.list.contains(app) && self.list.len() < self.capacity {
            self.list.push_front(app);
        }
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn contains(&self, app: u32) -> bool {
        self.list.contains(app)
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out cache (insertion order eviction, no touch).
#[derive(Debug, Clone)]
pub struct Fifo {
    list: LruList,
    capacity: usize,
    evictions: u64,
}

impl Fifo {
    /// Creates a FIFO cache holding up to `capacity` apps.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Fifo {
        assert!(capacity > 0, "cache capacity must be positive");
        Fifo {
            list: LruList::with_capacity(capacity),
            capacity,
            evictions: 0,
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn access(&mut self, app: u32) -> bool {
        if self.list.contains(app) {
            return true; // no reordering on hit
        }
        if self.list.len() == self.capacity {
            self.list.pop_back();
            self.evictions += 1;
        }
        self.list.push_front(app);
        false
    }

    fn warm(&mut self, app: u32) {
        if !self.list.contains(app) && self.list.len() < self.capacity {
            self.list.push_front(app);
        }
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn contains(&self, app: u32) -> bool {
        self.list.contains(app)
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

// ---------------------------------------------------------------------------
// LFU
// ---------------------------------------------------------------------------

/// Least-frequently-used cache with LRU tie-break, implemented with
/// frequency buckets (O(1) amortized).
#[derive(Debug, Clone)]
pub struct Lfu {
    capacity: usize,
    counts: IdMap<u32, u64>,
    /// frequency -> LRU list of apps at that frequency.
    buckets: IdMap<u64, LruList>,
    min_freq: u64,
    evictions: u64,
}

impl Lfu {
    /// Creates an LFU cache holding up to `capacity` apps.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Lfu {
        assert!(capacity > 0, "cache capacity must be positive");
        Lfu {
            capacity,
            counts: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            buckets: IdMap::default(),
            min_freq: 0,
            evictions: 0,
        }
    }

    fn bump(&mut self, app: u32) {
        let freq = self.counts[&app];
        let bucket = self.buckets.get_mut(&freq).expect("bucket exists");
        bucket.remove(app);
        let emptied = bucket.len() == 0;
        if emptied {
            self.buckets.remove(&freq);
            if self.min_freq == freq {
                self.min_freq = freq + 1;
            }
        }
        self.counts.insert(app, freq + 1);
        self.buckets
            .entry(freq + 1)
            .or_insert_with(|| LruList::with_capacity(4))
            .push_front(app);
    }
}

impl ReplacementPolicy for Lfu {
    fn access(&mut self, app: u32) -> bool {
        if self.counts.contains_key(&app) {
            self.bump(app);
            return true;
        }
        if self.counts.len() == self.capacity {
            // Evict the least-frequent, least-recent app.
            let bucket = self
                .buckets
                .get_mut(&self.min_freq)
                .expect("min_freq bucket exists");
            let victim = bucket.pop_back().expect("bucket nonempty");
            if bucket.len() == 0 {
                self.buckets.remove(&self.min_freq);
            }
            self.counts.remove(&victim);
            self.evictions += 1;
        }
        self.counts.insert(app, 1);
        self.buckets
            .entry(1)
            .or_insert_with(|| LruList::with_capacity(4))
            .push_front(app);
        self.min_freq = 1;
        false
    }

    fn warm(&mut self, app: u32) {
        if !self.counts.contains_key(&app) && self.counts.len() < self.capacity {
            self.counts.insert(app, 1);
            self.buckets
                .entry(1)
                .or_insert_with(|| LruList::with_capacity(4))
                .push_front(app);
            self.min_freq = 1;
        }
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn contains(&self, app: u32) -> bool {
        self.counts.contains_key(&app)
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

// ---------------------------------------------------------------------------
// Segmented LRU
// ---------------------------------------------------------------------------

/// Segmented LRU: new apps enter a probation segment; a hit promotes to
/// the protected segment (capped at 80% of capacity, demoting its LRU
/// back to probation). Scan-resistant relative to plain LRU.
#[derive(Debug, Clone)]
pub struct SegmentedLru {
    probation: LruList,
    protected: LruList,
    capacity: usize,
    protected_cap: usize,
    evictions: u64,
}

impl SegmentedLru {
    /// Creates an SLRU cache holding up to `capacity` apps, with an 80%
    /// protected segment.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SegmentedLru {
        assert!(capacity > 0, "cache capacity must be positive");
        SegmentedLru {
            probation: LruList::with_capacity(capacity),
            protected: LruList::with_capacity(capacity),
            capacity,
            protected_cap: (capacity * 4 / 5).max(1),
            evictions: 0,
        }
    }

    fn total(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
}

impl ReplacementPolicy for SegmentedLru {
    fn access(&mut self, app: u32) -> bool {
        if self.protected.touch(app) {
            return true;
        }
        if self.probation.contains(app) {
            // Promote.
            self.probation.remove(app);
            if self.protected.len() == self.protected_cap {
                if let Some(demoted) = self.protected.pop_back() {
                    self.probation.push_front(demoted);
                }
            }
            self.protected.push_front(app);
            return true;
        }
        // Miss: insert into probation, evicting its LRU if full.
        if self.total() == self.capacity {
            if self.probation.len() > 0 {
                self.probation.pop_back();
            } else {
                self.protected.pop_back();
            }
            self.evictions += 1;
        }
        self.probation.push_front(app);
        false
    }

    fn warm(&mut self, app: u32) {
        if !self.contains(app) && self.total() < self.capacity {
            self.probation.push_front(app);
        }
    }

    fn len(&self) -> usize {
        self.total()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn contains(&self, app: u32) -> bool {
        self.probation.contains(app) || self.protected.contains(app)
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

// ---------------------------------------------------------------------------
// Category-aware LRU
// ---------------------------------------------------------------------------

/// Category-aware LRU — the paper's §7 suggestion, made concrete.
///
/// The clustering effect means the *category* of recent requests predicts
/// the near future better than plain recency alone: a user who just
/// fetched a game will likely fetch another game, including mid-tail
/// games plain LRU would evict. This policy is LRU with a *hot-category
/// second chance* (CLOCK-style): eviction walks from the global LRU end,
/// and an app whose category appears in the sliding window of the last
/// `window` requested categories is given one reprieve (moved back to
/// the MRU end) instead of being evicted — up to a bounded number of
/// reprieves per eviction, after which the true LRU victim goes.
#[derive(Debug, Clone)]
pub struct CategoryLru {
    capacity: usize,
    category_of: Vec<u32>,
    list: LruList,
    /// Sliding window of recent request categories.
    window: std::collections::VecDeque<u32>,
    /// Count of each category inside the window (index = category).
    window_counts: Vec<u32>,
    window_len: usize,
    evictions: u64,
}

impl CategoryLru {
    /// Maximum second chances granted per eviction.
    const MAX_REPRIEVES: usize = 8;

    /// Creates a category-aware LRU over apps whose categories are given
    /// by `category_of[app]`, protecting the categories seen in the last
    /// `window` requests.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `category_of` is empty.
    pub fn new(capacity: usize, category_of: Vec<u32>, window: usize) -> CategoryLru {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(!category_of.is_empty(), "need an app -> category table");
        let categories = 1 + *category_of.iter().max().expect("nonempty") as usize;
        CategoryLru {
            capacity,
            category_of,
            list: LruList::with_capacity(capacity),
            window: std::collections::VecDeque::with_capacity(window),
            window_counts: vec![0; categories],
            window_len: window.max(1),
            evictions: 0,
        }
    }

    fn note_request(&mut self, category: u32) {
        self.window.push_back(category);
        self.window_counts[category as usize] += 1;
        if self.window.len() > self.window_len {
            let expired = self.window.pop_front().expect("window nonempty");
            self.window_counts[expired as usize] -= 1;
        }
    }

    #[inline]
    fn is_hot(&self, category: u32) -> bool {
        self.window_counts[category as usize] > 0
    }

    fn evict(&mut self) {
        self.evictions += 1;
        for _ in 0..Self::MAX_REPRIEVES {
            let victim = self.list.back().expect("evict on nonempty cache");
            if self.is_hot(self.category_of[victim as usize]) {
                // Second chance: move to the MRU end.
                self.list.touch(victim);
            } else {
                self.list.pop_back();
                return;
            }
        }
        // Everything near the tail is hot: evict the true LRU.
        self.list.pop_back();
    }
}

impl ReplacementPolicy for CategoryLru {
    fn access(&mut self, app: u32) -> bool {
        let category = self.category_of[app as usize];
        self.note_request(category);
        if self.list.touch(app) {
            return true;
        }
        if self.list.len() == self.capacity {
            self.evict();
        }
        self.list.push_front(app);
        false
    }

    fn warm(&mut self, app: u32) {
        if !self.list.contains(app) && self.list.len() < self.capacity {
            self.list.push_front(app);
        }
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn contains(&self, app: u32) -> bool {
        self.list.contains(app)
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<P: ReplacementPolicy>(policy: &mut P, trace: &[u32]) -> Vec<bool> {
        trace.iter().map(|&a| policy.access(a)).collect()
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(2);
        assert_eq!(
            run(&mut lru, &[1, 2, 1, 3, 2]),
            vec![false, false, true, false, false]
        );
        // After [1,2,1,3]: 1 touched then 3 evicted 2; final access 2
        // evicted 1.
        assert!(lru.contains(2) && lru.contains(3));
        assert!(!lru.contains(1));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut fifo = Fifo::new(2);
        // 1,2 fill; touching 1 does not save it: 3 evicts 1 (oldest).
        assert_eq!(
            run(&mut fifo, &[1, 2, 1, 3]),
            vec![false, false, true, false]
        );
        assert!(!fifo.contains(1));
        assert!(fifo.contains(2) && fifo.contains(3));
    }

    #[test]
    fn lfu_keeps_frequent_items() {
        let mut lfu = Lfu::new(2);
        // 1 accessed three times, 2 once; 3 must evict 2.
        run(&mut lfu, &[1, 1, 1, 2, 3]);
        assert!(lfu.contains(1));
        assert!(!lfu.contains(2));
        assert!(lfu.contains(3));
    }

    #[test]
    fn lfu_tie_breaks_by_recency() {
        let mut lfu = Lfu::new(2);
        run(&mut lfu, &[1, 2]); // both freq 1; 1 is older
        lfu.access(3); // evicts 1
        assert!(!lfu.contains(1));
        assert!(lfu.contains(2) && lfu.contains(3));
    }

    #[test]
    fn slru_protects_promoted_items() {
        let mut slru = SegmentedLru::new(4);
        // 1 gets promoted by a second access; a scan of 5 new apps must
        // not evict it.
        run(&mut slru, &[1, 1]);
        run(&mut slru, &[10, 11, 12, 13, 14]);
        assert!(slru.contains(1), "protected item evicted by scan");
    }

    #[test]
    fn category_lru_protects_hot_category() {
        // Apps 0..4 in category 0; apps 5..9 in category 1.
        let cats = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let mut cache = CategoryLru::new(4, cats, 3);
        // Fill with category-0 apps, all recently requested.
        run(&mut cache, &[0, 1, 2, 3]);
        // A category-1 request must evict from category 0 only when cat 0
        // leaves the hot window; with window 3 the recent requests are
        // all category 0, so the fallback evicts the coldest entry.
        cache.access(5);
        assert_eq!(cache.len(), 4);
        assert!(cache.contains(5));
    }

    #[test]
    fn all_policies_respect_capacity_and_hit_repeats() {
        let cats: Vec<u32> = (0..100).map(|a| a % 7).collect();
        let trace: Vec<u32> = (0..1000u32).map(|i| (i * 37 + i / 13) % 100).collect();
        let policies: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(Lru::new(10)),
            Box::new(Fifo::new(10)),
            Box::new(Lfu::new(10)),
            Box::new(SegmentedLru::new(10)),
            Box::new(CategoryLru::new(10, cats, 5)),
        ];
        for mut policy in policies {
            for &a in &trace {
                policy.access(a);
                assert!(policy.len() <= policy.capacity());
                // Immediate re-access must always hit.
                assert!(policy.access(a), "immediate repeat missed");
            }
        }
    }

    #[test]
    fn warm_fills_without_counting() {
        let mut lru = Lru::new(3);
        lru.warm(1);
        lru.warm(2);
        lru.warm(2); // duplicate warm is a no-op
        assert_eq!(lru.len(), 2);
        assert!(lru.access(1));
        assert!(lru.access(2));
        lru.warm(3);
        lru.warm(4); // beyond capacity: ignored
        assert_eq!(lru.len(), 3);
        assert!(!lru.contains(4));
    }

    #[test]
    fn lru_inclusion_property() {
        // A bigger LRU cache always contains a smaller one's content
        // (stack property) — checked over a pseudo-random trace.
        let trace: Vec<u32> = (0..2000u32).map(|i| (i * 31 + i * i / 97) % 300).collect();
        let mut small = Lru::new(20);
        let mut large = Lru::new(50);
        for &a in &trace {
            let hit_small = small.access(a);
            let hit_large = large.access(a);
            assert!(
                !hit_small || hit_large,
                "small cache hit but large missed on {a}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Lru::new(0);
    }
}
