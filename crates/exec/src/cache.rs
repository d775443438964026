//! A bounded, single-flight LRU cache: the one cache type behind the
//! service's rendered bodies, fleet cell outcomes and the catalog's
//! specs, frame sets, compiled tables and power traces (DESIGN.md §9).
//!
//! * One lock guards the whole state: entries, in-flight fills, the LRU
//!   clock and the counters. It is held for a hash probe, plus a scan
//!   for the LRU victim when a store finds the cache full.
//! * The first requester of a missing key leads the fill (a
//!   [`LeaderToken`]); concurrent requesters join its [`Flight`], so N
//!   identical requests cost one fill. A token dropped unfinished (a
//!   rejected job, a panic) releases its joiners with a [`FlightError`]
//!   and frees the key for a new fill.
//! * A caller may [`Cache::offer`] a value it computed on the side; an
//!   offer fills only an absent key and counts as no lookup.
//! * A full cache evicts its least-recently-used entry; capacity is
//!   exact, so nothing is evicted below it.
//! * The cache counts its own hits, misses, joins and evictions.
//!
//! Fills run outside the lock and the lock recovers from poisoning, so a
//! panic can neither leave a half-built entry nor wedge the cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// FNV-1a over bytes, 64-bit: a stable content hash for ids and digests,
/// with no dependence on `RandomState`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a joiner learns when a flight completes without a value: the
/// leader failed, and joiners should report the same failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// The leader's job was refused by admission control.
    Rejected,
    /// The leader panicked or dropped its token without publishing.
    Failed,
}

/// One in-progress fill that concurrent requesters wait on.
pub struct Flight<V> {
    slot: Mutex<Option<Result<V, FlightError>>>,
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Arc<Flight<V>> {
        Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Blocks until the leader publishes, then returns its outcome.
    pub fn wait(&self) -> Result<V, FlightError> {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.clone().expect("flight slot checked non-empty")
    }

    fn publish(&self, outcome: Result<V, FlightError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
            self.done.notify_all();
        }
    }
}

/// Leadership of one cache fill. Exactly one exists per in-flight key.
///
/// Call [`complete`](LeaderToken::complete) with the value to publish it
/// to the cache and release joiners. If the token is dropped without
/// completing (admission rejection, panic), joiners are released with a
/// [`FlightError`] instead — nobody waits on a dead leader.
pub struct LeaderToken<K: Hash + Eq + Clone, V: Clone> {
    cache: Arc<Cache<K, V>>,
    key: K,
    flight: Arc<Flight<V>>,
    verdict: Option<FlightError>,
    finished: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> LeaderToken<K, V> {
    /// Publishes the value: inserts it into the cache (evicting the LRU
    /// entry if the cache is full) and wakes every joiner with it.
    pub fn complete(mut self, value: V) {
        self.finished = true;
        self.cache.insert(self.key.clone(), value.clone());
        self.flight.publish(Ok(value));
    }

    /// Marks the failure joiners should observe if this token dies
    /// without completing (default: [`FlightError::Failed`]).
    pub fn fail_with(&mut self, err: FlightError) {
        self.verdict = Some(err);
    }

    /// The flight this token leads. The leader's own thread waits on
    /// this after handing the token to a worker, exactly like a joiner.
    pub fn flight(&self) -> Arc<Flight<V>> {
        Arc::clone(&self.flight)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for LeaderToken<K, V> {
    fn drop(&mut self) {
        if !self.finished {
            let err = self.verdict.clone().unwrap_or(FlightError::Failed);
            self.cache.state().inflight.remove(&self.key);
            self.flight.publish(Err(err));
        }
    }
}

/// Outcome of a cache lookup.
pub enum Lookup<K: Hash + Eq + Clone, V: Clone> {
    /// The value is cached.
    Hit(V),
    /// Nobody is filling this key: the caller is now the leader and must
    /// either `complete` the token or drop it.
    Miss(LeaderToken<K, V>),
    /// Another caller is already filling this key; `wait` on the flight
    /// for the leader's value.
    Join(Arc<Flight<V>>),
}

/// A snapshot of a cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored entry.
    pub hits: u64,
    /// Lookups that made the caller the leader of a fill.
    pub misses: u64,
    /// Lookups that joined another caller's in-flight fill.
    pub coalesced: u64,
    /// Entries dropped to make room for a newer one.
    pub evictions: u64,
    /// Entries stored now.
    pub entries: usize,
    /// Most entries the cache will ever store.
    pub capacity: usize,
}

/// Everything the cache's one lock guards.
struct State<K, V> {
    entries: HashMap<K, Entry<V>>,
    inflight: HashMap<K, Arc<Flight<V>>>,
    /// The LRU clock: one tick per lookup or store.
    clock: u64,
    /// Counters for [`CacheStats`]; `entries` and `capacity` are read
    /// from the maps and the cache.
    stats: CacheStats,
}

struct Entry<V> {
    value: V,
    /// Last-access tick; the smallest tick is the eviction victim.
    tick: u64,
}

/// The single-flight, LRU-bounded cache.
pub struct Cache<K, V> {
    state: Mutex<State<K, V>>,
    capacity: usize,
}

impl<K, V> State<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// A cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Arc<Cache<K, V>> {
        Arc::new(Cache {
            state: Mutex::new(State {
                entries: HashMap::new(),
                inflight: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        })
    }

    fn state(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up `key`, claiming leadership of the fill on a miss.
    pub fn lookup<Q>(self: &Arc<Self>, key: &Q) -> Lookup<K, V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut state = self.state();
        let tick = state.tick();
        if let Some(entry) = state.entries.get_mut(key) {
            entry.tick = tick;
            let value = entry.value.clone();
            state.stats.hits += 1;
            return Lookup::Hit(value);
        }
        if let Some(flight) = state.inflight.get(key) {
            let flight = Arc::clone(flight);
            state.stats.coalesced += 1;
            return Lookup::Join(flight);
        }
        let flight = Flight::new();
        state.inflight.insert(key.to_owned(), Arc::clone(&flight));
        state.stats.misses += 1;
        Lookup::Miss(LeaderToken {
            cache: Arc::clone(self),
            key: key.to_owned(),
            flight,
            verdict: None,
            finished: false,
        })
    }

    /// Returns the cached value for `key`, computing it with `fill` when
    /// absent. Concurrent callers of one key share a single fill; if that
    /// fill fails (panics), its joiners retry and one of them leads anew.
    pub fn get_or_insert_with<Q>(self: &Arc<Self>, key: &Q, fill: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut fill = Some(fill);
        loop {
            match self.lookup(key) {
                Lookup::Hit(value) => return value,
                Lookup::Join(flight) => {
                    if let Ok(value) = flight.wait() {
                        return value;
                    }
                }
                Lookup::Miss(token) => {
                    let fill = fill.take().expect("a caller leads at most one fill");
                    let value = fill();
                    token.complete(value.clone());
                    return value;
                }
            }
        }
    }

    /// The cache's counters and occupancy, read under one lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats {
            entries: state.entries.len(),
            capacity: self.capacity,
            ..state.stats
        }
    }

    /// Stores `value` under `key` unless the key is stored or being
    /// filled, counting neither a hit nor a miss: for a value a caller
    /// computed as the by-product of another fill.
    pub fn offer(&self, key: K, value: V) {
        let mut state = self.state();
        if !state.entries.contains_key(&key) && !state.inflight.contains_key(&key) {
            self.store(&mut state, key, value);
        }
    }

    fn insert(&self, key: K, value: V) {
        let mut state = self.state();
        state.inflight.remove(&key);
        self.store(&mut state, key, value);
    }

    fn store(&self, state: &mut State<K, V>, key: K, value: V) {
        if state.entries.len() >= self.capacity && !state.entries.contains_key(&key) {
            if let Some(victim) = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                state.entries.remove(&victim);
                state.stats.evictions += 1;
            }
        }
        let tick = state.tick();
        state.entries.insert(key, Entry { value, tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    type Bodies = Cache<String, Arc<Vec<u8>>>;

    fn body(text: &str) -> Arc<Vec<u8>> {
        Arc::new(text.as_bytes().to_vec())
    }

    #[test]
    fn miss_then_hit_returns_same_bytes() {
        let cache = Bodies::new(16);
        let Lookup::Miss(token) = cache.lookup("k1") else {
            panic!("expected miss");
        };
        token.complete(body("payload"));
        let Lookup::Hit(hit) = cache.lookup("k1") else {
            panic!("expected hit");
        };
        assert_eq!(&**hit, b"payload");
    }

    #[test]
    fn offer_stores_only_an_absent_key_and_counts_no_lookup() {
        let cache = Bodies::new(16);
        cache.offer("k".into(), body("offered"));
        cache.offer("k".into(), body("again"));
        let Lookup::Miss(token) = cache.lookup("filling") else {
            panic!("expected miss");
        };
        cache.offer("filling".into(), body("offered"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        token.complete(body("filled"));
        let Lookup::Hit(hit) = cache.lookup("k") else {
            panic!("expected hit");
        };
        assert_eq!(&**hit, b"offered");
        let Lookup::Hit(hit) = cache.lookup("filling") else {
            panic!("expected hit");
        };
        assert_eq!(&**hit, b"filled");
    }

    #[test]
    fn joiners_receive_the_leaders_bytes() {
        let cache = Bodies::new(16);
        let Lookup::Miss(token) = cache.lookup("k") else {
            panic!("expected miss");
        };
        let mut joiners = Vec::new();
        for _ in 0..4 {
            let Lookup::Join(flight) = cache.lookup("k") else {
                panic!("expected join while flight open");
            };
            joiners.push(thread::spawn(move || flight.wait()));
        }
        token.complete(body("once"));
        for j in joiners {
            assert_eq!(&**j.join().unwrap().unwrap(), b"once");
        }
    }

    #[test]
    fn dropped_leader_releases_joiners_with_error() {
        let cache = Bodies::new(16);
        let Lookup::Miss(mut token) = cache.lookup("k") else {
            panic!("expected miss");
        };
        let Lookup::Join(flight) = cache.lookup("k") else {
            panic!("expected join");
        };
        token.fail_with(FlightError::Rejected);
        drop(token);
        assert_eq!(flight.wait().unwrap_err(), FlightError::Rejected);
        // The key is fillable again afterwards.
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        // A one-entry cache: any two keys compete for the slot.
        let cache = Bodies::new(1);
        let fill = |k: &str, v: &str| {
            let Lookup::Miss(t) = cache.lookup(k) else {
                panic!("expected miss for {k}");
            };
            t.complete(body(v));
        };
        fill("a", "a");
        fill("b", "b"); // evicts "a"
        assert!(matches!(cache.lookup("a"), Lookup::Miss(_)));
        assert!(matches!(cache.lookup("b"), Lookup::Hit(_)));
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let cache = Cache::<u32, u32>::new(2);
        cache.get_or_insert_with(&1, || 10);
        cache.get_or_insert_with(&2, || 20);
        assert!(matches!(cache.lookup(&1), Lookup::Hit(10))); // 2 is now LRU
        cache.get_or_insert_with(&3, || 30);
        assert!(matches!(cache.lookup(&1), Lookup::Hit(10)));
        assert!(matches!(cache.lookup(&2), Lookup::Miss(_)));
    }

    #[test]
    fn entries_never_exceed_capacity_under_any_insertion_order() {
        for capacity in [1, 3, 64, 100, 513] {
            for seed in 0..8u64 {
                let cache = Cache::<u64, u64>::new(capacity);
                let mut x = seed;
                for _ in 0..4 * capacity + 50 {
                    // An LCG walk over a key space wider than the cache.
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let key = (x >> 33) % (2 * capacity as u64 + 7);
                    assert_eq!(cache.get_or_insert_with(&key, || key * 3), key * 3);
                    let stats = cache.stats();
                    assert!(stats.entries <= stats.capacity, "{stats:?}");
                    assert_eq!(stats.capacity, capacity, "{stats:?}");
                    // Every miss stored one entry; every eviction dropped one.
                    assert_eq!(stats.misses - stats.evictions, stats.entries as u64);
                }
            }
        }
    }

    #[test]
    fn keys_with_colliding_hash_bits_fill_the_whole_capacity() {
        // Capacity is exact whatever the keys hash to: every key here
        // shares the low FNV-1a bits a hash-partitioned cache routes on.
        let capacity = 512;
        let keys: Vec<u64> = (0..)
            .filter(|k: &u64| fnv1a64(&k.to_ne_bytes()).is_multiple_of(8))
            .take(capacity)
            .collect();
        let cache = Cache::<u64, u64>::new(capacity);
        for &k in &keys {
            cache.get_or_insert_with(&k, || k);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (capacity, 0), "{stats:?}");
        assert!(keys
            .iter()
            .all(|k| matches!(cache.lookup(k), Lookup::Hit(_))));
    }

    #[test]
    fn counters_are_exact() {
        let cache = Bodies::new(1);
        let Lookup::Miss(a) = cache.lookup("a") else {
            panic!("miss");
        };
        assert!(matches!(cache.lookup("a"), Lookup::Join(_)));
        assert!(matches!(cache.lookup("a"), Lookup::Join(_)));
        a.complete(body("a"));
        assert!(matches!(cache.lookup("a"), Lookup::Hit(_)));
        let Lookup::Miss(b) = cache.lookup("b") else {
            panic!("miss");
        };
        b.complete(body("b")); // evicts "a"
        let Lookup::Miss(dropped) = cache.lookup("c") else {
            panic!("miss");
        };
        drop(dropped); // a failed fill stores nothing and evicts nothing
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 3,
                coalesced: 2,
                evictions: 1,
                entries: 1,
                capacity: 1,
            }
        );
    }

    #[test]
    fn failed_leader_releases_joiners_and_the_key_fills_again() {
        let cache = Cache::<u32, u32>::new(8);
        let Lookup::Miss(token) = cache.lookup(&7) else {
            panic!("miss");
        };
        let joiners: Vec<_> = (0..3)
            .map(|_| {
                let Lookup::Join(flight) = cache.lookup(&7) else {
                    panic!("join");
                };
                thread::spawn(move || flight.wait())
            })
            .collect();
        // The leader dies mid-fill.
        let leader = thread::spawn(move || {
            let _token = token;
            panic!("leader dies");
        });
        assert!(leader.join().is_err());
        for j in joiners {
            assert_eq!(j.join().unwrap(), Err(FlightError::Failed));
        }
        assert_eq!(cache.get_or_insert_with(&7, || 70), 70);
        assert!(matches!(cache.lookup(&7), Lookup::Hit(70)));
    }

    #[test]
    fn get_or_insert_with_retries_after_a_failed_flight() {
        let cache = Cache::<u32, u32>::new(8);
        let Lookup::Miss(token) = cache.lookup(&1) else {
            panic!("miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_insert_with(&1, || 11))
        };
        // Let the waiter join the open flight, then fail it.
        while cache.stats().coalesced == 0 {
            thread::yield_now();
        }
        drop(token);
        assert_eq!(waiter.join().unwrap(), 11, "the joiner must lead a retry");
        assert_eq!(cache.stats().misses, 2);
        // A panicking fill poisons nothing: the next caller fills the key.
        let panicked = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_insert_with(&2, || panic!("fill dies")))
        };
        assert!(panicked.join().is_err());
        assert_eq!(cache.get_or_insert_with(&2, || 22), 22);
    }

    #[test]
    fn recovers_from_a_poisoned_shard() {
        // A thread dying while holding the cache's lock must not wedge
        // the cache for every later caller.
        let cache = Cache::<u32, u32>::new(4);
        cache.get_or_insert_with(&1, || 10);
        let poisoner = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let _guard = cache.state();
                panic!("die while holding the cache lock");
            })
        };
        assert!(poisoner.join().is_err(), "the thread must have panicked");
        assert!(
            cache.state.lock().is_err(),
            "the lock must actually be poisoned for this test to mean anything"
        );
        assert_eq!(cache.get_or_insert_with(&1, || 99), 10);
        assert_eq!(cache.get_or_insert_with(&2, || 20), 20);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn a_poisoned_cache_leaves_its_siblings_untouched() {
        let doomed = Cache::<u8, u8>::new(4);
        let sibling = Cache::<u8, u8>::new(4);
        let _ = thread::spawn(move || {
            let _guard = doomed.state();
            panic!("poison");
        })
        .join();
        assert_eq!(sibling.get_or_insert_with(&0, || 5), 5);
        assert!(matches!(sibling.lookup(&0), Lookup::Hit(5)));
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
