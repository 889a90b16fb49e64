//! The multi-tenant serving tier: session-keyed snapshots, epoch
//! hot-swap, and a bounded per-tenant answer cache.
//!
//! A [`SnapshotRegistry`] holds one [`Tenant`] per session id. Each tenant
//! owns the *published epoch* — an [`Arc`] bundling a `ModelSnapshot`, the
//! [`QueryServer`] restored from it, and a monotonically increasing
//! publish **version** — plus a bounded LRU [`AnswerCache`] in front of
//! the server.
//!
//! # Hot-swap semantics
//!
//! Publishing a new epoch builds the replacement `QueryServer` *outside*
//! every lock, then swaps the `Arc` under a briefly-held `Mutex` (the
//! `Mutex<Arc<_>>` flavor of ArcSwap). Readers clone the `Arc` under the
//! same brief lock and answer entirely against their clone, so an
//! in-flight query batch keeps answering against the epoch it started on
//! while the swap lands — readers never wait on model construction, and a
//! swap never waits for readers to drain.
//!
//! # Cache-key / invalidation contract
//!
//! A cache entry's key is the tenant's publish **version** (8 bytes LE)
//! followed by the query's canonical encoding
//! (`RangeQuery::write_canonical_key`). The version prefix is what makes
//! cached answers exact rather than probabilistic: keys from different
//! epochs can never alias, so even an entry surviving past a swap (an
//! insert racing the publisher's [`AnswerCache::clear`]) is still correct
//! for the version it names — the clear is memory hygiene, not a
//! correctness requirement. A republished snapshot that is *equal* to the
//! current one (fingerprint prefilter, then full `==`) is a no-op: the
//! version and the warm cache survive.
//!
//! Cached ≡ uncached ≡ single-tenant holds bit-for-bit because per-query
//! answers are pure functions of the snapshot (serving is read-only
//! post-processing): answering a batch's misses as a sub-batch returns
//! the same bits the full batch would have produced, which is the same
//! frame-split invariance the serving equivalence suites already pin.

use crate::serve::QueryServer;
use crate::wire::{AnswerBatch, QueryBatch};
use crate::ProtocolError;
use bytes::{Buf, Bytes};
use privmdr_core::{EstimatorTelemetry, ModelSnapshot};
use privmdr_query::RangeQuery;
use privmdr_util::sync::lock_unpoisoned;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Sentinel for "no slot" in the LRU's intrusive links.
const NIL: usize = usize::MAX;

/// One cached answer with its LRU links.
#[derive(Debug)]
struct Slot {
    key: Box<[u8]>,
    value: f64,
    prev: usize,
    next: usize,
}

/// The cache's guarded state: a key → slot map plus a slab of slots
/// threaded into a recency list (`head` = most recent).
#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<Box<[u8]>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruInner {
    fn new() -> Self {
        LruInner {
            head: NIL,
            tail: NIL,
            ..LruInner::default()
        }
    }

    fn detach(&mut self, i: usize) {
        let (p, n) = (self.slots[i].prev, self.slots[i].next);
        if p != NIL {
            self.slots[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
    }

    fn insert(&mut self, key: Vec<u8>, value: f64, cap: usize) {
        let key: Box<[u8]> = key.into_boxed_slice();
        if let Some(&i) = self.map.get(&key) {
            // Deterministic answers mean the value cannot actually differ,
            // but refresh it anyway and promote the entry.
            self.slots[i].value = value;
            self.touch(i);
            return;
        }
        if self.map.len() >= cap {
            let t = self.tail;
            self.detach(t);
            self.map.remove(&self.slots[t].key);
            self.free.push(t);
            self.evictions += 1;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
    }
}

/// Point-in-time counters of one [`AnswerCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to the model.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Capacity bound (`0` = caching disabled).
    pub cap: usize,
}

/// A bounded LRU of `canonical-key → answer`, safe to share across query
/// threads (one `Mutex` around the whole structure, recovered rather than
/// propagated on poison — entries are deterministic, so a map a panicking
/// thread abandoned is still valid). With the HDG pair caches now built
/// eagerly and lock-free, this cache and the registry's tenant map hold
/// the serving tier's only remaining locks, so the poisoning-recovery
/// regression test lives here. Batch probes and inserts each take the
/// lock once.
#[derive(Debug)]
pub struct AnswerCache {
    inner: Mutex<LruInner>,
    cap: usize,
}

impl AnswerCache {
    /// A cache bounded to `cap` entries; `cap == 0` disables caching
    /// (probes always miss, inserts are dropped).
    pub fn new(cap: usize) -> Self {
        AnswerCache {
            inner: Mutex::new(LruInner::new()),
            cap,
        }
    }

    /// The capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Looks up every key under one lock acquisition, promoting hits to
    /// most-recent. Misses come back as `None` in the matching position.
    pub fn probe(&self, keys: &[Vec<u8>]) -> Vec<Option<f64>> {
        if self.cap == 0 {
            return vec![None; keys.len()];
        }
        let mut inner = lock_unpoisoned(&self.inner);
        keys.iter()
            .map(|key| match inner.map.get(key.as_slice()).copied() {
                Some(i) => {
                    inner.hits += 1;
                    inner.touch(i);
                    Some(inner.slots[i].value)
                }
                None => {
                    inner.misses += 1;
                    None
                }
            })
            .collect()
    }

    /// Inserts every pair under one lock acquisition, evicting
    /// least-recently-used entries past the capacity bound.
    pub fn insert_many(&self, pairs: impl IntoIterator<Item = (Vec<u8>, f64)>) {
        if self.cap == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        for (key, value) in pairs {
            inner.insert(key, value, self.cap);
        }
    }

    /// Drops every entry (the swap-time invalidation). Counters survive.
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.map.clear();
        inner.slots.clear();
        inner.free.clear();
        inner.head = NIL;
        inner.tail = NIL;
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            cap: self.cap,
        }
    }
}

/// One published epoch: the snapshot, the server restored from it, and
/// the tenant-local publish version that prefixes every cache key minted
/// against it.
pub struct PublishedEpoch {
    /// Tenant-local publish version (1 for the first publish, +1 per
    /// swap). Cache keys embed it, so entries from different epochs can
    /// never alias.
    pub version: u64,
    /// `ModelSnapshot::cache_fingerprint` of [`PublishedEpoch::snapshot`]
    /// — the cheap prefilter for no-op republish detection.
    pub fingerprint: u64,
    /// The published model, kept for exact (`==`) republish comparison.
    pub snapshot: ModelSnapshot,
    /// The answerer restored from the snapshot.
    pub server: QueryServer,
}

/// The outcome of a [`SnapshotRegistry::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The session published to.
    pub session: u64,
    /// The tenant's publish version after the call.
    pub version: u64,
    /// Whether the call installed a new epoch (false: the snapshot
    /// equalled the current one, so version and warm cache survived).
    pub swapped: bool,
    /// Whether the call created the session.
    pub created: bool,
}

/// One serving session: the current published epoch plus the answer
/// cache in front of it.
pub struct Tenant {
    id: u64,
    current: Mutex<Arc<PublishedEpoch>>,
    cache: AnswerCache,
}

impl Tenant {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The currently published epoch. The lock is held only for the
    /// `Arc` clone; the caller answers against its own handle, unaffected
    /// by later swaps.
    pub fn current(&self) -> Arc<PublishedEpoch> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// The tenant's answer cache (stats, direct invalidation).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Answers a workload through the cache against the current epoch:
    /// probe all queries under one lock, answer the misses as one
    /// sub-batch on the epoch's server (bit-identical to answering them
    /// inside the full batch — per-query answers are batch-independent),
    /// then insert the computed answers.
    pub fn answer_cached(&self, queries: &[RangeQuery], shards: usize) -> Vec<f64> {
        self.answer_cached_on(&self.current(), queries, shards)
    }

    /// [`Tenant::answer_cached`] against a caller-held epoch handle, so a
    /// framed request validates and answers against one consistent epoch
    /// even if a swap lands mid-request.
    fn answer_cached_on(
        &self,
        epoch: &PublishedEpoch,
        queries: &[RangeQuery],
        shards: usize,
    ) -> Vec<f64> {
        // A disabled cache would miss every probe without counting it and
        // drop every insert: skip the keys and the miss-batch copy.
        if self.cache.cap() == 0 {
            return epoch.server.answer_workload(queries, shards);
        }
        let mut keys: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| {
                let mut key = Vec::with_capacity(8 + q.lambda() * 24);
                key.extend_from_slice(&epoch.version.to_le_bytes());
                q.write_canonical_key(&mut key);
                key
            })
            .collect();
        let cached = self.cache.probe(&keys);
        let miss_idx: Vec<usize> = cached
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_none().then_some(i))
            .collect();
        let miss_queries: Vec<RangeQuery> = miss_idx.iter().map(|&i| queries[i].clone()).collect();
        let computed = epoch.server.answer_workload(&miss_queries, shards);
        let mut out: Vec<f64> = cached.iter().map(|v| v.unwrap_or(0.0)).collect();
        let mut inserts = Vec::with_capacity(miss_idx.len());
        for (&i, &a) in miss_idx.iter().zip(&computed) {
            out[i] = a;
            inserts.push((std::mem::take(&mut keys[i]), a));
        }
        self.cache.insert_many(inserts);
        out
    }

    /// Validates a decoded query batch against the current epoch's schema
    /// and answers it through the cache, returning the encoded
    /// [`AnswerBatch`] — the cached counterpart of
    /// `QueryServer::serve_frame`, with the same error contract.
    pub fn serve_batch(&self, batch: &QueryBatch, shards: usize) -> Result<Bytes, ProtocolError> {
        let epoch = self.current();
        if batch.c != epoch.server.domain() {
            return Err(ProtocolError::Malformed(
                "query batch domain does not match the model",
            ));
        }
        if batch
            .queries
            .iter()
            .any(|q| q.attrs().any(|attr| attr >= epoch.server.dims()))
        {
            return Err(ProtocolError::Malformed(
                "query references an attribute outside the model",
            ));
        }
        let answers = self.answer_cached_on(&epoch, &batch.queries, shards);
        Ok(AnswerBatch::new(answers).to_bytes())
    }

    /// Serves one framed request through the cache: decodes a
    /// [`QueryBatch`] from `buf` and delegates to [`Tenant::serve_batch`].
    pub fn serve_frame(&self, buf: &mut impl Buf, shards: usize) -> Result<Bytes, ProtocolError> {
        let batch = QueryBatch::decode(buf)?;
        self.serve_batch(&batch, shards)
    }
}

/// The session-keyed registry: one [`Tenant`] per session id, all sharing
/// one cache-capacity policy.
pub struct SnapshotRegistry {
    tenants: Mutex<HashMap<u64, Arc<Tenant>>>,
    cache_cap: usize,
}

impl SnapshotRegistry {
    /// An empty registry whose tenants each get an answer cache bounded
    /// to `cache_cap` entries (`0` disables caching).
    pub fn new(cache_cap: usize) -> Self {
        SnapshotRegistry {
            tenants: Mutex::new(HashMap::new()),
            cache_cap,
        }
    }

    /// The per-tenant cache capacity.
    pub fn cache_cap(&self) -> usize {
        self.cache_cap
    }

    /// Publishes `snapshot` to `session`, creating the tenant on first
    /// contact and hot-swapping the epoch otherwise. The replacement
    /// server is restored *before* any lock is taken; republishing a
    /// snapshot equal to the current one is a no-op that keeps the
    /// version and the warm cache.
    pub fn publish(
        &self,
        session: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<PublishReceipt, ProtocolError> {
        let fingerprint = snapshot.cache_fingerprint();
        if let Some(tenant) = self.get(session) {
            let cur = tenant.current();
            // The fingerprint screens out virtually every real change
            // cheaply; full equality closes the 64-bit collision gap so a
            // no-op verdict is never wrong.
            if cur.fingerprint == fingerprint && cur.snapshot == *snapshot {
                return Ok(PublishReceipt {
                    session,
                    version: cur.version,
                    swapped: false,
                    created: false,
                });
            }
            let server = QueryServer::new(snapshot)?;
            let mut guard = lock_unpoisoned(&tenant.current);
            let version = guard.version + 1;
            *guard = Arc::new(PublishedEpoch {
                version,
                fingerprint,
                snapshot: snapshot.clone(),
                server,
            });
            drop(guard);
            // Entries for older versions can never be probed again (keys
            // embed the version); clearing just returns their memory.
            tenant.cache.clear();
            return Ok(PublishReceipt {
                session,
                version,
                swapped: true,
                created: false,
            });
        }
        let server = QueryServer::new(snapshot)?;
        let tenant = Arc::new(Tenant {
            id: session,
            current: Mutex::new(Arc::new(PublishedEpoch {
                version: 1,
                fingerprint,
                snapshot: snapshot.clone(),
                server,
            })),
            cache: AnswerCache::new(self.cache_cap),
        });
        match lock_unpoisoned(&self.tenants).entry(session) {
            Entry::Vacant(v) => {
                v.insert(tenant);
                Ok(PublishReceipt {
                    session,
                    version: 1,
                    swapped: true,
                    created: true,
                })
            }
            // Another publisher created the session while we were
            // building the server; retry as a swap on the winner.
            Entry::Occupied(_) => self.publish(session, snapshot),
        }
    }

    /// The tenant for `session`, if any.
    pub fn get(&self, session: u64) -> Option<Arc<Tenant>> {
        lock_unpoisoned(&self.tenants).get(&session).cloned()
    }

    /// Every open session id, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = lock_unpoisoned(&self.tenants).keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.tenants).len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed cache counters across every tenant.
    pub fn cache_stats_total(&self) -> CacheStats {
        let tenants = lock_unpoisoned(&self.tenants);
        let mut total = CacheStats {
            cap: self.cache_cap,
            ..CacheStats::default()
        };
        for t in tenants.values() {
            let s = t.cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }

    /// Summed estimator telemetry across every tenant's *current* epoch
    /// server; `None` when no open session has an estimator stage (e.g.
    /// all-MSW rotations). Counters reset with each epoch swap — the
    /// telemetry belongs to the restored model, not the tenant.
    pub fn estimator_telemetry_total(&self) -> Option<EstimatorTelemetry> {
        let epochs: Vec<Arc<PublishedEpoch>> = lock_unpoisoned(&self.tenants)
            .values()
            .map(|t| t.current())
            .collect();
        let mut total: Option<EstimatorTelemetry> = None;
        for epoch in epochs {
            let Some(t) = epoch.server.estimator_telemetry() else {
                continue;
            };
            let total = total.get_or_insert_with(EstimatorTelemetry::default);
            total.wu_sweeps += t.wu_sweeps;
            total.wu_cap_hits += t.wu_cap_hits;
            for (l, n) in t.lambda_counts {
                match total.lambda_counts.binary_search_by_key(&l, |&(bl, _)| bl) {
                    Ok(i) => total.lambda_counts[i].1 += n,
                    Err(i) => total.lambda_counts.insert(i, (l, n)),
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmdr_core::Hdg;
    use privmdr_data::DatasetSpec;
    use privmdr_query::workload::WorkloadBuilder;

    fn snapshot(seed: u64) -> ModelSnapshot {
        let ds = DatasetSpec::Normal { rho: 0.6 }.generate(8_000, 3, 16, seed);
        Hdg::default().snapshot(&ds, 1.0, seed).unwrap()
    }

    fn key(b: u8) -> Vec<u8> {
        vec![b, b, b]
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = AnswerCache::new(2);
        cache.insert_many([(key(1), 1.0), (key(2), 2.0)]);
        // Touch 1 so 2 becomes least-recent, then push 3.
        assert_eq!(cache.probe(&[key(1)]), [Some(1.0)]);
        cache.insert_many([(key(3), 3.0)]);
        assert_eq!(
            cache.probe(&[key(1), key(2), key(3)]),
            [Some(1.0), None, Some(3.0)]
        );
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_reinsert_promotes_and_clear_empties() {
        let cache = AnswerCache::new(2);
        cache.insert_many([(key(1), 1.0), (key(2), 2.0)]);
        // Re-inserting 1 promotes it, so 2 is the eviction victim.
        cache.insert_many([(key(1), 1.0), (key(3), 3.0)]);
        assert_eq!(cache.probe(&[key(2)]), [None]);
        assert_eq!(cache.probe(&[key(1), key(3)]), [Some(1.0), Some(3.0)]);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.probe(&[key(1)]), [None]);
        // Reusable after the clear (free list and links reset together).
        cache.insert_many([(key(4), 4.0)]);
        assert_eq!(cache.probe(&[key(4)]), [Some(4.0)]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = AnswerCache::new(0);
        cache.insert_many([(key(1), 1.0)]);
        assert_eq!(cache.probe(&[key(1)]), [None]);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn cached_answers_match_uncached_bit_for_bit() {
        let snap = snapshot(7);
        let registry = SnapshotRegistry::new(64);
        registry.publish(9, &snap).unwrap();
        let tenant = registry.get(9).unwrap();
        let reference = QueryServer::new(&snap).unwrap();

        let wl = WorkloadBuilder::new(3, 16, 5);
        let mut queries = wl.random(1, 0.5, 10);
        queries.extend(wl.random(2, 0.5, 30));
        queries.extend(wl.random(3, 0.5, 10));
        let want = reference.answer_workload(&queries, 1);
        // Cold pass fills the cache, warm pass answers from it; a small
        // cap forces evictions mid-workload. All must match exactly.
        for round in 0..3 {
            let got = tenant.answer_cached(&queries, 1);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "round {round}, query {i}");
            }
        }
        let stats = tenant.cache().stats();
        assert_eq!(stats.misses, 50, "only the cold pass should miss");
        assert_eq!(stats.hits, 100);
        assert!(stats.evictions == 0);
    }

    #[test]
    fn publish_swaps_bump_version_and_republish_is_noop() {
        let registry = SnapshotRegistry::new(16);
        let first = snapshot(1);
        let receipt = registry.publish(3, &first).unwrap();
        assert!(receipt.created && receipt.swapped);
        assert_eq!(receipt.version, 1);

        let tenant = registry.get(3).unwrap();
        let q = WorkloadBuilder::new(3, 16, 2).random(2, 0.5, 4);
        tenant.answer_cached(&q, 1);
        assert_eq!(tenant.cache().stats().len, 4);

        // Republishing the identical snapshot keeps the warm cache.
        let noop = registry.publish(3, &first.clone()).unwrap();
        assert!(!noop.swapped && !noop.created);
        assert_eq!(noop.version, 1);
        assert_eq!(tenant.cache().stats().len, 4);

        // A different snapshot swaps, bumps the version, and clears.
        let second = snapshot(2);
        let swap = registry.publish(3, &second).unwrap();
        assert!(swap.swapped && !swap.created);
        assert_eq!(swap.version, 2);
        assert_eq!(tenant.cache().stats().len, 0);
        assert_eq!(tenant.current().version, 2);
        // The tenant handle taken before the swap serves the new epoch.
        let want = QueryServer::new(&second).unwrap().answer_workload(&q, 1);
        let got = tenant.answer_cached(&q, 1);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn in_flight_epoch_handle_survives_a_swap() {
        let registry = SnapshotRegistry::new(16);
        let first = snapshot(4);
        registry.publish(1, &first).unwrap();
        let tenant = registry.get(1).unwrap();
        // A reader grabs the epoch, then the publisher swaps underneath.
        let held = tenant.current();
        registry.publish(1, &snapshot(5)).unwrap();
        assert_eq!(held.version, 1);
        assert_eq!(tenant.current().version, 2);
        // The held handle still answers with the old epoch's bits.
        let q = WorkloadBuilder::new(3, 16, 8).random(2, 0.4, 6);
        let want = QueryServer::new(&first).unwrap().answer_workload(&q, 1);
        let got = held.server.answer_workload(&q, 1);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn poisoned_cache_lock_is_recovered_not_propagated() {
        // The serving tier's remaining locks are the answer cache and the
        // registry's tenant/current maps; a request thread that panics
        // while holding one (caught by a daemon's per-request isolation)
        // must not wedge every later request. `lock_unpoisoned` recovers
        // the guard; this regression test pins that the cached serving
        // path still answers bit-identically after a poisoning panic.
        let snap = snapshot(11);
        let registry = SnapshotRegistry::new(32);
        registry.publish(5, &snap).unwrap();
        let tenant = registry.get(5).unwrap();
        let queries = WorkloadBuilder::new(3, 16, 6).random(2, 0.5, 8);
        let want = tenant.answer_cached(&queries, 1);

        // Poison the cache mutex: panic while holding the guard.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tenant.cache().inner.lock().unwrap();
            panic!("poison the answer-cache lock");
        }));
        assert!(caught.is_err());
        assert!(
            tenant.cache().inner.is_poisoned(),
            "lock should be poisoned"
        );

        // Probes, inserts, stats, swaps, and cached answering all still
        // work — and still return the same bits.
        let got = tenant.answer_cached(&queries, 1);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert!(tenant.cache().stats().hits >= 8);
        let receipt = registry.publish(5, &snapshot(12)).unwrap();
        assert!(receipt.swapped);
        assert!(registry.estimator_telemetry_total().is_some());
    }

    #[test]
    fn registry_tracks_sessions() {
        let registry = SnapshotRegistry::new(8);
        assert!(registry.is_empty());
        let snap = snapshot(3);
        registry.publish(7, &snap).unwrap();
        registry.publish(2, &snap).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.session_ids(), [2, 7]);
        assert!(registry.get(5).is_none());
        assert_eq!(registry.cache_stats_total().cap, 8);
    }
}
