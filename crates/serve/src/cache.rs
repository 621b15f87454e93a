//! LRU cache of built [`SolvePlan`]s.
//!
//! Keyed by `(plan digest, max order)`. The digest
//! ([`somrm_core::plan_digest`]) pins everything a plan is built from —
//! generator, drifts, variances — and nothing else: the `U`-recursion
//! depends on neither the initial distribution `π` nor the horizon
//! (Theorem 3), so tenants that differ only in `π`, and requests at any
//! `q·t`, share one plan. A mutated model (one rate nudged, one
//! variance added) re-keys. The max order bounds which executes the
//! cached plan may run. Hits, misses, and evictions are published to
//! the `somrm-obs` registry under `serve.plan.*`.

use somrm_core::{MrmError, SecondOrderMrm, SolvePlan};
use somrm_obs::RecorderHandle;
use std::sync::Arc;

/// Cache key of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// π-free FNV-1a content digest of the model
    /// ([`somrm_core::plan_digest`]).
    pub digest: u64,
    /// Highest moment order the plan was built for.
    pub max_order: usize,
}

/// The pinned bucket for degenerate requests: `qt = 0` (a `t = 0`-only
/// request, or a frozen chain with `q = 0`), negative `qt`, and NaN all
/// land here. Pinned as a constant so the degenerate path can never
/// drift into a finite bucket — `log2(0) = -inf` would cast to
/// `i32::MIN` on most targets, but the contract is explicit, not an
/// artifact of float-to-int saturation.
pub const QT_ZERO_BUCKET: i32 = i32::MIN;

/// Buckets `q·t` by binary order of magnitude: all `qt` in `[2ᵏ, 2ᵏ⁺¹)`
/// share bucket `k`. Anything not strictly positive (including `-0.0`
/// and NaN) gets the dedicated [`QT_ZERO_BUCKET`]. Not part of the plan
/// key (a plan serves every horizon); workload generators use it to
/// spread horizons over orders of magnitude.
pub fn qt_bucket(qt: f64) -> i32 {
    if qt > 0.0 {
        // log2 of a positive finite f64 lies well inside i32.
        qt.log2().floor() as i32
    } else {
        QT_ZERO_BUCKET
    }
}

/// Hit/miss/eviction counts since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Exact plan bytes released by those evictions
    /// ([`somrm_core::SolvePlan::footprint_bytes`] of each victim).
    pub evict_bytes: u64,
    /// Key matches whose resident plan was built for a *different*
    /// model — a 64-bit digest collision, counted within `misses`.
    pub collisions: u64,
}

struct Entry {
    key: PlanKey,
    plan: Arc<SolvePlan>,
    /// Exact owned bytes of the plan's solver state, frozen at insert
    /// (plans are immutable once built).
    bytes: u64,
    last_used: u64,
}

/// An LRU map from [`PlanKey`] to a shared [`SolvePlan`].
///
/// Linear scan over at most `capacity` entries — plan caches are small
/// (each entry holds a matrix and possibly a worker pool), so a vector
/// beats hash-map bookkeeping and keeps eviction order trivial to audit.
///
/// Eviction is LRU under **two** ceilings: the entry-count `capacity`
/// and an optional byte budget ([`PlanCache::with_budget`]) measured
/// against each plan's exact [`somrm_core::SolvePlan::footprint_bytes`].
/// The most-recently-inserted plan is never evicted, so a single plan
/// larger than the whole budget still serves (the budget bounds what the
/// cache *retains*, not what the server may build).
pub struct PlanCache {
    capacity: usize,
    byte_budget: Option<u64>,
    entries: Vec<Entry>,
    resident_bytes: u64,
    tick: u64,
    recorder: RecorderHandle,
    stats: CacheStats,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (clamped to at
    /// least 1), with no byte budget. Counter deltas go to `recorder`
    /// as `serve.plan.hit`, `serve.plan.miss`, `serve.plan.evict`, and
    /// `serve.plan.evict_bytes`; resident bytes as the
    /// `mem.cache.resident` gauge.
    pub fn new(capacity: usize, recorder: RecorderHandle) -> Self {
        Self::with_budget(capacity, None, recorder)
    }

    /// Like [`PlanCache::new`], additionally bounding the summed plan
    /// footprints by `byte_budget` (the `--cache-bytes` serve flag).
    pub fn with_budget(
        capacity: usize,
        byte_budget: Option<u64>,
        recorder: RecorderHandle,
    ) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            byte_budget,
            entries: Vec::new(),
            resident_bytes: 0,
            tick: 0,
            recorder,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The byte budget, if one was set.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// Summed exact footprints of the resident plans.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Counters accumulated since creation.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// `true` when the cache exceeds either ceiling and still holds a
    /// candidate besides the protected (most recent) entry.
    fn over_budget(&self) -> bool {
        if self.entries.len() <= 1 {
            return false;
        }
        self.entries.len() > self.capacity
            || self
                .byte_budget
                .is_some_and(|b| self.resident_bytes > b)
    }

    /// Evicts LRU entries until both ceilings hold (always keeping the
    /// newest entry), then republishes the resident-bytes gauge.
    fn enforce_budget(&mut self) {
        while self.over_budget() {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("over_budget implies at least two entries");
            let victim = self.entries.swap_remove(lru);
            self.resident_bytes -= victim.bytes;
            self.stats.evictions += 1;
            self.stats.evict_bytes += victim.bytes;
            self.recorder.counter_add("serve.plan.evict", 1);
            self.recorder
                .counter_add("serve.plan.evict_bytes", victim.bytes);
        }
        self.recorder
            .gauge_set("mem.cache.resident", self.resident_bytes as f64);
    }

    /// Returns the plan under `key`, building (and caching) it with
    /// `build` on a miss. The boolean is `true` on a hit.
    ///
    /// The 64-bit digest in `key` is index material, not proof of
    /// identity: on a key match the resident plan's generator, drifts
    /// and variances are compared against `model`'s (its `π` may differ
    /// — a plan serves every `π`), and a mismatch (a digest collision) is
    /// treated as a miss — counted under `serve.plan.digest_collision`
    /// and [`CacheStats::collisions`] — with the fresh plan replacing
    /// the colliding entry in place (no eviction of bystanders).
    ///
    /// A failed build caches nothing and counts as a miss.
    ///
    /// # Errors
    ///
    /// Propagates the error of `build`.
    pub fn get_or_build(
        &mut self,
        key: PlanKey,
        model: &SecondOrderMrm,
        build: impl FnOnce() -> Result<SolvePlan, MrmError>,
    ) -> Result<(Arc<SolvePlan>, bool), MrmError> {
        self.tick += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            if self.entries[idx].plan.model().same_plan_inputs(model) {
                let e = &mut self.entries[idx];
                e.last_used = self.tick;
                self.stats.hits += 1;
                self.recorder.counter_add("serve.plan.hit", 1);
                return Ok((Arc::clone(&e.plan), true));
            }
            // Same digest, different generator or rewards. Serving the
            // resident plan would silently answer for the wrong model;
            // rebuild and take over the slot.
            self.stats.misses += 1;
            self.stats.collisions += 1;
            self.recorder.counter_add("serve.plan.miss", 1);
            self.recorder.counter_add("serve.plan.digest_collision", 1);
            let plan = Arc::new(build()?);
            let bytes = plan.footprint_bytes() as u64;
            let e = &mut self.entries[idx];
            self.resident_bytes = self.resident_bytes - e.bytes + bytes;
            e.plan = Arc::clone(&plan);
            e.bytes = bytes;
            e.last_used = self.tick;
            // The replacement may be bigger than the collided plan; the
            // byte budget still holds afterwards.
            self.enforce_budget();
            return Ok((plan, false));
        }
        self.stats.misses += 1;
        self.recorder.counter_add("serve.plan.miss", 1);
        let plan = Arc::new(build()?);
        let bytes = plan.footprint_bytes() as u64;
        self.resident_bytes += bytes;
        self.entries.push(Entry {
            key,
            plan: Arc::clone(&plan),
            bytes,
            last_used: self.tick,
        });
        self.enforce_budget();
        Ok((plan, false))
    }

    /// `true` if a plan is cached under `key` (no LRU touch).
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.entries.iter().any(|e| e.key == *key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::SolverConfig;
    use somrm_core::{plan_digest, SecondOrderMrm, SolvePlan};
    use somrm_ctmc::generator::GeneratorBuilder;

    fn model(hi_rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, hi_rate).unwrap();
        SecondOrderMrm::new(
            b.build().unwrap(),
            vec![0.0, 3.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        )
        .unwrap()
    }

    fn key_for(m: &SecondOrderMrm, order: usize) -> PlanKey {
        PlanKey {
            digest: plan_digest(m),
            max_order: order,
        }
    }

    fn build_plan(m: &SecondOrderMrm, order: usize) -> Result<SolvePlan, somrm_core::MrmError> {
        SolvePlan::build(m, order, &SolverConfig::default())
    }

    #[test]
    fn qt_buckets_are_binary_orders_of_magnitude() {
        assert_eq!(qt_bucket(1.0), 0);
        assert_eq!(qt_bucket(1.9), 0);
        assert_eq!(qt_bucket(2.0), 1);
        assert_eq!(qt_bucket(0.5), -1);
        assert_eq!(qt_bucket(1024.0), 10);
        assert_eq!(qt_bucket(0.0), i32::MIN);
        assert_eq!(qt_bucket(-3.0), i32::MIN);
    }

    #[test]
    fn hit_then_miss_then_evict() {
        let m = model(2.0);
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());

        let (p1, hit) = cache
            .get_or_build(key_for(&m, 2), &m, || build_plan(&m, 2))
            .unwrap();
        assert!(!hit);
        let (p2, hit) = cache
            .get_or_build(key_for(&m, 2), &m, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2), "hit returns the same plan");

        // Two more keys overflow capacity 2; the LRU entry is the one
        // *not* touched since: the order-3 key, inserted second, never
        // reused.
        cache
            .get_or_build(key_for(&m, 3), &m, || build_plan(&m, 3))
            .unwrap();
        cache
            .get_or_build(key_for(&m, 2), &m, || panic!("still cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m, 4), &m, || build_plan(&m, 4))
            .unwrap();
        assert!(cache.contains(&key_for(&m, 2)), "recently used survives");
        assert!(!cache.contains(&key_for(&m, 3)), "LRU entry evicted");
        let plan_bytes = build_plan(&m, 2).unwrap().footprint_bytes() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 3,
                evictions: 1,
                evict_bytes: plan_bytes,
                collisions: 0
            }
        );
        assert_eq!(cache.resident_bytes(), 2 * plan_bytes);
    }

    #[test]
    fn mutated_model_changes_digest_and_misses() {
        let m1 = model(2.0);
        let m2 = model(2.0 + 1e-12);
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        cache
            .get_or_build(key_for(&m1, 2), &m1, || build_plan(&m1, 2))
            .unwrap();
        let (_, hit) = cache
            .get_or_build(key_for(&m2, 2), &m2, || build_plan(&m2, 2))
            .unwrap();
        assert!(!hit, "a 1-ulp rate change must not reuse the stale plan");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn failed_build_caches_nothing() {
        let m = model(2.0);
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        let key = key_for(&m, 2);
        assert!(cache
            .get_or_build(key, &m, || SolvePlan::build(&m, 2, &bad))
            .is_err());
        assert!(!cache.contains(&key));
        let (_, hit) = cache.get_or_build(key, &m, || build_plan(&m, 2)).unwrap();
        assert!(!hit, "the failed build left no entry behind");
    }

    #[test]
    fn eviction_order_is_by_last_use_across_interleaved_digests() {
        // Two digests interleaving lookups: eviction must follow the
        // global last-used order, not per-digest insertion order.
        let ma = model(2.0);
        let mb = model(5.0);
        let mut cache = PlanCache::new(3, RecorderHandle::disabled());
        let a1 = key_for(&ma, 2);
        let b1 = key_for(&mb, 2);
        let a2 = key_for(&ma, 3);
        let b2 = key_for(&mb, 3);

        cache.get_or_build(a1, &ma, || build_plan(&ma, 2)).unwrap(); // tick 1
        cache.get_or_build(b1, &mb, || build_plan(&mb, 2)).unwrap(); // tick 2
        cache.get_or_build(a2, &ma, || build_plan(&ma, 2)).unwrap(); // tick 3
        // Touch a1 (oldest) so b1 becomes LRU despite a1 being the
        // earliest insert.
        cache.get_or_build(a1, &ma, || panic!("cached")).unwrap(); // tick 4
        cache.get_or_build(b2, &mb, || build_plan(&mb, 2)).unwrap(); // evicts b1
        assert!(cache.contains(&a1), "touched entry survives");
        assert!(cache.contains(&a2));
        assert!(cache.contains(&b2));
        assert!(!cache.contains(&b1), "globally least-recently-used evicted");

        // Next overflow evicts a2 (tick 3 is now the oldest).
        let a3 = key_for(&ma, 4);
        cache.get_or_build(a3, &ma, || build_plan(&ma, 2)).unwrap();
        assert!(!cache.contains(&a2));
        assert!(cache.contains(&a1));
        assert_eq!(cache.len(), 3);
        let pa = build_plan(&ma, 2).unwrap().footprint_bytes() as u64;
        let pb = build_plan(&mb, 2).unwrap().footprint_bytes() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 5,
                evictions: 2,
                evict_bytes: pb + pa, // b1 then a2
                collisions: 0
            }
        );
    }

    #[test]
    fn qt_bucket_boundaries_split_exactly_at_powers_of_two() {
        // Just-below / just-above a power of two land in different
        // buckets; everything inside [2^k, 2^(k+1)) shares one.
        // (log2's rounding may pull values within an ulp of the edge
        // into the upper bucket, so "just below" stays a ppm away —
        // bucket placement, not ulp behavior, is the contract.)
        for k in [-3i32, 0, 1, 10] {
            let edge = (k as f64).exp2();
            assert_eq!(qt_bucket(edge * 0.999_999), k - 1, "just below 2^{k}");
            assert_eq!(qt_bucket(edge), k, "exactly 2^{k}");
            assert_eq!(qt_bucket(edge * 1.000_001), k, "just above 2^{k}");
            assert_eq!(qt_bucket(edge * 1.999), k, "top of the bucket");
        }
        // Tiny positive values still bucket finitely (no i32 overflow).
        assert_eq!(qt_bucket(f64::MIN_POSITIVE), -1022);
        assert_eq!(qt_bucket(5e-324), -1074, "subnormal");
    }

    #[test]
    fn counters_are_exact_over_a_mixed_workload() {
        let m = model(2.0);
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        // Scripted: miss, hit, miss, failed miss, hit, miss+evict.
        let k1 = key_for(&m, 2);
        let k2 = key_for(&m, 3);
        let k3 = key_for(&m, 4);
        cache.get_or_build(k1, &m, || build_plan(&m, 2)).unwrap();
        cache.get_or_build(k1, &m, || panic!("cached")).unwrap();
        cache.get_or_build(k2, &m, || build_plan(&m, 2)).unwrap();
        assert!(cache
            .get_or_build(k3, &m, || SolvePlan::build(&m, 2, &bad))
            .is_err());
        cache.get_or_build(k2, &m, || panic!("cached")).unwrap();
        cache.get_or_build(k3, &m, || build_plan(&m, 2)).unwrap();
        let s = cache.stats();
        assert_eq!(
            s,
            CacheStats {
                hits: 2,
                misses: 4,
                evictions: 1,
                evict_bytes: build_plan(&m, 2).unwrap().footprint_bytes() as u64,
                collisions: 0
            }
        );
        // Reconciliation invariants the serve stats sideband relies on.
        assert_eq!(s.hits + s.misses, 6, "every lookup is a hit or a miss");
        assert!(s.evictions <= s.misses);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn failed_build_never_occupies_or_evicts_a_slot_at_capacity() {
        let m = model(2.0);
        let mut cache = PlanCache::new(2, RecorderHandle::disabled());
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        let k1 = key_for(&m, 2);
        let k2 = key_for(&m, 3);
        cache.get_or_build(k1, &m, || build_plan(&m, 2)).unwrap();
        cache.get_or_build(k2, &m, || build_plan(&m, 2)).unwrap();
        assert_eq!(cache.len(), 2, "at capacity");

        // A failing build at capacity must not evict the residents:
        // eviction happens only once a replacement plan exists.
        let k3 = key_for(&m, 4);
        assert!(cache
            .get_or_build(k3, &m, || SolvePlan::build(&m, 2, &bad))
            .is_err());
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&k1) && cache.contains(&k2), "residents intact");
        assert!(!cache.contains(&k3));
        assert_eq!(cache.stats().evictions, 0);

        // The retry builds, and only then does one eviction happen.
        let (_, hit) = cache.get_or_build(k3, &m, || build_plan(&m, 2)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn counters_reach_the_registry() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let m = model(2.0);
        let mut cache = PlanCache::new(1, RecorderHandle::new(registry.clone()));
        cache
            .get_or_build(key_for(&m, 2), &m, || build_plan(&m, 2))
            .unwrap();
        cache
            .get_or_build(key_for(&m, 2), &m, || panic!("cached"))
            .unwrap();
        cache
            .get_or_build(key_for(&m, 3), &m, || build_plan(&m, 3))
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.hit"), Some(1));
        assert_eq!(snap.counter("serve.plan.miss"), Some(2));
        assert_eq!(snap.counter("serve.plan.evict"), Some(1));
    }

    #[test]
    fn qt_zero_bucket_is_pinned_and_dedicated() {
        // Every non-positive (or non-number) qt lands in the pinned
        // degenerate bucket...
        assert_eq!(qt_bucket(0.0), QT_ZERO_BUCKET);
        assert_eq!(qt_bucket(-0.0), QT_ZERO_BUCKET);
        assert_eq!(qt_bucket(-1.5), QT_ZERO_BUCKET);
        assert_eq!(qt_bucket(f64::NAN), QT_ZERO_BUCKET);
        assert_eq!(qt_bucket(f64::NEG_INFINITY), QT_ZERO_BUCKET);
        // ...which no positive qt can reach, not even the subnormal
        // floor (companion to the subnormal-edge test above).
        assert_ne!(qt_bucket(5e-324), QT_ZERO_BUCKET);
        assert_ne!(qt_bucket(f64::MIN_POSITIVE), QT_ZERO_BUCKET);
    }

    #[test]
    fn initial_distribution_and_horizon_do_not_key_a_plan() {
        // A tenant differing only in π hits the plan another tenant
        // built: the key has no π and no horizon, and the identity check
        // compares generator, drifts and variances only.
        let m = model(2.0);
        let other_pi = m.with_initial(vec![0.25, 0.75]).unwrap();
        assert_eq!(key_for(&m, 2), key_for(&other_pi, 2));
        let mut cache = PlanCache::new(4, RecorderHandle::disabled());
        let (p1, _) = cache
            .get_or_build(key_for(&m, 2), &m, || build_plan(&m, 2))
            .unwrap();
        let (p2, hit) = cache
            .get_or_build(key_for(&other_pi, 2), &other_pi, || {
                panic!("π must not re-key")
            })
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().collisions, 0);
        // The order still keys: a higher-order plan is a separate entry.
        let (_, hit) = cache
            .get_or_build(key_for(&m, 3), &m, || build_plan(&m, 3))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    /// A birth-death chain with `n` states, so plans of very different
    /// footprints can share one cache.
    fn chain_model(n: usize, rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, rate).unwrap();
            b.rate(i + 1, i, 2.0 * rate).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rates: Vec<f64> = (0..n).map(|i| i as f64).collect();
        SecondOrderMrm::new(b.build().unwrap(), rates, vec![0.1; n], init).unwrap()
    }

    #[test]
    fn byte_budget_evicts_lru_and_accounts_evict_bytes_under_mixed_sizes() {
        use somrm_obs::MetricsRegistry;
        let registry = Arc::new(MetricsRegistry::new());
        let small = model(2.0);
        let big = chain_model(64, 1.5);
        let small_bytes = build_plan(&small, 2).unwrap().footprint_bytes() as u64;
        let big_bytes = build_plan(&big, 2).unwrap().footprint_bytes() as u64;
        assert!(big_bytes > 4 * small_bytes, "sizes must genuinely differ");
        // Room for the big plan plus one small one — not two.
        let budget = big_bytes + small_bytes + small_bytes / 2;
        let mut cache =
            PlanCache::with_budget(8, Some(budget), RecorderHandle::new(registry.clone()));

        let s1 = key_for(&small, 2);
        let kb = key_for(&big, 2);
        let s2 = key_for(&small, 4);
        cache.get_or_build(s1, &small, || build_plan(&small, 2)).unwrap();
        cache.get_or_build(kb, &big, || build_plan(&big, 2)).unwrap();
        assert_eq!(cache.resident_bytes(), small_bytes + big_bytes);
        assert_eq!(cache.stats().evictions, 0, "within budget so far");

        // A third plan crosses the byte budget though the entry count
        // (8) is nowhere near: the LRU small plan goes.
        cache.get_or_build(s2, &small, || build_plan(&small, 2)).unwrap();
        assert!(!cache.contains(&s1), "LRU victim under byte pressure");
        assert!(cache.contains(&kb));
        assert_eq!(cache.resident_bytes(), big_bytes + small_bytes);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().evict_bytes, small_bytes);

        // Touch the big plan, then insert another big one: now the
        // cache must shed both LRU entries to get back under budget.
        cache.get_or_build(kb, &big, || panic!("cached")).unwrap();
        let big2 = chain_model(64, 2.5);
        let kb2 = key_for(&big2, 2);
        cache.get_or_build(kb2, &big2, || build_plan(&big2, 2)).unwrap();
        assert!(cache.contains(&kb2), "newest entry is never evicted");
        assert!(
            cache.resident_bytes() <= budget,
            "{} > budget {budget}",
            cache.resident_bytes()
        );
        let s = cache.stats();
        assert_eq!(s.evictions, 3, "s2 and kb both evicted for kb2");
        assert_eq!(s.evict_bytes, 2 * small_bytes + big_bytes);

        // The registry mirrors both: the counter and the live gauge.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.evict_bytes"), Some(s.evict_bytes));
        assert_eq!(
            snap.gauge("mem.cache.resident"),
            Some(cache.resident_bytes() as f64)
        );
    }

    #[test]
    fn a_single_plan_larger_than_the_budget_is_still_retained() {
        let big = chain_model(32, 1.0);
        let mut cache = PlanCache::with_budget(4, Some(1), RecorderHandle::disabled());
        let kb = key_for(&big, 2);
        cache.get_or_build(kb, &big, || build_plan(&big, 2)).unwrap();
        assert_eq!(cache.len(), 1, "the newest plan always stays");
        assert_eq!(cache.stats().evictions, 0);
        // The next insert displaces it — the budget holds again.
        let small = model(2.0);
        let ks = key_for(&small, 2);
        cache.get_or_build(ks, &small, || build_plan(&small, 2)).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&ks));
        assert!(!cache.contains(&kb));
        assert_eq!(
            cache.stats().evict_bytes,
            build_plan(&big, 2).unwrap().footprint_bytes() as u64
        );
    }

    #[test]
    fn digest_collision_is_detected_and_rebuilt_in_place() {
        use somrm_obs::MetricsRegistry;
        // Simulate a 64-bit digest collision: two different models
        // presented under the same key — exactly what the server would
        // do if FNV-1a collided.
        let registry = Arc::new(MetricsRegistry::new());
        let m1 = model(2.0);
        let m2 = model(5.0);
        let mut cache = PlanCache::new(2, RecorderHandle::new(registry.clone()));
        let key = key_for(&m1, 2);
        let (p1, _) = cache.get_or_build(key, &m1, || build_plan(&m1, 2)).unwrap();
        let (p2, hit) = cache.get_or_build(key, &m2, || build_plan(&m2, 2)).unwrap();
        assert!(!hit, "a colliding key must never serve the wrong model's plan");
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(p2.model(), &m2, "the rebuilt plan answers for the new model");
        assert_eq!(cache.len(), 1, "replacement happens in place");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 2, "the collision is counted as a miss");
        assert_eq!(s.evictions, 0, "no bystander eviction");

        // The slot now answers for m2.
        let (_, hit) = cache.get_or_build(key, &m2, || panic!("cached")).unwrap();
        assert!(hit);

        // A failed rebuild on a later collision keeps the resident.
        let bad = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        assert!(cache
            .get_or_build(key, &m1, || SolvePlan::build(&m1, 2, &bad))
            .is_err());
        let (_, hit) = cache
            .get_or_build(key, &m2, || panic!("resident intact"))
            .unwrap();
        assert!(hit);
        assert_eq!(cache.stats().collisions, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.plan.digest_collision"), Some(2));
    }
}
