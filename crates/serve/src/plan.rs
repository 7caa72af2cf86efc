//! The warm-plan cache: compile → simtlint → flat-bytecode lowering once,
//! share the result via `Arc` across every subsequent launch.
//!
//! This is the service's headline amortization (the serving-side analogue
//! of the paper's runtime doing its setup once per kernel): a cold submit
//! pays the full builder + lint fixpoint + lowering + verifier pipeline,
//! a warm submit pays a read-lock and an `Arc` clone. The cache is
//! **content-addressed** on [`PlanKey`] — kernel identity, target arch,
//! argument count, lint configuration — and stores nothing derived from
//! input data, so it is a pure memoization: evicting and rebuilding any
//! entry mid-stream must (and, per the differential test, does) reproduce
//! bit-identical launches. Because the arch is part of the key, one cache
//! serves a heterogeneous fleet: an a100 worker and an mi100 worker
//! requesting the same kernel fill two independent entries whose lowered
//! bytecode differs (warp width, sequential-simd legalization).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use omp_codegen::{CompiledKernel, FlatProgram};

use crate::spec::PlanKey;

/// A fully prepared plan: the compiled kernel plus its flat-bytecode
/// lowering for the keyed launch geometry, ready to launch with no
/// per-submit compile work.
pub struct WarmPlan {
    /// Compiled kernel (plan + registry + config + analysis).
    pub kernel: Arc<CompiledKernel>,
    /// Flat-bytecode program lowered for the keyed arch and `nargs`.
    pub flat: Arc<FlatProgram>,
    /// Content fingerprint of the compiled kernel
    /// ([`CompiledKernel::plan_hash`]); folded into every job report so
    /// the stress digests also prove cold and warm builds agree.
    pub plan_hash: u64,
}

/// Build a plan from scratch — the cold path, and the cache's fill
/// function. The target architecture comes from the key itself
/// (`key.arch`). Runs the simtlint gate when `key.lint` is set; a lint
/// error is a panic, not a job failure: every kernel the service can name
/// is in-tree and lint-clean (legalization remarks are fine), so a
/// rejection here is a build bug.
pub fn build_warm_plan(key: &PlanKey) -> WarmPlan {
    let arch = key.arch.arch();
    let kernel = key.kernel.build();
    if key.lint {
        let report = kernel.lint(&arch, key.nargs);
        if report.has_errors() {
            panic!(
                "simtlint rejected a service kernel {:?} on {}:\n{}",
                key.kernel,
                key.arch,
                report.render("serve")
            );
        }
    }
    let flat = kernel.flat_program(&arch, key.nargs);
    let plan_hash = kernel.plan_hash();
    WarmPlan { kernel: Arc::new(kernel), flat, plan_hash }
}

/// Read-mostly plan cache: one `RwLock<HashMap>`, so warm launches from
/// every service worker share the read lock. Fills happen outside the
/// lock and first-writer-wins, so concurrent cold misses converge on one
/// shared `Arc`.
pub struct PlanCache {
    plans: RwLock<HashMap<PlanKey, Arc<WarmPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look the key up; on a miss, build (outside the lock) and publish.
    pub fn get_or_build(&self, key: &PlanKey) -> Arc<WarmPlan> {
        if let Some(plan) = self.plans.read().unwrap().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        let plan = Arc::new(build_warm_plan(key));
        let mut plans = self.plans.write().unwrap();
        // A lookup that lost a concurrent cold fill adopts the published
        // plan and counts as a hit, so `misses` stays one per key.
        let counter = if plans.contains_key(key) { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(plans.entry(*key).or_insert(plan))
    }

    /// Drop one entry; returns whether it was present. Subsequent lookups
    /// rebuild it — by construction bit-identically.
    pub fn evict(&self, key: &PlanKey) -> bool {
        self.plans.write().unwrap().remove(key).is_some()
    }

    /// Drop every entry (the mid-stream eviction the differential test
    /// exercises, and a memory valve for long-lived services).
    pub fn evict_all(&self) {
        self.plans.write().unwrap().clear();
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        self.plans.read().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered with an already-published plan, including the
    /// losers of a concurrent cold fill.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Plans published: one per key between evictions, however many
    /// workers raced to build it — so `hits + misses` is the lookup count
    /// and both are independent of worker timing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlanKernel, NARGS};
    use gpu_sim::ArchId;

    fn key(simdlen: u32) -> PlanKey {
        key_on(simdlen, ArchId::A100)
    }

    fn key_on(simdlen: u32, arch: ArchId) -> PlanKey {
        PlanKey {
            kernel: PlanKernel::Ideal { teams: 1, threads: 64, simdlen },
            arch,
            nargs: NARGS,
            lint: true,
        }
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(&key(8));
        let b = cache.get_or_build(&key(8));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_coexist() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(&key(8));
        let b = cache.get_or_build(&key(16));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        // Both stay resident: re-lookups are hits.
        cache.get_or_build(&key(8));
        cache.get_or_build(&key(16));
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn backends_fill_independent_entries() {
        // One cache, two archs: same kernel, two warm plans whose lowered
        // bytecode differs (warp width + legalization) but whose plan hash
        // — a pure function of the plan tree — agrees.
        let cache = PlanCache::new();
        let nv = cache.get_or_build(&key_on(8, ArchId::A100));
        let amd = cache.get_or_build(&key_on(8, ArchId::Mi100));
        assert!(!Arc::ptr_eq(&nv, &amd));
        assert_eq!(cache.len(), 2);
        assert_eq!(nv.plan_hash, amd.plan_hash);
    }

    #[test]
    fn evict_rebuilds_identically() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(&key(8));
        assert!(cache.evict(&key(8)));
        assert!(!cache.evict(&key(8)));
        let b = cache.get_or_build(&key(8));
        assert!(!Arc::ptr_eq(&a, &b), "evicted entry must be rebuilt");
        assert_eq!(a.plan_hash, b.plan_hash, "rebuild must produce the identical plan");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_warm_lookups_share_one_plan() {
        let cache = Arc::new(PlanCache::new());
        let first = cache.get_or_build(&key(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_build(&key(8)))
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert!(Arc::ptr_eq(&first, &got));
        }
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn concurrent_cold_misses_publish_once() {
        // Eight workers racing on a cold key may all build, but only one
        // plan is published; the losers adopt it and count as hits.
        let cache = Arc::new(PlanCache::new());
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, start) = (Arc::clone(&cache), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_build(&key(8))
                })
            })
            .collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        assert_eq!((cache.hits(), cache.misses()), (7, 1));
    }
}
