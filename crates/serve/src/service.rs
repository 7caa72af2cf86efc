//! The launch service: clients, workers, and the deterministic fold.
//!
//! ## Lifecycle
//!
//! [`LaunchService::start`] spawns `workers` OS threads over a fleet of
//! `devices` virtual devices, each running a registered backend
//! ([`ServiceConfig::arch`], or per-device via
//! [`ServiceConfig::device_archs`]). [`LaunchService::client`]
//! registers a tenant and returns a cloneable submit handle;
//! [`Client::submit`] admits a job (or returns typed backpressure).
//! [`LaunchService::shutdown`] closes admission, lets the fleet run dry,
//! joins the workers, and folds every outcome into a [`ServiceReport`].
//!
//! ## The determinism contract (DESIGN §16)
//!
//! Per-job [`gpu_sim::LaunchStats`] and the virtual start/finish times in
//! [`JobReport`] are **bit-identical for any worker count and any
//! interleaving**, because every input to them is scheduling-independent:
//! job ids are per-tenant submission ranks, batch composition is sealed at
//! admission in submission order, execution is isolated on scratch
//! devices, and the fleet timeline is *replayed* at fold time in a
//! canonical order (per device, by `(arrival_vt, first job id)`) rather
//! than recorded in completion order. Work stealing moves *host* work
//! between OS threads; it cannot move a job between virtual devices or
//! reorder the canonical replay. The only scheduling-dependent outputs —
//! which worker ran a unit, whether it was stolen, the drain stamps and
//! the dispatch-order timeline derived from them — are kept out of
//! [`ServiceReport::digest`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpu_sim::{ArchId, LaunchStats, Resource};
use omp_host::sync::{Condvar, Mutex};
use omp_host::{Timeline, TimelineStats};

use crate::dispatch::{execute_unit, UnitOutcome};
use crate::plan::PlanCache;
use crate::queue::{Admission, Unit};
use crate::spec::{JobSpec, SubmitError};

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Default backend of every fleet device (registry id). Stealing
    /// across devices stays stats-neutral even when backends differ,
    /// because a unit's execution architecture rides its plan key — never
    /// the worker that happens to run it.
    pub arch: ArchId,
    /// Per-device backend override for a **heterogeneous fleet**. Empty
    /// means every device runs `arch`; otherwise it must name exactly one
    /// backend per device (`len() == devices`).
    pub device_archs: Vec<ArchId>,
    /// Virtual devices in the fleet.
    pub devices: u32,
    /// Worker threads executing units.
    pub workers: usize,
    /// Per-tenant admission-queue capacity (jobs).
    pub tenant_queue_cap: usize,
    /// Deficit-round-robin quantum (work units per tenant per round).
    pub drr_quantum: u64,
    /// Micro-batch seal threshold (jobs per coalesced launch).
    pub batch_max: usize,
    /// Warm-plan caching; `false` recompiles per launch (the cold leg of
    /// the amortization ablation).
    pub warm_cache: bool,
    /// Run the simtlint gate when preparing plans.
    pub lint: bool,
    /// Verify every launch against its host reference (tests; costs a
    /// reference computation per unit).
    pub verify: bool,
    /// Block-execution threads for scratch devices (`None` = honor
    /// `SIMT_SIM_THREADS`).
    pub sim_threads: Option<usize>,
    /// Start with draining paused: submissions queue but nothing runs
    /// until [`LaunchService::resume`]. With one worker this makes the
    /// drain order a pure function of the queued backlog (no race against
    /// the submitting thread) — what the fairness test needs to observe
    /// DRR deterministically.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            arch: ArchId::A100,
            device_archs: Vec::new(),
            devices: 2,
            workers: 4,
            tenant_queue_cap: 4096,
            drr_quantum: 4096,
            batch_max: 8,
            warm_cache: true,
            lint: true,
            verify: false,
            sim_threads: None,
            start_paused: false,
        }
    }
}

struct Shared {
    cfg: ServiceConfig,
    admission: Mutex<Admission>,
    work_cv: Condvar,
    deques: Vec<Mutex<VecDeque<Unit>>>,
    outcomes: Mutex<Vec<UnitOutcome>>,
    cache: PlanCache,
    steals: AtomicU64,
    /// Units moved from admission to the deques / units fully executed —
    /// equal iff nothing is in flight (quiescence detection).
    drained_units: AtomicU64,
    completed_units: AtomicU64,
}

/// One job's folded result.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Packed job id (`tenant << 32 | seq`).
    pub job_id: u64,
    /// Owning tenant lane.
    pub tenant: u32,
    /// Home device the job was accounted on.
    pub device: u32,
    /// Virtual arrival time (submitted).
    pub arrival_vt: u64,
    /// Jobs sharing this job's launch (1 = unbatched).
    pub batch_size: u32,
    /// Position within the shared launch.
    pub batch_index: u32,
    /// Fingerprint of the plan that ran ([`omp_codegen::CompiledKernel::plan_hash`]).
    pub plan_hash: u64,
    /// The launch's stats (batch-shared).
    pub stats: LaunchStats,
    /// Max abs error vs host reference, when verification ran.
    pub max_abs_err: Option<f64>,
    /// Canonical virtual start (arrival-ordered per-device replay).
    pub start_vt: u64,
    /// Canonical virtual finish.
    pub finish_vt: u64,
    /// Virtual start under the *dispatch-order* replay (drain order) —
    /// what the fairness test observes. Deterministic only for a single
    /// worker; excluded from [`ServiceReport::digest`].
    pub disp_start_vt: u64,
    /// Virtual finish under the dispatch-order replay.
    pub disp_finish_vt: u64,
    /// Executing worker (diagnostics; excluded from the digest).
    pub executed_by: u32,
    /// Whether the unit was stolen (diagnostics; excluded from the digest).
    pub stolen: bool,
}

impl JobReport {
    /// Canonical queueing delay: cycles between arrival and virtual start.
    pub fn queue_delay(&self) -> u64 {
        self.start_vt - self.arrival_vt
    }

    /// Canonical submit-to-complete virtual latency.
    pub fn latency(&self) -> u64 {
        self.finish_vt - self.arrival_vt
    }

    /// Queueing delay under the dispatch-order replay (fairness metric).
    pub fn dispatch_delay(&self) -> u64 {
        self.disp_start_vt - self.arrival_vt
    }
}

/// Everything the service did, folded deterministically.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-job reports, sorted by job id.
    pub jobs: Vec<JobReport>,
    /// Fleet-timeline aggregate of the canonical replay.
    pub timeline: TimelineStats,
    /// Plan-cache lookups answered with a published plan
    /// ([`crate::PlanCache::hits`]).
    pub plan_hits: u64,
    /// Plans the cache published, one per key between evictions
    /// ([`crate::PlanCache::misses`]).
    pub plan_misses: u64,
    /// Kernel launches performed (units; batches count once).
    pub launches: u64,
    /// Jobs rejected with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Units executed by a worker whose home device differed from the
    /// unit's (scheduling-dependent; excluded from the digest).
    pub steals: u64,
}

impl ServiceReport {
    /// FNV-1a digest over every scheduling-independent per-job field:
    /// id, tenant, device, batch coordinates, plan hash, arrival, the
    /// canonical virtual interval, and the full `Debug` rendering of the
    /// launch stats (every counter, so a single diverging field anywhere
    /// breaks the digest). Bit-identical across worker counts and
    /// interleavings — the stress suite's oracle.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        for j in &self.jobs {
            eat(&j.job_id.to_le_bytes());
            eat(&(j.tenant as u64).to_le_bytes());
            eat(&(j.device as u64).to_le_bytes());
            eat(&(j.batch_size as u64).to_le_bytes());
            eat(&(j.batch_index as u64).to_le_bytes());
            eat(&j.plan_hash.to_le_bytes());
            eat(&j.arrival_vt.to_le_bytes());
            eat(&j.start_vt.to_le_bytes());
            eat(&j.finish_vt.to_le_bytes());
            if let Some(e) = j.max_abs_err {
                eat(&e.to_bits().to_le_bytes());
            }
            eat(format!("{:?}", j.stats).as_bytes());
        }
        h
    }

    /// Sorted canonical latencies, optionally restricted to one tenant.
    pub fn latencies(&self, tenant: Option<u32>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .jobs
            .iter()
            .filter(|j| tenant.is_none_or(|t| j.tenant == t))
            .map(|j| j.latency())
            .collect();
        v.sort_unstable();
        v
    }

    /// Sorted dispatch-order queueing delays for one tenant (fairness).
    pub fn dispatch_delays(&self, tenant: u32) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.jobs.iter().filter(|j| j.tenant == tenant).map(|j| j.dispatch_delay()).collect();
        v.sort_unstable();
        v
    }
}

/// Percentile over an ascending-sorted slice (nearest-rank; `p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Handle for one tenant; cloneable, but per-tenant determinism assumes
/// one submitting thread per tenant (ids are per-tenant submission ranks).
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    tenant: u32,
}

impl Client {
    /// This client's tenant lane.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Submit one job; returns its id, or typed backpressure.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, SubmitError> {
        let id = self.shared.admission.lock().submit(self.tenant, spec)?;
        self.shared.work_cv.notify_all();
        Ok(id)
    }
}

/// The running service.
pub struct LaunchService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl LaunchService {
    /// Start the fleet.
    pub fn start(cfg: ServiceConfig) -> LaunchService {
        assert!(cfg.workers >= 1, "the service needs at least one worker");
        let archs: Vec<ArchId> = if cfg.device_archs.is_empty() {
            vec![cfg.arch; cfg.devices as usize]
        } else {
            assert_eq!(
                cfg.device_archs.len(),
                cfg.devices as usize,
                "device_archs must name exactly one backend per device"
            );
            cfg.device_archs.clone()
        };
        let mut admission =
            Admission::new(archs, cfg.lint, cfg.tenant_queue_cap, cfg.batch_max, cfg.drr_quantum);
        admission.set_paused(cfg.start_paused);
        let shared = Arc::new(Shared {
            deques: (0..cfg.devices).map(|_| Mutex::new(VecDeque::new())).collect(),
            admission: Mutex::new(admission),
            work_cv: Condvar::new(),
            outcomes: Mutex::new(Vec::new()),
            cache: PlanCache::new(),
            steals: AtomicU64::new(0),
            drained_units: AtomicU64::new(0),
            completed_units: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w as u32))
                    .expect("spawn service worker")
            })
            .collect();
        LaunchService { shared, workers }
    }

    /// Register a tenant and get its submit handle. Lane indices follow
    /// registration order, so a rerun registering the same tenants in the
    /// same order reproduces every job id.
    pub fn client(&self, name: &str) -> Client {
        let tenant = self.shared.admission.lock().register(name);
        Client { shared: Arc::clone(&self.shared), tenant }
    }

    /// Release a paused fleet ([`ServiceConfig::start_paused`]): draining
    /// begins against the complete queued backlog. Idempotent.
    pub fn resume(&self) {
        self.shared.admission.lock().set_paused(false);
        self.shared.work_cv.notify_all();
    }

    /// Block until every job admitted so far has fully executed: open
    /// micro batches are sealed, then the call returns once admission is
    /// drained, every deque is empty, and no unit is in flight. The
    /// service stays open — benches use this to time the service phase
    /// without the shutdown fold. Must not be called on a paused fleet
    /// with queued work (it could never drain).
    pub fn quiesce(&self) {
        {
            let mut adm = self.shared.admission.lock();
            adm.seal_all_open();
        }
        self.shared.work_cv.notify_all();
        loop {
            let drained_empty = {
                let adm = self.shared.admission.lock();
                adm.is_drained()
            };
            if drained_empty
                && self.shared.deques.iter().all(|d| d.lock().is_empty())
                && self.shared.drained_units.load(Ordering::Acquire)
                    == self.shared.completed_units.load(Ordering::Acquire)
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Drop every cached plan (they rebuild on demand, bit-identically —
    /// asserted by the plan-cache differential test).
    pub fn flush_plan_cache(&self) {
        self.shared.cache.evict_all();
    }

    /// Cached plans currently resident.
    pub fn cached_plans(&self) -> usize {
        self.shared.cache.len()
    }

    /// Close admission, run the fleet dry, join the workers, and fold.
    pub fn shutdown(self) -> ServiceReport {
        {
            let mut adm = self.shared.admission.lock();
            adm.close();
        }
        self.shared.work_cv.notify_all();
        for w in self.workers {
            w.join().expect("service worker panicked");
        }
        let outcomes = std::mem::take(&mut *self.shared.outcomes.lock());
        let rejected = self.shared.admission.lock().rejected();
        fold(
            outcomes,
            self.shared.cfg.devices,
            self.shared.cache.hits(),
            self.shared.cache.misses(),
            rejected,
            self.shared.steals.load(Ordering::Relaxed),
        )
    }
}

/// Pop from the worker's home deque (front) or steal from another device's
/// deque (back), scanning homes in a fixed ring order.
fn pop_or_steal(shared: &Shared, home: usize) -> Option<(Unit, bool)> {
    if let Some(u) = shared.deques[home].lock().pop_front() {
        return Some((u, false));
    }
    let n = shared.deques.len();
    for off in 1..n {
        if let Some(u) = shared.deques[(home + off) % n].lock().pop_back() {
            return Some((u, true));
        }
    }
    None
}

fn worker_loop(shared: &Shared, worker: u32) {
    let home = worker as usize % shared.deques.len();
    let mut local: Vec<UnitOutcome> = Vec::new();
    let mut drained: Vec<Unit> = Vec::new();
    loop {
        if let Some((unit, stolen)) = pop_or_steal(shared, home) {
            if stolen {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            let plan = if shared.cfg.warm_cache {
                shared.cache.get_or_build(&unit.key)
            } else {
                // Cold leg of the ablation: full rebuild per launch.
                Arc::new(crate::plan::build_warm_plan(&unit.key))
            };
            let (stats, max_abs_err) =
                execute_unit(&unit, &plan, shared.cfg.sim_threads, shared.cfg.verify);
            local.push(UnitOutcome {
                unit,
                stats,
                plan_hash: plan.plan_hash,
                max_abs_err,
                executed_by: worker,
                stolen,
            });
            shared.completed_units.fetch_add(1, Ordering::Release);
            continue;
        }
        let mut adm = shared.admission.lock();
        drained.clear();
        let moved = adm.drain_round(&mut drained);
        if moved > 0 {
            shared.drained_units.fetch_add(moved as u64, Ordering::Release);
            for unit in drained.drain(..) {
                let d = unit.device as usize;
                shared.deques[d].lock().push_back(unit);
            }
            drop(adm);
            shared.work_cv.notify_all();
            continue;
        }
        if adm.closed() {
            if adm.is_drained() {
                break;
            }
            // Closed with queued work the quantum didn't cover yet: keep
            // draining rather than parking.
            continue;
        }
        // Idle: park until a submit/close signal (with a timeout so a
        // missed wakeup can never wedge the fleet).
        shared.work_cv.wait_timeout(&mut adm, Duration::from_millis(1));
    }
    shared.outcomes.lock().append(&mut local);
}

/// The deterministic fold: canonical per-device arrival-order replay on
/// one timeline, dispatch-order replay on a second, then per-job reports
/// sorted by id.
fn fold(
    mut outcomes: Vec<UnitOutcome>,
    devices: u32,
    plan_hits: u64,
    plan_misses: u64,
    rejected: u64,
    steals: u64,
) -> ServiceReport {
    let launches = outcomes.len() as u64;

    // Canonical replay: per device, serve units in (arrival, first-job-id)
    // order — a pure function of what was submitted.
    outcomes.sort_by_key(|o| (o.unit.device, o.unit.arrival_vt, o.unit.members[0].job_id));
    let canonical = Timeline::new();
    let streams: Vec<u32> = (0..devices).map(|d| canonical.register_stream(d)).collect();
    let ops: Vec<usize> = outcomes
        .iter()
        .map(|o| {
            canonical.record_job(
                streams[o.unit.device as usize],
                Resource::Compute,
                o.stats.cycles,
                o.unit.arrival_vt,
            )
        })
        .collect();
    let sched = canonical.scheduled_ops();
    let times: std::collections::HashMap<usize, (u64, u64)> =
        sched.iter().map(|v| (v.id, (v.start, v.finish))).collect();
    let timeline = canonical.stats();

    // Dispatch-order replay: serve units in drain order (what DRR and the
    // deques actually decided). Scheduling-dependent beyond one worker.
    let mut by_drain: Vec<usize> = (0..outcomes.len()).collect();
    by_drain.sort_by_key(|&i| outcomes[i].unit.drain_seq);
    let dispatch = Timeline::new();
    let dstreams: Vec<u32> = (0..devices).map(|d| dispatch.register_stream(d)).collect();
    let mut dop_of_outcome = vec![0usize; outcomes.len()];
    for &i in &by_drain {
        let o = &outcomes[i];
        dop_of_outcome[i] = dispatch.record_job(
            dstreams[o.unit.device as usize],
            Resource::Compute,
            o.stats.cycles,
            o.unit.arrival_vt,
        );
    }
    let dtimes: std::collections::HashMap<usize, (u64, u64)> =
        dispatch.scheduled_ops().iter().map(|v| (v.id, (v.start, v.finish))).collect();

    let mut jobs: Vec<JobReport> = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let (start_vt, finish_vt) = times[&ops[i]];
        let (disp_start_vt, disp_finish_vt) = dtimes[&dop_of_outcome[i]];
        for (bi, m) in o.unit.members.iter().enumerate() {
            jobs.push(JobReport {
                job_id: m.job_id,
                tenant: m.tenant,
                device: o.unit.device,
                arrival_vt: m.arrival_vt,
                batch_size: o.unit.members.len() as u32,
                batch_index: bi as u32,
                plan_hash: o.plan_hash,
                stats: o.stats.clone(),
                max_abs_err: o.max_abs_err,
                start_vt,
                finish_vt,
                disp_start_vt,
                disp_finish_vt,
                executed_by: o.executed_by,
                stolen: o.stolen,
            });
        }
    }
    jobs.sort_by_key(|j| j.job_id);
    ServiceReport { jobs, timeline, plan_hits, plan_misses, launches, rejected, steals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
    }
}
