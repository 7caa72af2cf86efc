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
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpu_sim::{ArchId, LaunchStats, ResourceCycles};
use omp_host::sync::{Condvar, Mutex};
use omp_host::{DeviceBusy, TimelineStats};

use crate::dispatch::execute_unit;
use crate::plan::PlanCache;
use crate::queue::{job_id, Admission, Unit};
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
    /// Block-execution threads for scratch devices (`None` = the host's
    /// available parallelism).
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
    outcomes: Mutex<Outcomes>,
    cache: PlanCache,
    steals: AtomicU64,
    /// Signalled under the admission lock by a worker that finds the
    /// service [`Shared::quiescent`]; [`LaunchService::quiesce`] parks on it.
    quiesced_cv: Condvar,
    /// Units moved from admission to the deques / units fully executed —
    /// equal iff nothing is in flight (quiescence detection).
    drained_units: AtomicU64,
    completed_units: AtomicU64,
}

impl Shared {
    /// Admission holds no unit and every drained unit has executed (so the
    /// deques are empty too). `adm` is the held admission lock, under
    /// which `drained_units` moves.
    fn quiescent(&self, adm: &Admission) -> bool {
        adm.is_drained()
            && self.drained_units.load(Ordering::Acquire)
                == self.completed_units.load(Ordering::Acquire)
    }
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
    /// The launch's stats: one allocation shared by every member of a
    /// batch.
    pub stats: Arc<LaunchStats>,
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
    /// interleavings — the stress suite's oracle. A batch's members hold
    /// one shared stats value and have consecutive job ids, so each
    /// launch's stats are rendered once and reused across its run.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        let mut last: Option<&Arc<LaunchStats>> = None;
        let mut text = String::new();
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
            if !last.is_some_and(|s| Arc::ptr_eq(s, &j.stats)) {
                text.clear();
                write!(text, "{:?}", j.stats).expect("formatting into a String cannot fail");
                last = Some(&j.stats);
            }
            eat(text.as_bytes());
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
        let mut adm = self.shared.admission.lock();
        let id = adm.submit(self.tenant, spec)?;
        let wake = adm.submit_left_drainable();
        drop(adm);
        // One new unit needs one worker; the worker that drains it wakes
        // the rest if the round released more.
        if wake {
            self.shared.work_cv.notify_one();
        }
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
            quiesced_cv: Condvar::new(),
            outcomes: Mutex::new(Outcomes::default()),
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
    /// micro batches are sealed, then the caller parks until admission is
    /// drained and no unit is in flight. The service stays open — benches
    /// use this to time the service phase without the shutdown fold. Must
    /// not be called on a paused fleet with queued work (it could never
    /// drain).
    pub fn quiesce(&self) {
        let mut adm = self.shared.admission.lock();
        adm.seal_all_open();
        self.shared.work_cv.notify_all();
        while !self.shared.quiescent(&adm) {
            self.shared.quiesced_cv.wait(&mut adm);
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
        self.shared.admission.lock().close();
        self.shared.work_cv.notify_all();
        for w in self.workers {
            w.join().expect("service worker panicked");
        }
        fold(&self.shared)
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
    let mut local = Outcomes::default();
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
            local.record(&unit, stats, plan.plan_hash, max_abs_err, worker, stolen);
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
        // The worker that ran the last in-flight unit gets here next, so a
        // parked `quiesce` always hears of it.
        if shared.quiescent(&adm) {
            shared.quiesced_cv.notify_all();
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
    shared.outcomes.lock().merge(local);
}

/// What the workers hand the fold, per executed unit: what the replays
/// read, and what its jobs' reports share. A worker records a unit right
/// after executing it and drops the unit there, so the serial fold neither
/// reads nor frees a [`Unit`].
#[derive(Default)]
struct Outcomes {
    slots: Vec<Slot>,
    units: Vec<UnitOutcome>,
}

impl Outcomes {
    fn record(
        &mut self,
        unit: &Unit,
        stats: LaunchStats,
        plan_hash: u64,
        max_abs_err: Option<f64>,
        executed_by: u32,
        stolen: bool,
    ) {
        self.slots.push(Slot {
            device: unit.device,
            arrival_vt: unit.arrival_vt,
            cycles: stats.cycles,
        });
        self.units.push(UnitOutcome {
            tenant: unit.tenant,
            first_seq: unit.first_seq,
            count: unit.count,
            drain_seq: unit.drain_seq,
            stats: Arc::new(stats),
            plan_hash,
            max_abs_err,
            executed_by,
            stolen,
        });
    }

    /// Append another worker's outcomes. The first worker's buffers are
    /// taken over, not copied.
    fn merge(&mut self, mut other: Outcomes) {
        if self.units.is_empty() {
            *self = other;
            return;
        }
        self.slots.append(&mut other.slots);
        self.units.append(&mut other.units);
    }
}

/// One executed unit, as its jobs' reports and the replay orders need it.
/// Its replay inputs are the [`Slot`] at the same index.
struct UnitOutcome {
    /// The unit's jobs: `tenant`'s seqs `first_seq..first_seq + count`.
    /// Their first id is the canonical order's tie-break.
    tenant: u32,
    first_seq: u32,
    count: u32,
    /// Drain stamp: the dispatch-order replay's order.
    drain_seq: u64,
    /// The launch's stats, shared by every job's report.
    stats: Arc<LaunchStats>,
    plan_hash: u64,
    max_abs_err: Option<f64>,
    executed_by: u32,
    stolen: bool,
}

/// The deterministic fold of a stopped fleet: the canonical replay (per
/// device, in arrival order), the dispatch-order replay (in drain order),
/// then per-job reports in job-id order. The sorts move compact keys that
/// end in a unit index.
fn fold(shared: &Shared) -> ServiceReport {
    let Outcomes { slots, units } = std::mem::take(&mut *shared.outcomes.lock());
    let devices = shared.cfg.devices;

    // Canonical replay: per device, serve units in (arrival, first-job-id)
    // order — a pure function of what was submitted. A job id orders as
    // its (tenant, seq) pair.
    let mut canonical: Vec<(u32, u64, u32, u32, u32)> = slots
        .iter()
        .zip(&units)
        .enumerate()
        .map(|(i, (s, u))| (s.device, s.arrival_vt, u.tenant, u.first_seq, i as u32))
        .collect();
    canonical.sort_unstable();
    let times = replay(&slots, canonical.iter().map(|k| k.4 as usize), devices);
    let timeline = timeline_stats(&slots, &times, devices);

    // Dispatch-order replay: serve units in drain order (what DRR and the
    // deques actually decided). Scheduling-dependent beyond one worker.
    let mut drained: Vec<(u64, u32)> =
        units.iter().enumerate().map(|(i, u)| (u.drain_seq, i as u32)).collect();
    drained.sort_unstable();
    let dtimes = replay(&slots, drained.iter().map(|k| k.1 as usize), devices);

    // Units cover disjoint runs of consecutive ids, so expanding them in
    // first-job order builds each report once, in job-id order. Arrivals
    // come from the admission log.
    let mut by_id: Vec<(u32, u32, u32)> =
        units.iter().enumerate().map(|(i, u)| (u.tenant, u.first_seq, i as u32)).collect();
    by_id.sort_unstable();
    let adm = shared.admission.lock();
    let mut jobs = Vec::with_capacity(units.iter().map(|u| u.count as usize).sum());
    for &(tenant, first_seq, i) in &by_id {
        let i = i as usize;
        let u = &units[i];
        let arrivals = &adm.arrivals(tenant)[first_seq as usize..][..u.count as usize];
        jobs.extend((first_seq..).zip(arrivals).map(|(seq, &arrival_vt)| JobReport {
            job_id: job_id(tenant, seq),
            tenant,
            device: slots[i].device,
            arrival_vt,
            batch_size: u.count,
            batch_index: seq - first_seq,
            plan_hash: u.plan_hash,
            stats: Arc::clone(&u.stats),
            max_abs_err: u.max_abs_err,
            start_vt: times[i].0,
            finish_vt: times[i].1,
            disp_start_vt: dtimes[i].0,
            disp_finish_vt: dtimes[i].1,
            executed_by: u.executed_by,
            stolen: u.stolen,
        }));
    }
    ServiceReport {
        jobs,
        timeline,
        plan_hits: shared.cache.hits(),
        plan_misses: shared.cache.misses(),
        launches: units.len() as u64,
        rejected: adm.rejected(),
        steals: shared.steals.load(Ordering::Relaxed),
    }
}

/// What the replays read of one unit: its device queue, its release time
/// and its launch's cycles.
#[derive(Clone, Copy)]
struct Slot {
    device: u32,
    arrival_vt: u64,
    cycles: u64,
}

/// Replay the units in `order` with each fleet device as one in-order
/// queue: a unit starts once it has arrived and its device has finished
/// the unit before it. Returns `(start, finish)` per slot index.
fn replay(slots: &[Slot], order: impl IntoIterator<Item = usize>, devices: u32) -> Vec<(u64, u64)> {
    let mut ready = vec![0u64; devices as usize];
    let mut times = vec![(0, 0); slots.len()];
    for i in order {
        let slot = slots[i];
        let ready = &mut ready[slot.device as usize];
        let start = (*ready).max(slot.arrival_vt);
        *ready = start + slot.cycles;
        times[i] = (start, *ready);
    }
    times
}

/// The fleet aggregate of a replay. Every device is one queue on one
/// compute resource with no dependence edges, so the critical path is the
/// busiest device's total.
fn timeline_stats(slots: &[Slot], times: &[(u64, u64)], devices: u32) -> TimelineStats {
    let mut per_device: Vec<DeviceBusy> =
        (0..devices).map(|device| DeviceBusy { device, busy: ResourceCycles::default() }).collect();
    for slot in slots {
        per_device[slot.device as usize].busy.compute += slot.cycles;
    }
    let serialized: u64 = per_device.iter().map(|d| d.busy.compute).sum();
    let makespan = times.iter().map(|&(_, finish)| finish).max().unwrap_or(0);
    TimelineStats {
        makespan,
        serialized,
        critical_path: per_device.iter().map(|d| d.busy.compute).max().unwrap_or(0),
        overlap_ratio: if serialized > 0 { 1.0 - makespan as f64 / serialized as f64 } else { 0.0 },
        ops: slots.len() as u64,
        per_device,
        ..TimelineStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(device: u32, arrival_vt: u64, cycles: u64) -> Slot {
        Slot { device, arrival_vt, cycles }
    }

    #[test]
    fn replay_queues_per_device_and_honors_arrivals() {
        let slots = [
            slot(0, 0, 100),  // runs at once
            slot(0, 500, 50), // device idle from 100: waits for its arrival
            slot(0, 510, 40), // queues behind the previous unit
            slot(1, 10, 40),  // another device: no contention
        ];
        let times = replay(&slots, [0, 1, 2, 3], 3);
        assert_eq!(times, [(0, 100), (500, 550), (550, 590), (10, 50)]);
        // Order decides who waits on a device.
        let swapped = replay(&slots, [2, 1, 0, 3], 3);
        assert_eq!(swapped[..3], [(600, 700), (550, 600), (510, 550)]);

        let st = timeline_stats(&slots, &times, 3);
        assert_eq!((st.makespan, st.serialized, st.critical_path, st.ops), (590, 230, 190, 4));
        let compute: Vec<u64> = st.per_device.iter().map(|d| d.busy.compute).collect();
        assert_eq!(compute, [190, 40, 0], "an idle device is still reported");
    }

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
