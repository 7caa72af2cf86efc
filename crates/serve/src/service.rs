//! The launch service: clients, workers, and the deterministic fold.
//!
//! ## Lifecycle
//!
//! [`LaunchService::start`] spawns `workers` OS threads over a fleet of
//! `devices` virtual devices, each running a registered backend (a100
//! unless [`ServiceConfig::device_archs`] names one per device).
//! [`LaunchService::client`]
//! registers a tenant and returns a cloneable submit handle;
//! [`Client::submit`] admits a job (or returns typed backpressure).
//! [`LaunchService::shutdown`] closes admission, lets the fleet run dry,
//! joins the workers, and folds every outcome into a [`ServiceReport`].
//!
//! ## The determinism contract (DESIGN §16)
//!
//! Every [`JobReport`] field — per-job [`gpu_sim::LaunchStats`] and the
//! virtual start/finish times included — is **bit-identical for any worker
//! count and any interleaving**, because every input to it is
//! scheduling-independent: job ids are per-tenant submission ranks, batch
//! composition is sealed at admission in submission order, execution is
//! isolated on scratch devices, and the fleet timeline is *replayed* once
//! at fold time in a canonical order (per device, by `(arrival_vt, first
//! job id)`) rather than recorded in completion order. Which worker runs a
//! unit, and when, is host scheduling only; it cannot move a job between
//! virtual devices or reorder the replay. The only scheduling-dependent
//! output is the fleet-wide counter [`ServiceReport::rejected`], which
//! [`ServiceReport::digest`] leaves out.
//!
//! ## The run queue
//!
//! Workers take units straight from admission, in DRR drain order, under
//! the one lock admission already has: a worker with nothing to run drains
//! rounds into the queue's ready list until one releases a unit, runs the
//! unit outside the lock, and counts it in flight meanwhile. Whatever can
//! make a unit available (a submit, `resume`, `quiesce`, `close`, or a
//! round that released more than one unit) happens under that lock and
//! then notifies, so a worker parks without a timeout.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Backend of each fleet device (registry id), for a **heterogeneous
    /// fleet**. Empty means every device is an a100; otherwise it must
    /// name exactly one backend per device (`len() == devices`). Any
    /// worker may run any device's unit, even when backends differ,
    /// because a unit's execution architecture rides its plan key — never
    /// the worker that happens to run it.
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
    /// until [`LaunchService::resume`], so a bench can queue the whole
    /// backlog before it times the fleet.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
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
    queue: Mutex<RunQueue>,
    /// Signalled when a unit may have become available to take.
    work_cv: Condvar,
    outcomes: Mutex<Outcomes>,
    cache: PlanCache,
    /// Signalled under the queue lock by a worker that finds the queue
    /// [`RunQueue::quiescent`]; [`LaunchService::quiesce`] parks on it.
    quiesced_cv: Condvar,
}

/// Admission and the units drained from it, under the service's one lock.
struct RunQueue {
    adm: Admission,
    /// Units a DRR round released that no worker has taken yet, in drain
    /// order.
    ready: VecDeque<Unit>,
    /// Units taken and not yet recorded.
    in_flight: usize,
}

impl RunQueue {
    /// The next unit to run: the front of `ready`, else the first unit the
    /// next DRR rounds release. A round can release nothing when the front
    /// unit outweighs the quantum, but each round adds a quantum to the
    /// deficit, so rounds run until one does. `None` when no sealed unit
    /// can drain.
    fn next(&mut self) -> Option<Unit> {
        while self.ready.is_empty() && self.adm.has_queued_units() {
            // `ready` is empty: the round fills its buffer, with no copy
            // either way.
            let mut round = Vec::from(std::mem::take(&mut self.ready));
            self.adm.drain_round(&mut round);
            self.ready = round.into();
        }
        self.ready.pop_front()
    }

    /// Admission holds no unit, no drained unit waits, and none runs.
    fn quiescent(&self) -> bool {
        self.adm.is_drained() && self.ready.is_empty() && self.in_flight == 0
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
}

impl JobReport {
    /// Canonical submit-to-complete virtual latency.
    pub fn latency(&self) -> u64 {
        self.finish_vt - self.arrival_vt
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
    /// Always 0: workers take units from one shared queue, so no unit is
    /// stolen. Kept for readers of earlier reports; excluded from the
    /// digest.
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
        let mut q = self.shared.queue.lock();
        let id = q.adm.submit(self.tenant, spec)?;
        let wake = q.adm.submit_left_drainable();
        drop(q);
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
            vec![ArchId::A100; cfg.devices as usize]
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
            queue: Mutex::new(RunQueue { adm: admission, ready: VecDeque::new(), in_flight: 0 }),
            work_cv: Condvar::new(),
            quiesced_cv: Condvar::new(),
            outcomes: Mutex::new(Outcomes::default()),
            cache: PlanCache::new(),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        LaunchService { shared, workers }
    }

    /// Register a tenant and get its submit handle. Lane indices follow
    /// registration order, so a rerun registering the same tenants in the
    /// same order reproduces every job id.
    pub fn client(&self, name: &str) -> Client {
        let tenant = self.shared.queue.lock().adm.register(name);
        Client { shared: Arc::clone(&self.shared), tenant }
    }

    /// Release a paused fleet ([`ServiceConfig::start_paused`]): draining
    /// begins against the complete queued backlog. Idempotent.
    pub fn resume(&self) {
        self.shared.queue.lock().adm.set_paused(false);
        self.shared.work_cv.notify_all();
    }

    /// Block until every job admitted so far has fully executed: open
    /// micro batches are sealed, then the caller parks until admission is
    /// drained and no unit is in flight. The service stays open — benches
    /// use this to time the service phase without the shutdown fold. Must
    /// not be called on a paused fleet with queued work (it could never
    /// drain).
    pub fn quiesce(&self) {
        let mut q = self.shared.queue.lock();
        q.adm.seal_all_open();
        self.shared.work_cv.notify_all();
        while !q.quiescent() {
            self.shared.quiesced_cv.wait(&mut q);
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
        self.shared.queue.lock().adm.close();
        self.shared.work_cv.notify_all();
        for w in self.workers {
            w.join().expect("service worker panicked");
        }
        fold(&self.shared)
    }
}

fn worker_loop(shared: &Shared) {
    let mut local = Outcomes::default();
    let mut q = shared.queue.lock();
    loop {
        let drains = q.ready.is_empty();
        let Some(unit) = q.next() else {
            // The worker that ran the last in-flight unit gets here next,
            // so a parked `quiesce` always hears of it.
            if q.quiescent() {
                shared.quiesced_cv.notify_all();
            }
            // Close seals every open batch and lifts the pause, so a closed
            // queue with no unit to take is empty for good.
            if q.adm.closed() {
                break;
            }
            shared.work_cv.wait(&mut q);
            continue;
        };
        q.in_flight += 1;
        let wake = drains && !q.ready.is_empty();
        drop(q);
        // The round released more units than this worker takes.
        if wake {
            shared.work_cv.notify_all();
        }
        let plan = if shared.cfg.warm_cache {
            shared.cache.get_or_build(&unit.key)
        } else {
            // Cold leg of the ablation: full rebuild per launch.
            Arc::new(crate::plan::build_warm_plan(&unit.key))
        };
        let (stats, max_abs_err) =
            execute_unit(&unit, &plan, shared.cfg.sim_threads, shared.cfg.verify);
        local.record(&unit, stats, plan.plan_hash, max_abs_err);
        q = shared.queue.lock();
        q.in_flight -= 1;
    }
    drop(q);
    shared.outcomes.lock().merge(local);
}

/// What the workers hand the fold, per executed unit: what the replay
/// reads, and what its jobs' reports share. A worker records a unit right
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
            stats: Arc::new(stats),
            plan_hash,
            max_abs_err,
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

/// One executed unit, as its jobs' reports and the replay order need it.
/// Its replay inputs are the [`Slot`] at the same index.
struct UnitOutcome {
    /// The unit's jobs: `tenant`'s seqs `first_seq..first_seq + count`.
    /// Their first id is the canonical order's tie-break.
    tenant: u32,
    first_seq: u32,
    count: u32,
    /// The launch's stats, shared by every job's report.
    stats: Arc<LaunchStats>,
    plan_hash: u64,
    max_abs_err: Option<f64>,
}

/// The deterministic fold of a stopped fleet: the canonical replay (per
/// device, in arrival order), then per-job reports in job-id order. The
/// sorts move compact keys that end in a unit index.
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

    // Units cover disjoint runs of consecutive ids, so expanding them in
    // first-job order builds each report once, in job-id order. Arrivals
    // come from the admission log.
    let mut by_id: Vec<(u32, u32, u32)> =
        units.iter().enumerate().map(|(i, u)| (u.tenant, u.first_seq, i as u32)).collect();
    by_id.sort_unstable();
    let q = shared.queue.lock();
    let adm = &q.adm;
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
        }));
    }
    ServiceReport {
        jobs,
        timeline,
        plan_hits: shared.cache.hits(),
        plan_misses: shared.cache.misses(),
        launches: units.len() as u64,
        rejected: adm.rejected(),
        steals: 0,
    }
}

/// What the replay reads of one unit: its device queue, its release time
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
