//! Admission control: bounded per-tenant queues, micro-job coalescing,
//! and a deficit-round-robin drain.
//!
//! Submissions land in the submitting tenant's bounded FIFO; a full queue
//! is a typed [`SubmitError::QueueFull`] back to the client — backpressure,
//! not silent loss. Consecutive same-shape [`JobKind::Micro`] submissions
//! accumulate in an **open batch** that seals into one work unit when it
//! reaches `batch_max`, when the tenant submits something that cannot
//! join it, or when the service closes. Sealing is therefore a pure
//! function of each tenant's submission order — never of worker timing —
//! which is what keeps batch composition (and so per-job stats)
//! deterministic under any dispatcher interleaving.
//!
//! Workers drain with **deficit round-robin**: each nonempty tenant earns
//! `quantum` weight-units per round and releases queued units while its
//! deficit covers them, so a tenant flooding the service cannot starve a
//! light tenant — the light tenant's few units always fit its own quantum.
//! The drain order is the order of [`Admission::drain_round`]'s output,
//! and DRR's fairness is tested there, on a unit's position in it
//! (`tests/fairness.rs`); the service's fold never reads it.

use std::collections::VecDeque;

use gpu_sim::ArchId;

use crate::spec::{JobKind, JobSpec, PlanKernel, PlanKey, SubmitError};

/// A sealed, dispatchable work unit: one kernel launch covering `count`
/// consecutive jobs of one tenant. A batch seals as soon as its tenant
/// submits anything that cannot join it, and a refused job takes no id,
/// so a unit's jobs are always the seqs `first_seq..first_seq + count`.
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    /// Home device (affinity sharding).
    pub device: u32,
    /// Owning tenant's lane index.
    pub tenant: u32,
    /// Workload of every job covered: one ideal job, or `count` same-shape
    /// micro panels.
    pub kind: JobKind,
    /// Plan-cache address of the launch.
    pub key: PlanKey,
    /// Per-tenant seq of the first job covered.
    pub first_seq: u32,
    /// Jobs covered.
    pub count: u32,
    /// Latest job arrival — the unit cannot start before every job
    /// exists, so this is its release constraint on the fleet timeline.
    pub arrival_vt: u64,
}

impl Unit {
    /// DRR weight: summed job work estimate.
    pub fn weight(&self) -> u64 {
        self.kind.weight() * self.count as u64
    }
}

/// Pack a job id: `tenant << 32 | per-tenant seq`.
pub(crate) fn job_id(tenant: u32, seq: u32) -> u64 {
    ((tenant as u64) << 32) | seq as u64
}

struct Tenant {
    /// Arrival time of every admitted job, indexed by seq: a job's seq is
    /// the log's length when it is admitted.
    arrivals: Vec<u64>,
    queue: VecDeque<Unit>,
    /// Jobs currently admitted (queued units + open batch jobs) — what
    /// the capacity bound counts.
    queued_jobs: usize,
    /// The not-yet-sealed micro batch; sealing sets its key's batch size.
    open: Option<Unit>,
    deficit: u64,
}

/// Shared admission state, held under the service's one admission lock.
pub struct Admission {
    tenants: Vec<Tenant>,
    /// Architecture of each fleet device (`archs.len()` = device count).
    /// Plan keys are minted per home device, so a heterogeneous fleet
    /// content-addresses one warm plan per backend.
    archs: Vec<ArchId>,
    lint: bool,
    tenant_queue_cap: usize,
    batch_max: usize,
    drr_quantum: u64,
    cursor: usize,
    closed: bool,
    paused: bool,
    rejected: u64,
    /// What [`Admission::submit_left_drainable`] reports.
    submit_drainable: bool,
}

impl Admission {
    /// Fresh admission state for a fleet with one [`ArchId`] per device.
    pub fn new(
        archs: Vec<ArchId>,
        lint: bool,
        tenant_queue_cap: usize,
        batch_max: usize,
        drr_quantum: u64,
    ) -> Admission {
        assert!(!archs.is_empty(), "a fleet needs at least one device");
        assert!(tenant_queue_cap >= 1, "queue capacity must admit at least one job");
        assert!(batch_max >= 1, "batch_max must be at least 1");
        assert!(drr_quantum >= 1, "a zero quantum would never release work");
        Admission {
            tenants: Vec::new(),
            archs,
            lint,
            tenant_queue_cap,
            batch_max,
            drr_quantum,
            cursor: 0,
            closed: false,
            paused: false,
            rejected: 0,
            submit_drainable: false,
        }
    }

    fn devices(&self) -> u32 {
        self.archs.len() as u32
    }

    /// Pause or resume draining. While paused, submissions queue normally
    /// but [`Admission::drain_round`] releases nothing — tests use this to
    /// build a complete backlog before the fleet starts, making the drain
    /// order a pure function of the queues (no race against submission).
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Register a tenant; the returned lane index is its identity and the
    /// high half of all its job ids (registration order = lane order, so
    /// reruns with the same registration program get the same lanes). The
    /// name is the caller's label only: admission keeps no copy of it.
    pub fn register(&mut self, _name: &str) -> u32 {
        let lane = self.tenants.len() as u32;
        self.tenants.push(Tenant {
            arrivals: Vec::new(),
            queue: VecDeque::new(),
            queued_jobs: 0,
            open: None,
            deficit: 0,
        });
        lane
    }

    /// Jobs rejected for backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Whether [`Admission::close`] has run.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Whether the latest [`Admission::submit`] left work that
    /// [`Admission::drain_round`] could release at once: the fleet was not
    /// paused and the submit put a unit on a tenant queue (an ideal job, or
    /// a micro batch it sealed). A paused submit, a micro job that only
    /// joined an open batch, and a refused job leave nothing new to drain,
    /// so the service wakes no worker for them.
    pub fn submit_left_drainable(&self) -> bool {
        self.submit_drainable
    }

    /// Whether [`Admission::drain_round`] has a sealed unit to release, in
    /// this round or a later one: draining is not paused and some tenant
    /// queue is nonempty.
    pub(crate) fn has_queued_units(&self) -> bool {
        !self.paused && self.tenants.iter().any(|t| !t.queue.is_empty())
    }

    /// No queued units and no open batches remain.
    pub fn is_drained(&self) -> bool {
        self.tenants.iter().all(|t| t.queue.is_empty() && t.open.is_none())
    }

    /// Virtual arrival times of `tenant`'s admitted jobs, indexed by seq.
    pub fn arrivals(&self, tenant: u32) -> &[u64] {
        &self.tenants[tenant as usize].arrivals
    }

    fn seal_open(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        if let Some(mut unit) = t.open.take() {
            unit.key.kernel = PlanKernel::MicroBatch { k: unit.count as usize };
            t.queue.push_back(unit);
        }
    }

    /// Admit one job for `tenant`. Returns the assigned job id, or why it
    /// was not admitted. A job its home backend cannot run is refused
    /// before it takes a job id, so it leaves no trace in the session.
    pub fn submit(&mut self, tenant: u32, spec: &JobSpec) -> Result<u64, SubmitError> {
        self.submit_drainable = false;
        if self.closed {
            return Err(SubmitError::Closed);
        }
        let device = spec.affinity.unwrap_or(tenant % self.devices()) % self.devices();
        let arch = self.archs[device as usize];
        if !spec.kind.runs_on(arch) {
            return Err(SubmitError::Unsupported { tenant, arch });
        }
        let ti = tenant as usize;
        if self.tenants[ti].queued_jobs >= self.tenant_queue_cap {
            self.rejected += 1;
            return Err(SubmitError::QueueFull { tenant, cap: self.tenant_queue_cap });
        }
        let seq = self.tenants[ti].arrivals.len();
        assert!(seq <= u32::MAX as usize, "tenant {tenant} ran out of job ids");
        let seq = seq as u32;
        self.tenants[ti].arrivals.push(spec.arrival_vt);
        let queued_before = self.tenants[ti].queue.len();
        match &mut self.tenants[ti].open {
            Some(open) if open.kind == spec.kind && open.device == device => {
                open.count += 1;
                open.arrival_vt = open.arrival_vt.max(spec.arrival_vt);
            }
            // Whatever cannot join the open batch seals it first, so
            // per-tenant dispatch order tracks submission order and every
            // unit covers consecutive seqs.
            _ => {
                self.seal_open(ti);
                let kernel = match spec.kind {
                    JobKind::Ideal { teams, threads, simdlen, .. } => {
                        PlanKernel::Ideal { teams, threads, simdlen }
                    }
                    JobKind::Micro { .. } => PlanKernel::MicroBatch { k: 1 },
                };
                let unit = Unit {
                    device,
                    tenant,
                    kind: spec.kind,
                    key: PlanKey { kernel, arch, lint: self.lint },
                    first_seq: seq,
                    count: 1,
                    arrival_vt: spec.arrival_vt,
                };
                match spec.kind {
                    JobKind::Ideal { .. } => self.tenants[ti].queue.push_back(unit),
                    JobKind::Micro { .. } => self.tenants[ti].open = Some(unit),
                }
            }
        }
        if self.tenants[ti].open.as_ref().is_some_and(|o| o.count as usize >= self.batch_max) {
            self.seal_open(ti);
        }
        let t = &mut self.tenants[ti];
        t.queued_jobs += 1;
        self.submit_drainable = !self.paused && t.queue.len() > queued_before;
        Ok(job_id(tenant, seq))
    }

    /// Seal every open micro batch (partial batches become drainable
    /// units). Used by close and by quiescence.
    pub fn seal_all_open(&mut self) {
        for ti in 0..self.tenants.len() {
            self.seal_open(ti);
        }
    }

    /// Stop admitting and seal every open batch so the fleet can run dry.
    /// Also clears any pause — a closed service must be able to drain.
    pub fn close(&mut self) {
        self.closed = true;
        self.paused = false;
        self.seal_all_open();
    }

    /// One deficit-round-robin round: every tenant with queued units earns
    /// one quantum and releases the units its deficit covers, in queue
    /// order. Released units are appended to `out` in drain order; returns
    /// how many were released.
    pub fn drain_round(&mut self, out: &mut Vec<Unit>) -> usize {
        let n = self.tenants.len();
        if n == 0 || self.paused {
            return 0;
        }
        let mut moved = 0;
        let start = self.cursor % n;
        for off in 0..n {
            let ti = (start + off) % n;
            let t = &mut self.tenants[ti];
            if t.queue.is_empty() {
                // Standard DRR: an idle tenant banks no deficit.
                t.deficit = 0;
                continue;
            }
            t.deficit = t.deficit.saturating_add(self.drr_quantum);
            while let Some(front) = t.queue.front() {
                let w = front.weight().max(1);
                if w > t.deficit {
                    break;
                }
                t.deficit -= w;
                let unit = t.queue.pop_front().expect("front just observed");
                t.queued_jobs -= unit.count as usize;
                out.push(unit);
                moved += 1;
            }
            if t.queue.is_empty() {
                t.deficit = 0;
            }
        }
        self.cursor = (start + 1) % n;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro(arrival: u64) -> JobSpec {
        JobSpec { kind: JobKind::Micro { rows: 1, inner: 8 }, arrival_vt: arrival, affinity: None }
    }

    fn ideal(arrival: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::Ideal { teams: 1, threads: 32, simdlen: 8, outer: 1, seed: 1 },
            arrival_vt: arrival,
            affinity: None,
        }
    }

    fn adm() -> Admission {
        Admission::new(vec![ArchId::A100; 2], true, 16, 4, 1_000_000)
    }

    #[test]
    fn ids_pack_lane_and_order() {
        let mut a = adm();
        let t0 = a.register("alpha");
        let t1 = a.register("beta");
        assert_eq!(a.submit(t0, &ideal(0)).unwrap(), 0);
        assert_eq!(a.submit(t1, &ideal(0)).unwrap(), 1 << 32);
        assert_eq!(a.submit(t0, &ideal(0)).unwrap(), 1);
    }

    #[test]
    fn queue_cap_backpressures() {
        let mut a = Admission::new(vec![ArchId::A100], true, 2, 4, 1_000_000);
        let t = a.register("t");
        a.submit(t, &ideal(0)).unwrap();
        a.submit(t, &ideal(1)).unwrap();
        assert_eq!(a.submit(t, &ideal(2)), Err(SubmitError::QueueFull { tenant: t, cap: 2 }));
        assert_eq!(a.rejected(), 1);
        // Draining frees capacity.
        let mut out = Vec::new();
        assert_eq!(a.drain_round(&mut out), 2);
        assert_eq!(a.submit(t, &ideal(3)), Ok(2), "the rejected job took no id");
        assert_eq!(a.arrivals(t), [0, 1, 3], "nor an arrival");
    }

    #[test]
    fn a_unit_covers_consecutive_ids_across_a_refused_job() {
        let mut a = Admission::new(vec![ArchId::A100, ArchId::Mi100], true, 16, 4, 1_000_000);
        let t = a.register("t");
        assert_eq!(a.submit(t, &micro(10)), Ok(0));
        assert_eq!(a.submit(t, &micro(20)), Ok(1));
        // Half a wavefront on the mi100: refused before it takes an id.
        let half_wave = JobSpec { affinity: Some(1), ..ideal(30) };
        assert!(matches!(a.submit(t, &half_wave), Err(SubmitError::Unsupported { .. })));
        assert_eq!(a.submit(t, &micro(40)), Ok(2), "the refused job took no id");
        assert_eq!(a.arrivals(t), [10, 20, 40], "nor an arrival");
        a.close();
        let mut out = Vec::new();
        assert_eq!(a.drain_round(&mut out), 1, "the refused job did not seal the batch");
        let u = out[0];
        assert_eq!((u.tenant, u.first_seq, u.count), (t, 0, 3));
        assert_eq!(u.arrival_vt, 40);
        assert!(matches!(u.key.kernel, PlanKernel::MicroBatch { k: 3 }));
    }

    #[test]
    fn geometry_the_home_backend_cannot_run_is_unsupported() {
        let mut a = Admission::new(vec![ArchId::A100, ArchId::Mi100], true, 16, 4, 1_000_000);
        let t = a.register("t");
        let job = |teams, threads, simdlen, device| JobSpec {
            kind: JobKind::Ideal { teams, threads, simdlen, outer: 1, seed: 1 },
            arrival_vt: 0,
            affinity: Some(device),
        };
        let on = |arch| Err(SubmitError::Unsupported { tenant: t, arch });
        assert_eq!(a.submit(t, &job(1, 32, 8, 1)), on(ArchId::Mi100)); // half a wavefront
        assert_eq!(a.submit(t, &job(0, 64, 8, 1)), on(ArchId::Mi100)); // no teams
        assert_eq!(a.submit(t, &job(1, 0, 8, 0)), on(ArchId::A100));
        assert_eq!(a.submit(t, &job(1, 2048, 8, 0)), on(ArchId::A100)); // above the block limit
        assert_eq!(a.submit(t, &job(1, 64, 0, 0)), on(ArchId::A100));
        assert_eq!(a.submit(t, &job(1, 64, 3, 0)), on(ArchId::A100)); // does not divide 32
        assert_eq!(a.submit(t, &job(1, 64, 64, 0)), on(ArchId::A100)); // wider than a warp
        assert_eq!(a.rejected(), 0, "unsupported jobs are not backpressure");
        // Refused jobs take no id: the tenant's first admitted job is job 0.
        assert_eq!(a.submit(t, &job(1, 32, 8, 0)), Ok(0));
        assert_eq!(a.submit(t, &job(1, 64, 64, 1)), Ok(1));
    }

    #[test]
    fn closed_service_rejects() {
        let mut a = adm();
        let t = a.register("t");
        a.close();
        assert_eq!(a.submit(t, &ideal(0)), Err(SubmitError::Closed));
    }

    #[test]
    fn micro_jobs_coalesce_by_shape_and_submission_order() {
        let mut a = adm();
        let t = a.register("t");
        // 5 same-shape micros with batch_max 4 → one sealed 4-batch, one
        // open single; an ideal submission seals the single before itself.
        for i in 0..5 {
            a.submit(t, &micro(i)).unwrap();
        }
        a.submit(t, &ideal(9)).unwrap();
        let mut out = Vec::new();
        a.drain_round(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!((out[0].first_seq, out[0].count), (0, 4));
        assert!(matches!(out[0].kind, JobKind::Micro { .. }));
        assert_eq!(out[0].arrival_vt, 3, "batch released when its last job arrived");
        assert_eq!((out[1].first_seq, out[1].count), (4, 1));
        assert!(matches!(out[1].kind, JobKind::Micro { .. }));
        assert!(matches!(out[2].kind, JobKind::Ideal { .. }));
        assert_eq!((out[2].first_seq, out[2].count), (5, 1));
        // Batch size is content-addressed into the plan key.
        assert!(matches!(out[0].key.kernel, PlanKernel::MicroBatch { k: 4 }));
        assert!(matches!(out[1].key.kernel, PlanKernel::MicroBatch { k: 1 }));
    }

    #[test]
    fn submits_that_queue_no_unit_on_a_running_fleet_report_nothing_to_drain() {
        let mut a = Admission::new(vec![ArchId::A100, ArchId::Mi100], true, 2, 4, 1_000_000);
        let t = a.register("t");
        // Paused: even an ideal job, which queues a unit, wakes nobody.
        a.set_paused(true);
        a.submit(t, &ideal(0)).unwrap();
        assert!(!a.submit_left_drainable(), "a paused submit leaves nothing drainable");
        a.set_paused(false);
        assert!(!a.submit_left_drainable(), "resuming does not revise the paused submit");
        // A micro job that opens or joins a batch below batch_max.
        a.submit(t, &micro(1)).unwrap();
        assert!(!a.submit_left_drainable(), "an open batch cannot drain");
        // Each refusal follows a submit that did report work, so the flag
        // must be cleared by the refused submit itself.
        a.submit(t, &ideal(2)).unwrap_err();
        assert!(!a.submit_left_drainable(), "a rejected job queues nothing");
        let mut out = Vec::new();
        a.drain_round(&mut out);
        a.submit(t, &ideal(3)).unwrap();
        assert!(a.submit_left_drainable());
        let half_wave = JobSpec { affinity: Some(1), ..ideal(4) };
        assert!(matches!(a.submit(t, &half_wave), Err(SubmitError::Unsupported { .. })));
        assert!(!a.submit_left_drainable(), "an unsupported job queues nothing");
    }

    #[test]
    fn an_ideal_job_or_a_batch_sealed_at_batch_max_is_drainable() {
        let mut a = adm();
        let t = a.register("t");
        for i in 0..3 {
            a.submit(t, &micro(i)).unwrap();
            assert!(!a.submit_left_drainable(), "micro {i} only fills the open batch");
        }
        a.submit(t, &micro(3)).unwrap();
        assert!(a.submit_left_drainable(), "the fourth micro seals the batch at batch_max");
        a.submit(t, &ideal(4)).unwrap();
        assert!(a.submit_left_drainable(), "an ideal job is a unit of its own");
        let mut out = Vec::new();
        assert_eq!(a.drain_round(&mut out), 2, "both reported units drain");
    }

    #[test]
    fn shape_change_seals_the_open_batch() {
        let mut a = adm();
        let t = a.register("t");
        a.submit(t, &micro(0)).unwrap();
        a.submit(
            t,
            &JobSpec { kind: JobKind::Micro { rows: 2, inner: 8 }, arrival_vt: 1, affinity: None },
        )
        .unwrap();
        a.close();
        let mut out = Vec::new();
        a.drain_round(&mut out);
        assert_eq!(out.len(), 2, "different shapes must not share a launch");
    }

    #[test]
    fn drr_interleaves_a_flooded_and_a_light_tenant() {
        // Heavy floods 32 units; light has 2. With quantum = one unit's
        // weight, each round releases one unit per tenant — light's two
        // units are out within the first two rounds.
        let mut a = Admission::new(vec![ArchId::A100], true, 1024, 1, 32);
        let heavy = a.register("heavy");
        let light = a.register("light");
        for i in 0..32 {
            a.submit(heavy, &ideal(i)).unwrap();
        }
        for i in 0..2 {
            a.submit(light, &ideal(i)).unwrap();
        }
        let mut out = Vec::new();
        a.drain_round(&mut out);
        a.drain_round(&mut out);
        let light_done = out.iter().filter(|u| u.tenant == light).count();
        assert_eq!(light_done, 2, "light tenant drains alongside the flood, not after it");
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn affinity_shards_devices() {
        let mut a = adm();
        let t0 = a.register("a");
        let t1 = a.register("b");
        a.submit(t0, &ideal(0)).unwrap();
        a.submit(t1, &ideal(0)).unwrap();
        let pinned = JobSpec { affinity: Some(5), ..ideal(0) };
        a.submit(t0, &pinned).unwrap();
        a.close();
        let mut out = Vec::new();
        while a.drain_round(&mut out) > 0 {}
        let devs: Vec<u32> = out.iter().map(|u| u.device).collect();
        assert!(devs.contains(&0) && devs.contains(&1));
        // Explicit affinity wraps into the fleet range.
        assert!(devs.iter().all(|&d| d < 2));
    }
}
