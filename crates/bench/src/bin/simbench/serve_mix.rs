//! `serve-mix`: the launch service under seeded multi-tenant traffic.
//!
//! One round is [`SESSIONS`] sessions, each with its own schedule drawn
//! from the seed. A session runs a fleet of an a100 and an mi100 device,
//! `min(2, nproc)` workers on one simulator thread each, default
//! `batch_max` and quantum. It starts paused, the main thread submits the
//! whole schedule, then the session resumes and shuts down. Virtual
//! latencies are pooled over the round's sessions.
//! Arrivals follow an open-loop virtual schedule: each tenant draws
//! exponential inter-arrival gaps at a fixed rate, whatever the fleet
//! does. Admission, coalescing, plan-cache hits, scratch-device set-up,
//! tiny launches and the fold dominate here and nowhere else; the mi100
//! device keeps its legalized plans in the cache beside the a100 ones.
//!
//! The traced pass adds what a live session cannot show from outside: a
//! serial replay of the first session's schedule through
//! `queue::Admission`, `PlanCache::get_or_build` and
//! `dispatch::execute_unit`, which splits the sessions' run into admit,
//! plan and exec, and a one-worker session whose `shutdown()` is timed
//! after `quiesce()` to measure the fold.

use std::time::Instant;

use gpu_sim::ArchId;
use omp_kernels::plangen::SimRng;
use omp_serve::dispatch::execute_unit;
use omp_serve::queue::Admission;
use omp_serve::{JobKind, JobSpec, LaunchService, PlanCache, ServiceConfig, ServiceReport};

use crate::pins;
use crate::trace::Layer;
use crate::work::{Ctx, Workload};

/// Tenant names, in registration order. A tenant's home device is its
/// index modulo the fleet size (the service's default sharding), so the
/// two micro-heavy tenants share the a100 and the two ideal tenants the
/// mi100, which keeps both devices about equally busy.
const TENANTS: [&str; 4] = ["micro-a", "ideal-single", "micro-b", "ideal-heavy"];
/// Fleet backends: one a100 and one mi100.
const FLEET: [ArchId; 2] = [ArchId::A100, ArchId::Mi100];
/// Mean virtual inter-arrival gaps, cycles: of each micro-heavy tenant and
/// of the single-block ideal tenant; the heavy tenant arrives at a tenth
/// of the ideal tenant's rate. Chosen once so that both devices' canonical
/// timelines are about 70% busy.
const MICRO_GAP: f64 = 4_400.0;
const IDEAL_GAP: f64 = 8_400.0;
/// Share of jobs pinned to a random device instead of the tenant's home.
const AFFINITY_ONE_IN: u64 = 4;
/// Sessions per round. One session's p99 latency moves about 1% from seed
/// to seed; pooling several sessions narrows that.
const SESSIONS: usize = 8;

/// One scheduled submission.
#[derive(Clone, Copy, Debug)]
struct Submission {
    tenant: usize,
    spec: JobSpec,
}

/// The serve-mix workload.
pub struct ServeMix {
    seed: u64,
    smoke: bool,
    jobs: usize,
    sessions: usize,
}

/// What tenant `t` submits as its `n`-th job.
fn job(t: usize, n: usize, rng: &mut SimRng) -> JobKind {
    let ideal = |threads, simdlen, outer, rng: &mut SimRng| JobKind::Ideal {
        teams: if t == 3 { 8 } else { 1 },
        threads,
        simdlen,
        outer,
        seed: rng.next_u64(),
    };
    match t {
        // Micro-heavy: 90% coalescable panels in same-shape runs.
        0 | 2 if rng.range_u64(0, 10) < 9 => JobKind::Micro { rows: 1 + (n / 64) % 2, inner: 4 },
        0 | 2 => {
            let outer = rng.range_usize(1, 3);
            ideal(64, 8, outer, rng)
        }
        // Single-block ideal at a drawn group size.
        1 => {
            let simdlen = *rng.pick(&[8, 16, 32]);
            let outer = rng.range_usize(1, 5);
            ideal(64, simdlen, outer, rng)
        }
        // Heavy multi-block ideal.
        _ => ideal(128, 8, 64, rng),
    }
}

/// The seeded open-loop schedule, in submission (= arrival) order.
fn schedule(seed: u64, jobs: usize) -> Vec<Submission> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mean = |t: usize| [MICRO_GAP, IDEAL_GAP, MICRO_GAP, 10.0 * IDEAL_GAP][t];
    let gap = |t: usize, rng: &mut SimRng| (-rng.range_f64(1e-12, 1.0).ln() * mean(t)) as u64;
    let mut next: Vec<u64> = (0..TENANTS.len()).map(|t| gap(t, &mut rng)).collect();
    let mut count = [0usize; TENANTS.len()];
    let mut out = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let t = (0..TENANTS.len()).min_by_key(|&t| (next[t], t)).expect("tenants exist");
        let kind = job(t, count[t], &mut rng);
        let affinity =
            (rng.range_u64(0, AFFINITY_ONE_IN) == 0).then(|| rng.range_u32(0, FLEET.len() as u32));
        out.push(Submission { tenant: t, spec: JobSpec { kind, arrival_vt: next[t], affinity } });
        count[t] += 1;
        next[t] += gap(t, &mut rng);
    }
    out
}

impl ServeMix {
    /// Sessions of `jobs` submissions drawn from `seed`.
    pub fn new(seed: u64, smoke: bool) -> ServeMix {
        let (jobs, sessions) = if smoke { (400, 2) } else { (100_000, SESSIONS) };
        ServeMix { seed, smoke, jobs, sessions }
    }

    /// The seed of each session's schedule, drawn from the run's seed.
    fn session_seeds(&self) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        (0..self.sessions).map(|_| rng.next_u64()).collect()
    }

    fn config(&self, workers: usize) -> ServiceConfig {
        ServiceConfig {
            device_archs: FLEET.to_vec(),
            devices: FLEET.len() as u32,
            workers,
            // The whole schedule is queued before the fleet resumes.
            tenant_queue_cap: self.jobs,
            verify: true,
            sim_threads: Some(1),
            start_paused: true,
            ..ServiceConfig::default()
        }
    }

    /// One live session: set-up, then submit everything, resume and shut
    /// down (timed). Traced, each submit and the run get spans.
    fn live(&self, ctx: &mut Ctx<'_>, schedule: &[Submission]) -> (ServiceReport, u64) {
        let tr = ctx.tr;
        let cfg = self.config(ctx.sim_threads);
        let (svc, clients) = ctx.setup(|| {
            let svc = LaunchService::start(cfg);
            let clients: Vec<_> = TENANTS.iter().map(|n| svc.client(n)).collect();
            (svc, clients)
        });
        ctx.timed(|| {
            let mut refused = 0;
            for (i, s) in schedule.iter().enumerate() {
                let r = tr.span(Layer::ServeSubmit, i as u32, || clients[s.tenant].submit(&s.spec));
                refused += r.is_err() as u64;
            }
            let run = tr.open(Layer::ServeRun, 0);
            svc.resume();
            let report = svc.shutdown();
            tr.close(run);
            (report, refused)
        })
    }

    /// The serial replay behind the traced split of `run`: the same
    /// schedule through admission, the plan cache and unit execution on
    /// the calling thread. Returns its wall, seconds.
    fn replay(&self, ctx: &mut Ctx<'_>, schedule: &[Submission]) -> f64 {
        let tr = ctx.tr;
        let cfg = self.config(1);
        let t = Instant::now();
        let mut adm = Admission::new(
            FLEET.to_vec(),
            cfg.lint,
            cfg.tenant_queue_cap,
            cfg.batch_max,
            cfg.drr_quantum,
        );
        for name in TENANTS {
            adm.register(name);
        }
        for (i, s) in schedule.iter().enumerate() {
            let r = tr.span(Layer::ServeAdmit, i as u32, || adm.submit(s.tenant as u32, &s.spec));
            r.expect("the replay's queues hold the whole schedule");
        }
        adm.close();
        let cache = PlanCache::new();
        let mut units = Vec::new();
        let mut op = 0;
        while tr.span(Layer::ServeAdmit, op, || adm.drain_round(&mut units)) > 0 {
            for unit in units.drain(..) {
                op += 1;
                let plan = tr.span(Layer::ServePlan, op, || cache.get_or_build(&unit.key));
                tr.span(Layer::ServeExec, op, || {
                    execute_unit(&unit, &plan, cfg.sim_threads, cfg.verify)
                });
            }
        }
        t.elapsed().as_secs_f64()
    }

    /// A one-worker session whose `shutdown()` is timed after `quiesce()`:
    /// the fold alone. The waiting main thread and the worker are the only
    /// runnable threads.
    fn fold(&self, ctx: &mut Ctx<'_>, schedule: &[Submission]) {
        let svc = LaunchService::start(self.config(1));
        let clients: Vec<_> = TENANTS.iter().map(|n| svc.client(n)).collect();
        for s in schedule {
            clients[s.tenant].submit(&s.spec).expect("the queues hold the whole schedule");
        }
        svc.resume();
        svc.quiesce();
        ctx.tr.span(Layer::ServeFold, 0, || svc.shutdown());
    }
}

impl Workload for ServeMix {
    fn name(&self) -> &'static str {
        "serve-mix"
    }

    fn nominal_round_s(&self) -> f64 {
        7.0
    }

    fn header(&self) -> Vec<(String, f64)> {
        vec![
            ("sessions".into(), self.sessions as f64),
            ("jobs_per_session".into(), self.jobs as f64),
            ("tenants".into(), TENANTS.len() as f64),
            ("devices".into(), FLEET.len() as f64),
            ("micro_gap_cycles".into(), MICRO_GAP),
            ("ideal_gap_cycles".into(), IDEAL_GAP),
        ]
    }

    fn round(&self, ctx: &mut Ctx<'_>) {
        // Totals over the round's sessions, for the ratios reported below.
        let (mut jobs, mut launches, mut steals, mut rejected) = (0, 0, 0, 0);
        let (mut hits, mut lookups) = (0, 0);
        let (mut busy, mut makespan) = ([0; FLEET.len()], 0);
        for (k, seed) in self.session_seeds().into_iter().enumerate() {
            // The tenants' inputs: the seeded schedule of job specs.
            let schedule = ctx.setup(|| schedule(seed, self.jobs));
            let (report, refused) = self.live(ctx, &schedule);
            let n = schedule.len() as u64;
            let cycles =
                report.jobs.iter().filter(|j| j.batch_index == 0).map(|j| j.stats.cycles).sum();
            ctx.record_service(n, report.launches, cycles, report.latencies(None));
            ctx.fold_digest(&report.digest().to_le_bytes());
            let wrong =
                report.jobs.iter().filter(|j| !j.max_abs_err.is_some_and(|e| e == 0.0)).count();
            let missing = n.saturating_sub(report.jobs.len() as u64);
            let rej = report.rejected;
            ctx.check(refused == 0 && rej == 0, refused.max(rej).max(1), || {
                format!("serve-mix: {refused} submissions refused, {rej} rejected")
            });
            ctx.check(wrong == 0 && missing == 0, (wrong as u64 + missing).max(1), || {
                format!("serve-mix: {wrong} jobs differ from their reference, {missing} missing")
            });
            jobs += report.jobs.len() as u64;
            launches += report.launches;
            steals += report.steals;
            rejected += report.rejected;
            hits += report.plan_hits;
            lookups += report.plan_hits + report.plan_misses;
            makespan += report.timeline.makespan;
            for (b, d) in busy.iter_mut().zip(&report.timeline.per_device) {
                *b += d.busy.compute;
            }
            drop(report);
            if ctx.tr.enabled() && k == 0 {
                let replay_s = self.replay(ctx, &schedule);
                ctx.extra("replay_s", replay_s);
                self.fold(ctx, &schedule);
            }
            // Each session's memory peak is its own.
            ctx.rss_part();
        }
        let per_launch = |x: u64| x as f64 / launches.max(1) as f64;
        ctx.extra("plan_hit_ratio", hits as f64 / lookups.max(1) as f64);
        ctx.extra("jobs_per_launch", per_launch(jobs));
        ctx.extra("steal_ratio", per_launch(steals));
        ctx.extra("rejected", rejected as f64);
        for (b, name) in busy.iter().zip(["a100_load", "mi100_load"]) {
            ctx.extra(name, *b as f64 / makespan.max(1) as f64);
        }
    }

    fn pinned_digest(&self) -> Option<u64> {
        pins::digest(self.name(), self.seed, self.smoke)
    }

    fn sim_threads(&self, _budget: usize) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_ordered_and_mixed() {
        let a = schedule(7, 2_000);
        let b = schedule(7, 2_000);
        let c = schedule(8, 2_000);
        let key = |s: &[Submission]| -> Vec<(usize, u64)> {
            s.iter().map(|x| (x.tenant, x.spec.arrival_vt)).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert!(a.windows(2).all(|w| w[0].spec.arrival_vt <= w[1].spec.arrival_vt));
        let per_tenant = |t| a.iter().filter(|s| s.tenant == t).count();
        // The heavy tenant arrives at a tenth of the others' rate.
        assert!(per_tenant(3) * 5 < per_tenant(1), "{} vs {}", per_tenant(3), per_tenant(1));
        let micro = a.iter().filter(|s| matches!(s.spec.kind, JobKind::Micro { .. })).count();
        assert!(micro > a.len() / 2);
        let pinned = a.iter().filter(|s| s.spec.affinity.is_some()).count();
        assert!(pinned > a.len() / 8 && pinned < a.len() * 3 / 8);
    }
}
