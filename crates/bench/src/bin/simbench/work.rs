//! What every workload shares: the launch path (plain or traced), the
//! per-round accounting, and the loop that repeats rounds.
//!
//! A workload is a fixed *round* of work. One run repeats identical rounds
//! a fixed number of times, [`round_count`]: `--seconds` over the
//! workload's nominal round time, a constant. The count never depends on
//! how fast the measured code is, so two commits compared at one
//! `--seconds` do the same work. Each round pays its own set-up, so
//! `setup_s` is a median over several set-ups. The timed phase is a
//! sequence of ops (launches, or whole service sessions) that is the same
//! in every round, and rates are computed from each op's fastest time over
//! the run's rounds: contention from other work on the host only ever
//! slows an op down, and it comes in phases longer than a round.
//! Deterministic outputs (cycles, digests, virtual latencies) come from
//! the first round, and every later round must reproduce its digest.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gpu_sim::{Device, LaunchStats, Slot};
use omp_codegen::{run_flat_block, CompiledKernel, FlatProgram};
use omp_core::exec::run_target_block;
use omp_kernels::harness::max_abs_err;
use omp_kernels::laplace3d::Laplace3dWorkload;
use omp_kernels::stencil2d::Stencil2dWorkload;

use crate::stats::{median, peak_rss_mb, reset_peak_rss, Fnv};
use crate::trace::{Layer, LayerTotals, Span, Tracer};

/// A compiled kernel plus the flat program the traced pass lowers for it
/// on first use (untraced launches use the kernel's own cache).
pub struct Kern {
    /// The kernel.
    pub k: CompiledKernel,
    flat: OnceLock<Arc<FlatProgram>>,
}

impl Kern {
    /// Wrap a freshly built kernel.
    pub fn new(k: CompiledKernel) -> Kern {
        Kern { k, flat: OnceLock::new() }
    }
}

/// Launch `kern` the way `CompiledKernel::run` does. Untraced, that is
/// the call itself. Traced, the same public steps run one by one, each in
/// its own span: `lint`, then `FlatProgram::lower` and `verify` on first
/// use, then `Device::launch` with every block wrapped in a span. A
/// sanitized device takes the tree walker (`run_target_block`), as
/// `CompiledKernel::launch` does.
pub fn launch(tr: &Tracer, kern: &Kern, dev: &mut Device, args: &[Slot]) -> LaunchStats {
    if !tr.enabled() {
        return kern.k.run(dev, args);
    }
    let k = &kern.k;
    let op = tr.next_op();
    let report = tr.span(Layer::CodegenLint, op, || k.lint(&dev.arch, args.len()));
    assert!(!report.has_errors(), "simtlint rejected the launch:\n{}", report.render("kernel"));
    let lcfg = k.config.launch_config(&dev.arch);
    if dev.sanitizer_enabled() {
        let span = tr.open(Layer::SimLaunch, op);
        let stats = dev.launch(&lcfg, |tc| {
            tr.child(Layer::CoreExecBlock, op, span, || {
                run_target_block(tc, &k.config, &k.plan, &k.registry, args)
            })
        });
        tr.close(span);
        return stats.expect("kernel launch failed");
    }
    let arch = &dev.arch;
    let prog = kern.flat.get_or_init(|| {
        let prog = tr.span(Layer::CodegenLower, op, || {
            FlatProgram::lower(&k.plan, &k.registry, &k.config, arch, args.len())
        });
        let verdict = tr.span(Layer::CodegenVerify, op, || {
            prog.verify(&k.plan, &k.registry, &k.config, arch, args.len())
        });
        if let Err(e) = verdict {
            panic!("flat-bytecode verifier rejected the lowering: {e}");
        }
        Arc::new(prog)
    });
    let span = tr.open(Layer::SimLaunch, op);
    let stats = dev.launch(&lcfg, |tc| {
        tr.child(Layer::CodegenExecBlock, op, span, || {
            run_flat_block(tc, &k.config, prog, &k.registry, args)
        })
    });
    tr.close(span);
    stats.expect("kernel launch failed")
}

/// Whether `got` matches the host reference to within rounding.
pub fn close(got: &[f64], want: &[f64]) -> bool {
    let scale = want.iter().fold(1.0f64, |m, w| m.max(w.abs()));
    got.len() == want.len() && max_abs_err(got, want) <= 1e-9 * scale
}

/// Host reference of `sweeps` Jacobi sweeps of laplace3d on an `n³` grid.
pub fn laplace_sweeps(n: usize, sweeps: usize) -> Vec<f64> {
    let mut u = Laplace3dWorkload::generate(n).u;
    for _ in 0..sweeps {
        u = Laplace3dWorkload { n, u }.reference();
    }
    u
}

/// Host reference of `sweeps` Jacobi sweeps of stencil2d on an `nx × ny`
/// grid.
pub fn stencil_sweeps((nx, ny): (usize, usize), sweeps: usize) -> Vec<f64> {
    let mut u = Stencil2dWorkload::generate(nx, ny).u;
    for _ in 0..sweeps {
        u = Stencil2dWorkload { nx, ny, u }.reference();
    }
    u
}

/// Per-round accounting a workload fills in.
pub struct Ctx<'t> {
    /// The round's tracer (off in the untraced pass).
    pub tr: &'t Tracer,
    /// Simulator threads the multi-threaded legs use (`min(2, nproc)`).
    pub sim_threads: usize,
    setup: Duration,
    ops: Vec<Duration>,
    cycles: u64,
    launches: u64,
    jobs: u64,
    vt: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Fnv,
    fallbacks: u64,
    extras: Vec<(&'static str, f64)>,
    rss: Vec<f64>,
}

impl<'t> Ctx<'t> {
    /// Fresh accounting for one round.
    pub fn new(tr: &'t Tracer, sim_threads: usize) -> Ctx<'t> {
        Ctx {
            tr,
            sim_threads,
            setup: Duration::ZERO,
            ops: Vec::new(),
            cycles: 0,
            launches: 0,
            jobs: 0,
            vt: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: Fnv::default(),
            fallbacks: 0,
            extras: Vec::new(),
            rss: Vec::new(),
        }
    }

    /// End a part of the round with its own memory peak: record the peak
    /// resident set since the round's start or the previous part, and
    /// start the next. The round then reports the median part's peak.
    pub fn rss_part(&mut self) {
        self.rss.push(peak_rss_mb());
        reset_peak_rss();
    }

    /// Run `f` as program-side set-up.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.setup += t.elapsed();
        r
    }

    /// Set-up through the kernels crate (input generation, uploads).
    pub fn gen<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let tr = self.tr;
        let op = tr.next_op();
        self.setup(|| tr.span(Layer::KernelsSetup, op, f))
    }

    /// Set-up through a kernel builder.
    pub fn build(&mut self, f: impl FnOnce() -> CompiledKernel) -> Kern {
        let tr = self.tr;
        let op = tr.next_op();
        self.setup(|| Kern::new(tr.span(Layer::CodegenBuild, op, f)))
    }

    /// Set-up through the host runtime's data mapping.
    pub fn map<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let tr = self.tr;
        let op = tr.next_op();
        self.setup(|| tr.span(Layer::HostMap, op, f))
    }

    /// Run `f` as the next op of the timed phase.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ops.push(t.elapsed());
        r
    }

    /// One timed launch, recorded as one attempted op.
    pub fn launch(&mut self, kern: &Kern, dev: &mut Device, args: &[Slot]) -> LaunchStats {
        let tr = self.tr;
        let stats = self.timed(|| launch(tr, kern, dev, args));
        self.record(&stats);
        stats
    }

    /// Account a launch that ran: cycles, latency sample, digest, and
    /// counters. It is one attempted op and fails if it reported
    /// sanitizer violations.
    pub fn record(&mut self, s: &LaunchStats) {
        self.record_expecting(s, &[]);
    }

    /// [`Ctx::record`] for a launch that must report exactly `expected`
    /// violations (their `Display` renderings, in order).
    pub fn record_expecting(&mut self, s: &LaunchStats, expected: &[&str]) {
        self.cycles += s.cycles;
        self.launches += 1;
        self.jobs += 1;
        self.vt.push(s.cycles);
        self.fallbacks += s.counters.sharing_global_fallbacks;
        self.digest.eat(format!("{s:?}").as_bytes());
        self.attempted += 1;
        let got: Vec<String> = s.violations.iter().map(ToString::to_string).collect();
        if got != expected {
            let why = format!("launch reported {:?}, expected {expected:?}", got);
            self.fail(why, 1);
        }
    }

    /// Account service work: jobs, launches, simulated cycles and
    /// per-job latencies, all as attempted ops.
    pub fn record_service(&mut self, jobs: u64, launches: u64, cycles: u64, vt: Vec<u64>) {
        self.jobs += jobs;
        self.launches += launches;
        self.cycles += cycles;
        self.attempted += jobs;
        self.vt.extend(vt);
    }

    /// Ops checked outside a launch (a standalone correctness check).
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Mark `ops` already-attempted ops as failed, with a reason.
    pub fn fail(&mut self, why: impl Into<String>, ops: u64) {
        self.failed += ops;
        self.failures.push(why.into());
    }

    /// Mark `ops` failed unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why(), ops);
        }
    }

    /// Fold extra deterministic bytes into the round digest.
    pub fn fold_digest(&mut self, bytes: &[u8]) {
        self.digest.eat(bytes);
    }

    /// A workload-specific value (per-layer extras, paper error, ...).
    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.push((name, value));
    }

    fn finish(self) -> Round {
        Round {
            setup_s: self.setup.as_secs_f64(),
            op_s: self.ops.iter().map(Duration::as_secs_f64).collect(),
            cycles: self.cycles,
            launches: self.launches,
            jobs: self.jobs,
            vt: self.vt,
            attempted: self.attempted,
            failed: self.failed.min(self.attempted),
            failures: self.failures,
            digest: self.digest.0,
            fallbacks: self.fallbacks,
            extras: self.extras,
            peak_rss_mb: if self.rss.is_empty() { peak_rss_mb() } else { median(&self.rss) },
        }
    }
}

/// Everything one round produced.
#[derive(Clone, Debug)]
pub struct Round {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Seconds of each timed op, in order.
    pub op_s: Vec<f64>,
    /// Simulated cycles of the timed launches.
    pub cycles: u64,
    /// Device launches.
    pub launches: u64,
    /// Jobs (service jobs; one per launch elsewhere).
    pub jobs: u64,
    /// Virtual latency of each op, cycles.
    pub vt: Vec<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Failure reasons.
    pub failures: Vec<String>,
    /// Digest of every `LaunchStats` (or service report) of the round.
    pub digest: u64,
    /// Sharing-space global fallbacks over the round's launches.
    pub fallbacks: u64,
    /// Workload-specific values.
    pub extras: Vec<(&'static str, f64)>,
    /// Peak resident set during the round (or its median part), MiB.
    pub peak_rss_mb: f64,
}

impl Round {
    /// Timed-phase seconds.
    pub fn timed_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    /// Set-up plus timed phase.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.timed_s()
    }

    /// A workload-specific value, if the round set it.
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extras.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// A workload: input generation and host references once per run, then
/// identical rounds.
pub trait Workload {
    /// Name as given to `--workload`.
    fn name(&self) -> &'static str;
    /// Seconds one round took on the 2-core host the sizes were chosen
    /// on. A constant: it fixes the round count for a given `--seconds`.
    fn nominal_round_s(&self) -> f64;
    /// Header rows: sizes and configuration.
    fn header(&self) -> Vec<(String, f64)>;
    /// One round of work.
    fn round(&self, ctx: &mut Ctx<'_>);
    /// Digest the default seed must reproduce, when pinned.
    fn pinned_digest(&self) -> Option<u64>;
    /// Simulator threads each launch runs blocks on, given the budget.
    fn sim_threads(&self, budget: usize) -> usize {
        budget
    }
}

/// The rounds of one pass, plus the spans a traced pass recorded.
pub struct Pass {
    /// Rounds in order.
    pub rounds: Vec<Round>,
    /// Per-layer totals (traced passes only).
    pub layers: LayerTotals,
    /// Every span of the pass (traced passes only).
    pub spans: Vec<Span>,
}

/// Whether the process that started this one has exited since the first
/// call: a child whose parent is gone stops after its current round.
fn orphaned() -> bool {
    static PARENT: OnceLock<u32> = OnceLock::new();
    let now = std::os::unix::process::parent_id();
    *PARENT.get_or_init(|| now) != now
}

/// Rounds a run of `seconds` makes of `w`: `seconds` over its nominal
/// round time, rounded, and at least `min_rounds`.
pub fn round_count(w: &dyn Workload, seconds: f64, min_rounds: usize) -> usize {
    ((seconds / w.nominal_round_s()).round() as usize).max(min_rounds)
}

/// Run `rounds` rounds (always at least one).
pub fn run_pass(w: &dyn Workload, traced: bool, sim_threads: usize, rounds: usize) -> Pass {
    let tr = if traced { Tracer::on() } else { Tracer::off() };
    let n = rounds.max(1);
    let mut rounds = Vec::with_capacity(n);
    orphaned();
    while rounds.len() < n {
        // Each round's peak is its own: how the service's workers happen
        // to split a session moves the high-water mark from round to round.
        reset_peak_rss();
        let mut ctx = Ctx::new(&tr, sim_threads);
        w.round(&mut ctx);
        rounds.push(ctx.finish());
        if orphaned() {
            break;
        }
    }
    let spans = tr.take();
    let mut layers = LayerTotals::default();
    layers.add(&spans);
    Pass { rounds, layers, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_scales_with_the_reference() {
        assert!(close(&[1e6 + 1e-4], &[1e6]));
        assert!(!close(&[1.0 + 1e-6], &[1.0]));
        assert!(!close(&[1.0], &[1.0, 2.0]));
    }
}
