//! simtlint — static verification and SPMD-ization of target plans.
//!
//! The real runtime can only diagnose a broken target region *while it is
//! executing* (and the paper's runtime mostly cannot even do that — a team
//! main deadlocking on a barrier its workers never reach simply hangs the
//! GPU). This module is the compiler-side counterpart to the simtcheck
//! sanitizer: a walk over the lowered [`TargetPlan`] that proves properties
//! *before launch*, in the spirit of LLVM's OpenMPOpt:
//!
//! * **verification** — illegal worksharing nesting, statically detectable
//!   barrier divergence, sharing-space capacity overflow (whole-plan
//!   generalization of [`crate::analysis::Analysis::staging_report`]),
//!   degenerate zero-trip/zero-chunk schedules, reads of registers the
//!   SIMD main never stages, barriers the target architecture cannot
//!   legalize (`E-ARCH`, paper §5.4.1), and statically provable
//!   shared-memory races over declared footprints (`E-RACE`). Barrier-free
//!   generic simd regions on a barrier-less architecture are *not* errors:
//!   they legalize to sequential leader-lane execution, recorded as an
//!   `R-SEQ-SIMD` remark;
//! * **optimization** — `spmdize` promotes inferred-generic regions to
//!   [`ExecMode::Spmd`] when declared effect footprints prove no sequential
//!   side effects need the state machine, recording each promotion as a
//!   structured [`Promotion`] remark (rendered like `-Rpass` output). A
//!   promoted teams region drops the extra main-thread warp entirely.
//!
//! The walk runs on the [`crate::dataflow`] abstract-interpretation
//! framework: register initialization is the three-valued
//! [`Written`] lattice computed by real reaching-definitions over the loop
//! structure (a write under a may-be-zero trip count only *maybe*
//! reaches), trip counts and induction variables carry [`Interval`]s, and
//! regions under a provably zero-trip loop are unreachable — value-
//! dependent diagnostics inside them are suppressed.
//!
//! Outlined bodies are opaque closures, so the analysis consumes the
//! *declared* [`Footprint`]s from the [`Registry`]; simtcheck validates the
//! declarations at runtime (`Violation::FootprintViolation`) — static
//! claims are checked, not trusted.
//!
//! ## The static race detector (E-RACE)
//!
//! Footprints may declare the absolute sharing-space slots a function
//! writes/reads ([`Footprint::writes_smem`]/[`Footprint::reads_smem`]).
//! The detector runs a symbolic happens-before over those declarations,
//! the execution mode's redundancy, and the warp/group geometry:
//!
//! * **concurrent redundant writers** — an op whose declared slot set is
//!   written by provably ≥ 2 unordered executors races with itself.
//!   Executor counts come from the mode (SPMD: every thread of the
//!   region; generic: one SIMD main per group for sequential ops, every
//!   group lane for simd bodies) with `min(trip, group_size)` lanes per
//!   group actually executing a simd body — interval arithmetic, so a
//!   may-be-small trip count never produces a false positive;
//! * **unordered write→read chains** — in SPMD mode nothing orders one
//!   op's writes before the next op's reads (the mode has no staging
//!   syncs), so a declared read of a previously written slot is flagged.
//!   In generic mode the staging protocol's warp syncs order a group
//!   main's writes before its own group's reads, and multi-main redundant
//!   writes are already caught by the first rule, so chains are not
//!   re-flagged.
//!
//! Every E-RACE predicts a `Violation::SharedMemRace` simtcheck reports on
//! the same slot when the plan runs sanitized (test-enforced, like the
//! PR 2 pairings).

use std::collections::HashMap;

use gpu_sim::DeviceArch;
use omp_core::config::{ExecMode, KernelConfig};
use omp_core::dispatch::{Footprint, Registry};
use omp_core::mapping::SimdMapping;
use omp_core::plan::{ParallelOp, Schedule, TargetPlan, TeamOp, ThreadOp, TripId};
use omp_core::sharing::SlotLayout;

use crate::analysis::{Analysis, Promotion};
use crate::builder::CompiledKernel;
use crate::dataflow::{
    loop_exit, staged_body_reads, transfer_thread_ops, trip_interval, AbsVal, Interval, RegState,
    Written,
};
use crate::diag::{LintReport, Severity};

/// Run every simtlint check against a compiled kernel. `nargs` is the
/// number of kernel-argument slots the launch will pass (several checks
/// validate declared argument indices and the team-post capacity against
/// it).
pub fn lint_kernel(k: &CompiledKernel, arch: &DeviceArch, nargs: usize) -> LintReport {
    let mut cx = Cx {
        reg: &k.registry,
        cfg: &k.config,
        arch,
        nargs,
        team_regs: k.plan.team_regs,
        next_parallel: 0,
        report: LintReport::default(),
    };
    // Surface the SPMD-ization pass's structured remarks first, the way a
    // compiler prints optimization remarks ahead of diagnostics.
    for p in &k.analysis.promotions {
        let code = if p.region == "teams" { "R-TEAMS-SPMDIZE" } else { "R-SPMDIZE" };
        cx.report.push(Severity::Remark, code, p.region.clone(), p.message.clone());
    }
    // Whole-plan capacity check: a generic teams region posts
    // fn + args + team registers into the team slice before every parallel
    // region (§5.3.1). Overflow forces a per-region global allocation the
    // modeled runtime never frees. A parallel region below a provably
    // zero-trip distribute never triggers a post, so it does not count.
    if k.config.teams_mode == ExecMode::Generic && contains_live_parallel(&k.plan.ops, &k.registry)
    {
        let layout = SlotLayout::for_bytes(k.config.sharing_space_bytes, 1);
        let post_slots = omp_core::sharing::post_slots(nargs, k.plan.team_regs);
        if layout.team_fits(post_slots) {
            // Range proof: the post always fits — nothing to report.
        } else {
            cx.report.push(
                Severity::Error,
                "E-TEAM-POST",
                "teams".into(),
                format!(
                    "generic teams posts {post_slots} slots (fn + {nargs} args + {} team \
                     registers) per parallel region but the team slice holds only {}; every \
                     post spills to a global allocation the runtime leaks",
                    k.plan.team_regs, layout.team_slots
                ),
            );
        }
    }
    let mut team_state: RegState = vec![AbsVal::unwritten(); k.plan.team_regs];
    cx.walk_team(&k.plan.ops, k.config.teams_mode, false, true, &mut team_state);
    cx.report
}

/// Induction-variable registers of every `For` loop in the region (any
/// nesting depth) — slots the worksharing machinery owns.
fn collect_iv_regs(ops: &[ThreadOp], out: &mut Vec<usize>) {
    for op in ops {
        if let ThreadOp::For { iv_reg, ops, .. } = op {
            out.push(*iv_reg);
            collect_iv_regs(ops, out);
        }
    }
}

fn contains_parallel(ops: &[TeamOp]) -> bool {
    ops.iter().any(|op| match op {
        TeamOp::Parallel(_) => true,
        TeamOp::Distribute { ops, .. } => contains_parallel(ops),
        TeamOp::Seq(_) => false,
    })
}

/// Like [`contains_parallel`], but a distribute loop whose trip interval
/// is exactly zero cannot reach its body.
fn contains_live_parallel(ops: &[TeamOp], reg: &Registry) -> bool {
    ops.iter().any(|op| match op {
        TeamOp::Parallel(_) => true,
        TeamOp::Distribute { trip, ops, .. } => {
            trip_interval(&reg.trip_meta(*trip)).hi > 0 && contains_live_parallel(ops, reg)
        }
        TeamOp::Seq(_) => false,
    })
}

/// Per-region context of the thread-level walk.
struct RegionCx {
    region: String,
    mode: ExecMode,
    /// SIMD group size.
    gs: u64,
    /// SIMD groups per team.
    ng: u64,
    nregs: usize,
}

/// Symbolic happens-before state for the static race detector: the
/// declared sharing-space writes seen so far in this region, plus slots
/// already reported (one E-RACE per slot per region).
#[derive(Default)]
struct SmemState {
    writes: HashMap<u32, String>,
    reported: Vec<u32>,
}

struct Cx<'a> {
    reg: &'a Registry,
    cfg: &'a KernelConfig,
    arch: &'a DeviceArch,
    nargs: usize,
    team_regs: usize,
    next_parallel: usize,
    report: LintReport,
}

impl<'a> Cx<'a> {
    fn err(&mut self, code: &'static str, region: &str, message: String) {
        self.report.push(Severity::Error, code, region.to_string(), message);
    }

    fn warn(&mut self, code: &'static str, region: &str, message: String) {
        self.report.push(Severity::Warning, code, region.to_string(), message);
    }

    fn remark(&mut self, code: &'static str, region: &str, message: String) {
        self.report.push(Severity::Remark, code, region.to_string(), message);
    }

    /// Degenerate-schedule checks shared by every worksharing level.
    fn check_trip(&mut self, trip: TripId, sched: Option<Schedule>, region: &str, what: &str) {
        if trip_interval(&self.reg.trip_meta(trip)).as_const() == Some(0) {
            self.warn(
                "W-ZERO-TRIP",
                region,
                format!("{what} has a constant trip count of 0: its body never runs"),
            );
        }
        if let Some(Schedule::Cyclic(0) | Schedule::Dynamic(0)) = sched {
            self.warn(
                "W-CHUNK",
                region,
                format!("{what} uses a chunk size of 0; the runtime clamps it to 1"),
            );
        }
    }

    /// Validate a declared footprint's indices against the scope it runs
    /// in, against the reaching-definitions state. `live` suppresses the
    /// value-dependent W-UNWRITTEN inside unreachable code.
    #[allow(clippy::too_many_arguments)]
    fn check_footprint(
        &mut self,
        fp: &Footprint,
        nregs: usize,
        state: &RegState,
        staged: bool,
        live: bool,
        region: &str,
        what: &str,
    ) {
        for &a in fp.args_read.iter().chain(&fp.args_written) {
            if a >= self.nargs {
                self.err(
                    "E-REG",
                    region,
                    format!(
                        "{what} declares kernel arg {a} but the launch passes only {} args",
                        self.nargs
                    ),
                );
            }
        }
        for &r in &fp.regs_read {
            if r >= nregs {
                let detail = if staged {
                    format!(
                        "only registers 0..{nregs} are staged to the SIMD workers — the read \
                         sees a slot nothing ever wrote"
                    )
                } else {
                    format!("the scope allocates only {nregs} registers")
                };
                self.err("E-REG", region, format!("{what} reads register {r}, but {detail}"));
            } else if state[r].written == Written::No && live {
                // Three-valued precision: only a definitely-unwritten read
                // warns; a maybe-written register (e.g. defined under a
                // loop that may run zero times) stays quiet.
                self.warn(
                    "W-UNWRITTEN",
                    region,
                    format!("{what} reads register {r} before anything writes it"),
                );
            }
        }
        for &r in &fp.regs_written {
            if r >= nregs {
                self.err(
                    "E-REG",
                    region,
                    format!(
                        "{what} writes register {r} but the scope allocates only {nregs} registers"
                    ),
                );
            }
        }
    }

    fn mark_written(fp: &Footprint, state: &mut RegState) {
        for &r in &fp.regs_written {
            if r < state.len() {
                state[r] = AbsVal::written(Interval::top());
            }
        }
    }

    /// Static race detector step for one op: `writers` is the interval of
    /// provably distinct, mutually unordered threads executing the op.
    fn check_smem(
        &mut self,
        fp: &Footprint,
        writers: Interval,
        rc: &RegionCx,
        smem: &mut SmemState,
        what: &str,
    ) {
        // Unordered write→read chains (SPMD only: nothing syncs between
        // ops there; the generic staging protocol orders a main's writes
        // before its group's reads).
        if rc.mode == ExecMode::Spmd {
            for &s in &fp.smem_read {
                if smem.reported.contains(&s) {
                    continue;
                }
                if let Some(writer) = smem.writes.get(&s) {
                    smem.reported.push(s);
                    let region = rc.region.clone();
                    self.err(
                        "E-RACE",
                        &region,
                        format!(
                            "{what} reads sharing-space slot {s} written by {writer} with no \
                             ordering barrier between them in SPMD mode; simtcheck will report \
                             a SharedMemRace on this slot"
                        ),
                    );
                }
            }
        }
        for &s in &fp.smem_written {
            if writers.lo >= 2 && !smem.reported.contains(&s) {
                smem.reported.push(s);
                let region = rc.region.clone();
                self.err(
                    "E-RACE",
                    &region,
                    format!(
                        "{what} writes sharing-space slot {s} from {} concurrent threads with \
                         no ordering between them; simtcheck will report a SharedMemRace on \
                         this slot",
                        writers.lo
                    ),
                );
            }
            smem.writes.entry(s).or_insert_with(|| what.to_string());
        }
    }

    fn walk_team(
        &mut self,
        ops: &[TeamOp],
        teams_mode: ExecMode,
        in_distribute: bool,
        live: bool,
        state: &mut RegState,
    ) {
        let reg = self.reg;
        for op in ops {
            match op {
                TeamOp::Seq(id) => {
                    if let Some(fp) = reg.seq_footprint(*id) {
                        let what = format!("team seq #{}", id.0);
                        self.check_footprint(
                            fp,
                            self.team_regs,
                            state,
                            false,
                            live,
                            "teams",
                            &what,
                        );
                        if teams_mode == ExecMode::Spmd && !fp.is_pure() {
                            self.err(
                                "E-SPMD-EFFECT",
                                "teams",
                                format!(
                                    "{what} declares side effects ({}) but the teams region is \
                                     SPMD: every warp executes team-sequential code redundantly",
                                    effect_summary(fp)
                                ),
                            );
                        }
                        Self::mark_written(fp, state);
                    } else {
                        // Unknown effects: assume it may initialize anything.
                        state.iter_mut().for_each(|a| *a = AbsVal::written(Interval::top()));
                    }
                }
                TeamOp::Distribute { trip, sched, iv_reg, ops } => {
                    self.check_trip(*trip, Some(*sched), "teams", "distribute loop");
                    if in_distribute {
                        self.err(
                            "E-NEST",
                            "teams",
                            "distribute loop nested inside another distribute loop: team \
                             iterations would be distributed twice"
                                .into(),
                        );
                    }
                    let t = trip_interval(&reg.trip_meta(*trip));
                    if *iv_reg >= self.team_regs {
                        self.err(
                            "E-REG",
                            "teams",
                            format!(
                                "distribute loop stores its induction variable in team register \
                                 {iv_reg} but the plan allocates only {}",
                                self.team_regs
                            ),
                        );
                    } else if t.hi > 0 {
                        state[*iv_reg] = AbsVal::written(Interval::range(0, t.hi - 1));
                    }
                    // A zero-trip distribute makes its body unreachable:
                    // structural errors still surface, value-dependent
                    // diagnostics are suppressed.
                    let body_live = live && t.hi > 0;
                    self.walk_team(ops, teams_mode, true, body_live, state);
                    if t.contains_zero() {
                        // The body's definitions only maybe reach here.
                        for a in state.iter_mut() {
                            if a.written == Written::Yes {
                                a.written = Written::Maybe;
                            }
                        }
                    }
                }
                TeamOp::Parallel(p) => self.lint_parallel(p, in_distribute, live),
            }
        }
    }

    fn lint_parallel(&mut self, p: &ParallelOp, in_distribute: bool, live: bool) {
        let i = self.next_parallel;
        self.next_parallel += 1;
        let region = format!("parallel #{i}");
        let m = SimdMapping::new(self.cfg.threads_per_team, p.desc.simdlen, self.arch.warp_size);
        // Whole-plan generalization of Analysis::staging_report: a generic
        // region whose per-dispatch staging exceeds its group slice takes
        // the global fallback on *every* simd loop (§5.3.1). The stage is
        // the *live* register prefix after the dead-stage shrink pass.
        if p.desc.mode == ExecMode::Generic && p.desc.simdlen > 1 && live {
            let layout = SlotLayout::for_bytes(self.cfg.sharing_space_bytes, m.num_groups());
            let stage = omp_core::sharing::stage_slots(p.stage_regs);
            if Interval::exact(stage as u64).fits(layout.group_slots as u64)
                != crate::dataflow::Proof::Always
            {
                self.warn(
                    "W-FALLBACK",
                    &region,
                    format!(
                        "generic-mode staging needs {stage} slots (fn + trip + {} registers) but \
                         each of the {} group slices holds {}: every simd dispatch stages \
                         through global memory",
                        p.stage_regs,
                        m.num_groups(),
                        layout.group_slots
                    ),
                );
            }
            // Interior dead staged registers: staging is positional, so the
            // shrink pass can only drop a trailing suffix — holes below
            // stage_regs are flagged instead. Worksharing induction
            // variables are exempt: the loop machinery pins them to their
            // slot, so "renumber" is not actionable advice for them.
            if let Some(reads) = staged_body_reads(&p.ops, self.reg) {
                let mut ivs = Vec::new();
                collect_iv_regs(&p.ops, &mut ivs);
                let dead: Vec<usize> =
                    (0..p.stage_regs).filter(|r| !reads.contains(r) && !ivs.contains(r)).collect();
                if !dead.is_empty() {
                    self.warn(
                        "W-DEAD-STAGE",
                        &region,
                        format!(
                            "registers {dead:?} are staged to the SIMD workers on every \
                             dispatch but no simd body reads them; staging is positional, so \
                             dead interior registers cannot be dropped — renumber registers to \
                             move live ones first"
                        ),
                    );
                }
            }
        }
        let rc = RegionCx {
            region,
            mode: p.desc.mode,
            gs: m.simd_group_size() as u64,
            ng: m.num_groups() as u64,
            nregs: p.nregs,
        };
        let mut state: RegState = vec![AbsVal::unwritten(); p.nregs];
        let mut smem = SmemState::default();
        self.walk_thread(
            &p.ops,
            &rc,
            &mut state,
            &mut smem,
            Interval::exact(rc.ng),
            0,
            false,
            in_distribute,
            live,
        );
    }

    /// Provably distinct unordered executors of a *sequential* op:
    /// `active` groups run it — every lane of each in SPMD mode, only the
    /// SIMD main in generic mode.
    fn seq_writers(rc: &RegionCx, active: Interval) -> Interval {
        match rc.mode {
            ExecMode::Spmd => active.mul(&Interval::exact(rc.gs)),
            ExecMode::Generic => active,
        }
    }

    /// Provably distinct unordered executors of a simd body with trip
    /// interval `t`: each of the `active` groups runs the loop, and within
    /// a group `min(trip, group_size)` lanes execute at least one
    /// iteration (iterations on the same lane are program-ordered, so only
    /// distinct lanes count).
    fn body_writers(rc: &RegionCx, active: Interval, t: Interval) -> Interval {
        active.mul(&t.min_with(&Interval::exact(rc.gs)))
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_thread(
        &mut self,
        ops: &[ThreadOp],
        rc: &RegionCx,
        state: &mut RegState,
        smem: &mut SmemState,
        active: Interval,
        for_depth: usize,
        varying_for: bool,
        in_distribute: bool,
        live: bool,
    ) {
        let reg = self.reg;
        for op in ops {
            match op {
                ThreadOp::Seq(id) => {
                    if let Some(fp) = reg.seq_footprint(*id) {
                        let what = format!("seq #{}", id.0);
                        self.check_footprint(fp, rc.nregs, state, false, live, &rc.region, &what);
                        if rc.mode == ExecMode::Spmd && !fp.is_pure() {
                            let region = rc.region.clone();
                            self.err(
                                "E-SPMD-EFFECT",
                                &region,
                                format!(
                                    "{what} declares side effects ({}) but the region is SPMD: \
                                     every thread would apply them redundantly",
                                    effect_summary(fp)
                                ),
                            );
                        }
                        if fp.barriers && varying_for {
                            let region = rc.region.clone();
                            self.err(
                                "E-DIVERGE",
                                &region,
                                format!(
                                    "{what} declares barrier use inside a worksharing loop with \
                                     a per-worker trip count: workers that finish early never \
                                     reach the barrier"
                                ),
                            );
                        }
                        if live {
                            self.check_smem(fp, Self::seq_writers(rc, active), rc, smem, &what);
                        }
                        Self::mark_written(fp, state);
                    } else {
                        state.iter_mut().for_each(|a| *a = AbsVal::written(Interval::top()));
                    }
                }
                ThreadOp::For { trip, sched, iv_reg, across_teams, ops } => {
                    self.check_trip(*trip, Some(*sched), &rc.region, "for loop");
                    if *across_teams && (for_depth > 0 || in_distribute) {
                        let region = rc.region.clone();
                        self.err(
                            "E-NEST",
                            &region,
                            "`distribute parallel for` loop nested inside another worksharing \
                             construct: iterations would be distributed twice"
                                .into(),
                        );
                    }
                    let t = trip_interval(&reg.trip_meta(*trip));
                    if *iv_reg >= rc.nregs {
                        let region = rc.region.clone();
                        self.err(
                            "E-REG",
                            &region,
                            format!(
                                "for loop stores its induction variable in register {iv_reg} but \
                                 the region allocates only {}",
                                rc.nregs
                            ),
                        );
                    } else if t.hi > 0 {
                        state[*iv_reg] = AbsVal::written(Interval::range(0, t.hi - 1));
                    }
                    let varying = varying_for || !reg.trip_meta(*trip).uniform;
                    // Diagnose the body under first-iteration semantics
                    // (reads see the pre-loop state), then flow the loop's
                    // dataflow fixpoint out through loop_exit: a body
                    // definition survives as Yes only when the trip is
                    // provably >= 1.
                    let entry = state.clone();
                    // Worksharing divides iterations among groups: inside
                    // the loop only a lower-bounded subset of groups
                    // provably executes (1 when the trip is provably
                    // positive — blocked/dynamic chunking can concentrate
                    // small trips on few groups, so 1 is the only safe
                    // floor).
                    let inner_active =
                        Interval::range(active.lo.min(t.lo).min(1), active.hi.min(t.hi).min(rc.ng));
                    self.walk_thread(
                        ops,
                        rc,
                        state,
                        smem,
                        inner_active,
                        for_depth + 1,
                        varying,
                        in_distribute,
                        live && t.hi > 0,
                    );
                    let top = vec![AbsVal::written(Interval::top()); entry.len()];
                    *state = loop_exit(
                        &entry,
                        t,
                        |s| {
                            let mut inner = s.clone();
                            if *iv_reg < inner.len() && t.hi > 0 {
                                inner[*iv_reg] = AbsVal::written(Interval::range(0, t.hi - 1));
                            }
                            transfer_thread_ops(ops, reg, &inner)
                        },
                        top,
                    );
                }
                ThreadOp::Simd { trip, body, .. } => {
                    self.check_trip(*trip, None, &rc.region, "simd loop");
                    let what = format!("simd body #{}", body.0);
                    let fp = reg.body_footprint(*body);
                    if let Some(fp) = fp {
                        let staged = rc.mode == ExecMode::Generic;
                        self.check_footprint(fp, rc.nregs, state, staged, live, &rc.region, &what);
                        let t = trip_interval(&reg.trip_meta(*trip));
                        if live {
                            self.check_smem(fp, Self::body_writers(rc, active, t), rc, smem, &what);
                        }
                    }
                    // Footprint-less bodies (plain closures, externs) still
                    // legalize — the remark must not depend on a declared
                    // footprint; only the barrier *error* does.
                    self.check_arch_barriers(fp.is_some_and(|f| f.barriers), rc, live, &what);
                }
                ThreadOp::SimdReduce { trip, body, dst_reg, .. } => {
                    self.check_trip(*trip, None, &rc.region, "simd reduction loop");
                    let what = format!("reduce body #{}", body.0);
                    let fp = reg.red_footprint(*body);
                    if let Some(fp) = fp {
                        let staged = rc.mode == ExecMode::Generic;
                        self.check_footprint(fp, rc.nregs, state, staged, live, &rc.region, &what);
                        let t = trip_interval(&reg.trip_meta(*trip));
                        if live {
                            self.check_smem(fp, Self::body_writers(rc, active, t), rc, smem, &what);
                        }
                    }
                    self.check_arch_barriers(fp.is_some_and(|f| f.barriers), rc, live, &what);
                    if *dst_reg >= rc.nregs {
                        let region = rc.region.clone();
                        self.err(
                            "E-REG",
                            &region,
                            format!(
                                "simd reduction writes its result to register {dst_reg} but the \
                                 region allocates only {}",
                                rc.nregs
                            ),
                        );
                    } else {
                        state[*dst_reg] = AbsVal::written(Interval::top());
                    }
                }
                ThreadOp::ReduceAcross { src_reg, dst_arg, .. } => {
                    if varying_for {
                        let region = rc.region.clone();
                        self.err(
                            "E-DIVERGE",
                            &region,
                            "team-wide reduction inside a worksharing loop with a per-worker \
                             trip count: workers that finish early never reach the block barrier"
                                .into(),
                        );
                    }
                    if *src_reg >= rc.nregs {
                        let region = rc.region.clone();
                        self.err(
                            "E-REG",
                            &region,
                            format!(
                                "cross-team reduction reads register {src_reg} but the region \
                                 allocates only {}",
                                rc.nregs
                            ),
                        );
                    } else if state[*src_reg].written == Written::No && live {
                        let region = rc.region.clone();
                        self.warn(
                            "W-UNWRITTEN",
                            &region,
                            format!(
                                "cross-team reduction reads register {src_reg} before anything \
                                 writes it"
                            ),
                        );
                    }
                    if *dst_arg >= self.nargs {
                        let region = rc.region.clone();
                        self.err(
                            "E-REG",
                            &region,
                            format!(
                                "cross-team reduction targets kernel arg {dst_arg} but the \
                                 launch passes only {} args",
                                self.nargs
                            ),
                        );
                    }
                }
            }
        }
    }

    /// E-ARCH / R-SEQ-SIMD (paper §5.4.1 / ROADMAP wave64): on an
    /// architecture without warp-level barriers, a generic-mode simd
    /// region is *legalized* — rewritten to sequential leader-lane
    /// execution — and the lint records the rewrite as a remark. The
    /// rewrite is only illegal when the body declares its own barrier:
    /// the legalized loop runs on SIMD mains only, where the barrier can
    /// never complete, so that case stays an error.
    fn check_arch_barriers(&mut self, barriers: bool, rc: &RegionCx, live: bool, what: &str) {
        if !live || rc.mode != ExecMode::Generic || rc.gs <= 1 || self.arch.warp_sync_supported {
            return;
        }
        let region = rc.region.clone();
        let arch = self.arch.name;
        if barriers {
            self.err(
                "E-ARCH",
                &region,
                format!(
                    "{what} declares a warp-level barrier but {arch} has no warp barrier: the \
                     sequential-simd legalization runs the loop on SIMD mains only, so the \
                     barrier can never complete (simtcheck reports BarrierDivergence)"
                ),
            );
        } else {
            self.remark(
                "R-SEQ-SIMD",
                &region,
                format!(
                    "{what} legalized to sequential leader-lane execution: {arch} has no \
                     warp-level barrier, so the SIMD state machine is bypassed and each SIMD \
                     main runs its group's iterations in order (§5.4.1)"
                ),
            );
        }
    }
}

fn effect_summary(fp: &Footprint) -> String {
    let mut parts = Vec::new();
    if !fp.args_written.is_empty() {
        parts.push(format!("writes args {:?}", fp.args_written));
    }
    if !fp.smem_written.is_empty() {
        parts.push(format!("writes sharing-space slots {:?}", fp.smem_written));
    }
    if fp.atomics {
        parts.push("atomics".into());
    }
    if fp.barriers {
        parts.push("barriers".into());
    }
    parts.join(", ")
}

// ---------------------------------------------------------------------------
// SPMD-ization
// ---------------------------------------------------------------------------

/// OpenMPOpt-style SPMD-ization: promote inferred-generic regions to SPMD
/// when declared footprints prove redundant execution is safe. Called by
/// [`crate::builder::TargetBuilder::build`] after lowering; never overrides
/// an explicitly forced mode.
pub(crate) fn spmdize(
    plan: &mut TargetPlan,
    analysis: &mut Analysis,
    config: &mut KernelConfig,
    reg: &Registry,
) {
    let mut idx = 0;
    spmdize_team_ops(&mut plan.ops, analysis, reg, &mut idx);
    // The teams region itself: legal when every team-sequential chunk is
    // declared pure and no distribute loop wraps a parallel region (the
    // team main would otherwise run sequential iterations between posts).
    if !analysis.teams_forced
        && analysis.teams_mode == ExecMode::Generic
        && team_seqs_pure(&plan.ops, reg)
        && !distribute_wraps_parallel(&plan.ops)
    {
        analysis.teams_mode = ExecMode::Spmd;
        config.teams_mode = ExecMode::Spmd;
        analysis.promotions.push(Promotion {
            region: "teams".into(),
            message: "promoted to SPMD: all team-sequential code declares a pure footprint and \
                      no distribute loop wraps a parallel region; the extra main-thread warp is \
                      dropped"
                .into(),
        });
    }
}

fn spmdize_team_ops(ops: &mut [TeamOp], analysis: &mut Analysis, reg: &Registry, idx: &mut usize) {
    for op in ops {
        match op {
            TeamOp::Parallel(p) => {
                let i = *idx;
                *idx += 1;
                let info = &mut analysis.parallels[i];
                if !info.forced
                    && p.desc.mode == ExecMode::Generic
                    && p.desc.simdlen > 1
                    && thread_ops_promotable(&p.ops, reg)
                {
                    p.desc.mode = ExecMode::Spmd;
                    info.desc.mode = ExecMode::Spmd;
                    info.promoted = true;
                    analysis.promotions.push(Promotion {
                        region: format!("parallel #{i}"),
                        message: "promoted to SPMD: all sequential code declares a pure \
                                  footprint, every trip count is uniform, and there is no \
                                  cross-team reduction — the worker state machine and \
                                  per-dispatch staging are unnecessary"
                            .into(),
                    });
                }
            }
            TeamOp::Distribute { ops, .. } => spmdize_team_ops(ops, analysis, reg, idx),
            TeamOp::Seq(_) => {}
        }
    }
}

/// Can this thread-op list run SPMD? Requires every sequential chunk to
/// carry a *declared pure* footprint (undeclared chunks are conservatively
/// opaque), uniform trip counts throughout (workers must agree on loop
/// bounds), and no cross-team reduction (its combining phase relies on the
/// generic protocol's arrival bookkeeping).
fn thread_ops_promotable(ops: &[ThreadOp], reg: &Registry) -> bool {
    ops.iter().all(|op| match op {
        ThreadOp::Seq(id) => reg.seq_footprint(*id).is_some_and(|fp| fp.is_pure()),
        ThreadOp::For { trip, ops, .. } => {
            reg.trip_meta(*trip).uniform && thread_ops_promotable(ops, reg)
        }
        ThreadOp::Simd { trip, .. } | ThreadOp::SimdReduce { trip, .. } => {
            reg.trip_meta(*trip).uniform
        }
        ThreadOp::ReduceAcross { .. } => false,
    })
}

fn team_seqs_pure(ops: &[TeamOp], reg: &Registry) -> bool {
    ops.iter().all(|op| match op {
        TeamOp::Seq(id) => reg.seq_footprint(*id).is_some_and(|fp| fp.is_pure()),
        TeamOp::Distribute { ops, .. } => team_seqs_pure(ops, reg),
        TeamOp::Parallel(_) => true,
    })
}

fn distribute_wraps_parallel(ops: &[TeamOp]) -> bool {
    ops.iter().any(|op| match op {
        TeamOp::Distribute { ops, .. } => contains_parallel(ops),
        _ => false,
    })
}
