//! Flat-bytecode plan execution — the simulator's second engine.
//!
//! The runtime interpreter in [`omp_core::exec`] *tree-walks* a
//! [`TargetPlan`] on every launch: each loop round re-discovers the SIMD
//! mapping, re-buckets groups into warps, re-allocates cohort/leader lane
//! lists and partial-sum vectors, and evaluates trip counts by running
//! their closures through the full per-lane machinery — even when the trip
//! count is a constant. None of that work is *charged* (it is interpreter
//! bookkeeping, not simulated execution), but it dominates host wall time
//! for kernels with many small supersteps.
//!
//! This module compiles a linted plan **once** into a [`FlatProgram`]: a
//! dense op stream (nested bodies become contiguous index ranges, so
//! "walking the tree" is a program-counter sweep) plus side tables with
//! everything the interpreter recomputes per round pre-resolved at lowering
//! time:
//!
//! * **dispatch**: each `simd` op's [`DispatchKind`] — cascade position
//!   from the module registry, or the indirect-call fallback (§5.5) — and
//!   its body form, per lane or warp ([`BodyForm`]);
//! * **staging geometry**: `post_slots` / `stage_slots` and whether they
//!   fit the team / group slices, via the same [`SlotLayout`] arithmetic
//!   simtlint's `Analysis::staging_report` uses (§5.3.1);
//! * **SIMD mapping**: group size, groups-per-warp, leader lanes and warp
//!   sync masks (§5.1) — all pure functions of the launch geometry;
//! * **trip sources**: constant trips inline ([`TripSrc::Const`]),
//!   lane-free trips bind their pure closure ([`TripSrc::Pure`]), and only
//!   genuinely device-touching trips keep the lane path
//!   ([`TripSrc::Lane`]).
//!
//! The executor ([`run_flat_block`]) replays the **exact** charge sequence
//! of the tree-walk interpreter — same `charge_*` calls, same barriers and
//! syncs, same lane visit order — so [`gpu_sim::LaunchStats`] are
//! bit-identical by construction, not by accident. Lane work runs through
//! [`gpu_sim::TeamCtx::run_lanes`], the one lane path both engines share,
//! so coalescing, bank conflicts and L1 accounting have a single
//! implementation.
//!
//! Sanitized and traced launches run here too. The executor makes the
//! tree walker's simtcheck calls — the footprint bracket around every
//! footprint-declared seq and simd body (the checks themselves are
//! [`omp_core::dispatch::validate_reg_writes`] / `validate_observed`), the
//! sharing layout at each parallel region, the sequential-simd divergence
//! report — each behind one `sanitizing()` branch per op. Under an event
//! trace it also records the super-steps it otherwise skips because they
//! charge nothing: idle lanes stay in their cohort and const or pure trips
//! replay the tree walker's lane-path evaluation. The tree walker remains
//! the differential oracle: [`crate::CompiledKernel::launch_oracle`] runs a
//! launch through both engines and asserts identical stats (simtcheck
//! violations included), memory images and event traces.
//!
//! Scheduling arithmetic is shared, not cloned: iteration assignment and
//! chunk-grab charging go through [`omp_core::workshare::assign`] /
//! [`is_chunk_start`], so the `Dynamic(0)` chunk clamp
//! ([`omp_core::workshare::effective_chunk`]) cannot drift between engines.

use std::sync::Arc;

use gpu_sim::mem::ptr::DPtr;
use gpu_sim::{
    Device, DeviceArch, DispatchKind, LaneMask, LaunchError, LaunchStats, Slot, TeamCtx, MAX_LANES,
};
use omp_core::config::{ExecMode, KernelConfig};
use omp_core::dispatch::{
    validate_observed, validate_reg_writes, warp_body_on_lane, BodyForm, Footprint, PureTripFn,
    Registry, SimdFn, WarpBodyFn,
};
use omp_core::exec::{LOOP_OVERHEAD_CYCLES, REDUCE_STEP_CYCLES, TARGET_INIT_CYCLES};
use omp_core::mapping::SimdMapping;
use omp_core::plan::{
    BodyId, ParallelOp, RedId, Schedule, SeqId, TargetPlan, TeamOp, ThreadOp, TripId, Vars,
    VarsMut, WarpVars,
};
use omp_core::sharing::{SharingSpace, SlotLayout};
use omp_core::workshare::{assign, is_chunk_start};
use omp_core::ParallelDesc;

/// Fail verification with a formatted reason.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Which execution engine runs a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walk interpreter in [`omp_core::exec`] (the oracle).
    Tree,
    /// The flat-bytecode executor in this module.
    Bytecode,
}

/// Where a flat op's trip count comes from, resolved at lowering time.
#[derive(Clone, Copy, Debug)]
enum TripSrc {
    /// Compile-time constant ([`Registry::trip_const`]).
    Const(u64),
    /// Lane-free closure (index into [`FlatProgram::pures`]); evaluated
    /// directly, which is sound — and bit-identical — because the closure
    /// cannot touch the device or charge cycles.
    Pure(u32),
    /// Device-touching closure; evaluated through the lane path with the
    /// interpreter's cohort semantics.
    Lane(TripId),
}

/// One op of the flat stream. Block-structured ops (`Distribute`,
/// `Parallel`, `For`) own the contiguous range `(self+1..end)` of the
/// stream as their body.
#[derive(Clone, Debug)]
enum FlatOp {
    TeamSeq(SeqId),
    Distribute { trip: TripSrc, sched: Schedule, iv_reg: u32, end: u32 },
    Parallel { meta: u32, end: u32 },
    ThreadSeq(SeqId),
    For { trip: TripSrc, sched: Schedule, iv_reg: u32, across_teams: bool, end: u32 },
    Simd { meta: u32 },
    SimdReduce { meta: u32, dst_reg: u32 },
    ReduceAcross { src_reg: u32, dst_arg: u32, dst_idx: u64 },
}

/// Pre-resolved geometry and staging facts of one `parallel` region.
#[derive(Clone, Debug)]
struct ParMeta {
    desc: ParallelDesc,
    nregs: usize,
    /// Leading registers staged per simd loop (`≤ nregs`; see the
    /// dead-stage shrink pass in [`crate::dataflow`]).
    stage_regs: usize,
    /// Slots of a generic team post: fn + args + team regs.
    post_slots: u64,
    /// Dispatch of the region outline itself (cascade head or indirect).
    region_kind: DispatchKind,
    /// Whether the team slice holds `post_slots` (else global fallback).
    team_fits: bool,
    /// Whether a group slice holds `stage_slots` (else global fallback).
    group_fits: bool,
    /// Slots of a generic simd post: fn + trip + thread regs.
    stage_slots: u32,
    num_groups: u32,
    /// Groups per warp.
    gpw: u32,
    /// SIMD group size (`simdlen`, normalized).
    gs: u32,
    /// `log2(gs)` — group sizes always divide the (power-of-two) warp size.
    gs_shift: u32,
    /// Leader lane of each group within its warp (same for every warp).
    leader_lanes: Vec<u32>,
    /// All lanes of a warp (the all-groups-active lane set).
    all_lanes: Vec<u32>,
    /// All groups of the region (the initial active list).
    groups: Vec<u32>,
    /// Warp sync mask when every group of the warp participates.
    full_mask: LaneMask,
    /// Per group-in-warp sync mask.
    group_masks: Vec<LaneMask>,
    /// Sequential-simd legalization (§5.4.1), baked in at lower time from
    /// [`ParallelDesc::sequential_simd`] on the lowering arch: the region's
    /// simd loops run sequentially on their SIMD mains and the state
    /// machine (posts, warp barriers, termination signal) is never
    /// entered. The executor trusts this bit instead of re-querying the
    /// device so a program can only run on the arch family it was lowered
    /// for — the flat-program cache keys on the same capability.
    sequential_simd: bool,
}

/// Body reference of a `simd` op.
#[derive(Clone, Copy, Debug)]
enum FlatBody {
    Plain(BodyId),
    Reduce(RedId),
}

/// Pre-resolved facts of one `simd` / `simd reduce` op.
#[derive(Clone, Debug)]
struct SimdMeta {
    trip: TripSrc,
    body: FlatBody,
    /// Pre-resolved dispatch: cascade position from the registry for known
    /// bodies, indirect-call fallback otherwise (§5.5).
    kind: DispatchKind,
    /// The body's form. A warp-form body issues warp instructions where
    /// its lanes need not run one by one (see `FlatExec::exec_loop_lanes`).
    form: BodyForm,
}

/// A [`TargetPlan`] compiled to a flat op stream with pre-resolved operand
/// tables. Lowered per (warp size, argument count); see
/// [`crate::CompiledKernel::flat_program`] for the cache.
#[derive(Clone)]
pub struct FlatProgram {
    ops: Vec<FlatOp>,
    pars: Vec<ParMeta>,
    simds: Vec<SimdMeta>,
    /// Lane-free trip closures referenced by [`TripSrc::Pure`].
    pures: Vec<PureTripFn>,
    /// The all-lanes list `0..warp_size` (SPMD team-scope cohorts).
    all_lanes: Vec<u32>,
    team_regs: usize,
    /// Geometry the program was lowered for (asserted at execution).
    warp_size: u32,
    /// Warp-sync capability of the lowering arch (asserted at execution):
    /// sequential-simd legalization is baked into [`ParMeta`], so running
    /// a program on an arch with the other capability would silently
    /// mis-charge the state machine.
    warp_sync: bool,
    nargs: usize,
}

impl FlatProgram {
    /// Lower a plan for one launch geometry. Cheap (microseconds) relative
    /// to any launch; cached by [`crate::CompiledKernel`].
    pub fn lower(
        plan: &TargetPlan,
        reg: &Registry,
        config: &KernelConfig,
        arch: &DeviceArch,
        nargs: usize,
    ) -> FlatProgram {
        let mut p = FlatProgram {
            ops: Vec::new(),
            pars: Vec::new(),
            simds: Vec::new(),
            pures: Vec::new(),
            all_lanes: (0..arch.warp_size).collect(),
            team_regs: plan.team_regs,
            warp_size: arch.warp_size,
            warp_sync: arch.warp_sync_supported,
            nargs,
        };
        let mut lw = Lowerer { prog: &mut p, reg, config, arch, nargs, team_regs: plan.team_regs };
        lw.team_ops(&plan.ops);
        p
    }

    /// Number of ops in the stream (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Post-compile verification (§5.6): prove the lowered side tables
    /// consistent with the plan the program claims to implement. The
    /// checker is an *independent* invariant walker, not a re-lowering:
    /// it walks plan and op stream in lockstep and recomputes every
    /// side-table fact from first principles —
    ///
    /// * **structure**: each block op (`Distribute`, `Parallel`, `For`)
    ///   owns exactly the contiguous, non-overlapping PC range of its plan
    ///   body, and the stream ends where the plan does;
    /// * **dispatch**: every `simd` op's [`DispatchKind`] matches the §5.5
    ///   rule against the registry's cascade order, and its body form
    ///   matches the registered body's;
    /// * **staging geometry**: `post_slots` / `stage_slots` and both fit
    ///   flags equal the [`SlotLayout`] + [`omp_core::sharing`] arithmetic
    ///   recomputed from the plan and config;
    /// * **SIMD mapping**: group counts, leader lanes, shifts and sync
    ///   masks equal a fresh [`SimdMapping`] of the launch geometry;
    /// * **trip classification**: `Const` ops carry exactly the registry's
    ///   constant, `Pure` ops exist only for lane-free non-constant trips,
    ///   and `Lane` ops only when neither shortcut is sound.
    ///
    /// Runs by default after lowering (see
    /// [`crate::CompiledKernel::flat_program`]); fuzzed against
    /// [`FlatProgram::seeded_mutations`].
    pub fn verify(
        &self,
        plan: &TargetPlan,
        reg: &Registry,
        config: &KernelConfig,
        arch: &DeviceArch,
        nargs: usize,
    ) -> Result<(), String> {
        ensure!(
            self.warp_size == arch.warp_size,
            "program lowered for warp size {} but verifying against {}",
            self.warp_size,
            arch.warp_size
        );
        ensure!(
            self.warp_sync == arch.warp_sync_supported,
            "program lowered with warp_sync={} but verifying against an arch with {}",
            self.warp_sync,
            arch.warp_sync_supported
        );
        ensure!(
            self.nargs == nargs,
            "program lowered for {} args but verifying against {nargs}",
            self.nargs
        );
        ensure!(
            self.team_regs == plan.team_regs,
            "team_regs {} != plan team_regs {}",
            self.team_regs,
            plan.team_regs
        );
        let want_lanes: Vec<u32> = (0..arch.warp_size).collect();
        ensure!(self.all_lanes == want_lanes, "all-lanes table does not cover the warp");
        let mut v = Verifier {
            prog: self,
            reg,
            config,
            arch,
            nargs,
            pars_seen: 0,
            simds_seen: 0,
            pures_seen: 0,
        };
        let end = v.team_ops(&plan.ops, 0)?;
        ensure!(
            end == self.ops.len() as u32,
            "op stream has {} ops but the plan accounts for {end}",
            self.ops.len()
        );
        ensure!(
            v.pars_seen == self.pars.len(),
            "orphan ParMeta entries: {} verified, {} present",
            v.pars_seen,
            self.pars.len()
        );
        ensure!(
            v.simds_seen == self.simds.len(),
            "orphan SimdMeta entries: {} verified, {} present",
            v.simds_seen,
            self.simds.len()
        );
        ensure!(
            v.pures_seen == self.pures.len(),
            "orphan pure-trip entries: {} verified, {} present",
            v.pures_seen,
            self.pures.len()
        );
        Ok(())
    }

    /// Seeded single-fault mutants of this program, each paired with a
    /// label, for negative-testing [`FlatProgram::verify`]. The documented
    /// mutation set covers the verifier's acceptance criteria: overlapping
    /// / truncated PC ranges, wrong cascade positions, a flipped body
    /// form, off-by-one staging geometry, dropped mapping tables and
    /// misclassified trip sources.
    /// Mutations without an applicable site in this program are omitted.
    #[doc(hidden)]
    pub fn seeded_mutations(&self) -> Vec<(&'static str, FlatProgram)> {
        let mut out: Vec<(&'static str, FlatProgram)> = Vec::new();
        let block_at = self.ops.iter().position(|op| {
            matches!(op, FlatOp::Distribute { .. } | FlatOp::Parallel { .. } | FlatOp::For { .. })
        });
        let bump_end = |p: &mut FlatProgram, at: usize, delta: i64| match &mut p.ops[at] {
            FlatOp::Distribute { end, .. }
            | FlatOp::Parallel { end, .. }
            | FlatOp::For { end, .. } => *end = (*end as i64 + delta) as u32,
            _ => unreachable!("mutation site is a block op"),
        };
        if let Some(at) = block_at {
            let mut m = self.clone();
            bump_end(&mut m, at, -1);
            out.push(("block-end-shrunk", m));
            let mut m = self.clone();
            bump_end(&mut m, at, 1);
            out.push(("block-end-grown", m));
        }
        if !self.pars.is_empty() {
            let mut m = self.clone();
            m.pars[0].stage_slots += 1;
            out.push(("stage-slots-up", m));
            let mut m = self.clone();
            m.pars[0].stage_slots -= 1;
            out.push(("stage-slots-down", m));
            let mut m = self.clone();
            m.pars[0].post_slots += 1;
            out.push(("post-slots-up", m));
            let mut m = self.clone();
            m.pars[0].team_fits = !m.pars[0].team_fits;
            out.push(("team-fit-flip", m));
            let mut m = self.clone();
            m.pars[0].group_fits = !m.pars[0].group_fits;
            out.push(("group-fit-flip", m));
            let mut m = self.clone();
            m.pars[0].gs_shift += 1;
            out.push(("gs-shift-up", m));
            let mut m = self.clone();
            m.pars[0].leader_lanes.pop();
            out.push(("leader-lanes-truncated", m));
            let mut m = self.clone();
            m.pars[0].num_groups += 1;
            out.push(("num-groups-up", m));
            let mut m = self.clone();
            m.pars[0].stage_regs += 1;
            out.push(("stage-regs-up", m));
        }
        let cascade_at =
            self.simds.iter().position(|s| matches!(s.kind, DispatchKind::Cascade { .. }));
        if let Some(at) = cascade_at {
            let mut m = self.clone();
            if let DispatchKind::Cascade { position } = m.simds[at].kind {
                m.simds[at].kind = DispatchKind::Cascade { position: position + 1 };
            }
            out.push(("cascade-pos-up", m));
            let mut m = self.clone();
            m.simds[at].kind = DispatchKind::Indirect;
            out.push(("cascade-to-indirect", m));
        }
        if let Some(at) = self.simds.iter().position(|s| matches!(s.kind, DispatchKind::Indirect)) {
            let mut m = self.clone();
            m.simds[at].kind = DispatchKind::Cascade { position: 0 };
            out.push(("indirect-to-cascade", m));
        }
        if let Some(at) = self.simds.iter().position(|s| matches!(s.body, FlatBody::Plain(_))) {
            let mut m = self.clone();
            m.simds[at].form = match m.simds[at].form {
                BodyForm::Lane => BodyForm::Warp,
                BodyForm::Warp => BodyForm::Lane,
            };
            out.push(("body-form-flip", m));
        }
        // Trip-source mutations hit the first applicable site among loop
        // ops and simd metas.
        let site_of = |src: TripSrc| match src {
            TripSrc::Const(k) => ("trip-const-up", TripSrc::Const(k + 1)),
            TripSrc::Pure(_) => ("trip-pure-to-const", TripSrc::Const(0)),
            TripSrc::Lane(_) => ("trip-lane-to-const", TripSrc::Const(0)),
        };
        for (i, op) in self.ops.iter().enumerate() {
            let src = match op {
                FlatOp::Distribute { trip, .. } | FlatOp::For { trip, .. } => *trip,
                _ => continue,
            };
            let (label, mutated) = site_of(src);
            if out.iter().any(|(l, _)| *l == label) {
                continue;
            }
            let mut m = self.clone();
            match &mut m.ops[i] {
                FlatOp::Distribute { trip, .. } | FlatOp::For { trip, .. } => *trip = mutated,
                _ => unreachable!(),
            }
            out.push((label, m));
        }
        for (i, s) in self.simds.iter().enumerate() {
            let (label, mutated) = site_of(s.trip);
            if out.iter().any(|(l, _)| *l == label) {
                continue;
            }
            let mut m = self.clone();
            m.simds[i].trip = mutated;
            out.push((label, m));
        }
        out
    }
}

/// Lockstep plan/stream walker behind [`FlatProgram::verify`]. Side-table
/// indices must be allocated in program order, so each checked op claims
/// the next unclaimed table entry.
struct Verifier<'a> {
    prog: &'a FlatProgram,
    reg: &'a Registry,
    config: &'a KernelConfig,
    arch: &'a DeviceArch,
    nargs: usize,
    pars_seen: usize,
    simds_seen: usize,
    pures_seen: usize,
}

impl<'a> Verifier<'a> {
    fn op(&self, pc: u32) -> Result<&'a FlatOp, String> {
        self.prog
            .ops
            .get(pc as usize)
            .ok_or_else(|| format!("op stream ends at {} but the plan continues", pc))
    }

    /// Check a trip source against the §5.5-adjacent classification rule:
    /// constants are inlined exactly, lane-free closures take the pure
    /// table (claimed in order), and only device-touching trips keep the
    /// lane path.
    fn trip(&mut self, src: TripSrc, id: TripId, pc: u32) -> Result<(), String> {
        let konst = self.reg.trip_meta(id).konst;
        match src {
            TripSrc::Const(n) => {
                ensure!(
                    konst == Some(n),
                    "op {pc}: trip lowered as constant {n} but the registry says {konst:?}"
                );
            }
            TripSrc::Pure(i) => {
                ensure!(
                    konst.is_none(),
                    "op {pc}: constant trip {konst:?} lowered through the pure path"
                );
                ensure!(
                    self.reg.pure_trip(id).is_some(),
                    "op {pc}: lane-path trip lowered as pure"
                );
                ensure!(
                    i as usize == self.pures_seen,
                    "op {pc}: pure-trip table index {i} out of order (expected {})",
                    self.pures_seen
                );
                self.pures_seen += 1;
            }
            TripSrc::Lane(lid) => {
                ensure!(lid == id, "op {pc}: lane trip bound to {lid:?}, plan says {id:?}");
                ensure!(
                    konst.is_none() && self.reg.pure_trip(id).is_none(),
                    "op {pc}: trip kept on the lane path despite a const/pure shortcut"
                );
            }
        }
        Ok(())
    }

    fn team_ops(&mut self, ops: &[TeamOp], mut pc: u32) -> Result<u32, String> {
        for op in ops {
            match op {
                TeamOp::Seq(id) => {
                    match self.op(pc)? {
                        FlatOp::TeamSeq(fid) if fid == id => {}
                        other => {
                            return Err(format!("op {pc}: expected TeamSeq({id:?}), got {other:?}"))
                        }
                    }
                    pc += 1;
                }
                TeamOp::Distribute { trip, sched, iv_reg, ops } => {
                    let (src, s, r, end) = match self.op(pc)? {
                        FlatOp::Distribute { trip, sched, iv_reg, end } => {
                            (*trip, *sched, *iv_reg, *end)
                        }
                        other => {
                            return Err(format!("op {pc}: expected Distribute, got {other:?}"))
                        }
                    };
                    ensure!(s == *sched, "op {pc}: schedule {s:?} != plan {sched:?}");
                    ensure!(r == *iv_reg as u32, "op {pc}: iv reg {r} != plan {iv_reg}");
                    self.trip(src, *trip, pc)?;
                    let body_end = self.team_ops(ops, pc + 1)?;
                    ensure!(
                        end == body_end,
                        "op {pc}: distribute claims body range ..{end} but the body ends at \
                         {body_end}"
                    );
                    pc = end;
                }
                TeamOp::Parallel(p) => {
                    let (meta_i, end) = match self.op(pc)? {
                        FlatOp::Parallel { meta, end } => (*meta, *end),
                        other => return Err(format!("op {pc}: expected Parallel, got {other:?}")),
                    };
                    ensure!(
                        meta_i as usize == self.pars_seen,
                        "op {pc}: ParMeta index {meta_i} out of order (expected {})",
                        self.pars_seen
                    );
                    let meta =
                        self.prog.pars.get(meta_i as usize).ok_or_else(|| {
                            format!("op {pc}: ParMeta index {meta_i} out of range")
                        })?;
                    self.par_meta(p, meta, pc)?;
                    self.pars_seen += 1;
                    let body_end = self.thread_ops(&p.ops, pc + 1)?;
                    ensure!(
                        end == body_end,
                        "op {pc}: parallel claims body range ..{end} but the body ends at \
                         {body_end}"
                    );
                    pc = end;
                }
            }
        }
        Ok(pc)
    }

    /// Recompute every [`ParMeta`] fact from the plan, config and arch and
    /// compare field for field.
    fn par_meta(&self, p: &ParallelOp, m: &ParMeta, pc: u32) -> Result<(), String> {
        let desc = p.desc.normalized(self.arch);
        let sm = SimdMapping::new(self.config.threads_per_team, desc.simdlen, self.arch.warp_size);
        let ng = sm.num_groups();
        let layout = SlotLayout::for_bytes(self.config.sharing_space_bytes, ng);
        let post_slots = omp_core::sharing::post_slots(self.nargs, self.prog.team_regs) as u64;
        ensure!(p.stage_regs <= p.nregs, "op {pc}: plan stage_regs exceeds nregs");
        let stage_slots = omp_core::sharing::stage_slots(p.stage_regs);
        let gs = desc.simdlen;
        let gpw = sm.groups_per_warp();
        ensure!(
            (m.desc.mode, m.desc.simdlen) == (desc.mode, desc.simdlen),
            "op {pc}: ParMeta desc {:?} != normalized plan desc {:?}",
            m.desc,
            desc
        );
        ensure!(m.nregs == p.nregs, "op {pc}: ParMeta nregs {} != plan {}", m.nregs, p.nregs);
        ensure!(
            m.stage_regs == p.stage_regs,
            "op {pc}: ParMeta stage_regs {} != plan {}",
            m.stage_regs,
            p.stage_regs
        );
        ensure!(
            m.post_slots == post_slots,
            "op {pc}: post_slots {} != recomputed {post_slots}",
            m.post_slots
        );
        ensure!(
            m.stage_slots == stage_slots,
            "op {pc}: stage_slots {} != recomputed {stage_slots}",
            m.stage_slots
        );
        let region_kind =
            if p.known { DispatchKind::Cascade { position: 0 } } else { DispatchKind::Indirect };
        ensure!(
            m.region_kind == region_kind,
            "op {pc}: region dispatch {:?} != rule {region_kind:?}",
            m.region_kind
        );
        ensure!(
            m.team_fits == layout.team_fits(post_slots as u32),
            "op {pc}: team_fits {} != SlotLayout arithmetic",
            m.team_fits
        );
        ensure!(
            m.group_fits == layout.group_fits(stage_slots),
            "op {pc}: group_fits {} != SlotLayout arithmetic",
            m.group_fits
        );
        ensure!(m.num_groups == ng, "op {pc}: num_groups {} != mapping {ng}", m.num_groups);
        ensure!(m.gpw == gpw, "op {pc}: groups-per-warp {} != mapping {gpw}", m.gpw);
        ensure!(m.gs == gs, "op {pc}: group size {} != normalized simdlen {gs}", m.gs);
        ensure!(
            m.gs_shift == gs.trailing_zeros(),
            "op {pc}: gs_shift {} != log2({gs})",
            m.gs_shift
        );
        let leader_lanes: Vec<u32> = (0..gpw).map(|k| k * gs).collect();
        ensure!(m.leader_lanes == leader_lanes, "op {pc}: leader-lane table mismatch");
        let all_lanes: Vec<u32> = (0..self.arch.warp_size).collect();
        ensure!(m.all_lanes == all_lanes, "op {pc}: warp lane table mismatch");
        let groups: Vec<u32> = (0..ng).collect();
        ensure!(m.groups == groups, "op {pc}: initial active-group list mismatch");
        ensure!(
            m.full_mask == LaneMask::contiguous(0, self.arch.warp_size),
            "op {pc}: full warp mask mismatch"
        );
        let group_masks: Vec<LaneMask> =
            (0..gpw).map(|k| LaneMask::contiguous(k * gs, gs)).collect();
        ensure!(m.group_masks == group_masks, "op {pc}: per-group mask table mismatch");
        ensure!(
            m.sequential_simd == desc.sequential_simd(self.arch),
            "op {pc}: sequential_simd {} != legalization predicate on this arch",
            m.sequential_simd
        );
        Ok(())
    }

    fn thread_ops(&mut self, ops: &[ThreadOp], mut pc: u32) -> Result<u32, String> {
        for op in ops {
            match op {
                ThreadOp::Seq(id) => {
                    match self.op(pc)? {
                        FlatOp::ThreadSeq(fid) if fid == id => {}
                        other => {
                            return Err(format!(
                                "op {pc}: expected ThreadSeq({id:?}), got {other:?}"
                            ))
                        }
                    }
                    pc += 1;
                }
                ThreadOp::For { trip, sched, iv_reg, across_teams, ops } => {
                    let (src, s, r, across, end) = match self.op(pc)? {
                        FlatOp::For { trip, sched, iv_reg, across_teams, end } => {
                            (*trip, *sched, *iv_reg, *across_teams, *end)
                        }
                        other => return Err(format!("op {pc}: expected For, got {other:?}")),
                    };
                    ensure!(s == *sched, "op {pc}: schedule {s:?} != plan {sched:?}");
                    ensure!(r == *iv_reg as u32, "op {pc}: iv reg {r} != plan {iv_reg}");
                    ensure!(across == *across_teams, "op {pc}: across-teams flag mismatch");
                    self.trip(src, *trip, pc)?;
                    let body_end = self.thread_ops(ops, pc + 1)?;
                    ensure!(
                        end == body_end,
                        "op {pc}: for claims body range ..{end} but the body ends at {body_end}"
                    );
                    pc = end;
                }
                ThreadOp::Simd { trip, body, known } => {
                    let meta_i = match self.op(pc)? {
                        FlatOp::Simd { meta } => *meta,
                        other => return Err(format!("op {pc}: expected Simd, got {other:?}")),
                    };
                    self.simd_meta(meta_i, *trip, FlatBody::Plain(*body), *known, pc)?;
                    pc += 1;
                }
                ThreadOp::SimdReduce { trip, body, known, dst_reg } => {
                    let (meta_i, dst) = match self.op(pc)? {
                        FlatOp::SimdReduce { meta, dst_reg } => (*meta, *dst_reg),
                        other => {
                            return Err(format!("op {pc}: expected SimdReduce, got {other:?}"))
                        }
                    };
                    ensure!(
                        dst == *dst_reg as u32,
                        "op {pc}: reduce dst reg {dst} != plan {dst_reg}"
                    );
                    self.simd_meta(meta_i, *trip, FlatBody::Reduce(*body), *known, pc)?;
                    pc += 1;
                }
                ThreadOp::ReduceAcross { src_reg, dst_arg, dst_idx } => {
                    match self.op(pc)? {
                        FlatOp::ReduceAcross { src_reg: s, dst_arg: a, dst_idx: i }
                            if *s == *src_reg as u32 && *a == *dst_arg as u32 && i == dst_idx => {}
                        other => {
                            return Err(format!("op {pc}: expected ReduceAcross, got {other:?}"))
                        }
                    }
                    pc += 1;
                }
            }
        }
        Ok(pc)
    }

    fn simd_meta(
        &mut self,
        meta_i: u32,
        trip: TripId,
        body: FlatBody,
        known: bool,
        pc: u32,
    ) -> Result<(), String> {
        ensure!(
            meta_i as usize == self.simds_seen,
            "op {pc}: SimdMeta index {meta_i} out of order (expected {})",
            self.simds_seen
        );
        let sm = self
            .prog
            .simds
            .get(meta_i as usize)
            .ok_or_else(|| format!("op {pc}: SimdMeta index {meta_i} out of range"))?;
        self.simds_seen += 1;
        let (want_kind, want_form, bodies_match) = match (body, sm.body) {
            (FlatBody::Plain(b), FlatBody::Plain(fb)) => {
                let kind = resolve_dispatch(self.reg.get_body(b).1, known);
                (kind, self.reg.body_form(b), b == fb)
            }
            (FlatBody::Reduce(b), FlatBody::Reduce(fb)) => {
                (resolve_dispatch(self.reg.get_red(b).1, known), BodyForm::Lane, b == fb)
            }
            _ => return Err(format!("op {pc}: simd body kind mismatch")),
        };
        ensure!(bodies_match, "op {pc}: simd body id mismatch");
        ensure!(
            sm.form == want_form,
            "op {pc}: body form {:?} != registered form {want_form:?}",
            sm.form
        );
        ensure!(
            sm.kind == want_kind,
            "op {pc}: dispatch {:?} != registry rule {want_kind:?} (cascade order)",
            sm.kind
        );
        self.trip(sm.trip, trip, pc)
    }
}

struct Lowerer<'a> {
    prog: &'a mut FlatProgram,
    reg: &'a Registry,
    config: &'a KernelConfig,
    arch: &'a DeviceArch,
    nargs: usize,
    team_regs: usize,
}

impl<'a> Lowerer<'a> {
    fn trip_src(&mut self, id: TripId) -> TripSrc {
        if let Some(k) = self.reg.trip_meta(id).konst {
            return TripSrc::Const(k);
        }
        match self.reg.pure_trip(id) {
            Some(f) => {
                self.prog.pures.push(Arc::clone(f));
                TripSrc::Pure(self.prog.pures.len() as u32 - 1)
            }
            None => TripSrc::Lane(id),
        }
    }

    fn team_ops(&mut self, ops: &[TeamOp]) {
        for op in ops {
            match op {
                TeamOp::Seq(id) => self.prog.ops.push(FlatOp::TeamSeq(*id)),
                TeamOp::Distribute { trip, sched, iv_reg, ops } => {
                    let trip = self.trip_src(*trip);
                    let at = self.prog.ops.len();
                    self.prog.ops.push(FlatOp::Distribute {
                        trip,
                        sched: *sched,
                        iv_reg: *iv_reg as u32,
                        end: 0,
                    });
                    self.team_ops(ops);
                    let end = self.prog.ops.len() as u32;
                    if let FlatOp::Distribute { end: e, .. } = &mut self.prog.ops[at] {
                        *e = end;
                    }
                }
                TeamOp::Parallel(p) => self.parallel(p),
            }
        }
    }

    fn parallel(&mut self, p: &ParallelOp) {
        let desc = p.desc.normalized(self.arch);
        let m = SimdMapping::new(self.config.threads_per_team, desc.simdlen, self.arch.warp_size);
        let ng = m.num_groups();
        let layout = SlotLayout::for_bytes(self.config.sharing_space_bytes, ng);
        let post_slots = omp_core::sharing::post_slots(self.nargs, self.team_regs) as u64;
        let stage_slots = omp_core::sharing::stage_slots(p.stage_regs);
        let gs = desc.simdlen;
        assert!(
            gs.is_power_of_two(),
            "simdlen {gs} divides the power-of-two warp size, so it must be a power of two"
        );
        let gpw = m.groups_per_warp();
        let meta = ParMeta {
            desc,
            nregs: p.nregs,
            stage_regs: p.stage_regs,
            post_slots,
            region_kind: if p.known {
                DispatchKind::Cascade { position: 0 }
            } else {
                DispatchKind::Indirect
            },
            team_fits: layout.team_fits(post_slots as u32),
            group_fits: layout.group_fits(stage_slots),
            stage_slots,
            num_groups: ng,
            gpw,
            gs,
            gs_shift: gs.trailing_zeros(),
            leader_lanes: (0..gpw).map(|k| k * gs).collect(),
            all_lanes: (0..self.arch.warp_size).collect(),
            groups: (0..ng).collect(),
            full_mask: LaneMask::contiguous(0, self.arch.warp_size),
            group_masks: (0..gpw).map(|k| LaneMask::contiguous(k * gs, gs)).collect(),
            sequential_simd: desc.sequential_simd(self.arch),
        };
        self.prog.pars.push(meta);
        let meta_i = self.prog.pars.len() as u32 - 1;
        let at = self.prog.ops.len();
        self.prog.ops.push(FlatOp::Parallel { meta: meta_i, end: 0 });
        self.thread_ops(&p.ops);
        let end = self.prog.ops.len() as u32;
        if let FlatOp::Parallel { end: e, .. } = &mut self.prog.ops[at] {
            *e = end;
        }
    }

    fn thread_ops(&mut self, ops: &[ThreadOp]) {
        for op in ops {
            match op {
                ThreadOp::Seq(id) => self.prog.ops.push(FlatOp::ThreadSeq(*id)),
                ThreadOp::For { trip, sched, iv_reg, across_teams, ops } => {
                    let trip = self.trip_src(*trip);
                    let at = self.prog.ops.len();
                    self.prog.ops.push(FlatOp::For {
                        trip,
                        sched: *sched,
                        iv_reg: *iv_reg as u32,
                        across_teams: *across_teams,
                        end: 0,
                    });
                    self.thread_ops(ops);
                    let end = self.prog.ops.len() as u32;
                    if let FlatOp::For { end: e, .. } = &mut self.prog.ops[at] {
                        *e = end;
                    }
                }
                ThreadOp::Simd { trip, body, known } => {
                    let meta = SimdMeta {
                        trip: self.trip_src(*trip),
                        body: FlatBody::Plain(*body),
                        kind: resolve_dispatch(self.reg.get_body(*body).1, *known),
                        form: self.reg.body_form(*body),
                    };
                    self.prog.simds.push(meta);
                    let i = self.prog.simds.len() as u32 - 1;
                    self.prog.ops.push(FlatOp::Simd { meta: i });
                }
                ThreadOp::SimdReduce { trip, body, known, dst_reg } => {
                    let meta = SimdMeta {
                        trip: self.trip_src(*trip),
                        body: FlatBody::Reduce(*body),
                        kind: resolve_dispatch(self.reg.get_red(*body).1, *known),
                        form: BodyForm::Lane,
                    };
                    self.prog.simds.push(meta);
                    let i = self.prog.simds.len() as u32 - 1;
                    self.prog.ops.push(FlatOp::SimdReduce { meta: i, dst_reg: *dst_reg as u32 });
                }
                ThreadOp::ReduceAcross { src_reg, dst_arg, dst_idx } => {
                    self.prog.ops.push(FlatOp::ReduceAcross {
                        src_reg: *src_reg as u32,
                        dst_arg: *dst_arg as u32,
                        dst_idx: *dst_idx,
                    });
                }
            }
        }
    }
}

/// §5.5 dispatch resolution, identical to the interpreter's rule.
fn resolve_dispatch(registry_pos: Option<u32>, known: bool) -> DispatchKind {
    match registry_pos {
        Some(position) if known => DispatchKind::Cascade { position },
        _ => DispatchKind::Indirect,
    }
}

/// Launch a lowered program on a device (the bytecode analog of
/// [`omp_core::exec::launch_target`]).
pub fn launch_flat(
    dev: &mut Device,
    cfg: &KernelConfig,
    prog: &FlatProgram,
    reg: &Registry,
    args: &[Slot],
) -> Result<LaunchStats, LaunchError> {
    let lcfg = cfg.launch_config(&dev.arch);
    assert_eq!(
        (prog.warp_size, prog.warp_sync, prog.nargs),
        (dev.arch.warp_size, dev.arch.warp_sync_supported, args.len()),
        "flat program was lowered for a different launch geometry or arch capability"
    );
    dev.launch(&lcfg, |tc| run_flat_block(tc, cfg, prog, reg, args))
}

/// Execute one team of a lowered program. Mirrors
/// [`omp_core::exec::run_target_block`] charge for charge.
pub fn run_flat_block(
    tc: &mut TeamCtx<'_>,
    cfg: &KernelConfig,
    prog: &FlatProgram,
    reg: &Registry,
    args: &[Slot],
) {
    let ws = tc.warp_size();
    assert!(
        cfg.threads_per_team.is_multiple_of(ws),
        "threads per team must be a whole number of warps"
    );
    let worker_warps = cfg.threads_per_team / ws;
    let main_warp = match cfg.teams_mode {
        ExecMode::Generic => Some(worker_warps),
        ExecMode::Spmd => None,
    };
    assert_eq!(
        tc.nwarps(),
        worker_warps + main_warp.map_or(0, |_| 1),
        "launch geometry does not match the kernel config"
    );
    let sharing = SharingSpace::reserve(&mut tc.smem, cfg.sharing_space_bytes);

    // __target_init (§5.2), identical to the interpreter.
    for w in 0..tc.nwarps() {
        tc.charge_alu(w, TARGET_INIT_CYCLES);
    }

    let trace = tc.tracing();
    let mut ex = FlatExec { tc, prog, reg, args, sharing, worker_warps, main_warp, trace };
    // Reuse one scratch arena per sim thread across blocks and launches: a
    // block's worth of working buffers costs ~10 allocations, which
    // dominates host time for small teams. A panicking kernel (simulated
    // OOB etc.) just drops the pooled arena; the next block starts fresh.
    let mut sc = SCRATCH.take().unwrap_or_default();
    let mut team_regs = std::mem::take(&mut sc.tregs);
    team_regs.clear();
    team_regs.resize(prog.team_regs, Slot(0));
    ex.team_range(&mut sc, 0, prog.ops.len() as u32, &mut team_regs);

    // __target_deinit: generic termination post + final barrier.
    if let Some(mw) = ex.main_warp {
        ex.tc.charge_smem_ops(mw, 1);
        ex.arrive_all();
        ex.tc.block_barrier();
    }
    sc.tregs = team_regs;
    SCRATCH.set(Some(sc));
}

thread_local! {
    /// Per-sim-thread [`Scratch`] arena, reused across blocks and launches:
    /// a device's block pool keeps its worker threads parked between
    /// launches, so this holds on the workers as well as on the launching
    /// thread.
    static SCRATCH: std::cell::Cell<Option<Box<Scratch>>> = const { std::cell::Cell::new(None) };
}

/// Reusable buffers: everything the tree walker allocates per round lives
/// here for the lifetime of the block instead.
#[derive(Default)]
struct Scratch {
    /// Lane list under construction (exec cohorts of subset rounds).
    lanes: Vec<u32>,
    /// Leader-lane list under construction.
    leaders: Vec<u32>,
    /// Per-group partial sums of the current `simd reduce`.
    partials: Vec<f64>,
    /// Per-group trip counts of the current `simd` op.
    strips: Vec<u64>,
    /// Register snapshot for redundant SPMD sequential execution.
    snap: Vec<Slot>,
    /// Scratch register file for non-committing lanes.
    sregs: Vec<Slot>,
    /// Pooled per-group register files of the current parallel region
    /// (taken at entry, restored at exit; parallel regions cannot nest).
    regs: Vec<Vec<Slot>>,
    /// Pooled global-fallback staging handles of the current region.
    fallback: Vec<Option<DPtr<u64>>>,
    /// Free lists for `For`-loop trip counts and subset lists (`For` ops
    /// nest, so each entry pops its own pair and pushes it back on exit).
    trips_pool: Vec<Vec<u64>>,
    sub_pool: Vec<Vec<u32>>,
    /// Pooled team-scope register file.
    tregs: Vec<Slot>,
}

struct FlatExec<'a, 'g> {
    tc: &'a mut TeamCtx<'g>,
    prog: &'a FlatProgram,
    reg: &'a Registry,
    args: &'a [Slot],
    sharing: SharingSpace,
    worker_warps: u32,
    main_warp: Option<u32>,
    /// An event trace is attached: record every super-step the tree walker
    /// records, including the ones that charge nothing (idle lanes, const
    /// and pure trip evaluations), so both engines emit one sequence.
    trace: bool,
}

impl<'a, 'g> FlatExec<'a, 'g> {
    fn ws(&self) -> u32 {
        self.tc.warp_size()
    }

    fn arrive_all(&mut self) {
        for w in 0..self.tc.nwarps() {
            self.tc.barrier_arrive(w);
        }
    }

    /// Open a simtcheck footprint bracket: while sanitizing, the declared
    /// footprint `lookup` finds, with the effects observed so far drained.
    /// Closed by validating what the call did against it.
    fn open_bracket(
        &mut self,
        lookup: impl FnOnce(&'a Registry) -> Option<&'a Footprint>,
    ) -> Option<&'a Footprint> {
        if !self.tc.sanitizing() {
            return None;
        }
        let fp = lookup(self.reg)?;
        let _ = self.tc.take_observed();
        Some(fp)
    }

    fn charge_team_cohort(&mut self, cycles: u64) {
        match self.main_warp {
            Some(mw) => self.tc.charge_alu(mw, cycles),
            None => {
                for w in 0..self.worker_warps {
                    self.tc.charge_alu(w, cycles);
                }
            }
        }
    }

    // ----- team level ------------------------------------------------

    fn team_range(&mut self, sc: &mut Scratch, start: u32, end: u32, team_regs: &mut Vec<Slot>) {
        let mut pc = start;
        while pc < end {
            match self.prog.ops[pc as usize] {
                FlatOp::TeamSeq(id) => {
                    self.team_seq(sc, id, team_regs);
                    pc += 1;
                }
                FlatOp::Distribute { trip, sched, iv_reg, end: dend } => {
                    let trip = self.team_trip(trip, team_regs);
                    let (who, n_who) = (self.tc.block_id as u64, self.tc.num_blocks as u64);
                    let mut r = 0u64;
                    while let Some(iv) = assign(sched, trip, who, n_who, r) {
                        if is_chunk_start(sched, r) {
                            let c = self.tc.cost().atomic_cycles;
                            self.charge_team_cohort(c);
                        }
                        self.charge_team_cohort(LOOP_OVERHEAD_CYCLES);
                        team_regs[iv_reg as usize] = Slot::from_u64(iv);
                        self.team_range(sc, pc + 1, dend, team_regs);
                        r += 1;
                    }
                    pc = dend;
                }
                FlatOp::Parallel { meta, end: pend } => {
                    self.run_parallel(sc, meta, pc + 1, pend, team_regs);
                    pc = pend;
                }
                _ => unreachable!("thread-level op at team scope"),
            }
        }
    }

    fn team_seq(&mut self, sc: &mut Scratch, id: SeqId, team_regs: &mut Vec<Slot>) {
        let fp = self.open_bracket(|r| r.seq_footprint(id));
        let before = fp.map(|_| team_regs.clone());
        let f = self.reg.get_seq(id);
        let args = self.args;
        match self.main_warp {
            Some(mw) => {
                self.tc.run_lanes(mw, &[0], |lane, _| {
                    let mut vm = VarsMut { args, outer: &[], regs: team_regs };
                    f(lane, &mut vm);
                });
            }
            None => {
                // SPMD: every thread executes redundantly; (0,0) commits.
                sc.snap.clear();
                sc.snap.extend_from_slice(team_regs);
                sc.sregs.clear();
                sc.sregs.extend_from_slice(&sc.snap);
                let snap = &sc.snap;
                let sregs = &mut sc.sregs;
                for w in 0..self.worker_warps {
                    self.tc.run_lanes(w, &self.prog.all_lanes, |lane, l| {
                        if w == 0 && l == 0 {
                            let mut vm = VarsMut { args, outer: &[], regs: team_regs };
                            f(lane, &mut vm);
                        } else {
                            sregs.copy_from_slice(snap);
                            let mut vm = VarsMut { args, outer: &[], regs: sregs };
                            f(lane, &mut vm);
                        }
                    });
                }
            }
        }
        if let (Some(fp), Some(before)) = (fp, before) {
            let obs = self.tc.take_observed();
            let func = format!("team seq #{}", id.0);
            validate_reg_writes(self.tc, &func, fp, &before, team_regs);
            validate_observed(self.tc, &func, fp, obs);
        }
    }

    /// Evaluate a team-scope trip source; the lane form replicates the
    /// interpreter's (uncharged for pure closures, fully charged for
    /// device-touching ones) cohort evaluation.
    fn team_trip(&mut self, src: TripSrc, team_regs: &[Slot]) -> u64 {
        let (f, mut out) = match src {
            TripSrc::Const(n) => (None, n),
            TripSrc::Pure(i) => {
                let v = Vars { args: self.args, outer: &[], regs: team_regs };
                (None, (self.prog.pures[i as usize])(&v))
            }
            TripSrc::Lane(id) => (Some(self.reg.get_trip(id)), 0),
        };
        if f.is_none() && !self.trace {
            return out;
        }
        // The lane path: a device-touching closure, or under a trace the
        // tree walker's chargeless super-steps for a const or pure trip.
        let args = self.args;
        let mut eval = |lane: &mut gpu_sim::Lane<'_, '_>, _| {
            if let Some(f) = f {
                out = f(lane, &Vars { args, outer: &[], regs: team_regs });
            }
        };
        match self.main_warp {
            Some(mw) => self.tc.run_lanes(mw, &[0], &mut eval),
            None => {
                for w in 0..self.worker_warps {
                    self.tc.run_lanes(w, &self.prog.all_lanes, &mut eval);
                }
            }
        }
        out
    }

    // ----- parallel regions -------------------------------------------

    fn run_parallel(
        &mut self,
        sc: &mut Scratch,
        meta_i: u32,
        body_start: u32,
        body_end: u32,
        team_regs: &[Slot],
    ) {
        let meta = &self.prog.pars[meta_i as usize];
        self.sharing.configure_groups(meta.num_groups);
        debug_assert_eq!(self.sharing.group_fits(meta.stage_slots), meta.group_fits);
        debug_assert_eq!(self.sharing.team_fits(meta.post_slots as u32), meta.team_fits);
        self.tc.counters.parallel_regions += 1;
        if self.tc.sanitizing() {
            self.tc.declare_sharing(self.sharing.declared_layout(meta.desc.simdlen));
        }

        let post_slots = meta.post_slots;
        let region_kind = meta.region_kind;
        match self.main_warp {
            Some(mw) => {
                self.tc.counters.state_machine_posts += 1;
                if meta.team_fits {
                    self.tc.charge_smem_ops(mw, post_slots);
                } else {
                    self.tc.charge_global_alloc(mw);
                    self.tc.charge_alu(mw, post_slots * 8);
                }
                self.arrive_all();
                self.tc.block_barrier();
                for w in 0..self.worker_warps {
                    self.tc.charge_alu(w, 2 * self.tc.cost().handshake_cycles);
                    self.tc.charge_smem_ops(w, post_slots);
                    self.tc.charge_dispatch(w, region_kind);
                }
            }
            None => {
                for w in 0..self.worker_warps {
                    self.tc.charge_dispatch(w, region_kind);
                }
            }
        }

        let ng = meta.num_groups as usize;
        let nregs = meta.nregs;
        let mut regs = std::mem::take(&mut sc.regs);
        if regs.len() < ng {
            regs.resize_with(ng, Vec::new);
        }
        for r in &mut regs[..ng] {
            r.clear();
            r.resize(nregs, Slot(0));
        }
        let mut fallback = std::mem::take(&mut sc.fallback);
        fallback.clear();
        fallback.resize(ng, None);

        let groups: &'a [u32] = &self.prog.pars[meta_i as usize].groups;
        self.thread_range(
            sc,
            body_start,
            body_end,
            meta_i,
            &mut regs[..ng],
            groups,
            team_regs,
            &mut fallback,
        );

        let meta = &self.prog.pars[meta_i as usize];
        // Termination post of the SIMD state machine — skipped on
        // legalized regions, which never started it (§5.4.1).
        if meta.desc.mode == ExecMode::Generic && !meta.sequential_simd {
            for w in 0..self.worker_warps {
                self.tc.charge_smem_ops(w, 1);
                self.tc.warp_sync(w);
            }
        }
        for f in &mut fallback {
            if let Some(seg) = f.take() {
                self.tc.free_shared_fallback(seg);
            }
        }
        sc.regs = regs;
        sc.fallback = fallback;
        self.arrive_all();
        self.tc.block_barrier();
    }

    // ----- thread level ------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn thread_range(
        &mut self,
        sc: &mut Scratch,
        start: u32,
        end: u32,
        meta_i: u32,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
        fallback: &mut [Option<DPtr<u64>>],
    ) {
        let mut pc = start;
        while pc < end {
            match self.prog.ops[pc as usize] {
                FlatOp::ThreadSeq(id) => {
                    self.thread_seq(sc, id, meta_i, regs, active, team_regs);
                    pc += 1;
                }
                FlatOp::For { trip, sched, iv_reg, across_teams, end: fend } => {
                    self.thread_trips(sc, trip, meta_i, regs, active, team_regs);
                    let mut trips = sc.trips_pool.pop().unwrap_or_default();
                    trips.clear();
                    trips.extend_from_slice(&sc.strips);
                    let meta = &self.prog.pars[meta_i as usize];
                    let ng = meta.num_groups;
                    let (who_base, n_who) = if across_teams {
                        (self.tc.block_id as u64 * ng as u64, ng as u64 * self.tc.num_blocks as u64)
                    } else {
                        (0, ng as u64)
                    };
                    let gpw = meta.gpw;
                    let mut r = 0u64;
                    let mut sub = sc.sub_pool.pop().unwrap_or_default();
                    loop {
                        sub.clear();
                        for &g in active {
                            if let Some(iv) =
                                assign(sched, trips[g as usize], who_base + g as u64, n_who, r)
                            {
                                regs[g as usize][iv_reg as usize] = Slot::from_u64(iv);
                                sub.push(g);
                            }
                        }
                        if sub.is_empty() {
                            break;
                        }
                        let atomic =
                            if is_chunk_start(sched, r) { self.tc.cost().atomic_cycles } else { 0 };
                        for (w, _) in WarpRuns::new(&sub, gpw) {
                            self.tc.charge_alu(w, LOOP_OVERHEAD_CYCLES + atomic);
                        }
                        self.thread_range(
                            sc,
                            pc + 1,
                            fend,
                            meta_i,
                            regs,
                            &sub,
                            team_regs,
                            fallback,
                        );
                        r += 1;
                    }
                    sc.sub_pool.push(sub);
                    sc.trips_pool.push(trips);
                    pc = fend;
                }
                FlatOp::Simd { meta } => {
                    self.run_simd(sc, meta, meta_i, regs, active, team_regs, fallback, 0);
                    pc += 1;
                }
                FlatOp::SimdReduce { meta, dst_reg } => {
                    self.run_simd(
                        sc,
                        meta,
                        meta_i,
                        regs,
                        active,
                        team_regs,
                        fallback,
                        dst_reg as usize,
                    );
                    pc += 1;
                }
                FlatOp::ReduceAcross { src_reg, dst_arg, dst_idx } => {
                    self.reduce_across(meta_i, regs, active, src_reg as usize, dst_arg, dst_idx);
                    pc += 1;
                }
                _ => unreachable!("team-level op at thread scope"),
            }
        }
    }

    fn thread_seq(
        &mut self,
        sc: &mut Scratch,
        id: SeqId,
        meta_i: u32,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
    ) {
        let meta = &self.prog.pars[meta_i as usize];
        let (gpw, gs, shift, spmd) =
            (meta.gpw, meta.gs, meta.gs_shift, meta.desc.mode == ExecMode::Spmd);
        let fp = self.open_bracket(|r| r.seq_footprint(id));
        let before: Option<Vec<Vec<Slot>>> =
            fp.map(|_| active.iter().map(|&g| regs[g as usize].clone()).collect());
        let f = self.reg.get_seq(id);
        let args = self.args;
        let gid_mask = gs - 1;
        for (w, wg) in WarpRuns::new(active, gpw) {
            let lanes = cohort_lanes(&mut sc.lanes, meta, spmd, w, wg);
            let g_base = w * gpw;
            let sregs = &mut sc.sregs;
            self.tc.run_lanes(w, lanes, |lane, l| {
                let g = (g_base + (l >> shift)) as usize;
                if l & gid_mask == 0 {
                    let mut vm = VarsMut { args, outer: team_regs, regs: &mut regs[g] };
                    f(lane, &mut vm);
                } else {
                    sregs.clear();
                    sregs.extend_from_slice(&regs[g]);
                    let mut vm = VarsMut { args, outer: team_regs, regs: sregs };
                    f(lane, &mut vm);
                }
            });
        }
        if let (Some(fp), Some(before)) = (fp, before) {
            let obs = self.tc.take_observed();
            let func = format!("seq #{}", id.0);
            for (before, &g) in before.iter().zip(active) {
                validate_reg_writes(self.tc, &func, fp, before, &regs[g as usize]);
            }
            validate_observed(self.tc, &func, fp, obs);
        }
    }

    /// Evaluate a thread-scope trip source for every active group into
    /// `sc.strips` (the interpreter's `thread_trips`, minus the lane
    /// machinery when the source is lane-free).
    fn thread_trips(
        &mut self,
        sc: &mut Scratch,
        src: TripSrc,
        meta_i: u32,
        regs: &[Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
    ) {
        let meta = &self.prog.pars[meta_i as usize];
        sc.strips.clear();
        sc.strips.resize(meta.num_groups as usize, 0);
        match src {
            TripSrc::Const(n) => {
                for &g in active {
                    sc.strips[g as usize] = n;
                }
            }
            TripSrc::Pure(i) => {
                let f = &self.prog.pures[i as usize];
                for &g in active {
                    let v = Vars { args: self.args, outer: team_regs, regs: &regs[g as usize] };
                    sc.strips[g as usize] = f(&v);
                }
            }
            TripSrc::Lane(_) => {}
        }
        // The lane path: a device-touching closure, or under a trace the
        // tree walker's chargeless super-steps for a const or pure trip.
        let f = match src {
            TripSrc::Lane(id) => Some(self.reg.get_trip(id)),
            _ if self.trace => None,
            _ => return,
        };
        let args = self.args;
        let (gpw, gs, shift) = (meta.gpw, meta.gs, meta.gs_shift);
        let spmd = meta.desc.mode == ExecMode::Spmd;
        let gid_mask = gs - 1;
        for (w, wg) in WarpRuns::new(active, gpw) {
            let lanes = cohort_lanes(&mut sc.lanes, meta, spmd, w, wg);
            let g_base = w * gpw;
            let strips = &mut sc.strips;
            self.tc.run_lanes(w, lanes, |lane, l| {
                if let Some(f) = f {
                    let g = (g_base + (l >> shift)) as usize;
                    let v = f(lane, &Vars { args, outer: team_regs, regs: &regs[g] });
                    if l & gid_mask == 0 {
                        strips[g] = v;
                    }
                }
            });
        }
    }

    fn reduce_across(
        &mut self,
        meta_i: u32,
        regs: &[Vec<Slot>],
        active: &[u32],
        src_reg: usize,
        dst_arg: u32,
        dst_idx: u64,
    ) {
        let total: f64 = active.iter().map(|&g| regs[g as usize][src_reg].as_f64()).sum();
        for w in 0..self.worker_warps {
            self.tc.charge_smem_ops(w, 1);
        }
        self.arrive_all();
        self.tc.block_barrier();
        let ng = self.prog.pars[meta_i as usize].num_groups as u64;
        self.tc.charge_smem_ops(0, ng.div_ceil(self.ws() as u64));
        let levels = 64 - ng.saturating_sub(1).leading_zeros() as u64;
        self.tc.charge_alu(0, levels * REDUCE_STEP_CYCLES);
        let args = self.args;
        self.tc.run_lanes(0, &[0], |lane, _| {
            let dst = args[dst_arg as usize].as_ptr::<f64>();
            lane.atomic_add_f64(dst, dst_idx, total);
        });
        self.arrive_all();
        self.tc.block_barrier();
    }

    // ----- simd loops ---------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn run_simd(
        &mut self,
        sc: &mut Scratch,
        simd_i: u32,
        meta_i: u32,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
        fallback: &mut [Option<DPtr<u64>>],
        dst_reg: usize,
    ) {
        let sm = &self.prog.simds[simd_i as usize];
        self.thread_trips(sc, sm.trip, meta_i, regs, active, team_regs);
        let trips = std::mem::take(&mut sc.strips);
        let mut partials = std::mem::take(&mut sc.partials);
        let meta = &self.prog.pars[meta_i as usize];
        partials.clear();
        partials.resize(meta.num_groups as usize, 0.0);

        let args = self.args;
        let gs = meta.gs as u64;
        let gpw = meta.gpw;
        let body = sm.body;
        let is_reduce = matches!(body, FlatBody::Reduce(_));
        let kind = sm.kind;
        let body_tag = match body {
            FlatBody::Plain(b) => b.0,
            FlatBody::Reduce(b) => b.0,
        };

        for (w, wg) in WarpRuns::new(active, gpw) {
            self.tc.counters.simd_loops += wg.len() as u64;

            // Group size 1: plain sequential loop per thread (§5.4).
            if gs == 1 {
                let lanes = active_lane_list(&mut sc.lanes, meta, w, wg, &trips, self.trace);
                self.exec_loop_lanes(
                    w,
                    lanes,
                    meta,
                    &trips,
                    regs,
                    team_regs,
                    &mut partials,
                    (body, sm.form),
                    Fetch::None,
                );
                continue;
            }

            match meta.desc.mode {
                ExecMode::Spmd => {
                    self.tc.charge_dispatch(w, kind);
                    let lanes = active_lane_list(&mut sc.lanes, meta, w, wg, &trips, self.trace);
                    self.exec_loop_lanes(
                        w,
                        lanes,
                        meta,
                        &trips,
                        regs,
                        team_regs,
                        &mut partials,
                        (body, sm.form),
                        Fetch::None,
                    );
                    let mask = warp_mask(meta, w, wg);
                    self.tc.warp_sync_masked(w, mask, mask);
                }
                ExecMode::Generic if meta.sequential_simd => {
                    // Legalized region (§5.4.1): sequential on each SIMD
                    // main, decided at lower time.
                    self.tc.counters.sequential_simd_fallbacks += wg.len() as u64;
                    let g_base = w * gpw;
                    if self.tc.sanitizing()
                        && body_footprint(self.reg, body).is_some_and(|fp| fp.barriers)
                    {
                        // Only the SIMD mains run, so the rest of each group
                        // never reaches the body's barrier (simtlint E-ARCH).
                        let missing = wg
                            .iter()
                            .flat_map(|&g| {
                                let leader = (g - g_base) * meta.gs;
                                leader + 1..leader + meta.gs
                            })
                            .collect();
                        self.tc.report_violation(gpu_sim::Violation::BarrierDivergence {
                            block: self.tc.block_id,
                            kind: gpu_sim::sanitize::BarrierKind::WarpSync { warp: w },
                            missing,
                        });
                    }
                    let leaders = leader_lane_list(&mut sc.leaders, meta, w, wg);
                    let shift = meta.gs_shift;
                    // Replay iterations in the state machine's issue order
                    // (each virtual lane's strided walk, lanes ascending):
                    // floating-point accumulation order — and so the
                    // host-visible bits — match the warp-synchronous
                    // backends exactly.
                    match body {
                        FlatBody::Plain(b) => match (sm.form, self.reg.get_body(b).0) {
                            (BodyForm::Lane, SimdFn::Lane(f)) => {
                                self.tc.run_lanes(w, leaders, |lane, l| {
                                    let g = (g_base + (l >> shift)) as usize;
                                    let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                                    for gid in 0..gs {
                                        let mut iv = gid;
                                        while iv < trips[g] {
                                            f(lane, iv, &vars);
                                            iv += gs;
                                        }
                                    }
                                });
                            }
                            (BodyForm::Warp, SimdFn::Warp(f)) => {
                                self.tc.run_lanes(w, leaders, |lane, l| {
                                    let g = g_base + (l >> shift);
                                    let group = [g];
                                    let vars = WarpVars::new(args, team_regs, regs, &group);
                                    for gid in 0..gs {
                                        let mut iv = gid;
                                        while iv < trips[g as usize] {
                                            warp_body_on_lane(f, lane, iv, &vars);
                                            iv += gs;
                                        }
                                    }
                                });
                            }
                            _ => unreachable!("{}", FORM_VERIFIED),
                        },
                        FlatBody::Reduce(b) => {
                            let (f, _) = self.reg.get_red(b);
                            let partials = &mut partials;
                            self.tc.run_lanes(w, leaders, |lane, l| {
                                let g = (g_base + (l >> shift)) as usize;
                                let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                                for gid in 0..gs {
                                    let mut iv = gid;
                                    while iv < trips[g] {
                                        partials[g] += f(lane, iv, &vars);
                                        iv += gs;
                                    }
                                }
                            });
                        }
                    }
                }
                ExecMode::Generic => {
                    let stage_slots = meta.stage_slots;
                    self.tc.counters.state_machine_posts += wg.len() as u64;
                    self.tc.counters.staged_slots += wg.len() as u64 * stage_slots as u64;
                    let fits = meta.group_fits;
                    let g_base = w * gpw;
                    let shift = meta.gs_shift;

                    let stage_regs = meta.stage_regs;
                    if fits {
                        let leaders = leader_lane_list(&mut sc.leaders, meta, w, wg);
                        let sharing = &self.sharing;
                        let trips = &trips;
                        self.tc.run_lanes(w, leaders, |lane, l| {
                            let g = g_base + (l >> shift);
                            let (off, _) = sharing.group_slice(g);
                            lane.smem_write_slot(off, 0, Slot::from_u32(body_tag));
                            lane.smem_write_slot(off, 1, Slot::from_u64(trips[g as usize]));
                            for (k, s) in regs[g as usize][..stage_regs].iter().enumerate() {
                                lane.smem_write_slot(off, 2 + k as u32, *s);
                            }
                        });
                    } else {
                        for &g in wg {
                            if fallback[g as usize].is_none() {
                                let seg =
                                    self.tc.alloc_shared_fallback::<u64>(w, stage_slots as usize);
                                fallback[g as usize] = Some(seg);
                            }
                        }
                        let leaders = leader_lane_list(&mut sc.leaders, meta, w, wg);
                        let trips = &trips;
                        let fallback = &*fallback;
                        self.tc.run_lanes(w, leaders, |lane, l| {
                            let g = (g_base + (l >> shift)) as usize;
                            let seg = fallback[g].expect("fallback allocated");
                            lane.write(seg, 0, body_tag as u64);
                            lane.write(seg, 1, trips[g]);
                            for (k, s) in regs[g][..stage_regs].iter().enumerate() {
                                lane.write(seg, 2 + k as u64, s.0);
                            }
                        });
                    }

                    let mask = warp_mask(meta, w, wg);
                    let hs = self.tc.cost().handshake_cycles;
                    self.tc.charge_alu(w, hs);
                    self.tc.warp_sync_masked(w, mask, mask);
                    self.tc.charge_dispatch(w, kind);
                    let lanes = group_lane_list(&mut sc.lanes, meta, w, wg);
                    let fetch = if fits {
                        Fetch::Smem(stage_slots)
                    } else {
                        Fetch::Global(stage_slots, fallback)
                    };
                    self.exec_loop_lanes(
                        w,
                        lanes,
                        meta,
                        &trips,
                        regs,
                        team_regs,
                        &mut partials,
                        (body, sm.form),
                        fetch,
                    );
                    self.tc.warp_sync_masked(w, mask, mask);
                }
            }

            if is_reduce && gs > 1 {
                let levels = 64 - (gs - 1).leading_zeros() as u64;
                self.tc.charge_alu(w, levels * REDUCE_STEP_CYCLES);
            }
        }

        if is_reduce {
            for &g in active {
                regs[g as usize][dst_reg] = Slot::from_f64(partials[g as usize]);
            }
        }

        sc.strips = trips;
        sc.partials = std::mem::take(&mut partials);
    }

    /// `__simd_loop` (Fig 8) over `lanes` of warp `w`: lane strides by the
    /// group size from its group id; generic workers fetch staged state.
    /// A warp-form body runs in warp mode ([`warp_rounds`]) unless its
    /// lanes must run one by one: under the sanitizer or an event trace,
    /// whose records follow lane order, or when workers fetch staged state
    /// first, which shifts their accesses' ordinals.
    #[allow(clippy::too_many_arguments)]
    fn exec_loop_lanes(
        &mut self,
        w: u32,
        lanes: &[u32],
        meta: &ParMeta,
        trips: &[u64],
        regs: &[Vec<Slot>],
        team_regs: &[Slot],
        partials: &mut [f64],
        (body, form): (FlatBody, BodyForm),
        fetch: Fetch<'_>,
    ) {
        let fp = self.open_bracket(|r| body_footprint(r, body));
        let args = self.args;
        let gs = meta.gs as u64;
        let shift = meta.gs_shift;
        let gid_mask = (meta.gs - 1) as u64;
        let g_base = w * meta.gpw;
        let sharing = &self.sharing;
        match body {
            FlatBody::Plain(b) => match (form, self.reg.get_body(b).0) {
                (BodyForm::Lane, SimdFn::Lane(f)) => {
                    self.tc.run_lanes(w, lanes, |lane, l| {
                        let g = (g_base + (l >> shift)) as usize;
                        let gid = l as u64 & gid_mask;
                        if gid != 0 {
                            fetch.fetch(lane, sharing, g as u32);
                        }
                        let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                        let mut iv = gid;
                        while iv < trips[g] {
                            f(lane, iv, &vars);
                            iv += gs;
                        }
                    });
                }
                (BodyForm::Warp, SimdFn::Warp(f))
                    if matches!(fetch, Fetch::None) && !self.trace && !self.tc.sanitizing() =>
                {
                    let vars = (args, team_regs, regs);
                    warp_rounds(self.tc, w, lanes, meta, trips, vars, f);
                }
                (BodyForm::Warp, SimdFn::Warp(f)) => {
                    self.tc.run_lanes(w, lanes, |lane, l| {
                        let g = g_base + (l >> shift);
                        let gid = l as u64 & gid_mask;
                        if gid != 0 {
                            fetch.fetch(lane, sharing, g);
                        }
                        let group = [g];
                        let vars = WarpVars::new(args, team_regs, regs, &group);
                        let mut iv = gid;
                        while iv < trips[g as usize] {
                            warp_body_on_lane(f, lane, iv, &vars);
                            iv += gs;
                        }
                    });
                }
                _ => unreachable!("{}", FORM_VERIFIED),
            },
            FlatBody::Reduce(b) => {
                let (f, _) = self.reg.get_red(b);
                self.tc.run_lanes(w, lanes, |lane, l| {
                    let g = (g_base + (l >> shift)) as usize;
                    let gid = l as u64 & gid_mask;
                    if gid != 0 {
                        fetch.fetch(lane, sharing, g as u32);
                    }
                    let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                    let mut iv = gid;
                    while iv < trips[g] {
                        partials[g] += f(lane, iv, &vars);
                        iv += gs;
                    }
                });
            }
        }
        if let Some(fp) = fp {
            let obs = self.tc.take_observed();
            let func = match body {
                FlatBody::Plain(b) => format!("simd body #{}", b.0),
                FlatBody::Reduce(b) => format!("reduce body #{}", b.0),
            };
            validate_observed(self.tc, &func, fp, obs);
        }
    }
}

/// Why a `simd` op's baked body form always matches its registry entry.
const FORM_VERIFIED: &str = "the verifier checks each simd op's body form against the registry";

/// A warp-form body's `__simd_loop` over `lanes` of warp `w`, as one
/// [`TeamCtx::run_warp`] super-step: in round `r` the lanes with
/// `gid + r·gs < trip` of their group run the body together, in ascending
/// lane order. A lane active in round `r` was active in every earlier
/// round, which `run_warp` relies on. `vars` holds the payload, the team
/// registers and every group's registers.
fn warp_rounds(
    tc: &mut TeamCtx<'_>,
    w: u32,
    lanes: &[u32],
    meta: &ParMeta,
    trips: &[u64],
    vars: (&[Slot], &[Slot], &[Vec<Slot>]),
    f: &WarpBodyFn,
) {
    let n_lanes = lanes.len();
    let gid_mask = (meta.gs - 1) as u64;
    let g_base = w * meta.gpw;
    // Each lane's group, first iteration and trip count.
    let mut group = [0u32; MAX_LANES];
    let mut first = [0u64; MAX_LANES];
    let mut trip = [0u64; MAX_LANES];
    for (k, &l) in lanes.iter().enumerate() {
        group[k] = g_base + (l >> meta.gs_shift);
        first[k] = l as u64 & gid_mask;
        trip[k] = trips[group[k] as usize];
    }
    let gs = meta.gs as u64;
    let mut ivs = [0u64; MAX_LANES];
    let mut groups = [0u32; MAX_LANES];
    tc.run_warp(w, n_lanes as u32, |rounds| {
        let mut step = 0u64;
        loop {
            let mut n = 0;
            for k in 0..n_lanes {
                let iv = first[k] + step;
                if iv < trip[k] {
                    ivs[n] = iv;
                    groups[n] = group[k];
                    n += 1;
                }
            }
            if n == 0 {
                break;
            }
            let (args, outer, regs) = vars;
            let round_vars = WarpVars::new(args, outer, regs, &groups[..n]);
            f(rounds.round(n), &ivs[..n], &round_vars);
            step += gs;
        }
    });
}

/// The declared footprint of a simd body, if any.
fn body_footprint(reg: &Registry, body: FlatBody) -> Option<&Footprint> {
    match body {
        FlatBody::Plain(b) => reg.body_footprint(b),
        FlatBody::Reduce(b) => reg.red_footprint(b),
    }
}

/// Iterate a sorted active-group list as contiguous per-warp runs, in
/// ascending warp order — the allocation-free equivalent of the
/// interpreter's `groups_by_warp` (groups are contiguous per warp, so a
/// sorted list decomposes into runs).
struct WarpRuns<'s> {
    sub: &'s [u32],
    gpw: u32,
    i: usize,
}

impl<'s> WarpRuns<'s> {
    fn new(sub: &'s [u32], gpw: u32) -> WarpRuns<'s> {
        debug_assert!(sub.windows(2).all(|p| p[0] < p[1]), "active groups must be ascending");
        WarpRuns { sub, gpw, i: 0 }
    }
}

impl<'s> Iterator for WarpRuns<'s> {
    type Item = (u32, &'s [u32]);

    fn next(&mut self) -> Option<(u32, &'s [u32])> {
        if self.i >= self.sub.len() {
            return None;
        }
        let w = self.sub[self.i] / self.gpw;
        let start = self.i;
        while self.i < self.sub.len() && self.sub[self.i] / self.gpw == w {
            self.i += 1;
        }
        Some((w, &self.sub[start..self.i]))
    }
}

/// Lanes of the cohort that executes thread-level code (leaders in generic
/// mode, whole groups in SPMD), built into `buf` unless the full-warp
/// precomputed list applies.
fn cohort_lanes<'s>(
    buf: &'s mut Vec<u32>,
    meta: &'s ParMeta,
    spmd: bool,
    w: u32,
    wg: &[u32],
) -> &'s [u32] {
    if spmd {
        group_lane_list(buf, meta, w, wg)
    } else {
        leader_lane_list(buf, meta, w, wg)
    }
}

/// All lanes of the given groups of warp `w` (group-major, ascending —
/// the interpreter's `group_lanes` order).
fn group_lane_list<'s>(buf: &'s mut Vec<u32>, meta: &'s ParMeta, w: u32, wg: &[u32]) -> &'s [u32] {
    if wg.len() == meta.gpw as usize {
        return &meta.all_lanes;
    }
    let base = w * meta.gpw;
    buf.clear();
    for &g in wg {
        let leader = (g - base) * meta.gs;
        buf.extend(leader..leader + meta.gs);
    }
    buf
}

/// Lanes of the given groups that do at least one loop iteration. Lanes
/// whose `gid >= trips[g]` never enter the body and have no staged fetch
/// (the fetch-free paths only), so they record nothing through the lane
/// machinery: dropping them from the cohort leaves every statistic —
/// per-lane maxima, sectors, bank conflicts, L1 state — bit-identical,
/// while skipping the per-lane visit cost entirely. The skip also keeps
/// every sanitizer verdict: an idle lane makes no access to check. Only an
/// event trace sees it, in `SuperStep.lanes`, so a traced block keeps the
/// full cohort.
fn active_lane_list<'s>(
    buf: &'s mut Vec<u32>,
    meta: &'s ParMeta,
    w: u32,
    wg: &[u32],
    trips: &[u64],
    trace: bool,
) -> &'s [u32] {
    if trace {
        return group_lane_list(buf, meta, w, wg);
    }
    let gs = meta.gs as u64;
    if wg.len() == meta.gpw as usize && wg.iter().all(|&g| trips[g as usize] >= gs) {
        return &meta.all_lanes;
    }
    let base = w * meta.gpw;
    buf.clear();
    for &g in wg {
        let leader = (g - base) * meta.gs;
        let live = trips[g as usize].min(gs) as u32;
        buf.extend(leader..leader + live);
    }
    buf
}

/// Leader lanes of the given groups of warp `w`.
fn leader_lane_list<'s>(buf: &'s mut Vec<u32>, meta: &'s ParMeta, w: u32, wg: &[u32]) -> &'s [u32] {
    if wg.len() == meta.gpw as usize {
        return &meta.leader_lanes;
    }
    let base = w * meta.gpw;
    buf.clear();
    for &g in wg {
        buf.push((g - base) * meta.gs);
    }
    buf
}

/// Warp sync mask of the given groups (union of their simdmasks).
fn warp_mask(meta: &ParMeta, w: u32, wg: &[u32]) -> LaneMask {
    if wg.len() == meta.gpw as usize {
        return meta.full_mask;
    }
    let base = w * meta.gpw;
    wg.iter().fold(LaneMask::EMPTY, |acc, &g| acc.or(meta.group_masks[(g - base) as usize]))
}

/// How simd workers fetch staged loop state (Fig 6), flat flavor.
enum Fetch<'f> {
    None,
    Smem(u32),
    Global(u32, &'f [Option<DPtr<u64>>]),
}

impl Fetch<'_> {
    #[inline]
    fn fetch(&self, lane: &mut gpu_sim::Lane<'_, '_>, sharing: &SharingSpace, g: u32) {
        match self {
            Fetch::None => {}
            Fetch::Smem(slots) => {
                let (off, _) = sharing.group_slice(g);
                for k in 0..*slots {
                    lane.smem_read_slot(off, k);
                }
            }
            Fetch::Global(slots, fallback) => {
                if let Some(seg) = fallback[g as usize] {
                    for k in 0..*slots {
                        lane.read(seg, k as u64);
                    }
                }
            }
        }
    }
}
