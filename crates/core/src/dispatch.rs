//! Outlined-function registry and dispatch accounting.
//!
//! Outlined regions are passed to the runtime *by function pointer*. The
//! paper (§5.5) explains that LLVM/Clang avoids the cost of the resulting
//! indirect calls with a front-end static analysis that builds an
//! **if-cascade** over the known outlined regions — like a C `switch` over
//! function pointers — falling back to a true indirect call for regions the
//! translation unit cannot see.
//!
//! The [`Registry`] is our module table of outlined functions. Each entry
//! records whether it is *known* (reachable through the cascade) and, if so,
//! its **position** in the cascade: the compare chain is linear, so a body
//! that registered later sits behind more compares and pays more per
//! dispatch. The runtime interpreter charges
//! [`gpu_sim::cost::CostModel::cascade_dispatch_cycles`] plus
//! [`gpu_sim::cost::CostModel::cascade_level_cycles`] × position for known
//! entries, or [`gpu_sim::cost::CostModel::indirect_call_cycles`] for the
//! fallback indirect call, on every dispatch.

use std::sync::Arc;

use gpu_sim::{Lane, ObservedEffects, Slot, TeamCtx, Violation, Warp};

use crate::plan::{BodyId, RedId, SeqId, TripId, Vars, VarsMut, WarpVars};

/// Thread-sequential chunk: arbitrary lane work plus register updates.
pub type SeqFn = Box<dyn Fn(&mut Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync>;
/// Trip-count callback (§4.1: "1) to generate the trip count of the loop").
pub type TripFn = Box<dyn Fn(&mut Lane<'_, '_>, &Vars<'_>) -> u64 + Send + Sync>;
/// Lane-free trip-count callback: computes the trip count from variable
/// scopes alone, touching no device state and charging no cycles. The
/// tree-walk interpreter still evaluates these through the lane path (the
/// wrapper ignores its lane), so behavior is unchanged; the bytecode
/// executor evaluates them directly, skipping the per-evaluation lane
/// machinery — which is only sound *because* purity is guaranteed by the
/// signature.
pub type PureTripFn = Arc<dyn Fn(&Vars<'_>) -> u64 + Send + Sync>;
/// Outlined loop body (§4.1: "2) to generate the body of the loop"); invoked
/// once per iteration with the iteration number, like Fig 8's
/// `WorkFn(omp_iv, Args)`.
pub type BodyFn = Box<dyn Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync>;
/// Warp-form loop body: invoked once per round of a simd loop with the
/// round's active lanes, their iterations (`ivs[l]` is active lane `l`'s)
/// and their scopes. Every access covers every active lane (see
/// [`gpu_sim::Warp`]), so the body cannot branch per lane; its lanes'
/// iterations must not depend on each other, since the engine may run the
/// lanes round by round or one after another. Atomics and shared memory
/// stay in the per-lane form ([`BodyFn`]).
pub type WarpBodyFn = Box<dyn Fn(&mut Warp<'_, '_>, &[u64], &WarpVars<'_>) + Send + Sync>;
/// Reducing loop body: returns the iteration's additive contribution.
pub type RedFn = Box<dyn Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) -> f64 + Send + Sync>;

/// Declared effect footprint of an outlined function.
///
/// Outlined bodies are opaque Rust closures, so a static analysis cannot
/// inspect them the way OpenMPOpt inspects LLVM IR. A registration may
/// instead *declare* what the closure touches; simtlint consumes the
/// declaration (e.g. to prove a region SPMD-izable) and simtcheck validates
/// it at runtime — static claims are checked, not trusted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Kernel-arg slots read (indices into the launch `args`).
    pub args_read: Vec<usize>,
    /// Kernel-arg slots whose pointed-to memory is written.
    pub args_written: Vec<usize>,
    /// Scope registers read.
    pub regs_read: Vec<usize>,
    /// Scope registers written.
    pub regs_written: Vec<usize>,
    /// Whether the function performs atomic RMW operations.
    pub atomics: bool,
    /// Whether the function contains its own barriers.
    pub barriers: bool,
    /// Sharing-space slots written (absolute slot indices from the base of
    /// the space). Drives the static race detector (E-RACE).
    pub smem_written: Vec<u32>,
    /// Sharing-space slots read (absolute slot indices).
    pub smem_read: Vec<u32>,
}

impl Footprint {
    /// Empty footprint (reads/writes nothing).
    pub fn new() -> Footprint {
        Footprint::default()
    }

    /// Declare kernel-arg slots read.
    pub fn reads_args(mut self, idx: &[usize]) -> Self {
        self.args_read.extend_from_slice(idx);
        self
    }

    /// Declare kernel-arg slots written through.
    pub fn writes_args(mut self, idx: &[usize]) -> Self {
        self.args_written.extend_from_slice(idx);
        self
    }

    /// Declare scope registers read.
    pub fn reads_regs(mut self, idx: &[usize]) -> Self {
        self.regs_read.extend_from_slice(idx);
        self
    }

    /// Declare scope registers written.
    pub fn writes_regs(mut self, idx: &[usize]) -> Self {
        self.regs_written.extend_from_slice(idx);
        self
    }

    /// Declare atomic RMW use.
    pub fn uses_atomics(mut self) -> Self {
        self.atomics = true;
        self
    }

    /// Declare barrier use.
    pub fn uses_barriers(mut self) -> Self {
        self.barriers = true;
        self
    }

    /// Declare sharing-space slots written (absolute slot indices).
    pub fn writes_smem(mut self, slots: &[u32]) -> Self {
        self.smem_written.extend_from_slice(slots);
        self
    }

    /// Declare sharing-space slots read (absolute slot indices).
    pub fn reads_smem(mut self, slots: &[u32]) -> Self {
        self.smem_read.extend_from_slice(slots);
        self
    }

    /// Whether the declared effects are safe to execute redundantly:
    /// nothing outside scope registers is written, no atomics, no barriers,
    /// no shared-memory writes. (Register writes are private per executing
    /// thread/group, so they do not block SPMD-ization; a shared-memory
    /// write executed redundantly by every lane is exactly the race E-RACE
    /// exists to reject.)
    pub fn is_pure(&self) -> bool {
        self.args_written.is_empty()
            && !self.atomics
            && !self.barriers
            && self.smem_written.is_empty()
    }
}

/// Report every register `func` changed between `before` and `after` that
/// its footprint does not list in `regs_written`. Both engines call this
/// (only while sanitizing, for footprint-declared functions): the static
/// analysis *trusts* these declarations when it SPMD-izes, so simtcheck
/// verifies them dynamically.
pub fn validate_reg_writes(
    tc: &mut TeamCtx<'_>,
    func: &str,
    fp: &Footprint,
    before: &[Slot],
    after: &[Slot],
) {
    let block = tc.block_id;
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        if b.as_u64() != a.as_u64() && !fp.regs_written.contains(&i) {
            tc.report_violation(Violation::FootprintViolation {
                block,
                func: func.to_string(),
                detail: format!(
                    "wrote register {i}, which is not in its declared regs_written {:?}",
                    fp.regs_written
                ),
            });
        }
    }
}

/// Report global-memory effects `func` performed (drained with
/// [`TeamCtx::take_observed`]) that its footprint does not declare.
pub fn validate_observed(tc: &mut TeamCtx<'_>, func: &str, fp: &Footprint, obs: ObservedEffects) {
    let block = tc.block_id;
    if obs.global_writes && fp.args_written.is_empty() {
        tc.report_violation(Violation::FootprintViolation {
            block,
            func: func.to_string(),
            detail: "performed global-memory writes but declares no args_written".into(),
        });
    }
    if obs.global_atomics && !fp.atomics {
        tc.report_violation(Violation::FootprintViolation {
            block,
            func: func.to_string(),
            detail: "performed atomic RMW but does not declare atomics".into(),
        });
    }
}

/// A registered simd body in one of its two forms.
pub enum SimdFn {
    /// Per-lane: one call per lane per iteration.
    Lane(BodyFn),
    /// Warp form: one call per round for the round's active lanes.
    Warp(WarpBodyFn),
}

/// The form of a registered simd body, which the bytecode lowering bakes
/// into each `simd` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BodyForm {
    /// [`SimdFn::Lane`].
    Lane,
    /// [`SimdFn::Warp`].
    Warp,
}

impl SimdFn {
    /// This body's form.
    pub fn form(&self) -> BodyForm {
        match self {
            SimdFn::Lane(_) => BodyForm::Lane,
            SimdFn::Warp(_) => BodyForm::Warp,
        }
    }
}

/// Run a warp-form body's iteration `iv` on one lane, in lane mode: its
/// accesses are `lane`'s own ([`Warp::lane`]), and `vars` holds the
/// lane's scopes as active lane 0. The engines run a warp-form body this
/// way wherever lanes run one after another: the tree walker always, the
/// bytecode engine under the sanitizer or an event trace, when workers
/// fetch staged state, and in sequential-simd legalization.
#[inline(always)]
pub fn warp_body_on_lane(f: &WarpBodyFn, lane: &mut Lane<'_, '_>, iv: u64, vars: &WarpVars<'_>) {
    f(&mut Warp::lane(lane), std::slice::from_ref(&iv), vars);
}

/// Static metadata about a registered trip-count callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TripMeta {
    /// Whether the trip count is the same for every worker (SPMD-eligible).
    pub uniform: bool,
    /// Compile-time-known constant value, when registered via
    /// [`Registry::trip_const`].
    pub konst: Option<u64>,
}

/// Module-level table of outlined functions.
///
/// Cascade-known bodies and reducing bodies share one compare chain: each
/// known registration takes the next **cascade position** (0, 1, 2, …) in
/// registration order, mirroring how the front end emits one if-cascade per
/// module over every outlined region it can see. `body_extern` entries take
/// no position — they dispatch through the indirect-call fallback.
#[derive(Default)]
pub struct Registry {
    seqs: Vec<(SeqFn, Option<Footprint>)>,
    trips: Vec<(TripFn, TripMeta, Option<PureTripFn>)>,
    bodies: Vec<(SimdFn, Option<u32>, Option<Footprint>)>,
    reds: Vec<(RedFn, Option<u32>, Option<Footprint>)>,
    cascade_len: u32,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a thread-sequential chunk (no declared footprint — the
    /// static analysis must treat its effects conservatively).
    pub fn seq(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) -> SeqId {
        self.seqs.push((Box::new(f), None));
        SeqId(self.seqs.len() as u32 - 1)
    }

    /// Register a thread-sequential chunk with a declared effect footprint.
    pub fn seq_with_footprint(
        &mut self,
        fp: Footprint,
        f: impl Fn(&mut Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) -> SeqId {
        self.seqs.push((Box::new(f), Some(fp)));
        SeqId(self.seqs.len() as u32 - 1)
    }

    /// Register a trip-count callback (uniform across workers).
    pub fn trip(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, &Vars<'_>) -> u64 + Send + Sync + 'static,
    ) -> TripId {
        self.trip_with(f, true)
    }

    /// Register a trip-count callback with an explicit uniformity claim.
    pub fn trip_with(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, &Vars<'_>) -> u64 + Send + Sync + 'static,
        uniform: bool,
    ) -> TripId {
        self.trips.push((Box::new(f), TripMeta { uniform, konst: None }, None));
        TripId(self.trips.len() as u32 - 1)
    }

    /// Register a lane-free trip-count callback. The interpreter runs it
    /// through the ordinary lane path (so execution and charging are
    /// identical to [`Registry::trip_with`]); the bytecode executor
    /// evaluates it directly.
    pub fn trip_pure(
        &mut self,
        f: impl Fn(&Vars<'_>) -> u64 + Send + Sync + 'static,
        uniform: bool,
    ) -> TripId {
        let pure: PureTripFn = Arc::new(f);
        let lane_view = Arc::clone(&pure);
        self.trips.push((
            Box::new(move |_, v| lane_view(v)),
            TripMeta { uniform, konst: None },
            Some(pure),
        ));
        TripId(self.trips.len() as u32 - 1)
    }

    /// Register a constant trip count.
    pub fn trip_const(&mut self, n: u64) -> TripId {
        self.trips.push((
            Box::new(move |_, _| n),
            TripMeta { uniform: true, konst: Some(n) },
            Some(Arc::new(move |_: &Vars<'_>| n)),
        ));
        TripId(self.trips.len() as u32 - 1)
    }

    /// Take the next slot in the module's linear if-cascade.
    fn next_cascade_position(&mut self) -> u32 {
        let p = self.cascade_len;
        self.cascade_len += 1;
        p
    }

    /// Register an outlined loop body reachable through the if-cascade.
    pub fn body(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) -> BodyId {
        let pos = self.next_cascade_position();
        self.bodies.push((SimdFn::Lane(Box::new(f)), Some(pos), None));
        BodyId(self.bodies.len() as u32 - 1)
    }

    /// Register a warp-form loop body reachable through the if-cascade
    /// (see [`WarpBodyFn`]).
    pub fn body_warp(
        &mut self,
        f: impl Fn(&mut Warp<'_, '_>, &[u64], &WarpVars<'_>) + Send + Sync + 'static,
    ) -> BodyId {
        let pos = self.next_cascade_position();
        self.bodies.push((SimdFn::Warp(Box::new(f)), Some(pos), None));
        BodyId(self.bodies.len() as u32 - 1)
    }

    /// Register a cascade-known loop body with a declared effect footprint.
    pub fn body_with_footprint(
        &mut self,
        fp: Footprint,
        f: impl Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) -> BodyId {
        let pos = self.next_cascade_position();
        self.bodies.push((SimdFn::Lane(Box::new(f)), Some(pos), Some(fp)));
        BodyId(self.bodies.len() as u32 - 1)
    }

    /// Register an outlined loop body that is *not* in the cascade (e.g.
    /// defined in another translation unit, §5.5) — dispatches pay the
    /// indirect-call cost.
    pub fn body_extern(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) -> BodyId {
        self.bodies.push((SimdFn::Lane(Box::new(f)), None, None));
        BodyId(self.bodies.len() as u32 - 1)
    }

    /// Register a reducing loop body (cascade-known).
    pub fn red(
        &mut self,
        f: impl Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) -> f64 + Send + Sync + 'static,
    ) -> RedId {
        let pos = self.next_cascade_position();
        self.reds.push((Box::new(f), Some(pos), None));
        RedId(self.reds.len() as u32 - 1)
    }

    /// Register a reducing loop body with a declared effect footprint.
    pub fn red_with_footprint(
        &mut self,
        fp: Footprint,
        f: impl Fn(&mut Lane<'_, '_>, u64, &Vars<'_>) -> f64 + Send + Sync + 'static,
    ) -> RedId {
        let pos = self.next_cascade_position();
        self.reds.push((Box::new(f), Some(pos), Some(fp)));
        RedId(self.reds.len() as u32 - 1)
    }

    /// Look up a sequential chunk.
    pub fn get_seq(&self, id: SeqId) -> &SeqFn {
        &self.seqs[id.0 as usize].0
    }

    /// Declared footprint of a sequential chunk, if any.
    pub fn seq_footprint(&self, id: SeqId) -> Option<&Footprint> {
        self.seqs[id.0 as usize].1.as_ref()
    }

    /// Look up a trip-count callback.
    pub fn get_trip(&self, id: TripId) -> &TripFn {
        &self.trips[id.0 as usize].0
    }

    /// Static metadata of a trip-count callback.
    pub fn trip_meta(&self, id: TripId) -> TripMeta {
        self.trips[id.0 as usize].1
    }

    /// The lane-free form of a trip-count callback, when it has one
    /// (registered via [`Registry::trip_pure`] / [`Registry::trip_const`]).
    pub fn pure_trip(&self, id: TripId) -> Option<&PureTripFn> {
        self.trips[id.0 as usize].2.as_ref()
    }

    /// Look up a loop body and its cascade position (`Some(p)` for a known
    /// entry `p` compares deep in the chain, `None` for an extern entry
    /// reached through the indirect-call fallback).
    pub fn get_body(&self, id: BodyId) -> (&SimdFn, Option<u32>) {
        let (f, pos, _) = &self.bodies[id.0 as usize];
        (f, *pos)
    }

    /// The form of a loop body.
    pub fn body_form(&self, id: BodyId) -> BodyForm {
        self.bodies[id.0 as usize].0.form()
    }

    /// Declared footprint of a loop body, if any.
    pub fn body_footprint(&self, id: BodyId) -> Option<&Footprint> {
        self.bodies[id.0 as usize].2.as_ref()
    }

    /// Look up a reducing body and its cascade position (see
    /// [`Registry::get_body`]).
    pub fn get_red(&self, id: RedId) -> (&RedFn, Option<u32>) {
        let (f, pos, _) = &self.reds[id.0 as usize];
        (f, *pos)
    }

    /// Declared footprint of a reducing body, if any.
    pub fn red_footprint(&self, id: RedId) -> Option<&Footprint> {
        self.reds[id.0 as usize].2.as_ref()
    }

    /// Number of registered loop bodies (diagnostics).
    pub fn num_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// Length of the module's if-cascade: how many compare levels the
    /// indirect-call fallback sits behind.
    pub fn cascade_len(&self) -> u32 {
        self.cascade_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut r = Registry::new();
        let t0 = r.trip_const(10);
        let t1 = r.trip_const(20);
        assert_eq!(t0, TripId(0));
        assert_eq!(t1, TripId(1));
        let b0 = r.body(|_, _, _| {});
        let b1 = r.body_extern(|_, _, _| {});
        assert_eq!(b0, BodyId(0));
        assert_eq!(b1, BodyId(1));
        assert_eq!(r.num_bodies(), 2);
        assert!(r.get_body(b0).1.is_some(), "body() entries are cascade-known");
        assert!(r.get_body(b1).1.is_none(), "body_extern() entries are not");
    }

    #[test]
    fn cascade_positions_follow_registration_order_across_kinds() {
        // Bodies and reducing bodies share one linear compare chain; extern
        // entries never occupy a level of it.
        let mut r = Registry::new();
        let b0 = r.body(|_, _, _| {});
        let x = r.body_extern(|_, _, _| {});
        let rd = r.red(|_, _, _| 0.0);
        let b1 = r.body_with_footprint(Footprint::new(), |_, _, _| {});
        let rd1 = r.red_with_footprint(Footprint::new(), |_, _, _| 0.0);
        assert_eq!(r.get_body(b0).1, Some(0));
        assert_eq!(r.get_body(x).1, None);
        assert_eq!(r.get_red(rd).1, Some(1));
        assert_eq!(r.get_body(b1).1, Some(2));
        assert_eq!(r.get_red(rd1).1, Some(3));
        assert_eq!(r.cascade_len(), 4);
    }

    #[test]
    fn trip_meta_tracks_uniformity_and_constants() {
        let mut r = Registry::new();
        let tc = r.trip_const(10);
        let tu = r.trip(|_, _| 5);
        let tv = r.trip_with(|_, _| 5, false);
        assert_eq!(r.trip_meta(tc), TripMeta { uniform: true, konst: Some(10) });
        assert_eq!(r.trip_meta(tu), TripMeta { uniform: true, konst: None });
        assert_eq!(r.trip_meta(tv), TripMeta { uniform: false, konst: None });
    }

    #[test]
    fn pure_trips_expose_lane_free_form() {
        let mut r = Registry::new();
        let tc = r.trip_const(10);
        let tp = r.trip_pure(|v| v.args.len() as u64, true);
        let tl = r.trip(|_, _| 5);
        assert!(r.pure_trip(tc).is_some());
        assert!(r.pure_trip(tp).is_some());
        assert!(r.pure_trip(tl).is_none(), "lane trips have no pure form");
        assert_eq!(r.trip_meta(tp), TripMeta { uniform: true, konst: None });
        // The pure and lane views compute the same value.
        let vars = Vars { args: &[], outer: &[], regs: &[] };
        assert_eq!(r.pure_trip(tc).unwrap()(&vars), 10);
        assert_eq!(r.pure_trip(tp).unwrap()(&vars), 0);
    }

    #[test]
    fn footprints_are_stored_and_purity_follows_the_rules() {
        let mut r = Registry::new();
        let s0 = r.seq(|_, _| {});
        let fp = Footprint::new().reads_args(&[0]).writes_regs(&[1]);
        let s1 = r.seq_with_footprint(fp.clone(), |_, _| {});
        assert!(r.seq_footprint(s0).is_none());
        assert_eq!(r.seq_footprint(s1), Some(&fp));
        assert!(fp.is_pure(), "reg writes and arg reads are redundancy-safe");
        assert!(!Footprint::new().writes_args(&[0]).is_pure());
        assert!(!Footprint::new().uses_atomics().is_pure());
        assert!(!Footprint::new().uses_barriers().is_pure());
        let b = r.body_with_footprint(Footprint::new().writes_args(&[1]), |_, _, _| {});
        assert!(!r.body_footprint(b).unwrap().is_pure());
        let rd = r.red_with_footprint(Footprint::new().reads_args(&[0]), |_, _, _| 0.0);
        assert!(r.red_footprint(rd).unwrap().is_pure());
    }
}
