//! Fixpoint dataflow / abstract interpretation over the plan IR.
//!
//! simtlint's first generation tracked register initialization with an
//! ad-hoc `Vec<bool>` and could only reason about trip counts that were
//! literal constants. This module replaces that with a small abstract
//! interpretation framework the lint walk (and the dead-stage shrink pass)
//! are built on:
//!
//! * [`Interval`] — an inclusive `[lo, hi]` range lattice over `u64`
//!   values: trip counts, induction variables, staging-slot arithmetic.
//!   Joins widen, arithmetic saturates, and [`Interval::fits`] turns a
//!   capacity comparison into a three-valued [`Proof`].
//! * [`Written`] — the three-valued initialization lattice
//!   (`No < Maybe < Yes`) for reaching-definitions over scope registers: a
//!   write under a loop whose trip interval contains zero only *may*
//!   reach the loop exit.
//! * [`lfp`] — a bounded least-fixpoint driver for any [`Lattice`] state.
//!   The plan IR has structured control flow only (counted loops, no
//!   arbitrary back edges), so every transfer function here is
//!   join-monotone and converges in a handful of iterations; `lfp` widens
//!   to the supplied `top` if a pathological transfer fails to settle.
//!
//! The consumers live next door: `lint.rs` runs the interval-powered
//! verification walk and the static race detector on top of these
//! lattices, and `shrink_dead_stages` is the builder pass that trims
//! generic-mode staging to the registers some `simd` body actually reads.

use omp_core::dispatch::{Registry, TripMeta};
use omp_core::plan::{TargetPlan, TeamOp, ThreadOp};

use crate::analysis::Analysis;

// ---------------------------------------------------------------------------
// Lattices
// ---------------------------------------------------------------------------

/// Three-valued answer of a static query: holds on every execution, on no
/// execution, or data-dependently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Holds on every execution.
    Always,
    /// Holds on no execution.
    Never,
    /// May or may not hold; the analysis cannot decide.
    Maybe,
}

/// Inclusive interval `[lo, hi]` over `u64` — the value lattice for trip
/// counts, induction variables, and slot arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
}

impl Interval {
    /// The single value `v`.
    pub fn exact(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The range `[lo, hi]` (asserts `lo <= hi`).
    pub fn range(lo: u64, hi: u64) -> Interval {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The full lattice top: any `u64`.
    pub fn top() -> Interval {
        Interval { lo: 0, hi: u64::MAX }
    }

    /// The constant value, if the interval is a singleton.
    pub fn as_const(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `0` is a possible value.
    pub fn contains_zero(&self) -> bool {
        self.lo == 0
    }

    /// Least upper bound (range hull).
    pub fn join(&self, o: &Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Saturating interval addition.
    pub fn add(&self, o: &Interval) -> Interval {
        Interval { lo: self.lo.saturating_add(o.lo), hi: self.hi.saturating_add(o.hi) }
    }

    /// Saturating interval multiplication (both operands non-negative, so
    /// the bounds multiply directly).
    pub fn mul(&self, o: &Interval) -> Interval {
        Interval { lo: self.lo.saturating_mul(o.lo), hi: self.hi.saturating_mul(o.hi) }
    }

    /// Pointwise minimum of two intervals (e.g. "lanes that execute at
    /// least one iteration" = `min(trip, group_size)`).
    pub fn min_with(&self, o: &Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.min(o.hi) }
    }

    /// Does every/no/some value of the interval fit within `cap`
    /// (`value <= cap`)? This is the range-proof form of the old
    /// constant-only capacity checks.
    pub fn fits(&self, cap: u64) -> Proof {
        if self.hi <= cap {
            Proof::Always
        } else if self.lo > cap {
            Proof::Never
        } else {
            Proof::Maybe
        }
    }
}

/// Abstract trip count of a registered trip callback: a registered
/// constant is exact; anything else may produce any value.
pub fn trip_interval(meta: &TripMeta) -> Interval {
    match meta.konst {
        Some(k) => Interval::exact(k),
        None => Interval::top(),
    }
}

/// Three-valued register initialization (reaching definitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Written {
    /// No write reaches this point.
    No,
    /// A write reaches along some paths (e.g. from a loop body whose trip
    /// interval contains zero).
    Maybe,
    /// A write reaches along every path.
    Yes,
}

impl Written {
    /// Least upper bound along the `No < Maybe < Yes` chain for two
    /// *merging* paths: definite only if definite on both.
    pub fn merge(self, o: Written) -> Written {
        match (self, o) {
            (Written::Yes, Written::Yes) => Written::Yes,
            (Written::No, Written::No) => Written::No,
            _ => Written::Maybe,
        }
    }
}

/// Abstract value of one scope register: initialization plus value range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Does a definition reach here?
    pub written: Written,
    /// Range of the value if read here.
    pub val: Interval,
}

impl AbsVal {
    /// An untouched register: nothing reaches, value unconstrained.
    pub fn unwritten() -> AbsVal {
        AbsVal { written: Written::No, val: Interval::top() }
    }

    /// A definitely-written register with the given range.
    pub fn written(val: Interval) -> AbsVal {
        AbsVal { written: Written::Yes, val }
    }
}

/// A join-semilattice state the fixpoint driver can iterate.
pub trait Lattice: Clone + PartialEq {
    /// In-place least upper bound with another state.
    fn join(&mut self, other: &Self);
}

/// Register-file state: one [`AbsVal`] per scope register.
pub type RegState = Vec<AbsVal>;

impl Lattice for RegState {
    fn join(&mut self, other: &Self) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.iter_mut().zip(other) {
            a.written = a.written.merge(b.written);
            a.val = a.val.join(&b.val);
        }
    }
}

/// Bounded least fixpoint: iterate `transfer` from `entry`, joining each
/// iterate into the accumulated state, until it stops changing. Returns
/// `top` if `max_iter` transfers do not converge (widening); the plan IR's
/// transfers converge in one or two iterations, so hitting the bound means
/// a malformed transfer, not a deep loop.
pub fn lfp<S: Lattice>(entry: S, transfer: impl Fn(&S) -> S, max_iter: usize, top: S) -> S {
    let mut acc = entry;
    for _ in 0..max_iter {
        let mut next = transfer(&acc);
        next.join(&acc);
        if next == acc {
            return acc;
        }
        acc = next;
    }
    top
}

/// Abstract execution of a counted loop: the state after a loop whose body
/// transfer is `body` and whose trip count lies in `trip`.
///
/// * trip exactly `0` — the body never runs; the entry state flows through
///   unchanged (this is where zero-trip reachability suppression comes
///   from);
/// * trip at least `1` — the body's fixpoint state flows out;
/// * trip may be `0` — the fixpoint state *merged* with the entry state:
///   definite writes inside the loop demote to [`Written::Maybe`].
pub fn loop_exit<S: Lattice>(entry: &S, trip: Interval, body: impl Fn(&S) -> S, top: S) -> S {
    if trip.hi == 0 {
        return entry.clone();
    }
    let mut out = lfp(body(entry), body, 8, top);
    if trip.contains_zero() {
        out.join(entry);
    }
    out
}

// ---------------------------------------------------------------------------
// Pure transfer functions over the plan IR
// ---------------------------------------------------------------------------

/// Apply the register effects of a thread-op list to `state` (no
/// diagnostics — this is the pure transfer the fixpoint driver iterates;
/// the lint walk layers reporting on top of the same rules).
pub(crate) fn transfer_thread_ops(ops: &[ThreadOp], reg: &Registry, state: &RegState) -> RegState {
    let mut st = state.clone();
    for op in ops {
        match op {
            ThreadOp::Seq(id) => match reg.seq_footprint(*id) {
                Some(fp) => {
                    for &r in &fp.regs_written {
                        if r < st.len() {
                            st[r] = AbsVal::written(Interval::top());
                        }
                    }
                }
                // Unknown effects: may initialize anything.
                None => st.iter_mut().for_each(|a| *a = AbsVal::written(Interval::top())),
            },
            ThreadOp::For { trip, iv_reg, ops, .. } => {
                let t = trip_interval(&reg.trip_meta(*trip));
                let mut entry = st.clone();
                if *iv_reg < entry.len() && t.hi > 0 {
                    entry[*iv_reg] = AbsVal::written(Interval::range(0, t.hi - 1));
                }
                let top = vec![AbsVal::written(Interval::top()); st.len()];
                st = loop_exit(
                    &st,
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
                // The iv write itself happens on every executed iteration.
                if *iv_reg < st.len() && t.lo > 0 {
                    st[*iv_reg] = entry[*iv_reg];
                }
            }
            ThreadOp::Simd { .. } => {}
            ThreadOp::SimdReduce { dst_reg, .. } => {
                if *dst_reg < st.len() {
                    st[*dst_reg] = AbsVal::written(Interval::top());
                }
            }
            ThreadOp::ReduceAcross { .. } => {}
        }
    }
    st
}

// ---------------------------------------------------------------------------
// Dead-stage analysis (the builder shrink pass + W-DEAD-STAGE's input)
// ---------------------------------------------------------------------------

/// Union of `regs_read` over every `simd`/`simd_reduce` body in the op
/// list, recursing through `for` nests. Returns `None` when any body has
/// no declared footprint (the stage must then conservatively carry every
/// register) or when the list contains no simd loop at all (nothing is
/// ever staged, so there is nothing to shrink).
pub(crate) fn staged_body_reads(ops: &[ThreadOp], reg: &Registry) -> Option<Vec<usize>> {
    let mut reads: Vec<usize> = Vec::new();
    let mut bodies = 0usize;
    if !collect_body_reads(ops, reg, &mut reads, &mut bodies) || bodies == 0 {
        return None;
    }
    reads.sort_unstable();
    reads.dedup();
    Some(reads)
}

fn collect_body_reads(
    ops: &[ThreadOp],
    reg: &Registry,
    reads: &mut Vec<usize>,
    bodies: &mut usize,
) -> bool {
    for op in ops {
        match op {
            ThreadOp::Simd { body, .. } => {
                *bodies += 1;
                match reg.body_footprint(*body) {
                    Some(fp) => reads.extend_from_slice(&fp.regs_read),
                    None => return false,
                }
            }
            ThreadOp::SimdReduce { body, .. } => {
                *bodies += 1;
                match reg.red_footprint(*body) {
                    Some(fp) => reads.extend_from_slice(&fp.regs_read),
                    None => return false,
                }
            }
            ThreadOp::For { ops, .. } => {
                if !collect_body_reads(ops, reg, reads, bodies) {
                    return false;
                }
            }
            ThreadOp::Seq(_) | ThreadOp::ReduceAcross { .. } => {}
        }
    }
    true
}

/// Builder pass: shrink each parallel region's staged-register count to
/// the shortest prefix covering every register some `simd` body declares
/// it reads (staging is positional, so only a trailing suffix can be
/// dropped). Runs after SPMD-ization in
/// [`crate::builder::TargetBuilder::build`]; regions with any undeclared
/// body keep `stage_regs == nregs`. The effect is a smaller generic-mode
/// stage per dispatch — fewer `staged_slots`, and a lower global-fallback
/// threshold — without touching the register file itself.
pub(crate) fn shrink_dead_stages(plan: &mut TargetPlan, analysis: &mut Analysis, reg: &Registry) {
    let mut idx = 0usize;
    shrink_team_ops(&mut plan.ops, analysis, reg, &mut idx);
}

fn shrink_team_ops(ops: &mut [TeamOp], analysis: &mut Analysis, reg: &Registry, idx: &mut usize) {
    for op in ops {
        match op {
            TeamOp::Parallel(p) => {
                let i = *idx;
                *idx += 1;
                if let Some(reads) = staged_body_reads(&p.ops, reg) {
                    let needed = reads.iter().map(|&r| r + 1).max().unwrap_or(0);
                    let stage = needed.min(p.nregs);
                    p.stage_regs = stage;
                    analysis.parallels[i].stage_regs = stage;
                }
            }
            TeamOp::Distribute { ops, .. } => shrink_team_ops(ops, analysis, reg, idx),
            TeamOp::Seq(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_algebra() {
        let a = Interval::exact(4);
        let b = Interval::range(0, 10);
        assert_eq!(a.as_const(), Some(4));
        assert_eq!(b.as_const(), None);
        assert!(b.contains_zero() && !a.contains_zero());
        assert_eq!(a.join(&b), Interval::range(0, 10));
        assert_eq!(a.add(&b), Interval::range(4, 14));
        assert_eq!(a.mul(&Interval::exact(3)), Interval::exact(12));
        assert_eq!(b.min_with(&a), Interval::range(0, 4));
        assert_eq!(Interval::top().add(&a).hi, u64::MAX);
    }

    #[test]
    fn fits_is_a_range_proof() {
        assert_eq!(Interval::range(0, 3).fits(3), Proof::Always);
        assert_eq!(Interval::range(4, 9).fits(3), Proof::Never);
        assert_eq!(Interval::range(2, 5).fits(3), Proof::Maybe);
    }

    #[test]
    fn written_merge_is_three_valued() {
        use Written::*;
        assert_eq!(Yes.merge(Yes), Yes);
        assert_eq!(No.merge(No), No);
        assert_eq!(Yes.merge(No), Maybe);
        assert_eq!(Maybe.merge(Yes), Maybe);
    }

    #[test]
    fn lfp_converges_and_widens() {
        // A transfer that writes register 0 converges immediately. Seed
        // with the first-iteration state, as `loop_exit` does: the
        // accumulated join includes the seed, so an unwritten entry would
        // (correctly) demote the write to Maybe.
        let entry: RegState = vec![AbsVal::unwritten(); 2];
        let top: RegState = vec![AbsVal::written(Interval::top()); 2];
        let write0 = |s: &RegState| {
            let mut s = s.clone();
            s[0] = AbsVal::written(Interval::exact(7));
            s
        };
        let out = lfp(write0(&entry), write0, 8, top.clone());
        assert_eq!(out[0].written, Written::Yes);
        assert_eq!(out[1].written, Written::No);
        // A transfer whose value range keeps growing never settles within
        // the bound and widens to top.
        let n = std::cell::Cell::new(0u64);
        let seed: RegState = vec![AbsVal::written(Interval::exact(0)); 2];
        let widened = lfp(
            seed,
            |s| {
                let mut s = s.clone();
                n.set(n.get() + 1);
                s[1] = AbsVal::written(Interval::exact(n.get()));
                s
            },
            2,
            top.clone(),
        );
        assert_eq!(widened, top);
    }

    #[test]
    fn loop_exit_models_trip_ranges() {
        let entry: RegState = vec![AbsVal::unwritten()];
        let top: RegState = vec![AbsVal::written(Interval::top())];
        let write0 = |s: &RegState| {
            let mut s = s.clone();
            s[0] = AbsVal::written(Interval::exact(1));
            s
        };
        // Trip >= 1: the write definitely reaches the exit.
        let out = loop_exit(&entry, Interval::range(1, 8), write0, top.clone());
        assert_eq!(out[0].written, Written::Yes);
        // Trip may be 0: only maybe.
        let out = loop_exit(&entry, Interval::range(0, 8), write0, top.clone());
        assert_eq!(out[0].written, Written::Maybe);
        // Trip exactly 0: the body is unreachable, entry flows through.
        let out = loop_exit(&entry, Interval::exact(0), write0, top);
        assert_eq!(out[0].written, Written::No);
    }
}
