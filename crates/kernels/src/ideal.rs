//! The paper's synthetic "ideal scenario" benchmark kernel (§6.3).
//!
//! "We have also created a new benchmarking kernel that very closely fits
//! the three levels of parallelism … a small inner loop that fits into a
//! single warp, but is not collapsible with the outer-loop nest."
//!
//! Non-collapsibility is realized with an indirection: each outer
//! iteration's base offset comes from an `offsets` table, so the flat
//! element index cannot be derived from a collapsed induction variable.
//! The two-level baseline therefore must run the inner loop serially in
//! each thread (group size 1) — with badly strided memory accesses —
//! while the `simd` version assigns the inner loop to adjacent lanes.
//! Teams are SPMD. The parallel region *infers* generic (the sequential
//! offset lookup breaks tight nesting, §6.3) — but the lookup declares a
//! pure effect footprint (it only reads `offsets` and writes a scope
//! register), so the simtlint SPMD-ization pass promotes the region back
//! to SPMD: the state machine and per-dispatch staging are provably
//! unnecessary. [`build_forced_generic`] keeps the un-promoted variant for
//! the promotion ablation.

use gpu_sim::{DPtr, Device, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;
use omp_core::config::ExecMode;
use omp_core::dispatch::Footprint;

const A_IN: usize = 0;
const A_OUT: usize = 1;
const A_OFFSETS: usize = 2;
const A_OUTER: usize = 3;

/// Inner-loop trip count — "fits into a single warp".
pub const INNER: u64 = 32;

/// Host workload: input array + permuted base offsets.
pub struct IdealWorkload {
    /// Outer iterations.
    pub outer: usize,
    /// Input, `outer × INNER` doubles.
    pub input: Vec<f64>,
    /// Base offset of each outer iteration's block (a permutation of
    /// block starts — the non-collapsible indirection).
    pub offsets: Vec<u64>,
}

impl IdealWorkload {
    /// Deterministic workload; offsets are a simple stride permutation.
    pub fn generate(outer: usize, seed: u64) -> IdealWorkload {
        let n = outer * INNER as usize;
        let input: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 1000) as f64 * 0.125).collect();
        // Co-prime stride permutation of block indices.
        let stride = (outer / 2 + 1) | 1;
        let offsets: Vec<u64> = (0..outer).map(|i| ((i * stride) % outer) as u64 * INNER).collect();
        IdealWorkload { outer, input, offsets }
    }

    /// Host reference output.
    pub fn reference(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.input.len()];
        for o in 0..self.outer {
            let base = self.offsets[o] as usize;
            for k in 0..INNER as usize {
                out[base + k] = body_fn(self.input[base + k]);
            }
        }
        out
    }
}

/// The per-element computation (some real arithmetic so the kernel is not
/// purely memory-bound).
#[inline]
fn body_fn(x: f64) -> f64 {
    let y = x * 1.0009765625 + 0.5;
    y * y - x
}

/// Cycles per element of compute.
const BODY_CYCLES: u64 = 12;

/// Device-resident operands.
pub struct IdealDev {
    input: DPtr<f64>,
    out: DPtr<f64>,
    offsets: DPtr<u64>,
    outer: usize,
}

impl IdealDev {
    /// Upload a workload.
    pub fn upload(dev: &mut Device, w: &IdealWorkload) -> IdealDev {
        IdealDev {
            input: dev.global.alloc_from(&w.input),
            out: dev.global.alloc_zeroed::<f64>(w.input.len()),
            offsets: dev.global.alloc_from(&w.offsets),
            outer: w.outer,
        }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 4] {
        [
            Slot::from_ptr(self.input),
            Slot::from_ptr(self.out),
            Slot::from_ptr(self.offsets),
            Slot::from_u64(self.outer as u64),
        ]
    }

    /// Read the output back.
    pub fn read_out(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.out, self.outer * INNER as usize)
    }
}

/// Build the ideal kernel: `simdlen == 1` is the serial-inner baseline;
/// larger sizes vectorize the 32-iteration loop over the SIMD group. The
/// parallel region carries declared effect footprints, so the SPMD-ization
/// pass promotes it (see module docs).
pub fn build(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    build_inner(num_teams, threads, simdlen, None)
}

/// The un-promoted variant: the parallel region is pinned to generic mode
/// (a forced mode is never SPMD-ized), preserving the state machine and
/// staging costs for the promotion ablation. `simdlen` must be > 1.
pub fn build_forced_generic(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    assert!(simdlen > 1, "group size 1 always runs SPMD (§5.4)");
    build_inner(num_teams, threads, simdlen, Some(ExecMode::Generic))
}

fn build_inner(
    num_teams: u32,
    threads: u32,
    simdlen: u32,
    force: Option<ExecMode>,
) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let outer = b.trip_uniform(|v| v.args[A_OUTER].as_u64());
    let inner = b.trip_const(INNER);
    b.build(|t| {
        let body = |p: &mut omp_codegen::ParScope<'_>, o: omp_codegen::RegH| {
            // Sequential offset lookup: the non-collapsible part. Breaks
            // tight nesting, but the declared footprint is pure (reads the
            // offsets table, writes only a scope register) so the region is
            // promotable back to SPMD.
            let base = p.alloc_reg();
            p.seq_footprint(
                Footprint::new().reads_args(&[A_OFFSETS]).reads_regs(&[o.0]).writes_regs(&[base.0]),
                move |lane, v| {
                    let offs = v.args[A_OFFSETS].as_ptr::<u64>();
                    let i = v.regs[o.0].as_u64();
                    let b = lane.read(offs, i);
                    lane.work(2);
                    v.regs[base.0] = Slot::from_u64(b);
                },
            );
            p.simd_footprint(
                inner,
                Footprint::new().reads_args(&[A_IN]).writes_args(&[A_OUT]).reads_regs(&[base.0]),
                move |lane, iv, v| {
                    let input = v.args[A_IN].as_ptr::<f64>();
                    let out = v.args[A_OUT].as_ptr::<f64>();
                    let idx = v.regs[base.0].as_u64() + iv;
                    let x = lane.read(input, idx);
                    lane.work(BODY_CYCLES);
                    lane.write(out, idx, body_fn(x));
                },
            );
        };
        match force {
            Some(mode) => {
                t.distribute_parallel_for_with_mode(outer, Schedule::Cyclic(1), simdlen, mode, body)
            }
            None => t.distribute_parallel_for(outer, Schedule::Cyclic(1), simdlen, body),
        }
    })
}

/// Run a compiled ideal kernel.
pub fn run(dev: &mut Device, kernel: &CompiledKernel, ops: &IdealDev) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_out(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_core::config::ExecMode;

    #[test]
    fn offsets_are_a_permutation() {
        let w = IdealWorkload::generate(100, 3);
        let mut blocks: Vec<u64> = w.offsets.iter().map(|&o| o / INNER).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn every_group_size_above_one_is_promoted_to_spmd() {
        for gs in [1u32, 2, 4, 8, 16, 32] {
            let k = build(4, 64, gs);
            assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
            // The declared-pure offset lookup lets SPMD-ization promote the
            // inferred-generic region for every group size > 1.
            assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Spmd, "gs={gs}");
            let expect_inferred = if gs == 1 { ExecMode::Spmd } else { ExecMode::Generic };
            assert_eq!(k.analysis.parallels[0].inferred, expect_inferred, "gs={gs}");
            assert_eq!(k.analysis.parallels[0].promoted, gs > 1, "gs={gs}");
        }
    }

    #[test]
    fn forced_generic_variant_is_never_promoted() {
        let k = build_forced_generic(2, 64, 8);
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
        assert!(k.analysis.parallels[0].forced);
        assert!(!k.analysis.parallels[0].promoted);
        assert!(k.analysis.promotions.is_empty());
    }
}
