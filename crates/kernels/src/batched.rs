//! `batched` — a batched-kernel harness stressing the §5.5 dispatch cascade.
//!
//! Real applications batch many small outlined bodies into one translation
//! unit: every body the front end can see takes a level of the module's
//! **if-cascade** (a linear compare chain over known outlined functions),
//! while bodies from other translation units fall back to a costly
//! indirect call. This harness registers `n_bodies` distinct outlined SIMD
//! bodies in one [`Registry`](omp_core::dispatch::Registry) and launches a
//! batch that dispatches *every* body once per row — so the average cascade
//! depth walked per dispatch grows linearly with the registry size.
//!
//! That makes the §5.5 trade-off observable: with few bodies the cascade's
//! compare chain beats the indirect call, but past a threshold registry
//! size the chain is longer than the pointer dispatch is slow, and
//! [`DispatchMode::Extern`] wins. The `dispatch` bench sweeps the registry
//! size into `BENCH_dispatch.json` to locate the crossover.
//!
//! A sequential base-index chunk keeps the parallel region **generic**, so
//! every dispatch really flows through the SIMD state machine's post/fetch
//! protocol the way Fig 4 prescribes.

use gpu_sim::{DPtr, Device, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;

const A_IN: usize = 0;
const A_OUT: usize = 1;
const A_ROWS: usize = 2;
const A_INNER: usize = 3;

/// How the batch's outlined bodies are registered (§5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Every body is cascade-known: dispatch cost grows with the body's
    /// position in the compare chain.
    Cascade,
    /// Every body is extern: flat indirect-call cost per dispatch.
    Extern,
    /// Alternating known/extern registrations — known bodies still take
    /// consecutive cascade positions (extern entries occupy no level).
    Mixed,
}

/// Host workload: `n_bodies` independent `rows × inner` panels.
pub struct BatchedWorkload {
    /// Number of outlined bodies (and data panels).
    pub n_bodies: usize,
    /// Rows per panel (the batched outer loop).
    pub rows: usize,
    /// Inner elements per row (the simd loop).
    pub inner: usize,
    /// Input data, panel-major `[body][row][k]`.
    pub input: Vec<f64>,
}

impl BatchedWorkload {
    /// Deterministic input data.
    pub fn generate(n_bodies: usize, rows: usize, inner: usize) -> BatchedWorkload {
        assert!(n_bodies >= 1 && rows >= 1 && inner >= 1);
        let input = (0..n_bodies * rows * inner).map(|x| (x * 7 % 31) as f64).collect();
        BatchedWorkload { n_bodies, rows, inner, input }
    }

    /// Host reference: body `b` scales its panel by `b + 1` and adds the
    /// inner index.
    pub fn reference(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.input.len()];
        for b in 0..self.n_bodies {
            for r in 0..self.rows {
                for k in 0..self.inner {
                    let idx = (b * self.rows + r) * self.inner + k;
                    out[idx] = self.input[idx] * (b + 1) as f64 + k as f64;
                }
            }
        }
        out
    }
}

/// Device-resident panels.
pub struct BatchedDev {
    input: DPtr<f64>,
    out: DPtr<f64>,
    rows: usize,
    inner: usize,
    n_bodies: usize,
}

impl BatchedDev {
    /// Upload the workload.
    pub fn upload(dev: &mut Device, w: &BatchedWorkload) -> BatchedDev {
        BatchedDev {
            input: dev.global.alloc_from(&w.input),
            out: dev.global.alloc_zeroed::<f64>(w.input.len()),
            rows: w.rows,
            inner: w.inner,
            n_bodies: w.n_bodies,
        }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 4] {
        [
            Slot::from_ptr(self.input),
            Slot::from_ptr(self.out),
            Slot::from_u64(self.rows as u64),
            Slot::from_u64(self.inner as u64),
        ]
    }

    /// Read the result panels back.
    pub fn read_out(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.out, self.n_bodies * self.rows * self.inner)
    }
}

/// Build the batched kernel: rows across all teams' SIMD groups, and per
/// row one posted `simd` loop per registered body.
pub fn build(
    num_teams: u32,
    threads: u32,
    simdlen: u32,
    n_bodies: usize,
    mode: DispatchMode,
) -> CompiledKernel {
    assert!(n_bodies >= 1);
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let rows = b.trip_uniform(|v| v.args[A_ROWS].as_u64());
    let inner = b.trip_uniform(|v| v.args[A_INNER].as_u64());
    b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Cyclic(1), simdlen, |p, _row| {
            let base = p.alloc_reg();
            // Sequential base computation: breaks tight nesting so the
            // region runs generic and every body dispatch goes through the
            // state machine.
            p.seq(move |lane, v| {
                let inner = v.args[A_INNER].as_u64();
                lane.work(2);
                v.regs[base.0] = Slot::from_u64(v.regs[0].as_u64() * inner);
            });
            for bi in 0..n_bodies {
                let body = move |lane: &mut gpu_sim::Lane<'_, '_>,
                                 k: u64,
                                 v: &omp_core::plan::Vars<'_>| {
                    let input = v.args[A_IN].as_ptr::<f64>();
                    let out = v.args[A_OUT].as_ptr::<f64>();
                    let rows = v.args[A_ROWS].as_u64();
                    let inner = v.args[A_INNER].as_u64();
                    let idx = bi as u64 * rows * inner + v.regs[base.0].as_u64() + k;
                    let x = lane.read(input, idx);
                    lane.work(2);
                    lane.write(out, idx, x * (bi + 1) as f64 + k as f64);
                };
                let cascade = match mode {
                    DispatchMode::Cascade => true,
                    DispatchMode::Extern => false,
                    DispatchMode::Mixed => bi % 2 == 0,
                };
                if cascade {
                    p.simd(inner, body);
                } else {
                    p.simd_extern(inner, body);
                }
            }
        });
    })
}

/// Run a compiled batched kernel.
pub fn run(dev: &mut Device, kernel: &CompiledKernel, ops: &BatchedDev) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_out(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_cascade_length_tracks_mode() {
        // Cascade positions are registration-ordered; extern entries take
        // no compare level.
        assert_eq!(build(2, 64, 8, 8, DispatchMode::Cascade).registry.cascade_len(), 8);
        assert_eq!(build(2, 64, 8, 8, DispatchMode::Extern).registry.cascade_len(), 0);
        assert_eq!(build(2, 64, 8, 8, DispatchMode::Mixed).registry.cascade_len(), 4);
    }

    #[test]
    fn dispatch_counters_follow_the_mode() {
        let w = BatchedWorkload::generate(4, 8, 8);
        let mut dev = Device::a100();
        let ops = BatchedDev::upload(&mut dev, &w);
        let k = build(2, 64, 8, 4, DispatchMode::Cascade);
        let (_, stats) = run(&mut dev, &k, &ops);
        assert!(stats.counters.cascade_dispatches > 0);
        assert_eq!(stats.counters.indirect_calls, 0);
        let k = build(2, 64, 8, 4, DispatchMode::Extern);
        let (_, stats) = run(&mut dev, &k, &ops);
        assert!(stats.counters.indirect_calls > 0);
    }

    #[test]
    fn cascade_wins_small_registries_and_loses_big_ones() {
        // The §5.5 trade-off, end to end: identical kernels except for the
        // dispatch path, so the cycle difference is pure dispatch cost.
        let cycles = |n_bodies: usize, mode: DispatchMode| {
            let w = BatchedWorkload::generate(n_bodies, 8, 8);
            let mut dev = Device::a100();
            let ops = BatchedDev::upload(&mut dev, &w);
            run(&mut dev, &build(2, 64, 8, n_bodies, mode), &ops).1.cycles
        };
        assert!(
            cycles(2, DispatchMode::Cascade) < cycles(2, DispatchMode::Extern),
            "shallow cascade must beat indirect calls"
        );
        assert!(
            cycles(64, DispatchMode::Cascade) > cycles(64, DispatchMode::Extern),
            "deep cascade must lose to indirect calls"
        );
    }
}
