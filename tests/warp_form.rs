//! Warp-form simd bodies against their per-lane twins.
//!
//! A warp-form body (`simd_warp`) issues each access as one warp
//! instruction over a round's active lanes; its per-lane twin makes the
//! same accesses lane by lane. The ordinal rule makes the two cost the
//! same, so every statistic, every host-visible word, every simtcheck
//! finding and every event-trace record must be identical — across sim
//! threads, both engines, both backends, with the sanitizer on and off.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt_omp::codegen::builder::{Schedule, TargetBuilder};
use simt_omp::codegen::{CompiledKernel, Engine};
use simt_omp::gpu::{Device, DeviceArch, LaunchStats, Slot, TraceEvent};
use simt_omp::kernels::su3;
use simt_omp::rt::config::ExecMode;

/// What one launch left behind: its stats, the product array and the
/// event trace (empty when untraced).
type Outcome = (LaunchStats, Vec<f64>, Vec<TraceEvent>);

#[allow(clippy::too_many_arguments)]
fn run_su3(
    k: &CompiledKernel,
    w: &su3::Su3Workload,
    arch: &DeviceArch,
    threads: usize,
    engine: Engine,
    sanitize: bool,
    trace: bool,
) -> Outcome {
    let mut dev = Device::new(arch.clone());
    dev.set_sim_threads(Some(threads));
    if sanitize {
        dev.enable_sanitizer();
    } else {
        dev.disable_sanitizer();
    }
    if trace {
        dev.enable_trace(1 << 16);
    }
    let ops = su3::Su3Dev::upload(&mut dev, w);
    let stats = k.launch_with_engine(&mut dev, &ops.args(), engine).expect("su3 launches");
    (stats, ops.read_c(&dev), dev.trace.events().to_vec())
}

#[test]
fn su3_warp_form_matches_its_per_lane_twin() {
    let w = su3::Su3Workload::generate(40, 11);
    let want = w.reference();
    for gs in [1u32, 8, 32] {
        let warp = su3::build(4, 64, gs);
        let lane = su3::build_per_lane(4, 64, gs);
        for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
            for threads in [1usize, 2, 4] {
                for engine in [Engine::Tree, Engine::Bytecode] {
                    for (sanitize, trace) in [(false, false), (true, false), (false, true)] {
                        let cell = format!(
                            "gs={gs} {} threads={threads} {engine:?} sanitize={sanitize} \
                             trace={trace}",
                            arch.name
                        );
                        let a = run_su3(&warp, &w, &arch, threads, engine, sanitize, trace);
                        let b = run_su3(&lane, &w, &arch, threads, engine, sanitize, trace);
                        assert_eq!(a.0, b.0, "{cell}: stats differ");
                        assert_eq!(a.2, b.2, "{cell}: event traces differ");
                        assert!(a.1.iter().zip(&b.1).all(|(x, y)| x.to_bits() == y.to_bits()));
                        assert!(a.0.violations.is_empty(), "{cell}: {:?}", a.0.violations);
                        assert_eq!(trace, !a.2.is_empty(), "{cell}: trace recorded");
                        assert!(a.1.iter().zip(&want).all(|(x, y)| (x - y).abs() <= 1e-12));
                    }
                }
            }
        }
    }
}

/// A kernel whose simd body reads `input[base + iv]` and writes twice it
/// to `out[base + iv]`, in warp form or per lane, over `sites` sites of
/// `trip` iterations; iteration `bad` of site 0 reads `oob` elements past
/// its own.
fn copy_kernel(
    warp_form: bool,
    mode: Option<ExecMode>,
    trip: u64,
    bad: u64,
    oob: u64,
) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let sites = b.trip_uniform(|v| v.args[2].as_u64());
    let inner = b.trip_const(trip);
    let idx =
        move |site: u64, iv: u64| site * trip + iv + if site == 0 && iv == bad { oob } else { 0 };
    b.build(|t| {
        let body = |p: &mut simt_omp::codegen::ParScope<'_>, site: simt_omp::codegen::RegH| {
            if warp_form {
                p.simd_warp(inner, move |w, ivs, v| {
                    let (input, out) = (v.args[0].as_ptr::<f64>(), v.args[1].as_ptr::<f64>());
                    let at = |l: usize| idx(v.regs(l)[site.0].as_u64(), ivs[l]);
                    let x = w.read(input, at);
                    w.work(3);
                    w.write(out, at, |l| 2.0 * x[l]);
                });
            } else {
                p.simd(inner, move |lane, iv, v| {
                    let (input, out) = (v.args[0].as_ptr::<f64>(), v.args[1].as_ptr::<f64>());
                    let at = idx(v.regs[site.0].as_u64(), iv);
                    let x = lane.read(input, at);
                    lane.work(3);
                    lane.write(out, at, 2.0 * x);
                });
            }
        };
        match mode {
            Some(m) => t.distribute_parallel_for_with_mode(sites, Schedule::Cyclic(1), 8, m, body),
            None => t.distribute_parallel_for(sites, Schedule::Cyclic(1), 8, body),
        }
    })
}

/// Run `k` over 12 sites of `trip` iterations on a fresh one-thread
/// device; the launch's panic message if it panicked.
fn launch_copy(
    k: &CompiledKernel,
    arch: &DeviceArch,
    engine: Engine,
    trip: u64,
    free_input: bool,
) -> Result<(LaunchStats, Vec<f64>), String> {
    let mut dev = Device::new(arch.clone());
    dev.set_sim_threads(Some(1));
    dev.disable_sanitizer();
    let n = 12 * trip as usize;
    let input = dev.global.alloc_from(&(0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
    let out = dev.global.alloc_zeroed::<f64>(n);
    if free_input {
        dev.global.free(input);
    }
    let args = [Slot::from_ptr(input), Slot::from_ptr(out), Slot::from_u64(12)];
    let launched = catch_unwind(AssertUnwindSafe(|| k.launch_with_engine(&mut dev, &args, engine)));
    match launched {
        Ok(stats) => Ok((stats.expect("launches"), dev.global.read_slice(out, n))),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()),
    }
}

#[test]
fn generic_and_legalized_twins_match() {
    // Forced-generic regions: workers fetch staged state (lane mode), and
    // on mi100 the region is legalized to sequential simd (lane mode).
    // Trip 13 leaves a ragged last round in SPMD mode (warp mode).
    for mode in [None, Some(ExecMode::Generic)] {
        let warp = copy_kernel(true, mode, 13, u64::MAX, 0);
        let lane = copy_kernel(false, mode, 13, u64::MAX, 0);
        for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
            for engine in [Engine::Tree, Engine::Bytecode] {
                let a = launch_copy(&warp, &arch, engine, 13, false).expect("in bounds");
                let b = launch_copy(&lane, &arch, engine, 13, false).expect("in bounds");
                assert_eq!(a, b, "{mode:?} {} {engine:?}", arch.name);
            }
        }
    }
}

#[test]
fn one_out_of_bounds_lane_panics_like_its_per_lane_twin() {
    // Iteration 5 of site 0 reads 10,000 elements past the input's end.
    let warp = copy_kernel(true, None, 16, 5, 10_000);
    let lane = copy_kernel(false, None, 16, 5, 10_000);
    for engine in [Engine::Tree, Engine::Bytecode] {
        let a = launch_copy(&warp, &DeviceArch::a100(), engine, 16, false).unwrap_err();
        let b = launch_copy(&lane, &DeviceArch::a100(), engine, 16, false).unwrap_err();
        assert!(a.contains("device OOB read: idx 10005 >= len 192"), "{engine:?}: {a}");
        assert_eq!(a, b, "{engine:?}");
    }
}

#[test]
fn a_freed_segment_panics_use_after_free_through_a_warp_read() {
    let warp = copy_kernel(true, None, 16, u64::MAX, 0);
    for engine in [Engine::Tree, Engine::Bytecode] {
        let msg = launch_copy(&warp, &DeviceArch::a100(), engine, 16, true).unwrap_err();
        assert!(msg.contains("use after free of segment"), "{engine:?}: {msg}");
    }
}

#[test]
fn warps_wider_than_a_lane_mask_are_a_typed_error() {
    use simt_omp::gpu::{LaunchConfig, LaunchError};
    let mut arch = DeviceArch::a100();
    arch.warp_size = 128;
    for cell in &testkit::CELLS {
        let mut dev = Device::new(arch.clone());
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
        let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 256, smem_bytes: 0 };
        assert_eq!(dev.validate(&cfg), Err(LaunchError::BadWarpSize { warp: 128 }));
        let raw = dev.launch(&cfg, |_| panic!("no block may run"));
        assert_eq!(raw.unwrap_err(), LaunchError::BadWarpSize { warp: 128 });
        let w = su3::Su3Workload::generate(4, 1);
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        let k = su3::build(2, 256, 4);
        for engine in [Engine::Tree, Engine::Bytecode] {
            let err = k.launch_with_engine(&mut dev, &ops.args(), engine).unwrap_err();
            assert_eq!(err, LaunchError::BadWarpSize { warp: 128 }, "{engine:?}");
        }
        let launched = if cell.oracle {
            k.launch_oracle(&mut dev, &ops.args())
        } else {
            k.launch(&mut dev, &ops.args())
        };
        assert_eq!(launched.unwrap_err(), LaunchError::BadWarpSize { warp: 128 }, "{cell:?}");
    }
}
