//! Differential suite: the flat-bytecode engine against the tree-walk
//! oracle, for every kernel-corpus entry.
//!
//! Every launch goes through [`CompiledKernel::launch_oracle`], which runs
//! the tree walker, snapshots the memory image, rewinds, runs the bytecode
//! engine, and asserts bit-identical [`LaunchStats`] (cycles, every runtime
//! counter) and host-visible memory. Each `*_engines_agree` test runs one
//! kernel's entries of `omp_kernels::corpus` through the oracle in every
//! `testkit::CELLS` cell on the cell's own backend, not only in the cells
//! marked `oracle`, so both engines meet every thread count with the
//! sanitizer on and off. In the sanitized cells both legs run sanitized
//! and the oracle compares their violation lists too; every corpus entry
//! lints clean, so it must also come out violation-free. The random-plan
//! property is in `tests/engine_parity.rs`. A kernel whose config is
//! edited after a launch must be lowered again, and a program lowered for
//! another config is refused.
//!
//! [`CompiledKernel::launch_oracle`]: simt_omp::codegen::CompiledKernel::launch_oracle
//! [`LaunchStats`]: simt_omp::gpu::LaunchStats

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt_omp::codegen::{run_flat_block, CompiledKernel, FlatProgram};
use simt_omp::gpu::{ArchId, Device, DeviceArch};
use simt_omp::kernels::corpus::{self, Entry};
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::spmv::{self, SpmvDev};
use simt_omp::rt::config::KernelConfig;
use testkit::CELLS;

/// The suite's team geometry: small, and a whole mi100 wavefront.
const TEAMS: u32 = 4;
const THREADS: u32 = 64;

/// Run `e` through the oracle on `arch` with the cell's sim threads and
/// sanitizer setting; return the sequential-simd fallback count.
fn oracle(e: &Entry, arch: DeviceArch, threads: Option<usize>, sanitize: bool) -> u64 {
    let mut dev = Device::new(arch);
    dev.set_sim_threads(threads);
    if sanitize {
        dev.enable_sanitizer();
    }
    let w = e.upload(&mut dev);
    let s = e
        .kernel
        .launch_oracle(&mut dev, &w.args)
        .unwrap_or_else(|err| panic!("{} ({threads:?}, sanitize {sanitize}): {err:?}", e.name));
    assert!(s.violations.is_empty(), "{}: {:#?}", e.name, s.violations);
    s.counters.sequential_simd_fallbacks
}

/// Every corpus entry of `kernel` through the oracle in every cell.
fn engines_agree(kernel: &str) {
    let entries = corpus::entries(TEAMS, THREADS);
    let entries: Vec<_> = entries.iter().filter(|e| e.kernel() == kernel).collect();
    assert!(!entries.is_empty(), "the corpus has no {kernel} entry");
    for e in entries {
        for cell in &CELLS {
            let arch = ArchId::lookup(cell.arch).unwrap().arch();
            oracle(e, arch, cell.threads, cell.sanitize);
        }
    }
}

#[test]
fn ideal_kernel_engines_agree() {
    engines_agree("ideal");
}

#[test]
fn su3_kernel_engines_agree() {
    engines_agree("su3");
}

#[test]
fn stencil2d_kernel_engines_agree() {
    engines_agree("stencil2d");
}

#[test]
fn muram_kernels_engines_agree() {
    engines_agree("muram");
}

#[test]
fn laplace3d_kernel_engines_agree() {
    engines_agree("laplace3d");
}

#[test]
fn batched_kernel_engines_agree() {
    engines_agree("batched");
}

#[test]
fn spmv_kernels_engines_agree() {
    engines_agree("spmv");
}

#[test]
fn amd_sequential_fallback_engines_agree() {
    // mi100 has no independent warp scheduling: generic-mode simd loops
    // take the sequential fallback (§5.4.1) — replicated by the bytecode
    // engine counter for counter, at every cell's threads and sanitizer.
    let entries = corpus::entries(TEAMS, THREADS);
    let e = entries.iter().find(|e| e.name == "ideal forced-generic gs=8").unwrap();
    for cell in &CELLS {
        let fallbacks = oracle(e, DeviceArch::mi100(), cell.threads, cell.sanitize);
        assert!(fallbacks > 0, "{cell:?}: mi100 must legalize the generic-mode simd loop");
    }
}

#[test]
fn a_config_edited_after_a_launch_is_lowered_again() {
    // The lowering bakes in the kernel's config, so an edit after a launch
    // must lower again: the legacy 1024 B space no longer fits gs=4's 32
    // groups and takes the §5.3.1 global fallback. The edited kernel must
    // match, in stats and host-visible memory, a kernel built with 1024 B
    // before its first launch, through the oracle too.
    let mat = CsrMatrix::generate(256, 256, RowProfile::Banded { min: 2, max: 20 }, 3);
    let x: Vec<f64> = (0..256).map(|i| i as f64 * 0.25).collect();
    let run = |k: &CompiledKernel, oracle: bool| {
        let mut dev = Device::a100();
        dev.set_sim_threads(Some(1));
        let args = SpmvDev::upload(&mut dev, &mat, &x).args();
        let launched =
            if oracle { k.launch_oracle(&mut dev, &args) } else { k.launch(&mut dev, &args) };
        (launched.unwrap(), dev.global.checkpoint())
    };
    let legacy = |c: &mut KernelConfig| c.sharing_space_bytes = KernelConfig::SHARING_SPACE_LEGACY;
    let mut fresh = spmv::build_three_level(8, 128, 4);
    legacy(&mut fresh.config);
    let (want, want_mem) = run(&fresh, false);
    assert!(want.counters.sharing_global_fallbacks > 0);
    let mut edited = spmv::build_three_level(8, 128, 4);
    assert_eq!(run(&edited, false).0.counters.sharing_global_fallbacks, 0);
    legacy(&mut edited.config);
    for oracle in [false, true] {
        let (got, mem) = run(&edited, oracle);
        assert_eq!(got, want, "oracle {oracle}: stats after the edit");
        if let Some(diff) = want_mem.host_mismatch(&mem) {
            panic!("oracle {oracle}: memory after the edit:\n{diff}");
        }
    }
    // A program lowered for the old config is refused under the new one.
    let old = KernelConfig { sharing_space_bytes: 2048, ..edited.config.clone() };
    let stale = FlatProgram::lower(&edited.plan, &edited.registry, &old, &DeviceArch::a100(), 6);
    let mut dev = Device::a100();
    dev.set_sim_threads(Some(1));
    let args = SpmvDev::upload(&mut dev, &mat, &x).args();
    let lcfg = edited.config.launch_config(&dev.arch);
    let refused = catch_unwind(AssertUnwindSafe(|| {
        dev.launch(&lcfg, |tc| run_flat_block(tc, &edited.config, &stale, &edited.registry, &args))
    }))
    .unwrap_err();
    let msg = refused.downcast_ref::<String>().map_or("", |m| m.as_str());
    assert!(msg.contains("lowered for a different config"), "{msg}");
}
