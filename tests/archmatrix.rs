//! Cross-backend differential matrix: every kernel-corpus entry, a seeded
//! stream of random portable plans, and the §5.4.1 legalization isolated
//! on one arch pair.
//!
//! Each `*_matches_across_backends` test sweeps one kernel's entries of
//! `omp_kernels::corpus` through every `testkit::CELLS` cell on the cell's
//! own backend. Per entry it checks the lint gate (warnings only where the
//! entry expects them), the host reference, the tree-vs-bytecode oracle in
//! the oracle cells, a violation-free sanitized run and equal
//! `LaunchStats` across one backend's cells. The output bits must be equal
//! across all four cells, so **host-visible results are bit-equal between
//! a100 and mi100**. The wave64 backend has no wavefront-level barrier, so
//! every generic-mode simd region reaches the output through
//! sequential-simd legalization; equality here is the proof that
//! legalization is a pure scheduling rewrite, not a numerics change. One
//! line per entry and backend, digests of the stats and of the output
//! bits, is pinned in `tests/golden/launch_stats.txt`: a change that moves
//! the stats of every engine and backend alike shows there.
//!
//! Each random plan goes through [`CompiledKernel::launch_oracle`] (tree
//! walker vs flat bytecode, bit-identical stats and memory required) and
//! its results are compared across the backends the same way.
//!
//! [`CompiledKernel::launch_oracle`]: simt_omp::codegen::CompiledKernel::launch_oracle

use std::path::Path;

use simt_omp::gpu::{ArchId, Device, DeviceArch, LaunchStats, Slot};
use simt_omp::kernels::harness::max_abs_err;
use simt_omp::kernels::plangen::{self, random_portable_kernel};
use simt_omp::kernels::{corpus, ideal};
use testkit::{cases, CELLS};

/// The sweep's team geometry: small, and a whole mi100 wavefront.
const TEAMS: u32 = 4;
const THREADS: u32 = 64;

const GOLDEN: &str = "tests/golden/launch_stats.txt";

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// Sweep the corpus entries of `kernel` (the first word of their names)
/// through every cell, and compare their lines of the golden.
fn matches_across_backends(kernel: &str) {
    let mut golden = String::new();
    let entries = corpus::entries(TEAMS, THREADS);
    let entries: Vec<_> = entries.iter().filter(|e| e.kernel() == kernel).collect();
    assert!(!entries.is_empty(), "the corpus has no {kernel} entry");
    for e in entries {
        let name = &e.name;
        let mut bits: Option<Vec<u64>> = None;
        // (backend, stats of its first cell), in `CELLS` order.
        let mut stats: Vec<(&str, LaunchStats)> = Vec::new();
        for cell in &CELLS {
            let arch = ArchId::lookup(cell.arch).unwrap().arch();
            let report = e.kernel.lint(&arch, e.nargs);
            assert!(!report.has_errors(), "{}", report.render(name));
            let warnings = report.count(simt_omp::codegen::Severity::Warning);
            assert!(e.warns || warnings == 0, "unexpected warning:\n{}", report.render(name));

            let mut dev = Device::new(arch);
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            let w = e.upload(&mut dev);
            assert_eq!(w.args.len(), e.nargs, "{name}");
            let s = if cell.oracle {
                e.kernel.launch_oracle(&mut dev, &w.args)
            } else {
                e.kernel.launch(&mut dev, &w.args)
            }
            .unwrap_or_else(|err| panic!("{name} ({cell:?}): {err:?}"));
            let out = w.read(&dev);
            let err = max_abs_err(&out, &w.want);
            assert!(err <= e.tol, "{name} ({cell:?}): off the host reference by {err}");
            assert!(s.violations.is_empty(), "{name} ({cell:?}): {:#?}", s.violations);

            let out: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            match &bits {
                None => bits = Some(out),
                Some(b) => assert!(
                    *b == out,
                    "{name} ({cell:?}): output bits differ from {:?}'s",
                    CELLS[0]
                ),
            }
            match stats.iter().find(|(a, _)| *a == cell.arch) {
                None => stats.push((cell.arch, s)),
                Some((_, s0)) => assert_eq!(s0, &s, "{name} ({cell:?}): stats vary across cells"),
            }
        }
        let bits = fnv1a(bits.unwrap().iter().flat_map(|b| b.to_le_bytes()));
        for (arch, s) in &stats {
            let digest = fnv1a(format!("{s:?}").into_bytes());
            golden += &format!("{name:<46} {arch:<5} stats {digest:016x} bits {bits:016x}\n");
        }
    }
    let pinned = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
        .unwrap_or_default();
    let pinned: String = pinned
        .lines()
        .filter(|l| l.split(' ').next() == Some(kernel))
        .map(|l| format!("{l}\n"))
        .collect();
    if pinned != golden {
        println!("expected {kernel} lines of {GOLDEN}:\n{golden}");
        panic!("{GOLDEN} does not match the {kernel} entries' stats and output bits (expected lines above)");
    }
}

#[test]
fn ideal_matches_across_backends() {
    matches_across_backends("ideal");
}

#[test]
fn su3_matches_across_backends() {
    matches_across_backends("su3");
}

#[test]
fn spmv_matches_across_backends() {
    matches_across_backends("spmv");
}

#[test]
fn laplace3d_matches_across_backends() {
    matches_across_backends("laplace3d");
}

#[test]
fn muram_matches_across_backends() {
    matches_across_backends("muram");
}

#[test]
fn batched_matches_across_backends() {
    matches_across_backends("batched");
}

#[test]
fn stencil2d_matches_across_backends() {
    matches_across_backends("stencil2d");
}

#[test]
fn random_portable_plans_match_across_backends() {
    // 40 seeded random plans at portable geometry: one compiled plan,
    // both backends, bit-equal output. Workload parameters are drawn
    // before the arch loop so both backends see identical inputs.
    let mut cells = CELLS.iter().cycle();
    cases("random_portable_plans_match_across_backends", 40, |rng| {
        let cell = cells.next().unwrap();
        let k = random_portable_kernel(rng);
        let tbl = [rng.range_u64(0, 7), rng.range_u64(1, 9)];
        let n = rng.range_u64(1, 7);
        let _ = rng.flip(); // the thread-count draw the cells replaced
                            // The fuzz surface includes deliberately degenerate plans (e.g.
                            // sharing_space = 0 → E-TEAM-POST), so the lint contract here is
                            // not "clean": it is that the wave64 backend reports exactly the
                            // same errors as a100 — legalization demotes E-ARCH to a remark,
                            // so going wave64 never *adds* an error.
        let baseline: Vec<&str> = {
            let r = k.lint(&DeviceArch::a100(), 3);
            r.diags
                .iter()
                .filter(|d| d.severity == simt_omp::codegen::diag::Severity::Error)
                .map(|d| d.code)
                .collect()
        };
        let mut first: Option<Vec<u64>> = None;
        for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
            let report = k.lint(&arch, 3);
            let errors: Vec<&str> = report
                .diags
                .iter()
                .filter(|d| d.severity == simt_omp::codegen::diag::Severity::Error)
                .map(|d| d.code)
                .collect();
            assert_eq!(
                errors,
                baseline,
                "random plan on {}: backend changed the error set:\n{}",
                arch.name,
                report.render("plangen")
            );
            assert!(
                report.with_code("E-ARCH").next().is_none(),
                "random plan on {}: E-ARCH must demote for barrier-free simd bodies:\n{}",
                arch.name,
                report.render("plangen")
            );
            let name = arch.name;
            let mut dev = Device::new(arch);
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            let out = dev.global.alloc_zeroed::<f64>(plangen::OUT_SLOTS);
            let dtbl = dev.global.alloc_from(&tbl);
            let args = [Slot::from_ptr(out), Slot::from_ptr(dtbl), Slot::from_u64(n)];
            k.launch_oracle(&mut dev, &args)
                .unwrap_or_else(|e| panic!("random plan on {name}: {e:?}"));
            let bits: Vec<u64> = dev
                .global
                .read_slice(out, plangen::OUT_SLOTS)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            match &first {
                None => first = Some(bits),
                Some(nv) => {
                    assert_eq!(nv, &bits, "random plan: backend results differ")
                }
            }
        }
    });
}

#[test]
fn legalization_is_never_faster_at_equal_geometry() {
    // Monotonicity of the §5.4.1 fallback, isolated from every other
    // backend difference: two archs identical except for the warp-sync
    // capability bit. The legalized run serializes each group's simd work
    // onto its leader, so at equal geometry it can never undercut the
    // warp-synchronous state machine.
    let with_sync = DeviceArch::a100();
    let mut no_sync = DeviceArch::a100();
    no_sync.name = "sim-A100-no-warp-sync";
    no_sync.warp_sync_supported = false;

    let w = ideal::IdealWorkload::generate(24, 5);
    let k = ideal::build_forced_generic(2, 64, 8);
    for cell in &CELLS {
        let run = |arch: &DeviceArch| {
            let mut dev = Device::new(arch.clone());
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            let d = ideal::IdealDev::upload(&mut dev, &w);
            let stats = k.launch_oracle(&mut dev, &d.args()).expect("launch failed");
            let bits: Vec<u64> = d.read_out(&dev).iter().map(|x| x.to_bits()).collect();
            (stats, bits)
        };
        let (sm, sm_bits) = run(&with_sync);
        let (seq, seq_bits) = run(&no_sync);
        assert_eq!(sm.counters.sequential_simd_fallbacks, 0);
        assert!(seq.counters.sequential_simd_fallbacks > 0, "no-warp-sync arch must legalize");
        assert_eq!(sm_bits, seq_bits, "{cell:?}: legalization changed the results");
        assert!(
            seq.cycles >= sm.cycles,
            "{cell:?}: sequential-simd legalization beat the state machine: {} < {}",
            seq.cycles,
            sm.cycles
        );
    }
}
