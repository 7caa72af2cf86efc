//! Differential + golden-shape suite for the memory model
//! (`gpu_sim::mem::hier`).
//!
//! Three contracts:
//!
//! 1. **Differential**: a few configurations of each in-tree kernel,
//!    at larger sizes than the kernel corpus's, run in every
//!    `testkit::CELLS` cell (thread count and sanitizer setting), on the
//!    bytecode engine (`CompiledKernel::launch`) and the tree walker
//!    (`launch_target`) in alternate cells. All four runs must produce
//!    bit-identical [`LaunchStats`] — including every [`MemStats`]
//!    counter, whose block-index-order merge (DESIGN §11) is exactly what
//!    this asserts.
//! 2. **Pins**: the charge counters (issue, sectors, L1 hits, DRAM
//!    sectors, blocks) are pinned to the values the seed produced — the
//!    makespan model never changed how blocks are charged — and the
//!    makespan outputs (cycles, burst atoms, MLP stalls) to their measured
//!    values, so neither can drift silently.
//! 3. **Golden shape**: the Fig 9 speedup curves hold their paper shape —
//!    su3's benefit capped at ≤ 2× with small groups worst, sparse_matvec
//!    peaking at an interior group size, ideal's group-32 factor within
//!    ±15% of the paper's 2.15× — at a reduced size in tier-1 and at full
//!    Fig 9 size behind `#[ignore]` (run with `cargo test --release
//!    --test memmodel -- --ignored golden_shape_full`).
//!
//! [`MemStats`]: simt_omp::gpu::MemStats

mod engines;

use simt_omp::codegen::CompiledKernel;
use simt_omp::gpu::{Device, DeviceArch, LaunchStats, Slot};
use simt_omp::kernels::harness::Fig10Variant;
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::stencil2d::Stencil2dVariant;
use simt_omp::kernels::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};
use simt_omp::rt::config::KernelConfig;
use testkit::{Cell, CELLS};

use engines::ENGINES;

/// A device on `arch` with `cell`'s thread count and sanitizer.
fn device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

/// Run one kernel on the bytecode engine and the tree walker in alternate
/// cells, assert bit-identical stats in every run, and return the
/// canonical stats.
fn engine_matrix(
    label: &str,
    k: &CompiledKernel,
    arch: &DeviceArch,
    mut setup: impl FnMut(&mut Device) -> Vec<Slot>,
) -> LaunchStats {
    let mut first: Option<LaunchStats> = None;
    for ((engine, launch), cell) in ENGINES.into_iter().rev().cycle().zip(&CELLS) {
        let mut dev = device(cell, arch.clone());
        let args = setup(&mut dev);
        let stats =
            launch(k, &mut dev, &args).unwrap_or_else(|e| panic!("{label} {engine}: {e:?}"));
        match &first {
            None => first = Some(stats),
            Some(c) => assert_eq!(*c, stats, "{label}: {engine} {cell:?} diverged"),
        }
    }
    first.unwrap()
}

/// In an oracle cell, launch `k` on both engines (asserting equal stats
/// and memory) before the kernel's own `run`.
fn oracle(cell: &Cell, dev: &mut Device, k: &CompiledKernel, args: &[Slot]) {
    if cell.oracle {
        k.launch_oracle(dev, args).unwrap();
    }
}

/// Pin the charge counters to the seed's values (captured from the
/// pre-hierarchy tree at these exact configs).
fn assert_charges(
    label: &str,
    s: &LaunchStats,
    issue: u64,
    sectors: u64,
    l1_hits: u64,
    dram: u64,
    blocks: u32,
) {
    assert_eq!(s.total_issue, issue, "{label}: issue drifted from seed");
    assert_eq!(s.total_sectors, sectors, "{label}: sectors drifted from seed");
    assert_eq!(s.total_l1_hits, l1_hits, "{label}: l1 hits drifted from seed");
    assert_eq!(s.total_dram_sectors, dram, "{label}: dram drifted from seed");
    assert_eq!(s.blocks, blocks, "{label}: block count drifted from seed");
}

/// Pin the makespan outputs: launch cycles, DRAM burst atoms and MLP
/// stall cycles.
fn assert_makespan(label: &str, s: &LaunchStats, cycles: u64, dram_atoms: u64, mlp_stalls: u64) {
    assert_eq!(s.cycles, cycles, "{label}: cycles drifted");
    assert_eq!(s.mem.dram_atoms, dram_atoms, "{label}: dram atoms drifted");
    assert_eq!(s.mem.mlp_stalls, mlp_stalls, "{label}: mlp stalls drifted");
}

#[test]
fn spmv_models_differential() {
    let mat = CsrMatrix::generate(2048, 2048, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let k = spmv::build_two_level(108);
    let s = engine_matrix("spmv two-level", &k, &DeviceArch::a100(), |dev| {
        spmv::SpmvDev::upload(dev, &mat, &x).args().to_vec()
    });
    assert_charges("spmv two-level", &s, 2_055_646, 46_738, 9_982, 26_153, 108);
    assert_makespan("spmv two-level", &s, 21_669, 16_248, 0);

    let k = spmv::build_three_level(27, 64, 8);
    let s = engine_matrix("spmv three-level gs=8", &k, &DeviceArch::a100(), |dev| {
        spmv::SpmvDev::upload(dev, &mat, &x).args().to_vec()
    });
    assert_charges("spmv three-level gs=8", &s, 615_768, 43_512, 9_955, 26_153, 27);
    assert_makespan("spmv three-level gs=8", &s, 17_654, 19_655, 0);
}

#[test]
fn su3_models_differential() {
    let w = su3::Su3Workload::generate(1728, 7);
    let k = su3::build(27, 64, 1);
    let s = engine_matrix("su3 base", &k, &DeviceArch::a100(), |dev| {
        su3::Su3Dev::upload(dev, &w).args().to_vec()
    });
    assert_charges("su3 base", &s, 5_456_378, 94_339, 776_573, 93_312, 27);
    assert_makespan("su3 base", &s, 37_321, 93_312, 0);

    let k = su3::build(27, 64, 8);
    let s = engine_matrix("su3 gs=8", &k, &DeviceArch::a100(), |dev| {
        su3::Su3Dev::upload(dev, &w).args().to_vec()
    });
    assert_charges("su3 gs=8", &s, 1_483_704, 93_312, 148_608, 93_312, 27);
    assert_makespan("su3 gs=8", &s, 19_988, 67_392, 0);
}

#[test]
fn ideal_models_differential() {
    let w = ideal::IdealWorkload::generate(6912, 3);
    let k = ideal::build(27, 64, 8);
    let s = engine_matrix("ideal gs=8", &k, &DeviceArch::a100(), |dev| {
        ideal::IdealDev::upload(dev, &w).args().to_vec()
    });
    assert_charges("ideal gs=8", &s, 687_960, 112_320, 0, 112_320, 27);
    assert_makespan("ideal gs=8", &s, 20_548, 57_024, 0);
}

#[test]
fn laplace3d_models_differential() {
    let w = laplace3d::Laplace3dWorkload::generate(18);
    // (variant, cycles, dram atoms, issue, l1 hits)
    let pins = [
        (Fig10Variant::NoSimd, 6_056u64, 1_449u64, 30_912u64, 1_132u64),
        (Fig10Variant::SpmdSimd, 6_724, 1_592, 40_960, 1_472),
        (Fig10Variant::GenericSimd, 8_240, 1_592, 65_216, 1_472),
    ];
    for (variant, cycles, atoms, issue, hits) in pins {
        let k = laplace3d::build(8, 64, variant);
        let label = format!("laplace3d {}", variant.label());
        let s = engine_matrix(&label, &k, &DeviceArch::a100(), |dev| {
            laplace3d::Laplace3dDev::upload(dev, &w).args().to_vec()
        });
        assert_charges(&label, &s, issue, 5_024, hits, 2_610, 8);
        assert_makespan(&label, &s, cycles, atoms, 0);
    }
}

#[test]
fn muram_models_differential() {
    let w = muram::MuramWorkload::generate(16);
    let k = muram::build(muram::MuramKernel::Transpose, 8, 64, Fig10Variant::SpmdSimd);
    let s = engine_matrix("muram transpose", &k, &DeviceArch::a100(), |dev| {
        muram::MuramDev::upload(dev, &w).args().to_vec()
    });
    assert_charges("muram transpose", &s, 38_464, 2_048, 3_072, 2_048, 8);
    assert_makespan("muram transpose", &s, 5_788, 1_536, 0);

    let k = muram::build(muram::MuramKernel::Interpol, 8, 64, Fig10Variant::GenericSimd);
    let s = engine_matrix("muram interpol", &k, &DeviceArch::a100(), |dev| {
        muram::MuramDev::upload(dev, &w).args().to_vec()
    });
    assert_charges("muram interpol", &s, 42_240, 2_048, 256, 2_048, 8);
    assert_makespan("muram interpol", &s, 6_864, 1_024, 0);
}

#[test]
fn stencil2d_models_differential() {
    let w = stencil2d::Stencil2dWorkload::generate(37, 14);
    let k = stencil2d::build(
        6,
        64,
        8,
        KernelConfig::SHARING_SPACE_DEFAULT,
        Stencil2dVariant::HaloShared,
    );
    let s = engine_matrix("stencil2d halo", &k, &DeviceArch::a100(), |dev| {
        stencil2d::Stencil2dDev::upload(dev, &w, 8).args().to_vec()
    });
    assert_charges("stencil2d halo", &s, 19_818, 504, 125, 241, 6);
    assert_makespan("stencil2d halo", &s, 5_703, 222, 1);
}

#[test]
fn batched_models_differential() {
    let w = batched::BatchedWorkload::generate(4, 8, 8);
    let k = batched::build(2, 64, 8, w.n_bodies, batched::DispatchMode::Cascade);
    let s = engine_matrix("batched cascade", &k, &DeviceArch::a100(), |dev| {
        batched::BatchedDev::upload(dev, &w).args().to_vec()
    });
    assert_charges("batched cascade", &s, 1_916, 128, 0, 128, 2);
    assert_makespan("batched cascade", &s, 4_926, 64, 9);
}

/// MemStats merge bit-identity at every supported worker count — the
/// block-index-order fold must make the merged counters independent of
/// how blocks were partitioned across threads.
#[test]
fn memstats_merge_is_thread_count_invariant() {
    let w = su3::Su3Workload::generate(1728, 7);
    let k = su3::build(27, 64, 8);
    let mut canon: Option<LaunchStats> = None;
    for (threads, cell) in [1usize, 2, 4, 8].into_iter().zip(&CELLS) {
        let mut dev = device(cell, DeviceArch::a100());
        dev.set_sim_threads(Some(threads));
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        oracle(cell, &mut dev, &k, &ops.args());
        let (_, stats) = su3::run(&mut dev, &k, &ops);
        assert!(stats.mem.l1_hits > 0 && stats.mem.dram_atoms > 0, "counters populated");
        match &canon {
            None => canon = Some(stats),
            Some(c) => assert_eq!(*c, stats, "threads={threads}: merge not bit-identical"),
        }
    }
}

// ---------------------------------------------------------------------------
// Golden-shape regression: Fig 9 curves.
// ---------------------------------------------------------------------------

const GROUP_SIZES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The configuration the figures are measured in: bytecode only,
/// unsanitized, default threads.
const PLAIN: Cell = Cell { threads: None, arch: "a100", sanitize: false, oracle: false };

/// The cells a sweep's points take in turn.
type Cells<'a> = dyn Iterator<Item = &'a Cell> + 'a;

fn su3_sweep(sites: usize, teams: u32, threads: u32, cells: &mut Cells<'_>) -> Vec<u64> {
    let w = su3::Su3Workload::generate(sites, 7);
    GROUP_SIZES
        .iter()
        .map(|&gs| {
            let cell = cells.next().unwrap();
            let mut dev = device(cell, DeviceArch::a100());
            let ops = su3::Su3Dev::upload(&mut dev, &w);
            let k = su3::build(teams, threads, gs);
            oracle(cell, &mut dev, &k, &ops.args());
            su3::run(&mut dev, &k, &ops).1.cycles
        })
        .collect()
}

fn ideal_sweep(outer: usize, teams: u32, threads: u32, cells: &mut Cells<'_>) -> Vec<u64> {
    let w = ideal::IdealWorkload::generate(outer, 3);
    GROUP_SIZES
        .iter()
        .map(|&gs| {
            let cell = cells.next().unwrap();
            let mut dev = device(cell, DeviceArch::a100());
            let ops = ideal::IdealDev::upload(&mut dev, &w);
            let k = ideal::build(teams, threads, gs);
            oracle(cell, &mut dev, &k, &ops.args());
            ideal::run(&mut dev, &k, &ops).1.cycles
        })
        .collect()
}

/// spmv sweep: `[base, gs=2, 4, 8, 16, 32]` cycles.
fn spmv_sweep(
    rows: usize,
    base_teams: u32,
    teams: u32,
    threads: u32,
    cells: &mut Cells<'_>,
) -> Vec<u64> {
    let mat = CsrMatrix::generate(rows, rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let kernels = std::iter::once(spmv::build_two_level(base_teams))
        .chain([2u32, 4, 8, 16, 32].map(|gs| spmv::build_three_level(teams, threads, gs)));
    kernels
        .map(|k| {
            let cell = cells.next().unwrap();
            let mut dev = device(cell, DeviceArch::a100());
            let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
            oracle(cell, &mut dev, &k, &ops.args());
            spmv::run(&mut dev, &k, &ops).1.cycles
        })
        .collect()
}

fn ratios(cycles: &[u64]) -> Vec<f64> {
    cycles.iter().map(|&c| cycles[0] as f64 / c as f64).collect()
}

fn assert_su3_shape(r: &[f64], cap: f64) {
    let max = r.iter().cloned().fold(0.0f64, f64::max);
    assert!(max <= cap, "su3 max benefit {max:.3} exceeds {cap} (curve {r:?})");
    // Small groups are the worst performers: strictly rising up to gs=8.
    assert!(
        r[0] < r[1] && r[1] < r[2] && r[2] < r[3],
        "su3 benefit must rise through small group sizes (curve {r:?})"
    );
}

fn assert_spmv_interior_peak(r: &[f64]) {
    let peak = (0..r.len()).max_by(|&a, &b| r[a].partial_cmp(&r[b]).unwrap()).unwrap();
    assert!(
        peak != 0 && peak != r.len() - 1,
        "sparse_matvec peak must be at an interior group size (curve {r:?})"
    );
}

/// Tier-1 variant at reduced size (~5 s in debug). Bands are pinned to
/// the measured curve at this size; the paper-band asserts run at full
/// Fig 9 size in [`golden_shape_full`].
#[test]
fn golden_shape_quick() {
    // The figures run plain. ideal's points at gs 4..32, the cheapest for
    // the oracle's tree walker, take the four cells of the test matrix.
    let plain = &mut std::iter::repeat(&PLAIN);
    let su3_r = ratios(&su3_sweep(1728, 27, 64, plain));
    assert_su3_shape(&su3_r, 2.0);

    let spmv_r = ratios(&spmv_sweep(2048, 108, 27, 64, plain));
    assert_spmv_interior_peak(&spmv_r);

    let ideal_r =
        ratios(&ideal_sweep(6912, 27, 64, &mut std::iter::repeat_n(&PLAIN, 2).chain(&CELLS)));
    // At this size the curve peaks at gs=16 (group-32 divergence overhead
    // shows at small trip counts); pin the peak region.
    assert!(
        ideal_r[4] > 1.65 && ideal_r[4] < 2.0,
        "ideal gs=16 factor {:.3} outside measured band (curve {ideal_r:?})",
        ideal_r[4]
    );
    assert!(
        ideal_r[5] > 1.45,
        "ideal gs=32 factor {:.3} collapsed (curve {ideal_r:?})",
        ideal_r[5]
    );
}

/// Full Fig 9 geometry — the paper-shape contract. Release-only
/// (`cargo test --release -- --ignored`): several minutes in debug.
#[test]
#[ignore = "full Fig 9 size; run with --release -- --ignored"]
fn golden_shape_full() {
    // su3_bench: benefit capped at ≤ 2× (paper: ~1.3×), small groups
    // worst — the deviation the hierarchical model exists to fix.
    let cells = &mut std::iter::repeat(&PLAIN);
    let su3_r = ratios(&su3_sweep(55_296, 108, 128, cells));
    assert_su3_shape(&su3_r, 2.0);

    // sparse_matvec keeps its interior peak.
    let spmv_r = ratios(&spmv_sweep(65_536, 3_456, 108, 128, cells));
    assert_spmv_interior_peak(&spmv_r);
    let peak = (0..spmv_r.len()).max_by(|&a, &b| spmv_r[a].partial_cmp(&spmv_r[b]).unwrap());
    assert_eq!(peak, Some(2), "sparse_matvec peak moved off gs=4 (curve {spmv_r:?})");

    // ideal: group-32 factor within ±15% of the paper's 2.15×.
    let ideal_r = ratios(&ideal_sweep(55_296, 108, 128, cells));
    assert!(
        (1.8275..=2.4725).contains(&ideal_r[5]),
        "ideal gs=32 factor {:.3} outside 2.15 ± 15% (curve {ideal_r:?})",
        ideal_r[5]
    );
}
