//! `stencil2d` — a tiled 2-D Jacobi stencil whose **halo exchange flows
//! through the variable-sharing space** (paper §5.3.1).
//!
//! One Jacobi sweep of the 4-point stencil over an `ny × nx` grid:
//! `unew[i,j] = (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1]) / 4` for
//! interior points. Interior rows are distributed across teams; within a
//! team, each row's interior columns are tiled into `tile_w`-wide segments
//! worked by the SIMD groups.
//!
//! The interesting variant is [`Stencil2dVariant::HaloShared`]: before each
//! tile's `simd` loop, the SIMD main reads the tile's *halo* cells (the
//! columns just left and right of the tile) into scope registers in a
//! sequential chunk. That chunk breaks tight nesting, so the parallel
//! region runs **generic** and the runtime stages the registers — i.e. the
//! halo cells — through the group's slice of the sharing space: the SIMD
//! main posts, a masked warp sync releases the group, and the lanes fetch
//! the halo from shared memory (Fig 4's staging protocol doing real work).
//! Small sharing spaces push the staging onto the global-memory fallback
//! path, and the team-level `distribute` wrapping a `parallel` region per
//! row makes the teams region generic too — block barriers between rows.
//!
//! [`Stencil2dVariant::SpmdRef`] is the no-sharing reference: the same
//! arithmetic tightly nested (fused row×tile loop, every neighbour read
//! straight from global memory), which the mode analysis keeps fully SPMD.
//! Both variants must agree with the host reference **bit-exactly** — the
//! staged halo values round-trip through 8-byte slots unchanged.
//!
//! [`demo_halo_staging`] is a hand-rolled single-warp mirror of the staging
//! protocol used by the sanitizer suite: with `sync = false` it omits the
//! masked warp sync between the halo post and the lanes' reads, seeding the
//! `SharedMemRace` a forgotten `synchronizeWarp` would cause on hardware.

use gpu_sim::{DPtr, Device, LaneMask, LaunchConfig, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;
use omp_core::config::KernelConfig;
use omp_core::sharing::SharingSpace;

const A_U: usize = 0;
const A_UNEW: usize = 1;
const A_NX: usize = 2;
const A_NY: usize = 3;
const A_TW: usize = 4;

/// The two kernel shapes the workload compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil2dVariant {
    /// Tiled generic-mode kernel staging each tile's halo cells through the
    /// group's slice of the variable-sharing space.
    HaloShared,
    /// Tightly nested SPMD reference: identical arithmetic, every neighbour
    /// read from global memory, no sharing-space traffic.
    SpmdRef,
}

/// Host workload: an `ny × nx` grid (row-major) with a deterministic
/// initial condition.
pub struct Stencil2dWorkload {
    /// Columns.
    pub nx: usize,
    /// Rows.
    pub ny: usize,
    /// Initial grid, row-major `[i][j]`.
    pub u: Vec<f64>,
}

impl Stencil2dWorkload {
    /// Deterministic initial condition (hot boundary + interior pattern).
    pub fn generate(nx: usize, ny: usize) -> Stencil2dWorkload {
        assert!(nx >= 3 && ny >= 3, "grid needs an interior");
        let mut u = vec![0.0; nx * ny];
        for i in 0..ny {
            for j in 0..nx {
                let v = if i == 0 || j == 0 || i == ny - 1 || j == nx - 1 {
                    100.0
                } else {
                    (i * 23 + j * 13) as f64 % 17.0
                };
                u[i * nx + j] = v;
            }
        }
        Stencil2dWorkload { nx, ny, u }
    }

    /// Host reference: one Jacobi sweep (boundary copied unchanged). The
    /// summation order matches the device kernels so results are bit-exact.
    pub fn reference(&self) -> Vec<f64> {
        let (nx, u) = (self.nx, &self.u);
        let mut out = u.clone();
        for i in 1..self.ny - 1 {
            for j in 1..nx - 1 {
                let s = u[(i - 1) * nx + j]
                    + u[(i + 1) * nx + j]
                    + u[i * nx + j - 1]
                    + u[i * nx + j + 1];
                out[i * nx + j] = s / 4.0;
            }
        }
        out
    }
}

/// Device-resident grids plus the tile width baked into the arg payload.
pub struct Stencil2dDev {
    u: DPtr<f64>,
    unew: DPtr<f64>,
    nx: usize,
    ny: usize,
    tile_w: u64,
}

impl Stencil2dDev {
    /// Upload the workload; `unew` starts as a copy of `u` so boundaries
    /// carry over. `tile_w` is the interior-column tile width.
    pub fn upload(dev: &mut Device, w: &Stencil2dWorkload, tile_w: u64) -> Stencil2dDev {
        assert!(tile_w >= 1);
        Stencil2dDev {
            u: dev.global.alloc_from(&w.u),
            unew: dev.global.alloc_from(&w.u),
            nx: w.nx,
            ny: w.ny,
            tile_w,
        }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 5] {
        [
            Slot::from_ptr(self.u),
            Slot::from_ptr(self.unew),
            Slot::from_u64(self.nx as u64),
            Slot::from_u64(self.ny as u64),
            Slot::from_u64(self.tile_w),
        ]
    }

    /// Read the result grid back.
    pub fn read_out(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.unew, self.nx * self.ny)
    }
}

/// One interior point: `s = up + down + left + right; out = s / 4`. The
/// caller supplies `left`/`right` (staged halo or direct read) so both
/// variants share the exact same operation order.
#[inline]
#[allow(clippy::too_many_arguments)]
fn blend(
    lane: &mut gpu_sim::Lane<'_, '_>,
    u: DPtr<f64>,
    unew: DPtr<f64>,
    nx: u64,
    i: u64,
    j: u64,
    left: f64,
    right: f64,
) {
    let s = lane.read(u, (i - 1) * nx + j) + lane.read(u, (i + 1) * nx + j) + left + right;
    lane.work(6);
    lane.write(unew, i * nx + j, s / 4.0);
}

/// Build a stencil2d sweep kernel.
///
/// `sharing_bytes` sizes the variable-sharing space (only meaningful for
/// [`Stencil2dVariant::HaloShared`]; small values force the zero-slot /
/// overflow global-fallback staging paths).
pub fn build(
    num_teams: u32,
    threads: u32,
    simdlen: u32,
    sharing_bytes: u32,
    variant: Stencil2dVariant,
) -> CompiledKernel {
    let mut b =
        TargetBuilder::new().num_teams(num_teams).threads(threads).sharing_space(sharing_bytes);
    match variant {
        Stencil2dVariant::HaloShared => {
            let rows = b.trip_uniform(|v| v.args[A_NY].as_u64() - 2);
            let ntiles =
                b.trip_uniform(|v| (v.args[A_NX].as_u64() - 2).div_ceil(v.args[A_TW].as_u64()));
            let tile = b.trip_uniform(|v| v.args[A_TW].as_u64());
            b.build(|t| {
                // Rows across teams; a parallel region per row means block
                // barriers between rows (generic teams mode).
                t.distribute(rows, Schedule::Cyclic(1), |t, row| {
                    t.parallel(simdlen, |p| {
                        // Tiles of the row across this team's SIMD groups.
                        p.for_loop(ntiles, Schedule::Cyclic(1), |p, tv| {
                            let halo_l = p.alloc_reg();
                            let halo_r = p.alloc_reg();
                            // SIMD main loads the tile's halo cells; the
                            // registers travel to the lanes through the
                            // group's sharing-space slice (§5.3.1).
                            p.seq(move |lane, v| {
                                let u = v.args[A_U].as_ptr::<f64>();
                                let nx = v.args[A_NX].as_u64();
                                let tw = v.args[A_TW].as_u64();
                                let i = v.outer[row.0].as_u64() + 1;
                                let j0 = 1 + v.regs[tv.0].as_u64() * tw;
                                lane.work(4);
                                let l = lane.read(u, i * nx + j0 - 1);
                                let r = lane.read(u, i * nx + (j0 + tw).min(nx - 1));
                                v.regs[halo_l.0] = Slot::from_f64(l);
                                v.regs[halo_r.0] = Slot::from_f64(r);
                            });
                            p.simd(tile, move |lane, k, v| {
                                let u = v.args[A_U].as_ptr::<f64>();
                                let unew = v.args[A_UNEW].as_ptr::<f64>();
                                let nx = v.args[A_NX].as_u64();
                                let tw = v.args[A_TW].as_u64();
                                let i = v.outer[row.0].as_u64() + 1;
                                let j0 = 1 + v.regs[tv.0].as_u64() * tw;
                                let j = j0 + k;
                                if j > nx - 2 {
                                    return; // ragged last tile
                                }
                                let left = if k == 0 {
                                    v.regs[halo_l.0].as_f64()
                                } else {
                                    lane.read(u, i * nx + j - 1)
                                };
                                let right = if k == tw - 1 {
                                    v.regs[halo_r.0].as_f64()
                                } else {
                                    lane.read(u, i * nx + j + 1)
                                };
                                blend(lane, u, unew, nx, i, j, left, right);
                            });
                        });
                    });
                });
            })
        }
        Stencil2dVariant::SpmdRef => {
            let fused = b.trip_uniform(|v| {
                let rows = v.args[A_NY].as_u64() - 2;
                rows * (v.args[A_NX].as_u64() - 2).div_ceil(v.args[A_TW].as_u64())
            });
            let tile = b.trip_uniform(|v| v.args[A_TW].as_u64());
            b.build(|t| {
                t.distribute_parallel_for(fused, Schedule::Cyclic(1), simdlen, |p, fv| {
                    p.simd(tile, move |lane, k, v| {
                        let u = v.args[A_U].as_ptr::<f64>();
                        let unew = v.args[A_UNEW].as_ptr::<f64>();
                        let nx = v.args[A_NX].as_u64();
                        let tw = v.args[A_TW].as_u64();
                        let ntiles = (nx - 2).div_ceil(tw);
                        let f = v.regs[fv.0].as_u64();
                        let i = f / ntiles + 1;
                        let j = 1 + (f % ntiles) * tw + k;
                        lane.work(4);
                        if j > nx - 2 {
                            return;
                        }
                        let left = lane.read(u, i * nx + j - 1);
                        let right = lane.read(u, i * nx + j + 1);
                        blend(lane, u, unew, nx, i, j, left, right);
                    });
                });
            })
        }
    }
}

/// [`build`] with the paper-default 2048-byte sharing space.
pub fn build_default(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    build(
        num_teams,
        threads,
        simdlen,
        KernelConfig::SHARING_SPACE_DEFAULT,
        Stencil2dVariant::HaloShared,
    )
}

/// Run a compiled stencil2d kernel.
pub fn run(
    dev: &mut Device,
    kernel: &CompiledKernel,
    ops: &Stencil2dDev,
) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_out(dev), stats)
}

/// Hand-rolled single-warp halo staging against the raw device runtime:
/// SIMD groups of 8 lanes across one full warp of the device's native
/// width, each group's main posting its tile's left/right halo cells into
/// the group's sharing-space slice, the lanes consuming them for a
/// 2-point blend.
///
/// With `sync = true` a full masked warp sync orders the post before the
/// reads — the protocol of Fig 4, sanitizer-clean. With `sync = false` the
/// sync is **missing**: the seeded halo-sync bug, which simtcheck reports
/// as [`gpu_sim::Violation::SharedMemRace`] on the halo slots.
pub fn demo_halo_staging(dev: &mut Device, sync: bool) -> LaunchStats {
    const GS: u32 = 8;
    let ws = dev.arch.warp_size;
    let groups = ws / GS;
    let row: Vec<f64> = (0..2 * ws as usize).map(|x| (x * x % 29) as f64).collect();
    let u = dev.global.alloc_from(&row);
    let out = dev.global.alloc_zeroed::<f64>(ws as usize);
    let cfg = LaunchConfig { num_blocks: 1, threads_per_block: ws, smem_bytes: 2048 };
    dev.launch(&cfg, |team| {
        let mut sharing = SharingSpace::reserve(&mut team.smem, 1024);
        sharing.configure_groups(groups);
        let slices: Vec<_> = (0..groups).map(|g| sharing.group_slice(g).0).collect();
        let leaders: Vec<u32> = (0..groups).map(|g| g * GS).collect();
        // SIMD mains post the halo pair for their group's tile.
        team.run_lanes(0, &leaders, |lane, l| {
            let g = (l / GS) as usize;
            let j0 = 1 + g as u64 * GS as u64;
            let left = lane.read(u, j0 - 1);
            let right = lane.read(u, j0 + GS as u64);
            lane.smem_write_f64(slices[g], 0, left);
            lane.smem_write_f64(slices[g], 1, right);
        });
        if sync {
            let all = LaneMask::contiguous(0, ws);
            team.warp_sync_masked(0, all, all);
        }
        // Every lane blends its point, edge lanes consuming the staged halo.
        let lanes: Vec<u32> = (0..ws).collect();
        team.run_lanes(0, &lanes, |lane, l| {
            let g = (l / GS) as usize;
            let k = (l % GS) as u64;
            let j = 1 + g as u64 * GS as u64 + k;
            let left = if k == 0 { lane.smem_read_f64(slices[g], 0) } else { lane.read(u, j - 1) };
            let right = if k == GS as u64 - 1 {
                lane.smem_read_f64(slices[g], 1)
            } else {
                lane.read(u, j + 1)
            };
            lane.write(out, j - 1, (left + right) / 2.0);
        });
    })
    .unwrap()
}

/// Plan-built analog of [`demo_halo_staging`]: the same four-group halo
/// blend expressed as a target region, with the staging discipline chosen
/// by `sync`. Arguments: `args[0]` = the 64-cell input row, `args[1]` = 32
/// output cells.
///
/// With `sync = true` the parallel region is pinned **generic**: the halo
/// pair travels from each tile's SIMD main to its lanes as staged scope
/// registers, and the Fig 4 protocol's masked warp syncs order every post
/// before every read — simtlint-clean, sanitizer-clean.
///
/// With `sync = false` the region is pinned **SPMD** and the halo pair is
/// pushed through raw sharing-space slots (`2·tile` / `2·tile + 1`) with
/// *nothing* ordering the redundant lane writes against the readers — the
/// plan-level rendition of the forgotten `synchronizeWarp`. simtlint proves
/// the race statically (`E-RACE` on every declared slot, plus
/// `E-SPMD-EFFECT` for the effectful sequential chunk); launching anyway
/// through the ungated escape hatch makes simtcheck report the predicted
/// [`gpu_sim::Violation::SharedMemRace`]. The simulator's in-order op
/// execution still computes the right blend — every racing write carries
/// the same value — which is exactly why this bug ships: it "works" until
/// the hardware reorders it.
pub fn build_halo_demo(sync: bool) -> CompiledKernel {
    use gpu_sim::mem::shared::SmOff;
    use omp_core::config::ExecMode;
    use omp_core::dispatch::Footprint;

    const GS: u64 = 8;
    const GROUPS: u64 = 4;
    const HALO_SLOTS: [u32; 2 * GROUPS as usize] = [0, 1, 2, 3, 4, 5, 6, 7];
    let mut b = TargetBuilder::new().num_teams(1).threads(32);
    let ntiles = b.trip_const(GROUPS);
    let tile = b.trip_const(GS);
    let mode = if sync { ExecMode::Generic } else { ExecMode::Spmd };
    b.build(|t| {
        t.parallel_with_mode(GS as u32, mode, |p| {
            p.for_loop(ntiles, Schedule::Cyclic(1), |p, tv| {
                if sync {
                    let halo_l = p.alloc_reg();
                    let halo_r = p.alloc_reg();
                    p.seq_footprint(
                        Footprint::new()
                            .reads_args(&[0])
                            .reads_regs(&[tv.0])
                            .writes_regs(&[halo_l.0, halo_r.0]),
                        move |lane, v| {
                            let u = v.args[0].as_ptr::<f64>();
                            let j0 = 1 + v.regs[tv.0].as_u64() * GS;
                            let l = lane.read(u, j0 - 1);
                            let r = lane.read(u, j0 + GS);
                            v.regs[halo_l.0] = Slot::from_f64(l);
                            v.regs[halo_r.0] = Slot::from_f64(r);
                        },
                    );
                    p.simd_footprint(
                        tile,
                        Footprint::new()
                            .reads_args(&[0])
                            .writes_args(&[1])
                            .reads_regs(&[tv.0, halo_l.0, halo_r.0]),
                        move |lane, k, v| {
                            let u = v.args[0].as_ptr::<f64>();
                            let out = v.args[1].as_ptr::<f64>();
                            let j = 1 + v.regs[tv.0].as_u64() * GS + k;
                            let left = if k == 0 {
                                v.regs[halo_l.0].as_f64()
                            } else {
                                lane.read(u, j - 1)
                            };
                            let right = if k == GS - 1 {
                                v.regs[halo_r.0].as_f64()
                            } else {
                                lane.read(u, j + 1)
                            };
                            lane.write(out, j - 1, (left + right) / 2.0);
                        },
                    );
                } else {
                    p.seq_footprint(
                        Footprint::new()
                            .reads_args(&[0])
                            .reads_regs(&[tv.0])
                            .writes_smem(&HALO_SLOTS),
                        move |lane, v| {
                            let u = v.args[0].as_ptr::<f64>();
                            let t = v.regs[tv.0].as_u64();
                            let j0 = 1 + t * GS;
                            let l = lane.read(u, j0 - 1);
                            let r = lane.read(u, j0 + GS);
                            lane.smem_write_f64(SmOff(0), (2 * t) as u32, l);
                            lane.smem_write_f64(SmOff(0), (2 * t + 1) as u32, r);
                        },
                    );
                    p.simd_footprint(
                        tile,
                        Footprint::new()
                            .reads_args(&[0])
                            .writes_args(&[1])
                            .reads_regs(&[tv.0])
                            .reads_smem(&HALO_SLOTS),
                        move |lane, k, v| {
                            let u = v.args[0].as_ptr::<f64>();
                            let out = v.args[1].as_ptr::<f64>();
                            let t = v.regs[tv.0].as_u64();
                            let j = 1 + t * GS + k;
                            let left = if k == 0 {
                                lane.smem_read_f64(SmOff(0), (2 * t) as u32)
                            } else {
                                lane.read(u, j - 1)
                            };
                            let right = if k == GS - 1 {
                                lane.smem_read_f64(SmOff(0), (2 * t + 1) as u32)
                            } else {
                                lane.read(u, j + 1)
                            };
                            lane.write(out, j - 1, (left + right) / 2.0);
                        },
                    );
                }
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ArchId, Violation};
    use omp_core::config::ExecMode;
    use testkit::CELLS;

    #[test]
    fn variant_modes_are_generic_vs_spmd() {
        let halo =
            build(6, 64, 8, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared);
        assert_eq!(halo.analysis.teams_mode, ExecMode::Generic, "distribute+parallel per row");
        assert_eq!(
            halo.analysis.parallels[0].desc.mode,
            ExecMode::Generic,
            "halo seq breaks nesting"
        );
        let spmd = build(6, 64, 8, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::SpmdRef);
        assert_eq!(spmd.analysis.teams_mode, ExecMode::Spmd);
        assert_eq!(spmd.analysis.parallels[0].desc.mode, ExecMode::Spmd);
    }

    #[test]
    fn halo_staging_traffic_flows_through_the_sharing_space() {
        let w = Stencil2dWorkload::generate(34, 10);
        let mut dev = Device::a100();
        let ops = Stencil2dDev::upload(&mut dev, &w, 8);
        let k = build(4, 64, 8, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared);
        let (_, stats) = run(&mut dev, &k, &ops);
        assert!(stats.counters.state_machine_posts > 0, "generic staging must post");
        assert_eq!(stats.counters.sharing_global_fallbacks, 0, "default space fits 5 slots");
        assert!(stats.counters.block_barriers > 2, "per-row parallel regions barrier");
    }

    #[test]
    fn tiny_sharing_space_forces_global_fallback() {
        // 256 B = 32 slots = exactly the team slice: group_slots == 0, every
        // tile's staging takes the global-memory fallback path.
        let w = Stencil2dWorkload::generate(26, 9);
        let mut dev = Device::a100();
        let ops = Stencil2dDev::upload(&mut dev, &w, 6);
        let k = build(4, 64, 8, 256, Stencil2dVariant::HaloShared);
        let (_, stats) = run(&mut dev, &k, &ops);
        assert!(stats.counters.sharing_global_fallbacks > 0, "zero-slot slices must fall back");
    }

    #[test]
    fn stencil2d_missing_halo_sync_reports_shared_race() {
        // The seeded negative: the same staging protocol without the masked
        // warp sync between the halo post and the lanes' reads races on the
        // halo slots, and simtcheck must say so. (A hand-written launch: the
        // oracle axis does not apply.)
        for cell in &CELLS {
            let sanitized = || {
                let mut dev = Device::new(ArchId::lookup(cell.arch).unwrap().arch());
                dev.set_sim_threads(cell.threads);
                dev.enable_sanitizer();
                dev
            };
            let stats = demo_halo_staging(&mut sanitized(), false);
            assert!(
                stats.violations.iter().any(|v| matches!(v, Violation::SharedMemRace { .. })),
                "{cell:?}: missing halo sync must report SharedMemRace: {:#?}",
                stats.violations
            );
            // With the sync restored the identical traffic is clean.
            let stats = demo_halo_staging(&mut sanitized(), true);
            assert!(stats.violations.is_empty(), "{cell:?}: {:#?}", stats.violations);
        }
    }

    /// Both plan-built demo variants compute the same blend (the racy one
    /// only because the simulator executes ops in order and every racing
    /// write carries the same value); only the synced one stages through
    /// the protocol. The oracle runs both engines on one team.
    #[test]
    fn plan_halo_demo_variants_agree_on_the_blend() {
        let row: Vec<f64> = (0..64).map(|x| (x * 3 % 23) as f64).collect();
        let want: Vec<f64> = (1..=32).map(|j| (row[j - 1] + row[j + 1]) / 2.0).collect();
        for sync in [true, false] {
            let k = build_halo_demo(sync);
            assert_eq!(
                k.analysis.parallels[0].desc.mode,
                if sync { ExecMode::Generic } else { ExecMode::Spmd },
            );
            let mut dev = Device::a100();
            let u = dev.global.alloc_from(&row);
            let out = dev.global.alloc_zeroed::<f64>(32);
            let args = [Slot::from_ptr(u), Slot::from_ptr(out)];
            let stats = k.launch_oracle(&mut dev, &args).unwrap();
            assert_eq!(dev.global.read_slice(out, 32), want, "sync={sync}");
            if sync {
                assert!(stats.counters.state_machine_posts > 0, "generic staging must post");
            }
        }
    }
}
