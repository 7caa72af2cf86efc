//! Tests of the §7 future-work extensions: loop collapsing and
//! parallel-level reductions.

use gpu_sim::{Device, DeviceArch, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_core::config::ExecMode;
use testkit::{Cell, CELLS};

/// A device on `arch` with `cell`'s sim threads and sanitizer.
fn cell_device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

#[test]
fn collapse2_preserves_spmd_and_covers_the_space() {
    for cell in &CELLS {
        // out[i][j] = i*1000 + j over a 37×29 fused space.
        let (n1, n2) = (37u64, 29u64);
        let mut dev = cell_device(cell, DeviceArch::a100());
        let out = dev.global.alloc_zeroed::<f64>((n1 * n2) as usize);

        let mut b = TargetBuilder::new().num_teams(8).threads(64);
        let inner = b.trip_const(1);
        let k = b.build(|t| {
            t.distribute_parallel_for_collapse2(n1, n2, Schedule::Cyclic(1), 1, |p, i, j| {
                p.simd(inner, move |lane, _iv, v| {
                    let out = v.args[0].as_ptr::<f64>();
                    let (iv1, iv2) = (v.regs[i.0].as_u64(), v.regs[j.0].as_u64());
                    lane.write(out, iv1 * n2 + iv2, (iv1 * 1000 + iv2) as f64);
                });
            });
        });
        // The pure index decode must NOT break SPMD-ness (§7 / [16]-style
        // SPMDization of pure guarded code).
        assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Spmd);

        k.run(&mut dev, &[Slot::from_ptr(out)]);
        let got = dev.global.read_slice(out, (n1 * n2) as usize);
        for i in 0..n1 {
            for j in 0..n2 {
                assert_eq!(got[(i * n2 + j) as usize], (i * 1000 + j) as f64, "({i},{j})");
            }
        }
    }
}

#[test]
fn collapse2_with_simd_group_matches_manual_decode() {
    for cell in &CELLS {
        // A collapse(2) stencil-ish kernel with simdlen 8 agrees with the same
        // kernel written with manual index decomposition.
        let (n1, n2, inner) = (24u64, 16u64, 32u64);
        let input: Vec<f64> = (0..n1 * n2 * inner).map(|x| (x % 97) as f64).collect();

        let run_collapsed = || {
            let mut dev = cell_device(cell, DeviceArch::a100());
            let src = dev.global.alloc_from(&input);
            let dst = dev.global.alloc_zeroed::<f64>(input.len());
            let mut b = TargetBuilder::new().num_teams(16).threads(128);
            let it = b.trip_const(inner);
            let k = b.build(|t| {
                t.distribute_parallel_for_collapse2(n1, n2, Schedule::Cyclic(1), 8, |p, i, j| {
                    p.simd(it, move |lane, iv, v| {
                        let s = v.args[0].as_ptr::<f64>();
                        let d = v.args[1].as_ptr::<f64>();
                        let base = (v.regs[i.0].as_u64() * n2 + v.regs[j.0].as_u64()) * inner;
                        let x = lane.read(s, base + iv);
                        lane.work(2);
                        lane.write(d, base + iv, 2.0 * x);
                    });
                });
            });
            let stats = k.run(&mut dev, &[Slot::from_ptr(src), Slot::from_ptr(dst)]);
            (dev.global.read_slice(dst, input.len()), stats.cycles)
        };
        let (got, _) = run_collapsed();
        let want: Vec<f64> = input.iter().map(|x| 2.0 * x).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn reduce_across_computes_team_wide_dot_product() {
    for cell in &CELLS {
        // dot(x, y) via: simd-reduce per chunk → per-group accumulator →
        // reduce_across teams into result[0].
        let n: u64 = 4096;
        let chunk: u64 = 64;
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.5).collect();
        let want: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();

        let mut dev = cell_device(cell, DeviceArch::a100());
        let x = dev.global.alloc_from(&xs);
        let y = dev.global.alloc_from(&ys);
        let result = dev.global.alloc_zeroed::<f64>(1);

        let mut b = TargetBuilder::new().num_teams(8).threads(128);
        let chunks = b.trip_const(n / chunk);
        let inner = b.trip_const(chunk);
        let k = b.build(|t| {
            t.parallel(8, |p| {
                let acc = p.alloc_reg();
                p.for_loop(chunks, Schedule::Cyclic(1), |p, c| {
                    let partial = p.simd_reduce(inner, move |lane, iv, v| {
                        let x = v.args[0].as_ptr::<f64>();
                        let y = v.args[1].as_ptr::<f64>();
                        let i = v.regs[c.0].as_u64() * chunk + iv;
                        lane.work(2);
                        lane.read(x, i) * lane.read(y, i)
                    });
                    // Accumulate chunk sums in the group-private register.
                    p.seq(move |lane, v| {
                        lane.work(1);
                        let s = v.regs[acc.0].as_f64() + v.regs[partial.0].as_f64();
                        v.regs[acc.0] = Slot::from_f64(s);
                    });
                });
                p.reduce_across(acc, 2, 0);
            });
        });
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);

        let stats =
            k.run(&mut dev, &[Slot::from_ptr(x), Slot::from_ptr(y), Slot::from_ptr(result)]);
        let got = dev.global.read(result, 0);
        // Every team's `for` is team-local here (plain `parallel`), so each of
        // the 8 teams computes the full dot product and adds it once.
        assert!(
            (got - 8.0 * want).abs() < 1e-6 * want.abs().max(1.0),
            "got {got}, want {}",
            8.0 * want
        );
        assert!(stats.counters.block_barriers >= 8 * 2, "staging barriers must run");
    }
}

#[test]
fn reduce_across_with_combined_for_sums_once() {
    for cell in &CELLS {
        // With the combined construct the iteration space is shared across
        // teams, so the grand total lands exactly once.
        let n: u64 = 2048;
        let chunk: u64 = 32;
        let xs: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
        let want: f64 = xs.iter().sum();

        let mut dev = cell_device(cell, DeviceArch::a100());
        let x = dev.global.alloc_from(&xs);
        let result = dev.global.alloc_zeroed::<f64>(1);

        let mut b = TargetBuilder::new().num_teams(4).threads(64);
        let chunks = b.trip_const(n / chunk);
        let inner = b.trip_const(chunk);
        let k = b.build(|t| {
            t.distribute_parallel_for(chunks, Schedule::Cyclic(1), 8, |p, c| {
                // The combined construct wraps everything in the `for`, so the
                // reduction finalizer runs once per round over the round's
                // active groups — each chunk partial is published exactly once.
                let partial = p.simd_reduce(inner, move |lane, iv, v| {
                    let x = v.args[0].as_ptr::<f64>();
                    lane.work(1);
                    lane.read(x, v.regs[c.0].as_u64() * chunk + iv)
                });
                p.reduce_across(partial, 1, 0);
            });
        });
        k.run(&mut dev, &[Slot::from_ptr(x), Slot::from_ptr(result)]);
        let got = dev.global.read(result, 0);
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }
}
