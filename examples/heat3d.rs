//! Multi-sweep 3-D heat diffusion driven through the host runtime: data is
//! mapped once (`map(to:)`/`map(from:)` semantics with reference counts),
//! several Jacobi sweeps run on the device, and only the final grid is
//! copied back — the standard `target data` pattern of OpenMP offloading.
//!
//! ```text
//! cargo run --release --example heat3d [n] [sweeps]
//! ```

use simt_omp::gpu::Slot;
use simt_omp::host::HostRuntime;
use simt_omp::kernels::harness::Fig10Variant;
use simt_omp::kernels::laplace3d::{build, Laplace3dWorkload};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let sweeps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let w = Laplace3dWorkload::generate(n);
    let mut grid_a = w.u.clone();
    let mut grid_b = w.u.clone();

    let rt = HostRuntime::new();
    let dev = rt.device(0);
    let kernel = build(108, 128, Fig10Variant::SpmdSimd);

    let mut total_cycles = 0u64;
    {
        let mut md = dev.lock();
        // Enter the data region: one H2D copy per grid.
        let a = md.map_to(&grid_a);
        let b_ptr = md.map_to(&grid_b);
        println!(
            "mapped {} MB to {} (h2d transfers: {})",
            2 * grid_a.len() * 8 / (1 << 20),
            md.dev.arch.name,
            md.xfer.h2d_count
        );

        // Ping-pong sweeps entirely on the device.
        for s in 0..sweeps {
            let (src, dst) = if s % 2 == 0 { (a, b_ptr) } else { (b_ptr, a) };
            let args = [Slot::from_ptr(src), Slot::from_ptr(dst), Slot::from_u64(n as u64)];
            let stats = kernel.run(&mut md.dev, &args);
            total_cycles += stats.cycles;
            println!("sweep {s}: {} cycles", stats.cycles);
        }

        // Exit the data region: D2H copy-back on the last reference.
        md.map_from(&mut grid_a);
        md.map_from(&mut grid_b);
        println!(
            "transfers: {} h2d / {} d2h, {} link cycles",
            md.xfer.h2d_count, md.xfer.d2h_count, md.xfer.cycles
        );
    }

    // Verify one sweep against the host reference.
    let first = w.reference();
    let device_first = if sweeps.is_multiple_of(2) { &grid_a } else { &grid_b };
    let _ = device_first;
    let mut next = first;
    for _ in 1..sweeps {
        let hw = Laplace3dWorkload { n, u: next.clone() };
        next = hw.reference();
    }
    let result = if sweeps % 2 == 1 { &grid_b } else { &grid_a };
    let max_err = result.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!(
        "{sweeps} sweeps on {n}³ grid: {total_cycles} total device cycles, max err {max_err:.2e}"
    );
    assert!(max_err < 1e-9, "device result diverged from host reference");

    batched_instances(n.min(32), sweeps);
}

/// Double-buffered batch: several independent heat instances streamed
/// through upload → sweeps → download on three streams (H2D, compute, D2H)
/// chained by events, so on the virtual timeline instance *k+1* uploads
/// while *k* computes and *k−1* drains — the `target nowait` pipeline.
fn batched_instances(n: usize, sweeps: usize) {
    let batch = 4usize;
    let rt = HostRuntime::new();
    let copy = rt.stream(0);
    let compute = rt.stream(0);
    let down = rt.stream(0);
    let kernel = build(108, 128, Fig10Variant::SpmdSimd);

    let mut outputs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..batch {
        let u = Laplace3dWorkload::generate(n).u;
        let bytes = (u.len() * 8) as u64;

        let mut grids = None;
        copy.enqueue_h2d(|md| {
            let a = md.dev.global.alloc_zeroed::<f64>(u.len());
            let b = md.dev.global.alloc_zeroed::<f64>(u.len());
            md.dev.global.write_slice(a, &u);
            md.dev.global.write_slice(b, &u);
            grids = Some((a, b));
            let model = md.model;
            md.xfer.record_h2d(&model, 2 * bytes);
            model.cycles_for(2 * bytes)
        });
        let (a, b) = grids.expect("uploaded before compute");
        let uploaded = copy.record_event();

        compute.wait_event(&uploaded);
        compute.enqueue(|md| {
            let mut cycles = 0;
            for s in 0..sweeps {
                let (src, dst) = if s % 2 == 0 { (a, b) } else { (b, a) };
                let args = [Slot::from_ptr(src), Slot::from_ptr(dst), Slot::from_u64(n as u64)];
                cycles += kernel.run(&mut md.dev, &args).cycles;
            }
            cycles
        });
        let computed = compute.record_event();

        down.wait_event(&computed);
        down.enqueue_d2h(|md| {
            let result = if sweeps % 2 == 1 { b } else { a };
            outputs.push(md.dev.global.read_slice(result, u.len()));
            let model = md.model;
            md.xfer.record_d2h(&model, bytes);
            model.cycles_for(bytes)
        });
    }

    let tl = rt.timeline_stats();
    println!("\nbatched {batch} instances of {n}³ × {sweeps} sweeps, double-buffered:");
    println!("{tl}");
    assert!(tl.makespan <= tl.serialized);

    // Every instance must match its host reference.
    for (i, out) in outputs.iter().enumerate() {
        let w = Laplace3dWorkload::generate(n);
        let mut cur = w.u.clone();
        for _ in 0..sweeps {
            cur = Laplace3dWorkload { n, u: cur }.reference();
        }
        let err = out.iter().zip(cur.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-9, "instance {i} diverged: {err:.2e}");
    }
    println!("all {batch} instances match the host reference");
}
