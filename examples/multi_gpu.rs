//! Multi-device offloading: split a sparse matrix–vector product across two
//! simulated GPUs, each fed by its own stream (the paper's Perlmutter node
//! has four A100s; §6.1 uses one, but the host runtime supports more).
//!
//! ```text
//! cargo run --release --example multi_gpu [rows]
//! ```

use simt_omp::gpu::DeviceArch;
use simt_omp::host::HostRuntime;
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::spmv;

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(16_384);
    let half = rows / 2;

    let mat = CsrMatrix::generate(rows, rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..rows).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let want = mat.spmv_ref(&x);

    // Row-split the matrix into two halves (row_ptr rebased per half).
    let top = mat.row_slice(0, half);
    let bottom = mat.row_slice(half, rows);
    top.validate();
    bottom.validate();

    let rt = HostRuntime::with_archs(vec![DeviceArch::a100(), DeviceArch::a100()]);
    println!("devices: {}", rt.num_devices());

    // Streams from the runtime share one virtual timeline, so the two
    // devices' overlap shows up in `rt.timeline_stats()` below.
    let k = spmv::build_three_level(108, 128, 8);
    let mut y = Vec::with_capacity(rows);
    let mut cycles = Vec::new();
    for (d, part) in [top, bottom].into_iter().enumerate() {
        let stream = rt.stream(d);
        stream.enqueue(|md| {
            let ops = spmv::SpmvDev::upload(&mut md.dev, &part, &x);
            let (part_y, stats) = spmv::run(&mut md.dev, &k, &ops);
            y.extend(part_y);
            stats.cycles
        });
        cycles.push(stream.sync());
    }

    let max_err = y.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!(
        "split spmv over 2 GPUs: {} and {} cycles (makespan {}), max err {max_err:.1e}",
        cycles[0],
        cycles[1],
        cycles.iter().max().unwrap()
    );
    assert!(max_err < 1e-9);

    // The shared timeline sees both devices: end-to-end simulated time is
    // the slower half, not the sum.
    let tl = rt.timeline_stats();
    println!("{tl}");
    assert_eq!(tl.makespan, *cycles.iter().max().unwrap());

    // Single-device reference for comparison.
    let single = {
        let dev = rt.device(0);
        let mut md = dev.lock();
        let ops = spmv::SpmvDev::upload(&mut md.dev, &mat, &x);
        spmv::run(&mut md.dev, &k, &ops).1.cycles
    };
    println!(
        "single device: {single} cycles → dual-GPU speedup {:.2}x",
        single as f64 / *cycles.iter().max().unwrap() as f64
    );
}
