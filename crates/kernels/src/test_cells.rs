//! The test matrix (`testkit::CELLS`) applied to this crate's unit tests.

use gpu_sim::{Device, DeviceArch, Slot};
use omp_codegen::CompiledKernel;
use testkit::Cell;

/// Set `dev`'s sim threads and sanitizer as `cell` says.
pub(crate) fn apply(cell: &Cell, dev: &mut Device) {
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
}

/// A device on `arch` set up as `cell` says.
pub(crate) fn device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    apply(cell, &mut dev);
    dev
}

/// In an oracle cell, launch `k` on both engines (asserting equal stats
/// and memory) before the test's own `run`.
pub(crate) fn oracle(cell: &Cell, dev: &mut Device, k: &CompiledKernel, args: &[Slot]) {
    if cell.oracle {
        k.launch_oracle(dev, args).unwrap();
    }
}
