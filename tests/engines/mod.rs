//! The two execution engines' launch entries, by name, shared by the root
//! suites that compare them: the tree walker
//! ([`launch_target`]) and the bytecode engine ([`CompiledKernel::launch`]).

use simt_omp::codegen::CompiledKernel;
use simt_omp::gpu::{Device, LaunchError, LaunchStats, Slot};
use simt_omp::rt::exec::launch_target;

/// One engine's launch entry.
pub type Launch = fn(&CompiledKernel, &mut Device, &[Slot]) -> Result<LaunchStats, LaunchError>;

/// Both engines by name: the tree walker and the bytecode engine.
pub const ENGINES: [(&str, Launch); 2] = [
    ("tree", |k, dev, args| launch_target(dev, &k.config, &k.plan, &k.registry, args)),
    ("bytecode", CompiledKernel::launch),
];
