//! Device registry: the host runtime's table of offload targets.

use std::sync::Arc;

use gpu_sim::{Device, DeviceArch};

use crate::map::ManagedDevice;
use crate::stream::Stream;
use crate::sync::Mutex;
use crate::timeline::{Timeline, TimelineStats};

/// The host-side offloading runtime: a registry of managed devices plus
/// convenience constructors (the `omp_get_num_devices` side of the world),
/// and the shared [`Timeline`] every stream created through
/// [`HostRuntime::stream`] records on — so cross-stream, cross-device
/// overlap is modeled jointly.
pub struct HostRuntime {
    devices: Vec<Arc<Mutex<ManagedDevice>>>,
    timeline: Timeline,
}

impl HostRuntime {
    /// Runtime with a single A100-like device (the paper's node uses four;
    /// "All runs are collected using a single GPU", §6.1).
    pub fn new() -> HostRuntime {
        HostRuntime::with_archs(vec![DeviceArch::a100()])
    }

    /// Runtime with one managed device per architecture descriptor.
    pub fn with_archs(archs: Vec<DeviceArch>) -> HostRuntime {
        HostRuntime {
            devices: archs
                .into_iter()
                .map(|a| Arc::new(Mutex::new(ManagedDevice::new(Device::new(a)))))
                .collect(),
            timeline: Timeline::new(),
        }
    }

    /// `omp_get_num_devices`.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Shared handle to device `i`: the lock its streams run their ops
    /// under, and what a host thread locks to drive the device directly.
    pub fn device(&self, i: usize) -> Arc<Mutex<ManagedDevice>> {
        Arc::clone(&self.devices[i])
    }

    /// Create a stream on device `i`, recording on the runtime's shared
    /// timeline (use [`Stream::new`] for an isolated one-off queue).
    pub fn stream(&self, i: usize) -> Stream {
        Stream::on_timeline(self.device(i), &self.timeline, i as u32)
    }

    /// The runtime's shared timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Snapshot of the shared timeline's overlap statistics.
    pub fn timeline_stats(&self) -> TimelineStats {
        self.timeline.stats()
    }
}

impl Default for HostRuntime {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_has_one_a100() {
        let rt = HostRuntime::new();
        assert_eq!(rt.num_devices(), 1);
        assert_eq!(rt.device(0).lock().dev.arch.name, "sim-A100-40GB");
    }

    #[test]
    fn multi_device_registry() {
        let rt = HostRuntime::with_archs(vec![
            DeviceArch::a100(),
            DeviceArch::a100(),
            DeviceArch::mi100(),
        ]);
        assert_eq!(rt.num_devices(), 3);
        assert_eq!(rt.device(2).lock().dev.arch.warp_size, 64);
        // Handles alias the same device.
        let d0a = rt.device(0);
        let d0b = rt.device(0);
        let p = d0a.lock().dev.global.alloc_zeroed::<u64>(1);
        d0b.lock().dev.global.write(p, 0, 9);
        assert_eq!(d0a.lock().dev.global.read(p, 0), 9);
    }

    #[test]
    fn runtime_streams_share_one_timeline() {
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(), DeviceArch::a100()]);
        let s0 = rt.stream(0);
        let s1 = rt.stream(1);
        s0.enqueue(|_| 100);
        s1.enqueue(|_| 60);
        let st = rt.timeline_stats();
        // Two devices' computes overlap on the shared timeline.
        assert_eq!(st.makespan, 100);
        assert_eq!(st.serialized, 160);
        assert_eq!(st.per_device.len(), 2);
        assert_eq!(st.per_device[0].busy.compute, 100);
        assert_eq!(st.per_device[1].busy.compute, 60);
    }
}
