//! # simt-omp-host — the host-side offloading runtime
//!
//! The `libomptarget` analog the paper's device runtime sits under
//! (paper §3: "OpenMP offloading utilizes a host-device execution model
//! where the host (CPU) schedules and synchronizes target tasks, in the
//! form of kernels, and handles memory allocation and movement between the
//! host and target devices"). It provides:
//!
//! * a **device registry** ([`device::HostRuntime`]);
//! * the **data-mapping table** with `map(to/from/alloc/release)` reference
//!   counting and `target update` ([`map::ManagedDevice`]);
//! * a **transfer cost model** in device-clock cycles ([`xfer`]);
//! * **streams** ([`stream::Stream`]): in-order per-device work queues
//!   (`target nowait` analog) whose ops run at once on the caller's thread
//!   and are logged on the virtual timeline, the only clock;
//! * **events** ([`event::Event`]): recorded on streams and waited on by
//!   others, forming a dependence DAG across streams and devices
//!   (`target nowait` + `depend` analog);
//! * the **virtual timeline** ([`timeline::Timeline`]): places each
//!   logged op once, deterministically, on one of three resources per
//!   device (H2D link, D2H link, compute), so transfers overlap kernels —
//!   and each other, duplex — in simulated cycles, with per-resource busy
//!   time, critical path, and overlap ratio in
//!   [`timeline::TimelineStats`];
//! * **pipelined map transfers** ([`map::pipelined_to_compute`]):
//!   double-buffered chunked `map(to:)` interleaving H2D of chunk *k+1*
//!   with compute on chunk *k*.

pub mod device;
pub mod event;
pub mod map;
pub mod stream;
pub mod sync;
pub mod timeline;
pub mod xfer;

pub use device::HostRuntime;
pub use event::Event;
pub use map::{pipelined_map_to, pipelined_to_compute, ManagedDevice};
pub use stream::Stream;
pub use timeline::{DeviceBusy, OpView, Timeline, TimelineStats};
pub use xfer::{XferModel, XferStats};
