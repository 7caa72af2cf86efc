//! Stream events: the host-side synchronization primitive that turns
//! independent in-order streams into a dependence DAG.
//!
//! An [`Event`] is recorded on a stream at a program point and captures
//! "everything enqueued on that stream so far" (a *watermark*), exactly
//! like `cudaEventRecord`. Another stream calls
//! [`crate::stream::Stream::wait_event`] to make all of *its* subsequent
//! operations wait for the event: the edge is recorded in the
//! [`crate::timeline::Timeline`], whose placement makes the consumer's
//! simulated start `≥` the producer prefix's simulated finish.
//!
//! Stream ops run when they are enqueued, so an event exists only after
//! every op below it has returned: device memory effects are ordered by
//! program order, and the DAG is acyclic by construction.
//!
//! Events are cheap value handles (`Clone`), so one event can gate many
//! consumer streams on the same timeline.

use crate::timeline::Timeline;

/// A recorded point on a stream's queue (`cudaEventRecord` analog): all
/// operations enqueued on the producing stream before the record are
/// "below" the event.
#[derive(Clone)]
pub struct Event {
    /// Timeline the producing stream records on.
    pub(crate) timeline: Timeline,
    /// Producing stream's id in the timeline.
    pub(crate) stream: u32,
    /// Number of jobs enqueued on the producing stream at record time.
    pub(crate) watermark: u32,
}

impl Event {
    /// The producing stream's timeline id.
    pub fn stream_id(&self) -> u32 {
        self.stream
    }

    /// Jobs on the producing stream the event covers.
    pub fn watermark(&self) -> u32 {
        self.watermark
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("stream", &self.stream)
            .field("watermark", &self.watermark)
            .finish()
    }
}
