//! Deferred target tasks executed by hidden helper threads.
//!
//! The paper's runtime lineage includes concurrent execution of deferred
//! OpenMP target tasks via *hidden helper threads* (reference \[26\] in the paper's
//! references, §2). This module reproduces that substrate: a small pool of
//! helper threads consumes target tasks from a channel (`target nowait`),
//! and `taskwait` blocks until all submitted tasks completed. The helpers
//! share the channel's receiver behind a [`crate::sync::Mutex`].
//!
//! Devices are shared behind [`crate::sync::Mutex`]; a task locks its
//! device for the duration of its kernel, which serializes same-device
//! kernels exactly like a CUDA stream does.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pending {
    count: Mutex<usize>,
    cv: Condvar,
}

/// A pool of hidden helper threads for deferred target tasks.
pub struct HelperPool {
    tx: Option<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    pending: Arc<Pending>,
}

impl HelperPool {
    /// Spawn `n` helper threads (LLVM's default is 8; tests use 1 for
    /// strict determinism).
    pub fn new(n: usize) -> HelperPool {
        assert!(n >= 1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let pending = Arc::new(Pending { count: Mutex::new(0), cv: Condvar::new() });
        let handles = (0..n)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("omp-hidden-helper-{i}"))
                    .spawn(move || {
                        // The lock is held only while receiving; `recv`
                        // fails once the pool drops its sender.
                        loop {
                            let Ok(job) = rx.lock().recv() else { break };
                            job();
                            let mut c = pending.count.lock();
                            *c -= 1;
                            if *c == 0 {
                                pending.cv.notify_all();
                            }
                        }
                    })
                    .expect("spawn helper thread")
            })
            .collect();
        HelperPool { tx: Some(tx), handles, pending }
    }

    /// Submit a deferred task (`target nowait`).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut c = self.pending.count.lock();
            *c += 1;
        }
        self.tx
            .as_ref()
            .expect("pool is shut down")
            .send(Box::new(job))
            .expect("helper threads exited");
    }

    /// Block until every submitted task has completed (`taskwait`).
    pub fn wait_all(&self) {
        let mut c = self.pending.count.lock();
        while *c != 0 {
            self.pending.cv.wait(&mut c);
        }
    }

    /// Number of tasks submitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        *self.pending.count.lock()
    }
}

impl Drop for HelperPool {
    fn drop(&mut self) {
        self.wait_all();
        self.tx.take(); // close the channel; helpers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tasks_all_run() {
        let pool = HelperPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100u64 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.wait_all();
        assert_eq!(counter.load(Ordering::Relaxed), (0..100).sum::<u64>());
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn helpers_run_tasks_concurrently() {
        // Two tasks that meet at a barrier finish only if two helpers run
        // them at once, so no helper may hold the receiver during a task.
        testkit::with_deadline("helpers-concurrent", std::time::Duration::from_secs(30), || {
            let pool = HelperPool::new(2);
            let meet = Arc::new(std::sync::Barrier::new(2));
            for _ in 0..2 {
                let meet = Arc::clone(&meet);
                pool.submit(move || {
                    meet.wait();
                });
            }
            pool.wait_all();
        });
    }

    #[test]
    fn wait_all_blocks_until_done() {
        let pool = HelperPool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let d = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_all();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn device_tasks_serialize_on_the_device_lock() {
        use gpu_sim::Device;
        let dev = Arc::new(Mutex::new(Device::a100()));
        let p = dev.lock().global.alloc_zeroed::<f64>(1);
        let pool = HelperPool::new(4);
        // 32 tasks each read-modify-write the same cell under the device
        // lock; the result must be exact.
        for _ in 0..32 {
            let dev = Arc::clone(&dev);
            pool.submit(move || {
                let d = dev.lock();
                let v = d.global.read(p, 0);
                d.global.write(p, 0, v + 1.0);
            });
        }
        pool.wait_all();
        assert_eq!(dev.lock().global.read(p, 0), 32.0);
    }

    #[test]
    fn drop_joins_helpers() {
        let ran = Arc::new(AtomicU64::new(0));
        {
            let pool = HelperPool::new(1);
            let r = Arc::clone(&ran);
            pool.submit(move || {
                r.store(7, Ordering::SeqCst);
            });
        } // drop waits
        assert_eq!(ran.load(Ordering::SeqCst), 7);
    }
}
