//! Minimal synchronization shims over `std::sync`.
//!
//! The workspace builds without external crates, so the `parking_lot`-style
//! poison-free lock API the host runtime was written against is provided
//! here as a thin wrapper: `lock()` returns the guard directly (a poisoned
//! mutex just yields the inner guard — the runtime's invariants do not
//! depend on poisoning), and `Condvar::wait` takes `&mut MutexGuard` so
//! wait loops read naturally.

use std::ops::{Deref, DerefMut};

/// Poison-free mutex: `lock()` returns the guard directly.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; derefs to the protected value.
pub struct MutexGuard<'a, T> {
    // Option only so Condvar::wait can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(v: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(v) }
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard { inner: Some(g) }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

/// Condition variable paired with [`Mutex`]; `wait` reacquires in place.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Atomically release the guard's lock, block, and reacquire.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken");
        let g = self.inner.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(g);
    }

    /// Wake every waiting thread.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_locks_and_mutates() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wait_notifies() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        h.join().unwrap();
    }
}
