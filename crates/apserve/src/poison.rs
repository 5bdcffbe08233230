//! Lock acquisition that survives a poisoned mutex.
//!
//! A thread that panics while holding a `std` mutex poisons it, and
//! `lock().unwrap()` then panics in every thread that touches it next —
//! one bad request becomes a dead server. Every mutex in this crate
//! guards state whose updates are single steps that each leave it valid
//! (a counter bump, a map insert or remove, a queue push or pop, a flag
//! store), so the state a panicking holder leaves behind is usable:
//! these helpers take the guard back and carry on. The job executor
//! itself never runs under a lock (`Service::execute_inproc` contains its
//! panics separately).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the guard if a holder panicked meanwhile.
pub(crate) fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
