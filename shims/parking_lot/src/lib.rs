//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the tiny slice of `parking_lot` it actually uses:
//! [`Mutex`] and [`MutexGuard`] with the non-poisoning `lock()` API.
//! Behaviour matches `parking_lot` semantics: a panicking holder does not
//! poison the lock for later users, and a contended [`Mutex::lock`] spins
//! before it parks, in the shape of `parking_lot`'s `SpinWait` — a few
//! doubling rounds of `spin_loop`, then a few `yield_now`s, then a block in
//! std's `lock()`. A lock held for a short critical section thus passes
//! between threads without a futex sleep and wake.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Rounds of busy-waiting before [`Mutex::lock`] starts yielding; round
/// `i` spins `2 << i` times.
const SPIN_ROUNDS: u32 = 3;
/// `yield_now`s after the spin rounds before [`Mutex::lock`] parks.
const YIELD_ROUNDS: u32 = 7;

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Unlike
    /// `std::sync::Mutex`, recovers from poisoning transparently, and spins
    /// (then yields) for a while before it parks.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.try_lock() {
            Some(guard) => guard,
            None => self.lock_contended(),
        }
    }

    /// [`Mutex::lock`] once the lock was found held: spin, yield, park.
    #[cold]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
            if round < SPIN_ROUNDS {
                for _ in 0..2 << round {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if let Some(guard) = self.try_lock() {
                return guard;
            }
        }
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: guard }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn contended_increments_lose_no_update() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let m = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), THREADS * PER_THREAD);
    }

    #[test]
    fn a_waiter_recovers_the_lock_a_panicking_holder_poisoned() {
        let m = Mutex::new(0);
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _g = m.lock();
                held.wait();
                release.wait();
                panic!("poison attempt");
            });
            held.wait();
            // The lock is held now, so this `lock()` goes round the spin
            // path (and may park) until the holder panics.
            let waiter = scope.spawn(|| *m.lock() += 1);
            release.wait();
            assert!(holder.join().is_err());
            waiter.join().unwrap();
        });
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn try_lock_fails_while_another_thread_holds_the_lock() {
        let m = Mutex::new(0);
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = m.lock();
                held.wait();
                release.wait();
            });
            held.wait();
            assert!(m.try_lock().is_none());
            release.wait();
        });
        assert!(m.try_lock().is_some());
    }
}
