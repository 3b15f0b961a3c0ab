//! Stand-in for `parking_lot`: `Mutex` over `std::sync::Mutex` with the
//! poison-free `lock()` signature the engine crates use.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// A mutex whose `lock` never reports poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. Like parking_lot, a panic in another holder does
    /// not poison the lock: the guard is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
