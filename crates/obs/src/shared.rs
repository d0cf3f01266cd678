//! One handle for every streaming fold over the event feed.
//!
//! The simulator owns the observers attached to it. To read the
//! [`crate::Recorder`], the [`crate::MetricsObserver`] or the
//! [`crate::ObjectLedger`] during or after a run, attach one clone of a
//! [`Shared`] handle and keep another.

use crate::event::Event;
use std::sync::{Arc, Mutex, MutexGuard};

/// A consumer of the flight-recorder event feed, fed in sequence order.
pub trait Fold {
    /// Folds one event.
    fn fold(&mut self, event: &Event);

    /// Marks the end of the run, so windowed state can close its last
    /// interval. Does nothing unless the fold keeps such state.
    fn finalize(&mut self, t_end: f64) {
        let _ = t_end;
    }
}

/// A cloneable, thread-safe handle around a [`Fold`].
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> From<T> for Shared<T> {
    fn from(inner: T) -> Self {
        Self(Arc::new(Mutex::new(inner)))
    }
}

impl<T> Shared<T> {
    /// Runs `f` with shared access to the inner fold.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.lock())
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().expect("a fold never panics while locked")
    }
}

impl<T: Fold> Shared<T> {
    /// Folds one event.
    pub fn fold(&self, event: &Event) {
        self.lock().fold(event);
    }

    /// Marks the end of the run; see [`Fold::finalize`].
    pub fn finalize(&self, t_end: f64) {
        self.lock().finalize(t_end);
    }
}
