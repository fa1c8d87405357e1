//! Thread-scoped panic silencing.
//!
//! Injected panics are expected control flow in chaos runs: a pipeline
//! stage or a shard replica panics on purpose and a `catch_unwind` turns
//! the panic into a typed failure. While such a panic is in flight, the
//! "thread panicked at …" printout is noise. [`QuietPanics`] silences it
//! for the current thread only: a panic on any other thread still reaches
//! the hook that was installed before, so a real bug elsewhere stays loud.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic;
use std::sync::Once;

thread_local! {
    /// Live [`QuietPanics`] guards on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// While alive, panics raised on the thread that created it skip the
/// process panic hook. Guards nest. The guard is not `Send`: it must be
/// dropped on the thread it silences.
///
/// The first [`engage`](Self::engage) in the process wraps whatever hook
/// is installed at that moment; panics on threads without a live guard
/// pass through to it unchanged.
#[derive(Debug)]
#[must_use = "panics are silenced only while the guard is alive"]
pub struct QuietPanics {
    _not_send: PhantomData<*const ()>,
}

impl QuietPanics {
    /// Silence panic output on this thread until the guard drops.
    pub fn engage() -> QuietPanics {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if DEPTH.with(Cell::get) == 0 {
                    prev(info);
                }
            }));
        });
        DEPTH.with(|d| d.set(d.get() + 1));
        QuietPanics {
            _not_send: PhantomData,
        }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}
