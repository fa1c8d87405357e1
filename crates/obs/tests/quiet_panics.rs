//! [`QuietPanics`] silences the panic hook for its own thread only, and
//! its guards nest.
//!
//! This lives in its own integration-test binary on purpose: it owns the
//! process panic hook.

use muve_obs::QuietPanics;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Times the test's own hook fired.
static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

fn calls() -> usize {
    HOOK_CALLS.load(Ordering::SeqCst)
}

#[test]
fn guards_nest_and_silence_only_their_thread() {
    panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let outer = QuietPanics::engage();
    drop(QuietPanics::engage());
    assert!(panic::catch_unwind(|| panic!("quiet")).is_err());
    let quiet = calls();
    assert!(std::thread::spawn(|| panic!("another thread"))
        .join()
        .is_err());
    let other_thread = calls();
    drop(outer);
    assert!(panic::catch_unwind(|| panic!("loud again")).is_err());
    let after_drop = calls();
    // Restore the default hook so a failed assertion below prints.
    let _ = panic::take_hook();

    assert_eq!(quiet, 0, "the outer guard is still alive");
    assert_eq!(other_thread, 1, "other threads stay loud");
    assert_eq!(after_drop, 2, "the hook is back once the last guard drops");
}
