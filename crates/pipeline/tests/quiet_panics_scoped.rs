//! The panic silencer is scoped to the session's thread: while a session
//! with a planted panic runs on one thread, a real panic on another thread
//! still reaches the hook installed before it.
//!
//! This lives in its own integration-test binary on purpose: it owns the
//! process panic hook.

use muve_data::Dataset;
use muve_pipeline::{FaultInjector, Session, SessionConfig, SpanStatus};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Times the test's own hook fired.
static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_quiet_session_leaves_other_threads_loud() {
    panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let (running_tx, running_rx) = mpsc::channel();
    let session = std::thread::spawn(move || {
        let table = Dataset::Flights.generate(400, 1);
        let config = SessionConfig {
            deadline: Duration::from_secs(2),
            ..SessionConfig::default()
        };
        // Translate sleeps 400 ms, then plan panics: the session is quiet
        // for that whole window.
        let injector = FaultInjector::parse("translate:latency=400,plan:panic").unwrap();
        let session = Session::new(&table, config).with_injector(injector);
        running_tx.send(()).unwrap();
        session.run("average dep delay in jfk")
    });

    running_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(panic::catch_unwind(|| panic!("a real panic on another thread")).is_err());
    let after_real_panic = HOOK_CALLS.load(Ordering::SeqCst);
    let outcome = session.join().expect("the planted panic is contained");
    let after_session = HOOK_CALLS.load(Ordering::SeqCst);
    // Restore the default hook so a failed assertion below prints.
    let _ = panic::take_hook();

    assert_eq!(
        after_real_panic, 1,
        "a panic outside the quiet session must reach the installed hook"
    );
    assert!(
        outcome
            .stage_trace
            .spans
            .iter()
            .any(|s| s.status == SpanStatus::Panicked),
        "the planted panic fired"
    );
    assert_eq!(after_session, 1, "the planted panic stays quiet");
}
