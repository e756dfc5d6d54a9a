//! Real-time mode: the wall clock drives temporal events through the
//! background ticker thread (the deployment configuration; everything
//! else in the suite uses the deterministic virtual clock).

use open_oodb::Database;
use reach_common::TimePoint;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RuleBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn ticker_fires_periodic_events_from_the_wall_clock() {
    let db = Database::in_memory_realtime().unwrap();
    assert!(!db.clock().is_virtual());
    let sys = ReachSystem::new(db, ReachConfig::default());
    let ev = sys
        .define_periodic_event(
            "heartbeat",
            TimePoint::from_millis(20),
            Duration::from_millis(20),
        )
        .unwrap();
    let beats = Arc::new(AtomicUsize::new(0));
    let b = Arc::clone(&beats);
    sys.define_rule(
        RuleBuilder::new("beat")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                b.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    sys.start_ticker(Duration::from_millis(10));
    std::thread::sleep(Duration::from_millis(300));
    sys.stop_ticker();
    sys.wait_quiescent();
    let n = beats.load(Ordering::SeqCst);
    // 300ms / 20ms period = ~15; demand a generous lower bound so the
    // test survives slow CI machines.
    assert!(n >= 5, "expected at least 5 heartbeats, got {n}");
    // After stop_ticker, no more events accumulate.
    std::thread::sleep(Duration::from_millis(60));
    let after = beats.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(beats.load(Ordering::SeqCst), after, "ticker stopped");
}

#[test]
fn reach_system_in_memory_convenience() {
    let sys = ReachSystem::in_memory().unwrap();
    assert_eq!(sys.rule_count(), 0);
    assert!(sys.db().clock().is_virtual());
}

#[test]
fn milestone_on_the_wall_clock() {
    let db = Database::in_memory_realtime().unwrap();
    let sys = ReachSystem::new(db, ReachConfig::default());
    let ms = sys.define_milestone_event("deadline").unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    sys.define_rule(
        RuleBuilder::new("contingency")
            .on(ms)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    let deadline = db.clock().now().plus(Duration::from_millis(50));
    sys.set_milestone(t, ms, deadline);
    sys.start_ticker(Duration::from_millis(10));
    std::thread::sleep(Duration::from_millis(200));
    sys.stop_ticker();
    sys.wait_quiescent();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        1,
        "missed deadline fired once"
    );
    db.commit(t).unwrap();
}
