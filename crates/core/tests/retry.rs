//! Graceful degradation of detached rule firings: transient errors
//! (deadlock victims, lock timeouts, buffer-pool pressure) are retried
//! with bounded exponential backoff; permanent failures are never
//! silently dropped — they land in the engine's dead-letter record.

use crossbeam::channel::bounded;
use open_oodb::Database;
use reach_common::{ClassId, ObjectId, ReachError};
use reach_core::event::MethodPhase;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RetryPolicy, RuleBuilder};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn world() -> (Arc<ReachSystem>, ClassId) {
    let db = Database::in_memory().unwrap();
    let (b, poke) = db
        .define_class("Res")
        .attr("v", ValueType::Int, Value::Int(0))
        .virtual_method("poke");
    let class = b.define().unwrap();
    db.methods().register_fn(poke, |ctx| {
        ctx.set("v", ctx.arg(0))?;
        Ok(Value::Null)
    });
    let sys = ReachSystem::new(db, ReachConfig::default());
    (sys, class)
}

fn persistent_obj(sys: &ReachSystem, class: ClassId) -> ObjectId {
    let db = sys.db();
    let t = db.begin().unwrap();
    let oid = db.create(t, class).unwrap();
    db.persist(t, oid).unwrap();
    db.commit(t).unwrap();
    oid
}

/// Two detached rules fire off the same event and take exclusive locks
/// on the same two objects in opposite orders, rendezvousing after the
/// first lock so their first attempts are guaranteed to deadlock. The
/// victim's firing must be retried (with backoff, in a fresh
/// transaction) and both must eventually commit — nothing skipped,
/// nothing dead-lettered.
#[test]
fn deadlock_victim_rule_is_retried_until_both_commit() {
    let (sys, class) = world();
    let obj_a = persistent_obj(&sys, class);
    let obj_b = persistent_obj(&sys, class);
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    // One-shot rendezvous: each rule announces its first lock and waits
    // (bounded) for the other before requesting the second. Retries skip
    // the rendezvous — the other side may already be long gone.
    let (ready_a_tx, ready_a_rx) = bounded::<()>(1);
    let (ready_b_tx, ready_b_rx) = bounded::<()>(1);
    let attempts_a = Arc::new(AtomicUsize::new(0));
    let attempts_b = Arc::new(AtomicUsize::new(0));

    {
        let attempts = Arc::clone(&attempts_a);
        sys.define_rule(
            RuleBuilder::new("lock-a-then-b")
                .on(ev)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
                    // set_attr takes the exclusive lock without raising
                    // the method event (no re-triggering cascade).
                    ctx.db.set_attr(ctx.txn, obj_a, "v", Value::Int(10))?;
                    if first {
                        let _ = ready_a_tx.send(());
                        let _ = ready_b_rx.recv_timeout(Duration::from_secs(5));
                    }
                    ctx.db.set_attr(ctx.txn, obj_b, "v", Value::Int(11))?;
                    Ok(())
                }),
        )
        .unwrap();
    }
    {
        let attempts = Arc::clone(&attempts_b);
        sys.define_rule(
            RuleBuilder::new("lock-b-then-a")
                .on(ev)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
                    ctx.db.set_attr(ctx.txn, obj_b, "v", Value::Int(20))?;
                    if first {
                        let _ = ready_b_tx.send(());
                        let _ = ready_a_rx.recv_timeout(Duration::from_secs(5));
                    }
                    ctx.db.set_attr(ctx.txn, obj_a, "v", Value::Int(21))?;
                    Ok(())
                }),
        )
        .unwrap();
    }

    let trigger = persistent_obj(&sys, class);
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, trigger, "poke", &[Value::Int(0)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();

    let stats = sys.metrics().snapshot();
    assert_eq!(stats.detached_runs, 2, "each rule fired exactly once");
    assert!(
        stats.retries >= 1,
        "the deadlock victim must have been retried: {stats:?}"
    );
    assert_eq!(stats.gave_up, 0, "no firing exhausted its retry budget");
    assert_eq!(stats.failures, 0, "both firings ultimately succeeded");
    assert!(sys.dead_letters().is_empty());
    assert_eq!(
        attempts_a.load(Ordering::SeqCst) + attempts_b.load(Ordering::SeqCst),
        2 + stats.retries as usize,
        "every retry re-ran exactly one action"
    );
    // Both rules committed: both objects carry some rule-written value.
    let t = db.begin().unwrap();
    for oid in [obj_a, obj_b] {
        let v = db.get_attr(t, oid, "v").unwrap();
        assert_ne!(v, Value::Int(0), "rule writes on {oid:?} are visible");
    }
    db.commit(t).unwrap();
}

/// A firing that fails with a *transient* error on every attempt is
/// abandoned after `max_attempts`, counted as `gave_up`, and recorded in
/// the dead-letter list with its attempt count.
#[test]
fn transient_failure_exhausts_retries_and_lands_in_dead_letters() {
    let (sys, class) = world();
    sys.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
    });
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    sys.define_rule(
        RuleBuilder::new("always-starved")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                a.fetch_add(1, Ordering::SeqCst);
                Err(ReachError::BufferPoolExhausted)
            }),
    )
    .unwrap();

    let oid = persistent_obj(&sys, class);
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "poke", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();

    let stats = sys.metrics().snapshot();
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "max_attempts honoured");
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.gave_up, 1);
    assert_eq!(stats.failures, 1);
    let dead = sys.dead_letters();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].rule_name, "always-starved");
    assert_eq!(dead[0].attempts, 3);
    assert_eq!(dead[0].error, ReachError::BufferPoolExhausted);
}

/// A permanent (non-transient) failure is not retried at all — it goes
/// straight to the dead-letter record after the first attempt.
#[test]
fn permanent_failure_is_dead_lettered_without_retry() {
    let (sys, class) = world();
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    sys.define_rule(
        RuleBuilder::new("broken-action")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                a.fetch_add(1, Ordering::SeqCst);
                Err(ReachError::MethodFailed("boom".into()))
            }),
    )
    .unwrap();

    let oid = persistent_obj(&sys, class);
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "poke", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();

    let stats = sys.metrics().snapshot();
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "no retry of a permanent error"
    );
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.gave_up, 0, "gave_up counts only exhausted transients");
    assert_eq!(stats.failures, 1);
    let dead = sys.dead_letters();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].rule_name, "broken-action");
    assert_eq!(dead[0].attempts, 1);
    assert_eq!(dead[0].error, ReachError::MethodFailed("boom".into()));
}

/// `take_dead_letters` drains the record exactly once: the caller gets
/// every record accumulated so far, a second drain is empty, and
/// `dead_letters` (the inspect API) does not consume. This is the
/// contract the server's notification pump relies on to forward each
/// gave-up firing to subscribers exactly once.
#[test]
fn take_dead_letters_drains_exactly_once() {
    let (sys, class) = world();
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("always-broken")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| Err(ReachError::MethodFailed("boom".into()))),
    )
    .unwrap();

    let oid = persistent_obj(&sys, class);
    let db = sys.db();
    for i in 0..3 {
        let t = db.begin().unwrap();
        db.invoke(t, oid, "poke", &[Value::Int(i)]).unwrap();
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();

    // Inspect does not consume.
    assert_eq!(sys.dead_letters().len(), 3);
    assert_eq!(sys.dead_letters().len(), 3);
    // Drain consumes everything, exactly once.
    let drained = sys.take_dead_letters();
    assert_eq!(drained.len(), 3);
    assert!(drained.iter().all(|d| d.rule_name == "always-broken"));
    assert!(sys.take_dead_letters().is_empty());
    assert!(sys.dead_letters().is_empty());

    // New give-ups land in the (now empty) record again.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "poke", &[Value::Int(9)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(sys.take_dead_letters().len(), 1);
}

/// Firing listeners observe every executed action with the rule id,
/// name and triggering event type — the server's subscription hook.
#[test]
fn firing_listeners_observe_executed_actions() {
    let (sys, class) = world();
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let rule = sys
        .define_rule(
            RuleBuilder::new("observed")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| Ok(())),
        )
        .unwrap();
    let seen = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        sys.add_firing_listener(Box::new(move |n| {
            seen.lock()
                .push((n.rule, n.rule_name.clone(), n.event_type));
        }));
    }

    let oid = persistent_obj(&sys, class);
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "poke", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();

    let seen = seen.lock();
    assert_eq!(seen.len(), 1, "one action, one notice");
    assert_eq!(seen[0], (rule, "observed".to_string(), ev));
}
