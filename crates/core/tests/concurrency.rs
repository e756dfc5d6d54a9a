//! Concurrency-sensitive behaviours: the exclusive mode's lock
//! hand-over, 2PL blocking between application transactions, deadlock
//! surfacing, and parallel detached rule storms.

use crossbeam::channel::bounded;
use open_oodb::Database;
use reach_common::{ClassId, ObjectId, TxnId};
use reach_core::event::MethodPhase;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RuleBuilder};
use reach_object::{Value, ValueType};
use reach_txn::LockMode;
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

#[test]
fn exclusive_mode_receives_the_triggers_locks_on_abort() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    // The contingency action reports its transaction id and then waits
    // until the test has aborted the trigger and inspected the locks.
    let (txn_tx, txn_rx) = bounded::<TxnId>(1);
    let (go_tx, go_rx) = bounded::<()>(1);
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("contingency")
            .on(ev)
            .coupling(CouplingMode::ExclusiveCausallyDependent)
            .then(move |ctx| {
                let _ = txn_tx.send(ctx.txn);
                let _ = go_rx.recv_timeout(Duration::from_secs(5));
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    let trigger = db.begin().unwrap();
    // The invoke takes an exclusive lock on `oid` for the trigger.
    db.invoke(trigger, oid, "poke", &[Value::Int(1)]).unwrap();
    let lm = db.txn_manager().locks();
    assert_eq!(lm.held_mode(trigger, oid), Some(LockMode::Exclusive));
    let rule_txn = txn_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    // Abort the trigger: §4's resource transfer — its locks move to the
    // contingency transaction *before* they would have been released.
    db.abort(trigger).unwrap();
    assert_eq!(lm.held_mode(trigger, oid), None);
    assert_eq!(
        lm.held_mode(rule_txn, oid),
        Some(LockMode::Exclusive),
        "the contingency transaction inherited the trigger's lock"
    );
    // Let the contingency finish; its IfAborted dependency is satisfied.
    go_tx.send(()).unwrap();
    sys.wait_quiescent();
    assert_eq!(lm.held_mode(rule_txn, oid), None, "released at commit");
    assert_eq!(sys.metrics().snapshot().skipped_dependency, 0);
}

#[test]
fn two_pl_blocks_conflicting_application_transactions() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let db = sys.db();
    let t1 = db.begin().unwrap();
    db.invoke(t1, oid, "poke", &[Value::Int(1)]).unwrap(); // X lock held
    let db2 = Arc::clone(db);
    let h = std::thread::spawn(move || {
        let t2 = db2.begin().unwrap();
        // Blocks until t1 commits, then sees t1's write.
        let v = db2.get_attr(t2, oid, "v").unwrap();
        db2.commit(t2).unwrap();
        v
    });
    std::thread::sleep(Duration::from_millis(50));
    db.invoke(t1, oid, "poke", &[Value::Int(42)]).unwrap();
    db.commit(t1).unwrap();
    assert_eq!(
        h.join().unwrap(),
        Value::Int(42),
        "strict 2PL: reader saw committed state"
    );
}

#[test]
fn deadlock_between_application_transactions_surfaces() {
    let (sys, class) = world();
    let a = persistent_obj(&sys, class);
    let b = persistent_obj(&sys, class);
    let db = sys.db();
    let t1 = db.begin().unwrap();
    db.invoke(t1, a, "poke", &[Value::Int(1)]).unwrap();
    let db2 = Arc::clone(db);
    let h = std::thread::spawn(move || {
        let t2 = db2.begin().unwrap();
        db2.invoke(t2, b, "poke", &[Value::Int(2)]).unwrap();
        // t2 now waits for a (held by t1)...
        let r = db2.invoke(t2, a, "poke", &[Value::Int(3)]);
        match r {
            Ok(_) => {
                db2.commit(t2).unwrap();
                Ok(())
            }
            Err(e) => {
                let _ = db2.abort(t2);
                Err(e)
            }
        }
    });
    std::thread::sleep(Duration::from_millis(50));
    // ... and t1 requesting b closes the cycle: one of them is a victim.
    let r1 = db.invoke(t1, b, "poke", &[Value::Int(4)]);
    let r2 = h.join().unwrap();
    let deadlocked = r1.is_err() || r2.is_err();
    assert!(
        deadlocked,
        "one transaction must be chosen as deadlock victim"
    );
    if r1.is_ok() {
        db.commit(t1).unwrap();
    } else {
        let _ = db.abort(t1);
    }
}

#[test]
fn detached_rule_storm_settles() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    for i in 0..4 {
        let c = Arc::clone(&count);
        sys.define_rule(
            RuleBuilder::new(&format!("d{i}"))
                .on(ev)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let db = sys.db();
    for round in 0..25 {
        let t = db.begin().unwrap();
        db.invoke(t, oid, "poke", &[Value::Int(round)]).unwrap();
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();
    assert_eq!(count.load(Ordering::SeqCst), 100);
    assert_eq!(sys.metrics().snapshot().detached_runs, 100);
    assert_eq!(sys.metrics().snapshot().failures, 0);
}

#[test]
fn concurrent_transactions_feeding_one_cross_tx_composite() {
    use reach_core::{CompositionScope, ConsumptionPolicy, EventExpr, Lifespan};
    let (sys, class) = world();
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let comp = sys
        .define_composite(
            "ten",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 10,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    sys.define_rule(
        RuleBuilder::new("on-ten")
            .on(comp)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    // 4 threads × 10 events on private objects = 40 primitives = 4 firings.
    let mut handles = Vec::new();
    for _ in 0..4 {
        let sys = Arc::clone(&sys);
        handles.push(std::thread::spawn(move || {
            let db = sys.db();
            let t = db.begin().unwrap();
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            db.commit(t).unwrap();
            for i in 0..10 {
                let t = db.begin().unwrap();
                db.invoke(t, oid, "poke", &[Value::Int(i)]).unwrap();
                db.commit(t).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    sys.wait_quiescent();
    assert_eq!(fired.load(Ordering::SeqCst), 4, "40 primitives = 4 tens");
}
