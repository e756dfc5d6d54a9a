//! Integration tests of the hardened server: admission control,
//! deadlines, session-scoped transaction ownership, idle reaping,
//! slow-consumer disconnects, graceful shutdown, dead-letter access
//! and push notifications — all over real sockets.

use open_oodb::Database;
use reach_common::{ClassId, ObjectId, ReachError};
use reach_core::event::MethodPhase;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RuleBuilder};
use reach_object::{Value, ValueType};
use reach_server::wire::{Notification, Request, Response};
use reach_server::{serve, Client, ClientConfig, ServerConfig, TcpTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A world with one class `Res { v: int, n: int, s: str }` and two
/// methods: `poke(x)` sets `v`, `note(x)` sets `n`.
fn world() -> (Arc<ReachSystem>, ClassId) {
    let db = Database::in_memory().unwrap();
    let (b, poke) = db
        .define_class("Res")
        .attr("v", ValueType::Int, Value::Int(0))
        .attr("n", ValueType::Int, Value::Int(0))
        .attr("s", ValueType::Str, Value::Str(String::new()))
        .virtual_method("poke");
    let (b, note) = b.virtual_method("note");
    let class = b.define().unwrap();
    db.methods().register_fn(poke, |ctx| {
        ctx.set("v", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(note, |ctx| {
        ctx.set("n", ctx.arg(0))?;
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

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_secs(30),
        reap_interval: Duration::from_millis(25),
        read_tick: Duration::from_millis(25),
        ..ServerConfig::default()
    }
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        response_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    }
}

#[test]
fn crud_round_trips_over_the_wire() {
    let (sys, _class) = world();
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    c.ping().unwrap();

    let t = c.begin().unwrap();
    let oid = c.create(t, "Res", &[("v", Value::Int(41))]).unwrap();
    c.set(t, oid, "v", Value::Int(42)).unwrap();
    assert_eq!(c.get(t, oid, "v").unwrap(), Value::Int(42));
    assert_eq!(
        c.invoke(t, oid, "poke", &[Value::Int(43)]).unwrap(),
        Value::Null
    );
    c.persist_named(t, "root", oid).unwrap();
    c.commit(t).unwrap();

    // A different connection sees the committed state.
    let mut c2 = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let found = c2.fetch_root("root").unwrap();
    assert_eq!(found, oid);
    let t2 = c2.begin().unwrap();
    assert_eq!(c2.get(t2, found, "v").unwrap(), Value::Int(43));
    c2.commit(t2).unwrap();
    handle.shutdown();
}

#[test]
fn snapshot_transactions_read_lock_free_over_the_wire() {
    let (sys, class) = world();
    sys.metrics().enable();
    let oid = persistent_obj(&sys, class);
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();

    // A writer holds the exclusive lock on the object for the whole
    // snapshot read — under plain 2PL the read below would block.
    let writer = c.begin().unwrap();
    c.set(writer, oid, "v", Value::Int(99)).unwrap();

    let mut c2 = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let grants = sys.metrics().txn.lock_acquisitions.get();
    let r = c2.begin_read_only().unwrap();
    assert_eq!(
        c2.get(r, oid, "v").unwrap(),
        Value::Int(0),
        "snapshot sees the committed pre-image, not the in-flight write"
    );
    assert_eq!(
        sys.metrics().txn.lock_acquisitions.get(),
        grants,
        "snapshot read went through the lock manager"
    );
    // Mutations through the snapshot are refused with the stable code.
    match c2.set(r, oid, "v", Value::Int(1)) {
        Err(ReachError::ReadOnlyTxn(_)) => {}
        other => panic!("expected ReadOnlyTxn over the wire, got {other:?}"),
    }
    c2.commit(r).unwrap();

    c.commit(writer).unwrap();
    // A fresh snapshot on the other connection sees the new state.
    let r2 = c2.begin_read_only().unwrap();
    assert_eq!(c2.get(r2, oid, "v").unwrap(), Value::Int(99));
    c2.abort(r2).unwrap();
    handle.shutdown();
}

#[test]
fn admission_control_rejects_with_explicit_overloaded() {
    let (sys, _class) = world();
    let cfg = ServerConfig {
        max_sessions: 2,
        ..quick_cfg()
    };
    let handle = serve(Arc::clone(&sys), cfg).unwrap();
    let _a = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let b = Client::connect(&handle.addr(), client_cfg()).unwrap();
    // The table is full: the third connection is told so explicitly.
    // max_attempts = 1 so connect surfaces the rejection instead of
    // retrying it (Overloaded is transient by design).
    let one_shot = ClientConfig {
        max_attempts: 1,
        ..client_cfg()
    };
    match Client::connect(&handle.addr(), one_shot) {
        Err(e @ ReachError::Overloaded(_)) => {
            assert!(e.is_transient(), "Overloaded must be retryable");
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted session"),
    }
    assert_eq!(sys.metrics().server.admissions_rejected.get(), 1);
    // Freeing a slot re-admits: drop one client and retry.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&handle.addr(), client_cfg()) {
            Ok(_) => break,
            Err(ReachError::Overloaded(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected error while waiting for a slot: {e:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn transactions_are_owned_by_their_session() {
    let (sys, _class) = world();
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut a = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let mut b = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let t = a.begin().unwrap();
    // Another session cannot commit, abort, or use the transaction.
    assert!(matches!(b.commit(t), Err(ReachError::TxnNotFound(_))));
    assert!(matches!(b.abort(t), Err(ReachError::TxnNotFound(_))));
    assert!(matches!(
        b.create(t, "Res", &[]),
        Err(ReachError::TxnNotFound(_))
    ));
    // The owner still can.
    a.commit(t).unwrap();
    handle.shutdown();
}

#[test]
fn expired_deadline_cuts_lock_wait_to_deadline_exceeded() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();

    let mut holder = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let th = holder.begin().unwrap();
    holder.set(th, oid, "v", Value::Int(1)).unwrap(); // exclusive lock held

    let mut waiter = Client::connect(
        &handle.addr(),
        ClientConfig {
            deadline_ms: 150,
            max_attempts: 1,
            ..client_cfg()
        },
    )
    .unwrap();
    let tw = waiter.begin().unwrap();
    let t0 = Instant::now();
    match waiter.set(tw, oid, "v", Value::Int(2)) {
        Err(ReachError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The 5 s default lock patience did not apply — the deadline did.
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "deadline did not shorten the lock wait ({:?})",
        t0.elapsed()
    );
    assert!(sys.metrics().server.deadline_rejections.get() >= 1);
    holder.abort(th).unwrap();
    handle.shutdown();
}

#[test]
fn idle_sessions_are_reaped_and_their_txns_aborted() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        reap_interval: Duration::from_millis(25),
        ..quick_cfg()
    };
    let handle = serve(Arc::clone(&sys), cfg).unwrap();
    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let t = c.begin().unwrap();
    c.set(t, oid, "v", Value::Int(9)).unwrap(); // exclusive lock held
                                                // Go quiet past the idle timeout.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.session_count() > 0 {
        assert!(Instant::now() < deadline, "session never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(sys.metrics().server.idle_reaped.get() >= 1);
    assert!(sys.metrics().server.orphan_aborts.get() >= 1);
    // The orphan's lock is gone: a direct writer gets it immediately.
    let db = sys.db();
    let t2 = db.begin().unwrap();
    db.set_attr(t2, oid, "v", Value::Int(10)).unwrap();
    db.commit(t2).unwrap();
    // And the reaped session's write was never committed.
    let t3 = db.begin().unwrap();
    assert_eq!(db.get_attr(t3, oid, "v").unwrap(), Value::Int(10));
    db.commit(t3).unwrap();
    handle.shutdown();
}

/// A consumer that stops reading while large responses pile up is
/// disconnected once its bounded write queue fills — the server never
/// buffers without limit.
#[test]
fn slow_consumers_are_disconnected() {
    let (sys, _class) = world();
    let cfg = ServerConfig {
        write_queue: 2,
        ..quick_cfg()
    };
    let handle = serve(Arc::clone(&sys), cfg).unwrap();

    // Raw pipelined connection that never reads responses.
    let mut t = TcpTransport::connect(&handle.addr(), Some(Duration::from_millis(25))).unwrap();
    let ask = |t: &mut TcpTransport, req: &Request, id: u64| -> Response {
        t.write_frame(&req.encode(id, 0)).unwrap();
        let payload = loop {
            match t.read_frame() {
                Ok(p) => break p,
                Err(ReachError::IoTransient(_)) => continue,
                Err(e) => panic!("request {id} failed: {e:?}"),
            }
        };
        Response::decode(&payload).unwrap().1
    };
    let resp = ask(&mut t, &Request::Hello { version: 1 }, 1);
    assert!(matches!(resp, Response::HelloOk { .. }));
    let Response::Txn(txn) = ask(&mut t, &Request::Begin, 2) else {
        panic!("expected Txn");
    };
    // A *transient* object (never persisted) can carry a fat string —
    // each Get response will be ~300 KB.
    let create = Request::Create {
        txn,
        class: "Res".into(),
        overrides: vec![("s".into(), Value::Str("x".repeat(300 * 1024)))],
    };
    let Response::Oid(oid) = ask(&mut t, &create, 3) else {
        panic!("expected Oid");
    };
    // Pipeline far more response bytes than sockets can buffer, and
    // never read a single one.
    for i in 0..200u64 {
        let req = Request::Get {
            txn,
            oid,
            attr: "s".into(),
        };
        if t.write_frame(&req.encode(4 + i, 0)).is_err() {
            break; // server already cut us off
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while sys.metrics().server.slow_consumer_disconnects.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "slow consumer never disconnected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_aborts_outstanding_transactions() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let t = c.begin().unwrap();
    c.set(t, oid, "v", Value::Int(5)).unwrap();

    handle.shutdown();
    assert_eq!(handle.session_count(), 0);
    assert!(sys.metrics().server.orphan_aborts.get() >= 1);
    // The lock is free and the uncommitted write is gone.
    let db = sys.db();
    let t2 = db.begin().unwrap();
    assert_eq!(db.get_attr(t2, oid, "v").unwrap(), Value::Int(0));
    db.commit(t2).unwrap();
    // The server is really gone: new connections fail.
    assert!(Client::connect(&handle.addr(), client_cfg()).is_err());
}

#[test]
fn dead_letters_drain_over_the_wire_exactly_once() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
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
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    for i in 0..2 {
        let t = c.begin().unwrap();
        c.invoke(t, oid, "poke", &[Value::Int(i)]).unwrap();
        c.commit(t).unwrap();
    }
    sys.wait_quiescent();

    let drained = c.drain_dead_letters().unwrap();
    assert_eq!(drained.len(), 2);
    for d in &drained {
        assert_eq!(d.rule_name, "always-broken");
        assert_eq!(
            d.code,
            ReachError::MethodFailed(String::new()).wire_code(),
            "stable wire code for the final error"
        );
        assert_eq!(d.attempts, 1);
        assert!(d.message.contains("boom"));
    }
    // Drained means drained.
    assert!(c.drain_dead_letters().unwrap().is_empty());
    handle.shutdown();
}

#[test]
fn rules_defined_over_the_wire_fire_and_notify_subscribers() {
    let (sys, _class) = world();
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();

    let mut subscriber = Client::connect(&handle.addr(), client_cfg()).unwrap();
    subscriber.subscribe(true, false).unwrap();

    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let rid = c
        .define_rule(
            r#"
            rule Observed {
                decl Res *r, int x;
                event after r->poke(x);
                action imm r->note(x);
            };
            "#,
        )
        .unwrap();
    let t = c.begin().unwrap();
    let oid = c.create(t, "Res", &[]).unwrap();
    c.persist(t, oid).unwrap();
    c.invoke(t, oid, "poke", &[Value::Int(7)]).unwrap();
    // The immediate rule ran inside the invoke: note() already applied.
    assert_eq!(c.get(t, oid, "n").unwrap(), Value::Int(7));
    c.commit(t).unwrap();

    match subscriber
        .recv_notification(Duration::from_secs(10))
        .unwrap()
    {
        Some(Notification::RuleFired {
            rule, rule_name, ..
        }) => {
            assert_eq!(rule, rid);
            assert_eq!(rule_name, "Observed");
        }
        other => panic!("expected RuleFired, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn dead_letter_subscribers_get_push_notifications() {
    let (sys, class) = world();
    let oid = persistent_obj(&sys, class);
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("doomed")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| Err(ReachError::MethodFailed("gone".into()))),
    )
    .unwrap();
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut subscriber = Client::connect(&handle.addr(), client_cfg()).unwrap();
    subscriber.subscribe(false, true).unwrap();

    let mut c = Client::connect(&handle.addr(), client_cfg()).unwrap();
    let t = c.begin().unwrap();
    c.invoke(t, oid, "poke", &[Value::Int(1)]).unwrap();
    c.commit(t).unwrap();
    sys.wait_quiescent();

    match subscriber
        .recv_notification(Duration::from_secs(10))
        .unwrap()
    {
        Some(Notification::DeadLetter(d)) => {
            assert_eq!(d.rule_name, "doomed");
            assert!(d.message.contains("gone"));
        }
        other => panic!("expected DeadLetter, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn requests_before_hello_are_protocol_violations() {
    let (sys, _class) = world();
    let handle = serve(Arc::clone(&sys), quick_cfg()).unwrap();
    let mut t = TcpTransport::connect(&handle.addr(), Some(Duration::from_millis(25))).unwrap();
    t.write_frame(&Request::Begin.encode(1, 0)).unwrap();
    let payload = loop {
        match t.read_frame() {
            Ok(p) => break p,
            Err(ReachError::IoTransient(_)) => continue,
            Err(e) => panic!("expected an error frame first, got {e:?}"),
        }
    };
    let (_, resp) = Response::decode(&payload).unwrap();
    match resp {
        Response::Err { code, message } => {
            assert_eq!(code, ReachError::Protocol(String::new()).wire_code());
            assert!(message.contains("Hello"), "message: {message}");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    // ... and the connection is closed right after.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match t.read_frame() {
            Err(ReachError::ConnectionClosed(_)) => break,
            Err(ReachError::IoTransient(_)) => {
                assert!(Instant::now() < deadline, "connection never closed");
            }
            other => panic!("expected ConnectionClosed, got {other:?}"),
        }
    }
    assert!(sys.metrics().server.protocol_errors.get() >= 1);
    handle.shutdown();
}
