//! Tearing a system down frees it: once the last handle to a
//! `ReachSystem` is dropped, its `Database` is freed and its standing
//! workers (detached rule firings, parallel compositors) exit.
//!
//! This file holds a single test on purpose: it counts the process's
//! worker threads, which tests running beside it in the same binary
//! would disturb.

use open_oodb::Database;
use reach_core::eca::CompositionMode;
use reach_core::event::{FlowPoint, MethodPhase};
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live threads of this process whose name starts with `prefix` (the
/// kernel keeps the first 15 bytes of a thread name).
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn dropping_the_last_handle_frees_the_database_and_its_workers() {
    for composition in [CompositionMode::Synchronous, CompositionMode::Parallel] {
        tear_down(ReachConfig {
            composition,
            ..ReachConfig::default()
        });
    }
}

fn tear_down(config: ReachConfig) {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        let v = ctx.arg(0);
        ctx.set("value", v.clone())?;
        Ok(v)
    });
    let composition = config.composition;
    let sys = ReachSystem::new(db, config);
    // Exercise every sentry bridge (method, state, lifecycle, flow), the
    // temporal observer, a compositor and the detached worker pool.
    let method = sys
        .define_method_event("report", class, "report", MethodPhase::After)
        .unwrap();
    let state = sys.define_state_event("value", class, "value").unwrap();
    let created = sys.define_lifecycle_event("created", class, false).unwrap();
    let commit = sys.define_flow_event("commit", FlowPoint::Commit).unwrap();
    let pair = sys
        .define_composite(
            "pair",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(method)),
                count: 2,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    for (name, ev, coupling) in [
        ("immediate", method, CouplingMode::Immediate),
        ("on-state", state, CouplingMode::Immediate),
        ("on-create", created, CouplingMode::Deferred),
        ("on-commit", commit, CouplingMode::Detached),
        ("on-pair", pair, CouplingMode::Detached),
    ] {
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ev)
                .coupling(coupling)
                .then(|_| Ok(())),
        )
        .unwrap();
    }
    {
        let db = sys.db();
        let t = db.begin().unwrap();
        let oid = db.create(t, class).unwrap();
        db.persist(t, oid).unwrap();
        db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
        db.invoke(t, oid, "report", &[Value::Int(2)]).unwrap();
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();
    assert!(sys.metrics().snapshot().detached_runs > 0);
    #[cfg(target_os = "linux")]
    {
        assert!(threads_named("reach-detached") > 0, "no detached workers");
        if composition == CompositionMode::Parallel {
            assert!(threads_named("eca-pair") > 0, "no compositor worker");
        }
    }

    let weak = Arc::downgrade(sys.db());
    drop(sys);
    assert!(
        weak.upgrade().is_none(),
        "the database outlived the last handle to its {composition:?} system"
    );
    // The workers see their channel close and exit on their own.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads_named("reach-detached") + threads_named("eca-pair") > 0 {
            assert!(
                Instant::now() < deadline,
                "workers still running after teardown"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
