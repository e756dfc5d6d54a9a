//! Integration test for the observability subsystem: run a scaled-down
//! E13 monitoring workload (immediate guard + deferred audit + detached
//! correlated composite) with the metrics registry enabled and assert
//! that every stage of the firing path — sentry, ECA-manager,
//! compositor, engine, subtransaction, WAL force — recorded traversals,
//! and that the counters the report is built from are all live.

use open_oodb::Database;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, Correlation, CouplingMode, EventExpr, Lifespan,
    ReachConfig, ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::Arc;
use std::time::Duration;

const SENSORS: usize = 4;
const EVENTS: usize = 2_000;

#[test]
fn e13_workload_touches_every_firing_path_stage() {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        let v = ctx.arg(0);
        ctx.set("value", v.clone())?;
        Ok(v)
    });
    let sys = ReachSystem::new(db, ReachConfig::default());
    sys.metrics().enable();

    let db = sys.db();
    let mut sensors = Vec::with_capacity(SENSORS);
    {
        let t = db.begin().unwrap();
        for _ in 0..SENSORS {
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            sensors.push(oid);
        }
        db.commit(t).unwrap();
    }

    // The E13 rule set: immediate guard, deferred audit, immediate
    // signal bridge feeding a detached correlated History composite.
    let ev = sys
        .define_method_event("report", class, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .unwrap();
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
            .then(|_| Ok(())),
    )
    .unwrap();
    let anomaly = sys.define_signal("anomaly").unwrap();
    {
        let weak = Arc::downgrade(&sys);
        sys.define_rule(
            RuleBuilder::new("signal-bridge")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
                .then(move |ctx| {
                    if let Some(sys) = weak.upgrade() {
                        sys.raise_signal_for(Some(ctx.txn), "anomaly", ctx.receiver(), vec![])?;
                    }
                    Ok(())
                }),
        )
        .unwrap();
    }
    let storm = sys
        .define_composite_correlated(
            "sensor-storm",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(anomaly)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
            Correlation::SameReceiver,
        )
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("storm-alarm")
            .on(storm)
            .coupling(CouplingMode::Detached)
            .then(|_| Ok(())),
    )
    .unwrap();

    // Deterministic telemetry: every 10th reading is an anomaly
    // (>= 1000), spread round-robin over the sensors so the
    // SameReceiver correlation completes composites on each of them.
    for batch in (0..EVENTS).collect::<Vec<_>>().chunks(100) {
        let t = db.begin().unwrap();
        for &i in batch {
            let v = if i % 10 == 0 { 1_500 } else { i as i64 % 900 };
            db.invoke(t, sensors[i % SENSORS], "report", &[Value::Int(v)])
                .unwrap();
        }
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();

    let snap = sys.metrics().snapshot();
    assert!(snap.enabled, "snapshot should report the registry enabled");
    for st in snap.stages.iter() {
        assert!(
            st.count > 0,
            "stage {} recorded nothing — the workload missed part of the firing path",
            st.stage.name()
        );
        assert!(
            st.latency.count > 0 && st.latency.max_ns > 0,
            "stage {} has a count but no latency samples",
            st.stage.name()
        );
    }

    // Counters behind each section of the report.
    assert!(snap.events_detected > 0, "no events detected");
    assert!(snap.composites_completed > 0, "no composites completed");
    assert!(snap.instances_created > 0, "no compositor instances");
    assert!(snap.sentry_useful.iter().sum::<u64>() > 0, "no sentry work");
    assert!(snap.immediate_runs > 0, "immediate rules never ran");
    assert!(snap.deferred_runs > 0, "deferred rules never ran");
    assert!(snap.detached_runs > 0, "detached rules never ran");
    assert!(snap.actions_executed > 0, "no actions executed");
    assert_eq!(snap.failures, 0, "rule failures in a clean workload");
    assert!(snap.txn_begins > 0 && snap.txn_commits > 0, "no commits");
    assert_eq!(snap.txn_aborts, 0, "aborts in a clean workload");
    assert!(snap.wal_appends > 0, "no WAL appends");
    assert!(snap.wal_forces > 0, "no WAL forces");
    assert!(snap.pool_hits > 0, "no buffer pool traffic");

    // The human-readable report renders every section.
    let report = snap.render();
    for needle in [
        "firing path",
        "sentry",
        "compositor",
        "subtransaction",
        "wal-force",
        "rule engine",
        "transactions",
        "storage",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle:?}:\n{report}"
        );
    }
}

#[test]
fn disabled_registry_records_nothing() {
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
    let sys = ReachSystem::new(db, ReachConfig::default());
    // Registry deliberately NOT enabled.

    let db = sys.db();
    let t = db.begin().unwrap();
    let oid = db.create(t, class).unwrap();
    db.persist(t, oid).unwrap();
    db.invoke(t, oid, "report", &[Value::Int(7)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();

    let snap = sys.metrics().snapshot();
    assert!(!snap.enabled);
    // Gated paths stay silent: no spans, no txn/WAL/sentry counts.
    for st in snap.stages.iter() {
        assert_eq!(
            st.count,
            0,
            "stage {} recorded while disabled",
            st.stage.name()
        );
    }
    assert_eq!(snap.txn_commits, 0);
    assert_eq!(snap.wal_forces, 0);
    assert_eq!(snap.sentry_useful.iter().sum::<u64>(), 0);
    // Ungated families (pool, engine) still count.
    assert!(snap.pool_hits > 0);
}
