//! End-to-end: the paper's §6.1 WaterLevel rule, parsed from its
//! original syntax, compiled, and fired through the full stack.

use open_oodb::Database;
use reach_core::{ReachConfig, ReachSystem};
use reach_object::{Value, ValueType};
use reach_rulelang::compile::load_rule;
use std::sync::Arc;

/// Build the paper's power-plant world: River and Reactor classes with
/// the methods the rule references.
fn power_plant() -> (
    Arc<ReachSystem>,
    reach_common::ObjectId,
    reach_common::ObjectId,
) {
    let db = Database::in_memory().unwrap();
    // class River { waterLevel, waterTemp; updateWaterLevel(x); getWaterTemp(); }
    let (b, update) = db
        .define_class("River")
        .attr("waterLevel", ValueType::Int, Value::Int(100))
        .attr("waterTemp", ValueType::Float, Value::Float(18.0))
        .virtual_method("updateWaterLevel");
    let (b, get_temp) = b.virtual_method("getWaterTemp");
    let river_cls = b.define().unwrap();
    db.methods().register_fn(update, |ctx| {
        ctx.set("waterLevel", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods()
        .register_fn(get_temp, |ctx| ctx.get("waterTemp"));
    // class Reactor { plannedPower, heatOutput; getHeatOutput(); reducePlannedPower(f); }
    let (b, get_heat) = db
        .define_class("Reactor")
        .attr("plannedPower", ValueType::Float, Value::Float(1000.0))
        .attr("heatOutput", ValueType::Float, Value::Float(0.0))
        .virtual_method("getHeatOutput");
    let (b, reduce) = b.virtual_method("reducePlannedPower");
    let reactor_cls = b.define().unwrap();
    db.methods()
        .register_fn(get_heat, |ctx| ctx.get("heatOutput"));
    db.methods().register_fn(reduce, |ctx| {
        let factor = ctx.arg(0).as_float()?;
        let p = ctx.get("plannedPower")?.as_float()?;
        ctx.set("plannedPower", Value::Float(p * (1.0 - factor)))?;
        Ok(Value::Null)
    });
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    // Instances: one river, one reactor bound to the "BlockA" root.
    let t = db.begin().unwrap();
    let river = db.create(t, river_cls).unwrap();
    db.persist(t, river).unwrap();
    let reactor = db
        .create_with(t, reactor_cls, &[("heatOutput", Value::Float(2_000_000.0))])
        .unwrap();
    db.persist_named(t, "BlockA", reactor).unwrap();
    db.commit(t).unwrap();
    (sys, river, reactor)
}

const WATER_LEVEL: &str = r#"
    rule WaterLevel {
        prio 5;
        decl River *river, int x, Reactor *reactor named "BlockA";
        event after river->updateWaterLevel(x);
        cond imm x < 37 and river->getWaterTemp() > 24.5
                 and reactor->getHeatOutput() > 1000000;
        action imm reactor->reducePlannedPower(0.05);
    };
"#;

#[test]
fn the_papers_rule_fires_end_to_end() {
    let (sys, river, reactor) = power_plant();
    load_rule(&sys, WATER_LEVEL).unwrap();
    let db = sys.db();

    // Case 1: level above the mark — no action.
    let t = db.begin().unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(80)])
        .unwrap();
    assert_eq!(
        db.get_attr(t, reactor, "plannedPower").unwrap(),
        Value::Float(1000.0)
    );
    db.commit(t).unwrap();

    // Case 2: level low, but water still cool — condition false.
    let t = db.begin().unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(30)])
        .unwrap();
    assert_eq!(
        db.get_attr(t, reactor, "plannedPower").unwrap(),
        Value::Float(1000.0)
    );
    db.commit(t).unwrap();

    // Case 3: all three conditions hold — planned power drops 5%.
    let t = db.begin().unwrap();
    db.set_attr(t, river, "waterTemp", Value::Float(26.0))
        .unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(30)])
        .unwrap();
    assert_eq!(
        db.get_attr(t, reactor, "plannedPower").unwrap(),
        Value::Float(950.0)
    );
    db.commit(t).unwrap();
    assert_eq!(sys.metrics().snapshot().actions_executed, 1);
    assert_eq!(sys.metrics().snapshot().conditions_false, 2);
}

#[test]
fn abort_action_rolls_back_the_trigger() {
    let (sys, river, _) = power_plant();
    load_rule(
        &sys,
        r#"
        rule NoDryRiver {
            decl River *river, int x;
            event after river->updateWaterLevel(x);
            cond imm x <= 0;
            action imm abort;
        };
    "#,
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(0)])
        .unwrap();
    assert!(!db.txn_manager().is_active(t), "trigger aborted by rule");
    let t2 = db.begin().unwrap();
    assert_eq!(
        db.get_attr(t2, river, "waterLevel").unwrap(),
        Value::Int(100),
        "the update itself was rolled back with the transaction"
    );
    db.commit(t2).unwrap();
}

#[test]
fn deferred_rule_language_mode() {
    let (sys, river, reactor) = power_plant();
    load_rule(
        &sys,
        r#"
        rule DeferredCut {
            decl River *river, int x, Reactor *reactor named "BlockA";
            event after river->updateWaterLevel(x);
            cond def x < 10;
            action def reactor->reducePlannedPower(0.5);
        };
    "#,
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(5)])
        .unwrap();
    // Not yet: deferred until commit.
    assert_eq!(
        db.get_attr(t, reactor, "plannedPower").unwrap(),
        Value::Float(1000.0)
    );
    db.commit(t).unwrap();
    let t2 = db.begin().unwrap();
    assert_eq!(
        db.get_attr(t2, reactor, "plannedPower").unwrap(),
        Value::Float(500.0)
    );
    db.commit(t2).unwrap();
}

#[test]
fn split_cond_action_coupling() {
    // HiPAC-style E-C/C-A split: the condition is evaluated immediately
    // (against the mid-transaction state) but the action runs deferred,
    // at pre-commit.
    let (sys, river, reactor) = power_plant();
    load_rule(
        &sys,
        r#"
        rule MixedCoupling {
            decl River *river, int x, Reactor *reactor named "BlockA";
            event after river->updateWaterLevel(x);
            cond imm x < 10;
            action def reactor->reducePlannedPower(0.5);
        };
    "#,
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(5)])
        .unwrap();
    // Condition held immediately, but the action is deferred.
    assert_eq!(
        db.get_attr(t, reactor, "plannedPower").unwrap(),
        Value::Float(1000.0)
    );
    // Raise the level again before commit: an immediate-action rule
    // would not have fired for this second event (x = 50 fails), and
    // the deferred action from the first event still runs at commit.
    db.invoke(t, river, "updateWaterLevel", &[Value::Int(50)])
        .unwrap();
    db.commit(t).unwrap();
    let t2 = db.begin().unwrap();
    assert_eq!(
        db.get_attr(t2, reactor, "plannedPower").unwrap(),
        Value::Float(500.0)
    );
    db.commit(t2).unwrap();
}

#[test]
fn backwards_cond_action_coupling_is_rejected() {
    // An action cannot run in an earlier phase than its condition.
    let (sys, _, _) = power_plant();
    let err = load_rule(
        &sys,
        r#"
        rule Backwards {
            decl River *river, int x;
            event after river->updateWaterLevel(x);
            cond def x < 0;
            action imm river->getWaterTemp();
        };
    "#,
    );
    assert!(err.is_err());
}

#[test]
fn unknown_class_in_decl_fails_at_compile() {
    let (sys, _, _) = power_plant();
    let err = load_rule(
        &sys,
        r#"
        rule Ghost {
            decl Phantom *p;
            event after p->boo();
            action imm p->boo();
        };
    "#,
    );
    assert!(err.is_err());
}
