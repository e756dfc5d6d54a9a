//! Commodity-trading monitor — one of the paper's motivating domains
//! ("commodity trading", "monitoring of the Dow Jones index" for the
//! *continuous* consumption context).
//!
//! Demonstrates:
//! * state-change events on ticker updates;
//! * a cross-transaction composite (price spike ; price drop) under the
//!   *continuous* consumption policy with a validity interval;
//! * a detached causally-dependent alert rule;
//! * periodic temporal events driving an end-of-interval summary.
//!
//! ```sh
//! cargo run --example stock_monitor
//! ```

use reach::active::event::MethodPhase;
use reach::{
    CompositionScope, ConsumptionPolicy, CouplingMode, Database, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder, TimePoint, Value, ValueType,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> reach::Result<()> {
    let db = Database::in_memory()?;
    let (b, tick) = db
        .define_class("Ticker")
        .attr("symbol", ValueType::Str, Value::Str(String::new()))
        .attr("price", ValueType::Float, Value::Float(0.0))
        .attr("high", ValueType::Float, Value::Float(0.0))
        .virtual_method("tick");
    let ticker_cls = b.define()?;
    db.methods().register_fn(tick, |ctx| {
        let p = ctx.arg(0).as_float()?;
        ctx.set("price", Value::Float(p))?;
        if p > ctx.get("high")?.as_float()? {
            ctx.set("high", Value::Float(p))?;
        }
        Ok(Value::Null)
    });

    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());

    // Primitive events: every tick, plus user signals for spike/drop
    // classifications raised by an immediate classifier rule.
    let on_tick = sys.define_method_event("on-tick", ticker_cls, "tick", MethodPhase::After)?;
    let spike = sys.define_signal("spike")?;
    let drop = sys.define_signal("drop")?;

    // Classifier: compares the tick against the running high.
    {
        let sys2 = Arc::downgrade(&sys);
        sys.define_rule(
            RuleBuilder::new("classify")
                .on(on_tick)
                .coupling(CouplingMode::Immediate)
                .then(move |ctx| {
                    let Some(sys) = sys2.upgrade() else {
                        return Ok(());
                    };
                    let oid = ctx.receiver().unwrap();
                    let p = ctx.arg(0).as_float()?;
                    let high = ctx.db.get_attr(ctx.txn, oid, "high")?.as_float()?;
                    if high > 0.0 && p >= high {
                        sys.raise_signal(Some(ctx.txn), "spike", vec![Value::Float(p)])?;
                    } else if high > 0.0 && p < 0.9 * high {
                        sys.raise_signal(Some(ctx.txn), "drop", vec![Value::Float(p)])?;
                    }
                    Ok(())
                }),
        )?;
    }

    // Composite: a spike followed by a >10% drop within the validity
    // interval — the "head and shoulders" alarm. Continuous context:
    // every spike opens its own window.
    let crash_pattern = sys.define_composite(
        "spike-then-drop",
        EventExpr::Sequence(vec![
            EventExpr::Primitive(spike),
            EventExpr::Primitive(drop),
        ]),
        CompositionScope::CrossTransaction,
        Lifespan::Interval(Duration::from_secs(3600)),
        ConsumptionPolicy::Continuous,
    )?;
    let alerts = Arc::new(AtomicUsize::new(0));
    {
        let alerts = Arc::clone(&alerts);
        sys.define_rule(
            RuleBuilder::new("crash-alert")
                .on(crash_pattern)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    let n = alerts.fetch_add(1, Ordering::SeqCst) + 1;
                    println!(
                        "      !! ALERT #{n}: spike-then-drop ({} constituents)",
                        ctx.event.constituents.len()
                    );
                    Ok(())
                }),
        )?;
    }

    // Periodic summary every 10 virtual minutes.
    let every_10m = sys.define_periodic_event(
        "summary-tick",
        TimePoint::from_secs(600),
        Duration::from_secs(600),
    )?;
    sys.define_rule(
        RuleBuilder::new("summary")
            .on(every_10m)
            .coupling(CouplingMode::Detached)
            .then(|ctx| {
                println!("      -- periodic summary at {}", ctx.event.at);
                Ok(())
            }),
    )?;

    // ---- drive the market ----
    let t = db.begin()?;
    let acme = db.create_with(t, ticker_cls, &[("symbol", Value::Str("ACME".into()))])?;
    db.persist_named(t, "ACME", acme)?;
    db.commit(t)?;

    let prices = [
        100.0, 104.0, 110.0, // spikes
        108.0, 95.0, // drop (>10% off the 110 high)
        97.0, 99.0, 112.0, // recovery spike
        90.0,  // second crash
    ];
    for (i, p) in prices.iter().enumerate() {
        let t = db.begin()?;
        db.invoke(t, acme, "tick", &[Value::Float(*p)])?;
        db.commit(t)?;
        println!("tick {:>2}: {p:>6.1}", i + 1);
        sys.advance_time(Duration::from_secs(180)); // 3 minutes per tick
        sys.wait_quiescent();
    }
    sys.wait_quiescent();
    println!(
        "\nalerts: {}, detached rule runs: {}",
        alerts.load(Ordering::SeqCst),
        sys.metrics().snapshot().detached_runs
    );
    Ok(())
}
