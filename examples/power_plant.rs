//! The paper's running example (§6.1): power-plant operation.
//!
//! "Whenever the water level of the river from which the cooling water
//! is drawn reaches a lower mark and the water temperature is above a
//! maximum temperature and the heat-load given off is above a threshold,
//! then the Planned Power Output must be reduced by 5%."
//!
//! The rule is written in the paper's own rule language (verbatim) and
//! loaded through `reach-rulelang`. A simulated drought scenario then
//! drives the river's sensors and shows the reactor throttling itself.
//!
//! ```sh
//! cargo run --example power_plant
//! ```

use reach::{load_rule, Database, ReachConfig, ReachSystem, Value, ValueType};
use std::sync::Arc;

/// §6.1's rule, as printed in the paper.
const WATER_LEVEL_RULE: &str = r#"
    rule WaterLevel {
        prio 5;
        decl River *river, int x, Reactor *reactor named "BlockA";
        event after river->updateWaterLevel(x);
        cond imm x < 37 and river->getWaterTemp() > 24.5
                 and reactor->getHeatOutput() > 1000000;
        action imm reactor->reducePlannedPower(0.05);
    };
"#;

fn main() -> reach::Result<()> {
    let db = Database::in_memory()?;

    // ---- the domain classes the rule references ----
    let (b, update_level) = db
        .define_class("River")
        .attr("waterLevel", ValueType::Int, Value::Int(120))
        .attr("waterTemp", ValueType::Float, Value::Float(18.0))
        .virtual_method("updateWaterLevel");
    let (b, update_temp) = b.virtual_method("updateWaterTemp");
    let (b, get_temp) = b.virtual_method("getWaterTemp");
    let river_cls = b.define()?;
    db.methods().register_fn(update_level, |ctx| {
        ctx.set("waterLevel", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(update_temp, |ctx| {
        ctx.set("waterTemp", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods()
        .register_fn(get_temp, |ctx| ctx.get("waterTemp"));

    let (b, get_heat) = db
        .define_class("Reactor")
        .attr("plannedPower", ValueType::Float, Value::Float(1300.0)) // MW
        .attr("heatOutput", ValueType::Float, Value::Float(2_600_000.0)) // kW thermal
        .virtual_method("getHeatOutput");
    let (b, reduce_power) = b.virtual_method("reducePlannedPower");
    let reactor_cls = b.define()?;
    db.methods()
        .register_fn(get_heat, |ctx| ctx.get("heatOutput"));
    db.methods().register_fn(reduce_power, |ctx| {
        let factor = ctx.arg(0).as_float()?;
        let p = ctx.get("plannedPower")?.as_float()?;
        let reduced = p * (1.0 - factor);
        ctx.set("plannedPower", Value::Float(reduced))?;
        println!("      >> RULE FIRED: planned power reduced 5% -> {reduced:.1} MW");
        Ok(Value::Null)
    });

    // ---- active layer + the paper's rule ----
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    load_rule(&sys, WATER_LEVEL_RULE)?;

    // ---- instances ----
    let t = db.begin()?;
    let river = db.create(t, river_cls)?;
    db.persist_named(t, "Main", river)?;
    let reactor = db.create(t, reactor_cls)?;
    db.persist_named(t, "BlockA", reactor)?;
    db.commit(t)?;

    // ---- a drought: the river drops and warms over a week ----
    println!("day | level | temp  | planned power");
    println!("----+-------+-------+--------------");
    let levels = [110, 95, 70, 45, 36, 30, 25];
    let temps = [18.0, 19.5, 22.0, 24.0, 25.0, 26.5, 28.0];
    for day in 0..7 {
        let t = db.begin()?;
        db.invoke(t, river, "updateWaterTemp", &[Value::Float(temps[day])])?;
        db.invoke(t, river, "updateWaterLevel", &[Value::Int(levels[day])])?;
        let power = db.get_attr(t, reactor, "plannedPower")?.as_float()?;
        db.commit(t)?;
        println!(
            "  {} |  {:>4} | {:>4.1}  | {power:>7.1} MW",
            day + 1,
            levels[day],
            temps[day]
        );
    }
    let stats = sys.metrics().snapshot();
    println!(
        "\nimmediate rule executions: {}, actions fired: {}, conditions false: {}",
        stats.immediate_runs, stats.actions_executed, stats.conditions_false
    );
    Ok(())
}
