//! Quickstart: define a class, attach an ECA rule, watch it fire.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use reach::active::event::MethodPhase;
use reach::{CouplingMode, Database, ReachConfig, ReachSystem, RuleBuilder, Value, ValueType};
use std::sync::Arc;

fn main() -> reach::Result<()> {
    // ---- 1. The passive OODB: a bank account class ----
    let db = Database::in_memory()?;
    let (b, deposit) = db
        .define_class("Account")
        .attr("owner", ValueType::Str, Value::Str(String::new()))
        .attr("balance", ValueType::Int, Value::Int(0))
        .virtual_method("deposit");
    let (b, withdraw) = b.virtual_method("withdraw");
    let account = b.define()?;
    db.methods().register_fn(deposit, |ctx| {
        let n = ctx.get("balance")?.as_int()? + ctx.arg(0).as_int()?;
        ctx.set("balance", Value::Int(n))?;
        Ok(Value::Int(n))
    });
    db.methods().register_fn(withdraw, |ctx| {
        let n = ctx.get("balance")?.as_int()? - ctx.arg(0).as_int()?;
        ctx.set("balance", Value::Int(n))?;
        Ok(Value::Int(n))
    });

    // ---- 2. The REACH active layer ----
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    let on_withdraw =
        sys.define_method_event("on-withdraw", account, "withdraw", MethodPhase::After)?;

    // Rule 1 (immediate): no overdrafts — abort the transaction.
    sys.define_rule(
        RuleBuilder::new("no-overdraft")
            .on(on_withdraw)
            .coupling(CouplingMode::Immediate)
            .priority(10)
            .when(|ctx| {
                let oid = ctx.receiver().unwrap();
                Ok(ctx.db.get_attr(ctx.txn, oid, "balance")?.as_int()? < 0)
            })
            .then(|ctx| {
                Err(reach::ReachError::RuleEvaluation(format!(
                    "overdraft on {} — transaction aborted",
                    ctx.receiver().unwrap()
                )))
            }),
    )?;

    // Rule 2 (deferred): audit every withdrawal at commit time.
    sys.define_rule(
        RuleBuilder::new("audit-withdrawals")
            .on(on_withdraw)
            .coupling(CouplingMode::Deferred)
            .then(|ctx| {
                println!(
                    "  [audit @ pre-commit] withdrawal of {} from {}",
                    ctx.arg(0),
                    ctx.receiver().unwrap()
                );
                Ok(())
            }),
    )?;

    // ---- 3. Use the database normally ----
    let t = db.begin()?;
    let alice = db.create_with(t, account, &[("owner", Value::Str("alice".into()))])?;
    db.persist_named(t, "alice", alice)?;
    db.invoke(t, alice, "deposit", &[Value::Int(100)])?;
    db.invoke(t, alice, "withdraw", &[Value::Int(30)])?;
    db.commit(t)?;
    println!("committed: alice's balance is 70");

    // Overdraft attempt: the immediate rule aborts the transaction.
    let t = db.begin()?;
    match db.invoke(t, alice, "withdraw", &[Value::Int(1_000)]) {
        Ok(_) if !db.txn_manager().is_active(t) => {
            println!("overdraft rejected: the immediate rule aborted the transaction")
        }
        Ok(_) => {
            db.commit(t)?;
            println!("BUG: overdraft committed");
        }
        Err(e) => println!("overdraft rejected: {e}"),
    }

    let t = db.begin()?;
    let balance = db.get_attr(t, alice, "balance")?;
    db.commit(t)?;
    println!("final balance: {balance} (unchanged by the aborted overdraft)");
    let stats = sys.metrics().snapshot();
    println!(
        "rule runs: immediate {}, actions executed {}, triggering aborts {}",
        stats.immediate_runs, stats.actions_executed, stats.triggering_aborts
    );
    Ok(())
}
