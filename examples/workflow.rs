//! Workflow management — the application domain the paper calls
//! "rapidly gaining importance", combining "event-driven activities with
//! temporal constraints".
//!
//! Demonstrates:
//! * chronicle consumption (the §3.4 context "typically used in
//!   workflow applications") pairing submissions with approvals FIFO;
//! * milestones with a contingency rule (time-constrained processing);
//! * sequential causally dependent rules (the next workflow step starts
//!   only after the previous step's transaction committed);
//! * deferred consistency checks.
//!
//! ```sh
//! cargo run --example workflow
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
    let (b, submit) = db
        .define_class("Order")
        .attr("status", ValueType::Str, Value::Str("new".into()))
        .attr("amount", ValueType::Int, Value::Int(0))
        .virtual_method("submit");
    let (b, approve) = b.virtual_method("approve");
    let (b, ship) = b.virtual_method("ship");
    let order_cls = b.define()?;
    db.methods().register_fn(submit, |ctx| {
        ctx.set("status", Value::Str("submitted".into()))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(approve, |ctx| {
        ctx.set("status", Value::Str("approved".into()))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(ship, |ctx| {
        ctx.set("status", Value::Str("shipped".into()))?;
        Ok(Value::Null)
    });

    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    let on_submit =
        sys.define_method_event("on-submit", order_cls, "submit", MethodPhase::After)?;
    let on_approve =
        sys.define_method_event("on-approve", order_cls, "approve", MethodPhase::After)?;

    // Chronicle composite: submissions pair FIFO with approvals, even
    // across transactions (a workflow step spans many user sessions).
    let step_done = sys.define_composite(
        "submit-then-approve",
        EventExpr::Sequence(vec![
            EventExpr::Primitive(on_submit),
            EventExpr::Primitive(on_approve),
        ]),
        CompositionScope::CrossTransaction,
        Lifespan::Interval(Duration::from_secs(24 * 3600)),
        ConsumptionPolicy::Chronicle,
    )?;

    // Next step, sequential causally dependent: ship only after the
    // approval transaction really committed.
    let shipped = Arc::new(AtomicUsize::new(0));
    {
        let shipped = Arc::clone(&shipped);
        sys.define_rule(
            RuleBuilder::new("ship-approved-orders")
                .on(step_done)
                .coupling(CouplingMode::SequentialCausallyDependent)
                .then(move |ctx| {
                    // The submit event's receiver is the order.
                    let order = ctx.receiver().unwrap();
                    ctx.db.invoke(ctx.txn, order, "ship", &[])?;
                    shipped.fetch_add(1, Ordering::SeqCst);
                    println!("      >> shipped {order} (after approval committed)");
                    Ok(())
                }),
        )?;
    }

    // Deferred consistency check: an order above 10k must not be
    // approved in the same transaction that submitted it (separation of
    // duties). Runs at pre-commit and aborts violators.
    let same_txn_pair = sys.define_composite(
        "submit-and-approve-same-txn",
        EventExpr::Sequence(vec![
            EventExpr::Primitive(on_submit),
            EventExpr::Primitive(on_approve),
        ]),
        CompositionScope::SameTransaction,
        Lifespan::Transaction,
        ConsumptionPolicy::Chronicle,
    )?;
    sys.define_rule(
        RuleBuilder::new("separation-of-duties")
            .on(same_txn_pair)
            .coupling(CouplingMode::Deferred)
            .when(|ctx| {
                let order = ctx.receiver().unwrap();
                Ok(ctx.db.get_attr(ctx.txn, order, "amount")?.as_int()? > 10_000)
            })
            .then(|_| {
                Err(reach::ReachError::RuleEvaluation(
                    "large order submitted and approved by one transaction".into(),
                ))
            }),
    )?;

    // Milestone: an order must be approved within 4 hours of submission
    // or a reminder escalates.
    let reminder = sys.define_milestone_event("approval-deadline")?;
    let escalations = Arc::new(AtomicUsize::new(0));
    {
        let escalations = Arc::clone(&escalations);
        sys.define_rule(
            RuleBuilder::new("escalate")
                .on(reminder)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    escalations.fetch_add(1, Ordering::SeqCst);
                    println!("      !! escalation: approval overdue");
                    Ok(())
                }),
        )?;
    }

    // ---- the workflow ----
    println!("-- order A: clean two-step flow --");
    let t = db.begin()?;
    let order_a = db.create_with(t, order_cls, &[("amount", Value::Int(500))])?;
    db.persist_named(t, "order-a", order_a)?;
    db.invoke(t, order_a, "submit", &[])?;
    db.commit(t)?;
    let t = db.begin()?;
    db.invoke(t, order_a, "approve", &[])?;
    db.commit(t)?;
    sys.wait_quiescent();

    println!("-- order B: separation-of-duties violation --");
    let t = db.begin()?;
    let order_b = db.create_with(t, order_cls, &[("amount", Value::Int(50_000))])?;
    db.persist_named(t, "order-b", order_b)?;
    db.invoke(t, order_b, "submit", &[])?;
    db.invoke(t, order_b, "approve", &[])?;
    match db.commit(t) {
        Err(e) => println!("   commit rejected: {e}"),
        Ok(()) => println!("   BUG: violation committed"),
    }

    println!("-- order C: approval misses its milestone --");
    let t = db.begin()?;
    let order_c = db.create_with(t, order_cls, &[("amount", Value::Int(900))])?;
    db.persist_named(t, "order-c", order_c)?;
    db.invoke(t, order_c, "submit", &[])?;
    sys.set_milestone(
        t,
        reminder,
        TimePoint::from_secs(4 * 3600), // 4h deadline on the virtual clock
    );
    // ... four and a half hours pass without approval ...
    sys.advance_time(Duration::from_secs(4 * 3600 + 1800));
    sys.wait_quiescent();
    db.commit(t)?;

    sys.wait_quiescent();
    let t = db.begin()?;
    println!("\norder A status: {}", db.get_attr(t, order_a, "status")?);
    db.commit(t)?;
    let stats = sys.metrics().snapshot();
    println!(
        "shipped: {}, escalations: {}, rule runs: immediate {}, deferred {}, detached {}",
        shipped.load(Ordering::SeqCst),
        escalations.load(Ordering::SeqCst),
        stats.immediate_runs,
        stats.deferred_runs,
        stats.detached_runs
    );
    Ok(())
}
