//! Regenerates **Figure 2** of the paper: "ECA-oriented architecture
//! (method part)" — the message flow from a detected method call through
//! the primitive ECA-manager, the rules it fires, and the composite
//! ECA-managers it feeds, as an execution trace of the real system.
//!
//! The trace is rebuilt from two hooks the system ships: the router's
//! delivery observer (every occurrence an ECA-manager creates, with its
//! sequence number and constituents) and the engine's firing listener
//! (every rule action that ran). Manager names and composite
//! subscriptions come from the router's manager table.
//!
//! ```sh
//! cargo run -p reach-bench --bin figure2
//! ```

use reach_bench::sensor_world;
use reach_common::EventTypeId;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    RuleBuilder,
};
use reach_object::Value;
use std::sync::{Arc, Mutex};

/// One step of the message flow, in the order the system took it.
enum Step {
    /// An ECA-manager created an event object.
    Occurrence {
        event_type: EventTypeId,
        seq: u64,
        constituents: usize,
    },
    /// A rule action ran.
    Fired(String),
    /// The application asked to commit.
    Commit,
}

fn main() {
    let w = sensor_world(1, ReachConfig::default()).unwrap();
    let sys = &w.sys;
    // The Figure 2 cast: a method event, a rule fired directly by it,
    // and a composite ECA-manager fed by it (whose completion fires a
    // non-immediate rule through the Rule PM).
    let method_ev = sys
        .define_method_event("method-event", w.class, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("direct-rule")
            .on(method_ev)
            .coupling(CouplingMode::Immediate)
            .then(|_| Ok(())),
    )
    .unwrap();
    let composite = sys
        .define_composite(
            "composite-event",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(method_ev)),
                count: 2,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("non-immediate-rule")
            .on(composite)
            .coupling(CouplingMode::Deferred)
            .then(|_| Ok(())),
    )
    .unwrap();

    let steps = Arc::new(Mutex::new(Vec::new()));
    {
        let steps = Arc::clone(&steps);
        sys.router().add_observer(Arc::new(move |occ| {
            steps.lock().unwrap().push(Step::Occurrence {
                event_type: occ.event_type,
                seq: occ.seq.raw(),
                constituents: occ.constituents.len(),
            });
        }));
    }
    {
        let steps = Arc::clone(&steps);
        sys.add_firing_listener(Box::new(move |n| {
            steps.lock().unwrap().push(Step::Fired(n.rule_name.clone()));
        }));
    }
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, w.sensors[0], "report", &[Value::Int(1)])
        .unwrap();
    db.invoke(t, w.sensors[0], "report", &[Value::Int(2)])
        .unwrap();
    steps.lock().unwrap().push(Step::Commit);
    db.commit(t).unwrap();

    println!("Figure 2: ECA-oriented architecture — message flow trace");
    println!("{}", "=".repeat(64));
    println!("scenario: begin TX; report(1); report(2); commit");
    println!("(two method events; the second completes the composite,");
    println!(" whose deferred rule then runs at pre-commit)\n");
    let name = |ty| sys.router().manager(ty).unwrap().name.clone();
    let mut lines = Vec::new();
    // An occurrence is propagated to its composite subscribers after its
    // directly-attached rules ran, so its propagation lines follow the
    // firings and precede the next step that is not a firing.
    let mut propagations = Vec::new();
    for step in steps.lock().unwrap().iter() {
        if !matches!(step, Step::Fired(_)) {
            lines.append(&mut propagations);
        }
        match step {
            Step::Fired(rule) => lines.push(format!("rule {rule} runs (action executed)")),
            Step::Occurrence {
                event_type,
                seq,
                constituents,
            } => {
                let mgr = name(*event_type);
                if *constituents > 0 {
                    lines.push(format!(
                        "composite ECA-manager[{mgr}] completes ({constituents} constituents)"
                    ));
                } else {
                    lines.push(format!("method-event detected -> ECA-manager[{mgr}]"));
                }
                lines.push(format!(
                    "ECA-manager[{mgr}] creates Event object (seq {seq})"
                ));
                for sub in sys.router().manager(*event_type).unwrap().subscribers() {
                    propagations.push(format!(
                        "ECA-manager[{mgr}] propagates -> composite ECA-manager[{}]",
                        name(sub)
                    ));
                }
            }
            Step::Commit => lines.push("application commits TX".to_string()),
        }
    }
    lines.append(&mut propagations);
    for (i, line) in lines.iter().enumerate() {
        println!("{:>3}. {line}", i + 1);
    }
    println!("{}", "=".repeat(64));
    let stats = sys.metrics().snapshot();
    println!(
        "immediate rule runs: {}, deferred rule runs: {}",
        stats.immediate_runs, stats.deferred_runs
    );
}
