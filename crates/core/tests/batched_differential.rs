//! Full-system differential oracle for batched routing: the same seeded
//! workload is driven once as N one-call batches (the per-reading
//! `invoke` loop) and once as N-call batches through `invoke_batch`.
//! Both go through the one firing path, and the two runs must produce
//! **byte-identical firing sequences** — rule name and logical event
//! identity, in order.
//!
//! This pins the ordering contract of that path: batching moves *when*
//! after-events are raised (once at batch end instead of once per call)
//! but never their relative order, so immediate rules, deferred queues,
//! composite detection state, and consumption-policy bookkeeping all
//! observe the identical event stream. Covered here:
//!
//! - mid-batch composite completions (`History(3)` against chunk sizes
//!   deliberately coprime with 3, so automata complete inside a batch
//!   and fresh instances open mid-batch);
//! - consumption-policy boundaries (all four SNOOP policies: Recent
//!   supersede, Chronicle FIFO pairing, Continuous multi-instance,
//!   Cumulative absorption — each reclaims/reopens instances mid-batch);
//! - window-close firings (a `Sequence[ping, Negation(report)]`
//!   composite that can only fire when the transaction window closes,
//!   with constituents accumulated *across* batch boundaries);
//! - subtransaction side effects (the immediate rule bumps a persistent
//!   counter; final attribute state must agree);
//! - before-phase events, raised per call ahead of each body even inside
//!   a batch, whose immediate rule vetoes marked calls by aborting the
//!   transaction (a vetoed transaction's rule output, engine counters
//!   and object state are discarded by both variants alike);
//! - one detector key registered to two event types (`tick-a` and
//!   `tick-b` on `after tick()`), which keeps the per-call interleaving
//!   of types inside a batch; ticks come in bursts so batches hold runs
//!   of that key.
//!
//! Events are identified by a unique per-call payload id, NOT by the
//! router's raw sequence stamp: composite occurrences draw from the
//! same sequence counter as primitives, and a composite that completes
//! mid-batch is stamped after the whole batch's primitives instead of
//! between them — so raw stamps legitimately differ while the firing
//! *order* (the actual contract) is identical. Detached rules are
//! deliberately excluded: their execution order is asynchronous by the
//! coupling-mode contract (Table 1), so they have no byte-identical
//! guarantee to check. The seed honours `REACH_SEED` so the CI stress
//! matrix replays different workloads per leg.

use open_oodb::Database;
use reach_common::sync::Mutex;
use reach_common::{announce_seed, seed_from_env, ClassId, ObjectId, ReachError, SplitMix64};
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::Arc;

const SENSORS: usize = 4;
/// Payload ids are `call_index * 1024 + reading`; the reading (low 10
/// bits) carries the condition-relevant value, the rest makes every
/// call's payload unique so logs can be compared across runs whose raw
/// sequence stamps differ.
const THRESHOLD: i64 = 700;
/// Reading of a report whose before-rule vetoes the call. Ordinary
/// readings stay below it.
const VETO: i64 = 999;

fn reading(uid: i64) -> i64 {
    uid & 1023
}

/// One method call in the generated workload; `uid` is the unique
/// payload passed as the first argument either way.
#[derive(Clone, Copy)]
enum Call {
    Report { sensor: usize, uid: i64 },
    Ping { sensor: usize, uid: i64 },
    Tick { sensor: usize, uid: i64 },
}

impl Call {
    fn target(&self) -> (usize, &'static str, i64) {
        match *self {
            Call::Report { sensor, uid } => (sensor, "report", uid),
            Call::Ping { sensor, uid } => (sensor, "ping", uid),
            Call::Tick { sensor, uid } => (sensor, "tick", uid),
        }
    }
}

/// A seeded workload: transactions of mixed report/ping/tick calls.
/// Pings are sparse, but about half the transactions end on one, so the
/// negation composite both fires at window close and gets invalidated
/// by trailing reports across different transactions. Every third
/// transaction carries one vetoed report at a random position.
fn gen_workload(seed: u64, txns: usize, calls_per_txn: usize) -> Vec<Vec<Call>> {
    let mut rng = SplitMix64::new(seed);
    let mut next = 0i64;
    let mut uid = |value: i64| {
        next += 1;
        next * 1024 + value
    };
    (0..txns)
        .map(|t| {
            let mut calls = Vec::new();
            while calls.len() < calls_per_txn {
                let sensor = rng.below(SENSORS);
                if rng.chance(1, 8) {
                    calls.push(Call::Ping {
                        sensor,
                        uid: uid(0),
                    });
                } else if rng.chance(1, 8) {
                    for _ in 0..2 + rng.below(3) {
                        calls.push(Call::Tick {
                            sensor: rng.below(SENSORS),
                            uid: uid(0),
                        });
                    }
                } else {
                    let v = rng.below(VETO as usize - 9) as i64;
                    calls.push(Call::Report {
                        sensor,
                        uid: uid(v),
                    });
                }
            }
            if rng.chance(1, 2) {
                calls.push(Call::Ping {
                    sensor: rng.below(SENSORS),
                    uid: uid(0),
                });
            }
            if t % 3 == 1 {
                let at = rng.below(calls.len() + 1);
                calls.insert(
                    at,
                    Call::Report {
                        sensor: rng.below(SENSORS),
                        uid: uid(VETO),
                    },
                );
            }
            calls
        })
        .collect()
}

struct Run {
    log: Vec<String>,
    alarms: Vec<i64>,
    stats: (u64, u64, u64, u64),
    vetoed_txns: usize,
}

fn stats_of(sys: &ReachSystem) -> (u64, u64, u64, u64) {
    let s = sys.metrics().snapshot();
    (
        s.immediate_runs,
        s.deferred_runs,
        s.actions_executed,
        s.conditions_false,
    )
}

/// Build a fresh world, install the rule set, and drive `workload`
/// through it. `chunks` is `None` for the reference loop of single
/// `invoke` calls, or a cycle of batch sizes for `invoke_batch`.
fn run_variant(policy: ConsumptionPolicy, workload: &[Vec<Call>], chunks: Option<&[usize]>) -> Run {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let (b, ping) = b.virtual_method("ping");
    let (b, tick) = b.virtual_method("tick");
    let class: ClassId = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        let v = ctx.arg(0);
        ctx.set("value", v.clone())?;
        Ok(v)
    });
    db.methods().register_fn(ping, |_| Ok(Value::Null));
    db.methods().register_fn(tick, |_| Ok(Value::Null));
    let sys = ReachSystem::new(db, ReachConfig::default());
    let db = sys.db();

    let ev_report = sys
        .define_method_event("after-report", class, "report", MethodPhase::After)
        .unwrap();
    let ev_ping = sys
        .define_method_event("after-ping", class, "ping", MethodPhase::After)
        .unwrap();
    let ev_before_report = sys
        .define_method_event("before-report", class, "report", MethodPhase::Before)
        .unwrap();
    // Two event types on one detector key.
    let ev_ticks = ["tick-a", "tick-b"].map(|name| {
        let ty = sys
            .define_method_event(name, class, "tick", MethodPhase::After)
            .unwrap();
        (name, ty)
    });
    // Completes every 3 reports — mid-batch for any chunk size coprime
    // with 3, and straddling chunk boundaries for the small sizes.
    let hist3 = sys
        .define_composite(
            "hist3",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev_report)),
                count: 3,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            policy,
        )
        .unwrap();
    // Fires only at window close (commit), and only for windows where
    // some ping was never followed by a report — constituents gathered
    // across batch boundaries.
    let quiet = sys
        .define_composite(
            "quiet",
            EventExpr::Sequence(vec![
                EventExpr::Primitive(ev_ping),
                EventExpr::Negation(Arc::new(EventExpr::Primitive(ev_report))),
            ]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            policy,
        )
        .unwrap();

    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    // Immediate: logs AND bumps a persistent counter in a
    // subtransaction, so final object state is part of the oracle.
    {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new("imm-high")
                .on(ev_report)
                .coupling(CouplingMode::Immediate)
                .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) >= THRESHOLD))
                .then(move |ctx| {
                    let oid = ctx.receiver().unwrap();
                    let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                    ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))?;
                    log.lock()
                        .push(format!("imm id={} alarms={n}", ctx.arg(0).as_int()?));
                    Ok(())
                }),
        )
        .unwrap();
    }
    {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new("def-high")
                .on(ev_report)
                .coupling(CouplingMode::Deferred)
                .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) >= THRESHOLD))
                .then(move |ctx| {
                    log.lock().push(format!("def id={}", ctx.arg(0).as_int()?));
                    Ok(())
                }),
        )
        .unwrap();
    }
    // Immediate veto: a failing action aborts the triggering
    // transaction, so the before-sentry refuses to run the body.
    sys.define_rule(
        RuleBuilder::new("veto")
            .on(ev_before_report)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) == VETO))
            .then(|ctx| {
                Err(ReachError::RuleEvaluation(format!(
                    "veto id={}",
                    ctx.arg(0).as_int()?
                )))
            }),
    )
    .unwrap();
    for (name, ty) in ev_ticks {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ty)
                .coupling(CouplingMode::Immediate)
                .then(move |ctx| {
                    log.lock()
                        .push(format!("{name} id={}", ctx.arg(0).as_int()?));
                    Ok(())
                }),
        )
        .unwrap();
    }
    for (name, ty) in [("hist3", hist3), ("quiet", quiet)] {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ty)
                .coupling(CouplingMode::Deferred)
                .then(move |ctx| {
                    let ids: Vec<i64> = ctx
                        .event
                        .constituents
                        .iter()
                        .map(|c| match c.data.args.first() {
                            Some(v) => v.as_int().unwrap_or(-1),
                            None => -1,
                        })
                        .collect();
                    log.lock().push(format!("{name} of {ids:?}"));
                    Ok(())
                }),
        )
        .unwrap();
    }

    // Persistent sensors, created before the measured workload.
    let sensors: Vec<ObjectId> = {
        let t = db.begin().unwrap();
        let oids: Vec<ObjectId> = (0..SENSORS)
            .map(|_| {
                let oid = db.create(t, class).unwrap();
                db.persist(t, oid).unwrap();
                oid
            })
            .collect();
        db.commit(t).unwrap();
        oids
    };

    // Counters accrued by vetoed (aborted) transactions, left out of
    // the comparison together with their log lines.
    let mut vetoed = (0, 0, 0, 0);
    let mut vetoed_txns = 0;
    for txn_calls in workload {
        let mark = log.lock().len();
        let before = stats_of(&sys);
        let t = db.begin().unwrap();
        let invoke = |chunk: &[Call]| {
            let args: Vec<[Value; 1]> = chunk.iter().map(|c| [Value::Int(c.target().2)]).collect();
            let calls: Vec<(ObjectId, &str, &[Value])> = chunk
                .iter()
                .zip(&args)
                .map(|(c, a)| (sensors[c.target().0], c.target().1, &a[..]))
                .collect();
            match chunks {
                None => db.invoke(t, calls[0].0, calls[0].1, calls[0].2).map(|_| ()),
                Some(_) => db.invoke_batch(t, &calls).map(|_| ()),
            }
        };
        let sizes: &[usize] = chunks.unwrap_or(&[1]);
        let mut cycle = sizes.iter().cycle();
        let mut rest = &txn_calls[..];
        let mut outcome = Ok(());
        while !rest.is_empty() && outcome.is_ok() {
            let (chunk, tail) = rest.split_at((*cycle.next().unwrap()).min(rest.len()));
            rest = tail;
            outcome = invoke(chunk);
        }
        match outcome {
            Ok(()) => db.commit(t).unwrap(),
            Err(e) => {
                assert!(matches!(e, ReachError::TxnAborted(_)), "{e}");
                assert!(!db.txn_manager().is_active(t));
                log.lock().truncate(mark);
                let after = stats_of(&sys);
                vetoed.0 += after.0 - before.0;
                vetoed.1 += after.1 - before.1;
                vetoed.2 += after.2 - before.2;
                vetoed.3 += after.3 - before.3;
                vetoed_txns += 1;
            }
        }
    }
    sys.wait_quiescent();

    let t = db.begin().unwrap();
    let alarms: Vec<i64> = sensors
        .iter()
        .map(|&oid| db.get_attr(t, oid, "alarms").unwrap().as_int().unwrap())
        .collect();
    db.commit(t).unwrap();
    let s = stats_of(&sys);
    Run {
        log: Arc::try_unwrap(log)
            .map(Mutex::into_inner)
            .unwrap_or_else(|l| l.lock().clone()),
        alarms,
        stats: (
            s.0 - vetoed.0,
            s.1 - vetoed.1,
            s.2 - vetoed.2,
            s.3 - vetoed.3,
        ),
        vetoed_txns,
    }
}

/// Chunk-size cycles for the batched variant. 7 and 5 are coprime with
/// the History(3) period (completions land mid-chunk); 1 degenerates to
/// single-call batches; 64 swallows a whole transaction in one batch.
const CHUNKINGS: [&[usize]; 3] = [&[7, 1, 3, 5], &[2, 13], &[64]];

#[test]
fn batched_routing_matches_per_event_firing_sequence() {
    let base = seed_from_env(0xBA7C11ED);
    for (p, policy) in ConsumptionPolicy::ALL.into_iter().enumerate() {
        let seed = base.wrapping_mul(31).wrapping_add(p as u64);
        announce_seed("batched_differential", seed);
        let workload = gen_workload(seed, 6, 48);
        let reference = run_variant(policy, &workload, None);
        assert!(
            !reference.log.is_empty(),
            "seed {seed:#x}: degenerate workload fired no rules"
        );
        assert!(reference.vetoed_txns > 0, "seed {seed:#x}: nothing vetoed");
        assert!(
            reference.log.iter().any(|l| l.starts_with("tick-a")),
            "seed {seed:#x}: no committed tick"
        );
        for sizes in CHUNKINGS {
            let batched = run_variant(policy, &workload, Some(sizes));
            assert_eq!(
                reference.log, batched.log,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: \
                 batched firing sequence diverged from per-event reference"
            );
            assert_eq!(
                reference.alarms, batched.alarms,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: final object state diverged"
            );
            assert_eq!(
                reference.stats, batched.stats,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: engine stats diverged"
            );
            assert_eq!(
                reference.vetoed_txns, batched.vetoed_txns,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: vetoes diverged"
            );
        }
    }
}

/// The batched path must also agree with itself when a transaction's
/// calls arrive as one batch vs many: associativity of batching.
#[test]
fn batch_splitting_is_associative() {
    let seed = seed_from_env(0xA550C).wrapping_add(1);
    announce_seed("batched_differential::associative", seed);
    let workload = gen_workload(seed, 4, 32);
    let whole = run_variant(ConsumptionPolicy::Chronicle, &workload, Some(&[64]));
    let split = run_variant(ConsumptionPolicy::Chronicle, &workload, Some(&[3]));
    assert_eq!(
        whole.log, split.log,
        "seed {seed:#x}: one-batch vs size-3 batches diverged"
    );
    assert_eq!(whole.alarms, split.alarms);
}
