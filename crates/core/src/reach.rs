//! [`ReachSystem`] — the assembled active OODBMS.
//!
//! This is the integration the paper argues for: the REACH detectors are
//! registered directly on the Open OODB substrate's sentry hooks (the
//! dispatcher for method events, the object space for state-change and
//! lifecycle events, the transaction manager for flow-control events),
//! the ECA-managers and compositors sit behind them, and the rule engine
//! executes through the same transaction manager the application uses.
//! Nothing here goes "on top of" a closed interface — which is exactly
//! what §4 found impossible with O2 and ObjectStore.

use crate::algebra::{validate_composite, CompositionScope, Correlation, EventExpr, Lifespan};
use crate::consumption::ConsumptionPolicy;
use crate::coupling::{self, CouplingMode, EventCategory};
use crate::eca::{CompositionMode, EcaManager, Router};
use crate::engine::{DeadLetter, Engine, EngineHandler, ExecutionStrategy, RetryPolicy, TieBreak};
use crate::event::{CompositeSpec, EventSpec, FlowPoint, MethodPhase, PrimitiveEvent};
use crate::history::GlobalHistory;
use crate::rule::{Rule, RuleBuilder};
use crate::temporal::TemporalManager;
use open_oodb::Database;
use reach_common::sync::RwLock;
use reach_common::{
    ClassId, EventTypeId, IdGen, MetricsRegistry, ReachError, Result, RuleId, Stage, TimePoint,
    Timestamp, TxnId,
};
use reach_object::{MethodCall, MethodSentry, StateChange, StateSentry, Value};
use reach_txn::{TxnEvent, TxnEventKind, TxnListener};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Construction-time options.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Synchronous (deterministic) or parallel (threaded) composition.
    pub composition: CompositionMode,
    /// Serial ring-sequence or parallel sibling subtransactions for
    /// immediate rule batches.
    pub strategy: ExecutionStrategy,
    /// Group-commit sequencing on the WAL: concurrent committers share
    /// one log sync. Off restores a private sync per commit (the E16
    /// baseline).
    pub group_commit: bool,
    /// Leader batching window for group commit; `None` keeps the WAL's
    /// default (~100µs on file-backed logs).
    pub group_window: Option<Duration>,
    /// Automatic fuzzy checkpoint every this many bytes of WAL growth
    /// (checked after each commit/abort); `None` leaves checkpoints to
    /// explicit [`ReachSystem::checkpoint`] calls.
    pub checkpoint_bytes: Option<u64>,
    /// Event-sequence clock shared with other engine instances. The
    /// distribution layer hands every shard the same clock so `seq`
    /// values totally order occurrences across the deployment; `None`
    /// gives the router a private clock (the single-node default).
    pub shared_seq: Option<Arc<AtomicU64>>,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            composition: CompositionMode::Synchronous,
            strategy: ExecutionStrategy::Serial,
            group_commit: true,
            group_window: None,
            checkpoint_bytes: None,
            shared_seq: None,
        }
    }
}

/// Management view of one registered rule.
#[derive(Debug, Clone)]
pub struct RuleInfo {
    pub id: RuleId,
    pub name: String,
    pub priority: reach_common::Priority,
    pub coupling: CouplingMode,
    pub action_coupling: Option<CouplingMode>,
    pub event_type: EventTypeId,
    pub event_name: String,
    pub enabled: bool,
}

/// The active OODBMS: Open OODB substrate + REACH active layer.
pub struct ReachSystem {
    db: Arc<Database>,
    router: Arc<Router>,
    engine: Arc<Engine>,
    temporal: Arc<TemporalManager>,
    global_history: Arc<GlobalHistory>,
    rules: RwLock<HashMap<RuleId, Arc<Rule>>>,
    rule_ids: IdGen,
    rule_seq: AtomicU64,
    ticker_stop: Arc<AtomicBool>,
}

impl ReachSystem {
    /// Build a REACH system over a database.
    pub fn new(db: Arc<Database>, config: ReachConfig) -> Arc<Self> {
        let seq = config
            .shared_seq
            .clone()
            .unwrap_or_else(|| Arc::new(AtomicU64::new(1)));
        let router = Router::with_seq_clock(Arc::clone(db.schema()), Arc::clone(db.metrics()), seq);
        router.set_mode(config.composition);
        db.storage().wal().set_group_commit(config.group_commit);
        if let Some(window) = config.group_window {
            db.storage().wal().set_group_window(window);
        }
        db.storage()
            .set_checkpoint_threshold(config.checkpoint_bytes);
        let engine = Engine::new(Arc::clone(&db));
        engine.set_strategy(config.strategy);
        router.set_handler(Arc::new(EngineHandler(Arc::clone(&engine))));
        let temporal = TemporalManager::new(Arc::clone(&router));
        {
            // Weak: the temporal manager holds the router.
            let t = Arc::downgrade(&temporal);
            router.add_observer(Arc::new(move |occ| {
                if let Some(t) = t.upgrade() {
                    t.observe(occ);
                }
            }));
        }
        let system = Arc::new(ReachSystem {
            db: Arc::clone(&db),
            router: Arc::clone(&router),
            engine,
            temporal,
            global_history: Arc::new(GlobalHistory::default()),
            rules: RwLock::new(HashMap::new()),
            rule_ids: IdGen::new(),
            rule_seq: AtomicU64::new(1),
            ticker_stop: Arc::new(AtomicBool::new(false)),
        });
        // Wire the detectors onto the substrate's sentry hooks. The
        // database owns the hooks, so they hold the system weakly.
        let weak = Arc::downgrade(&system);
        db.dispatcher()
            .add_sentry(Arc::new(MethodBridge(weak.clone())));
        db.space()
            .add_state_sentry(Arc::new(StateBridge(weak.clone())));
        db.space()
            .add_lifecycle_sentry(Arc::new(LifecycleBridge(weak.clone())));
        db.txn_manager()
            .add_listener(Arc::new(FlowBridge(weak.clone())));
        {
            // The `persist` DB-internal event (§3.1).
            db.persistence_pm()
                .add_persist_hook(Arc::new(move |txn, oid| {
                    let Some(sys) = weak.upgrade() else { return };
                    if txn.is_null() {
                        return;
                    }
                    let Ok(top) = sys.db.txn_manager().top_of(txn) else {
                        return;
                    };
                    let Ok(class) = sys.db.space().class_of(oid) else {
                        return;
                    };
                    sys.router
                        .raise_persist(txn, top, sys.db.clock().now(), oid, class);
                }));
        }
        system
    }

    /// Convenience: in-memory database + default configuration.
    pub fn in_memory() -> Result<Arc<Self>> {
        Ok(Self::new(Database::in_memory()?, ReachConfig::default()))
    }

    // ---- component access ----

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Begin a read-only snapshot transaction: condition-evaluation
    /// style workloads (many reads, no writes) run against the
    /// committed state at their begin stamp without acquiring locks, so
    /// they never wait behind rule-triggering writers. See
    /// [`Database::begin_read_only`].
    pub fn begin_read_only(&self) -> Result<reach_common::TxnId> {
        self.db.begin_read_only()
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn temporal(&self) -> &Arc<TemporalManager> {
        &self.temporal
    }

    pub fn global_history(&self) -> &Arc<GlobalHistory> {
        &self.global_history
    }

    /// The stack-wide observability registry (owned by the storage
    /// layer, shared by every component of this system). Read it with
    /// `metrics().snapshot()`; `metrics().enable()` turns on the gated
    /// families.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.db.metrics()
    }

    /// Take an explicit fuzzy checkpoint (flush, log the dirty-page and
    /// active-writer tables, truncate the obsolete log prefix) and
    /// return what it did.
    pub fn checkpoint(&self) -> Result<open_oodb::CheckpointStats> {
        self.db.checkpoint()
    }

    pub fn set_tiebreak(&self, t: TieBreak) {
        self.engine.set_tiebreak(t);
    }

    pub fn set_simple_events_first(&self, on: bool) {
        self.engine.set_simple_events_first(on);
    }

    /// Tune the transient-error retry of detached rule firings.
    pub fn set_retry_policy(&self, p: RetryPolicy) {
        self.engine.set_retry_policy(p);
    }

    /// Detached firings the engine permanently gave up on.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.engine.dead_letters()
    }

    /// Drain the dead-letter record, leaving it empty. The network
    /// server uses this to forward gave-up firings to subscribers
    /// exactly once.
    pub fn take_dead_letters(&self) -> Vec<DeadLetter> {
        self.engine.take_dead_letters()
    }

    /// Register a listener called after every executed rule action —
    /// the subscription hook for rule-firing notifications.
    pub fn add_firing_listener(&self, listener: crate::engine::FiringListener) {
        self.engine.add_firing_listener(listener);
    }

    // ---- event type definitions ----

    /// `event after class::method(...)` — a method-invocation event.
    /// The dispatcher starts monitoring the pair (the sentry's
    /// "potentially useful" overhead becomes "useful").
    pub fn define_method_event(
        &self,
        name: &str,
        class: ClassId,
        method_name: &str,
        phase: MethodPhase,
    ) -> Result<EventTypeId> {
        let method = self.db.schema().resolve_method(class, method_name)?;
        let ty = self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::Method {
                class,
                method,
                phase,
            }),
        );
        self.db.dispatcher().monitor(class, method);
        Ok(ty)
    }

    /// A state-change event on `class.attribute`.
    pub fn define_state_event(
        &self,
        name: &str,
        class: ClassId,
        attribute: &str,
    ) -> Result<EventTypeId> {
        self.db.schema().attr_slot(class, attribute)?;
        Ok(self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::StateChange {
                class,
                attribute: attribute.to_string(),
            }),
        ))
    }

    /// A constructor (`deletion = false`) or destructor event.
    pub fn define_lifecycle_event(
        &self,
        name: &str,
        class: ClassId,
        deletion: bool,
    ) -> Result<EventTypeId> {
        Ok(self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::Lifecycle { class, deletion }),
        ))
    }

    /// The `persist` DB-internal event: fires when an instance of
    /// `class` (or a subclass) is made persistent.
    pub fn define_persist_event(&self, name: &str, class: ClassId) -> Result<EventTypeId> {
        Ok(self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::Persist { class }),
        ))
    }

    /// A transaction flow-control event (BOT, EOT, commit, abort).
    pub fn define_flow_event(&self, name: &str, point: FlowPoint) -> Result<EventTypeId> {
        Ok(self
            .router
            .register(name, EventSpec::Primitive(PrimitiveEvent::Flow { point })))
    }

    /// An explicit application signal (modelled as a method event, §3.1).
    pub fn define_signal(&self, name: &str) -> Result<EventTypeId> {
        Ok(self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::UserSignal {
                name: name.to_string(),
            }),
        ))
    }

    /// An absolute temporal event.
    pub fn define_absolute_event(&self, name: &str, at: TimePoint) -> Result<EventTypeId> {
        let spec = PrimitiveEvent::TemporalAbsolute { at };
        let ty = self
            .router
            .register(name, EventSpec::Primitive(spec.clone()));
        self.temporal.track(ty, &spec);
        Ok(ty)
    }

    /// A periodic temporal event.
    pub fn define_periodic_event(
        &self,
        name: &str,
        first: TimePoint,
        period: Duration,
    ) -> Result<EventTypeId> {
        let spec = PrimitiveEvent::TemporalPeriodic { first, period };
        let ty = self
            .router
            .register(name, EventSpec::Primitive(spec.clone()));
        self.temporal.track(ty, &spec);
        Ok(ty)
    }

    /// A relative temporal event: `delay` after each `anchor` occurrence.
    pub fn define_relative_event(
        &self,
        name: &str,
        anchor: EventTypeId,
        delay: Duration,
    ) -> Result<EventTypeId> {
        let spec = PrimitiveEvent::TemporalRelative { anchor, delay };
        let ty = self
            .router
            .register(name, EventSpec::Primitive(spec.clone()));
        self.temporal.track(ty, &spec);
        Ok(ty)
    }

    /// A milestone event type: fires only when a watched transaction
    /// misses its deadline (see [`ReachSystem::set_milestone`]).
    /// Categorized as purely temporal, so contingency rules must use a
    /// detached coupling (Table 1).
    pub fn define_milestone_event(&self, name: &str) -> Result<EventTypeId> {
        Ok(self.router.register(
            name,
            EventSpec::Primitive(PrimitiveEvent::TemporalAbsolute { at: TimePoint::MAX }),
        ))
    }

    /// Watch `txn`: unless `reach_milestone` is called first, the
    /// milestone event fires at `deadline`.
    pub fn set_milestone(&self, txn: TxnId, event: EventTypeId, deadline: TimePoint) {
        self.temporal.set_milestone(txn, event, deadline);
    }

    /// Report milestone progress.
    pub fn reach_milestone(&self, txn: TxnId, event: EventTypeId) {
        self.temporal.reach_milestone(txn, event);
    }

    /// A composite event. Validates the §3.3 life-span rules and rejects
    /// temporal constituents in same-transaction composites (temporal
    /// events have no transaction to share).
    pub fn define_composite(
        &self,
        name: &str,
        expr: EventExpr,
        scope: CompositionScope,
        lifespan: Lifespan,
        consumption: ConsumptionPolicy,
    ) -> Result<EventTypeId> {
        self.define_composite_correlated(
            name,
            expr,
            scope,
            lifespan,
            consumption,
            Correlation::None,
        )
    }

    /// A composite event whose constituents are correlated (e.g. all
    /// concerning the same receiver object — SAMOS's "same object").
    pub fn define_composite_correlated(
        &self,
        name: &str,
        expr: EventExpr,
        scope: CompositionScope,
        lifespan: Lifespan,
        consumption: ConsumptionPolicy,
        correlation: Correlation,
    ) -> Result<EventTypeId> {
        validate_composite(&expr, scope, lifespan)?;
        for dep in expr.referenced_types() {
            let mgr = self
                .router
                .manager(dep)
                .ok_or(ReachError::IllegalEventDefinition(format!(
                    "composite {name:?} references unregistered event type {dep}"
                )))?;
            if scope == CompositionScope::SameTransaction
                && mgr.spec.category() == EventCategory::PurelyTemporal
            {
                return Err(ReachError::IllegalEventDefinition(format!(
                    "same-transaction composite {name:?} cannot contain temporal event {dep}"
                )));
            }
        }
        Ok(self.router.register(
            name,
            EventSpec::Composite(CompositeSpec {
                expr,
                scope,
                lifespan,
                consumption,
                correlation,
            }),
        ))
    }

    /// Look up an event type by name.
    pub fn event(&self, name: &str) -> Result<EventTypeId> {
        self.router
            .event_by_name(name)
            .ok_or_else(|| ReachError::NameNotFound(name.to_string()))
    }

    /// The ECA-manager for an event type.
    pub fn manager(&self, ty: EventTypeId) -> Result<Arc<EcaManager>> {
        self.router
            .manager(ty)
            .ok_or_else(|| ReachError::NameNotFound(format!("event type {ty}")))
    }

    // ---- rules ----

    /// Register a rule. Enforces Table 1 against the event's category.
    pub fn define_rule(&self, builder: RuleBuilder) -> Result<RuleId> {
        let id: RuleId = self.rule_ids.next();
        let created = Timestamp::new(self.rule_seq.fetch_add(1, Ordering::Relaxed));
        let rule = Arc::new(builder.build(id, created)?);
        let mgr = self.manager(rule.event_type)?;
        coupling::validate(mgr.spec.category(), rule.coupling)?;
        if let Some(ac) = rule.action_coupling {
            coupling::validate(mgr.spec.category(), ac)?;
            // The action cannot run in an *earlier* phase than its
            // condition: immediate < deferred < the detached family.
            let rank = |m: CouplingMode| match m {
                CouplingMode::Immediate => 0,
                CouplingMode::Deferred => 1,
                _ => 2,
            };
            if rank(ac) < rank(rule.coupling) {
                return Err(ReachError::UnsupportedCoupling {
                    event: format!("C-A pair ({} cond, {} action)", rule.coupling, ac),
                    mode: ac.to_string(),
                });
            }
        }
        mgr.add_rule(Arc::clone(&rule));
        self.rules.write().insert(id, rule);
        Ok(id)
    }

    /// Unregister a rule.
    pub fn drop_rule(&self, id: RuleId) -> Result<()> {
        let rule = self
            .rules
            .write()
            .remove(&id)
            .ok_or(ReachError::RuleNotFound(id))?;
        if let Ok(mgr) = self.manager(rule.event_type) {
            mgr.remove_rule(id);
        }
        Ok(())
    }

    /// Enable/disable a rule in place.
    pub fn set_rule_enabled(&self, id: RuleId, on: bool) -> Result<()> {
        self.rules
            .read()
            .get(&id)
            .map(|r| r.set_enabled(on))
            .ok_or(ReachError::RuleNotFound(id))
    }

    /// A registered rule object.
    pub fn rule(&self, id: RuleId) -> Result<Arc<Rule>> {
        self.rules
            .read()
            .get(&id)
            .cloned()
            .ok_or(ReachError::RuleNotFound(id))
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.read().len()
    }

    /// Describe every registered rule (the management view the paper's
    /// planned rule-definition GUI would render).
    pub fn list_rules(&self) -> Vec<RuleInfo> {
        let mut out: Vec<RuleInfo> = self
            .rules
            .read()
            .values()
            .map(|r| RuleInfo {
                id: r.id,
                name: r.name.clone(),
                priority: r.priority,
                coupling: r.coupling,
                action_coupling: r.action_coupling,
                event_type: r.event_type,
                event_name: self
                    .router
                    .manager(r.event_type)
                    .map(|m| m.name.clone())
                    .unwrap_or_default(),
                enabled: r.is_enabled(),
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    // ---- raising & time ----

    /// Raise an explicit user signal, optionally within a transaction.
    pub fn raise_signal(&self, txn: Option<TxnId>, name: &str, args: Vec<Value>) -> Result<()> {
        self.raise_signal_for(txn, name, None, args)
    }

    /// Raise a user signal that concerns a specific object — the
    /// occurrence carries the receiver, so correlated composites
    /// (`Correlation::SameReceiver`) can partition signal streams per
    /// object.
    pub fn raise_signal_for(
        &self,
        txn: Option<TxnId>,
        name: &str,
        receiver: Option<reach_common::ObjectId>,
        args: Vec<Value>,
    ) -> Result<()> {
        let top = match txn {
            Some(t) => Some(self.db.txn_manager().top_of(t)?),
            None => None,
        };
        self.router
            .raise_signal(txn, top, self.db.clock().now(), name, receiver, args);
        Ok(())
    }

    /// Advance the virtual clock, firing due temporal events, sweeping
    /// validity intervals and milestone deadlines. Returns the number of
    /// temporal occurrences raised.
    pub fn advance_time(&self, d: Duration) -> usize {
        let now = self.db.clock().advance(d);
        let fired = self.temporal.tick(now);
        self.router.expire(now);
        fired
    }

    /// Start a background ticker (real-time mode): polls the clock every
    /// `interval`. Call [`ReachSystem::stop_ticker`] to end it.
    pub fn start_ticker(self: &Arc<Self>, interval: Duration) {
        self.ticker_stop.store(false, Ordering::Release);
        let system = Arc::clone(self);
        let stop = Arc::clone(&self.ticker_stop);
        std::thread::Builder::new()
            .name("reach-ticker".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    let now = system.db.clock().now();
                    system.temporal.tick(now);
                    system.router.expire(now);
                }
            })
            .expect("spawn ticker");
    }

    pub fn stop_ticker(&self) {
        self.ticker_stop.store(true, Ordering::Release);
    }

    /// Wait until composition queues are drained and all detached rule
    /// transactions have finished.
    pub fn wait_quiescent(&self) {
        self.router.flush();
        self.engine.wait_idle();
        // Detached rules may themselves have raised events that fan out
        // again; one more round settles short cascades.
        self.router.flush();
        self.engine.wait_idle();
    }

    /// Drain every local history of `top`'s occurrences into the global
    /// history — the §6.3 post-EOT collection.
    fn collect_histories(&self, top: TxnId) {
        let mut drained = Vec::new();
        for mgr in self.router.managers() {
            drained.extend(mgr.history.drain_for_txn(top));
        }
        if !drained.is_empty() {
            self.global_history.absorb(drained);
        }
    }
}

impl std::fmt::Debug for ReachSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachSystem")
            .field("rules", &self.rule_count())
            .field("managers", &self.router.managers().len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Detector bridges
// ---------------------------------------------------------------------
//
// Each bridge holds the system weakly and upgrades once per call (a
// batch is one call): the database owns the bridges, and a strong
// handle would keep the system and its database alive forever.

struct MethodBridge(Weak<ReachSystem>);

impl MethodBridge {
    /// Raise the `phase` method events of `calls` in one router pass,
    /// resolving txn→top once per run of calls of one transaction and
    /// reading the clock once. (Under the virtual clock every call of a
    /// batch gets the reading a call-by-call raise would give it, since
    /// the clock only moves on explicit ticks.)
    ///
    /// This bridge *is* the integrated in-line wrapper sentry: the
    /// dispatcher only calls it for monitored methods, so every
    /// traversal is useful work.
    fn raise<'a>(
        sys: &ReachSystem,
        calls: impl ExactSizeIterator<Item = &'a MethodCall>,
        phase: MethodPhase,
    ) {
        let t0 = sys.db.metrics().span_start();
        let at = sys.db.clock().now();
        let mut last: Option<(TxnId, TxnId)> = None;
        let observe = |call: &'a MethodCall| {
            if call.txn.is_null() {
                return None; // events outside transactions are not observable
            }
            let top = match last {
                Some((txn, top)) if txn == call.txn => top,
                _ => {
                    let top = sys.db.txn_manager().top_of(call.txn).ok()?;
                    last = Some((call.txn, top));
                    top
                }
            };
            Some(crate::eca::MethodObservation {
                txn: call.txn,
                top,
                at,
                receiver: call.receiver,
                class: call.class,
                method: call.method,
                phase,
                args: &call.args,
            })
        };
        // A single call is observed without a heap allocation.
        let one;
        let many: Vec<_>;
        let observed = if calls.len() == 1 {
            one = calls.into_iter().next().and_then(observe);
            one.as_slice()
        } else {
            many = calls.filter_map(observe).collect();
            &many[..]
        };
        if observed.is_empty() {
            return;
        }
        sys.router.raise_method(observed);
        if let Some(t0) = t0 {
            let m = sys.db.metrics();
            m.sentry.inline_invocations.add(observed.len() as u64);
            m.sentry.inline_detections.add(observed.len() as u64);
            m.record_span(Stage::Sentry, t0.elapsed().as_nanos() as u64);
        }
    }
}

impl MethodSentry for MethodBridge {
    fn before(&self, call: &MethodCall) -> Result<()> {
        let Some(sys) = self.0.upgrade() else {
            return Ok(());
        };
        // No before-phase method event is registered anywhere: the
        // raise cannot match and no immediate rule can veto, so skip
        // the txn resolution, index lookup and activity check outright.
        if !sys.router.observes_method_phase(MethodPhase::Before) {
            return Ok(());
        }
        Self::raise(&sys, std::iter::once(call), MethodPhase::Before);
        // An immediate rule may have aborted the triggering transaction
        // (consistency veto): refuse to run the method body then.
        if !call.txn.is_null() && !sys.db.txn_manager().is_active(call.txn) {
            return Err(ReachError::TxnAborted(call.txn));
        }
        Ok(())
    }

    fn after(&self, calls: &[(MethodCall, Result<Value>)]) {
        let Some(sys) = self.0.upgrade() else {
            return;
        };
        if sys.router.observes_method_phase(MethodPhase::After) {
            Self::raise(&sys, calls.iter().map(|(call, _)| call), MethodPhase::After);
        }
    }
}

struct StateBridge(Weak<ReachSystem>);

impl StateSentry for StateBridge {
    fn on_change(&self, change: &StateChange) {
        if change.txn.is_null() {
            return;
        }
        let Some(sys) = self.0.upgrade() else {
            return;
        };
        let Ok(top) = sys.db.txn_manager().top_of(change.txn) else {
            return;
        };
        let t0 = sys.db.metrics().span_start();
        sys.router.raise_state_change(
            change.txn,
            top,
            sys.db.clock().now(),
            change.oid,
            change.class,
            &change.attribute,
            change.old.clone(),
            change.new.clone(),
        );
        if let Some(t0) = t0 {
            let m = sys.db.metrics();
            m.sentry.inline_invocations.inc();
            m.sentry.inline_detections.inc();
            m.record_span(Stage::Sentry, t0.elapsed().as_nanos() as u64);
        }
    }
}

struct LifecycleBridge(Weak<ReachSystem>);

impl reach_object::LifecycleSentry for LifecycleBridge {
    fn on_create(
        &self,
        txn: TxnId,
        oid: reach_common::ObjectId,
        state: &reach_object::ObjectState,
    ) {
        self.raise(txn, oid, state.class, false);
    }

    fn on_delete(
        &self,
        txn: TxnId,
        oid: reach_common::ObjectId,
        state: &reach_object::ObjectState,
    ) {
        self.raise(txn, oid, state.class, true);
    }
}

impl LifecycleBridge {
    fn raise(&self, txn: TxnId, oid: reach_common::ObjectId, class: ClassId, deletion: bool) {
        if txn.is_null() {
            return;
        }
        let Some(sys) = self.0.upgrade() else {
            return;
        };
        let Ok(top) = sys.db.txn_manager().top_of(txn) else {
            return;
        };
        sys.router
            .raise_lifecycle(txn, top, sys.db.clock().now(), oid, class, deletion);
    }
}

struct FlowBridge(Weak<ReachSystem>);

impl TxnListener for FlowBridge {
    fn on_txn_event(&self, event: &TxnEvent) {
        let Some(sys) = self.0.upgrade() else {
            return;
        };
        let point = match event.kind {
            TxnEventKind::Begin => FlowPoint::Begin,
            TxnEventKind::PreCommit => FlowPoint::PreCommit,
            TxnEventKind::Committed => FlowPoint::Commit,
            TxnEventKind::Aborted => FlowPoint::Abort,
        };
        // Rule-spawned transactions do not raise flow-control events
        // (termination guard), but their composition state and histories
        // are still cleaned up below. Both the rule-txn test (a mutex)
        // and the raise itself are skipped entirely when no flow event
        // is registered — this listener runs twice per subtransaction,
        // so with zero flow rules it must stay at one atomic load.
        let raise = |txn, top, at, point| {
            if sys.router.observes_flow() && !sys.engine.is_rule_txn(event.top_level) {
                sys.router.raise_flow(txn, top, at, point);
            }
        };
        match event.kind {
            TxnEventKind::Begin => {
                raise(event.txn, event.top_level, event.at, point);
            }
            TxnEventKind::PreCommit => {
                // Composition barrier (§6.4): all in-flight primitives of
                // this transaction must be composed before deferred rules
                // are chosen, and same-transaction windows close here so
                // negation/closure composites can still fire deferred
                // rules inside the committing transaction.
                sys.router.flush();
                sys.router.close_txn(event.top_level, true);
                raise(event.txn, event.top_level, event.at, point);
            }
            TxnEventKind::Committed => {
                raise(event.txn, event.top_level, event.at, point);
                if event.parent.is_none() {
                    sys.router.close_txn(event.top_level, false);
                    sys.engine.on_txn_finished(event.top_level);
                    sys.temporal.txn_finished(event.top_level);
                    sys.collect_histories(event.top_level);
                }
            }
            TxnEventKind::Aborted => {
                raise(event.txn, event.top_level, event.at, point);
                if event.parent.is_none() {
                    // Abort revokes the transaction's events: windows are
                    // discarded without firing.
                    sys.router.close_txn(event.top_level, false);
                    sys.engine.on_txn_finished(event.top_level);
                    sys.temporal.txn_finished(event.top_level);
                    sys.collect_histories(event.top_level);
                }
            }
        }
    }
}
