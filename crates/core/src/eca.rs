//! ECA-managers and the event router — the architecture of Figure 2.
//!
//! "To provide an efficient and highly selective rule firing mechanism,
//! we use the ECA-managers. ECA-managers are dedicated to a given event
//! type. Therefore, they know which set of rules is fired by an event.
//! ... If a primitive event is part of a composite event, the primitive
//! event is passed along to the corresponding event composer."
//!
//! An [`EcaManager`] holds, per event type: the directly-fired rules,
//! the composite event types subscribed to it, a [`Compositor`] when the
//! type is itself composite, and the local event [`LocalHistory`]. The
//! [`Router`] owns the manager table and the detector index that maps
//! low-level sentry observations to event types.
//!
//! The flow has one path, and it takes slices: the sentry hands
//! [`Router::raise_method`] every observed call of an invocation (one
//! for a single call, the whole batch for a batched one), which stamps
//! occurrences in call order and hands each run of one event type to
//! [`Router::deliver`], which fires the manager's rules through
//! [`FireHandler::fire`] and feeds the composite managers. The other
//! detectors raise one occurrence at a time through the same
//! `deliver`. The ordering contract is on [`Router::deliver`].
//!
//! Composition can run **synchronously** (deterministic, used by most
//! tests) or **in parallel** — one worker thread per composite manager
//! fed over a channel, which is the paper's "event composition process
//! should be executed asynchronously with normal processing". The
//! pre-commit *flush* barrier keeps deferred rules sound: before a
//! transaction commits, all of its in-flight primitives must have been
//! composed (§6.4's constraint is what makes this cheap: only
//! non-immediate rules can hang off composites, so normal processing
//! never waits — only commit does).

use crate::algebra::CompositionScope;
use crate::compositor::{Completion, Compositor};
use crate::event::{
    CompositeSpec, EventData, EventOccurrence, EventSpec, FlowPoint, MethodPhase, PrimitiveEvent,
};
use crate::history::LocalHistory;
use crate::rule::Rule;
use crossbeam::channel::{bounded, Sender, TrySendError};
use reach_common::sync::{Mutex, RwLock};
use reach_common::{
    ClassId, EventTypeId, IdGen, MethodId, MetricsRegistry, Stage, TimePoint, Timestamp, TxnId,
};
use reach_object::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The message-flow trace sink now lives in `reach_common::obs` next to
// the metrics registry; re-exported so `crate::eca::Trace` keeps working.
pub use reach_common::Trace;

/// One ECA-manager.
pub struct EcaManager {
    pub event_type: EventTypeId,
    pub name: String,
    pub spec: EventSpec,
    rules: RwLock<Vec<Arc<Rule>>>,
    /// Composite event types that consume this type.
    subscribers: RwLock<Vec<EventTypeId>>,
    /// Present iff this manager serves a composite type.
    compositor: Option<Compositor>,
    /// Cached channel to this manager's worker thread (parallel mode);
    /// read lock-free-ish on the hot delivery path instead of going
    /// through the router's worker table.
    worker_tx: RwLock<Option<Sender<WorkerMsg>>>,
    pub history: LocalHistory,
}

impl EcaManager {
    fn new(
        event_type: EventTypeId,
        name: String,
        spec: EventSpec,
        metrics: &Arc<MetricsRegistry>,
    ) -> Self {
        let compositor = match &spec {
            EventSpec::Composite(c) => {
                let mut comp = Compositor::with_correlation(
                    c.expr.clone(),
                    c.scope,
                    c.lifespan,
                    c.consumption,
                    c.correlation,
                );
                comp.set_metrics(Arc::clone(metrics));
                Some(comp)
            }
            EventSpec::Primitive(_) => None,
        };
        EcaManager {
            event_type,
            name,
            spec,
            rules: RwLock::new(Vec::new()),
            subscribers: RwLock::new(Vec::new()),
            compositor,
            worker_tx: RwLock::new(None),
            history: LocalHistory::default(),
        }
    }

    /// Attach a rule fired by this event type.
    pub fn add_rule(&self, rule: Arc<Rule>) {
        self.rules.write().push(rule);
    }

    /// Detach a rule; true if present.
    pub fn remove_rule(&self, id: reach_common::RuleId) -> bool {
        let mut rules = self.rules.write();
        let before = rules.len();
        rules.retain(|r| r.id != id);
        rules.len() != before
    }

    /// Snapshot of enabled rules.
    pub fn rules(&self) -> Vec<Arc<Rule>> {
        self.rules
            .read()
            .iter()
            .filter(|r| r.is_enabled())
            .cloned()
            .collect()
    }

    pub fn rule_count(&self) -> usize {
        self.rules.read().len()
    }

    fn subscribe(&self, composite: EventTypeId) {
        self.subscribers.write().push(composite);
    }

    pub fn subscribers(&self) -> Vec<EventTypeId> {
        self.subscribers.read().clone()
    }

    /// Live semi-composed instances (0 for primitive managers).
    pub fn live_instances(&self) -> usize {
        self.compositor.as_ref().map_or(0, |c| c.live_instances())
    }
}

/// Capacity of each compositor worker's inbox. Inboxes used to be
/// unbounded: a raiser faster than a compositor grew the queue (and the
/// process) without limit. Bounded inboxes give natural admission
/// control — a producer that outruns §6.3's "small compositors" blocks
/// at the boundary instead of queueing gigabytes.
pub const INBOX_CAP: usize = 1024;

std::thread_local! {
    /// Whether the current thread is a compositor worker. Workers must
    /// never block on a downstream inbox: a completion cascade (or a
    /// rule raising fresh events) may route back through an upstream
    /// worker, and two workers blocking on each other's full inboxes
    /// would deadlock. Workers instead `try_send` and fall back to
    /// feeding the compositor inline; only application threads take
    /// the blocking backpressure path.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Message protocol for composite-manager worker threads.
enum WorkerMsg {
    Feed(Arc<EventOccurrence>),
    /// Close the window of a finished transaction. `fire` is false for
    /// aborted transactions (their events are revoked).
    CloseTxn(TxnId, bool),
    /// Sweep interval lifespans.
    Expire(TimePoint),
    /// Barrier: reply when all prior messages are processed.
    Flush(Sender<()>),
    Shutdown,
}

/// How composite feeding is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionMode {
    /// Inline in the detecting thread — deterministic.
    Synchronous,
    /// One worker thread per composite manager (§6.3's parallel small
    /// compositors).
    Parallel,
}

/// A passive delivery observer.
pub type Observer = Arc<dyn Fn(&EventOccurrence) + Send + Sync>;

/// Composition ownership predicate: may this router's compositor for
/// the given event type be fed? (See `Router::set_composition_gate`.)
pub type CompositionGate = Arc<dyn Fn(EventTypeId) -> bool + Send + Sync>;

/// Channel + join handle of one composite manager's worker thread.
type WorkerHandle = (Sender<WorkerMsg>, std::thread::JoinHandle<()>);

/// Consumer of completed composite occurrences and directly-fired rules.
/// Implemented by the engine (`crate::engine`).
pub trait FireHandler: Send + Sync {
    /// Fire `rules` (already filtered to enabled) for each occurrence of
    /// `occs`, in event order.
    fn fire(&self, rules: Vec<Arc<Rule>>, occs: &[Arc<EventOccurrence>]);
}

/// One observed method invocation — the per-call fields of
/// [`Router::raise_method`].
pub struct MethodObservation<'a> {
    pub txn: TxnId,
    pub top: TxnId,
    pub at: TimePoint,
    pub receiver: reach_common::ObjectId,
    pub class: ClassId,
    pub method: MethodId,
    pub phase: MethodPhase,
    pub args: &'a reach_object::Args,
}

/// The event router: detector index + manager table + delivery.
pub struct Router {
    schema: Arc<Schema>,
    managers: RwLock<HashMap<EventTypeId, Arc<EcaManager>>>,
    by_name: RwLock<HashMap<String, EventTypeId>>,
    // Detector indexes (primitive specs -> event types). A key can have
    // several registered event types (e.g. two rules, each with its own
    // named event on the same class.attribute): every one fires.
    method_index: RwLock<HashMap<(ClassId, MethodId, MethodPhase), Vec<EventTypeId>>>,
    state_index: RwLock<HashMap<(ClassId, String), Vec<EventTypeId>>>,
    lifecycle_index: RwLock<HashMap<(ClassId, bool), Vec<EventTypeId>>>,
    persist_index: RwLock<HashMap<ClassId, Vec<EventTypeId>>>,
    flow_index: RwLock<HashMap<FlowPoint, Vec<EventTypeId>>>,
    signal_index: RwLock<HashMap<String, Vec<EventTypeId>>>,
    ids: IdGen,
    /// Registered method-event counts per phase (`[Before, After]`) —
    /// the sentry's cheap gate: when a phase has no registrations
    /// anywhere, a raise for it cannot match and is skipped before the
    /// txn resolution and index lookup.
    method_phase_count: [AtomicU64; 2],
    /// Registered flow-event count — the [`Router::raise_flow`] gate.
    /// Every begin/commit of every (sub)transaction reports a flow
    /// point; with zero flow registrations the raise is one load.
    flow_count: AtomicU64,
    /// The event sequence clock. Normally private to this router; a
    /// sharded deployment injects one shared clock into every shard's
    /// router so occurrence `seq` values form a single global order and
    /// cross-shard history merges need no translation.
    seq: Arc<AtomicU64>,
    mode: RwLock<CompositionMode>,
    workers: Mutex<HashMap<EventTypeId, WorkerHandle>>,
    handler: RwLock<Option<Arc<dyn FireHandler>>>,
    /// Composition ownership gate. In a sharded deployment every shard
    /// registers every composite type (so event-type ids align across
    /// shards), but only the *owning* shard's compositor may be fed —
    /// otherwise each shard would compose the same global stream and
    /// fire the composite's rules once per shard. `None` (single-node
    /// default) composes everything locally.
    composition_gate: RwLock<Option<CompositionGate>>,
    /// Passive observers of every delivered occurrence (the temporal
    /// manager watches for anchors of relative events here).
    observers: RwLock<Vec<Observer>>,
    pub trace: Arc<Trace>,
    metrics: Arc<MetricsRegistry>,
}

impl Router {
    pub fn new(schema: Arc<Schema>) -> Arc<Self> {
        Self::with_metrics(schema, MetricsRegistry::new_shared())
    }

    /// A router recording into the stack-wide `metrics` registry (the
    /// plain [`Router::new`] gets a private, disabled one).
    pub fn with_metrics(schema: Arc<Schema>, metrics: Arc<MetricsRegistry>) -> Arc<Self> {
        Self::with_seq_clock(schema, metrics, Arc::new(AtomicU64::new(1)))
    }

    /// A router stamping occurrences from an externally owned sequence
    /// clock — the distribution layer hands the same clock to every
    /// shard so `seq` is a total order across the deployment.
    pub fn with_seq_clock(
        schema: Arc<Schema>,
        metrics: Arc<MetricsRegistry>,
        seq: Arc<AtomicU64>,
    ) -> Arc<Self> {
        Arc::new(Router {
            schema,
            managers: RwLock::new(HashMap::new()),
            by_name: RwLock::new(HashMap::new()),
            method_index: RwLock::new(HashMap::new()),
            state_index: RwLock::new(HashMap::new()),
            lifecycle_index: RwLock::new(HashMap::new()),
            persist_index: RwLock::new(HashMap::new()),
            flow_index: RwLock::new(HashMap::new()),
            signal_index: RwLock::new(HashMap::new()),
            ids: IdGen::new(),
            method_phase_count: [AtomicU64::new(0), AtomicU64::new(0)],
            flow_count: AtomicU64::new(0),
            seq,
            mode: RwLock::new(CompositionMode::Synchronous),
            workers: Mutex::new(HashMap::new()),
            handler: RwLock::new(None),
            composition_gate: RwLock::new(None),
            observers: RwLock::new(Vec::new()),
            trace: Arc::new(Trace::default()),
            metrics,
        })
    }

    /// The observability registry this router records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Install the rule-firing handler (the engine).
    pub fn set_handler(&self, h: Arc<dyn FireHandler>) {
        *self.handler.write() = Some(h);
    }

    /// Add a passive delivery observer.
    pub fn add_observer(&self, f: Observer) {
        self.observers.write().push(f);
    }

    /// Install the composition ownership gate (see the field docs).
    /// The distribution layer passes `|ty| owner(ty) == this_shard`.
    pub fn set_composition_gate(&self, gate: CompositionGate) {
        *self.composition_gate.write() = Some(gate);
    }

    /// Whether this router instance may feed `mgr`'s compositor with an
    /// occurrence of local (`remote == false`) or remote origin.
    ///
    /// Same-transaction-scoped composites always compose locally and
    /// never accept remote constituents: their windows are bound to
    /// *local* transaction boundaries, and transaction identifiers are
    /// per-shard, so a remote occurrence's `txn` cannot be correlated
    /// with any window on this shard. Cross-transaction composites are
    /// fed only on their owning shard (the gate), from both the local
    /// raise path and remote committed streams.
    fn composes(&self, mgr: &EcaManager, remote: bool) -> bool {
        let cross_txn = matches!(
            &mgr.spec,
            EventSpec::Composite(spec) if spec.scope == CompositionScope::CrossTransaction
        );
        if !cross_txn {
            return !remote;
        }
        match &*self.composition_gate.read() {
            Some(gate) => gate(mgr.event_type),
            None => true,
        }
    }

    /// Next global event sequence number.
    fn next_seq(&self) -> Timestamp {
        Timestamp::new(self.seq.fetch_add(1, Ordering::Relaxed))
    }

    /// The sequence clock this router stamps occurrences from.
    pub fn seq_clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq)
    }

    // ---- registration ----

    /// Register an event type under `name`.
    pub fn register(self: &Arc<Self>, name: &str, spec: EventSpec) -> EventTypeId {
        let id: EventTypeId = self.ids.next();
        match &spec {
            EventSpec::Primitive(p) => match p {
                PrimitiveEvent::Method {
                    class,
                    method,
                    phase,
                } => {
                    self.method_index
                        .write()
                        .entry((*class, *method, *phase))
                        .or_default()
                        .push(id);
                    let slot = match phase {
                        MethodPhase::Before => 0,
                        MethodPhase::After => 1,
                    };
                    self.method_phase_count[slot].fetch_add(1, Ordering::Release);
                }
                PrimitiveEvent::StateChange { class, attribute } => {
                    self.state_index
                        .write()
                        .entry((*class, attribute.clone()))
                        .or_default()
                        .push(id);
                }
                PrimitiveEvent::Lifecycle { class, deletion } => {
                    self.lifecycle_index
                        .write()
                        .entry((*class, *deletion))
                        .or_default()
                        .push(id);
                }
                PrimitiveEvent::Persist { class } => {
                    self.persist_index
                        .write()
                        .entry(*class)
                        .or_default()
                        .push(id);
                }
                PrimitiveEvent::Flow { point } => {
                    self.flow_index.write().entry(*point).or_default().push(id);
                    self.flow_count.fetch_add(1, Ordering::Release);
                }
                PrimitiveEvent::UserSignal { name } => {
                    self.signal_index
                        .write()
                        .entry(name.clone())
                        .or_default()
                        .push(id);
                }
                // Temporal specs are driven by the temporal manager,
                // which raises them via `raise_temporal`.
                PrimitiveEvent::TemporalAbsolute { .. }
                | PrimitiveEvent::TemporalPeriodic { .. }
                | PrimitiveEvent::TemporalRelative { .. } => {}
            },
            EventSpec::Composite(c) => {
                // Subscribe this composite to each referenced type.
                for dep in c.expr.referenced_types() {
                    if let Some(mgr) = self.manager(dep) {
                        mgr.subscribe(id);
                    }
                }
            }
        }
        let mgr = Arc::new(EcaManager::new(id, name.to_string(), spec, &self.metrics));
        self.managers.write().insert(id, Arc::clone(&mgr));
        self.by_name.write().insert(name.to_string(), id);
        // In parallel mode, composite managers get their worker now.
        if mgr.compositor.is_some() && *self.mode.read() == CompositionMode::Parallel {
            self.spawn_worker(&mgr);
        }
        id
    }

    /// Whether any method event of `phase` is registered anywhere.
    /// One relaxed-side atomic load — the sentries consult this before
    /// paying for a raise that cannot match (E13's hot path raises the
    /// before phase 50k times against zero registrations otherwise).
    /// Whether any flow event is registered anywhere (see
    /// [`Router::raise_flow`]).
    pub fn observes_flow(&self) -> bool {
        self.flow_count.load(Ordering::Acquire) > 0
    }

    pub fn observes_method_phase(&self, phase: MethodPhase) -> bool {
        let slot = match phase {
            MethodPhase::Before => 0,
            MethodPhase::After => 1,
        };
        self.method_phase_count[slot].load(Ordering::Acquire) > 0
    }

    /// Look up a manager.
    pub fn manager(&self, id: EventTypeId) -> Option<Arc<EcaManager>> {
        self.managers.read().get(&id).cloned()
    }

    /// Look up an event type by registration name.
    pub fn event_by_name(&self, name: &str) -> Option<EventTypeId> {
        self.by_name.read().get(name).copied()
    }

    /// All managers (introspection / figure regeneration).
    pub fn managers(&self) -> Vec<Arc<EcaManager>> {
        let mut v: Vec<_> = self.managers.read().values().cloned().collect();
        v.sort_by_key(|m| m.event_type);
        v
    }

    // ---- composition mode ----

    /// Switch composition dispatch. Call before raising events.
    pub fn set_mode(self: &Arc<Self>, mode: CompositionMode) {
        let old = *self.mode.read();
        if old == mode {
            return;
        }
        *self.mode.write() = mode;
        match mode {
            CompositionMode::Parallel => {
                for mgr in self.managers() {
                    if mgr.compositor.is_some() {
                        self.spawn_worker(&mgr);
                    }
                }
            }
            CompositionMode::Synchronous => {
                for mgr in self.managers() {
                    mgr.worker_tx.write().take();
                }
                let mut workers = self.workers.lock();
                for (_, (tx, handle)) in workers.drain() {
                    let _ = tx.send(WorkerMsg::Shutdown);
                    let _ = handle.join();
                }
            }
        }
    }

    pub fn mode(&self) -> CompositionMode {
        *self.mode.read()
    }

    fn spawn_worker(self: &Arc<Self>, mgr: &Arc<EcaManager>) {
        let mut workers = self.workers.lock();
        if workers.contains_key(&mgr.event_type) {
            return;
        }
        let (tx, rx) = bounded::<WorkerMsg>(INBOX_CAP);
        let router = Arc::clone(self);
        let ty = mgr.event_type;
        let outer_mgr = Arc::clone(mgr);
        let mgr = Arc::clone(mgr);
        let handle = std::thread::Builder::new()
            .name(format!("eca-{}", mgr.name))
            .spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                while let Ok(msg) = rx.recv() {
                    match msg {
                        WorkerMsg::Feed(occ) => router.feed_compositor(&mgr, &occ),
                        WorkerMsg::CloseTxn(txn, fire) => router.close_compositor(&mgr, txn, fire),
                        WorkerMsg::Expire(now) => router.expire_compositor(&mgr, now),
                        WorkerMsg::Flush(ack) => {
                            let _ = ack.send(());
                        }
                        WorkerMsg::Shutdown => break,
                    }
                }
            })
            .expect("spawn eca worker");
        outer_mgr.worker_tx.write().replace(tx.clone());
        workers.insert(ty, (tx, handle));
    }

    // ---- detection entry points ----

    /// Monitored method invocations were observed, in invocation order
    /// (a single invocation is a slice of one).
    ///
    /// Runs of equal `(class, method, phase)` share one detector-index
    /// lookup. A run whose key maps to a *single* event type is
    /// delivered as one slice (see [`Router::deliver`] for the ordering
    /// contract); a key registered to several event types keeps the
    /// per-call interleaving of its types.
    pub fn raise_method(self: &Arc<Self>, observed: &[MethodObservation<'_>]) {
        let mut rest = observed;
        while let Some(first) = rest.first() {
            let (class, method, phase) = (first.class, first.method, first.phase);
            let n = rest
                .iter()
                .position(|m| (m.class, m.method, m.phase) != (class, method, phase))
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(n);
            rest = tail;
            let types = self.lookup_lineage(&self.method_index, class, |c| (c, method, phase));
            let occurrence = |m: &MethodObservation<'_>, ty| {
                let data = EventData {
                    receiver: Some(m.receiver),
                    args: m.args.clone(),
                    ..Default::default()
                };
                Arc::new(self.occurrence(ty, m.at, Some(m.txn), Some(m.top), data))
            };
            match types[..] {
                // One event type, several calls: deliver the run as one
                // slice.
                [ty] if run.len() > 1 => {
                    self.trace.log(|| {
                        format!(
                            "method-event batch x{n} (class {class}, {method}, {phase:?}) \
                             -> ECA-manager[{ty}]"
                        )
                    });
                    let occs: Vec<_> = run.iter().map(|m| occurrence(m, ty)).collect();
                    self.deliver(&occs);
                }
                // One call, or a key with several types: per call, each
                // type in registration order.
                _ => {
                    for m in run {
                        for &ty in &types {
                            self.trace.log(|| {
                                format!(
                                    "method-event detected (class {class}, {method}, {phase:?}) \
                                     -> ECA-manager[{ty}]"
                                )
                            });
                            self.deliver(std::slice::from_ref(&occurrence(m, ty)));
                        }
                    }
                }
            }
        }
    }

    /// Event types registered in `index` for `class` or any ancestor —
    /// events declared on a base class catch subclass receivers. `key`
    /// builds the index key for one class of the lineage.
    fn lookup_lineage<K: Eq + std::hash::Hash>(
        &self,
        index: &RwLock<HashMap<K, Vec<EventTypeId>>>,
        class: ClassId,
        key: impl Fn(ClassId) -> K,
    ) -> Vec<EventTypeId> {
        let lineage = self.schema.lineage(class).unwrap_or_else(|_| vec![class]);
        let index = index.read();
        lineage
            .into_iter()
            .filter_map(|c| index.get(&key(c)))
            .flatten()
            .copied()
            .collect()
    }

    /// A primitive occurrence of `event_type`, stamped with the next
    /// event sequence number.
    fn occurrence(
        &self,
        event_type: EventTypeId,
        at: TimePoint,
        txn: Option<TxnId>,
        top_txn: Option<TxnId>,
        data: EventData,
    ) -> EventOccurrence {
        EventOccurrence {
            event_type,
            seq: self.next_seq(),
            at,
            txn,
            top_txn,
            data,
            constituents: Vec::new(),
        }
    }

    /// Deliver one fresh occurrence of each type in `types`; `data`
    /// builds each payload, so nothing is built when no type matches.
    fn raise_each(
        self: &Arc<Self>,
        types: &[EventTypeId],
        at: TimePoint,
        txn: Option<TxnId>,
        top: Option<TxnId>,
        data: impl Fn() -> EventData,
    ) {
        for &ty in types {
            let occ = Arc::new(self.occurrence(ty, at, txn, top, data()));
            self.deliver(std::slice::from_ref(&occ));
        }
    }

    /// A state change was observed.
    #[allow(clippy::too_many_arguments)]
    pub fn raise_state_change(
        self: &Arc<Self>,
        txn: TxnId,
        top: TxnId,
        at: TimePoint,
        receiver: reach_common::ObjectId,
        class: ClassId,
        attribute: &str,
        old: reach_object::Value,
        new: reach_object::Value,
    ) {
        let types = self.lookup_lineage(&self.state_index, class, |c| (c, attribute.to_string()));
        for ty in types {
            self.trace.log(|| {
                format!("state-change detected ({class}.{attribute}) -> ECA-manager[{ty}]")
            });
            self.raise_each(&[ty], at, Some(txn), Some(top), || EventData {
                receiver: Some(receiver),
                attribute: Some(attribute.to_string()),
                old: Some(old.clone()),
                new: Some(new.clone()),
                ..Default::default()
            });
        }
    }

    /// A constructor/destructor was observed.
    pub fn raise_lifecycle(
        self: &Arc<Self>,
        txn: TxnId,
        top: TxnId,
        at: TimePoint,
        receiver: reach_common::ObjectId,
        class: ClassId,
        deletion: bool,
    ) {
        let types = self.lookup_lineage(&self.lifecycle_index, class, |c| (c, deletion));
        self.raise_each(&types, at, Some(txn), Some(top), || {
            EventData::for_receiver(receiver)
        });
    }

    /// An object was made persistent.
    pub fn raise_persist(
        self: &Arc<Self>,
        txn: TxnId,
        top: TxnId,
        at: TimePoint,
        receiver: reach_common::ObjectId,
        class: ClassId,
    ) {
        let types = self.lookup_lineage(&self.persist_index, class, |c| c);
        self.raise_each(&types, at, Some(txn), Some(top), || {
            EventData::for_receiver(receiver)
        });
    }

    /// A transaction flow point was reached.
    pub fn raise_flow(self: &Arc<Self>, txn: TxnId, top: TxnId, at: TimePoint, point: FlowPoint) {
        if !self.observes_flow() {
            return;
        }
        let types = self
            .flow_index
            .read()
            .get(&point)
            .cloned()
            .unwrap_or_default();
        self.raise_each(&types, at, Some(txn), Some(top), EventData::default);
    }

    /// An explicit application signal.
    pub fn raise_signal(
        self: &Arc<Self>,
        txn: Option<TxnId>,
        top: Option<TxnId>,
        at: TimePoint,
        name: &str,
        receiver: Option<reach_common::ObjectId>,
        args: Vec<reach_object::Value>,
    ) {
        let types = self
            .signal_index
            .read()
            .get(name)
            .cloned()
            .unwrap_or_default();
        let args: reach_object::Args = args.into();
        self.raise_each(&types, at, txn, top, || EventData {
            signal: Some(name.to_string()),
            receiver,
            args: args.clone(),
            ..Default::default()
        });
    }

    /// A temporal event fired (called by the temporal manager).
    pub fn raise_temporal(self: &Arc<Self>, ty: EventTypeId, at: TimePoint) {
        self.trace
            .log(|| format!("temporal event at {at} -> ECA-manager[{ty}]"));
        self.raise_each(&[ty], at, None, None, EventData::default);
    }

    // ---- delivery (Figure 2) ----

    /// Deliver occurrences of **one event type** (in `seq` order; a
    /// single occurrence is a slice of one) to their ECA-manager:
    /// history, rules, propagation to composite managers. The manager
    /// lookup, history append, rule snapshot and metrics stamp are paid
    /// once per slice.
    ///
    /// Ordering contract, relative to delivering the occurrences one
    /// slice each:
    /// * rule firing sequences are identical — occurrences go through
    ///   the engine in event order, and events raised *by* a fired rule
    ///   are still delivered inline before the next occurrence fires;
    /// * when the type has composite subscribers, the exact per-event
    ///   interleaving `[observers, fire, feed]` is kept per occurrence;
    /// * when it has none (nothing to feed), passive observers see the
    ///   whole slice before the first rule fires — observers cannot
    ///   veto or fire, so firing sequences are unaffected, and the
    ///   engine can amortize scheduling over the slice;
    /// * the slice is recorded into the local history up front, so a
    ///   rule reading its own manager's history mid-slice sees events
    ///   of later occurrences already recorded.
    pub fn deliver(self: &Arc<Self>, occs: &[Arc<EventOccurrence>]) {
        let Some(first) = occs.first() else {
            return;
        };
        debug_assert!(occs.iter().all(|o| o.event_type == first.event_type));
        let Some(mgr) = self.manager(first.event_type) else {
            return;
        };
        let t0 = self.metrics.span_start();
        if t0.is_some() {
            self.metrics.events.detected.add(occs.len() as u64);
        }
        self.trace.log(|| match occs {
            [occ] => format!(
                "ECA-manager[{}] creates Event object (seq {})",
                mgr.name, occ.seq
            ),
            _ => format!(
                "ECA-manager[{}] creates {} Event objects (batch)",
                mgr.name,
                occs.len()
            ),
        });
        mgr.history.record(occs);
        let rules = mgr.rules();
        let handler = if rules.is_empty() {
            None
        } else {
            self.handler.read().clone()
        };
        let fires = || {
            format!(
                "ECA-manager[{}] fires {} rule(s), then signals go-ahead",
                mgr.name,
                rules.len()
            )
        };
        let subscribers = mgr.subscribers();
        if subscribers.is_empty() {
            self.notify_observers(occs);
            if let Some(h) = handler {
                self.trace.log(fires);
                h.fire(rules, occs);
            }
        } else {
            let sub_mgrs: Vec<_> = subscribers
                .iter()
                .filter_map(|s| self.manager(*s))
                .filter(|m| self.composes(m, false))
                .collect();
            for occ in occs {
                self.notify_observers(std::slice::from_ref(occ));
                if let Some(h) = &handler {
                    self.trace.log(fires);
                    h.fire(rules.clone(), std::slice::from_ref(occ));
                }
                for sub_mgr in &sub_mgrs {
                    self.trace.log(|| {
                        format!(
                            "ECA-manager[{}] propagates -> composite ECA-manager[{}]",
                            mgr.name, sub_mgr.name
                        )
                    });
                    // Fast path: the manager's cached worker inbox.
                    if !self.send_feed(sub_mgr, occ) {
                        self.feed_compositor(sub_mgr, occ);
                    }
                }
            }
        }
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::EcaManager, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Show `occs` to every passive observer. The list is borrowed, not
    /// cloned, on every delivery: observers are added only while a
    /// deployment is assembled, so no writer waits on the lock that a
    /// re-entrant delivery (an observer shipping to another shard whose
    /// completion comes back here) reads again.
    fn notify_observers(&self, occs: &[Arc<EventOccurrence>]) {
        let observers = self.observers.read();
        for occ in occs {
            for obs in observers.iter() {
                obs(occ);
            }
        }
    }

    /// Deliver an occurrence that was detected — and whose primitive
    /// rules already fired — on another shard. Only composite
    /// subscribers are fed: the owning shard recorded the occurrence in
    /// its history, notified its observers and ran its rules, so here
    /// the occurrence exists solely to complete cross-shard
    /// compositions (whose completions then fire *this* shard's rules
    /// through the ordinary [`Router::deliver`] of the composite).
    pub fn deliver_remote(self: &Arc<Self>, occ: Arc<EventOccurrence>) {
        let Some(mgr) = self.manager(occ.event_type) else {
            return;
        };
        for sub in mgr.subscribers() {
            let Some(sub_mgr) = self.manager(sub) else {
                continue;
            };
            if !self.composes(&sub_mgr, true) {
                continue;
            }
            if !self.send_feed(&sub_mgr, &occ) {
                self.feed_compositor(&sub_mgr, &occ);
            }
        }
    }

    /// Try to hand an occurrence to `sub_mgr`'s worker inbox. Returns
    /// false (caller feeds inline) when the manager has no worker
    /// (synchronous mode), the worker is gone, or — for compositor
    /// worker threads only — the bounded inbox is full. Application
    /// threads block on a full inbox instead: that is the admission
    /// control the bound exists for, and it preserves per-compositor
    /// FIFO order. Workers must not block (see [`IN_WORKER`]), so under
    /// overload a cascading completion is composed inline by the
    /// sending worker; the compositor's own lock keeps that safe.
    fn send_feed(&self, sub_mgr: &EcaManager, occ: &Arc<EventOccurrence>) -> bool {
        let tx = sub_mgr.worker_tx.read();
        let Some(tx) = &*tx else {
            return false;
        };
        if IN_WORKER.with(|w| w.get()) {
            match tx.try_send(WorkerMsg::Feed(Arc::clone(occ))) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
            }
        } else {
            tx.send(WorkerMsg::Feed(Arc::clone(occ))).is_ok()
        }
    }

    fn feed_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, occ: &Arc<EventOccurrence>) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        let t0 = self.metrics.span_start();
        let completions = compositor.feed(occ);
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::Compositor, t0.elapsed().as_nanos() as u64);
        }
        for completion in completions {
            self.emit_completion(mgr, completion);
        }
    }

    fn close_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, txn: TxnId, fire: bool) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        for completion in compositor.close_txn(txn) {
            if fire {
                self.emit_completion(mgr, completion);
            }
        }
    }

    fn expire_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, now: TimePoint) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        for completion in compositor.expire(now) {
            self.emit_completion(mgr, completion);
        }
    }

    /// Turn a compositor completion into a composite occurrence and
    /// deliver it (recursively: composites can feed other composites).
    fn emit_completion(self: &Arc<Self>, mgr: &Arc<EcaManager>, completion: Completion) {
        let scope = match &mgr.spec {
            EventSpec::Composite(CompositeSpec { scope, .. }) => *scope,
            EventSpec::Primitive(_) => return,
        };
        // A same-transaction composite inherits its (single) origin
        // transaction; cross-transaction composites belong to none.
        let (txn, top) = match scope {
            crate::algebra::CompositionScope::SameTransaction => {
                let top = completion.constituents.iter().find_map(|c| c.top_txn);
                (top, top)
            }
            crate::algebra::CompositionScope::CrossTransaction => (None, None),
        };
        let at = completion
            .constituents
            .iter()
            .map(|c| c.at)
            .max()
            .unwrap_or(TimePoint::ZERO);
        let occ = Arc::new(EventOccurrence {
            constituents: completion.constituents,
            ..self.occurrence(mgr.event_type, at, txn, top, EventData::default())
        });
        if self.metrics.on() {
            self.metrics.events.composites_completed.inc();
        }
        self.trace.log(|| {
            format!(
                "composite ECA-manager[{}] completes ({} constituents{})",
                mgr.name,
                occ.constituents.len(),
                if completion.at_window_close {
                    ", at window close"
                } else {
                    ""
                }
            )
        });
        self.deliver(std::slice::from_ref(&occ));
    }

    // ---- lifecycle hooks from the transaction manager ----

    /// A top-level transaction ended. `fire_windows` is true on commit
    /// (window operators may fire) and false on abort (the transaction's
    /// events are revoked with it).
    pub fn close_txn(self: &Arc<Self>, txn: TxnId, fire_windows: bool) {
        match *self.mode.read() {
            CompositionMode::Synchronous => {
                for mgr in self.managers() {
                    if mgr.compositor.is_some() {
                        self.close_compositor(&mgr, txn, fire_windows);
                    }
                }
            }
            CompositionMode::Parallel => {
                let workers = self.workers.lock();
                for (tx, _) in workers.values() {
                    let _ = tx.send(WorkerMsg::CloseTxn(txn, fire_windows));
                }
            }
        }
    }

    /// Sweep validity intervals against `now`.
    pub fn expire(self: &Arc<Self>, now: TimePoint) {
        match *self.mode.read() {
            CompositionMode::Synchronous => {
                for mgr in self.managers() {
                    if mgr.compositor.is_some() {
                        self.expire_compositor(&mgr, now);
                    }
                }
            }
            CompositionMode::Parallel => {
                let workers = self.workers.lock();
                for (tx, _) in workers.values() {
                    let _ = tx.send(WorkerMsg::Expire(now));
                }
            }
        }
    }

    /// Barrier: wait until every composite worker has drained its queue.
    /// No-op in synchronous mode.
    pub fn flush(&self) {
        let acks: Vec<_> = {
            let workers = self.workers.lock();
            workers
                .values()
                .filter_map(|(tx, _)| {
                    let (ack_tx, ack_rx) = bounded(1);
                    tx.send(WorkerMsg::Flush(ack_tx)).ok().map(|_| ack_rx)
                })
                .collect()
        };
        for rx in acks {
            let _ = rx.recv();
        }
    }

    /// Total semi-composed instances across all compositors (§3.3 GC
    /// observability).
    pub fn total_live_instances(&self) -> usize {
        self.managers().iter().map(|m| m.live_instances()).sum()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let mut workers = self.workers.lock();
        for (_, (tx, handle)) in workers.drain() {
            let _ = tx.send(WorkerMsg::Shutdown);
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("managers", &self.managers.read().len())
            .field("mode", &self.mode())
            .finish()
    }
}
