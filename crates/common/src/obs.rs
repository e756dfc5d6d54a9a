//! The observability registry: the one record of firing-path stages and
//! component counters, and the one switch that turns the gated part on.
//!
//! The firing path of the paper's Figure 2 — sentry → primitive
//! ECA-manager → compositor → rule engine → subtransaction → WAL force
//! — is modelled as six [`Stage`]s, each one latency [`Histogram`]. A
//! single [`MetricsRegistry`] is created by the storage manager (the
//! lowest layer) and threaded *up* through the transaction manager, the
//! OODB sentries and the REACH core, so every layer records into the
//! same instance. [`MetricsRegistry::snapshot`] is the one read view:
//! tests, examples, `exp_*` bins and the benchmark all read a
//! [`MetricsSnapshot`] (render it with [`MetricsSnapshot::render`]).
//!
//! **Overhead contract.** The registry is created disabled. Every
//! gated record path first calls [`MetricsRegistry::on`] — a single
//! relaxed atomic load plus one branch — and only then touches a clock
//! or an atomic. That keeps E4's "useless overhead" story intact: an
//! unmonitored method call through an instrumented-but-disabled system
//! pays one predictable branch, nothing more.
//!
//! **Gating, per family.** Ungated counters are plain relaxed adds that
//! are always on, because tests and harnesses read them without enabling
//! the registry:
//!
//! | family                | gated by [`MetricsRegistry::on`]      |
//! |-----------------------|---------------------------------------|
//! | stages                | gated                                 |
//! | [`WalMetrics`]        | gated                                 |
//! | [`PoolMetrics`]       | ungated                               |
//! | [`TxnMetrics`]        | gated                                 |
//! | [`SentryMetrics`]     | gated                                 |
//! | [`EngineMetrics`]     | ungated                               |
//! | [`EventMetrics`]      | gated                                 |
//! | [`RecoveryMetrics`]   | ungated (written once per reboot)     |
//! | [`CheckpointMetrics`] | ungated                               |
//! | [`IndexMetrics`]      | gated                                 |
//! | [`ServerMetrics`]     | ungated                               |

use crate::metrics::{fmt_ns, Counter, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The six stages of the firing path (Figure 2, left to right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sentry interception of a raw operation (method call, state
    /// change, lifecycle transition, flow point).
    Sentry,
    /// Primitive ECA-manager delivery: event typed, history recorded,
    /// directly-attached rules collected.
    EcaManager,
    /// Composite event automata advance (feed, match, completion).
    Compositor,
    /// Rule engine firing (condition + action scheduling) for one
    /// triggering event.
    Engine,
    /// One rule action running as a nested subtransaction.
    Subtransaction,
    /// WAL force (group of appends made durable).
    WalForce,
}

impl Stage {
    /// All stages in firing-path order.
    pub const ALL: [Stage; 6] = [
        Stage::Sentry,
        Stage::EcaManager,
        Stage::Compositor,
        Stage::Engine,
        Stage::Subtransaction,
        Stage::WalForce,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sentry => "sentry",
            Stage::EcaManager => "eca-manager",
            Stage::Compositor => "compositor",
            Stage::Engine => "engine",
            Stage::Subtransaction => "subtransaction",
            Stage::WalForce => "wal-force",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Sentry => 0,
            Stage::EcaManager => 1,
            Stage::Compositor => 2,
            Stage::Engine => 3,
            Stage::Subtransaction => 4,
            Stage::WalForce => 5,
        }
    }
}

/// Write-ahead-log counters (recorded by `reach-storage`).
#[derive(Default)]
pub struct WalMetrics {
    /// Log records appended.
    pub appends: Counter,
    /// Bytes appended (frame payloads incl. headers).
    pub append_bytes: Counter,
    /// `force()` calls that actually synced.
    pub forces: Counter,
    /// Latency of syncing forces.
    pub force_latency: Histogram,
    /// Group-commit fast path: force requests already covered by the
    /// forced LSN on entry (read-only commits, back-to-back forces) —
    /// no wait, no sync.
    pub force_skips: Counter,
    /// Group-commit followers: force requests satisfied by *another*
    /// committer's leader sync while they waited on the sequencer.
    /// `txn_commits / wal_forces` is the batching factor; this counter
    /// shows how many commits rode along without paying a sync.
    pub force_piggybacks: Counter,
}

/// Buffer-pool counters (recorded by `reach-storage`).
#[derive(Default)]
pub struct PoolMetrics {
    /// Fetches served from a resident frame.
    pub hits: Counter,
    /// Fetches that had to read from disk.
    pub misses: Counter,
    /// Clock-hand evictions of clean or flushed frames.
    pub evictions: Counter,
    /// Dirty pages written back by eviction or flush.
    pub writebacks: Counter,
}

/// Transaction-manager counters (recorded by `reach-txn`).
#[derive(Default)]
pub struct TxnMetrics {
    /// Top-level + nested transactions begun.
    pub begins: Counter,
    /// Transactions committed.
    pub commits: Counter,
    /// Transactions aborted (voluntary or forced).
    pub aborts: Counter,
    /// Latency of top-level commits (incl. WAL force + hooks).
    pub commit_latency: Histogram,
    /// Lock acquisitions that had to wait.
    pub lock_waits: Counter,
    /// Time spent blocked waiting for locks.
    pub lock_wait_latency: Histogram,
    /// Deadlocks detected (victim aborted with `ReachError::Deadlock`).
    pub deadlocks: Counter,
    /// Lock-manager grants (every acquire/try_acquire that succeeded).
    /// The MVCC zero-lock claim is asserted against this counter:
    /// snapshot readers must leave it untouched.
    pub lock_acquisitions: Counter,
    /// Read-only snapshot transactions begun.
    pub snapshot_begins: Counter,
    /// Snapshot reads served (each with zero lock-manager traffic).
    pub snapshot_reads: Counter,
    /// Object versions published by committing writers.
    pub versions_published: Counter,
    /// Object versions reclaimed by snapshot-watermark GC.
    pub versions_reclaimed: Counter,
}

/// Per-sentry-mechanism detection counters (recorded by `reach-oodb`).
///
/// `useful` counts interceptions that produced an event for a monitored
/// target; `useless` counts interceptions where the sentry looked and
/// found nothing monitored — the §6.2 "useless overhead" population.
#[derive(Default)]
pub struct SentryMetrics {
    /// In-line wrapper sentry: calls routed through the mechanism.
    pub inline_invocations: Counter,
    /// In-line wrapper sentry: events actually raised (useful work).
    pub inline_detections: Counter,
    /// Root-class trap: trapped calls (the walk runs on every one).
    pub trap_invocations: Counter,
    /// Root-class trap: events actually raised.
    pub trap_detections: Counter,
    /// Surrogate/proxy sentry: calls paying the identity-map lookup.
    pub surrogate_invocations: Counter,
    /// Surrogate/proxy sentry: events actually raised.
    pub surrogate_detections: Counter,
    /// Announce-based sentry: events raised (announce is opt-in, so it
    /// has no useless population by construction).
    pub announce_detections: Counter,
}

/// Rule-engine counters (recorded by `reach-core`).
#[derive(Default)]
pub struct EngineMetrics {
    /// Rules fired in immediate mode (nested subtransaction inline).
    pub immediate_runs: Counter,
    /// Rules fired in deferred mode (pre-commit queue).
    pub deferred_runs: Counter,
    /// Rules fired in a detached mode (fresh top-level transaction).
    pub detached_runs: Counter,
    /// Actions actually executed (condition held).
    pub actions_executed: Counter,
    /// Conditions evaluated false (no subtransaction created).
    pub conditions_false: Counter,
    /// Firings skipped because the triggering txn aborted first.
    pub triggering_aborts: Counter,
    /// Detached firings skipped on a transient error before retry glue.
    pub skipped_transient: Counter,
    /// Causally-dependent firings skipped: dependency not satisfiable.
    pub skipped_dependency: Counter,
    /// Rule executions that ended in a non-transient error.
    pub failures: Counter,
    /// Extra attempts spent retrying transient detached failures.
    pub retries: Counter,
    /// Detached firings that exhausted their retry budget.
    pub gave_up: Counter,
}

/// Event-pipeline counters (recorded by `reach-core`'s router and
/// compositors).
#[derive(Default)]
pub struct EventMetrics {
    /// Primitive events delivered to their ECA-manager.
    pub detected: Counter,
    /// Composite completions (an automaton reached its accepting state).
    pub composites_completed: Counter,
    /// Automaton instances ever created.
    pub instances_created: Counter,
    /// Instances discarded (lifespan expiry, consumption, pressure GC).
    pub instances_discarded: Counter,
    /// Instances discarded specifically by the pressure cap.
    pub instances_pressure_gcd: Counter,
    /// High-water mark of live instances (updated at snapshot time).
    pub instances_peak: Counter,
    /// Highest occupied occurrence-slab slot count any single compositor
    /// reached (constituent storage; generations freed per window).
    pub occ_slab_peak: Counter,
}

/// Recovery figures, written once per reboot by `reach-storage`'s
/// recovery pass — the single source for `salvaged_bytes` et al.
#[derive(Default)]
pub struct RecoveryMetrics {
    /// Log records scanned during analysis.
    pub records_scanned: Counter,
    /// Page writes redone.
    pub redone: Counter,
    /// Loser transactions found.
    pub losers: Counter,
    /// Updates undone (CLRs written).
    pub undone: Counter,
    /// Trailing torn-tail bytes discarded by the scan.
    pub salvaged_bytes: Counter,
    /// Bytes of surviving log the analysis pass had to read. Bounded by
    /// checkpoint truncation; grows linearly without it (E17).
    pub scan_bytes: Counter,
}

/// Checkpoint/truncation counters (recorded by `reach-storage`'s
/// checkpointer).
#[derive(Default)]
pub struct CheckpointMetrics {
    /// Complete Begin/End checkpoint pairs written.
    pub taken: Counter,
    /// Truncations that actually dropped a log prefix.
    pub truncations: Counter,
    /// Total log bytes dropped by truncation.
    pub truncated_bytes: Counter,
}

/// Persistent-index counters (recorded by `reach-storage`'s B+Tree and
/// index facade).
#[derive(Default)]
pub struct IndexMetrics {
    /// Logical `(key, oid)` insertions applied to a persistent tree.
    pub inserts: Counter,
    /// Logical `(key, oid)` deletions applied to a persistent tree.
    pub deletes: Counter,
    /// Point lookups served.
    pub lookups: Counter,
    /// Range scans served.
    pub range_scans: Counter,
    /// Node page images written (every physically-logged tree write).
    pub node_writes: Counter,
    /// Node splits performed (leaf + internal).
    pub node_splits: Counter,
    /// Root splits (tree grew a level).
    pub root_splits: Counter,
    /// Logical index operations undone (abort or restart-undo).
    pub undone: Counter,
}

/// Network-server counters (recorded by `reach-server`).
#[derive(Default)]
pub struct ServerMetrics {
    /// Sessions admitted (a connection that got a session slot).
    pub sessions_opened: Counter,
    /// Sessions that ended (any reason).
    pub sessions_closed: Counter,
    /// Connections rejected at admission with `Overloaded`.
    pub admissions_rejected: Counter,
    /// Requests fully processed (ok or error response sent).
    pub requests: Counter,
    /// Latency from frame decode to response enqueue.
    pub request_latency: Histogram,
    /// Requests answered with an error response.
    pub request_errors: Counter,
    /// Requests rejected because their deadline had already expired,
    /// or whose lock wait was cut short by the deadline.
    pub deadline_rejections: Counter,
    /// Sessions disconnected because their write queue stayed full.
    pub slow_consumer_disconnects: Counter,
    /// Idle sessions reaped (their open transactions aborted).
    pub idle_reaped: Counter,
    /// Orphaned transactions aborted on disconnect/reap/shutdown.
    pub orphan_aborts: Counter,
    /// Rule-firing / dead-letter notifications pushed to subscribers.
    pub notifications_sent: Counter,
    /// Frames rejected as protocol violations.
    pub protocol_errors: Counter,
    /// Payload bytes read off sockets.
    pub bytes_read: Counter,
    /// Payload bytes written to sockets.
    pub bytes_written: Counter,
    /// Request handlers that panicked (caught; connection dropped).
    pub panics: Counter,
}

/// The shared observability registry.
///
/// One per storage manager; every layer above holds a clone of the same
/// `Arc`. Created **disabled**: gated recording is skipped behind
/// [`MetricsRegistry::on`] until [`MetricsRegistry::enable`] is called.
/// The module docs list which counter families are gated.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    /// Traversal latency of each [`Stage`], in [`Stage::ALL`] order.
    stages: [Histogram; 6],
    /// WAL counters.
    pub wal: WalMetrics,
    /// Buffer-pool counters.
    pub pool: PoolMetrics,
    /// Transaction-manager counters.
    pub txn: TxnMetrics,
    /// Sentry-mechanism counters.
    pub sentry: SentryMetrics,
    /// Rule-engine counters.
    pub engine: EngineMetrics,
    /// Event-pipeline counters.
    pub events: EventMetrics,
    /// Recovery figures (written once per reboot).
    pub recovery: RecoveryMetrics,
    /// Checkpoint/truncation counters.
    pub ckpt: CheckpointMetrics,
    /// Persistent-index counters.
    pub index: IndexMetrics,
    /// Network-server counters.
    pub server: ServerMetrics,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry, disabled.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            stages: Default::default(),
            wal: WalMetrics::default(),
            pool: PoolMetrics::default(),
            txn: TxnMetrics::default(),
            sentry: SentryMetrics::default(),
            engine: EngineMetrics::default(),
            events: EventMetrics::default(),
            recovery: RecoveryMetrics::default(),
            ckpt: CheckpointMetrics::default(),
            index: IndexMetrics::default(),
            server: ServerMetrics::default(),
        }
    }

    /// A fresh shared registry, disabled.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Is gated recording on? One relaxed load + one branch at the
    /// caller — this is the *entire* disabled-path cost.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn gated recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Turn gated recording off. Already-recorded data is retained.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Start a span timer — `Some(Instant)` only when enabled, so the
    /// disabled path never reads the clock.
    #[inline(always)]
    pub fn span_start(&self) -> Option<Instant> {
        if self.on() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a span started with [`MetricsRegistry::span_start`].
    /// No-op when the start was `None` (registry was disabled).
    #[inline]
    pub fn span_end(&self, stage: Stage, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record_span(stage, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record a traversal of `stage` with a known duration.
    pub fn record_span(&self, stage: Stage, dur_ns: u64) {
        self.stages[stage.index()].record(dur_ns);
    }

    /// Copy everything into a plain-data [`MetricsSnapshot`] — the one
    /// read view of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stages = Stage::ALL.map(|stage| {
            let latency = self.stages[stage.index()].snapshot();
            StageSnapshot {
                stage,
                count: latency.count,
                latency,
            }
        });
        MetricsSnapshot {
            enabled: self.on(),
            stages,
            wal_appends: self.wal.appends.get(),
            wal_append_bytes: self.wal.append_bytes.get(),
            wal_forces: self.wal.forces.get(),
            wal_force_latency: self.wal.force_latency.snapshot(),
            wal_force_skips: self.wal.force_skips.get(),
            wal_force_piggybacks: self.wal.force_piggybacks.get(),
            pool_hits: self.pool.hits.get(),
            pool_misses: self.pool.misses.get(),
            pool_evictions: self.pool.evictions.get(),
            pool_writebacks: self.pool.writebacks.get(),
            txn_begins: self.txn.begins.get(),
            txn_commits: self.txn.commits.get(),
            txn_aborts: self.txn.aborts.get(),
            txn_commit_latency: self.txn.commit_latency.snapshot(),
            lock_waits: self.txn.lock_waits.get(),
            lock_wait_latency: self.txn.lock_wait_latency.snapshot(),
            deadlocks: self.txn.deadlocks.get(),
            lock_acquisitions: self.txn.lock_acquisitions.get(),
            snapshot_begins: self.txn.snapshot_begins.get(),
            snapshot_reads: self.txn.snapshot_reads.get(),
            versions_published: self.txn.versions_published.get(),
            versions_reclaimed: self.txn.versions_reclaimed.get(),
            sentry_useful: [
                self.sentry.inline_detections.get(),
                self.sentry.trap_detections.get(),
                self.sentry.surrogate_detections.get(),
                self.sentry.announce_detections.get(),
            ],
            sentry_useless: [
                self.sentry
                    .inline_invocations
                    .get()
                    .saturating_sub(self.sentry.inline_detections.get()),
                self.sentry
                    .trap_invocations
                    .get()
                    .saturating_sub(self.sentry.trap_detections.get()),
                self.sentry
                    .surrogate_invocations
                    .get()
                    .saturating_sub(self.sentry.surrogate_detections.get()),
                0,
            ],
            events_detected: self.events.detected.get(),
            composites_completed: self.events.composites_completed.get(),
            instances_created: self.events.instances_created.get(),
            instances_discarded: self.events.instances_discarded.get(),
            instances_pressure_gcd: self.events.instances_pressure_gcd.get(),
            instances_peak: self.events.instances_peak.get(),
            occ_slab_peak: self.events.occ_slab_peak.get(),
            immediate_runs: self.engine.immediate_runs.get(),
            deferred_runs: self.engine.deferred_runs.get(),
            detached_runs: self.engine.detached_runs.get(),
            actions_executed: self.engine.actions_executed.get(),
            conditions_false: self.engine.conditions_false.get(),
            skipped_transient: self.engine.skipped_transient.get(),
            skipped_dependency: self.engine.skipped_dependency.get(),
            triggering_aborts: self.engine.triggering_aborts.get(),
            failures: self.engine.failures.get(),
            retries: self.engine.retries.get(),
            gave_up: self.engine.gave_up.get(),
            recovery_records_scanned: self.recovery.records_scanned.get(),
            recovery_redone: self.recovery.redone.get(),
            recovery_losers: self.recovery.losers.get(),
            recovery_undone: self.recovery.undone.get(),
            recovery_salvaged_bytes: self.recovery.salvaged_bytes.get(),
            recovery_scan_bytes: self.recovery.scan_bytes.get(),
            ckpt_taken: self.ckpt.taken.get(),
            ckpt_truncations: self.ckpt.truncations.get(),
            ckpt_truncated_bytes: self.ckpt.truncated_bytes.get(),
            index_inserts: self.index.inserts.get(),
            index_deletes: self.index.deletes.get(),
            index_lookups: self.index.lookups.get(),
            index_range_scans: self.index.range_scans.get(),
            index_node_writes: self.index.node_writes.get(),
            index_node_splits: self.index.node_splits.get(),
            index_root_splits: self.index.root_splits.get(),
            index_undone: self.index.undone.get(),
            server_sessions_opened: self.server.sessions_opened.get(),
            server_sessions_closed: self.server.sessions_closed.get(),
            server_admissions_rejected: self.server.admissions_rejected.get(),
            server_requests: self.server.requests.get(),
            server_request_latency: self.server.request_latency.snapshot(),
            server_request_errors: self.server.request_errors.get(),
            server_deadline_rejections: self.server.deadline_rejections.get(),
            server_slow_consumer_disconnects: self.server.slow_consumer_disconnects.get(),
            server_idle_reaped: self.server.idle_reaped.get(),
            server_orphan_aborts: self.server.orphan_aborts.get(),
            server_notifications_sent: self.server.notifications_sent.get(),
            server_protocol_errors: self.server.protocol_errors.get(),
            server_bytes_read: self.server.bytes_read.get(),
            server_bytes_written: self.server.bytes_written.get(),
            server_panics: self.server.panics.get(),
        }
    }
}

/// Plain-data copy of one stage's observations.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Total traversals recorded (`latency.count`).
    pub count: u64,
    /// Latency distribution.
    pub latency: HistogramSnapshot,
}

/// Plain-data copy of the whole registry at one instant.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field names mirror the registry counters 1:1
pub struct MetricsSnapshot {
    pub enabled: bool,
    pub stages: [StageSnapshot; 6],
    pub wal_appends: u64,
    pub wal_append_bytes: u64,
    pub wal_forces: u64,
    pub wal_force_latency: HistogramSnapshot,
    pub wal_force_skips: u64,
    pub wal_force_piggybacks: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_writebacks: u64,
    pub txn_begins: u64,
    pub txn_commits: u64,
    pub txn_aborts: u64,
    pub txn_commit_latency: HistogramSnapshot,
    pub lock_waits: u64,
    pub lock_wait_latency: HistogramSnapshot,
    pub deadlocks: u64,
    pub lock_acquisitions: u64,
    pub snapshot_begins: u64,
    pub snapshot_reads: u64,
    pub versions_published: u64,
    pub versions_reclaimed: u64,
    /// Useful detections per mechanism: inline, trap, surrogate, announce.
    pub sentry_useful: [u64; 4],
    /// Useless interceptions per mechanism (announce is always 0).
    pub sentry_useless: [u64; 4],
    pub events_detected: u64,
    pub composites_completed: u64,
    pub instances_created: u64,
    pub instances_discarded: u64,
    pub instances_pressure_gcd: u64,
    pub instances_peak: u64,
    pub occ_slab_peak: u64,
    pub immediate_runs: u64,
    pub deferred_runs: u64,
    pub detached_runs: u64,
    pub actions_executed: u64,
    pub conditions_false: u64,
    pub skipped_transient: u64,
    pub skipped_dependency: u64,
    pub triggering_aborts: u64,
    pub failures: u64,
    pub retries: u64,
    pub gave_up: u64,
    pub recovery_records_scanned: u64,
    pub recovery_redone: u64,
    pub recovery_losers: u64,
    pub recovery_undone: u64,
    pub recovery_salvaged_bytes: u64,
    pub recovery_scan_bytes: u64,
    pub ckpt_taken: u64,
    pub ckpt_truncations: u64,
    pub ckpt_truncated_bytes: u64,
    pub index_inserts: u64,
    pub index_deletes: u64,
    pub index_lookups: u64,
    pub index_range_scans: u64,
    pub index_node_writes: u64,
    pub index_node_splits: u64,
    pub index_root_splits: u64,
    pub index_undone: u64,
    pub server_sessions_opened: u64,
    pub server_sessions_closed: u64,
    pub server_admissions_rejected: u64,
    pub server_requests: u64,
    pub server_request_latency: HistogramSnapshot,
    pub server_request_errors: u64,
    pub server_deadline_rejections: u64,
    pub server_slow_consumer_disconnects: u64,
    pub server_idle_reaped: u64,
    pub server_orphan_aborts: u64,
    pub server_notifications_sent: u64,
    pub server_protocol_errors: u64,
    pub server_bytes_read: u64,
    pub server_bytes_written: u64,
    pub server_panics: u64,
}

/// Render a quantile figure, suffixed with `!` when the histogram's
/// overflow count says the percentile is saturated (the true value is
/// somewhere at or beyond the bucket range and cannot be resolved).
fn fmt_quantile(h: &HistogramSnapshot, q: f64) -> String {
    let s = fmt_ns(h.quantile(q));
    if h.saturated(q) {
        format!("{s}!")
    } else {
        s
    }
}

impl MetricsSnapshot {
    /// Render the human-readable per-stage report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "== REACH metrics ({}) ==",
            if self.enabled { "enabled" } else { "disabled" }
        );
        let _ = writeln!(out, "-- firing path (Figure 2) --");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "mean", "p50", "p99", "max"
        );
        let mut overflowed = 0u64;
        for s in &self.stages {
            overflowed += s.latency.overflow;
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.stage.name(),
                s.count,
                fmt_ns(s.latency.mean_ns()),
                fmt_quantile(&s.latency, 0.5),
                fmt_quantile(&s.latency, 0.99),
                fmt_ns(s.latency.max_ns),
            );
        }
        if overflowed > 0 {
            let _ = writeln!(
                out,
                "(! = saturated percentile: {overflowed} sample(s) overflowed the histogram range)"
            );
        }
        let _ = writeln!(out, "-- events --");
        let _ = writeln!(
            out,
            "detected {}  composites-completed {}  instances created {} / discarded {} (pressure {}) / peak {}  slab-peak {}",
            self.events_detected,
            self.composites_completed,
            self.instances_created,
            self.instances_discarded,
            self.instances_pressure_gcd,
            self.instances_peak,
            self.occ_slab_peak,
        );
        let _ = writeln!(out, "-- sentries (useful/useless) --");
        let mech = ["inline-wrapper", "root-class-trap", "surrogate", "announce"];
        for (i, m) in mech.iter().enumerate() {
            if self.sentry_useful[i] + self.sentry_useless[i] > 0 {
                let _ = writeln!(
                    out,
                    "{:<16} {:>10} / {}",
                    m, self.sentry_useful[i], self.sentry_useless[i]
                );
            }
        }
        let _ = writeln!(out, "-- rule engine --");
        let _ = writeln!(
            out,
            "immediate {}  deferred {}  detached {}  actions {}  cond-false {}  skipped_transient {}  skipped_dependency {}  triggering_aborts {}  failures {}  retries {}  gave-up {}",
            self.immediate_runs,
            self.deferred_runs,
            self.detached_runs,
            self.actions_executed,
            self.conditions_false,
            self.skipped_transient,
            self.skipped_dependency,
            self.triggering_aborts,
            self.failures,
            self.retries,
            self.gave_up,
        );
        let _ = writeln!(out, "-- transactions --");
        let _ = writeln!(
            out,
            "begins {}  commits {}  aborts {}  commit mean {}  lock-waits {} (mean {})  deadlocks {}",
            self.txn_begins,
            self.txn_commits,
            self.txn_aborts,
            fmt_ns(self.txn_commit_latency.mean_ns()),
            self.lock_waits,
            fmt_ns(self.lock_wait_latency.mean_ns()),
            self.deadlocks,
        );
        let _ = writeln!(
            out,
            "snapshots: ro-begins {}  reads {}  lock-grants {}  versions published {} / reclaimed {}",
            self.snapshot_begins,
            self.snapshot_reads,
            self.lock_acquisitions,
            self.versions_published,
            self.versions_reclaimed,
        );
        let _ = writeln!(out, "-- storage --");
        let _ = writeln!(
            out,
            "wal appends {} ({} bytes)  forces {} (mean {}, skipped {}, piggybacked {})  pool hits {} / misses {}  evictions {}  writebacks {}",
            self.wal_appends,
            self.wal_append_bytes,
            self.wal_forces,
            fmt_ns(self.wal_force_latency.mean_ns()),
            self.wal_force_skips,
            self.wal_force_piggybacks,
            self.pool_hits,
            self.pool_misses,
            self.pool_evictions,
            self.pool_writebacks,
        );
        let _ = writeln!(
            out,
            "recovery: scanned {} ({} bytes)  redone {}  losers {}  undone {}  salvaged bytes {}",
            self.recovery_records_scanned,
            self.recovery_scan_bytes,
            self.recovery_redone,
            self.recovery_losers,
            self.recovery_undone,
            self.recovery_salvaged_bytes,
        );
        let _ = writeln!(
            out,
            "checkpoints: taken {}  truncations {}  truncated bytes {}",
            self.ckpt_taken, self.ckpt_truncations, self.ckpt_truncated_bytes,
        );
        if self.index_inserts + self.index_deletes + self.index_lookups + self.index_range_scans > 0
        {
            let _ = writeln!(
                out,
                "index: ins {}  del {}  lookups {}  ranges {}  node writes {}  splits {} ({} root)  undone {}",
                self.index_inserts,
                self.index_deletes,
                self.index_lookups,
                self.index_range_scans,
                self.index_node_writes,
                self.index_node_splits,
                self.index_root_splits,
                self.index_undone,
            );
        }
        if self.server_sessions_opened + self.server_admissions_rejected > 0 {
            let _ = writeln!(out, "-- server --");
            let _ = writeln!(
                out,
                "sessions {} opened / {} closed  shed {}  requests {} (p50 {}, p99 {})  errors {}  deadline-rejects {}",
                self.server_sessions_opened,
                self.server_sessions_closed,
                self.server_admissions_rejected,
                self.server_requests,
                fmt_quantile(&self.server_request_latency, 0.5),
                fmt_quantile(&self.server_request_latency, 0.99),
                self.server_request_errors,
                self.server_deadline_rejections,
            );
            let _ = writeln!(
                out,
                "slow-consumer disconnects {}  idle-reaped {}  orphan-aborts {}  notifications {}  protocol-errors {}  bytes {} in / {} out  panics {}",
                self.server_slow_consumer_disconnects,
                self.server_idle_reaped,
                self.server_orphan_aborts,
                self.server_notifications_sent,
                self.server_protocol_errors,
                self.server_bytes_read,
                self.server_bytes_written,
                self.server_panics,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_no_spans() {
        let reg = MetricsRegistry::new();
        assert!(!reg.on());
        let t = reg.span_start();
        assert!(t.is_none(), "disabled span_start must not read the clock");
        reg.span_end(Stage::Sentry, t);
        assert_eq!(reg.snapshot().stages[0].count, 0);
    }

    #[test]
    fn enabled_registry_records_spans() {
        let reg = MetricsRegistry::new();
        reg.enable();
        let t = reg.span_start();
        assert!(t.is_some());
        reg.span_end(Stage::Engine, t);
        let snap = reg.snapshot();
        let engine = &snap.stages[3];
        assert_eq!(engine.stage, Stage::Engine);
        assert_eq!(engine.count, 1);
        assert_eq!(engine.latency.count, 1);
    }

    #[test]
    fn report_renders_every_stage_line() {
        let reg = MetricsRegistry::new();
        reg.enable();
        for s in Stage::ALL {
            reg.record_span(s, 1_000);
        }
        reg.engine.immediate_runs.inc();
        reg.engine.skipped_transient.add(3);
        reg.engine.skipped_dependency.add(4);
        reg.engine.triggering_aborts.add(5);
        reg.recovery.salvaged_bytes.set(17);
        let report = reg.snapshot().render();
        for s in Stage::ALL {
            assert!(report.contains(s.name()), "report mentions {}", s.name());
        }
        assert!(report.contains("salvaged bytes 17"));
        assert!(report.contains("skipped_transient 3"));
        assert!(report.contains("skipped_dependency 4"));
        assert!(report.contains("triggering_aborts 5"));
    }
}
