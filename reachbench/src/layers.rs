//! Per-layer metrics of a traced episode, named for the crate they
//! measure. Every workload reports the full list; a layer a workload
//! does not exercise reads 0 there, which is itself the check that the
//! workload isolates its layers.

use crate::probe::{IoStats, SpanSummary};
use crate::stats::{ratio, Metrics};
use reach_common::MetricsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// The registry counters the per-layer metrics use, as plain numbers so
/// that two snapshots subtract and shards add up.
#[derive(Default, Clone, Copy, Debug)]
pub struct Reg {
    pub wal_forces: u64,
    pub wal_force_ns: u64,
    pub wal_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub lock_acquisitions: u64,
    pub lock_waits: u64,
    pub deadlocks: u64,
    pub versions_published: u64,
    pub checkpoints: u64,
    pub condition_evals: u64,
    pub actions_run: u64,
    pub detached_runs: u64,
    pub composites_completed: u64,
    pub subtxns: u64,
}

impl Reg {
    pub fn of(s: &MetricsSnapshot) -> Reg {
        let subtxn = s
            .stages
            .iter()
            .find(|st| st.stage == reach_common::Stage::Subtransaction)
            .map_or(0, |st| st.count);
        Reg {
            wal_forces: s.wal_forces,
            wal_force_ns: s.wal_force_latency.sum_ns,
            wal_bytes: s.wal_append_bytes,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            pool_evictions: s.pool_evictions,
            lock_acquisitions: s.lock_acquisitions,
            lock_waits: s.lock_waits,
            deadlocks: s.deadlocks,
            versions_published: s.versions_published,
            checkpoints: s.ckpt_taken,
            condition_evals: s.immediate_runs + s.deferred_runs + s.detached_runs,
            actions_run: s.actions_executed,
            detached_runs: s.detached_runs,
            composites_completed: s.composites_completed,
            subtxns: subtxn,
        }
    }

    /// Field-wise `self + o` (summing shards).
    pub fn plus(self, o: Reg) -> Reg {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise `self - earlier` (a phase's delta).
    pub fn since(self, earlier: Reg) -> Reg {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(self, o: Reg, f: impl Fn(u64, u64) -> u64) -> Reg {
        Reg {
            wal_forces: f(self.wal_forces, o.wal_forces),
            wal_force_ns: f(self.wal_force_ns, o.wal_force_ns),
            wal_bytes: f(self.wal_bytes, o.wal_bytes),
            pool_hits: f(self.pool_hits, o.pool_hits),
            pool_misses: f(self.pool_misses, o.pool_misses),
            pool_evictions: f(self.pool_evictions, o.pool_evictions),
            lock_acquisitions: f(self.lock_acquisitions, o.lock_acquisitions),
            lock_waits: f(self.lock_waits, o.lock_waits),
            deadlocks: f(self.deadlocks, o.deadlocks),
            versions_published: f(self.versions_published, o.versions_published),
            checkpoints: f(self.checkpoints, o.checkpoints),
            condition_evals: f(self.condition_evals, o.condition_evals),
            actions_run: f(self.actions_run, o.actions_run),
            detached_runs: f(self.detached_runs, o.detached_runs),
            composites_completed: f(self.composites_completed, o.composites_completed),
            subtxns: f(self.subtxns, o.subtxns),
        }
    }
}

/// The probes a workload installed; each counts only while tracing is
/// on, so after the traced load it holds that load's figures.
#[derive(Default)]
pub struct Probes<'a> {
    /// The device probe (`storage.*` page writes and syncs).
    pub disk: Option<&'a IoStats>,
    /// The transport probe (`server.wire_bytes_per_txn`).
    pub wire: Option<&'a IoStats>,
    /// WAL forces of all shards inside cross-shard commit calls.
    pub cross_commit_forces: Option<&'a AtomicU64>,
    /// Index node writes over the episode's set-up.
    pub setup_index_node_writes: u64,
}

/// What one traced episode's load measured.
pub struct Traced<'a> {
    pub spans: &'a SpanSummary,
    /// Registry delta over the traced load.
    pub reg: Reg,
    /// Committed user transactions in the traced load.
    pub committed: u64,
    pub probes: Probes<'a>,
}

fn load(c: Option<&AtomicU64>) -> u64 {
    c.map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Client call spans: each is one request/response round trip.
const CALLS: [&str; 4] = [
    "client.begin",
    "client.invoke",
    "client.commit",
    "client.abort",
];

pub fn metrics(t: &Traced<'_>) -> Metrics {
    let s = t.spans;
    let txns = t.committed as f64;
    let r = &t.reg;
    let p = &t.probes;
    let wire_bytes = load(p.wire.map(|w| &w.bytes));
    let page_writes = load(p.disk.map(|d| &d.writes));
    let device_syncs = load(p.disk.map(|d| &d.syncs));
    let device_sync_ns = load(p.disk.map(|d| &d.sync_ns));
    let mut m = Metrics::default();

    let call_ns: u64 = CALLS.iter().map(|c| s.total_ns(c)).sum();
    let calls: u64 = CALLS.iter().map(|c| s.count(c)).sum();
    let recv_ns = s.total_ns("server.recv_wait");
    let txn_ns = s.total_ns("bench.txn");
    m.put("server.invoke_call_p50_us", s.p50_us("client.invoke"), "us");
    m.put("server.commit_call_p50_us", s.p50_us("client.commit"), "us");
    // Client spans come from traced transactions only (a load loop may
    // trace one in n), so they are counted per traced transaction.
    let traced_txns = s.count("bench.txn") as f64;
    m.put(
        "server.round_trips_per_txn",
        ratio(calls as f64, traced_txns),
        "1/txn",
    );
    m.put(
        "server.wire_bytes_per_txn",
        ratio(wire_bytes as f64, txns),
        "B/txn",
    );
    m.put(
        "server.recv_wait_share",
        ratio(recv_ns as f64, call_ns as f64),
        "ratio",
    );
    m.put(
        "server.client_side_share",
        ratio(call_ns.saturating_sub(recv_ns) as f64, call_ns as f64),
        "ratio",
    );
    m.put(
        "bench.txn_uncovered_share",
        if calls == 0 {
            0.0
        } else {
            ratio(txn_ns.saturating_sub(call_ns) as f64, txn_ns as f64)
        },
        "ratio",
    );

    m.put(
        "core.condition_evals",
        ratio(r.condition_evals as f64, txns),
        "1/txn",
    );
    m.put(
        "core.actions_run",
        ratio(r.actions_run as f64, txns),
        "1/txn",
    );
    m.put(
        "core.action_ratio",
        ratio(r.actions_run as f64, r.condition_evals as f64),
        "ratio",
    );
    m.put(
        "core.invoke_batch_self_us",
        s.self_p50_us("core.invoke_batch"),
        "us",
    );
    m.put(
        "core.subtxn_per_txn",
        ratio(r.subtxns as f64, txns),
        "1/txn",
    );
    m.put(
        "core.detached_runs",
        ratio(r.detached_runs as f64, txns),
        "1/txn",
    );
    m.put(
        "core.composites_completed",
        ratio(r.composites_completed as f64, txns),
        "1/txn",
    );

    m.put("oodb.commit_p50_us", s.p50_us("oodb.commit"), "us");
    m.put(
        "oodb.snapshot_get_p50_us",
        s.p50_us("oodb.snapshot_get"),
        "us",
    );
    m.put("oodb.query_p50_us", s.p50_us("oodb.query"), "us");

    m.put(
        "txn.lock_acquisitions_per_txn",
        ratio(r.lock_acquisitions as f64, txns),
        "1/txn",
    );
    m.put("txn.lock_waits", r.lock_waits as f64, "count");
    m.put("txn.deadlocks", r.deadlocks as f64, "count");
    m.put(
        "txn.versions_published_per_commit",
        ratio(r.versions_published as f64, txns),
        "1/txn",
    );

    m.put(
        "storage.wal_forces_per_commit",
        ratio(r.wal_forces as f64, txns),
        "1/txn",
    );
    m.put(
        "storage.wal_force_mean_us",
        ratio(r.wal_force_ns as f64, r.wal_forces as f64) / 1_000.0,
        "us",
    );
    m.put(
        "storage.wal_bytes_per_commit",
        ratio(r.wal_bytes as f64, txns),
        "B/txn",
    );
    m.put(
        "storage.pool_hit_ratio",
        ratio(r.pool_hits as f64, (r.pool_hits + r.pool_misses) as f64),
        "ratio",
    );
    m.put(
        "storage.pool_evictions_per_txn",
        ratio(r.pool_evictions as f64, txns),
        "1/txn",
    );
    m.put(
        "storage.page_writes_per_txn",
        ratio(page_writes as f64, txns),
        "1/txn",
    );
    m.put("storage.device_syncs", device_syncs as f64, "count");
    m.put(
        "storage.device_sync_mean_us",
        ratio(device_sync_ns as f64, device_syncs as f64) / 1_000.0,
        "us",
    );
    m.put("storage.checkpoints", r.checkpoints as f64, "count");
    m.put(
        "storage.index_node_writes",
        p.setup_index_node_writes as f64,
        "count",
    );

    let cross = s.count("dist.commit_cross");
    m.put(
        "dist.single_commit_p50_us",
        s.p50_us("dist.commit_single"),
        "us",
    );
    m.put(
        "dist.cross_commit_p50_us",
        s.p50_us("dist.commit_cross"),
        "us",
    );
    m.put(
        "dist.forces_per_cross_commit",
        ratio(load(p.cross_commit_forces) as f64, cross as f64),
        "1/txn",
    );
    m
}
