//! The monitoring application (E13's rule set) and its three workloads:
//! `monitor-wire`, `monitor-inproc` and `monitor-sharded`.
//!
//! Sixteen sensors report seeded readings, about 10% of them anomalous.
//! Four rules watch the `report` method: an immediate guard that bumps
//! the sensor's `alarms` attribute, a deferred audit, a signal bridge
//! that raises `anomaly` for the sensor, and a detached alarm on the
//! `sensor-storm` composite (three anomalies of the *same* sensor).
//!
//! The model replays the committed readings and predicts, exactly: the
//! audited count, every sensor's `value` and `alarms`, and the number
//! of storm alarms.

use crate::harness::{self, ctx, fresh_dir, Episode, Phase, Plan, Rng, Workload};
use crate::harness::{GROUP_COMMIT, GROUP_WINDOW};
use crate::layers::Probes;
use crate::probe::{self, IoStats, TimingDisk, TimingTransport};
use crate::stats::Failures;
use open_oodb::{Database, DatabaseConfig};
use reach_common::{ClassId, MetricsRegistry, ObjectId, Result};
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, Correlation, CouplingMode, EventExpr, Lifespan,
    ReachConfig, ReachSystem, RuleBuilder,
};
use reach_dist::DistSystem;
use reach_object::{Value, ValueType};
use reach_server::{serve, Client, ClientConfig, ServerConfig, ServerHandle, TcpTransport};
use reach_storage::{FileDisk, MemDisk, StableStorage, StorageManager, WriteAheadLog};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SENSORS: usize = 16;
const THRESHOLD: i64 = 1_000;
const ANOMALY_PCT: u64 = 10;
/// Readings needed on one sensor to complete a storm.
const STORM: u64 = 3;

/// Buffer-pool frames of the file-backed monitoring databases.
const POOL_FRAMES: usize = 256;
/// WAL growth that triggers an automatic checkpoint: several per
/// episode on every shard.
const CHECKPOINT_BYTES: u64 = 256 << 10;

/// Transactions per episode, from one client connection. One, not two:
/// with two, four busy threads (two clients, two server sessions) share
/// the host's two virtual CPUs, so every round trip waits on the other
/// tenants' load and a run's latency spread triples.
const WIRE_TXNS: usize = 1_600;
const WIRE_READINGS: usize = 10;
/// `monitor-wire` clients trace one transaction in this many; the
/// server-side spans of every transaction are kept.
const WIRE_TRACE_EVERY: u64 = 2;
/// Transactions per episode.
const INPROC_TXNS: usize = 1_500;
const INPROC_READINGS: usize = 100;
/// `monitor-inproc` traces one transaction in this many: each makes
/// hundreds of spans.
const INPROC_TRACE_EVERY: u64 = 20;
const SHARDS: u32 = 2;
/// Transactions per episode.
const SHARDED_TXNS: usize = 1_500;
const SHARDED_READINGS: usize = 10;
/// Share of sharded transactions that report on both shards.
const CROSS_PCT: u64 = 25;

/// One reading: sensor index and value.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub sensor: usize,
    pub value: i64,
}

impl Reading {
    fn anomalous(&self) -> bool {
        self.value >= THRESHOLD
    }
}

fn reading(rng: &mut Rng, sensor: usize) -> Reading {
    let value = if rng.below(100) < ANOMALY_PCT {
        THRESHOLD + rng.below(1_000) as i64
    } else {
        rng.below(100) as i64
    };
    Reading { sensor, value }
}

/// Readings on a fixed set of sensors.
struct Stream {
    rng: Rng,
    sensors: Vec<usize>,
}

impl Stream {
    fn next(&mut self) -> Reading {
        let s = self.sensors[self.rng.below(self.sensors.len() as u64) as usize];
        reading(&mut self.rng, s)
    }
}

// ---- the application ----

/// Declare the `Sensor` class and its `report` method body. Must run
/// again, in the same order, after reopening a database.
fn declare(db: &Database) -> Result<ClassId> {
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define()?;
    db.methods().register_fn(report, |ctx| {
        let _s = probe::span("bench.method_report");
        ctx.set("value", ctx.arg(0))?;
        Ok(Value::Null)
    });
    Ok(class)
}

/// What the rules report back to the benchmark.
#[derive(Default)]
struct Observed {
    audited: AtomicU64,
    /// Storm alarms: the sensor and when the detached action started.
    alarms: Mutex<Vec<(ObjectId, Instant)>>,
}

fn is_anomaly(ctx: &reach_core::RuleCtx<'_>) -> Result<bool> {
    Ok(ctx.arg(0).as_int()? >= THRESHOLD)
}

fn receiver(ctx: &reach_core::RuleCtx<'_>) -> ObjectId {
    ctx.receiver()
        .expect("report and anomaly events carry their sensor")
}

/// Install the four monitoring rules on `sys`.
fn install_rules(sys: &Arc<ReachSystem>, class: ClassId, obs: &Arc<Observed>) -> Result<()> {
    let ev = sys.define_method_event("report", class, "report", MethodPhase::After)?;
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| {
                let _s = probe::span("bench.rule_guard_cond");
                is_anomaly(ctx)
            })
            .then(|ctx| {
                let _s = probe::span("bench.rule_guard_action");
                let oid = receiver(ctx);
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )?;
    let o = Arc::clone(obs);
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .when(|ctx| {
                let _s = probe::span("bench.rule_audit_cond");
                is_anomaly(ctx)
            })
            .then(move |_| {
                let _s = probe::span("bench.rule_audit_action");
                o.audited.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
    )?;
    let anomaly = sys.define_signal("anomaly")?;
    let weak = Arc::downgrade(sys);
    sys.define_rule(
        RuleBuilder::new("signal-bridge")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| {
                let _s = probe::span("bench.rule_bridge_cond");
                is_anomaly(ctx)
            })
            .then(move |ctx| {
                let _s = probe::span("bench.rule_bridge_action");
                match weak.upgrade() {
                    Some(sys) => {
                        sys.raise_signal_for(Some(ctx.txn), "anomaly", ctx.receiver(), vec![])
                    }
                    None => Ok(()),
                }
            }),
    )?;
    let storm = sys.define_composite_correlated(
        "sensor-storm",
        EventExpr::History {
            expr: Arc::new(EventExpr::Primitive(anomaly)),
            count: STORM as u32,
        },
        CompositionScope::CrossTransaction,
        Lifespan::Interval(Duration::from_secs(3600)),
        ConsumptionPolicy::Cumulative,
        Correlation::SameReceiver,
    )?;
    let o = Arc::clone(obs);
    sys.define_rule(
        RuleBuilder::new("storm-alarm")
            .on(storm)
            .coupling(CouplingMode::Detached)
            .then(move |ctx| {
                let started = Instant::now();
                let _s = probe::span("bench.rule_alarm_action");
                o.alarms
                    .lock()
                    .expect("alarm list poisoned")
                    .push((receiver(ctx), started));
                Ok(())
            }),
    )?;
    Ok(())
}

fn create_sensors(db: &Database, class: ClassId) -> Result<Vec<ObjectId>> {
    let t = db.begin()?;
    let mut sensors = Vec::with_capacity(SENSORS);
    for _ in 0..SENSORS {
        let oid = db.create(t, class)?;
        db.persist(t, oid)?;
        sensors.push(oid);
    }
    db.commit(t)?;
    Ok(sensors)
}

/// The engine configuration of every file-backed workload.
pub fn durable_config(checkpoint_bytes: u64) -> ReachConfig {
    ReachConfig {
        group_commit: GROUP_COMMIT,
        group_window: Some(GROUP_WINDOW),
        checkpoint_bytes: Some(checkpoint_bytes),
        ..ReachConfig::default()
    }
}

/// Open a file-backed database in `dir` behind the device probe.
pub fn open_probed(dir: &Path, pool_frames: usize, disk: &Arc<IoStats>) -> Result<Arc<Database>> {
    let file: Arc<dyn StableStorage> = Arc::new(FileDisk::open(&dir.join("data.db"))?);
    let dev: Arc<dyn StableStorage> = Arc::new(TimingDisk::new(file, Arc::clone(disk)));
    let wal = Arc::new(WriteAheadLog::open(&dir.join("wal.log"))?);
    let (sm, _) = StorageManager::open_with(dev, wal, pool_frames)?;
    Database::open_with_storage(
        Arc::new(sm),
        DatabaseConfig {
            pool_frames,
            ..DatabaseConfig::default()
        },
    )
}

// ---- the model ----

#[derive(Default, Clone)]
struct SensorModel {
    anomalies: u64,
    /// Last committed value (`None`: never reported).
    value: Option<i64>,
    /// After each committed transaction with anomalies on this sensor:
    /// the sensor's anomaly count and the commit ack time.
    acks: Vec<(u64, Instant)>,
}

struct Model(Vec<SensorModel>);

impl Model {
    fn new() -> Model {
        Model(vec![SensorModel::default(); SENSORS])
    }

    /// Apply one committed transaction's readings, in call order.
    fn commit(&mut self, readings: &[Reading], ack: Instant) {
        let mut touched = [false; SENSORS];
        for r in readings {
            let s = &mut self.0[r.sensor];
            s.value = Some(r.value);
            if r.anomalous() {
                s.anomalies += 1;
                touched[r.sensor] = true;
            }
        }
        for (i, t) in touched.iter().enumerate() {
            if *t {
                let s = &mut self.0[i];
                s.acks.push((s.anomalies, ack));
            }
        }
    }

    fn audited(&self) -> u64 {
        self.0.iter().map(|s| s.anomalies).sum()
    }

    fn storms(&self) -> u64 {
        self.0.iter().map(|s| s.anomalies / STORM).sum()
    }

    /// Alarm lag in µs, signed: from the commit ack of the transaction
    /// that completed each storm to its detached action starting.
    /// Negative when the action started before the client saw the ack.
    fn alarm_lags_us(&self, sensors: &[ObjectId], alarms: &[(ObjectId, Instant)]) -> Vec<f64> {
        let index: HashMap<ObjectId, usize> =
            sensors.iter().enumerate().map(|(i, o)| (*o, i)).collect();
        let mut by_sensor: Vec<Vec<Instant>> = vec![Vec::new(); SENSORS];
        for (oid, at) in alarms {
            if let Some(&i) = index.get(oid) {
                by_sensor[i].push(*at);
            }
        }
        let mut lags = Vec::new();
        for (s, starts) in self.0.iter().zip(by_sensor.iter_mut()) {
            starts.sort();
            for (k, start) in starts.iter().enumerate() {
                let needed = STORM * (k as u64 + 1);
                let Some(&(_, ack)) = s.acks.iter().find(|(n, _)| *n >= needed) else {
                    continue;
                };
                lags.push(if *start >= ack {
                    (*start - ack).as_secs_f64() * 1e6
                } else {
                    -((ack - *start).as_secs_f64() * 1e6)
                });
            }
        }
        lags
    }

    /// Compare the rules' counters with the model.
    fn check_counts(&self, out: &mut Episode, obs: &Observed) {
        out.expect_eq(
            "audited",
            obs.audited.load(Ordering::Relaxed),
            self.audited(),
        );
        let alarms = obs.alarms.lock().expect("alarm list poisoned").len() as u64;
        out.expect_eq("storm alarms", alarms, self.storms());
    }

    /// Compare every sensor's stored state with the model.
    fn check_sensors(
        &self,
        out: &mut Episode,
        mut read: impl FnMut(usize, &str) -> Result<Value>,
    ) -> std::result::Result<(), String> {
        for (i, s) in self.0.iter().enumerate() {
            let value = ctx("read value", read(i, "value"))?;
            let alarms = ctx("read alarms", read(i, "alarms"))?;
            out.expect_eq(
                &format!("sensor {i} value"),
                value,
                Value::Int(s.value.unwrap_or(0)),
            );
            out.expect_eq(
                &format!("sensor {i} alarms"),
                alarms,
                Value::Int(s.anomalies as i64),
            );
        }
        Ok(())
    }
}

/// Check an episode's rule counters and collect its alarm lags.
fn check_rules(ep: &mut Episode, model: &Model, sensors: &[ObjectId], obs: &Observed) {
    model.check_counts(ep, obs);
    let alarms = obs.alarms.lock().expect("alarm list poisoned").clone();
    ep.lags = Some(model.alarm_lags_us(sensors, &alarms));
}

/// Read a sensor attribute in its own transaction.
fn read_attr(db: &Database, oid: ObjectId, attr: &str) -> Result<Value> {
    let t = db.begin()?;
    let v = db.get_attr(t, oid, attr);
    db.commit(t)?;
    v
}

/// Reopen a shut-down monitoring database directory.
fn reopen_monitor(dir: &Path) -> Result<Arc<Database>> {
    let db = Database::open(
        dir,
        DatabaseConfig {
            pool_frames: POOL_FRAMES,
            ..DatabaseConfig::default()
        },
    )?;
    declare(&db)?;
    Ok(db)
}

// ---- monitor-wire ----

struct Wire<'a> {
    plan: &'a Plan,
    /// The device and transport probes; they count only while tracing
    /// is on.
    disk: Arc<IoStats>,
    wire: Arc<IoStats>,
}

struct WireWorld {
    sys: Arc<ReachSystem>,
    server: ServerHandle,
    sensors: Vec<ObjectId>,
    obs: Arc<Observed>,
    model: Model,
}

fn wire_connect(addr: String, wire: &Arc<IoStats>) -> Result<Client> {
    let cfg = ClientConfig::default();
    let tick = cfg.read_tick;
    let wire = Arc::clone(wire);
    Client::with_factory(
        Box::new(move || {
            let tcp = TcpTransport::connect(&addr, Some(tick))?;
            Ok(Box::new(TimingTransport::new(tcp, Arc::clone(&wire)))
                as Box<dyn reach_server::Transport>)
        }),
        cfg,
    )
}

/// One wire transaction; the commit ack time when it committed.
fn wire_txn(
    c: &mut Client,
    sensors: &[ObjectId],
    readings: &[Reading],
    f: &mut Failures,
) -> Option<Instant> {
    let begun = {
        let _s = probe::span("client.begin");
        c.begin()
    };
    let txn = f.check("begin", begun)?;
    for r in readings {
        let done = {
            let _s = probe::span("client.invoke");
            c.invoke(txn, sensors[r.sensor], "report", &[Value::Int(r.value)])
        };
        if f.check("invoke", done).is_none() {
            let aborted = {
                let _s = probe::span("client.abort");
                c.abort(txn)
            };
            f.check("abort", aborted);
            return None;
        }
    }
    let committed = {
        let _s = probe::span("client.commit");
        c.commit(txn)
    };
    f.check("commit", committed).map(|()| Instant::now())
}

/// The client's closed loop of `WIRE_TXNS` transactions.
fn wire_client(
    mut c: Client,
    sensors: &[ObjectId],
    mut stream: Stream,
    start: Instant,
) -> (Phase, Model) {
    let mut ph = Phase::new(start);
    let mut model = Model::new();
    for _ in 0..WIRE_TXNS {
        let readings: Vec<Reading> = (0..WIRE_READINGS).map(|_| stream.next()).collect();
        probe::next_txn(WIRE_TRACE_EVERY);
        let t0 = Instant::now();
        let ack = {
            let _t = probe::span("bench.txn");
            wire_txn(&mut c, sensors, &readings, &mut ph.failures)
        };
        if let Some(ack) = ack {
            ph.commit(t0, ack);
            model.commit(&readings, ack);
        }
    }
    ph.finish();
    (ph, model)
}

impl Workload for Wire<'_> {
    type World = WireWorld;

    fn set_up(&mut self, k: usize) -> std::result::Result<WireWorld, String> {
        let dir = self.plan.db_dir(k);
        fresh_dir(&dir)?;
        let db = ctx("open", open_probed(&dir, POOL_FRAMES, &self.disk))?;
        let class = ctx("declare", declare(&db))?;
        let sys = ReachSystem::new(Arc::clone(&db), durable_config(CHECKPOINT_BYTES));
        let obs = Arc::new(Observed::default());
        ctx("rules", install_rules(&sys, class, &obs))?;
        let sensors = ctx("sensors", create_sensors(&db, class))?;
        let server = ctx("serve", serve(Arc::clone(&sys), ServerConfig::default()))?;
        Ok(WireWorld {
            sys,
            server,
            sensors,
            obs,
            model: Model::new(),
        })
    }

    fn registries(&self, w: &WireWorld) -> Vec<Arc<MetricsRegistry>> {
        vec![Arc::clone(w.sys.metrics())]
    }

    fn probes(&self) -> Probes<'_> {
        Probes {
            disk: Some(&self.disk),
            wire: Some(&self.wire),
            ..Probes::default()
        }
    }

    fn load(&mut self, w: &mut WireWorld, k: usize) -> std::result::Result<Phase, String> {
        let client = ctx("connect", wire_connect(w.server.addr(), &self.wire))?;
        let stream = Stream {
            rng: Rng::new(self.plan.seed, k, 0),
            sensors: (0..SENSORS).collect(),
        };
        let (phase, model) = wire_client(client, &w.sensors, stream, Instant::now());
        w.model = model;
        w.sys.wait_quiescent();
        Ok(phase)
    }

    fn close(
        &mut self,
        w: WireWorld,
        out: &mut Episode,
        k: usize,
    ) -> std::result::Result<(), String> {
        w.server.shutdown();
        w.sys.wait_quiescent();
        check_rules(out, &w.model, &w.sensors, &w.obs);
        let WireWorld {
            sys,
            server,
            sensors,
            model,
            ..
        } = w;
        drop(server);
        drop(sys);
        let dir = self.plan.db_dir(k);
        let db = out.reopen(|| reopen_monitor(&dir))?;
        model.check_sensors(out, |i, attr| read_attr(&db, sensors[i], attr))
    }
}

/// Episode `k` of `monitor-wire`.
pub fn wire(plan: &Plan, k: usize) -> std::result::Result<Episode, String> {
    let mut wl = Wire {
        plan,
        disk: Arc::default(),
        wire: Arc::default(),
    };
    let mut ep = harness::episode(plan, k, &mut wl)?;
    ep.put_flush_policy(Some(CHECKPOINT_BYTES));
    ep.setting("clients", 1);
    ep.setting("txns_per_episode", WIRE_TXNS);
    ep.setting("readings_per_txn", WIRE_READINGS);
    ep.setting("pool_frames", POOL_FRAMES);
    Ok(ep)
}

// ---- monitor-inproc ----

struct Inproc<'a> {
    plan: &'a Plan,
    disk: Arc<IoStats>,
}

struct InprocWorld {
    sys: Arc<ReachSystem>,
    db: Arc<Database>,
    sensors: Vec<ObjectId>,
    obs: Arc<Observed>,
    model: Model,
}

fn inproc_txn(w: &InprocWorld, readings: &[Reading], f: &mut Failures) -> Option<Instant> {
    let db = &w.db;
    let txn = f.check("begin", db.begin())?;
    let args: Vec<[Value; 1]> = readings.iter().map(|r| [Value::Int(r.value)]).collect();
    let calls: Vec<(ObjectId, &str, &[Value])> = readings
        .iter()
        .zip(&args)
        .map(|(r, a)| (w.sensors[r.sensor], "report", &a[..]))
        .collect();
    let done = {
        let _s = probe::span("core.invoke_batch");
        db.invoke_batch(txn, &calls)
    };
    if f.check("invoke_batch", done).is_none() {
        f.check("abort", db.abort(txn));
        return None;
    }
    let committed = {
        let _s = probe::span("oodb.commit");
        db.commit(txn)
    };
    f.check("commit", committed).map(|()| Instant::now())
}

impl Workload for Inproc<'_> {
    type World = InprocWorld;

    /// The same assembly as `Database::in_memory` (an in-memory device
    /// and log, default configuration), with the device probe in
    /// between.
    fn set_up(&mut self, _k: usize) -> std::result::Result<InprocWorld, String> {
        let dev: Arc<dyn StableStorage> = Arc::new(TimingDisk::new(
            Arc::new(MemDisk::new()),
            Arc::clone(&self.disk),
        ));
        let config = DatabaseConfig::default();
        let (sm, _) = ctx(
            "open",
            StorageManager::open_with(
                dev,
                Arc::new(WriteAheadLog::in_memory()),
                config.pool_frames,
            ),
        )?;
        let db = ctx("open", Database::open_with_storage(Arc::new(sm), config))?;
        let class = ctx("declare", declare(&db))?;
        let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
        let obs = Arc::new(Observed::default());
        ctx("rules", install_rules(&sys, class, &obs))?;
        let sensors = ctx("sensors", create_sensors(&db, class))?;
        Ok(InprocWorld {
            sys,
            db,
            sensors,
            obs,
            model: Model::new(),
        })
    }

    fn registries(&self, w: &InprocWorld) -> Vec<Arc<MetricsRegistry>> {
        vec![Arc::clone(w.sys.metrics())]
    }

    fn probes(&self) -> Probes<'_> {
        Probes {
            disk: Some(&self.disk),
            ..Probes::default()
        }
    }

    fn load(&mut self, w: &mut InprocWorld, k: usize) -> std::result::Result<Phase, String> {
        let mut stream = Stream {
            rng: Rng::new(self.plan.seed, k, 0),
            sensors: (0..SENSORS).collect(),
        };
        let mut ph = Phase::new(Instant::now());
        for _ in 0..INPROC_TXNS {
            let readings: Vec<Reading> = (0..INPROC_READINGS).map(|_| stream.next()).collect();
            probe::next_txn(INPROC_TRACE_EVERY);
            let t0 = Instant::now();
            let ack = {
                let _t = probe::span("bench.txn");
                inproc_txn(w, &readings, &mut ph.failures)
            };
            if let Some(ack) = ack {
                ph.commit(t0, ack);
                w.model.commit(&readings, ack);
            }
        }
        ph.finish();
        w.sys.wait_quiescent();
        Ok(ph)
    }

    fn close(
        &mut self,
        w: InprocWorld,
        out: &mut Episode,
        _k: usize,
    ) -> std::result::Result<(), String> {
        w.sys.wait_quiescent();
        check_rules(out, &w.model, &w.sensors, &w.obs);
        w.model
            .check_sensors(out, |i, attr| read_attr(&w.db, w.sensors[i], attr))
    }
}

/// Episode `k` of `monitor-inproc`.
pub fn inproc(plan: &Plan, k: usize) -> std::result::Result<Episode, String> {
    let mut wl = Inproc {
        plan,
        disk: Arc::default(),
    };
    let mut ep = harness::episode(plan, k, &mut wl)?;
    ep.put_flush_policy(None);
    ep.setting("threads", 1);
    ep.setting("txns_per_episode", INPROC_TXNS);
    ep.setting("readings_per_txn", INPROC_READINGS);
    Ok(ep)
}

// ---- monitor-sharded ----

struct Sharded<'a> {
    plan: &'a Plan,
    /// WAL forces of all shards inside traced cross-shard commits.
    cross_forces: AtomicU64,
}

struct ShardWorld {
    dist: Arc<DistSystem>,
    /// Sensor `i` lives on shard `i % SHARDS`.
    sensors: Vec<ObjectId>,
    obs: Arc<Observed>,
    model: Model,
}

/// Declare the class on every shard (same order, so type ids agree).
fn declare_shards(dist: &DistSystem) -> Result<ClassId> {
    let mut class = None;
    for sys in dist.systems() {
        class = Some(declare(sys.db())?);
    }
    Ok(class.expect("a deployment has shards"))
}

/// A sharded transaction's readings: all on one shard, or (a seeded
/// `CROSS_PCT` share) alternating between both.
fn sharded_readings(rng: &mut Rng) -> Vec<Reading> {
    let per_shard = SENSORS as u64 / SHARDS as u64;
    let cross = rng.below(100) < CROSS_PCT;
    let home = rng.below(SHARDS as u64);
    (0..SHARDED_READINGS as u64)
        .map(|j| {
            let shard = if cross { j % SHARDS as u64 } else { home };
            let sensor = (rng.below(per_shard) * SHARDS as u64 + shard) as usize;
            reading(rng, sensor)
        })
        .collect()
}

fn wal_forces(dist: &DistSystem) -> u64 {
    dist.systems()
        .iter()
        .map(|s| s.metrics().wal.forces.get())
        .sum()
}

impl Sharded<'_> {
    /// One sharded transaction; the commit ack time when it committed.
    fn txn(&self, w: &ShardWorld, readings: &[Reading], f: &mut Failures) -> Option<Instant> {
        let dist = &w.dist;
        let mut t = dist.begin();
        for r in readings {
            let done = {
                let _s = probe::span("dist.invoke");
                dist.invoke(
                    &mut t,
                    w.sensors[r.sensor],
                    "report",
                    &[Value::Int(r.value)],
                )
            };
            if f.check("invoke", done).is_none() {
                f.check("abort", dist.abort(t));
                return None;
            }
        }
        let cross = t.is_cross_shard();
        let forces0 = if cross && probe::tracing() {
            wal_forces(dist)
        } else {
            0
        };
        let committed = {
            let _s = probe::span(if cross {
                "dist.commit_cross"
            } else {
                "dist.commit_single"
            });
            dist.commit(t)
        };
        if cross && probe::tracing() {
            self.cross_forces
                .fetch_add(wal_forces(dist) - forces0, Ordering::Relaxed);
        }
        f.check("commit", committed).map(|_| Instant::now())
    }
}

impl Workload for Sharded<'_> {
    type World = ShardWorld;

    fn set_up(&mut self, k: usize) -> std::result::Result<ShardWorld, String> {
        let dir = self.plan.db_dir(k);
        fresh_dir(&dir)?;
        let dist = ctx("open", DistSystem::open(&dir, SHARDS))?;
        let obs = Arc::new(Observed::default());
        let class = ctx("declare", declare_shards(&dist))?;
        for sys in dist.systems() {
            let storage = sys.db().storage();
            storage.wal().set_group_commit(GROUP_COMMIT);
            storage.wal().set_group_window(GROUP_WINDOW);
            storage.set_checkpoint_threshold(Some(CHECKPOINT_BYTES));
            ctx("rules", install_rules(sys, class, &obs))?;
        }
        let mut t = dist.begin();
        let mut sensors = Vec::with_capacity(SENSORS);
        for i in 0..SENSORS {
            let oid = ctx("create", dist.create_on(&mut t, i as u32 % SHARDS, class))?;
            ctx("persist", dist.persist(&mut t, oid))?;
            sensors.push(oid);
        }
        ctx("commit", dist.commit(t))?;
        Ok(ShardWorld {
            dist,
            sensors,
            obs,
            model: Model::new(),
        })
    }

    fn registries(&self, w: &ShardWorld) -> Vec<Arc<MetricsRegistry>> {
        w.dist
            .systems()
            .iter()
            .map(|s| Arc::clone(s.metrics()))
            .collect()
    }

    fn probes(&self) -> Probes<'_> {
        Probes {
            cross_commit_forces: Some(&self.cross_forces),
            ..Probes::default()
        }
    }

    fn load(&mut self, w: &mut ShardWorld, k: usize) -> std::result::Result<Phase, String> {
        let mut rng = Rng::new(self.plan.seed, k, 0);
        let mut ph = Phase::new(Instant::now());
        for _ in 0..SHARDED_TXNS {
            let readings = sharded_readings(&mut rng);
            probe::next_txn(1);
            let t0 = Instant::now();
            let ack = {
                let _t = probe::span("bench.txn");
                self.txn(w, &readings, &mut ph.failures)
            };
            if let Some(ack) = ack {
                ph.commit(t0, ack);
                w.model.commit(&readings, ack);
            }
        }
        ph.finish();
        w.dist.wait_quiescent();
        Ok(ph)
    }

    fn close(
        &mut self,
        w: ShardWorld,
        out: &mut Episode,
        k: usize,
    ) -> std::result::Result<(), String> {
        w.dist.wait_quiescent();
        check_rules(out, &w.model, &w.sensors, &w.obs);
        let ShardWorld {
            dist,
            sensors,
            model,
            ..
        } = w;
        drop(dist);
        let dir = self.plan.db_dir(k);
        let dist = out.reopen(|| {
            let dist = DistSystem::open(&dir, SHARDS)?;
            declare_shards(&dist)?;
            Ok(dist)
        })?;
        model.check_sensors(out, |i, attr| {
            let mut t = dist.begin();
            let v = dist.get_attr(&mut t, sensors[i], attr);
            dist.commit(t)?;
            v
        })
    }
}

/// Episode `k` of `monitor-sharded`.
pub fn sharded(plan: &Plan, k: usize) -> std::result::Result<Episode, String> {
    let mut wl = Sharded {
        plan,
        cross_forces: AtomicU64::new(0),
    };
    let mut ep = harness::episode(plan, k, &mut wl)?;
    ep.put_flush_policy(Some(CHECKPOINT_BYTES));
    ep.setting("shards", SHARDS);
    ep.setting("threads", 1);
    ep.setting("txns_per_episode", SHARDED_TXNS);
    ep.setting("readings_per_txn", SHARDED_READINGS);
    ep.setting("cross_shard_pct", CROSS_PCT);
    Ok(ep)
}
