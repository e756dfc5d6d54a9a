//! `inventory-rw`: passive read/write work with no rules installed.
//!
//! A file-backed database holds `ITEMS` objects, several times what its
//! buffer pool caches, with a persistent index on the immutable `sku`
//! attribute. One writer thread runs read-modify-write transactions on
//! uniformly chosen items' `qty`; one reader thread runs read-only
//! snapshot transactions of point reads plus one indexed query. The
//! active layer is assembled but idle, so any cost it adds to passive
//! work shows here.

use crate::harness::{self, ctx, fresh_dir, Episode, Phase, Plan, Rng, Workload};
use crate::layers::Probes;
use crate::monitor::{durable_config, open_probed};
use crate::probe::{self, IoStats};
use crate::stats::Failures;
use open_oodb::{Database, DatabaseConfig};
use reach_common::{ClassId, MetricsRegistry, ObjectId, Result};
use reach_core::ReachSystem;
use reach_object::{Value, ValueType};
use std::sync::Arc;
use std::time::Instant;

const ITEMS: usize = 5_000;
/// Writer and reader transactions per episode. On a quiet host the
/// two threads take about as long, so reads run beside writes.
const WRITER_TXNS: usize = 1_500;
const READER_TXNS: usize = 22_500;
const POOL_FRAMES: usize = 128;
/// Bytes of descriptive text per item; sizes the data to several
/// times the buffer pool.
const DESCR_BYTES: usize = 1_000;
const POPULATE_BATCH: usize = 100;
const WRITES_PER_TXN: usize = 4;
const GETS_PER_READ: usize = 8;
const CHECKPOINT_BYTES: u64 = 4 << 20;
/// Lookup mismatch messages kept per episode (all are counted).
const MAX_REPORTED: usize = 10;

fn declare(db: &Database) -> Result<ClassId> {
    db.define_class("Item")
        .attr("sku", ValueType::Int, Value::Int(0))
        .attr("qty", ValueType::Int, Value::Int(0))
        .attr("descr", ValueType::Str, Value::Str(String::new()))
        .define()
}

fn descr(i: usize) -> String {
    let mut s = format!("item {i:06}: ");
    while s.len() < DESCR_BYTES {
        s.push_str("lorem ipsum dolor sit amet ");
    }
    s.truncate(DESCR_BYTES);
    s
}

struct World {
    sys: Arc<ReachSystem>,
    db: Arc<Database>,
    /// `items[sku]`.
    items: Vec<ObjectId>,
    /// The model: every item's committed `qty`.
    qty: Vec<i64>,
    /// Lookup mismatches seen by the reader.
    bad: Vec<String>,
}

struct Inventory<'a> {
    plan: &'a Plan,
    disk: Arc<IoStats>,
    /// Index node writes over a traced episode's set-up.
    index_node_writes: u64,
}

/// Create the items in batches of `POPULATE_BATCH` per transaction.
fn populate(db: &Database, class: ClassId, qty0: &[i64]) -> Result<Vec<ObjectId>> {
    let mut items = Vec::with_capacity(ITEMS);
    for chunk in (0..ITEMS).collect::<Vec<_>>().chunks(POPULATE_BATCH) {
        let t = db.begin()?;
        for &i in chunk {
            let oid = db.create_with(
                t,
                class,
                &[
                    ("sku", Value::Int(i as i64)),
                    ("qty", Value::Int(qty0[i])),
                    ("descr", Value::Str(descr(i))),
                ],
            )?;
            db.persist(t, oid)?;
            items.push(oid);
        }
        db.commit(t)?;
    }
    Ok(items)
}

/// One writer transaction: add a seeded delta to `WRITES_PER_TXN`
/// items' `qty`. Returns the applied (sku, delta) pairs on commit.
fn write_txn(w: &World, rng: &mut Rng, f: &mut Failures) -> Option<Vec<(usize, i64)>> {
    let db = &w.db;
    let picks: Vec<(usize, i64)> = (0..WRITES_PER_TXN)
        .map(|_| (rng.below(ITEMS as u64) as usize, rng.below(21) as i64 - 10))
        .collect();
    let txn = f.check("begin", db.begin())?;
    for &(i, delta) in &picks {
        let oid = w.items[i];
        let got = {
            let _s = probe::span("oodb.get");
            db.get_attr(txn, oid, "qty").and_then(|v| v.as_int())
        };
        let Some(qty) = f.check("get", got) else {
            f.check("abort", db.abort(txn));
            return None;
        };
        let set = {
            let _s = probe::span("oodb.set");
            db.set_attr(txn, oid, "qty", Value::Int(qty + delta))
        };
        if f.check("set", set).is_none() {
            f.check("abort", db.abort(txn));
            return None;
        }
    }
    let committed = {
        let _s = probe::span("oodb.commit");
        db.commit(txn)
    };
    f.check("commit", committed).map(|()| picks)
}

/// One read-only snapshot transaction: point reads of the immutable
/// `sku` plus one indexed lookup, every answer checked.
fn read_txn(w: &World, rng: &mut Rng, f: &mut Failures, bad: &mut Vec<String>) -> bool {
    let db = &w.db;
    let Some(txn) = f.check("begin_read_only", db.begin_read_only()) else {
        return false;
    };
    for _ in 0..GETS_PER_READ {
        let i = rng.below(ITEMS as u64) as usize;
        let got = {
            let _s = probe::span("oodb.snapshot_get");
            db.get_attr(txn, w.items[i], "sku")
        };
        match f.check("snapshot_get", got) {
            Some(v) if v == Value::Int(i as i64) => {}
            Some(v) => bad.push(format!("item {i}: snapshot sku {v:?}")),
            None => {
                f.check("abort", db.abort(txn));
                return false;
            }
        }
    }
    let k = rng.below(ITEMS as u64) as usize;
    let found = {
        let _s = probe::span("oodb.query");
        db.query(txn, &format!("select i from Item i where i.sku == {k}"))
    };
    match f.check("query", found) {
        Some(oids) if oids == [w.items[k]] => {}
        Some(oids) => bad.push(format!("sku {k}: indexed lookup returned {oids:?}")),
        None => {
            f.check("abort", db.abort(txn));
            return false;
        }
    }
    f.check("commit_read_only", db.commit(txn)).is_some()
}

impl Workload for Inventory<'_> {
    type World = World;

    fn set_up(&mut self, k: usize) -> std::result::Result<World, String> {
        let dir = self.plan.db_dir(k);
        fresh_dir(&dir)?;
        let mut rng = Rng::new(self.plan.seed, k, 0);
        let qty: Vec<i64> = (0..ITEMS).map(|_| rng.below(1_000) as i64).collect();
        let db = ctx("open", open_probed(&dir, POOL_FRAMES, &self.disk))?;
        let class = ctx("declare", declare(&db))?;
        let sys = ReachSystem::new(Arc::clone(&db), durable_config(CHECKPOINT_BYTES));
        let items = ctx("populate", populate(&db, class, &qty))?;
        // A traced episode counts the index build's node writes.
        let count_index = self.plan.traced(k);
        if count_index {
            db.metrics().enable();
        }
        ctx("index", db.create_index(class, "sku"))?;
        if count_index {
            self.index_node_writes = db.metrics().index.node_writes.get();
            db.metrics().disable();
        }
        Ok(World {
            sys,
            db,
            items,
            qty,
            bad: Vec::new(),
        })
    }

    fn registries(&self, w: &World) -> Vec<Arc<MetricsRegistry>> {
        vec![Arc::clone(w.sys.metrics())]
    }

    fn probes(&self) -> Probes<'_> {
        Probes {
            disk: Some(&self.disk),
            setup_index_node_writes: self.index_node_writes,
            ..Probes::default()
        }
    }

    /// `WRITER_TXNS` writer and `READER_TXNS` reader transactions, on
    /// two threads started together.
    fn load(&mut self, w: &mut World, k: usize) -> std::result::Result<Phase, String> {
        let mut writer_rng = Rng::new(self.plan.seed, k, 1);
        let mut reader_rng = Rng::new(self.plan.seed, k, 2);
        let mut qty = std::mem::take(&mut w.qty);
        let mut bad = Vec::new();
        let start = Instant::now();
        let world = &*w;
        let (mut wp, rp) = std::thread::scope(|s| {
            let (qty, bad) = (&mut qty, &mut bad);
            let writer = s.spawn(move || {
                let mut ph = Phase::new(start);
                for _ in 0..WRITER_TXNS {
                    probe::next_txn(1);
                    let t0 = Instant::now();
                    let applied = {
                        let _t = probe::span("bench.txn");
                        write_txn(world, &mut writer_rng, &mut ph.failures)
                    };
                    if let Some(applied) = applied {
                        ph.commit(t0, Instant::now());
                        for (i, d) in applied {
                            qty[i] += d;
                        }
                    }
                }
                ph.finish();
                ph
            });
            let reader = s.spawn(move || {
                let mut ph = Phase::new(start);
                for _ in 0..READER_TXNS {
                    let t0 = Instant::now();
                    let ok = {
                        let _t = probe::span("bench.read_txn");
                        read_txn(world, &mut reader_rng, &mut ph.failures, bad)
                    };
                    if ok {
                        ph.read(t0, Instant::now());
                    }
                }
                ph.finish();
                ph
            });
            (
                writer.join().expect("writer panicked"),
                reader.join().expect("reader panicked"),
            )
        });
        w.qty = qty;
        w.bad = bad;
        wp.merge(rp);
        w.sys.wait_quiescent();
        Ok(wp)
    }

    fn close(&mut self, w: World, out: &mut Episode, k: usize) -> std::result::Result<(), String> {
        w.sys.wait_quiescent();
        out.expect_eq("indexed lookup mismatches", w.bad.len(), 0);
        let World {
            sys,
            db,
            items,
            qty,
            bad,
        } = w;
        out.mismatches.extend(bad.into_iter().take(MAX_REPORTED));
        drop(sys);
        drop(db);
        let dir = self.plan.db_dir(k);
        if k == 0 {
            let data_bytes = std::fs::metadata(dir.join("data.db")).map_or(0, |m| m.len());
            out.setting("data_bytes", data_bytes);
        }
        let db = out.reopen(|| {
            let db = Database::open(
                &dir,
                DatabaseConfig {
                    pool_frames: POOL_FRAMES,
                    ..DatabaseConfig::default()
                },
            )?;
            declare(&db)?;
            Ok(db)
        })?;
        let t = ctx("begin", db.begin())?;
        for (i, oid) in items.iter().enumerate() {
            let sku = ctx("read sku", db.get_attr(t, *oid, "sku"))?;
            let got = ctx("read qty", db.get_attr(t, *oid, "qty"))?;
            out.expect_eq(&format!("item {i} sku"), sku, Value::Int(i as i64));
            out.expect_eq(&format!("item {i} qty"), got, Value::Int(qty[i]));
        }
        ctx("commit", db.commit(t))
    }
}

/// Episode `k` of `inventory-rw`.
pub fn run(plan: &Plan, k: usize) -> std::result::Result<Episode, String> {
    let mut wl = Inventory {
        plan,
        disk: Arc::default(),
        index_node_writes: 0,
    };
    let mut ep = harness::episode(plan, k, &mut wl)?;
    ep.put_flush_policy(Some(CHECKPOINT_BYTES));
    ep.setting("items", ITEMS);
    ep.setting("pool_frames", POOL_FRAMES);
    ep.setting("pool_bytes", POOL_FRAMES * reach_storage::PAGE_SIZE);
    ep.setting("descr_bytes", DESCR_BYTES);
    ep.setting("writer_threads", 1);
    ep.setting("writer_txns_per_episode", WRITER_TXNS);
    ep.setting("reader_threads", 1);
    ep.setting("reader_txns_per_episode", READER_TXNS);
    Ok(ep)
}
