//! Layer probes, attached from outside the system.
//!
//! Nothing here reaches into a crate's internals. Each probe times a
//! call *into* a layer through a hook the layer already exposes:
//!
//! * [`span`] — a named interval recorded around the benchmark's own
//!   calls into a layer (client calls, `Database::commit`,
//!   `DistSystem::commit`, ...) and inside the benchmark's own method
//!   bodies and rule closures, which the system calls back;
//! * [`TimingDisk`] — a [`StableStorage`] wrapper, installed with
//!   `StorageManager::open_with` + `Database::open_with_storage`;
//! * [`TimingTransport`] — a [`Transport`] wrapper, installed with
//!   `Client::with_factory`.
//!
//! Every probe is gated on one switch ([`set_tracing`]). With tracing
//! off, a probe costs one relaxed atomic load and records nothing, so
//! the end-to-end metrics are measured without it. With tracing on,
//! spans are kept in memory and written out when the traced episode
//! ends.

use reach_common::{PageId, Result};
use reach_server::Transport;
use reach_storage::{Page, StableStorage};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TXN: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Spans kept in memory at most; later ones are counted as dropped.
const MAX_SPANS: usize = 1_000_000;

thread_local! {
    /// Ids of the open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The benchmark transaction this thread is working for (0 = none).
    static TXN: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's current transaction is traced.
    static SAMPLED: Cell<bool> = const { Cell::new(true) };
}

/// One finished span. Times are nanoseconds since the probe epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span on the same thread (0 = a root span).
    pub parent: u64,
    /// The benchmark transaction that caused the span (0 = unknown).
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn every probe on or off.
pub fn set_tracing(on: bool) {
    EPOCH.get_or_init(Instant::now);
    TRACING.store(on, Ordering::SeqCst);
}

#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Start the next benchmark transaction on this thread: tag the spans
/// it records with a fresh transaction number `n`, and record them only
/// if `n` is a multiple of `every`. A load loop whose transactions make
/// many spans traces one in `every`, so that the span buffer holds
/// whole transactions; spans on threads that never call this (server
/// and detached-rule threads) are always recorded.
pub fn next_txn(every: u64) {
    let n = NEXT_TXN.fetch_add(1, Ordering::Relaxed);
    TXN.with(|t| t.set(n));
    SAMPLED.with(|s| s.set(n.is_multiple_of(every)));
}

/// An open span; it is recorded when dropped.
pub struct Span(Option<Open>);

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Open a span named `name` as a child of this thread's innermost
/// open span.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !tracing() || !SAMPLED.with(Cell::get) {
        return Span(None);
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span(Some(Open {
        name,
        id,
        parent,
        start_ns: now_ns(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        let rec = SpanRec {
            name: open.name,
            id: open.id,
            parent: open.parent,
            txn: TXN.with(Cell::get),
            start_ns: open.start_ns,
            end_ns,
        };
        let mut spans = SPANS.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Take every recorded span, and the number dropped past the cap.
pub fn take_spans() -> (Vec<SpanRec>, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    (spans, DROPPED.swap(0, Ordering::Relaxed))
}

/// Per-name span statistics over one traced load.
pub struct SpanSummary {
    /// Durations by name, sorted ascending (ns).
    durations: HashMap<&'static str, Vec<u64>>,
    /// Self times by name, sorted ascending (ns): each span's duration
    /// minus the part its child spans cover.
    self_times: HashMap<&'static str, Vec<u64>>,
}

impl SpanSummary {
    pub fn new(spans: &[SpanRec]) -> Self {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
        let mut self_times: HashMap<&'static str, Vec<u64>> = HashMap::new();
        for s in spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            durations.entry(s.name).or_default().push(s.dur_ns());
            self_times
                .entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(covered));
        }
        for v in durations.values_mut().chain(self_times.values_mut()) {
            v.sort_unstable();
        }
        SpanSummary {
            durations,
            self_times,
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.durations.get(name).map_or(0, |v| v.len() as u64)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Median duration in µs (0 when no such span was recorded).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |v| crate::stats::percentile_us(v, 0.50))
    }

    /// Median self time in µs (0 when no such span was recorded).
    pub fn self_p50_us(&self, name: &str) -> f64 {
        self.self_times
            .get(name)
            .map_or(0.0, |v| crate::stats::percentile_us(v, 0.50))
    }
}

/// Write spans as CSV (`id,parent,txn,name,start_ns,end_ns`),
/// creating the file's directory if need be.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,txn,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Counters of one probed device or transport.
#[derive(Default)]
pub struct IoStats {
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub bytes: AtomicU64,
}

/// A [`StableStorage`] wrapper that times page I/O and counts page
/// writes and device syncs while tracing is on.
pub struct TimingDisk {
    inner: Arc<dyn StableStorage>,
    stats: Arc<IoStats>,
}

impl TimingDisk {
    pub fn new(inner: Arc<dyn StableStorage>, stats: Arc<IoStats>) -> Self {
        TimingDisk { inner, stats }
    }
}

impl StableStorage for TimingDisk {
    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId) -> Result<Page> {
        let _s = span("storage.device_read");
        self.inner.read(id)
    }

    fn write(&self, page: &Page) -> Result<()> {
        let _s = span("storage.device_write");
        if tracing() {
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.write(page)
    }

    fn sync(&self) -> Result<()> {
        if !tracing() {
            return self.inner.sync();
        }
        let _s = span("storage.device_sync");
        let t0 = Instant::now();
        let r = self.inner.sync();
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .sync_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

/// A [`Transport`] wrapper that times frame sends and receives and
/// counts wire bytes (frame payload plus its 4-byte length prefix)
/// while tracing is on.
pub struct TimingTransport<T: Transport> {
    inner: T,
    stats: Arc<IoStats>,
}

impl<T: Transport> TimingTransport<T> {
    pub fn new(inner: T, stats: Arc<IoStats>) -> Self {
        TimingTransport { inner, stats }
    }

    fn count(&self, payload_len: usize) {
        if tracing() {
            self.stats
                .bytes
                .fetch_add(payload_len as u64 + 4, Ordering::Relaxed);
        }
    }
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn read_frame(&mut self) -> Result<Vec<u8>> {
        let _s = span("server.recv_wait");
        let frame = self.inner.read_frame()?;
        self.count(frame.len());
        Ok(frame)
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        let _s = span("server.send");
        self.inner.write_frame(payload)?;
        self.count(payload.len());
        Ok(())
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_raw(bytes)
    }
}
