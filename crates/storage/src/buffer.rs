//! The buffer pool.
//!
//! A fixed set of frames caches page images between the heap-file layer
//! and [`crate::disk::StableStorage`]. Pages are pinned for
//! the duration of a closure (`with_page` / `with_page_mut`), which keeps
//! pin/unpin pairing impossible to get wrong at the call sites. Eviction
//! is the classic clock (second-chance) algorithm over unpinned frames;
//! dirty victims are written back before reuse.

use crate::disk::StableStorage;
use crate::page::Page;
use reach_common::sync::{Mutex, RwLock};
use reach_common::{MetricsRegistry, PageId, ReachError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// `rec_lsn` value of a clean frame ("no unflushed change").
const NO_REC_LSN: u64 = u64::MAX;

struct Frame {
    page: RwLock<Page>,
    pins: AtomicU32,
    dirty: AtomicBool,
    referenced: AtomicBool,
    /// Recovery LSN: a conservative lower bound on the LSN of the first
    /// log record whose effect on this page is not yet on disk.
    /// [`NO_REC_LSN`] while clean. Maintained with `fetch_min` inside
    /// the page write critical section (see `with_page_mut`), written
    /// *before* the dirty bit so a dirty-page-table capture that sees
    /// `dirty` also sees a valid bound.
    rec_lsn: AtomicU64,
}

/// Called before any dirty page is written back to the device — the
/// WAL rule's enforcement point. The storage manager installs a
/// closure that forces the log, so a page image never reaches disk
/// ahead of the log records describing its changes. Must not call
/// back into the pool (it runs under the directory lock).
pub type FlushBarrier = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// Supplies the current WAL tail LSN when a clean frame turns dirty.
/// The tail is captured *before* the mutation's log record is appended,
/// so it is a conservative (≤ actual first-record) recovery LSN. Must
/// not call back into the pool.
pub type LsnSource = Arc<dyn Fn() -> u64 + Send + Sync>;

struct Directory {
    /// page id -> frame index
    table: HashMap<PageId, usize>,
    /// frame index -> page id currently held (None = free)
    resident: Vec<Option<PageId>>,
    hand: usize,
}

/// A fixed-capacity page cache over a stable-storage device.
pub struct BufferPool {
    disk: Arc<dyn StableStorage>,
    frames: Vec<Arc<Frame>>,
    dir: Mutex<Directory>,
    metrics: Arc<MetricsRegistry>,
    barrier: Mutex<Option<FlushBarrier>>,
    lsn_source: Mutex<Option<LsnSource>>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk` with a private registry.
    pub fn new(disk: Arc<dyn StableStorage>, capacity: usize) -> Self {
        Self::with_metrics(disk, capacity, MetricsRegistry::new_shared())
    }

    /// A pool recording hit/miss/eviction counters into a shared
    /// registry.
    pub fn with_metrics(
        disk: Arc<dyn StableStorage>,
        capacity: usize,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| {
                Arc::new(Frame {
                    page: RwLock::new(Page::new(PageId::NULL)),
                    pins: AtomicU32::new(0),
                    dirty: AtomicBool::new(false),
                    referenced: AtomicBool::new(false),
                    rec_lsn: AtomicU64::new(NO_REC_LSN),
                })
            })
            .collect();
        BufferPool {
            disk,
            frames,
            dir: Mutex::new(Directory {
                table: HashMap::new(),
                resident: vec![None; capacity],
                hand: 0,
            }),
            metrics,
            barrier: Mutex::new(None),
            lsn_source: Mutex::new(None),
        }
    }

    /// The registry this pool records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Install the write-back barrier (see [`FlushBarrier`]). The
    /// group-commit fast path makes the common already-forced case a
    /// single lock acquisition, so calling it per write-back is cheap.
    pub fn set_flush_barrier(&self, barrier: FlushBarrier) {
        *self.barrier.lock() = Some(barrier);
    }

    /// Install the recovery-LSN source (see [`LsnSource`]). Without one
    /// the pool records `0` — "oldest possible" — which keeps every
    /// downstream bound conservative.
    pub fn set_lsn_source(&self, source: LsnSource) {
        *self.lsn_source.lock() = Some(source);
    }

    fn current_lsn(&self) -> u64 {
        let source = self.lsn_source.lock().clone();
        match source {
            Some(s) => s(),
            None => 0,
        }
    }

    fn flush_barrier(&self) -> Result<()> {
        let barrier = self.barrier.lock().clone();
        match barrier {
            Some(b) => b(),
            None => Ok(()),
        }
    }

    /// Allocate a fresh page on the device.
    pub fn allocate(&self) -> Result<PageId> {
        self.disk.allocate()
    }

    /// The underlying device.
    pub fn disk(&self) -> &Arc<dyn StableStorage> {
        &self.disk
    }

    /// Run `f` with shared access to the page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let guard = frame.page.read();
            f(&guard)
        };
        self.unpin(&frame);
        Ok(out)
    }

    /// Run `f` with exclusive access to the page; the frame is marked
    /// dirty unconditionally (callers only take `_mut` when mutating).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let mut guard = frame.page.write();
            // Marking must happen inside the write critical section: a
            // concurrent flush swaps `dirty` to false and then takes the
            // page read lock, so with the marks outside the lock it
            // could clear a dirty bit set *before* the mutation, persist
            // the pre-mutation image, and leave the mutated page flagged
            // clean — a later eviction would silently drop the change.
            // Under the lock, the flush's read acquisition is granted
            // either before ours (it writes the old image and we
            // re-dirty afterwards) or after `f` (the image it writes
            // already includes the mutation).
            //
            // rec_lsn before the dirty bit: a dirty-page-table capture
            // that observes `dirty` must also observe a bound ≤ the
            // first log record of this mutation (which is appended after
            // `f` runs). fetch_min keeps the oldest bound if the frame
            // is already dirty.
            frame
                .rec_lsn
                .fetch_min(self.current_lsn(), Ordering::AcqRel);
            frame.dirty.store(true, Ordering::Release);
            f(&mut guard)
        };
        self.unpin(&frame);
        Ok(out)
    }

    fn pin(&self, id: PageId) -> Result<Arc<Frame>> {
        if id.is_null() {
            return Err(ReachError::PageNotFound(id));
        }
        let mut dir = self.dir.lock();
        if let Some(&idx) = dir.table.get(&id) {
            let frame = Arc::clone(&self.frames[idx]);
            frame.pins.fetch_add(1, Ordering::AcqRel);
            frame.referenced.store(true, Ordering::Release);
            self.metrics.pool.hits.inc();
            return Ok(frame);
        }
        self.metrics.pool.misses.inc();
        // Miss: choose a victim frame with the clock algorithm.
        let idx = self.find_victim(&mut dir)?;
        // Evict the old occupant (write back while still under the
        // directory lock — the frame has zero pins so no one can race us).
        if let Some(old) = dir.resident[idx] {
            let frame = &self.frames[idx];
            if frame.dirty.swap(false, Ordering::AcqRel) {
                // WAL rule: the log records describing this page's
                // changes must be durable before its image is. On
                // failure the dirty bit (and rec_lsn) must come back:
                // a clean-flagged page that never reached disk would
                // let a later checkpoint truncate its redo records.
                let wrote = self
                    .flush_barrier()
                    .and_then(|_| self.disk.write(&frame.page.read()));
                if let Err(e) = wrote {
                    frame.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
                frame.rec_lsn.store(NO_REC_LSN, Ordering::Release);
                self.metrics.pool.writebacks.inc();
            }
            dir.table.remove(&old);
            self.metrics.pool.evictions.inc();
        }
        let page = self.disk.read(id)?;
        let frame = Arc::clone(&self.frames[idx]);
        *frame.page.write() = page;
        frame.pins.store(1, Ordering::Release);
        frame.dirty.store(false, Ordering::Release);
        frame.rec_lsn.store(NO_REC_LSN, Ordering::Release);
        frame.referenced.store(true, Ordering::Release);
        dir.resident[idx] = Some(id);
        dir.table.insert(id, idx);
        Ok(frame)
    }

    fn unpin(&self, frame: &Frame) {
        frame.pins.fetch_sub(1, Ordering::AcqRel);
    }

    /// Clock scan: free frame first, then an unpinned frame whose
    /// reference bit has already been cleared once.
    fn find_victim(&self, dir: &mut Directory) -> Result<usize> {
        let n = self.frames.len();
        // Two full sweeps are enough: the first clears reference bits,
        // the second must find any unpinned frame.
        for _ in 0..2 * n {
            let idx = dir.hand;
            dir.hand = (dir.hand + 1) % n;
            if dir.resident[idx].is_none() {
                return Ok(idx);
            }
            let frame = &self.frames[idx];
            if frame.pins.load(Ordering::Acquire) != 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::AcqRel) {
                continue; // second chance
            }
            return Ok(idx);
        }
        Err(ReachError::BufferPoolExhausted)
    }

    /// Write every dirty resident page back to the device and sync it.
    pub fn flush_all(&self) -> Result<()> {
        // One barrier call covers the whole sweep: the log is forced
        // up to its current tail, which bounds every dirty page here.
        self.flush_barrier()?;
        let dir = self.dir.lock();
        for (idx, occupant) in dir.resident.iter().enumerate() {
            if occupant.is_none() {
                continue;
            }
            let frame = &self.frames[idx];
            if frame.dirty.swap(false, Ordering::AcqRel) {
                let guard = frame.page.read();
                // As in eviction: a failed write must not leave the
                // page clean-flagged (truncation safety).
                if let Err(e) = self.disk.write(&guard) {
                    frame.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
                // Reset rec_lsn while still holding the read lock. A
                // writer updates rec_lsn only inside its write critical
                // section, so its update is ordered either before this
                // flush (its effect is in the image just written) or
                // after this reset (it re-arms rec_lsn afresh) — the
                // reset can never clobber a bound for a mutation the
                // image does not contain.
                frame.rec_lsn.store(NO_REC_LSN, Ordering::Release);
                drop(guard);
                self.metrics.pool.writebacks.inc();
            }
        }
        drop(dir);
        self.disk.sync()
    }

    /// The dirty-page table: every resident dirty page with its
    /// recovery LSN, as carried by a fuzzy checkpoint's
    /// `EndCheckpoint` record. A frame caught mid-clean (dirty bit
    /// still set, rec_lsn already reset) is skipped — safe because
    /// rec_lsn is only reset under the page read lock after a
    /// successful write-back, so a reset frame's on-disk image
    /// contains every mutation marked before the reset.
    pub fn dirty_page_table(&self) -> Vec<(PageId, u64)> {
        let dir = self.dir.lock();
        let mut out = Vec::new();
        for (idx, occupant) in dir.resident.iter().enumerate() {
            let Some(id) = occupant else { continue };
            let frame = &self.frames[idx];
            if !frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            let rec_lsn = frame.rec_lsn.load(Ordering::Acquire);
            if rec_lsn != NO_REC_LSN {
                out.push((*id, rec_lsn));
            }
        }
        out
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn read_your_writes_through_the_pool() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        let slot = p
            .with_page_mut(id, |pg| pg.insert(b"cached").unwrap())
            .unwrap();
        let data = p
            .with_page(id, |pg| pg.get(slot).unwrap().to_vec())
            .unwrap();
        assert_eq!(data, b"cached");
        assert_eq!(p.metrics().snapshot().pool_misses, 1);
        assert_eq!(p.metrics().snapshot().pool_hits, 1);
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let p = pool(2);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        let mut slots = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let s = p
                .with_page_mut(*id, |pg| pg.insert(format!("rec{i}").as_bytes()).unwrap())
                .unwrap();
            slots.push(s);
        }
        // With 2 frames and 4 pages, at least two evictions happened and
        // every record must still be readable (via write-back + re-read).
        assert!(p.metrics().snapshot().pool_evictions >= 2);
        for (i, id) in ids.iter().enumerate() {
            let data = p
                .with_page(*id, |pg| pg.get(slots[i]).unwrap().to_vec())
                .unwrap();
            assert_eq!(data, format!("rec{i}").as_bytes());
        }
    }

    #[test]
    fn flush_all_persists_to_device() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn StableStorage>, 4);
        let id = p.allocate().unwrap();
        let slot = p
            .with_page_mut(id, |pg| pg.insert(b"durable").unwrap())
            .unwrap();
        p.flush_all().unwrap();
        // Read directly from the device, bypassing the pool.
        let raw = disk.read(id).unwrap();
        assert_eq!(raw.get(slot).unwrap(), b"durable");
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let p = pool(3);
        // Fill the three frames with A, B, C.
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        for id in [a, b, c] {
            p.with_page(id, |_| ()).unwrap();
        }
        // Fault D: one sweep clears all reference bits and evicts A.
        let d = p.allocate().unwrap();
        p.with_page(d, |_| ()).unwrap();
        // Re-reference B, then fault E: the hand should skip B (bit set)
        // and evict C instead, so a later touch of B is still a hit.
        p.with_page(b, |_| ()).unwrap();
        let e = p.allocate().unwrap();
        p.with_page(e, |_| ()).unwrap();
        let before = p.metrics().snapshot().pool_hits;
        p.with_page(b, |_| ()).unwrap();
        assert_eq!(
            p.metrics().snapshot().pool_hits,
            before + 1,
            "B should have survived via second chance"
        );
    }

    #[test]
    fn flush_barrier_runs_before_dirty_writebacks() {
        use std::sync::atomic::AtomicU64;
        let p = pool(2);
        let calls = Arc::new(AtomicU64::new(0));
        {
            let calls = Arc::clone(&calls);
            p.set_flush_barrier(Arc::new(move || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }));
        }
        // Dirty both frames, then fault a third page: the eviction's
        // write-back must have been preceded by a barrier call.
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for id in &ids[..2] {
            p.with_page_mut(*id, |pg| {
                pg.insert(b"dirty").unwrap();
            })
            .unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        p.with_page(ids[2], |_| ()).unwrap();
        assert_eq!(p.metrics().snapshot().pool_writebacks, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // flush_all calls it once for the whole sweep.
        p.flush_all().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn dirty_page_table_tracks_first_dirtying_lsn() {
        let p = pool(4);
        let lsn = Arc::new(AtomicU64::new(100));
        {
            let lsn = Arc::clone(&lsn);
            p.set_lsn_source(Arc::new(move || lsn.load(Ordering::SeqCst)));
        }
        assert!(p.dirty_page_table().is_empty());
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.insert(b"x").unwrap()).unwrap();
        lsn.store(200, Ordering::SeqCst);
        p.with_page_mut(b, |pg| pg.insert(b"y").unwrap()).unwrap();
        // Re-dirtying A keeps its *first* rec LSN (fetch_min).
        p.with_page_mut(a, |pg| pg.insert(b"z").unwrap()).unwrap();
        let mut dpt = p.dirty_page_table();
        dpt.sort();
        assert_eq!(dpt, vec![(a, 100), (b, 200)]);
        // Flushing cleans the table; a later dirty re-enters at the new LSN.
        p.flush_all().unwrap();
        assert!(p.dirty_page_table().is_empty());
        lsn.store(300, Ordering::SeqCst);
        p.with_page_mut(a, |pg| pg.insert(b"w").unwrap()).unwrap();
        assert_eq!(p.dirty_page_table(), vec![(a, 300)]);
    }

    #[test]
    fn concurrent_flush_never_loses_mutations() {
        // Regression: with_page_mut once set the dirty bit *before*
        // taking the page write lock, so a concurrent flush_all could
        // swap it back to false, persist the pre-mutation image, and
        // leave the mutated page flagged clean — a later flush (or
        // eviction) would then silently drop the change.
        let disk = Arc::new(MemDisk::new());
        let p = Arc::new(BufferPool::new(
            Arc::clone(&disk) as Arc<dyn StableStorage>,
            8,
        ));
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for id in &ids {
            p.with_page_mut(*id, |pg| pg.insert(&0u64.to_le_bytes()).unwrap())
                .unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p.flush_all().unwrap();
                }
            })
        };
        let mut writers = Vec::new();
        for (t, id) in ids.iter().enumerate() {
            let p = Arc::clone(&p);
            let id = *id;
            writers.push(std::thread::spawn(move || {
                for i in 1..=500u64 {
                    p.with_page_mut(id, |pg| {
                        pg.put_at(0, &(i * (t as u64 + 1)).to_le_bytes()).unwrap();
                    })
                    .unwrap();
                }
            }));
        }
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        flusher.join().unwrap();
        p.flush_all().unwrap();
        // Every page's final value must have reached the device.
        for (t, id) in ids.iter().enumerate() {
            let raw = disk.read(*id).unwrap();
            assert_eq!(raw.get(0).unwrap(), (500 * (t as u64 + 1)).to_le_bytes());
        }
    }

    #[test]
    fn null_page_is_rejected() {
        let p = pool(1);
        assert!(p.with_page(PageId::NULL, |_| ()).is_err());
    }

    #[test]
    fn many_threads_share_the_pool() {
        let p = Arc::new(pool(8));
        let ids: Vec<_> = (0..16).map(|_| p.allocate().unwrap()).collect();
        for id in &ids {
            p.with_page_mut(*id, |pg| {
                pg.insert(&id.raw().to_le_bytes()).unwrap();
            })
            .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = Arc::clone(&p);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let id = ids[(t * 7 + round) % ids.len()];
                    let v = p.with_page(id, |pg| pg.get(0).unwrap().to_vec()).unwrap();
                    assert_eq!(v, id.raw().to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
