//! Concurrent buffer pool: sharded frames behind interior mutability.
//!
//! The serving tier multiplexes many training queries over one storage
//! substrate, so the hand-off point between the database and the
//! accelerators — the buffer pool — must admit concurrent readers without
//! a global `&mut`. [`SharedBufferPool`] partitions the frame array into
//! shards, each its own mutex-guarded clock cache; a page hashes to one
//! shard, so two queries scanning different page ranges rarely touch the
//! same lock, and a fetch holds its shard's lock only long enough to look
//! up (or install) the page.
//!
//! The pool lends page images; it owns no page buffers. A [`HeapFile`]
//! keeps each page as a shared handle (`Arc<Vec<u8>>`), and so does the
//! scan tier's sidecar for its compressed pages. A miss stores a clone of
//! that handle in the victim frame — it copies nothing and allocates
//! nothing — so a Strider reads the page where the database keeps it (§3:
//! the Striders "directly interface with the buffer pool").
//!
//! Pins are reference counts. Every frame owns one pin (an `Arc<()>`,
//! allocated once), and a fetch hands back a [`PageGuard`] that derefs to
//! the page's bytes and holds a clone of that pin. A frame is *held* while
//! any guard of it is alive — exactly a pin count, but one the borrow
//! checker releases when the reader drops the guard, so a panicking query
//! can never leak a pinned frame. The pin counts readers and nothing else;
//! a count on the image handle would also count the heap's own reference
//! and any other holder of the page.
//!
//! Timing stays simulated and per-shard: every miss charges the disk
//! model's read time to the shard it lands in; [`SharedBufferPool::stats`]
//! sums the shards.
//!
//! There is one fetch — [`SharedBufferPool::fetch`] and
//! [`SharedBufferPool::fetch_raw`] differ only in where the image comes
//! from and what length is charged — and one eviction,
//! [`SharedBufferPool::evict_heap_force`].

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

use crate::bufferpool::{BufferPoolConfig, BufferPoolStats};
use crate::disk::{DiskModel, Seconds};
use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::{HeapId, PageId};

/// Default shard count: enough to keep a handful of concurrent scans off
/// each other's locks without fragmenting a small pool.
pub const DEFAULT_SHARDS: usize = 8;

/// A reader's hold on a page image: derefs to the page's bytes, and keeps
/// the frame it came from pinned against eviction until it drops.
pub struct PageGuard {
    image: Arc<Vec<u8>>,
    _pin: Arc<()>,
}

impl Deref for PageGuard {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.image
    }
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageGuard({} bytes)", self.image.len())
    }
}

struct SharedFrame {
    /// The resident page and the image its source lent the frame.
    resident: Option<(PageId, Arc<Vec<u8>>)>,
    /// Cloned into every guard of this frame.
    pin: Arc<()>,
    referenced: bool,
}

impl SharedFrame {
    fn empty() -> SharedFrame {
        SharedFrame {
            resident: None,
            pin: Arc::new(()),
            referenced: false,
        }
    }

    fn page(&self) -> Option<PageId> {
        self.resident.as_ref().map(|(page, _)| *page)
    }

    /// A frame is "pinned" while any reader still holds a guard of it.
    fn is_held(&self) -> bool {
        Arc::strong_count(&self.pin) > 1
    }

    /// A guard over the resident image, pinning this frame.
    fn lend(&self) -> PageGuard {
        let (_, image) = self.resident.as_ref().expect("a mapped frame is resident");
        PageGuard {
            image: Arc::clone(image),
            _pin: Arc::clone(&self.pin),
        }
    }
}

struct Shard {
    frames: Vec<SharedFrame>,
    page_table: HashMap<PageId, usize>,
    clock_hand: usize,
    stats: BufferPoolStats,
}

impl Shard {
    fn new(frames: usize) -> Shard {
        Shard {
            frames: (0..frames).map(|_| SharedFrame::empty()).collect(),
            page_table: HashMap::new(),
            clock_hand: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// Second-chance (clock) victim selection over unheld frames.
    fn find_victim(&mut self) -> StorageResult<usize> {
        if let Some(idx) = self.frames.iter().position(|f| f.resident.is_none()) {
            return Ok(idx);
        }
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % n;
            let f = &mut self.frames[idx];
            if f.is_held() {
                continue;
            }
            if f.referenced {
                f.referenced = false;
            } else {
                return Ok(idx);
            }
        }
        Err(StorageError::BufferPoolExhausted)
    }

    /// Maps `page_id` to `frame`, which lends a clone of `image`: no page
    /// byte is copied. The victim is never held — a guard pins the page
    /// its frame maps.
    fn install(&mut self, frame: usize, page_id: PageId, image: &Arc<Vec<u8>>) {
        if let Some(old) = self.frames[frame].page() {
            self.page_table.remove(&old);
            self.stats.evictions += 1;
        }
        let f = &mut self.frames[frame];
        f.resident = Some((page_id, Arc::clone(image)));
        f.referenced = true;
        self.page_table.insert(page_id, frame);
    }
}

/// The concurrent buffer pool: `&self` fetches, sharded locking.
pub struct SharedBufferPool {
    config: BufferPoolConfig,
    shards: Vec<Mutex<Shard>>,
    /// Heaps whose tables were dropped while scans were in flight. Pages
    /// of a tombstoned heap are never (re-)installed: a straggling scan
    /// still gets its bytes, but the pool stays clean once it finishes.
    /// Heap ids are never reused by the catalog, so the set only grows by
    /// one entry per dropped table.
    tombstones: Mutex<HashSet<HeapId>>,
}

impl SharedBufferPool {
    /// Builds a pool with [`DEFAULT_SHARDS`] shards.
    pub fn new(config: BufferPoolConfig) -> SharedBufferPool {
        SharedBufferPool::with_shards(config, DEFAULT_SHARDS)
    }

    /// Builds a pool whose frames are split across `shards` locks. Each
    /// shard gets an equal slice of the frame budget (at least one frame).
    pub fn with_shards(config: BufferPoolConfig, shards: usize) -> SharedBufferPool {
        let shards = shards.max(1);
        let total = config.frames().max(shards);
        let per_shard = total / shards;
        SharedBufferPool {
            config,
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            tombstones: Mutex::new(HashSet::new()),
        }
    }

    fn is_tombstoned(&self, heap_id: HeapId) -> bool {
        self.tombstones
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&heap_id)
    }

    pub fn config(&self) -> BufferPoolConfig {
        self.config
    }

    /// Total frames across all shards.
    pub fn frames(&self) -> usize {
        self.shards.len() * self.lock(0).frames.len()
    }

    /// Deterministic page → shard mapping (independent of hasher seeds, so
    /// residency patterns reproduce across runs and platforms).
    fn shard_of(&self, page_id: PageId) -> usize {
        let mix = (page_id.heap.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(page_id.page_no as u64);
        (mix % self.shards.len() as u64) as usize
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        // The workspace's lock-poisoning policy: shard state is valid under
        // panic (a poisoned shard only means a reader panicked mid-fetch;
        // frames and page table are consistent between every mutation), so
        // recover rather than propagate.
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A heap of another page size cannot share this pool's frames.
    fn check_page_size(&self, heap: &HeapFile) -> StorageResult<()> {
        let size = heap.layout().page_size;
        if size != self.config.page_size {
            return Err(StorageError::BadPageSize(size));
        }
        Ok(())
    }

    /// Fetches a page of `heap`, returning a guard over its image plus the
    /// simulated I/O seconds this access cost. A miss lends the frame the
    /// heap's own page; the guard pins the frame against eviction until
    /// the caller drops it.
    pub fn fetch(
        &self,
        page_id: PageId,
        heap: &HeapFile,
        disk: &DiskModel,
    ) -> StorageResult<(PageGuard, Seconds)> {
        self.check_page_size(heap)?;
        let image = heap.page_image(page_id.page_no);
        self.fetch_image(page_id, image, self.config.page_size as u64, disk)
    }

    /// Fetches a caller-provided image into the pool under `page_id` — the
    /// scan tier's *compressed-frame* path. The frame lends exactly
    /// `image` (typically a sidecar's compressed page, cached under a
    /// shadow heap id) and the miss is priced at its byte count rather
    /// than the configured page size, which is where compressed storage
    /// saves its I/O. Honors tombstones exactly like
    /// [`SharedBufferPool::fetch`].
    pub fn fetch_raw(
        &self,
        page_id: PageId,
        image: &Arc<Vec<u8>>,
        disk: &DiskModel,
    ) -> StorageResult<(PageGuard, Seconds)> {
        self.fetch_image(page_id, Ok(image), image.len() as u64, disk)
    }

    /// The one fetch. A miss charges a read of `charged_bytes`, then
    /// installs `image` (an error in it surfaces only after that charge).
    fn fetch_image(
        &self,
        page_id: PageId,
        image: StorageResult<&Arc<Vec<u8>>>,
        charged_bytes: u64,
        disk: &DiskModel,
    ) -> StorageResult<(PageGuard, Seconds)> {
        let mut shard = self.lock(self.shard_of(page_id));
        if let Some(&frame) = shard.page_table.get(&page_id) {
            shard.stats.hits += 1;
            shard.frames[frame].referenced = true;
            return Ok((shard.frames[frame].lend(), 0.0));
        }
        shard.stats.misses += 1;
        let io = disk.read_time(charged_bytes);
        shard.stats.io_seconds += io;
        let image = image?;
        // Tombstone check under the shard lock: a scan racing a DROP TABLE
        // still gets its bytes, but must not re-install a dropped heap's
        // page after the drop's sweep has passed this shard (the orphan-
        // resident-page leak). `evict_heap_force` tombstones *before* it
        // sweeps, so whichever side reaches this shard second wins. The
        // straggler's guard gets a pin of its own: it holds no frame.
        if self.is_tombstoned(page_id.heap) {
            let detached = PageGuard {
                image: Arc::clone(image),
                _pin: Arc::new(()),
            };
            return Ok((detached, io));
        }
        let frame = shard.find_victim()?;
        shard.install(frame, page_id, image);
        Ok((shard.frames[frame].lend(), io))
    }

    /// Aggregated statistics across every shard.
    pub fn stats(&self) -> BufferPoolStats {
        let mut total = BufferPoolStats::default();
        for i in 0..self.shards.len() {
            let s = self.lock(i).stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.io_seconds += s.io_seconds;
        }
        total
    }

    pub fn reset_stats(&self) {
        for i in 0..self.shards.len() {
            self.lock(i).stats = BufferPoolStats::default();
        }
    }

    pub fn resident_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).page_table.len())
            .sum()
    }

    /// Total bytes of resident page images across all shards. With raw
    /// pages this is `resident_pages * page_size`, but compressed shadow
    /// frames hold fewer bytes than a page — this gauge is the live
    /// numerator of the pool-level compression ratio.
    pub fn resident_bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.lock(i);
                shard
                    .frames
                    .iter()
                    .filter_map(|f| f.resident.as_ref())
                    .map(|(_, image)| image.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Resident frame count per heap id (sorted by heap id). Shadow heaps
    /// appear under their aliased id, so compressed and raw residency of
    /// the same table show up as separate rows.
    pub fn per_heap_frames(&self) -> Vec<(u32, usize)> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            for f in shard.frames.iter() {
                if let Some(p) = f.page() {
                    *counts.entry(p.heap.0).or_insert(0) += 1;
                }
            }
        }
        let mut rows: Vec<(u32, usize)> = counts.into_iter().collect();
        rows.sort_unstable();
        rows
    }

    /// Frames a reader still holds a guard of. After every query has
    /// completed and dropped its batches, this must be zero — the serving
    /// tier's frame-leak detector.
    pub fn held_frames(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).frames.iter().filter(|f| f.is_held()).count())
            .sum()
    }

    /// True if `page_id` is currently resident.
    pub fn contains(&self, page_id: PageId) -> bool {
        self.lock(self.shard_of(page_id))
            .page_table
            .contains_key(&page_id)
    }

    /// Warm-cache setup: loads `heap` front-to-back without charging query
    /// I/O. Pages land in their hash shards; a shard that fills evicts its
    /// own oldest pages. A heap of another page size is refused, as
    /// [`SharedBufferPool::fetch`] refuses it, before any frame changes.
    pub fn prewarm(&self, heap_id: HeapId, heap: &HeapFile) -> StorageResult<usize> {
        self.check_page_size(heap)?;
        for page_no in 0..heap.page_count() {
            let page_id = PageId::new(heap_id, page_no);
            let mut shard = self.lock(self.shard_of(page_id));
            if shard.page_table.contains_key(&page_id) {
                continue;
            }
            let image = heap.page_image(page_no)?;
            match shard.find_victim() {
                Ok(frame) => {
                    // Prewarm is setup, not query cost: compensate the
                    // eviction counter only when install actually evicted
                    // a resident page (an empty frame counts nothing).
                    let displaced = shard.frames[frame].resident.is_some();
                    shard.install(frame, page_id, image);
                    shard.frames[frame].referenced = false;
                    if displaced {
                        shard.stats.evictions = shard.stats.evictions.saturating_sub(1);
                    }
                }
                // A shard saturated with held pages just skips; prewarm is
                // best-effort by definition.
                Err(StorageError::BufferPoolExhausted) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(self.resident_pages())
    }

    /// Cold-cache setup: unmaps every unheld page, dropping the frame's
    /// clone of its image. A held frame stays resident for its readers.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            let shard = &mut *self.lock(i);
            for f in shard.frames.iter_mut().filter(|f| !f.is_held()) {
                if let Some((p, _)) = f.resident.take() {
                    shard.page_table.remove(&p);
                }
            }
            shard.clock_hand = 0;
        }
    }

    /// Evicts every resident page of `heap_id` *unconditionally* — the
    /// `DROP TABLE` path. Guards make this safe mid-scan: an in-flight
    /// reader's guard keeps its image alive on its own. A held frame gets
    /// a fresh pin, so it is free at once and the old reader's guard pins
    /// nothing any more — the frame cannot leak.
    ///
    /// The heap is tombstoned *before* the sweep: a racing fetch either
    /// installs before the sweep reaches its shard (and is swept) or sees
    /// the tombstone under its shard lock and skips installation — either
    /// way no page of the dropped heap stays resident afterwards.
    pub fn evict_heap_force(&self, heap_id: HeapId) -> usize {
        self.tombstones
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(heap_id);
        let mut evicted = 0;
        for i in 0..self.shards.len() {
            // Detach every frame of the heap in this shard, held or not
            // (readers keep their guards' images).
            let shard = &mut *self.lock(i);
            for f in shard.frames.iter_mut() {
                if let Some(p) = f.page().filter(|p| p.heap == heap_id) {
                    if f.is_held() {
                        f.pin = Arc::new(());
                    }
                    f.resident = None;
                    shard.page_table.remove(&p);
                    f.referenced = false;
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapFileBuilder;
    use crate::page::TupleDirection;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn small_heap(tuples: usize) -> HeapFile {
        let schema = Schema::training(10);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..tuples {
            b.insert(&Tuple::training(&[k as f32; 10], k as f32))
                .unwrap();
        }
        b.finish()
    }

    fn pool(frames: usize, shards: usize) -> SharedBufferPool {
        SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: (frames * 8 * 1024) as u64,
                page_size: 8 * 1024,
            },
            shards,
        )
    }

    #[test]
    fn miss_then_hit_returns_same_image() {
        let heap = small_heap(500);
        let bp = pool(8, 2);
        let disk = DiskModel::ssd();
        let pid = PageId::new(HeapId(1), 0);
        let (b1, io1) = bp.fetch(pid, &heap, &disk).unwrap();
        assert!(io1 > 0.0);
        let (b2, io2) = bp.fetch(pid, &heap, &disk).unwrap();
        assert_eq!(io2, 0.0);
        assert_eq!(b1.as_ptr(), b2.as_ptr(), "hit must share the cached image");
        assert_eq!(&*b1, heap.page_bytes(0).unwrap());
        assert_eq!(bp.stats().hits, 1);
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn held_pages_are_not_evicted() {
        let heap = small_heap(4000);
        assert!(heap.page_count() >= 6);
        // One shard, two frames: heavy pressure.
        let bp = pool(2, 1);
        let disk = DiskModel::instant();
        let (held, _) = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        for page_no in 1..5 {
            let (b, _) = bp
                .fetch(PageId::new(HeapId(1), page_no), &heap, &disk)
                .unwrap();
            drop(b);
        }
        assert!(bp.contains(PageId::new(HeapId(1), 0)), "held page evicted");
        assert_eq!(bp.held_frames(), 1);
        drop(held);
        assert_eq!(bp.held_frames(), 0);
    }

    #[test]
    fn all_held_exhausts_shard() {
        let heap = small_heap(4000);
        let bp = pool(2, 1);
        let disk = DiskModel::instant();
        let _b0 = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        let _b1 = bp.fetch(PageId::new(HeapId(1), 1), &heap, &disk).unwrap();
        let err = bp.fetch(PageId::new(HeapId(1), 2), &heap, &disk);
        assert!(matches!(err, Err(StorageError::BufferPoolExhausted)));
    }

    #[test]
    fn prewarm_makes_scans_free() {
        let heap = small_heap(1500);
        let bp = pool(heap.page_count() as usize * 2, 4);
        let disk = DiskModel::ssd();
        bp.prewarm(HeapId(1), &heap).unwrap();
        bp.reset_stats();
        for page_no in 0..heap.page_count() {
            let (_, io) = bp
                .fetch(PageId::new(HeapId(1), page_no), &heap, &disk)
                .unwrap();
            assert_eq!(io, 0.0);
        }
        assert_eq!(bp.stats().misses, 0);
        assert_eq!(bp.stats().io_seconds, 0.0);
    }

    #[test]
    fn clear_and_evict_heap() {
        let heap = small_heap(1500);
        let bp = pool(64, 4);
        let disk = DiskModel::instant();
        bp.prewarm(HeapId(1), &heap).unwrap();
        bp.prewarm(HeapId(2), &heap).unwrap();
        let before = bp.resident_pages();
        let evicted = bp.evict_heap_force(HeapId(1));
        assert_eq!(evicted as u32, heap.page_count());
        assert_eq!(bp.resident_pages(), before - evicted);
        assert!(bp.contains(PageId::new(HeapId(2), 0)));
        bp.clear();
        assert_eq!(bp.resident_pages(), 0);
        let (_, io) = bp.fetch(PageId::new(HeapId(2), 0), &heap, &disk).unwrap();
        assert_eq!(io, 0.0, "instant disk");
        assert!(bp.stats().misses > 0);
    }

    #[test]
    fn a_miss_lends_the_heaps_image() {
        let heap = small_heap(4000);
        let bp = pool(2, 1);
        let disk = DiskModel::instant();
        let page = |n| PageId::new(HeapId(1), n);
        // A miss lends the frame the heap's own page: no copy.
        let (held, _) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert_eq!(held.as_ptr(), heap.page_bytes(0).unwrap().as_ptr());
        // A compressed miss lends the handle it is given — the scan
        // tier's `ScanSidecar::page` — and is charged at its length.
        let packed = Arc::new(vec![7u8; 100]);
        let (raw, _) = bp
            .fetch_raw(PageId::new(HeapId(1).shadow(), 0), &packed, &disk)
            .unwrap();
        assert_eq!(raw.as_ptr(), packed.as_ptr());
        assert_eq!(bp.resident_bytes(), 8 * 1024 + 100);
        drop(raw);
        // A held frame survives a clear and the clock; every other miss
        // lands beside it and lends its own page.
        bp.clear();
        assert!(bp.contains(page(0)));
        assert_eq!(bp.resident_pages(), 1);
        for n in 1..6 {
            let (b, _) = bp.fetch(page(n), &heap, &disk).unwrap();
            assert_eq!(b.as_ptr(), heap.page_bytes(n).unwrap().as_ptr());
        }
        assert!(bp.contains(page(0)), "the clock evicted a held frame");
        assert_eq!(bp.held_frames(), 1);
        // Force-evicted while held, the frame is re-pinned: the pages it
        // takes next are not held by the old reader, whose bytes stay.
        assert_eq!(bp.evict_heap_force(HeapId(1)), 2);
        assert_eq!(bp.held_frames(), 0);
        for n in 0..4 {
            let (b, _) = bp.fetch(PageId::new(HeapId(2), n), &heap, &disk).unwrap();
            drop(b);
            assert_eq!(bp.held_frames(), 0);
        }
        assert_eq!(&*held, heap.page_bytes(0).unwrap());
        // A guard over both frames holds both; once every guard drops,
        // nothing is held.
        let (a, _) = bp.fetch(PageId::new(HeapId(2), 2), &heap, &disk).unwrap();
        let (b, _) = bp.fetch(PageId::new(HeapId(2), 3), &heap, &disk).unwrap();
        assert_eq!(bp.held_frames(), 2);
        drop((a, b, held));
        assert_eq!(bp.held_frames(), 0);
    }

    #[test]
    fn prewarm_refuses_a_heap_of_another_page_size() {
        let heap = small_heap(500);
        let bp = pool(8, 1);
        bp.prewarm(HeapId(1), &heap).unwrap();
        let resident = bp.resident_pages();
        assert_eq!(resident as u32, heap.page_count());
        let schema = Schema::training(10);
        let mut b = HeapFileBuilder::new(schema, 16 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..2000 {
            b.insert(&Tuple::training(&[k as f32; 10], 0.0)).unwrap();
        }
        let foreign = b.finish();
        assert!(foreign.page_count() as usize >= bp.frames());
        assert!(matches!(
            bp.prewarm(HeapId(2), &foreign),
            Err(StorageError::BadPageSize(16384))
        ));
        // The resident table's pages stay put, and nothing was counted.
        assert_eq!(bp.resident_pages(), resident);
        assert!((0..heap.page_count()).all(|p| bp.contains(PageId::new(HeapId(1), p))));
        assert!(!bp.contains(PageId::new(HeapId(2), 0)));
        assert_eq!(bp.stats(), BufferPoolStats::default());
    }

    #[test]
    fn force_evict_detaches_held_pages_without_invalidating_readers() {
        let heap = small_heap(500);
        let bp = pool(8, 2);
        let disk = DiskModel::instant();
        let (held, _) = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        assert_eq!(bp.evict_heap_force(HeapId(1)), 1);
        assert!(!bp.contains(PageId::new(HeapId(1), 0)));
        // The reader's snapshot stays valid even though the frame is gone.
        assert_eq!(&*held, heap.page_bytes(0).unwrap());
        // The pool dropped its reference, so nothing is held anymore.
        assert_eq!(bp.held_frames(), 0);
    }

    #[test]
    fn tombstoned_heap_is_never_reinstalled() {
        let heap = small_heap(500);
        let bp = pool(8, 2);
        let disk = DiskModel::instant();
        bp.prewarm(HeapId(1), &heap).unwrap();
        assert!(bp.evict_heap_force(HeapId(1)) > 0);
        // A straggling scan racing the drop still reads valid bytes...
        let (bytes, _) = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        assert_eq!(&*bytes, heap.page_bytes(0).unwrap());
        // Its guard pins no frame of the pool.
        assert_eq!(bp.held_frames(), 0);
        // ...but the dropped heap's page is not re-installed: no orphan
        // resident pages survive the scan.
        assert!(!bp.contains(PageId::new(HeapId(1), 0)));
        assert_eq!(bp.resident_pages(), 0);
        // Other heaps cache normally.
        let (_, _) = bp.fetch(PageId::new(HeapId(2), 0), &heap, &disk).unwrap();
        assert!(bp.contains(PageId::new(HeapId(2), 0)));
    }

    #[test]
    fn prewarm_only_compensates_real_displacements() {
        let heap = small_heap(4000);
        let bp = pool(2, 1); // heavy pressure: real evictions happen
        let disk = DiskModel::instant();
        for page_no in 0..4 {
            let (b, _) = bp
                .fetch(PageId::new(HeapId(1), page_no), &heap, &disk)
                .unwrap();
            drop(b);
        }
        let evictions_before = bp.stats().evictions;
        assert!(evictions_before >= 2);
        bp.clear();
        // Prewarm lands in emptied frames: no displacement, so the
        // historical eviction count must survive untouched.
        bp.prewarm(HeapId(2), &heap).unwrap();
        assert_eq!(bp.stats().evictions, evictions_before);
    }

    #[test]
    fn concurrent_fetches_agree_with_heap_bytes() {
        let heap = small_heap(3000);
        let bp = pool(heap.page_count() as usize, 4);
        let disk = DiskModel::instant();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for page_no in 0..heap.page_count() {
                        let (bytes, _) = bp
                            .fetch(PageId::new(HeapId(7), page_no), &heap, &disk)
                            .unwrap();
                        assert_eq!(&*bytes, heap.page_bytes(page_no).unwrap());
                    }
                });
            }
        });
        assert_eq!(bp.held_frames(), 0);
        let stats = bp.stats();
        assert_eq!(stats.hits + stats.misses, 4 * heap.page_count() as u64);
    }

    #[test]
    fn shard_split_covers_all_frames() {
        let bp = pool(16, 4);
        assert_eq!(bp.frames(), 16);
        // More shards than frames still leaves one frame per shard.
        let bp = pool(2, 8);
        assert_eq!(bp.frames(), 8);
    }
}
