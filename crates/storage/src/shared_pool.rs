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
//! Pin counts are replaced by reference counts: a fetch hands back an
//! `Arc<[u8]>` page image. While any query still holds the `Arc`, the frame
//! is ineligible for eviction — exactly a pin, but one the borrow checker
//! releases automatically when the reader drops it, so a panicking query
//! can never leak a pinned frame.
//!
//! The pool owns its frames: an eviction, a [`SharedBufferPool::clear`] or
//! a dropped table empties a frame but keeps its buffer, and the next miss
//! that lands there copies the page into it. Only a frame a reader still
//! holds, or one of another length (a compressed image), is replaced by a
//! new allocation — so what a cold scan costs does not depend on which of
//! the previous scan's frames the allocator happened to keep mapped.
//!
//! Timing stays simulated and per-shard: every miss charges the disk
//! model's read time to the shard it lands in; [`SharedBufferPool::stats`]
//! sums the shards.
//!
//! There is one fetch — [`SharedBufferPool::fetch`] and
//! [`SharedBufferPool::fetch_raw`] differ only in where the bytes come from
//! and what length is charged — and one eviction,
//! [`SharedBufferPool::evict_heap_force`].

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use crate::bufferpool::{BufferPoolConfig, BufferPoolStats};
use crate::disk::{DiskModel, Seconds};
use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::{HeapId, PageId};

/// Default shard count: enough to keep a handful of concurrent scans off
/// each other's locks without fragmenting a small pool.
pub const DEFAULT_SHARDS: usize = 8;

struct SharedFrame {
    page: Option<PageId>,
    bytes: Arc<[u8]>,
    referenced: bool,
}

impl SharedFrame {
    fn empty() -> SharedFrame {
        SharedFrame {
            page: None,
            bytes: Arc::from(&[][..]),
            referenced: false,
        }
    }

    /// A frame is "pinned" while any reader still holds the page image.
    fn is_held(&self) -> bool {
        self.page.is_some() && Arc::strong_count(&self.bytes) > 1
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
        if let Some(idx) = self
            .frames
            .iter()
            .position(|f| f.page.is_none() && Arc::strong_count(&f.bytes) == 1)
        {
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

    /// Puts `image` into `frame` and returns the frame's shared image. A
    /// victim is never held, so when its buffer has the image's length the
    /// bytes are copied into it instead of into a new allocation.
    fn install(&mut self, frame: usize, page_id: PageId, image: &[u8]) -> Arc<[u8]> {
        if let Some(old) = self.frames[frame].page.take() {
            self.page_table.remove(&old);
            self.stats.evictions += 1;
        }
        let f = &mut self.frames[frame];
        match Arc::get_mut(&mut f.bytes) {
            Some(buffer) if buffer.len() == image.len() => buffer.copy_from_slice(image),
            _ => f.bytes = Arc::from(image),
        }
        f.page = Some(page_id);
        f.referenced = true;
        self.page_table.insert(page_id, frame);
        Arc::clone(&f.bytes)
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

    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// Fetches a page, returning its shared byte image plus the simulated
    /// I/O seconds this access cost. The returned `Arc` holds the frame
    /// against eviction until the caller drops it.
    pub fn fetch(
        &self,
        page_id: PageId,
        heap: &HeapFile,
        disk: &DiskModel,
    ) -> StorageResult<(Arc<[u8]>, Seconds)> {
        if heap.layout().page_size != self.config.page_size {
            return Err(StorageError::BadPageSize(heap.layout().page_size));
        }
        let image = heap.page_bytes(page_id.page_no);
        self.fetch_image(page_id, image, self.config.page_size as u64, disk)
    }

    /// Fetches caller-provided bytes into the pool under `page_id` — the
    /// scan tier's *compressed-frame* path. The frame holds exactly
    /// `bytes` (typically a compressed page image, cached under a shadow
    /// heap id) and the miss is priced at the actual byte count rather
    /// than the configured page size, which is where compressed storage
    /// saves its I/O. Honors tombstones exactly like
    /// [`SharedBufferPool::fetch`].
    pub fn fetch_raw(
        &self,
        page_id: PageId,
        bytes: &[u8],
        disk: &DiskModel,
    ) -> StorageResult<(Arc<[u8]>, Seconds)> {
        self.fetch_image(page_id, Ok(bytes), bytes.len() as u64, disk)
    }

    /// The one fetch. A miss charges a read of `charged_bytes`, then
    /// installs `image` (an error in it surfaces only after that charge).
    fn fetch_image(
        &self,
        page_id: PageId,
        image: StorageResult<&[u8]>,
        charged_bytes: u64,
        disk: &DiskModel,
    ) -> StorageResult<(Arc<[u8]>, Seconds)> {
        let mut shard = self.lock(self.shard_of(page_id));
        if let Some(&frame) = shard.page_table.get(&page_id) {
            shard.stats.hits += 1;
            shard.frames[frame].referenced = true;
            return Ok((Arc::clone(&shard.frames[frame].bytes), 0.0));
        }
        shard.stats.misses += 1;
        let io = disk.read_time(charged_bytes);
        shard.stats.io_seconds += io;
        let image = image?;
        // Tombstone check under the shard lock: a scan racing a DROP TABLE
        // still gets its bytes, but must not re-install a dropped heap's
        // page after the drop's sweep has passed this shard (the orphan-
        // resident-page leak). `evict_heap_force` tombstones *before* it
        // sweeps, so whichever side reaches this shard second wins.
        if self.is_tombstoned(page_id.heap) {
            return Ok((Arc::from(image), io));
        }
        let frame = shard.find_victim()?;
        Ok((shard.install(frame, page_id, image), io))
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
                    .filter(|f| f.page.is_some())
                    .map(|f| f.bytes.len() as u64)
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
                if let Some(p) = f.page {
                    *counts.entry(p.heap.0).or_insert(0) += 1;
                }
            }
        }
        let mut rows: Vec<(u32, usize)> = counts.into_iter().collect();
        rows.sort_unstable();
        rows
    }

    /// Frames whose page image is still referenced by a reader. After every
    /// query has completed and dropped its batches, this must be zero — the
    /// serving tier's frame-leak detector.
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
    /// own oldest pages.
    pub fn prewarm(&self, heap_id: HeapId, heap: &HeapFile) -> StorageResult<usize> {
        for page_no in 0..heap.page_count() {
            let page_id = PageId::new(heap_id, page_no);
            let mut shard = self.lock(self.shard_of(page_id));
            if shard.page_table.contains_key(&page_id) {
                continue;
            }
            let image = heap.page_bytes(page_no)?;
            match shard.find_victim() {
                Ok(frame) => {
                    // Prewarm is setup, not query cost: compensate the
                    // eviction counter only when install actually evicted
                    // a resident page (an empty frame counts nothing).
                    let displaced = shard.frames[frame].page.is_some();
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

    /// Cold-cache setup: drops every unheld page. The emptied frames keep
    /// their buffers for the next misses to fill (see `Shard::install`).
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            let shard = &mut *self.lock(i);
            for f in shard.frames.iter_mut().filter(|f| !f.is_held()) {
                if let Some(p) = f.page.take() {
                    shard.page_table.remove(&p);
                }
            }
            shard.clock_hand = 0;
        }
    }

    /// Evicts every resident page of `heap_id` *unconditionally* — the
    /// `DROP TABLE` path. Unlike pin counts, `Arc` page images
    /// make this safe mid-scan: an in-flight reader's clone keeps its bytes
    /// alive on its own; the pool merely drops its reference, so the frame
    /// frees the instant the reader finishes instead of leaking forever.
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
            // (readers keep their `Arc` snapshots).
            let shard = &mut *self.lock(i);
            for f in shard.frames.iter_mut() {
                if let Some(p) = f.page.filter(|p| p.heap == heap_id) {
                    // A held frame hands its buffer over to the readers;
                    // an unheld one keeps it for the next miss to fill.
                    if f.is_held() {
                        f.bytes = Arc::from(&[][..]);
                    }
                    f.page = None;
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
        assert!(Arc::ptr_eq(&b1, &b2), "hit must share the cached image");
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
    fn a_cleared_pool_refills_the_frames_it_owns() {
        let heap = small_heap(4000);
        let bp = pool(2, 1);
        let disk = DiskModel::instant();
        let page = |n| PageId::new(HeapId(1), n);
        let (first, _) = bp.fetch(page(0), &heap, &disk).unwrap();
        let buffer = first.as_ptr();
        drop(first);
        // After a clear, and after an eviction, the miss lands in the
        // buffer the frame already had.
        bp.clear();
        let (again, _) = bp.fetch(page(1), &heap, &disk).unwrap();
        assert_eq!(again.as_ptr(), buffer, "a clear must keep the frame");
        assert_eq!(&*again, heap.page_bytes(1).unwrap());
        // A reader's image is never written over: with page 1 still held,
        // a clear leaves it resident and later misses go elsewhere.
        bp.clear();
        assert!(bp.contains(page(1)));
        for n in 2..6 {
            let (b, _) = bp.fetch(page(n), &heap, &disk).unwrap();
            assert_ne!(b.as_ptr(), buffer);
            assert_eq!(&*b, heap.page_bytes(n).unwrap());
        }
        assert_eq!(&*again, heap.page_bytes(1).unwrap());
        // A frame of another length (a compressed image) is replaced.
        drop(again);
        bp.clear();
        let (raw, _) = bp.fetch_raw(page(9), &[7u8; 100], &disk).unwrap();
        assert_eq!(&*raw, &[7u8; 100][..]);
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
        assert_eq!(bp.num_shards(), 4);
        // More shards than frames still leaves one frame per shard.
        let bp = pool(2, 8);
        assert_eq!(bp.frames(), 8);
    }
}
