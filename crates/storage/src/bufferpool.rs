//! Buffer-pool sizing and counters.
//!
//! "During query execution, the RDBMS fills the buffer pool, from which
//! DAnA ships the data pages to the FPGA for processing." (§3) The pool is
//! the *hand-off point* between the database and the accelerator, so it
//! tracks everything the evaluation needs: hit/miss counts, simulated I/O
//! seconds, and warm/cold residency control (the paper reports both cache
//! settings for every experiment, §7). The pool itself is
//! [`crate::SharedBufferPool`]; the tests below hold its one-shard
//! configuration — the one an embedded system runs on — to the plain
//! clock-cache contract.

use crate::disk::Seconds;

/// Pool sizing configuration. The paper's default: 8 GB pool, 32 KB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BufferPoolConfig {
    /// Total pool capacity in bytes.
    pub pool_bytes: u64,
    /// Page size in bytes (all cached heaps must match).
    pub page_size: usize,
}

impl BufferPoolConfig {
    /// The paper's default setup (§7): 32 KB buffer pages, 8 GB pool.
    pub fn paper_default() -> BufferPoolConfig {
        BufferPoolConfig {
            pool_bytes: 8 << 30,
            page_size: 32 * 1024,
        }
    }

    /// Number of frames the pool holds.
    pub fn frames(&self) -> usize {
        (self.pool_bytes / self.page_size as u64) as usize
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BufferPoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Simulated seconds spent on disk reads (misses only).
    pub io_seconds: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskModel;
    use crate::error::StorageError;
    use crate::heap::{HeapFile, HeapFileBuilder};
    use crate::page::TupleDirection;
    use crate::schema::Schema;
    use crate::shared_pool::SharedBufferPool;
    use crate::tuple::Tuple;
    use crate::{HeapId, PageId};

    fn small_heap(tuples: usize) -> HeapFile {
        let schema = Schema::training(10);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..tuples {
            b.insert(&Tuple::training(&[k as f32; 10], k as f32))
                .unwrap();
        }
        b.finish()
    }

    fn pool(frames: usize) -> SharedBufferPool {
        SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: (frames * 8 * 1024) as u64,
                page_size: 8 * 1024,
            },
            1,
        )
    }

    fn page(page_no: u32) -> PageId {
        PageId::new(HeapId(1), page_no)
    }

    #[test]
    fn miss_then_hit() {
        let heap = small_heap(500);
        let bp = pool(8);
        let disk = DiskModel::ssd();
        let (_, io1) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert!(io1 > 0.0);
        let (_, io2) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert_eq!(io2, 0.0);
        assert_eq!(bp.stats().hits, 1);
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn eviction_under_pressure() {
        let heap = small_heap(2000); // several pages
        assert!(heap.page_count() >= 4);
        let bp = pool(2);
        let disk = DiskModel::instant();
        for page_no in 0..4 {
            bp.fetch(page(page_no), &heap, &disk).unwrap();
        }
        assert_eq!(bp.resident_pages(), 2);
        assert_eq!(bp.stats().evictions, 2);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let heap = small_heap(2000);
        let bp = pool(2);
        let disk = DiskModel::instant();
        // Keep page 0 held; fetch two more pages through the other frame.
        let held = bp.fetch(page(0), &heap, &disk).unwrap();
        bp.fetch(page(1), &heap, &disk).unwrap();
        bp.fetch(page(2), &heap, &disk).unwrap();
        assert!(bp.contains(page(0)), "held frame must not be the victim");
        assert!(!bp.contains(page(1)));
        drop(held);
    }

    #[test]
    fn all_pinned_exhausts_pool() {
        let heap = small_heap(2000);
        let bp = pool(2);
        let disk = DiskModel::instant();
        let _b0 = bp.fetch(page(0), &heap, &disk).unwrap();
        let _b1 = bp.fetch(page(1), &heap, &disk).unwrap();
        let err = bp.fetch(page(2), &heap, &disk);
        assert!(matches!(err, Err(StorageError::BufferPoolExhausted)));
    }

    #[test]
    fn prewarm_makes_scans_free() {
        let heap = small_heap(1500);
        let bp = pool(heap.page_count() as usize + 1);
        let disk = DiskModel::ssd();
        bp.prewarm(HeapId(1), &heap).unwrap();
        bp.reset_stats();
        for page_no in 0..heap.page_count() {
            let (_, io) = bp.fetch(page(page_no), &heap, &disk).unwrap();
            assert_eq!(io, 0.0);
        }
        assert_eq!(bp.stats().misses, 0);
        assert_eq!(bp.stats().io_seconds, 0.0);
    }

    #[test]
    fn clear_makes_cache_cold() {
        let heap = small_heap(500);
        let bp = pool(8);
        let disk = DiskModel::ssd();
        bp.prewarm(HeapId(1), &heap).unwrap();
        assert!(bp.resident_pages() > 0);
        bp.clear();
        assert_eq!(bp.resident_pages(), 0);
        let (_, io) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert!(io > 0.0);
    }

    #[test]
    fn evict_heap_removes_only_that_heap() {
        let heap = small_heap(500);
        let bp = pool(8);
        let disk = DiskModel::instant();
        bp.prewarm(HeapId(1), &heap).unwrap();
        bp.fetch(PageId::new(HeapId(2), 0), &heap, &disk).unwrap();
        let resident_before = bp.resident_pages();
        let evicted = bp.evict_heap_force(HeapId(1));
        assert!(evicted > 0);
        assert_eq!(bp.resident_pages(), resident_before - evicted);
        assert!(!bp.contains(page(0)));
        assert!(bp.contains(PageId::new(HeapId(2), 0)));
        // Idempotent: nothing left to evict.
        assert_eq!(bp.evict_heap_force(HeapId(1)), 0);
    }

    #[test]
    fn page_size_mismatch_rejected() {
        let heap = small_heap(10); // 8 KB pages
        let bp = SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: 1 << 20,
                page_size: 32 * 1024,
            },
            1,
        );
        let err = bp.fetch(page(0), &heap, &DiskModel::ssd());
        assert!(matches!(err, Err(StorageError::BadPageSize(_))));
    }

    #[test]
    fn frame_bytes_are_the_page_image() {
        let heap = small_heap(100);
        let bp = pool(4);
        let disk = DiskModel::instant();
        let (first, _) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert_eq!(&*first, heap.page_bytes(0).unwrap());
        let (again, _) = bp.fetch(page(0), &heap, &disk).unwrap();
        assert_eq!(
            first.as_ptr(),
            again.as_ptr(),
            "a hit shares the cached image"
        );
    }
}
