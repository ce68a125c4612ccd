//! The shard planner: partitioning one heap snapshot into contiguous
//! page-range shards.
//!
//! Intra-query parallelism splits a single table scan across a gang of
//! accelerator instances. Shards are **contiguous page ranges** — pages
//! are the unit the buffer pool, the Striders, and the batch data path
//! already speak — assigned greedily so shard sizes differ by at most one
//! page. Contiguity is what makes parallel PREDICT trivially
//! order-preserving: concatenating per-shard outputs in shard-index order
//! *is* source page order.

use dana_storage::{HeapFile, SourceError, TupleBatch, TupleSource};

/// One shard: a half-open page range `[start_page, end_page)` of the
/// snapshotted heap, with its tuple count resolved at plan time (every
/// heap page is full except possibly the last, so the count is pure
/// arithmetic — no page decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRange {
    pub start_page: u32,
    pub end_page: u32,
    pub tuples: u64,
}

impl ShardRange {
    pub fn pages(&self) -> u32 {
        self.end_page - self.start_page
    }
}

/// A complete partition of a heap into shards, in page order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<ShardRange>,
}

impl ShardPlan {
    /// Plans `requested` shards over `heap`. The effective shard count is
    /// clamped to the page count (a shard with no pages would idle an
    /// accelerator) and to at least one; an empty heap yields a single
    /// empty shard so downstream code has a uniform shape.
    pub fn new(heap: &HeapFile, requested: usize) -> ShardPlan {
        let pages = heap.page_count();
        let k = requested.clamp(1, (pages as usize).max(1));
        let base = pages / k as u32;
        let extra = pages % k as u32;
        let mut ranges = Vec::with_capacity(k);
        let mut start = 0u32;
        for index in 0..k {
            let len = base + u32::from((index as u32) < extra);
            let end = start + len;
            ranges.push(ShardRange {
                start_page: start,
                end_page: end,
                tuples: heap.tuples_in_page_range(start, end),
            });
            start = end;
        }
        debug_assert_eq!(start, pages);
        ShardPlan { ranges }
    }

    /// The shard count a gang over `heap` would actually run with —
    /// `requested` clamped to the page count (and at least one). The
    /// serving tier sizes gang leases with this so a lease never holds
    /// more instances than the plan has shards for.
    pub fn effective_shards(heap_pages: u32, requested: usize) -> usize {
        requested.clamp(1, (heap_pages as usize).max(1))
    }

    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Tuples per shard, in shard order — the dense merge tier's
    /// averaging weights.
    pub fn tuple_counts(&self) -> Vec<u64> {
        self.ranges.iter().map(|r| r.tuples).collect()
    }

    pub fn total_tuples(&self) -> u64 {
        self.ranges.iter().map(|r| r.tuples).sum()
    }
}

/// Plans shard boundaries for a *filtered* scan in **tuple space**: the
/// per-shard tuple counts [`ShardPlan::new`] would produce over a virtual
/// heap holding `total_tuples` densely packed at `capacity` tuples per
/// page. This is the shard plan of the equivalent pre-materialized
/// filtered table, which is what keeps a pushdown-sharded gang
/// bit-identical to running the same gang on `SELECT … INTO t_f` output:
/// post-filter tuples land packed in the materialized heap, so its page
/// boundaries fall at multiples of the packed page capacity.
pub fn packed_tuple_splits(total_tuples: u64, capacity: u64, requested: usize) -> Vec<u64> {
    assert!(capacity > 0, "page capacity must be positive");
    let pages = total_tuples.div_ceil(capacity);
    let k = requested.clamp(1, (pages as usize).max(1));
    let base = pages / k as u64;
    let extra = pages % k as u64;
    let mut splits = Vec::with_capacity(k);
    let mut start_page = 0u64;
    for index in 0..k {
        let end_page = start_page + base + u64::from((index as u64) < extra);
        let start_tuple = (start_page * capacity).min(total_tuples);
        let end_tuple = (end_page * capacity).min(total_tuples);
        splits.push(end_tuple - start_tuple);
        start_page = end_page;
    }
    debug_assert_eq!(splits.iter().sum::<u64>(), total_tuples);
    splits
}

/// A rewindable [`TupleSource`] over pre-extracted batches. No statement
/// runs one — every member of a statement's scan streams its pages — but
/// tests and the benchmark's stage replay feed gangs from it.
pub struct ReplaySource {
    batches: Vec<TupleBatch>,
    width: usize,
    tuples: u64,
    next: usize,
}

impl ReplaySource {
    pub fn new(width: usize, batches: Vec<TupleBatch>) -> ReplaySource {
        let tuples = batches.iter().map(|b| b.len() as u64).sum();
        ReplaySource {
            batches,
            width,
            tuples,
            next: 0,
        }
    }
}

impl TupleSource for ReplaySource {
    fn width(&self) -> usize {
        self.width
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        if self.next >= self.batches.len() {
            return Ok(None);
        }
        self.next += 1;
        Ok(Some(&self.batches[self.next - 1]))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.next = 0;
        Ok(())
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        Some(self.tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, Schema, Tuple};

    fn heap(n: usize) -> HeapFile {
        let mut b =
            HeapFileBuilder::new(Schema::training(4), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            b.insert(&Tuple::training(&[k as f32; 4], 1.0)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn shards_cover_every_page_once_with_exact_tuple_counts() {
        let h = heap(1000);
        for k in [1usize, 2, 3, 4, 7] {
            let plan = ShardPlan::new(&h, k);
            assert_eq!(plan.shards(), k.min(h.page_count() as usize));
            assert_eq!(plan.total_tuples(), 1000, "shards = {k}");
            let mut next = 0u32;
            for r in plan.ranges() {
                assert_eq!(r.start_page, next);
                assert!(r.end_page > r.start_page, "no empty shards");
                next = r.end_page;
            }
            assert_eq!(next, h.page_count());
            // Balanced to within one page.
            let sizes: Vec<u32> = plan.ranges().iter().map(|r| r.pages()).collect();
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_count_clamps_to_pages_and_empty_heap_is_one_shard() {
        let h = heap(50); // one page
        let plan = ShardPlan::new(&h, 8);
        assert_eq!(plan.shards(), h.page_count() as usize);
        assert_eq!(plan.total_tuples(), 50);

        let empty = HeapFileBuilder::new(Schema::training(4), 8 * 1024, TupleDirection::Ascending)
            .unwrap()
            .finish();
        let plan = ShardPlan::new(&empty, 4);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.ranges()[0].pages(), 0);
        assert_eq!(plan.total_tuples(), 0);
        // Zero requested clamps to one.
        assert_eq!(ShardPlan::new(&h, 0).shards(), 1);
    }

    #[test]
    fn packed_splits_match_shard_plan_over_materialized_heap() {
        // The virtual plan must agree with ShardPlan::new over a real heap
        // holding the same tuples densely packed.
        for n in [0usize, 1, 50, 137, 1000] {
            let h = heap(n);
            let capacity = u64::from(h.layout().capacity);
            for k in [1usize, 2, 3, 4, 7] {
                let plan = ShardPlan::new(&h, k);
                let splits = packed_tuple_splits(n as u64, capacity, k);
                assert_eq!(splits.len(), plan.shards(), "n={n} k={k}");
                assert_eq!(splits, plan.tuple_counts(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn replay_source_replays_identically_per_scan() {
        let b1 = TupleBatch::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        let b2 = TupleBatch::from_rows(2, [[5.0, 6.0]]);
        let mut s = ReplaySource::new(2, vec![b1.clone(), b2.clone()]);
        assert_eq!(s.tuple_count_hint(), Some(3));
        assert_eq!(s.next_batch().unwrap().unwrap(), &b1);
        assert_eq!(s.next_batch().unwrap().unwrap(), &b2);
        assert!(s.next_batch().unwrap().is_none());
        s.rewind().unwrap();
        assert_eq!(s.next_batch().unwrap().unwrap(), &b1);
    }
}
