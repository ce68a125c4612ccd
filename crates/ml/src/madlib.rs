//! The MADlib + PostgreSQL baseline: single-threaded in-RDBMS training.
//!
//! MADlib's incremental gradient descent runs as a user-defined aggregate:
//! the executor scans the heap through the buffer pool, deforms each tuple,
//! converts the datums into the math layer's arrays, and applies the update
//! rule — once per tuple, single-threaded (§7 evaluates this as the main
//! baseline). This executor does the same, functionally, over the same
//! pages DAnA's Striders walk; its simulated runtime combines buffer-pool
//! I/O accounting with the calibrated per-tuple CPU cost model.

use dana_storage::{
    DiskModel, HeapFile, HeapId, PageId, PageView, RowDecoder, SharedBufferPool, TupleBatch,
};

use crate::algorithms::{train_reference, TrainConfig, TrainedModel};
use crate::cpu::{CpuModel, Seconds};

/// Timing + result of a MADlib run.
#[derive(Debug, Clone)]
pub struct MadlibReport {
    pub epochs: u32,
    /// Simulated single-core CPU seconds.
    pub cpu_seconds: Seconds,
    /// Simulated disk seconds (buffer-pool misses).
    pub io_seconds: Seconds,
    /// End-to-end: PostgreSQL overlaps no I/O with the aggregate.
    pub total_seconds: Seconds,
    pub tuples_per_epoch: u64,
    pub model: TrainedModel,
}

/// The executor. One instance per (machine, disk) configuration.
pub struct MadlibExecutor {
    cpu: CpuModel,
    disk: DiskModel,
}

impl MadlibExecutor {
    pub fn new(cpu: CpuModel, disk: DiskModel) -> MadlibExecutor {
        MadlibExecutor { cpu, disk }
    }

    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// Trains over `heap` through `pool`. Warm/cold cache is the caller's
    /// choice (prewarm or clear the pool first, §7's two settings).
    pub fn train(
        &self,
        pool: &SharedBufferPool,
        heap_id: HeapId,
        heap: &HeapFile,
        cfg: &TrainConfig,
    ) -> dana_storage::StorageResult<MadlibReport> {
        let start_stats = pool.stats();
        // Functional pass: stream tuples epoch by epoch through the pool.
        // (The reference trainer consumes a materialized slice; epochs are
        // re-scans, so each epoch re-touches every page — exactly MADlib's
        // access pattern, and what makes the cold-cache setting matter.)
        let mut tuples =
            TupleBatch::with_capacity(heap.schema().len(), heap.tuple_count() as usize);
        let decoder = RowDecoder::new(heap.schema());
        for epoch in 0..cfg.epochs.max(1) {
            for page_no in 0..heap.page_count() {
                let (bytes, _io) = pool.fetch(PageId::new(heap_id, page_no), heap, &self.disk)?;
                if epoch == 0 {
                    PageView::new(&bytes, *heap.layout())?
                        .deform_all_into(&decoder, &mut tuples)?;
                }
            }
        }
        let model = train_reference(&tuples, cfg);

        // Simulated timing.
        let io_seconds = pool.stats().io_seconds - start_stats.io_seconds;
        let width = heap.schema().len() - 1;
        let tuple_bytes = heap.layout().tuple_bytes;
        let cpu_seconds = cfg.epochs.max(1) as f64
            * self.cpu.madlib_epoch_seconds(
                cfg.algorithm,
                heap.tuple_count(),
                width,
                cfg.rank,
                tuple_bytes,
                heap.page_count() as u64,
            );
        Ok(MadlibReport {
            epochs: cfg.epochs.max(1),
            cpu_seconds,
            io_seconds,
            total_seconds: cpu_seconds + io_seconds,
            tuples_per_epoch: heap.tuple_count(),
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use dana_dsl::zoo::Algorithm;
    use dana_storage::page::TupleDirection;
    use dana_storage::{BufferPoolConfig, HeapFileBuilder, Schema, Tuple};

    fn heap(n: usize, d: usize) -> HeapFile {
        let truth: Vec<f32> = (0..d).map(|i| 1.0 - 0.2 * i as f32).collect();
        let mut b =
            HeapFileBuilder::new(Schema::training(d), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 5 + i * 3) % 13) as f32 - 6.0) / 6.0)
                .collect();
            let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            b.insert(&Tuple::training(&x, y)).unwrap();
        }
        b.finish()
    }

    fn pool_for(heap: &HeapFile) -> SharedBufferPool {
        SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: (heap.page_count() as u64 + 4) * 8 * 1024,
                page_size: 8 * 1024,
            },
            1,
        )
    }

    #[test]
    fn trains_a_usable_model() {
        let heap = heap(400, 6);
        let pool = pool_for(&heap);
        let exec = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::ssd());
        let cfg = TrainConfig {
            epochs: 40,
            learning_rate: 0.2,
            batch: 1,
            ..Default::default()
        };
        let report = exec.train(&pool, HeapId(1), &heap, &cfg).unwrap();
        let tuples = heap.scan_batch().unwrap();
        let loss = metrics::mse(report.model.as_dense(), &tuples).unwrap();
        assert!(loss < 0.01, "mse {loss}");
        assert!(report.cpu_seconds > 0.0);
        assert_eq!(report.tuples_per_epoch, 400);
    }

    #[test]
    fn cold_cache_pays_io_warm_does_not() {
        let heap = heap(2000, 8);
        let exec = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::ssd());
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };

        let cold_pool = pool_for(&heap);
        let cold = exec.train(&cold_pool, HeapId(1), &heap, &cfg).unwrap();
        assert!(cold.io_seconds > 0.0);

        let warm_pool = pool_for(&heap);
        warm_pool.prewarm(HeapId(1), &heap).unwrap();
        warm_pool.reset_stats();
        let warm = exec.train(&warm_pool, HeapId(1), &heap, &cfg).unwrap();
        assert_eq!(warm.io_seconds, 0.0);
        assert!(warm.total_seconds < cold.total_seconds);
        // Same data, same math → identical models.
        assert_eq!(warm.model.as_dense().0, cold.model.as_dense().0);
    }

    #[test]
    fn epochs_scale_cpu_linearly() {
        let heap = heap(500, 4);
        let exec = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::instant());
        let one = exec
            .train(
                &pool_for(&heap),
                HeapId(1),
                &heap,
                &TrainConfig {
                    epochs: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let four = exec
            .train(
                &pool_for(&heap),
                HeapId(1),
                &heap,
                &TrainConfig {
                    epochs: 4,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!((four.cpu_seconds / one.cpu_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lrmf_trains_through_madlib_path() {
        let schema = Schema::rating();
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for i in 0..20i32 {
            for j in 0..10i32 {
                b.insert(&Tuple::rating(i, j, ((i + j) % 5) as f32))
                    .unwrap();
            }
        }
        let heap = b.finish();
        let pool = pool_for(&heap);
        let exec = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::instant());
        let cfg = TrainConfig {
            algorithm: Algorithm::Lrmf,
            epochs: 30,
            learning_rate: 0.05,
            rank: 4,
            ..Default::default()
        };
        let report = exec.train(&pool, HeapId(1), &heap, &cfg).unwrap();
        let tuples = heap.scan_batch().unwrap();
        let rmse = metrics::lrmf_rmse(report.model.as_lrmf(), &tuples).unwrap();
        assert!(rmse < 1.0, "rmse {rmse}");
    }
}
