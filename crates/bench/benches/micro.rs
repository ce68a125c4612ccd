//! Criterion microbenchmarks: simulator-component throughput.
//!
//! These measure the *reproduction's* own performance (how fast the
//! simulators run on the host), plus ablation comparisons for the data
//! path's design choices: Strider page-walk throughput, engine
//! cycles/tuple, scheduler cost, buffer-pool hit path, end-to-end
//! small-scale training, and the flat `TupleBatch` data path (strider
//! extraction + the lowered executor).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use dana::prelude::*;
use dana_compiler::{schedule_hdfg, ScheduleParams};
use dana_dsl::zoo::{linear_regression, logistic_regression, DenseParams};
use dana_engine::{ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_storage::page::TupleDirection;
use dana_storage::{
    BufferPoolConfig, DiskModel, HeapFileBuilder, PageId, SharedBufferPool, TupleBatch,
};
use dana_strider::{AccessEngine, AccessEngineConfig};
use dana_workloads::{generate, workload};

fn strider_page_walk(c: &mut Criterion) {
    let w = workload("Remote Sensing LR").unwrap().scaled(0.01);
    let table = generate(&w, 32 * 1024, 1).unwrap();
    let engine = AccessEngine::for_table(
        *table.heap.layout(),
        table.heap.schema().clone(),
        AccessEngineConfig::new(
            8,
            dana_fpga::Clock::FPGA_150MHZ,
            dana_fpga::AxiLink::with_bandwidth(2.5e9),
        ),
    );
    let page = table.heap.page_bytes(0).unwrap().to_vec();
    let width = table.heap.schema().len();
    let mut batch = TupleBatch::with_capacity(width, table.heap.layout().capacity as usize);
    c.bench_function("strider_extract_32k_page", |b| {
        b.iter(|| {
            batch.clear();
            engine
                .extract_page_into(black_box(&page), &mut batch)
                .unwrap()
        })
    });
}

/// One extraction+train micro loop (every page extracted, one training
/// epoch) through the production path: flat `TupleBatch` extraction into
/// the deploy-time-lowered SoA executor.
fn data_path(c: &mut Criterion) {
    let w = workload("Remote Sensing LR").unwrap().scaled(0.01); // 5810 × 54
    let table = generate(&w, 32 * 1024, 17).unwrap();
    let access = AccessEngine::for_table(
        *table.heap.layout(),
        table.heap.schema().clone(),
        AccessEngineConfig::new(
            8,
            dana_fpga::Clock::FPGA_150MHZ,
            dana_fpga::AxiLink::with_bandwidth(2.5e9),
        ),
    );
    let spec = logistic_regression(DenseParams {
        n_features: 54,
        merge_coef: 8,
        epochs: 1,
        learning_rate: 0.1,
    })
    .unwrap();
    let design = schedule_hdfg(
        &translate(&spec),
        ScheduleParams {
            num_threads: 8,
            acs_per_thread: 2,
            slots_per_au: 4096,
            bus_lanes: 2,
        },
    )
    .unwrap()
    .0;
    let engine = ExecutionEngine::new(design.clone()).unwrap();
    let heap = &table.heap;
    let width = heap.schema().len();

    let mut group = c.benchmark_group("data_path");
    group.bench_function("flat_batch_lowered", |b| {
        b.iter(|| {
            let mut batch = TupleBatch::with_capacity(width, heap.tuple_count() as usize);
            for p in 0..heap.page_count() {
                access
                    .extract_page_into(heap.page_bytes(p).unwrap(), &mut batch)
                    .unwrap();
            }
            let mut store = ModelStore::new(&design, vec![vec![0.0; 54]]).unwrap();
            engine
                .run_training_batch(black_box(&batch), &mut store)
                .unwrap();
            store
        })
    });
    group.finish();
}

fn engine_training_throughput(c: &mut Criterion) {
    let spec = logistic_regression(DenseParams {
        n_features: 54,
        merge_coef: 8,
        epochs: 1,
        learning_rate: 0.1,
    })
    .unwrap();
    let g = translate(&spec);
    let design = schedule_hdfg(
        &g,
        ScheduleParams {
            num_threads: 8,
            acs_per_thread: 2,
            slots_per_au: 4096,
            bus_lanes: 2,
        },
    )
    .unwrap()
    .0;
    let engine = ExecutionEngine::new(design.clone()).unwrap();
    let tuples = TupleBatch::from_rows(
        55,
        (0..256).map(|k| {
            let mut t: Vec<f32> = (0..54).map(|i| ((k + i) % 7) as f32 / 7.0).collect();
            t.push(if k % 2 == 0 { 1.0 } else { 0.0 });
            t
        }),
    );
    c.bench_function("engine_epoch_256x54_logistic", |b| {
        b.iter(|| {
            let mut store = ModelStore::new(&design, vec![vec![0.0; 54]]).unwrap();
            engine
                .run_training_batch(black_box(&tuples), &mut store)
                .unwrap()
        })
    });
}

fn scheduler_cost(c: &mut Criterion) {
    let spec = linear_regression(DenseParams {
        n_features: 500,
        merge_coef: 16,
        epochs: 1,
        learning_rate: 0.1,
    })
    .unwrap();
    let g = translate(&spec);
    c.bench_function("schedule_500_feature_linreg", |b| {
        b.iter(|| {
            schedule_hdfg(
                black_box(&g),
                ScheduleParams {
                    num_threads: 16,
                    acs_per_thread: 4,
                    slots_per_au: 4096,
                    bus_lanes: 2,
                },
            )
            .unwrap()
        })
    });
}

fn bufferpool_hit_path(c: &mut Criterion) {
    let w = workload("Patient").unwrap().scaled(0.02);
    let table = generate(&w, 32 * 1024, 2).unwrap();
    // One shard: every page fits, so the loop below is all hits.
    let pool = SharedBufferPool::with_shards(
        BufferPoolConfig {
            pool_bytes: (table.heap.page_count() as u64 + 2) * 32 * 1024,
            page_size: 32 * 1024,
        },
        1,
    );
    pool.prewarm(dana_storage::HeapId(0), &table.heap).unwrap();
    let disk = DiskModel::ssd();
    let pages = table.heap.page_count();
    c.bench_function("bufferpool_scan_hits", |b| {
        b.iter(|| {
            for page_no in 0..pages {
                let (bytes, _) = pool
                    .fetch(
                        PageId::new(dana_storage::HeapId(0), page_no),
                        &table.heap,
                        &disk,
                    )
                    .unwrap();
                black_box(bytes.len());
            }
        })
    });
}

fn end_to_end_small(c: &mut Criterion) {
    let w = workload("Remote Sensing LR").unwrap().scaled(0.002);
    let table = generate(&w, 32 * 1024, 3).unwrap();
    let db = Dana::new(
        dana_fpga::FpgaSpec::vu9p(),
        BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size: 32 * 1024,
        },
        DiskModel::instant(),
    );
    db.create_table("rs", table.heap).unwrap();
    let mut spec_w = w.clone();
    spec_w.epochs = 1;
    let spec = spec_w.spec();
    db.deploy(&spec, "rs").unwrap();
    c.bench_function("dana_end_to_end_1162x54", |b| {
        b.iter(|| {
            db.execute_statement(black_box("EXECUTE logisticR('rs') WITH (backend = fpga);"))
                .unwrap()
        })
    });
}

fn ablation_page_layouts(c: &mut Criterion) {
    // Design-choice ablation: ascending vs descending tuple
    // placement should extract at the same rate (the ISA handles both).
    let mut group = c.benchmark_group("strider_layout_ablation");
    for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
        let schema = dana_storage::Schema::training(54);
        let mut b = HeapFileBuilder::new(schema.clone(), 32 * 1024, dir).unwrap();
        for k in 0..500 {
            b.insert(&Tuple::training(&[k as f32; 54], k as f32))
                .unwrap();
        }
        let heap = b.finish();
        let engine = AccessEngine::for_table(
            *heap.layout(),
            schema,
            AccessEngineConfig::new(
                4,
                dana_fpga::Clock::FPGA_150MHZ,
                dana_fpga::AxiLink::with_bandwidth(2.5e9),
            ),
        );
        let page = heap.page_bytes(0).unwrap().to_vec();
        let mut batch = TupleBatch::with_capacity(55, heap.layout().capacity as usize);
        group.bench_function(format!("{dir:?}"), |b| {
            b.iter(|| {
                batch.clear();
                engine
                    .extract_page_into(black_box(&page), &mut batch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = strider_page_walk,
    data_path,
    engine_training_throughput,
    scheduler_cost,
    bufferpool_hit_path,
    end_to_end_small,
    ablation_page_layouts
);
criterion_main!(benches);
