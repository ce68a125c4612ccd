//! What the integration suites share: one core constructor, one table
//! generator per zoo shape, the zoo specs they train, and training
//! through the front door.
//!
//! Not every suite uses every helper.
#![allow(dead_code)]

use dana::prelude::*;
use dana::{SystemCore, SystemCoreConfig};
use dana_dsl::zoo::{self, DenseParams, LrmfParams};
use dana_storage::page::TupleDirection;
use dana_storage::HeapFileBuilder;

/// The suites' page size.
pub const PAGE: usize = 8 * 1024;

/// The four zoo analytics, in the order the suites walk them.
pub const ZOO: [Algorithm; 4] = [
    Algorithm::Linear,
    Algorithm::Logistic,
    Algorithm::Svm,
    Algorithm::Lrmf,
];

/// A served core's configuration: a 64 MiB pool of `page_size` pages in
/// four lock shards (sharding changes locking, never results).
pub fn core_config(page_size: usize) -> SystemCoreConfig {
    SystemCoreConfig {
        fpga: FpgaSpec::vu9p(),
        pool: BufferPoolConfig {
            pool_bytes: 64 << 20,
            page_size,
        },
        pool_shards: 4,
        disk: DiskModel::ssd(),
    }
}

/// A core built from [`core_config`].
pub fn core(page_size: usize) -> SystemCore {
    SystemCore::new(core_config(page_size))
}

/// Trains `udf` on `table` through `EXECUTE` on the FPGA tier and returns
/// its report.
pub fn execute(db: &SystemCore, udf: &str, table: &str) -> DanaReport {
    let sql = format!("EXECUTE {udf}('{table}') WITH (backend = fpga);");
    db.execute_statement(&sql)
        .unwrap()
        .report()
        .unwrap()
        .clone()
}

/// The dense shape's rows: feature `i` of row `k` is
/// `((11k + 5i) mod 17 − 8) / 8`, and the label reads
/// `s = Σ truth(i)·x_i` the analytic's way — `s` itself (linear), `s > 0`
/// as 1 / 0 (logistic) or as +1 / −1 (SVM).
pub fn dense_rows(
    n: usize,
    d: usize,
    algo: Algorithm,
    truth: impl Fn(usize) -> f32,
) -> Vec<(Vec<f32>, f32)> {
    let truth: Vec<f32> = (0..d).map(truth).collect();
    (0..n)
        .map(|k| {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 11 + i * 5) % 17) as f32 - 8.0) / 8.0)
                .collect();
            let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            let y = match algo {
                Algorithm::Linear => s,
                Algorithm::Logistic => (s > 0.0) as u8 as f32,
                Algorithm::Svm => 2.0 * (s > 0.0) as u8 as f32 - 1.0,
                Algorithm::Lrmf => unreachable!("the dense shape has no LRMF table"),
            };
            (x, y)
        })
        .collect()
}

/// The truth most suites label dense rows with.
pub fn truth(i: usize) -> f32 {
    0.3 * i as f32 - 0.8
}

/// A heap of `tuples` under `schema`, in [`PAGE`]-byte pages.
pub fn heap(schema: Schema, direction: TupleDirection, tuples: &[Tuple]) -> HeapFile {
    let mut b = HeapFileBuilder::new(schema, PAGE, direction).unwrap();
    for t in tuples {
        b.insert(t).unwrap();
    }
    b.finish()
}

/// A training heap (`x0..x{d-1}, y`) of `rows`, ascending.
pub fn dense_heap(rows: &[(Vec<f32>, f32)]) -> HeapFile {
    let d = rows.first().map_or(0, |(x, _)| x.len());
    let tuples: Vec<_> = rows.iter().map(|(x, y)| Tuple::training(x, *y)).collect();
    heap(Schema::training(d), TupleDirection::Ascending, &tuples)
}

/// `heap`'s page images, in page order.
pub fn pages_of(heap: &HeapFile) -> Vec<Vec<u8>> {
    (0..heap.page_count())
        .map(|p| heap.page_bytes(p).unwrap().to_vec())
        .collect()
}

/// The rating shape's rows inside `rows × cols`: rating `k` sits in
/// column `13k mod cols`, and in row `k·rows / n` when `clustered` (rows
/// ascend with insertion, as in a user-sorted ratings table) or
/// `7k mod rows` when not. The rating is `1 + (3i + 5j) mod 4`.
pub fn rating_rows(n: usize, rows: usize, cols: usize, clustered: bool) -> Vec<(i32, i32, f32)> {
    (0..n)
        .map(|k| {
            let i = if clustered {
                k * rows / n
            } else {
                (k * 7) % rows
            };
            let j = (k * 13) % cols;
            (i as i32, j as i32, 1.0 + ((i * 3 + j * 5) % 4) as f32)
        })
        .collect()
}

/// A rating heap (`i, j, rating`) of `rows`, ascending.
pub fn rating_heap(rows: &[(i32, i32, f32)]) -> HeapFile {
    let tuples: Vec<_> = rows
        .iter()
        .map(|&(i, j, r)| Tuple::rating(i, j, r))
        .collect();
    heap(Schema::rating(), TupleDirection::Ascending, &tuples)
}

/// The zoo spec the suites train for `algo`: ten dense features, or a
/// 24 × 18 rank-6 factorization.
pub fn zoo_spec(algo: Algorithm, epochs: u32) -> AlgoSpec {
    match algo {
        Algorithm::Lrmf => zoo::lrmf(LrmfParams {
            rows: 24,
            cols: 18,
            rank: 6,
            learning_rate: 0.05,
            merge_coef: 4,
            epochs,
        }),
        _ => zoo::spec_for(
            algo,
            DenseParams {
                n_features: 10,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs,
            },
        ),
    }
    .unwrap()
}

/// An `n`-row table [`zoo_spec`] trains on: dense rows under [`truth`],
/// or clustered ratings.
pub fn zoo_heap(algo: Algorithm, n: usize) -> HeapFile {
    match algo {
        Algorithm::Lrmf => rating_heap(&rating_rows(n, 24, 18, true)),
        _ => dense_heap(&dense_rows(n, 10, algo, truth)),
    }
}
