//! Seeded input generators. Everything a workload feeds the program is a
//! pure function of `--seed`: equal seeds give byte-identical tables and
//! request streams, different seeds give different ones.

use dana_storage::page::TupleDirection;
use dana_storage::{HeapFile, HeapFileBuilder, Schema, Tuple};

/// Page size of every table the benchmark creates (the paper's 32 KB).
pub const PAGE: usize = 32 * 1024;

/// Marsaglia xorshift64 — small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// `stream` separates independent generators drawn from one seed.
    pub fn new(seed: u64, stream: u64) -> XorShift {
        // splitmix64 finalizer: spreads small seeds over the state space
        // and never yields the all-zero state xorshift cannot leave.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `base` rows plus a seed-chosen surplus below 1 %: the seed picks the
/// table's cardinality as well as its values, so the simulated clock —
/// a function of shape alone — differs between seeds like the wall clock
/// does, while staying exactly reproducible for one seed.
pub fn jittered_rows(base: u64, seed: u64) -> u64 {
    base + XorShift::new(seed, 0xCA2D).below(base / 100 + 1)
}

/// Feature levels of the quantized columns: `-1, -0.875, …, 1`.
const LEVELS: u64 = 17;
/// Distinct values of the clustered column `x0` over `0..1`.
const CLUSTER_STEPS: u64 = 256;

/// Row-major rows of the scan table: `d` quantized features plus a linear
/// label. `x0` rises with the row number (a key- or time-sorted fact
/// table, so zone maps can skip pages on it); every other feature is
/// drawn independently (nothing to skip). Few distinct values per column
/// let the page codec's bit-packing engage.
pub fn scan_rows(seed: u64, n: usize, d: usize) -> Vec<f32> {
    let mut rng = XorShift::new(seed, 0x5CA7);
    let mut rows = Vec::with_capacity(n * (d + 1));
    for k in 0..n {
        let at = rows.len();
        rows.push((k as u64 * CLUSTER_STEPS / n as u64) as f32 / CLUSTER_STEPS as f32);
        for _ in 1..d {
            rows.push((rng.below(LEVELS) as f32 - 8.0) / 8.0);
        }
        let label: f32 = rows[at..]
            .iter()
            .enumerate()
            .map(|(i, x)| x * (0.2 * i as f32 - 0.7))
            .sum();
        rows.push(label);
    }
    rows
}

/// Row-major rows of the serving table: `d` uniform features in `-1..1`
/// and a `{0, 1}` label from a planted logistic model.
pub fn serve_rows(seed: u64, n: usize, d: usize) -> Vec<f32> {
    let mut rng = XorShift::new(seed, 0x5E27);
    let mut unit = move || (rng.below(1 << 24) as f32 / (1u32 << 23) as f32) - 1.0;
    let truth: Vec<f32> = (0..d).map(|_| unit()).collect();
    let mut rows = Vec::with_capacity(n * (d + 1));
    for _ in 0..n {
        let at = rows.len();
        rows.extend((0..d).map(|_| unit()));
        let score: f32 = rows[at..].iter().zip(&truth).map(|(x, w)| x * w).sum();
        rows.push(if score > 0.0 { 1.0 } else { 0.0 });
    }
    rows
}

/// Builds a training-schema heap (`width - 1` features + label) from
/// row-major `rows`.
pub fn build_heap(rows: &[f32], width: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::training(width - 1), PAGE, TupleDirection::Ascending)
        .expect("32 KB pages hold the benchmark's tuples");
    for row in rows.chunks_exact(width) {
        b.insert(&Tuple::training(&row[..width - 1], row[width - 1]))
            .expect("row matches the schema");
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(heap: &HeapFile) -> Vec<Vec<u8>> {
        (0..heap.page_count())
            .map(|p| heap.page_bytes(p).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn equal_seeds_give_byte_identical_tables() {
        for gen in [scan_rows, serve_rows] {
            let a = build_heap(&gen(7, 3_000, 16), 17);
            let b = build_heap(&gen(7, 3_000, 16), 17);
            let c = build_heap(&gen(8, 3_000, 16), 17);
            assert_eq!(pages(&a), pages(&b));
            assert_ne!(pages(&a), pages(&c));
        }
    }

    #[test]
    fn request_streams_repeat_per_seed_and_differ_per_client() {
        let draw = |seed, stream| {
            let mut r = XorShift::new(seed, stream);
            (0..64).map(|_| r.below(16_384)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
    }

    #[test]
    fn scan_table_is_clustered_on_x0_only() {
        let rows = scan_rows(7, 4_096, 16);
        let x0: Vec<f32> = rows.chunks_exact(17).map(|r| r[0]).collect();
        assert!(x0.windows(2).all(|w| w[0] <= w[1]));
        let x1: Vec<f32> = rows.chunks_exact(17).map(|r| r[1]).collect();
        assert!(x1.windows(2).any(|w| w[0] > w[1]));
        let share = x0.iter().filter(|v| **v < 0.1).count() as f64 / x0.len() as f64;
        assert!((share - 0.1).abs() < 0.01, "x0 < 0.1 keeps {share}");
    }

    #[test]
    fn row_jitter_stays_below_one_percent_and_depends_on_the_seed() {
        let rows: Vec<u64> = (1..=20).map(|s| jittered_rows(100_000, s)).collect();
        assert!(rows.iter().all(|r| (100_000..=101_000).contains(r)));
        assert!(rows.iter().any(|r| *r != rows[0]));
        assert_eq!(jittered_rows(100_000, 7), jittered_rows(100_000, 7));
    }
}
