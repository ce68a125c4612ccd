//! The calibrated CPU cost model.
//!
//! The paper's software baselines ran on "four Intel i7-6700 cores at
//! 3.40GHz ... 32GB memory, a 256GB Solid State Drive" (§7). Functional
//! re-execution of the baselines at paper scale (up to 38 GB / 1.3 M × 7 K
//! tuples) is deliberately priced through this model instead of wall-clock
//! timing: the simulator host is not the paper's testbed, and the paper's
//! own estimator methodology (§6.1) shows static models suffice when the
//! execution is cache-free and statically scheduled — MADlib's per-tuple
//! transition functions are exactly that.
//!
//! Cost structure per training tuple (MADlib transition function):
//!
//! ```text
//! deform (per byte) + datum→float conversion (per value)
//!   + FLOPs / (clock × flops-per-cycle × vectorization(algo))
//!   + fixed UDF/aggregate overhead
//! ```
//!
//! Calibration notes (EXPERIMENTS.md's *ours/paper* columns record the
//! resulting paper-vs-model deltas): the vectorization factor encodes the paper's observation that
//! "Blog Feedback sees the smallest speedup [1.9×] due to the high CPU
//! vectorization potential of the linear regression algorithm" while
//! logistic regression's transcendental inner loop vectorizes poorly
//! (Remote Sensing LR achieves the largest speedup, 28.2×).

use dana_dsl::zoo::Algorithm;
use dana_fpga::Clock;

/// Seconds.
pub type Seconds = f64;

/// The machine model for every software baseline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuModel {
    pub clock: Clock,
    /// Physical cores (i7-6700: 4).
    pub cores: u32,
    /// Heap-tuple deforming cost per byte (header checks + copy).
    pub deform_s_per_byte: Seconds,
    /// Datum → float conversion per value (MADlib array-handle traffic).
    pub conv_s_per_value: Seconds,
    /// Fixed per-tuple overhead: UDF call, aggregate transition, context
    /// switches into the executor.
    pub udf_overhead_s: Seconds,
    /// Per-page overhead of the scan executor (buffer lookup, lock, pin).
    pub page_overhead_s: Seconds,
    /// Peak scalar FLOPs per cycle per core (fused mul-add pipe).
    pub flops_per_cycle: f64,
}

impl CpuModel {
    /// The paper's testbed (§7): i7-6700 @ 3.4 GHz, 4 cores.
    pub fn i7_6700() -> CpuModel {
        CpuModel {
            clock: Clock::CPU_3_4GHZ,
            cores: 4,
            deform_s_per_byte: 0.15e-9,
            conv_s_per_value: 22.0e-9,
            udf_overhead_s: 1.6e-6,
            page_overhead_s: 2.0e-6,
            flops_per_cycle: 2.0,
        }
    }

    /// Algorithm-specific SIMD vectorization factor of the tuple-gradient
    /// inner loop ("high CPU vectorization potential of the linear
    /// regression algorithm", §7.1; sigmoid/exp defeats vectorization for
    /// logistic regression).
    pub fn vector_factor(algo: Algorithm) -> f64 {
        match algo {
            Algorithm::Linear => 8.0,
            Algorithm::Logistic => 1.5,
            Algorithm::Svm => 4.0,
            Algorithm::Lrmf => 6.0,
        }
    }

    /// FLOPs of one tuple's update-rule evaluation under a first-order
    /// (IGD/SGD) solver. `width` is the feature count for dense
    /// algorithms; LRMF uses the factorization `rank`.
    pub fn flops_per_tuple(algo: Algorithm, width: usize, rank: usize) -> f64 {
        match algo {
            // dot (2d) + gradient accumulate (2d)
            Algorithm::Linear => 4.0 * width as f64,
            // + sigmoid ≈ 30 flops-equivalent of exp/divide
            Algorithm::Logistic => 4.0 * width as f64 + 30.0,
            // dot (2d) + gated gradient (≈ half the tuples violate: 1d avg)
            Algorithm::Svm => 3.0 * width as f64,
            // dot (2k) + two row updates (4k)
            Algorithm::Lrmf => 6.0 * rank as f64,
        }
    }

    /// FLOPs of one tuple under *MADlib's* solver. MADlib's default
    /// logistic regression is IRLS (Newton): each tuple accumulates the
    /// d×d Hessian term `x·xᵀ·w`, a **quadratic** per-tuple cost. This is
    /// the mechanism behind the paper's largest speedups (S/E Logistic:
    /// 66 h 45 m on MADlib vs 11 m 24 s on DAnA, 278×): DAnA executes the
    /// user's first-order update rule while MADlib pays O(d²) per tuple.
    pub fn madlib_flops_per_tuple(algo: Algorithm, width: usize, rank: usize) -> f64 {
        match algo {
            Algorithm::Logistic => {
                2.0 * (width as f64) * (width as f64) + 4.0 * width as f64 + 30.0
            }
            other => CpuModel::flops_per_tuple(other, width, rank),
        }
    }

    /// Pure arithmetic seconds for one tuple on one core (first-order
    /// solver — what DAnA's update rule and the external libraries run).
    pub fn compute_tuple_seconds(&self, algo: Algorithm, width: usize, rank: usize) -> Seconds {
        CpuModel::flops_per_tuple(algo, width, rank)
            / (self.clock.hz * self.flops_per_cycle * CpuModel::vector_factor(algo))
    }

    /// Full MADlib per-tuple cost: deform + convert + compute (MADlib's own
    /// solver, see [`CpuModel::madlib_flops_per_tuple`]) + overhead.
    pub fn madlib_tuple_seconds(
        &self,
        algo: Algorithm,
        width: usize,
        rank: usize,
        tuple_bytes: usize,
    ) -> Seconds {
        self.udf_overhead_s
            + tuple_bytes as f64 * self.deform_s_per_byte
            + (width + 1) as f64 * self.conv_s_per_value
            + CpuModel::madlib_flops_per_tuple(algo, width, rank)
                / (self.clock.hz * self.flops_per_cycle * CpuModel::vector_factor(algo))
    }

    /// CPU seconds for one MADlib epoch (single-threaded PostgreSQL).
    ///
    /// For LRMF pass the paper's *row* representation through
    /// [`CpuModel::madlib_lrmf_epoch_seconds`] instead: MADlib stores one
    /// dense ratings row per tuple, amortizing the per-tuple overheads that
    /// a triple store would pay per rating.
    pub fn madlib_epoch_seconds(
        &self,
        algo: Algorithm,
        tuples: u64,
        width: usize,
        rank: usize,
        tuple_bytes: usize,
        pages: u64,
    ) -> Seconds {
        tuples as f64 * self.madlib_tuple_seconds(algo, width, rank, tuple_bytes)
            + pages as f64 * self.page_overhead_s
    }

    /// MADlib LRMF epoch over the paper's dense-row representation:
    /// `rows` tuples, each holding `cols` ratings updated against a
    /// rank-`rank` factorization (Table 3's Netflix row: 6 040 tuples of
    /// 3 952 ratings).
    pub fn madlib_lrmf_epoch_seconds(
        &self,
        rows: u64,
        cols: u64,
        rank: usize,
        pages: u64,
    ) -> Seconds {
        let per_rating = self.conv_s_per_value
            + 4.0 * self.deform_s_per_byte
            + CpuModel::flops_per_tuple(Algorithm::Lrmf, 0, rank)
                / (self.clock.hz * self.flops_per_cycle * CpuModel::vector_factor(Algorithm::Lrmf));
        rows as f64 * (self.udf_overhead_s + cols as f64 * per_rating)
            + pages as f64 * self.page_overhead_s
    }

    /// Fraction of an epoch that parallelizes across Greenplum segments.
    /// LRMF's row-indexed updates serialize badly under model averaging
    /// (the paper's Netflix runs are *slower* on Greenplum, Table 5).
    pub fn greenplum_parallel_fraction(algo: Algorithm) -> f64 {
        match algo {
            Algorithm::Linear | Algorithm::Logistic | Algorithm::Svm => 0.95,
            Algorithm::Lrmf => 0.45,
        }
    }

    /// Per-epoch Greenplum coordination cost: segment barrier + model
    /// gather/average/redistribute through the interconnect. The barrier
    /// grows superlinearly with segment count (coordinator fan-in plus
    /// per-segment process scheduling on 4 physical cores) — the reason
    /// "performance does not scale as the segments increase" past 8
    /// (§7.2, Fig. 13).
    pub fn greenplum_sync_seconds(&self, segments: u32, model_bytes: u64) -> Seconds {
        let barrier = 3.0e-3 * (segments as f64).powf(1.5);
        let transfer = (model_bytes as f64 * segments as f64) / 2.0e9;
        barrier + transfer
    }

    /// CPU seconds for one Greenplum epoch over `segments` segments: the
    /// Amdahl split of the single-segment epoch (`single_epoch`, from
    /// [`CpuModel::madlib_epoch_seconds`] or, for LRMF's row
    /// representation, [`CpuModel::madlib_lrmf_epoch_seconds`]) plus the
    /// per-epoch synchronization.
    pub fn greenplum_epoch_seconds(
        &self,
        algo: Algorithm,
        single_epoch: Seconds,
        segments: u32,
        model_bytes: u64,
    ) -> Seconds {
        let p = CpuModel::greenplum_parallel_fraction(algo);
        single_epoch * ((1.0 - p) + p / segments as f64)
            + self.greenplum_sync_seconds(segments, model_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_tuples_cost_more() {
        let m = CpuModel::i7_6700();
        let narrow = m.madlib_tuple_seconds(Algorithm::Logistic, 54, 10, 236);
        let wide = m.madlib_tuple_seconds(Algorithm::Logistic, 2000, 10, 8020);
        assert!(wide > 10.0 * narrow, "{narrow} vs {wide}");
    }

    #[test]
    fn logistic_computes_slower_than_linear() {
        let m = CpuModel::i7_6700();
        let lin = m.compute_tuple_seconds(Algorithm::Linear, 500, 10);
        let log = m.compute_tuple_seconds(Algorithm::Logistic, 500, 10);
        assert!(
            log > lin * 3.0,
            "vectorization gap must show: {lin} vs {log}"
        );
    }

    #[test]
    fn calibration_magnitude_sn_logistic() {
        // S/N Logistic: 2 000 features, 387 944 tuples, 54m52s total in
        // Table 5. The per-epoch cost must sit in the tens-of-seconds range
        // so a plausible iteration count (10–200) lands near that total.
        let m = CpuModel::i7_6700();
        let epoch = m.madlib_epoch_seconds(Algorithm::Logistic, 387_944, 2_000, 10, 8_020, 96_986);
        // IRLS is quadratic in width: ~300 s/epoch, so Table 5's 54 m 52 s
        // corresponds to ~10 iterations.
        assert!(epoch > 150.0 && epoch < 600.0, "epoch = {epoch}s");
    }

    #[test]
    fn greenplum_scales_then_saturates() {
        let m = CpuModel::i7_6700();
        let single = m.madlib_epoch_seconds(Algorithm::Logistic, 500_000, 500, 10, 2020, 31_000);
        let e = |s: u32| m.greenplum_epoch_seconds(Algorithm::Logistic, single, s, 2000);
        let (e1, e4, e8, e16) = (e(1), e(4), e(8), e(16));
        assert!(e4 < e1 && e8 < e4, "{e1} {e4} {e8}");
        // Diminishing returns beyond 8 segments (the paper's best setting).
        assert!((e8 - e16).abs() < (e4 - e8), "{e4} {e8} {e16}");
    }

    #[test]
    fn greenplum_lrmf_parallelizes_poorly() {
        let m = CpuModel::i7_6700();
        let ratio = |algo, single| m.greenplum_epoch_seconds(algo, single, 8, 400) / single;
        let dense = ratio(
            Algorithm::Linear,
            m.madlib_epoch_seconds(Algorithm::Linear, 100_000, 100, 10, 420, 3000),
        );
        let lrmf = ratio(
            Algorithm::Lrmf,
            m.madlib_epoch_seconds(Algorithm::Lrmf, 100_000, 2, 10, 28, 3000),
        );
        assert!(
            dense < lrmf,
            "dense ratio {dense} must beat LRMF ratio {lrmf}"
        );
    }
}
