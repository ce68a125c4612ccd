//! The SoA lockstep scoring executor.
//!
//! Scoring reuses the execution engine's lowered execution shape: the one
//! row-to-lane loader training uses, [`dana_storage::load_lanes`], moves
//! tuples `lanes` at a time straight from their batches into a slot-major
//! **structure-of-arrays** scratchpad (`xbuf[col*lanes + lane]`, the label
//! as one more row), and each program step dispatches once and runs a
//! tight loop across all lockstep lanes — the same group-at-a-time
//! discipline as `dana_engine::lowered`, with the batch data path
//! streaming pages underneath.
//!
//! **Bit-identical by construction.** Every per-tuple prediction is a
//! sequential f32 multiply-accumulate over the feature axis followed by
//! the link — the exact operation order of the `dana_ml::scorer` CPU
//! reference — so predictions are independent of the lane count and the
//! batch boundaries. The differential suite holds the executor to the
//! reference across execution modes and lane counts 1/4/16.
//!
//! LRMF row gathers are bounds-checked before any work (a typed error,
//! never a panic) and charged against the shared factor-memory ports,
//! mirroring the training engine's port-contention accounting.

use dana_ml::metrics::{classified_correctly, log_loss_term, squared_error_term};
use dana_ml::MetricsError;
use dana_storage::{load_lanes, TupleBatch, TupleSource};

use crate::error::{InferError, InferResult};
use crate::scoring::{MetricKind, ScoringProgram, MODEL_PORTS};

/// Counters for one scoring run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringStats {
    pub tuples: u64,
    /// Lockstep groups executed (`ceil(tuples / lanes)`).
    pub groups: u64,
    /// Simulated engine cycles: one program issue per group, plus LRMF
    /// factor-port contention.
    pub cycles: u64,
    pub lanes: u16,
}

/// What scoring one lockstep group costs the engine: the one charge the
/// executor bills per group and bind's estimate sums over a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoringCost {
    /// The program's issue length: one multiply-accumulate per feature
    /// (or per factor-rank element, twice, for LRMF) plus the link.
    pub program_cycles: u64,
    /// Factor elements each tuple gathers (LRMF's two rows; none for a
    /// dense model), read through the shared [`MODEL_PORTS`].
    pub gathered: u64,
}

impl ScoringCost {
    /// A pass of `macs` multiply-accumulates and the link, whose operands
    /// are `gathered` factor rows or the tuple's own features.
    pub(crate) fn new(macs: usize, gathered: bool) -> ScoringCost {
        let macs = macs as u64;
        ScoringCost {
            program_cycles: macs + 1,
            gathered: if gathered { macs } else { 0 },
        }
    }

    /// Engine cycles to score one group of `active` tuples: one program
    /// issue, and the group's gathers contending for the factor ports.
    pub fn group_cycles(&self, active: usize) -> u64 {
        self.program_cycles + (active as u64 * self.gathered).div_ceil(MODEL_PORTS)
    }

    /// The stats scoring `tuples` tuples `lanes` at a time reports: every
    /// full group, and the ragged last one at its own size.
    pub fn estimate(&self, tuples: u64, lanes: u16) -> ScoringStats {
        let lanes = lanes.max(1);
        let (full, rem) = (tuples / u64::from(lanes), tuples % u64::from(lanes));
        let ragged = if rem > 0 {
            self.group_cycles(rem as usize)
        } else {
            0
        };
        let cycles = full * self.group_cycles(lanes.into()) + ragged;
        let groups = tuples.div_ceil(lanes.into());
        ScoringStats {
            tuples,
            groups,
            cycles,
            lanes,
        }
    }
}

/// Streams a [`TupleSource`] through the scoring program, appending one
/// prediction per tuple to `out` (in tuple order). Returns the run's
/// cycle counters.
pub fn score_source(
    program: &ScoringProgram,
    lanes: u16,
    source: &mut dyn TupleSource,
    out: &mut Vec<f32>,
) -> InferResult<ScoringStats> {
    run_source(program, lanes, source, |_, pred, _| {
        out.push(pred);
        Ok(())
    })
}

/// Convenience: scores one materialized batch.
pub fn score_batch(
    program: &ScoringProgram,
    lanes: u16,
    batch: &TupleBatch,
) -> InferResult<(Vec<f32>, ScoringStats)> {
    let mut out = Vec::with_capacity(batch.len());
    let stats = score_source(
        program,
        lanes,
        &mut dana_storage::OneBatchSource::new(batch),
        &mut out,
    )?;
    Ok((out, stats))
}

/// Streams a [`TupleSource`] through the scoring program and folds each
/// `(raw score, prediction, label)` into `metric` — EVALUATE's path: no
/// prediction vector is materialized and no tuple leaves the engine.
pub fn evaluate_source(
    program: &ScoringProgram,
    lanes: u16,
    source: &mut dyn TupleSource,
    metric: MetricKind,
) -> InferResult<(f64, ScoringStats)> {
    let (partial, stats) = evaluate_source_partial(program, lanes, source, metric)?;
    Ok((partial.finish(metric)?, stats))
}

/// [`evaluate_source`] stopped one step short of the final division: the
/// raw `(sum, correct, n)` fold. This is the sharded EVALUATE's building
/// block — each shard folds its own stream, the partials combine in
/// shard-index order with [`MetricPartial::absorb`], and one
/// [`MetricPartial::finish`] produces the metric. A single shard's
/// partial finishes to exactly what [`evaluate_source`] returns.
pub fn evaluate_source_partial(
    program: &ScoringProgram,
    lanes: u16,
    source: &mut dyn TupleSource,
    metric: MetricKind,
) -> InferResult<(MetricPartial, ScoringStats)> {
    let signed = matches!(
        program,
        ScoringProgram::Dense {
            signed_labels: true,
            ..
        }
    );
    if source.width() <= program.min_width() {
        return Err(InferError::NoLabelColumn {
            metric,
            width: source.width(),
        });
    }
    let mut acc = MetricAccumulator::new(metric, signed);
    let stats = run_source(program, lanes, source, |raw, pred, label| {
        acc.update(raw, pred, label);
        Ok(())
    })?;
    Ok((acc.partial, stats))
}

/// The streaming core shared by scoring and evaluation: load tuples
/// `lanes` at a time into the SoA scratchpad, execute the program
/// group-at-a-time, emit `(raw, prediction, label)` per lane in tuple
/// order. The label is `NaN` when the stream has no label column (scoring
/// feature-only tables never reads it).
fn run_source(
    program: &ScoringProgram,
    lanes: u16,
    source: &mut dyn TupleSource,
    mut emit: impl FnMut(f32, f32, f32) -> InferResult<()>,
) -> InferResult<ScoringStats> {
    let lanes = (lanes as usize).max(1);
    // Slot-major SoA scratchpad: column k of lane l lives at k*lanes + l,
    // so each program step streams contiguously across the lanes. The
    // label column loads into the row after the features, which stays NaN
    // when the stream has none; a stream short of a feature is refused.
    let label_row = program.min_width();
    let loaded = label_row + usize::from(source.width() > label_row);
    let loaded: Vec<u32> = (0..loaded as u32).collect();
    let mut xbuf = vec![f32::NAN; (label_row + 1) * lanes];
    let mut raw = vec![0.0f32; lanes];
    let mut pred = vec![0.0f32; lanes];
    let mut stats = ScoringStats {
        lanes: lanes as u16,
        ..ScoringStats::default()
    };
    load_lanes(
        source,
        &loaded,
        lanes,
        &mut xbuf,
        |got, need| InferError::SourceWidth { got, need },
        |xbuf, active| {
            exec_group(
                program, lanes, active, xbuf, &mut raw, &mut pred, &mut stats,
            )?;
            let labels = &xbuf[label_row * lanes..][..active];
            for l in 0..active {
                emit(raw[l], pred[l], labels[l])?;
            }
            Ok(())
        },
    )?;
    Ok(stats)
}

/// Executes the scoring program on one lockstep group of `active ≤ lanes`
/// loaded tuples.
fn exec_group(
    program: &ScoringProgram,
    lanes: usize,
    active: usize,
    xbuf: &[f32],
    raw: &mut [f32],
    pred: &mut [f32],
    stats: &mut ScoringStats,
) -> InferResult<()> {
    match program {
        ScoringProgram::Dense { weights, link, .. } => {
            // Group-at-a-time dot product: each feature step dispatches
            // once and multiply-accumulates across every lane — a
            // sequential f32 fold per lane, identical to the reference
            // scorer's `dot`.
            raw[..active].iter_mut().for_each(|v| *v = 0.0);
            for (k, &w) in weights.iter().enumerate() {
                let col = &xbuf[k * lanes..k * lanes + active];
                for (acc, &x) in raw[..active].iter_mut().zip(col) {
                    *acc += w * x;
                }
            }
            for l in 0..active {
                pred[l] = link.apply(raw[l]);
            }
        }
        ScoringProgram::Lrmf { model } => {
            // Lane-at-a-time (like the lowered executor's LRMF path):
            // row gathers are data-dependent, so each lane gathers its
            // factor rows and reduces over the rank axis in order.
            // Validate every lane's indices before computing anything.
            for l in 0..active {
                let i = check_row("L", xbuf[l], model.rows)?;
                let j = check_row("R", xbuf[lanes + l], model.cols)?;
                raw[l] = model.predict(i, j);
                pred[l] = raw[l];
            }
        }
    }
    stats.cycles += program.cost().group_cycles(active);
    stats.groups += 1;
    stats.tuples += active as u64;
    Ok(())
}

/// The factor row a lane's index names, rounded as training gathers it.
fn check_row(factor: &'static str, index: f32, rows: usize) -> InferResult<usize> {
    dana_ml::row_index(index, rows).map_err(|row| InferError::RowIndexOutOfRange {
        factor,
        row,
        rows,
    })
}

/// A metric fold stopped short of the final division: the running term
/// sum, the correct-classification count, and the row count. Partials
/// from disjoint row ranges combine with [`MetricPartial::absorb`]
/// (callers combine in a fixed order — shard-index order in the gang
/// tier — so the f64 fold is deterministic), and [`MetricPartial::finish`]
/// produces the metric value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricPartial {
    pub sum: f64,
    pub correct: u64,
    pub n: u64,
}

impl MetricPartial {
    /// Folds `other` (the next row range, in order) into this partial.
    pub fn absorb(&mut self, other: MetricPartial) {
        self.sum += other.sum;
        self.correct += other.correct;
        self.n += other.n;
    }

    /// Completes the fold into the metric value. An empty fold (zero
    /// rows) is a typed error, like the whole-batch metrics.
    pub fn finish(self, kind: MetricKind) -> InferResult<f64> {
        if self.n == 0 {
            return Err(MetricsError::EmptyBatch {
                metric: kind.name(),
            }
            .into());
        }
        Ok(match kind {
            MetricKind::Mse => self.sum / self.n as f64,
            MetricKind::LrmfRmse => (self.sum / self.n as f64).sqrt(),
            MetricKind::LogLoss => self.sum / self.n as f64,
            MetricKind::Accuracy => self.correct as f64 / self.n as f64,
        })
    }
}

/// Streamed metric accumulation: folds per-row terms (shared with
/// `dana_ml::metrics`) left-to-right in tuple order, so the streamed
/// value is bit-identical to the whole-batch metric on the materialized
/// table.
struct MetricAccumulator {
    kind: MetricKind,
    signed: bool,
    partial: MetricPartial,
}

impl MetricAccumulator {
    fn new(kind: MetricKind, signed: bool) -> MetricAccumulator {
        MetricAccumulator {
            kind,
            signed,
            partial: MetricPartial::default(),
        }
    }

    fn update(&mut self, raw: f32, pred: f32, label: f32) {
        match self.kind {
            MetricKind::Mse | MetricKind::LrmfRmse => {
                self.partial.sum += squared_error_term(pred, label);
            }
            MetricKind::LogLoss => self.partial.sum += log_loss_term(pred, label),
            MetricKind::Accuracy => {
                // Accuracy thresholds the *raw* score, exactly as
                // `metrics::classification_accuracy` does.
                if classified_correctly(raw, label, self.signed) {
                    self.partial.correct += 1;
                }
            }
        }
        self.partial.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_ml::scorer::{score_dense, score_lrmf};
    use dana_ml::{DenseModel, Link, LrmfModel};

    fn dense_program(weights: &[f32], link: Link) -> ScoringProgram {
        ScoringProgram::Dense {
            weights: weights.to_vec(),
            link,
            signed_labels: false,
        }
    }

    fn feature_batch(n: usize, d: usize) -> TupleBatch {
        TupleBatch::from_rows(
            d + 1,
            (0..n).map(|k| {
                (0..=d)
                    .map(|i| (((k * 13 + i * 7) % 23) as f32 - 11.0) / 7.0)
                    .collect::<Vec<f32>>()
            }),
        )
    }

    #[test]
    fn lane_count_is_invisible_to_predictions() {
        let w: Vec<f32> = (0..9).map(|i| 0.25 * i as f32 - 1.0).collect();
        let batch = feature_batch(103, 9); // non-divisible: partial group
        let reference = score_dense(&DenseModel(w.clone()), &batch, Link::Sigmoid);
        for lanes in [1u16, 3, 4, 16, 64] {
            let program = dense_program(&w, Link::Sigmoid);
            let (pred, stats) = score_batch(&program, lanes, &batch).unwrap();
            assert_eq!(pred, reference, "{lanes} lanes");
            assert_eq!(stats.tuples, 103);
            assert_eq!(stats.lanes, lanes);
            assert_eq!(stats.groups, 103u64.div_ceil(lanes as u64));
            assert_eq!(stats.cycles, stats.groups * program.cost().program_cycles);
            assert_eq!(stats, program.cost().estimate(103, lanes));
        }
    }

    #[test]
    fn batch_boundaries_are_invisible_to_predictions() {
        struct Chunked {
            batches: Vec<TupleBatch>,
            next: usize,
        }
        impl TupleSource for Chunked {
            fn width(&self) -> usize {
                self.batches[0].width()
            }
            fn next_batch(&mut self) -> Result<Option<&TupleBatch>, dana_storage::SourceError> {
                if self.next >= self.batches.len() {
                    return Ok(None);
                }
                self.next += 1;
                Ok(Some(&self.batches[self.next - 1]))
            }
            fn rewind(&mut self) -> Result<(), dana_storage::SourceError> {
                self.next = 0;
                Ok(())
            }
        }
        // Page-sized chunks, 1-row batches, an empty batch mid-stream and
        // chunks wider than the 4 lanes all score like one batch.
        let w = vec![0.5f32, -0.25, 1.5];
        let batch = feature_batch(150, 3);
        let program = dense_program(&w, Link::Identity);
        let (whole, _) = score_batch(&program, 4, &batch).unwrap();
        for (chunk, empty_mid) in [
            (1usize, false),
            (3, false),
            (7, false),
            (7, true),
            (64, false),
        ] {
            let rows: Vec<Vec<f32>> = batch.rows().map(|r| r.to_vec()).collect();
            let mut src = Chunked {
                batches: rows
                    .chunks(chunk)
                    .map(|c| TupleBatch::from_rows(4, c))
                    .collect(),
                next: 0,
            };
            if empty_mid {
                src.batches.insert(11, TupleBatch::new(4));
            }
            let mut out = Vec::new();
            score_source(&program, 4, &mut src, &mut out).unwrap();
            assert_eq!(out, whole, "chunk {chunk}, empty {empty_mid}");
        }
    }

    #[test]
    fn lrmf_matches_reference_and_charges_ports() {
        let model = LrmfModel::zeroed(12, 9, 5);
        let batch =
            TupleBatch::from_rows(3, (0..40).map(|k| [(k % 12) as f32, (k % 9) as f32, 1.0]));
        let reference = score_lrmf(&model, &batch);
        let program = ScoringProgram::Lrmf {
            model: model.clone(),
        };
        for lanes in [1u16, 4, 16] {
            let (pred, stats) = score_batch(&program, lanes, &batch).unwrap();
            assert_eq!(pred, reference, "{lanes} lanes");
            // Gathers contend for the factor-memory ports.
            let mut expected = 0u64;
            let mut left = 40u64;
            while left > 0 {
                let active = left.min(lanes as u64);
                expected += (active * 2 * 5).div_ceil(MODEL_PORTS) + program.cost().program_cycles;
                left -= active;
            }
            assert_eq!(stats.cycles, expected, "{lanes} lanes");
            assert_eq!(stats, program.cost().estimate(40, lanes));
        }
    }

    #[test]
    fn lrmf_bad_index_is_typed_error() {
        let program = ScoringProgram::Lrmf {
            model: LrmfModel::zeroed(4, 4, 2),
        };
        let batch = TupleBatch::from_rows(3, [[9.0, 0.0, 1.0]]);
        assert!(matches!(
            score_batch(&program, 4, &batch),
            Err(InferError::RowIndexOutOfRange {
                factor: "L",
                row: 9,
                ..
            })
        ));
        let batch = TupleBatch::from_rows(3, [[0.0, -1.0, 1.0]]);
        assert!(matches!(
            score_batch(&program, 4, &batch),
            Err(InferError::RowIndexOutOfRange { factor: "R", .. })
        ));
    }

    #[test]
    fn narrow_source_is_typed_error() {
        let program = dense_program(&[1.0, 2.0, 3.0], Link::Identity);
        let batch = TupleBatch::from_rows(2, [[1.0, 2.0]]);
        assert!(matches!(
            score_batch(&program, 4, &batch),
            Err(InferError::SourceWidth { got: 2, need: 3 })
        ));
    }

    #[test]
    fn streamed_metrics_match_batch_metrics_exactly() {
        use dana_ml::metrics;
        let w: Vec<f32> = (0..6).map(|i| 0.4 * i as f32 - 1.1).collect();
        let batch = feature_batch(77, 6);
        let model = DenseModel(w.clone());

        let program = dense_program(&w, Link::Identity);
        let (v, _) = evaluate_source(
            &program,
            4,
            &mut dana_storage::OneBatchSource::new(&batch),
            MetricKind::Mse,
        )
        .unwrap();
        assert_eq!(v, metrics::mse(&model, &batch).unwrap());

        let program = dense_program(&w, Link::Sigmoid);
        let (v, _) = evaluate_source(
            &program,
            7,
            &mut dana_storage::OneBatchSource::new(&batch),
            MetricKind::LogLoss,
        )
        .unwrap();
        assert_eq!(v, metrics::log_loss(&model, &batch).unwrap());

        let (v, _) = evaluate_source(
            &program,
            3,
            &mut dana_storage::OneBatchSource::new(&batch),
            MetricKind::Accuracy,
        )
        .unwrap();
        assert_eq!(
            v,
            metrics::classification_accuracy(&model, &batch, false).unwrap()
        );

        let lmodel = LrmfModel::zeroed(10, 8, 3);
        let ratings = TupleBatch::from_rows(
            3,
            (0..31).map(|k| [(k % 10) as f32, (k % 8) as f32, ((k % 5) as f32) - 2.0]),
        );
        let program = ScoringProgram::Lrmf {
            model: lmodel.clone(),
        };
        let (v, _) = evaluate_source(
            &program,
            4,
            &mut dana_storage::OneBatchSource::new(&ratings),
            MetricKind::LrmfRmse,
        )
        .unwrap();
        assert_eq!(v, metrics::lrmf_rmse(&lmodel, &ratings).unwrap());
    }

    #[test]
    fn evaluate_needs_a_label_column() {
        let program = dense_program(&[1.0, 2.0], Link::Identity);
        let features_only = TupleBatch::from_rows(2, [[1.0, 2.0]]);
        assert!(matches!(
            evaluate_source(
                &program,
                4,
                &mut dana_storage::OneBatchSource::new(&features_only),
                MetricKind::Mse,
            ),
            Err(InferError::NoLabelColumn { .. })
        ));
    }

    #[test]
    fn evaluate_empty_table_is_typed_error() {
        let program = dense_program(&[1.0], Link::Identity);
        let empty = TupleBatch::new(2);
        assert!(matches!(
            evaluate_source(
                &program,
                4,
                &mut dana_storage::OneBatchSource::new(&empty),
                MetricKind::Mse,
            ),
            Err(InferError::Metric(MetricsError::EmptyBatch { .. }))
        ));
    }
}
