//! The epoch-boundary merge tier: combining per-shard partial models
//! deterministically.
//!
//! DAnA's execution engine merges *threads* with algorithm-aware merge
//! units on a tree bus; the gang executor lifts the same idea one level
//! up, to whole accelerators. At every epoch boundary each shard hands
//! over its partial models, and the merge tier combines them with
//! semantics read off the deployed design itself:
//!
//! * **dense models** (broadcast + `Whole` write-back — linear/logistic/
//!   SVM gradient-style analytics): **weighted averaging** in f64, weights
//!   being each shard's tuple count — the Bismarck-style model averaging
//!   that makes data-parallel in-RDBMS training practical;
//! * **row-indexed models** (`Row` write-back — LRMF factors): **row
//!   ownership partitioning** — each shard owns the factor rows its
//!   rating tuples touched. Uniquely-owned rows copy from their owner
//!   verbatim; rows touched by several shards average in f64 over exactly
//!   the touching shards (folded in shard-index order), which mini-batches a
//!   contended row's updates instead of discarding all but one shard's;
//! * models a design never writes keep shard 0's values verbatim.
//!
//! Determinism is structural, not incidental: partials are *buffered by
//! shard index* and folded `0..k` regardless of the order shards finished
//! in, and a one-shard merge is the identity (no arithmetic touches the
//! values), which is what makes `shards = 1` bit-identical to the serial
//! path.

use dana_engine::engine::{BUS_WORDS, MODEL_PORTS};
use dana_engine::{EngineDesign, ModelWrite};

use crate::error::{ParallelError, ParallelResult};

/// How one model variable combines across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelMergeKind {
    /// Tuple-count-weighted average (dense gradient-style models).
    WeightedAverage,
    /// Factor-row ownership: the tuple column holding the model's row
    /// index, read at plan time to record which rows each shard touches.
    RowOwnership { column: usize },
    /// Never written by the design: shard 0's values pass through.
    KeepShardZero,
}

/// Deploy-derived merge semantics for every model of a design, in model
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSpec {
    kinds: Vec<ModelMergeKind>,
    /// `(rows, cols)` per model, for shape checks and cycle accounting.
    shapes: Vec<(usize, usize)>,
}

impl MergeSpec {
    /// Reads the merge semantics off a deployed design. `Whole` writes
    /// average; `Row` writes partition by ownership, requiring the row
    /// index to be a raw tuple column (the DSL's `setModelRow(M, i, …)`
    /// with `i` an input) — a computed index would make shard ownership
    /// unknowable at plan time, so it is refused with a typed error
    /// rather than merged wrongly.
    pub fn derive(design: &EngineDesign) -> ParallelResult<MergeSpec> {
        let mut kinds = vec![ModelMergeKind::KeepShardZero; design.models.len()];
        for w in &design.model_writes {
            match w {
                ModelWrite::Whole { model, .. } => {
                    kinds[*model as usize] = ModelMergeKind::WeightedAverage;
                }
                ModelWrite::Row { model, index, .. } => {
                    let column = design
                        .input_slots
                        .iter()
                        .position(|slot| slot == index)
                        .ok_or_else(|| ParallelError::UnsupportedMerge {
                            model: design.models[*model as usize].name.clone(),
                            reason: "row index is computed, not a tuple column".to_string(),
                        })?;
                    kinds[*model as usize] = ModelMergeKind::RowOwnership { column };
                }
            }
        }
        let shapes = design.models.iter().map(|m| (m.rows, m.cols)).collect();
        Ok(MergeSpec { kinds, shapes })
    }

    pub fn kinds(&self) -> &[ModelMergeKind] {
        &self.kinds
    }

    /// `(model index, tuple column, rows)` for every row-owned model —
    /// what the gang's ownership recorder watches during the first scan.
    pub fn ownership_columns(&self) -> Vec<(usize, usize, usize)> {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(mi, k)| match k {
                ModelMergeKind::RowOwnership { column } => Some((mi, *column, self.shapes[mi].0)),
                _ => None,
            })
            .collect()
    }
}

/// Which factor rows one shard's tuples touch, per row-owned model:
/// `(model index, touched bitmap over rows)`. Constant across epochs (the
/// shard streams the same tuples every epoch), recorded once during the
/// first scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOwnership {
    pub per_model: Vec<(usize, Vec<bool>)>,
}

impl ShardOwnership {
    pub fn for_spec(spec: &MergeSpec) -> ShardOwnership {
        ShardOwnership {
            per_model: spec
                .ownership_columns()
                .into_iter()
                .map(|(mi, _, rows)| (mi, vec![false; rows]))
                .collect(),
        }
    }

    fn rows_for(&self, model: usize) -> Option<&[bool]> {
        self.per_model
            .iter()
            .find(|(mi, _)| *mi == model)
            .map(|(_, bits)| bits.as_slice())
    }
}

/// The epoch-boundary merge buffer: shards submit their partial models
/// **in any completion order**; [`MergeBuffer::finish`] folds them in
/// shard-index order. One instance per epoch.
pub struct MergeBuffer<'s> {
    spec: &'s MergeSpec,
    /// Epoch-start model values — the base un-owned rows fall back to.
    base: Vec<Vec<f32>>,
    slots: Vec<Option<Vec<Vec<f32>>>>,
    weights: Vec<u64>,
}

impl<'s> MergeBuffer<'s> {
    /// A buffer expecting `shards` partials on top of the epoch-start
    /// model values `base`.
    pub fn new(spec: &'s MergeSpec, shards: usize, base: Vec<Vec<f32>>) -> MergeBuffer<'s> {
        MergeBuffer {
            spec,
            base,
            slots: (0..shards).map(|_| None).collect(),
            weights: vec![0; shards],
        }
    }

    /// Files shard `shard`'s partial models and its averaging weight (its
    /// tuple count). Arrival order is irrelevant — the slot is keyed by
    /// shard index.
    pub fn submit(&mut self, shard: usize, models: Vec<Vec<f32>>, weight: u64) {
        self.weights[shard] = weight;
        self.slots[shard] = Some(models);
    }

    /// Merges every filed partial in shard-index order. Returns the
    /// merged models and the tree-bus/model-port cycles the merge tier
    /// charged. A one-shard merge is the identity and charges nothing.
    pub fn finish(self, ownership: &[ShardOwnership]) -> ParallelResult<(Vec<Vec<f32>>, u64)> {
        let k = self.slots.len();
        if k == 0 {
            return Err(ParallelError::EmptyGang);
        }
        let mut partials = Vec::with_capacity(k);
        for (s, slot) in self.slots.into_iter().enumerate() {
            let models = slot.ok_or_else(|| {
                ParallelError::ModelShape(format!("shard {s} never submitted its partial"))
            })?;
            if models.len() != self.spec.kinds.len() {
                return Err(ParallelError::ModelShape(format!(
                    "shard {s} submitted {} models, design has {}",
                    models.len(),
                    self.spec.kinds.len()
                )));
            }
            for (mi, m) in models.iter().enumerate() {
                let (rows, cols) = self.spec.shapes[mi];
                if m.len() != rows * cols {
                    return Err(ParallelError::ModelShape(format!(
                        "shard {s} model {mi} has {} values, expected {}",
                        m.len(),
                        rows * cols
                    )));
                }
            }
            partials.push(models);
        }
        // One shard: the merge is the identity — no arithmetic, no
        // cycles — so a 1-gang run stays bit-identical to serial.
        if k == 1 {
            return Ok((partials.pop().expect("one partial"), 0));
        }

        let total_weight: u64 = self.weights.iter().sum();
        let mut cycles = 0u64;
        let mut merged = self.base;
        for (mi, kind) in self.spec.kinds.iter().enumerate() {
            let (_, cols) = self.spec.shapes[mi];
            match kind {
                ModelMergeKind::WeightedAverage => {
                    let elements = merged[mi].len();
                    if total_weight == 0 {
                        merged[mi] = partials[0][mi].clone();
                    } else {
                        // Fold in shard-index order with f64 accumulators:
                        // the result is a pure function of (partials,
                        // weights), never of completion order.
                        for j in 0..elements {
                            let mut acc = 0.0f64;
                            for (s, p) in partials.iter().enumerate() {
                                acc += self.weights[s] as f64 * p[mi][j] as f64;
                            }
                            merged[mi][j] = (acc / total_weight as f64) as f32;
                        }
                    }
                    // All k partials stream to the merge unit, the merged
                    // model streams back — all over the shared bus.
                    cycles += ((k as u64 + 1) * elements as u64).div_ceil(BUS_WORDS);
                }
                ModelMergeKind::RowOwnership { .. } => {
                    let (rows, _) = self.spec.shapes[mi];
                    let mut touchers: Vec<&[bool]> = Vec::with_capacity(k);
                    for s in 0..k {
                        let Some(bits) = ownership.get(s).and_then(|o| o.rows_for(mi)) else {
                            return Err(ParallelError::ModelShape(format!(
                                "shard {s} has no ownership bitmap for model {mi}"
                            )));
                        };
                        touchers.push(bits);
                    }
                    let mut owned_elems = 0u64;
                    for row in 0..rows {
                        let owners: Vec<usize> = (0..k)
                            .filter(|&s| touchers[s].get(row).copied().unwrap_or(false))
                            .collect();
                        let lo = row * cols;
                        match owners.len() {
                            // Untouched: the epoch-start values stand.
                            0 => {}
                            // Uniquely owned: the owner's row, verbatim.
                            1 => {
                                let p = &partials[owners[0]][mi];
                                merged[mi][lo..lo + cols].copy_from_slice(&p[lo..lo + cols]);
                                owned_elems += cols as u64;
                            }
                            // Contended: average the touching shards'
                            // rows, folded in shard-index order. Every
                            // shard stepped from the same epoch-start
                            // row, so this behaves like mini-batching the
                            // row's updates rather than discarding all
                            // but one shard's.
                            m => {
                                for c in 0..cols {
                                    let mut acc = 0.0f64;
                                    for &s in &owners {
                                        acc += partials[s][mi][lo + c] as f64;
                                    }
                                    merged[mi][lo + c] = (acc / m as f64) as f32;
                                }
                                owned_elems += (m * cols) as u64;
                            }
                        }
                    }
                    // Owned rows scatter through the shared model-memory
                    // ports, like the engine's row write-back.
                    cycles += owned_elems.div_ceil(MODEL_PORTS);
                }
                ModelMergeKind::KeepShardZero => {
                    merged[mi] = partials[0][mi].clone();
                }
            }
        }
        Ok((merged, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{self, DenseParams, LrmfParams};
    use dana_ml::merge::merge_members;
    use dana_storage::TupleBatch;

    fn dense_spec(elements: usize) -> MergeSpec {
        MergeSpec {
            kinds: vec![ModelMergeKind::WeightedAverage],
            shapes: vec![(1, elements)],
        }
    }

    /// The rows `tuples` index in each row-owned model of `spec`.
    fn owned(spec: &MergeSpec, tuples: &TupleBatch) -> ShardOwnership {
        let mut own = ShardOwnership::for_spec(spec);
        for ((_, bits), (_, column, _)) in own.per_model.iter_mut().zip(spec.ownership_columns()) {
            tuples.rows().for_each(|r| bits[r[column] as usize] = true);
        }
        own
    }

    /// The weighted average folds in shard order whatever the arrival
    /// order, and is what the merge oracle `dana_ml::merge` states, bit for
    /// bit, where the fold order shows: 2^60 − 2^60 + 2·1 is 2 folded in
    /// shard order and 0 the other way round.
    #[test]
    fn weighted_average_folds_in_shard_order_any_arrival_order() {
        let spec = dense_spec(3);
        let big = (1u64 << 60) as f32;
        let partials: Vec<Vec<Vec<f32>>> = vec![
            vec![vec![big, 2.0, 3.0]],
            vec![vec![-big, 6.0, 7.0]],
            vec![vec![1.0, 0.5, 2.5]],
        ];
        let weights = [1u64, 1, 2];
        let mut reference: Option<Vec<Vec<f32>>> = None;
        // Every arrival permutation must produce bit-identical output.
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut buf = MergeBuffer::new(&spec, 3, vec![vec![0.0; 3]]);
            for &s in &perm {
                buf.submit(s, partials[s].clone(), weights[s]);
            }
            let (merged, cycles) = buf.finish(&[]).unwrap();
            assert!(cycles > 0);
            match &reference {
                None => reference = Some(merged),
                Some(r) => assert_eq!(&merged, r, "arrival order {perm:?} changed the merge"),
            }
        }
        // (2^60 − 2^60 + 2·1) / 4, (2 + 6 + 2·0.5) / 4 and (3 + 7 + 2·2.5) / 4.
        let merged = reference.unwrap();
        assert_eq!(merged, [vec![0.5, 2.25, 3.75]]);
        let tuples = weights.map(|n| TupleBatch::from_rows(4, vec![[0.0f32; 4]; n as usize]));
        let members: Vec<_> = partials.into_iter().zip(&tuples).collect();
        let p = DenseParams {
            n_features: 3,
            ..DenseParams::default()
        };
        let algo = zoo::linear_regression(p).unwrap();
        assert_eq!(merge_members(&algo, &[vec![0.0; 3]], &members), merged);
    }

    #[test]
    fn one_shard_merge_is_the_identity() {
        let spec = dense_spec(4);
        let values = vec![vec![0.1f32, -0.2, 0.3, f32::MIN_POSITIVE]];
        let mut buf = MergeBuffer::new(&spec, 1, vec![vec![9.0; 4]]);
        buf.submit(0, values.clone(), 77);
        let (merged, cycles) = buf.finish(&[]).unwrap();
        assert_eq!(merged, values, "identity, bit for bit");
        assert_eq!(cycles, 0, "no merge-tier cost for one shard");
    }

    /// A row one shard touches is that shard's verbatim, an untouched row
    /// stays at base and a contended row averages its touching shards in
    /// shard order — whatever the arrival order, and as the merge oracle
    /// `dana_ml::merge` states it, bit for bit: `L`'s row 2 has three
    /// owners, whose 2^60 − 2^60 + 1 is 1 folded in shard order and 0 the
    /// other way round.
    #[test]
    fn row_ownership_copies_unique_rows_and_averages_contended_ones() {
        // LRMF's `L` (4 × 2, indexed by column 0) and `R` (1 × 2, column 1).
        let spec = MergeSpec {
            kinds: vec![
                ModelMergeKind::RowOwnership { column: 0 },
                ModelMergeKind::RowOwnership { column: 1 },
            ],
            shapes: vec![(4, 2), (1, 2)],
        };
        let p = LrmfParams {
            rows: 4,
            cols: 1,
            rank: 2,
            ..LrmfParams::default()
        };
        let algo = zoo::lrmf(p).unwrap();
        // Shard 0 rates rows 0 and 2, shard 1 rows 2 and 3, shard 2 row 2;
        // all of them column 0.
        let tuples = [[0.0, 2.0], [2.0, 3.0], [2.0, 2.0]]
            .map(|rows| TupleBatch::from_rows(3, rows.map(|i| [i, 0.0, 1.0])));
        let big = (1u64 << 60) as f32;
        let partials = [
            vec![vec![0.0, 0.1, 9.0, 9.0, big, 0.5, 9.0, 9.0], vec![1.0, 2.0]],
            vec![
                vec![9.0, 9.0, 9.0, 9.0, -big, 10.5, 10.6, 10.7],
                vec![3.0, 4.0],
            ],
            vec![vec![9.0, 9.0, 9.0, 9.0, 1.0, 2.0, 9.0, 9.0], vec![5.0, 9.0]],
        ];
        let base = vec![vec![-1.0; 8], vec![-1.0; 2]];
        let third = |sum: f64| (sum / 3.0) as f32;
        let expected = vec![
            vec![0.0, 0.1, -1.0, -1.0, third(1.0), third(13.0), 10.6, 10.7],
            vec![3.0, 5.0],
        ];
        let ownership: Vec<_> = tuples.iter().map(|t| owned(&spec, t)).collect();
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut buf = MergeBuffer::new(&spec, 3, base.clone());
            for s in order {
                buf.submit(s, partials[s].clone(), 10);
            }
            let (merged, cycles) = buf.finish(&ownership).unwrap();
            assert_eq!(merged, expected, "arrival order {order:?}");
            assert!(cycles > 0);
        }
        let members: Vec<_> = partials.into_iter().zip(&tuples).collect();
        assert_eq!(merge_members(&algo, &base, &members), expected);
    }

    #[test]
    fn missing_or_misshapen_partials_are_typed_errors() {
        let spec = dense_spec(2);
        let buf = MergeBuffer::new(&spec, 2, vec![vec![0.0; 2]]);
        assert!(matches!(buf.finish(&[]), Err(ParallelError::ModelShape(_))));
        let mut buf = MergeBuffer::new(&spec, 1, vec![vec![0.0; 2]]);
        buf.submit(0, vec![vec![1.0; 3]], 1);
        assert!(matches!(buf.finish(&[]), Err(ParallelError::ModelShape(_))));
    }
}
