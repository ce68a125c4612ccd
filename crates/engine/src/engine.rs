//! The multi-threaded execution engine: the compiled design, the model
//! store, and the entry points of the one training executor.
//!
//! "Our reconfigurable execution engine architecture can run multiple
//! threads of parallel update rules for different data tuples. ... Results
//! across the threads are combined via a computationally-enabled tree bus
//! in accordance to the merge function." (§5.2)
//!
//! Execution is batch-structured: each batch assigns one tuple per thread,
//! runs the per-tuple program on every (active) thread in lockstep, merges
//! the designated variable on the tree bus, runs the post-merge program on
//! the merge result, and writes the model back. Cycle accounting follows
//! the static schedule: the paper's §6.1 estimator works *because*
//! "the hDFG does not change, there is no hardware managed cache, and the
//! accelerator architecture is fixed during execution" — properties the
//! lowered executor ([`crate::lowered`]) preserves exactly.

use dana_dsl::MergeOp;
use dana_storage::{OneBatchSource, TupleBatch, TupleSource};

use crate::error::{EngineError, EngineResult};
use crate::isa::{AluOp, EngineProgram, Loc, MicroOp, Src, AUS_PER_AC};
use crate::lowered::{lower, LoweredProgram};

/// Shared-bus width in f32 elements per cycle, for model write-back and
/// broadcast (a 512-bit data bus).
pub const BUS_WORDS: u64 = 16;

/// Concurrent ports on the row-indexed model memory (BRAM banking).
/// Gathers and row scatters from different threads contend for these —
/// the structural reason LRMF "does not experience a higher performance
/// with increasing number of threads" (§7.2, Fig. 12).
pub const MODEL_PORTS: u64 = 4;

/// A dense or row-indexed model variable held in on-chip model memory.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelDesc {
    pub name: String,
    /// Rows (1 for flat vectors/scalars treated as a single row).
    pub rows: usize,
    /// Elements per row.
    pub cols: usize,
    /// For dense models: the per-thread scratchpad locations holding the
    /// model's elements (row-major), refreshed by broadcast each batch.
    /// Row-indexed (LRMF) models gather rows on demand instead.
    pub broadcast_slots: Option<Vec<Loc>>,
}

impl ModelDesc {
    pub fn elements(&self) -> usize {
        self.rows * self.cols
    }
}

/// How threads' results combine at the batch boundary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MergePlan {
    /// No merge: single-threaded designs.
    None,
    /// Combine the variable at `slots` (per-thread locations) into thread
    /// 0's copies with `op` on the tree bus.
    Whole { op: MergeOp, slots: Vec<Loc> },
}

/// A model write-back performed at the end of each batch.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ModelWrite {
    /// The whole model becomes the values at `src` (read from thread 0
    /// after the post-merge program).
    Whole { model: u8, src: Vec<Loc> },
    /// Row scatter (LRMF): each *active thread* writes its computed row
    /// `src` to `model[index]`, applied in thread order on the tree bus.
    Row {
        model: u8,
        index: Loc,
        src: Vec<Loc>,
    },
}

/// Convergence control.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConvergenceCheck {
    /// Fixed number of epochs.
    Epochs(u32),
    /// Stop when thread 0's `slot` is non-zero at an epoch boundary, with a
    /// cap.
    Condition { slot: Loc, max_epochs: u32 },
}

impl ConvergenceCheck {
    pub fn max_epochs(&self) -> u32 {
        match self {
            ConvergenceCheck::Epochs(n) => *n,
            ConvergenceCheck::Condition { max_epochs, .. } => *max_epochs,
        }
    }
}

/// The complete compiled engine design: architecture parameters plus the
/// program and all data bindings. Produced by `dana-compiler`, held (inside
/// the engine built from it) by the accelerator's catalog entry, executed
/// here.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineDesign {
    pub num_threads: u16,
    pub acs_per_thread: u16,
    pub slots_per_au: u16,
    /// Inter-AC bus lanes available per step.
    pub bus_lanes: u16,
    pub program: EngineProgram,
    /// Where each element of the concatenated input vector is loaded.
    pub input_slots: Vec<Loc>,
    /// Where each label element is loaded.
    pub output_slots: Vec<Loc>,
    /// Meta constants preloaded once per deployment.
    pub meta: Vec<(Loc, f32)>,
    pub models: Vec<ModelDesc>,
    pub merge: MergePlan,
    pub model_writes: Vec<ModelWrite>,
    pub convergence: ConvergenceCheck,
}

impl EngineDesign {
    pub fn aus_per_thread(&self) -> u16 {
        self.acs_per_thread * AUS_PER_AC
    }
}

/// Global model storage (the BRAM-resident model memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStore {
    values: Vec<Vec<f32>>,
}

impl ModelStore {
    /// Initializes storage for `design` with the provided initial values
    /// (one vec per model, row-major).
    pub fn new(design: &EngineDesign, init: Vec<Vec<f32>>) -> EngineResult<ModelStore> {
        if init.len() != design.models.len() {
            return Err(EngineError::ModelShape(format!(
                "{} models supplied, design has {}",
                init.len(),
                design.models.len()
            )));
        }
        for (v, m) in init.iter().zip(&design.models) {
            if v.len() != m.elements() {
                return Err(EngineError::ModelShape(format!(
                    "model '{}' has {} elements, got {}",
                    m.name,
                    m.elements(),
                    v.len()
                )));
            }
        }
        Ok(ModelStore { values: init })
    }

    /// Zero-initialized storage.
    pub fn zeroed(design: &EngineDesign) -> ModelStore {
        ModelStore {
            values: design
                .models
                .iter()
                .map(|m| vec![0.0; m.elements()])
                .collect(),
        }
    }

    pub fn model(&self, idx: usize) -> &[f32] {
        &self.values[idx]
    }

    pub fn model_mut(&mut self, idx: usize) -> &mut Vec<f32> {
        &mut self.values[idx]
    }

    pub fn into_values(self) -> Vec<Vec<f32>> {
        self.values
    }
}

/// Cycle and progress counters for one training run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    pub cycles: u64,
    pub epochs_run: u32,
    pub batches: u64,
    pub tuples_processed: u64,
    pub converged_early: bool,
    /// Breakdown (sums to ≈ cycles).
    pub compute_cycles: u64,
    pub merge_cycles: u64,
    pub broadcast_cycles: u64,
}

/// The execution engine: a validated design plus its deploy-time
/// lowering.
///
/// There is one training executor: [`ExecutionEngine::run_training`]
/// executes the pre-resolved [`LoweredProgram`] group-at-a-time over a
/// slot-major SoA scratchpad — no per-op operand dispatch, no index
/// arithmetic, no hazard branches. There is one oracle, the DSL
/// interpreter `dana_ml::interp`, which reads the program rather than its
/// `MicroOp`s: the differential suites hold the executor's models
/// bit-identical to it and its cycle stats to
/// [`ExecutionEngine::estimated_batch_cycles`].
///
/// Construction is the expensive step (validation + lowering); it happens
/// once at DEPLOY and the engine is then shared immutably (`Arc`) across
/// any number of concurrent queries.
#[derive(Debug)]
pub struct ExecutionEngine {
    pub(crate) design: EngineDesign,
    /// Model-row elements gathered per tuple by the per-tuple program
    /// (precomputed for port-contention accounting).
    pub(crate) gather_elems: u64,
    /// The deploy-time lowering of `design` (the program that runs).
    lowered: LoweredProgram,
}

impl ExecutionEngine {
    /// Validates the design's program against its structural constraints,
    /// runs the deploy-time lowering pass, and constructs the engine.
    pub fn new(design: EngineDesign) -> EngineResult<ExecutionEngine> {
        validate(&design)?;
        let gather_elems = design
            .program
            .per_tuple
            .iter()
            .flat_map(|s| &s.ops)
            .map(|o| match o {
                MicroOp::Gather { dst, .. } => dst.len() as u64,
                _ => 0,
            })
            .sum();
        let lowered = lower(&design);
        Ok(ExecutionEngine {
            design,
            gather_elems,
            lowered,
        })
    }

    pub fn design(&self) -> &EngineDesign {
        &self.design
    }

    /// The deploy-time lowering artifact (the program that runs).
    pub fn lowered(&self) -> &LoweredProgram {
        &self.lowered
    }

    /// Runs training to convergence (or the epoch cap), pulling tuples from
    /// a streaming [`TupleSource`], executing the deploy-time
    /// [`LoweredProgram`] group-at-a-time over the slot-major
    /// SoA scratchpad. Batches are consumed as the source produces them —
    /// typically one per buffer-pool page — so extraction and compute
    /// interleave exactly as the paper's access/execution engine pipeline
    /// does (§5.1.1). Thread groups are formed across batch boundaries:
    /// the trained model is a pure function of the tuple stream, never of
    /// how the source happened to batch it.
    ///
    /// At each epoch boundary the source is rewound: it streams the same
    /// tuples again.
    /// `store` holds the models and receives the result.
    ///
    /// This is the quiet loop over one [`crate::lowered::TrainingSession`]
    /// — no token, no fault plan, no merge — that the backends and the
    /// tests call. No statement reaches it: every
    /// EXECUTE runs `dana_parallel`'s guarded gang loop, whose one-member
    /// case is held bit-identical to this loop in models and stats.
    pub fn run_training(
        &self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<EngineStats> {
        let mut session = self.training_session();
        let max_epochs = self.design.convergence.max_epochs();
        let mut epochs_run = 0u32;
        let mut converged = false;
        while epochs_run < max_epochs && !converged {
            if epochs_run > 0 {
                source.rewind()?;
            }
            converged = session.run_epoch(source, store)?;
            epochs_run += 1;
        }
        Ok(session.finish(epochs_run, converged).0)
    }

    /// Starts an epoch-at-a-time [`crate::lowered::TrainingSession`] over
    /// the deploy-time lowering. [`ExecutionEngine::run_training`] runs
    /// one of these; the guarded gang loop runs one per member and merges
    /// models at every epoch boundary.
    pub fn training_session(&self) -> crate::lowered::TrainingSession<'_> {
        crate::lowered::TrainingSession::new(&self.lowered, self.design.num_threads as usize)
    }

    /// [`ExecutionEngine::run_training`] over one materialized batch.
    pub fn run_training_batch(
        &self,
        batch: &TupleBatch,
        store: &mut ModelStore,
    ) -> EngineResult<EngineStats> {
        self.run_training(&mut OneBatchSource::new(batch), store)
    }

    /// Static cycle estimate of one epoch over `tuples` tuples: every full
    /// thread group, and the ragged last one at its own size — what the
    /// compiler's estimator ranks designs by and bind prices a run with.
    pub fn estimated_epoch_cycles(&self, tuples: u64) -> u64 {
        let threads = u64::from(self.design.num_threads.max(1));
        let ragged = match tuples % threads {
            0 => 0,
            rem => self.estimated_batch_cycles(rem as usize),
        };
        tuples / threads * self.estimated_batch_cycles(threads as usize) + ragged
    }

    /// Static per-batch cycle estimate (tests pin it to the executor's
    /// accounting).
    pub fn estimated_batch_cycles(&self, active: usize) -> u64 {
        let d = &self.design;
        let mut c = d.program.per_tuple_cycles() + d.program.post_merge_cycles();
        if let MergePlan::Whole { slots, .. } = &d.merge {
            if active > 1 {
                c += slots.len() as u64 + (64 - (active as u64 - 1).leading_zeros() as u64);
            }
        }
        for m in &d.models {
            if m.broadcast_slots.is_some() {
                c += (m.elements() as u64).div_ceil(BUS_WORDS);
            }
        }
        for w in &d.model_writes {
            match w {
                ModelWrite::Whole { src, .. } => c += (src.len() as u64).div_ceil(BUS_WORDS),
                ModelWrite::Row { src, .. } => {
                    c += (active as u64 * src.len() as u64).div_ceil(MODEL_PORTS)
                }
            }
        }
        if self.gather_elems > 0 {
            c += (active as u64 * self.gather_elems).div_ceil(MODEL_PORTS);
        }
        c
    }
}

/// Structural validation of a design's program.
fn validate(d: &EngineDesign) -> EngineResult<()> {
    let aus = d.aus_per_thread();
    let check_loc = |loc: &Loc| -> EngineResult<()> {
        if loc.au >= aus {
            return Err(EngineError::BadAu {
                au: loc.au,
                aus_per_thread: aus,
            });
        }
        if loc.slot >= d.slots_per_au {
            return Err(EngineError::BadSlot {
                slot: loc.slot,
                slots: d.slots_per_au,
            });
        }
        Ok(())
    };
    let check_src = |src: &Src| -> EngineResult<()> {
        if let Src::Slot(l) = src {
            check_loc(l)?;
        }
        Ok(())
    };
    for (si, step) in d
        .program
        .per_tuple
        .iter()
        .chain(&d.program.post_merge)
        .enumerate()
    {
        let mut used: Vec<u16> = Vec::new();
        for op in &step.ops {
            for au in op.occupied_aus() {
                if au >= aus {
                    return Err(EngineError::BadAu {
                        au,
                        aus_per_thread: aus,
                    });
                }
                if used.contains(&au) {
                    return Err(EngineError::AuConflict { step: si, au });
                }
                used.push(au);
            }
            match op {
                MicroOp::Alu {
                    au,
                    op: alu,
                    a,
                    b,
                    dst,
                } => {
                    check_src(a)?;
                    check_src(b)?;
                    check_loc(&Loc::new(*au, *dst))?;
                    if *alu != AluOp::Mov {
                        for s in [a, b] {
                            if let Src::Slot(l) = s {
                                if l.ac() != au / AUS_PER_AC {
                                    return Err(EngineError::CrossClusterRead {
                                        step: si,
                                        au: *au,
                                        src_au: l.au,
                                    });
                                }
                            }
                        }
                    }
                }
                MicroOp::Gather { model, index, dst } => {
                    if *model as usize >= d.models.len() {
                        return Err(EngineError::BadModel(*model));
                    }
                    check_src(index)?;
                    for l in dst {
                        check_loc(l)?;
                    }
                }
            }
        }
        let movs = step.cross_cluster_movs();
        if movs > d.bus_lanes as usize {
            return Err(EngineError::BusOversubscribed {
                step: si,
                movs,
                lanes: d.bus_lanes as usize,
            });
        }
    }
    for (loc, _) in &d.meta {
        check_loc(loc)?;
    }
    for loc in d.input_slots.iter().chain(&d.output_slots) {
        check_loc(loc)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Step;

    /// Hand-scheduled 2-feature linear regression:
    ///   per-tuple:  p_k = w_k * x_k; s = p_0 + p_1; er = s − y; g_k = er·x_k
    ///   merge:      Σ g over threads
    ///   post-merge: w_k ← w_k − lr·g_k
    /// Slot map (per AU): 0 = x_k, 1 = w_k, 2 = p/er/g scratch, 3 = y,
    /// 4 = updated w.
    fn linreg_design(num_threads: u16) -> EngineDesign {
        let alu = |au, op, a, b, dst| MicroOp::Alu { au, op, a, b, dst };
        let s = |au, slot| Src::Slot(Loc::new(au, slot));
        let per_tuple = vec![
            Step {
                ops: vec![
                    alu(0, AluOp::Mul, s(0, 0), s(0, 1), 2),
                    alu(1, AluOp::Mul, s(1, 0), s(1, 1), 2),
                ],
            },
            Step {
                ops: vec![alu(0, AluOp::Add, s(0, 2), s(1, 2), 2)],
            },
            Step {
                ops: vec![alu(0, AluOp::Sub, s(0, 2), s(0, 3), 2)],
            },
            Step {
                ops: vec![
                    alu(0, AluOp::Mul, s(0, 2), s(0, 0), 2),
                    alu(1, AluOp::Mul, s(0, 2), s(1, 0), 2),
                ],
            },
        ];
        let lr = 0.05f32;
        let post_merge = vec![
            Step {
                ops: vec![
                    alu(0, AluOp::Mul, Src::Const(lr), s(0, 2), 2),
                    alu(1, AluOp::Mul, Src::Const(lr), s(1, 2), 2),
                ],
            },
            Step {
                ops: vec![
                    alu(0, AluOp::Sub, s(0, 1), s(0, 2), 4),
                    alu(1, AluOp::Sub, s(1, 1), s(1, 2), 4),
                ],
            },
        ];
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple,
                post_merge,
            },
            input_slots: vec![Loc::new(0, 0), Loc::new(1, 0)],
            output_slots: vec![Loc::new(0, 3)],
            meta: vec![],
            models: vec![ModelDesc {
                name: "w".into(),
                rows: 1,
                cols: 2,
                broadcast_slots: Some(vec![Loc::new(0, 1), Loc::new(1, 1)]),
            }],
            merge: MergePlan::Whole {
                op: MergeOp::Sum,
                slots: vec![Loc::new(0, 2), Loc::new(1, 2)],
            },
            model_writes: vec![ModelWrite::Whole {
                model: 0,
                src: vec![Loc::new(0, 4), Loc::new(1, 4)],
            }],
            convergence: ConvergenceCheck::Epochs(1),
        }
    }

    /// Software reference for the same batched GD step.
    fn reference_epoch(tuples: &[Vec<f32>], w: &mut [f32; 2], threads: usize, lr: f32) {
        for batch in tuples.chunks(threads) {
            let mut g = [0.0f32; 2];
            for t in batch {
                let s = w[0] * t[0] + w[1] * t[1];
                let er = s - t[2];
                g[0] += er * t[0];
                g[1] += er * t[1];
            }
            w[0] -= lr * g[0];
            w[1] -= lr * g[1];
        }
    }

    fn make_tuples(n: usize) -> Vec<Vec<f32>> {
        // y = 2x0 − x1 with deterministic inputs.
        (0..n)
            .map(|k| {
                let x0 = (k % 7) as f32 * 0.25;
                let x1 = (k % 5) as f32 * 0.5 - 1.0;
                vec![x0, x1, 2.0 * x0 - x1]
            })
            .collect()
    }

    fn batch_of(tuples: &[Vec<f32>]) -> TupleBatch {
        TupleBatch::from_rows(tuples[0].len(), tuples)
    }

    /// Test source yielding a fixed sequence of batches per scan — used to
    /// prove batch boundaries are invisible to training.
    struct ChunkedSource {
        batches: Vec<TupleBatch>,
        next: usize,
    }

    impl ChunkedSource {
        fn new(tuples: &[Vec<f32>], chunk: usize) -> ChunkedSource {
            ChunkedSource {
                batches: tuples.chunks(chunk).map(batch_of).collect(),
                next: 0,
            }
        }
    }

    impl TupleSource for ChunkedSource {
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

    #[test]
    fn engine_matches_software_reference_single_thread() {
        let design = linreg_design(1);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let tuples = make_tuples(40);
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        engine
            .run_training_batch(&batch_of(&tuples), &mut store)
            .unwrap();
        let mut w = [0.0f32; 2];
        reference_epoch(&tuples, &mut w, 1, 0.05);
        let got = store.model(0);
        assert!((got[0] - w[0]).abs() < 1e-5, "{got:?} vs {w:?}");
        assert!((got[1] - w[1]).abs() < 1e-5);
    }

    #[test]
    fn engine_matches_software_reference_multi_thread() {
        for threads in [2u16, 4, 8] {
            let design = linreg_design(threads);
            let engine = ExecutionEngine::new(design.clone()).unwrap();
            let tuples = make_tuples(50); // non-divisible: final partial group
            let mut store = ModelStore::new(&design, vec![vec![0.1, -0.1]]).unwrap();
            let stats = engine
                .run_training_batch(&batch_of(&tuples), &mut store)
                .unwrap();
            let mut w = [0.1f32, -0.1];
            reference_epoch(&tuples, &mut w, threads as usize, 0.05);
            let got = store.model(0);
            assert!(
                (got[0] - w[0]).abs() < 1e-4,
                "threads {threads}: {got:?} vs {w:?}"
            );
            assert!((got[1] - w[1]).abs() < 1e-4);
            assert_eq!(stats.tuples_processed, 50);
            assert_eq!(stats.batches, 50u64.div_ceil(threads as u64));
        }
    }

    #[test]
    fn training_reduces_loss() {
        let design = linreg_design(4);
        let mut design = design;
        design.convergence = ConvergenceCheck::Epochs(30);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let tuples = make_tuples(64);
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        engine
            .run_training_batch(&batch_of(&tuples), &mut store)
            .unwrap();
        let w = store.model(0);
        // True model is (2, −1).
        assert!((w[0] - 2.0).abs() < 0.1, "w = {w:?}");
        assert!((w[1] + 1.0).abs() < 0.1, "w = {w:?}");
    }

    #[test]
    fn more_threads_fewer_cycles() {
        let tuples = make_tuples(256);
        let mut cycles = Vec::new();
        for threads in [1u16, 4, 16] {
            let design = linreg_design(threads);
            let engine = ExecutionEngine::new(design.clone()).unwrap();
            let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
            let stats = engine
                .run_training_batch(&batch_of(&tuples), &mut store)
                .unwrap();
            cycles.push(stats.cycles);
        }
        assert!(cycles[1] < cycles[0], "{cycles:?}");
        assert!(cycles[2] < cycles[1], "{cycles:?}");
    }

    #[test]
    fn batch_boundaries_are_invisible() {
        // The same 150-tuple stream delivered as page-sized chunks, as
        // pathological 1-row batches, with an empty batch mid-stream and in
        // chunks wider than a thread group must train identically to the
        // one-batch run — bit for bit, stats included.
        let tuples = make_tuples(150);
        for threads in [1u16, 4, 8] {
            let design = linreg_design(threads);
            let engine = ExecutionEngine::new(design.clone()).unwrap();
            let mut one_store = ModelStore::new(&design, vec![vec![0.1, -0.1]]).unwrap();
            let one_stats = engine
                .run_training_batch(&batch_of(&tuples), &mut one_store)
                .unwrap();
            for (chunk, empty_mid) in [
                (1usize, false),
                (3, false),
                (7, false),
                (7, true),
                (64, false),
            ] {
                let mut source = ChunkedSource::new(&tuples, chunk);
                if empty_mid {
                    source.batches.insert(11, TupleBatch::new(3));
                }
                let mut store = ModelStore::new(&design, vec![vec![0.1, -0.1]]).unwrap();
                let stats = engine.run_training(&mut source, &mut store).unwrap();
                let case = format!("threads {threads}, chunk {chunk}, empty {empty_mid}");
                assert_eq!(store, one_store, "{case}");
                assert_eq!(stats, one_stats, "{case}");
            }
        }
    }

    #[test]
    fn multi_epoch_streaming_rewinds_the_source() {
        let mut design = linreg_design(4);
        design.convergence = ConvergenceCheck::Epochs(5);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let tuples = make_tuples(30);
        let mut one_store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let one_stats = engine
            .run_training_batch(&batch_of(&tuples), &mut one_store)
            .unwrap();
        let mut source = ChunkedSource::new(&tuples, 4);
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let stats = engine.run_training(&mut source, &mut store).unwrap();
        assert_eq!(stats.epochs_run, 5);
        assert_eq!(stats.tuples_processed, 150);
        assert_eq!(store, one_store);
        assert_eq!(stats, one_stats);
    }

    #[test]
    fn stats_match_static_estimate() {
        let design = linreg_design(4);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let tuples = make_tuples(16); // 4 full groups
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let stats = engine
            .run_training_batch(&batch_of(&tuples), &mut store)
            .unwrap();
        let per_batch = engine.estimated_batch_cycles(4);
        assert_eq!(stats.cycles, 4 * per_batch);
    }

    /// The epoch estimate bind prices a run with: full groups at the
    /// design's width, the ragged last one at its own, every epoch alike.
    #[test]
    fn estimated_epoch_cycles_charge_full_and_ragged_groups() {
        let mut design = linreg_design(4);
        design.convergence = ConvergenceCheck::Epochs(3);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let tuples = make_tuples(18); // 4 full groups and a ragged pair
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let mut source = ChunkedSource::new(&tuples, 5);
        let stats = engine.run_training(&mut source, &mut store).unwrap();
        assert_eq!(stats.epochs_run, 3);
        let epoch = engine.estimated_epoch_cycles(18);
        assert_eq!(stats.cycles, 3 * epoch);
        let ragged = engine.estimated_batch_cycles(2);
        assert_eq!(epoch, 4 * engine.estimated_batch_cycles(4) + ragged);
        assert!(engine.estimated_epoch_cycles(16) < epoch);
        assert_eq!(engine.estimated_epoch_cycles(0), 0);
        // One lane retires the same tuples in more cycles.
        let serial = ExecutionEngine::new(linreg_design(1)).unwrap();
        assert!(serial.estimated_epoch_cycles(18) > epoch);
    }

    #[test]
    fn gather_scatter_round_trip() {
        // The two ways a design touches a row model: gather row j of a 4×2
        // model in the region, add 1 to each element, and write the row
        // back after the region (`ModelWrite::Row`).
        let alu = |au, op, a, b, dst| MicroOp::Alu { au, op, a, b, dst };
        let s = |au, slot| Src::Slot(Loc::new(au, slot));
        let design = EngineDesign {
            num_threads: 1,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![
                    Step {
                        ops: vec![MicroOp::Gather {
                            model: 0,
                            index: s(0, 0),
                            dst: vec![Loc::new(0, 1), Loc::new(0, 2)],
                        }],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Add, s(0, 1), Src::Const(1.0), 1)],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Add, s(0, 2), Src::Const(1.0), 2)],
                    },
                ],
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![],
            meta: vec![],
            models: vec![ModelDesc {
                name: "L".into(),
                rows: 4,
                cols: 2,
                broadcast_slots: None,
            }],
            merge: MergePlan::None,
            model_writes: vec![ModelWrite::Row {
                model: 0,
                index: Loc::new(0, 0),
                src: vec![Loc::new(0, 1), Loc::new(0, 2)],
            }],
            convergence: ConvergenceCheck::Epochs(1),
        };
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let init = vec![(0..8).map(|v| v as f32).collect::<Vec<f32>>()];
        let mut store = ModelStore::new(&design, init).unwrap();
        // Touch rows 2 and 0.
        engine
            .run_training_batch(&batch_of(&[vec![2.0], vec![0.0]]), &mut store)
            .unwrap();
        assert_eq!(store.model(0), &[1.0, 2.0, 2.0, 3.0, 5.0, 6.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_out_of_range_is_an_error() {
        let design = EngineDesign {
            num_threads: 1,
            acs_per_thread: 1,
            slots_per_au: 4,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![Step {
                    ops: vec![MicroOp::Gather {
                        model: 0,
                        index: Src::Slot(Loc::new(0, 0)),
                        dst: vec![Loc::new(0, 1)],
                    }],
                }],
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![],
            meta: vec![],
            models: vec![ModelDesc {
                name: "L".into(),
                rows: 2,
                cols: 1,
                broadcast_slots: None,
            }],
            merge: MergePlan::None,
            model_writes: vec![],
            convergence: ConvergenceCheck::Epochs(1),
        };
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let mut store = ModelStore::zeroed(&design);
        let err = engine
            .run_training_batch(&batch_of(&[vec![5.0]]), &mut store)
            .unwrap_err();
        assert!(matches!(err, EngineError::RowOutOfRange { .. }));
    }

    #[test]
    fn validation_catches_au_conflict() {
        let mut design = linreg_design(1);
        design.program.per_tuple[0].ops.push(MicroOp::Alu {
            au: 0,
            op: AluOp::Add,
            a: Src::Const(0.0),
            b: Src::Const(0.0),
            dst: 5,
        });
        assert!(matches!(
            ExecutionEngine::new(design),
            Err(EngineError::AuConflict { .. })
        ));
    }

    #[test]
    fn validation_catches_cross_cluster_read() {
        let mut design = linreg_design(1);
        design.acs_per_thread = 2;
        // AU 0 (cluster 0) adding from AU 9 (cluster 1) without a Mov.
        design.program.per_tuple[0].ops[0] = MicroOp::Alu {
            au: 0,
            op: AluOp::Add,
            a: Src::Slot(Loc::new(9, 0)),
            b: Src::Const(0.0),
            dst: 0,
        };
        assert!(matches!(
            ExecutionEngine::new(design),
            Err(EngineError::CrossClusterRead { .. })
        ));
    }

    #[test]
    fn validation_catches_bus_oversubscription() {
        let mut design = linreg_design(1);
        design.acs_per_thread = 2;
        design.bus_lanes = 1;
        design.program.per_tuple[0] = Step {
            ops: vec![
                MicroOp::Alu {
                    au: 0,
                    op: AluOp::Mov,
                    a: Src::Slot(Loc::new(8, 0)),
                    b: Src::Const(0.0),
                    dst: 0,
                },
                MicroOp::Alu {
                    au: 1,
                    op: AluOp::Mov,
                    a: Src::Slot(Loc::new(9, 0)),
                    b: Src::Const(0.0),
                    dst: 0,
                },
            ],
        };
        assert!(matches!(
            ExecutionEngine::new(design),
            Err(EngineError::BusOversubscribed { .. })
        ));
    }

    #[test]
    fn validation_catches_bad_slot_and_au() {
        let mut design = linreg_design(1);
        design.program.per_tuple[0].ops[0] = MicroOp::Alu {
            au: 0,
            op: AluOp::Add,
            a: Src::Slot(Loc::new(0, 99)),
            b: Src::Const(0.0),
            dst: 0,
        };
        assert!(matches!(
            ExecutionEngine::new(design),
            Err(EngineError::BadSlot { .. })
        ));
        let mut design = linreg_design(1);
        design.program.per_tuple[0].ops[0] = MicroOp::Alu {
            au: 42,
            op: AluOp::Add,
            a: Src::Const(0.0),
            b: Src::Const(0.0),
            dst: 0,
        };
        assert!(matches!(
            ExecutionEngine::new(design),
            Err(EngineError::BadAu { .. })
        ));
    }

    #[test]
    fn tuple_width_checked() {
        let design = linreg_design(1);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let mut store = ModelStore::zeroed(&design);
        let err = engine
            .run_training_batch(&batch_of(&[vec![1.0, 2.0]]), &mut store)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::TupleWidth {
                got: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn convergence_condition_stops_early() {
        // Condition slot: constant 1.0 written every batch → converges after
        // epoch 1 despite a 100-epoch cap.
        let mut design = linreg_design(1);
        design.program.post_merge.push(Step {
            ops: vec![MicroOp::Alu {
                au: 0,
                op: AluOp::Mov,
                a: Src::Const(1.0),
                b: Src::Const(0.0),
                dst: 6,
            }],
        });
        design.convergence = ConvergenceCheck::Condition {
            slot: Loc::new(0, 6),
            max_epochs: 100,
        };
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let mut store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let stats = engine
            .run_training_batch(&batch_of(&make_tuples(8)), &mut store)
            .unwrap();
        assert_eq!(stats.epochs_run, 1);
        assert!(stats.converged_early);
    }

    #[test]
    fn model_store_shape_checked() {
        let design = linreg_design(1);
        assert!(ModelStore::new(&design, vec![vec![0.0; 3]]).is_err());
        assert!(ModelStore::new(&design, vec![]).is_err());
        assert!(ModelStore::new(&design, vec![vec![0.0; 2]]).is_ok());
    }
}
