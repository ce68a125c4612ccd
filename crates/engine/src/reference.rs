//! The rows reference: a direct `MicroOp` interpreter the lowered executor
//! ([`crate::lowered`]) is held bit-identical to — models *and* cycle
//! stats.
//!
//! No statement can reach this module. Its callers are
//! `tests/equivalence.rs`, `tests/lowered_differential.rs`, this crate's
//! unit tests, `dana::reference` (the end-to-end reference those suites
//! drive) and the `micro` bench's `data_path/per_tuple_reference` row.
//!
//! Nested thread→AU→slot scratchpads and a per-step write vec: written
//! independently of `lowered.rs` on purpose, so a bug in the lowering
//! (offset resolution, hazard staging, constant folding) cannot be
//! mirrored here.

use dana_dsl::MergeOp;

use crate::engine::{
    ConvergenceCheck, EngineStats, ExecutionEngine, MergePlan, ModelStore, ModelWrite, BUS_WORDS,
    MODEL_PORTS,
};
use crate::error::{EngineError, EngineResult};
use crate::isa::{Loc, MicroOp, Src, Step};

impl ExecutionEngine {
    /// Nested per-thread scratchpad for the retained reference path
    /// (thread → AU → slot, the pre-streaming representation).
    fn fresh_thread_memory_rows(&self) -> Vec<Vec<Vec<f32>>> {
        let d = &self.design;
        let mut mem: Vec<Vec<Vec<f32>>> = (0..d.num_threads)
            .map(|_| vec![vec![0.0f32; d.slots_per_au as usize]; d.aus_per_thread() as usize])
            .collect();
        for m in &mut mem {
            for (loc, v) in &d.meta {
                m[loc.au as usize][loc.slot as usize] = *v;
            }
        }
        mem
    }

    /// The reference: per-tuple `MicroOp` interpretation over `Vec<f32>`
    /// rows, every step's writes staged (register-file semantics, no
    /// hazard analysis). The differential suites hold `run_training` to
    /// bit-identical models and stats against it. Never used on the
    /// deploy/execute path.
    pub fn run_training_rows(
        &self,
        tuples: &[Vec<f32>],
        store: &mut ModelStore,
    ) -> EngineResult<EngineStats> {
        let d = &self.design;
        let width = d.input_slots.len() + d.output_slots.len();
        for t in tuples {
            if t.len() != width {
                return Err(EngineError::TupleWidth {
                    got: t.len(),
                    expected: width,
                });
            }
        }
        let mut mem = self.fresh_thread_memory_rows();
        let mut stats = EngineStats::default();
        let max_epochs = d.convergence.max_epochs();
        for _epoch in 0..max_epochs {
            let converged = self.run_epoch_rows(tuples, store, &mut mem, &mut stats)?;
            stats.epochs_run += 1;
            if converged {
                stats.converged_early = true;
                break;
            }
        }
        Ok(stats)
    }

    /// One epoch of the reference rows path: chunk by thread count, run the
    /// per-tuple program on every active thread, merge, post-merge, write.
    fn run_epoch_rows(
        &self,
        tuples: &[Vec<f32>],
        store: &mut ModelStore,
        mem: &mut [Vec<Vec<f32>>],
        stats: &mut EngineStats,
    ) -> EngineResult<bool> {
        let d = &self.design;
        let threads = d.num_threads as usize;
        for batch in tuples.chunks(threads.max(1)) {
            self.broadcast_models_rows(store, mem, stats);
            for (t, tuple) in batch.iter().enumerate() {
                self.load_tuple_rows(&mut mem[t], tuple);
                self.exec_steps_rows(&d.program.per_tuple, t, mem, store)?;
            }
            stats.compute_cycles += d.program.per_tuple_cycles();
            if self.gather_elems > 0 {
                stats.merge_cycles +=
                    (batch.len() as u64 * self.gather_elems).div_ceil(MODEL_PORTS);
            }
            stats.merge_cycles += self.merge_rows(batch.len(), mem);
            self.exec_steps_rows(&d.program.post_merge, 0, mem, store)?;
            stats.compute_cycles += d.program.post_merge_cycles();
            stats.merge_cycles += self.write_models_rows(batch.len(), mem, store)?;
            stats.batches += 1;
            stats.tuples_processed += batch.len() as u64;
        }
        stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
        if let ConvergenceCheck::Condition { slot, .. } = &d.convergence {
            let v = mem[0][slot.au as usize][slot.slot as usize];
            return Ok(v != 0.0);
        }
        Ok(false)
    }

    fn broadcast_models_rows(
        &self,
        store: &ModelStore,
        mem: &mut [Vec<Vec<f32>>],
        stats: &mut EngineStats,
    ) {
        for (mi, mdesc) in self.design.models.iter().enumerate() {
            let Some(slots) = &mdesc.broadcast_slots else {
                continue;
            };
            let values = store.model(mi);
            for m in mem.iter_mut() {
                for (loc, v) in slots.iter().zip(values) {
                    m[loc.au as usize][loc.slot as usize] = *v;
                }
            }
            stats.broadcast_cycles += (values.len() as u64).div_ceil(BUS_WORDS);
        }
    }

    fn load_tuple_rows(&self, thread_mem: &mut [Vec<f32>], tuple: &[f32]) {
        let d = &self.design;
        for (k, loc) in d.input_slots.iter().enumerate() {
            thread_mem[loc.au as usize][loc.slot as usize] = tuple[k];
        }
        let base = d.input_slots.len();
        for (k, loc) in d.output_slots.iter().enumerate() {
            thread_mem[loc.au as usize][loc.slot as usize] = tuple[base + k];
        }
    }

    fn exec_steps_rows(
        &self,
        steps: &[Step],
        thread: usize,
        mem: &mut [Vec<Vec<f32>>],
        store: &ModelStore,
    ) -> EngineResult<()> {
        for step in steps {
            // Reads happen before writes within a step (register-file
            // semantics): gather all writes first.
            let mut writes: Vec<(Loc, f32)> = Vec::with_capacity(step.ops.len());
            for op in &step.ops {
                match op {
                    MicroOp::Alu { au, op, a, b, dst } => {
                        let av = self.read_rows(&mem[thread], a);
                        let bv = self.read_rows(&mem[thread], b);
                        writes.push((Loc::new(*au, *dst), op.apply(av, bv)));
                    }
                    MicroOp::Gather { model, index, dst } => {
                        let row = self.row_index_rows(&mem[thread], index, *model)?;
                        let base = row * self.design.models[*model as usize].cols;
                        let values = store.model(*model as usize);
                        for (k, loc) in dst.iter().enumerate() {
                            writes.push((*loc, values[base + k]));
                        }
                    }
                }
            }
            for (loc, v) in writes {
                mem[thread][loc.au as usize][loc.slot as usize] = v;
            }
        }
        Ok(())
    }

    fn read_rows(&self, thread_mem: &[Vec<f32>], src: &Src) -> f32 {
        match src {
            Src::Slot(l) => thread_mem[l.au as usize][l.slot as usize],
            Src::Const(c) => *c,
        }
    }

    fn row_index_rows(
        &self,
        thread_mem: &[Vec<f32>],
        index: &Src,
        model: u8,
    ) -> EngineResult<usize> {
        let raw = self.read_rows(thread_mem, index);
        let row = raw.round() as i64;
        let rows = self.design.models[model as usize].rows;
        if row < 0 || row as usize >= rows {
            return Err(EngineError::RowOutOfRange { model, row, rows });
        }
        Ok(row as usize)
    }

    fn merge_rows(&self, active: usize, mem: &mut [Vec<Vec<f32>>]) -> u64 {
        let MergePlan::Whole { op, slots } = &self.design.merge else {
            return 0;
        };
        if active <= 1 {
            return 0;
        }
        for loc in slots {
            let mut acc = mem[0][loc.au as usize][loc.slot as usize];
            for t in mem.iter().take(active).skip(1) {
                let v = t[loc.au as usize][loc.slot as usize];
                acc = match op {
                    MergeOp::Sum | MergeOp::Avg => acc + v,
                    MergeOp::Max => acc.max(v),
                };
            }
            if *op == MergeOp::Avg {
                acc /= active as f32;
            }
            mem[0][loc.au as usize][loc.slot as usize] = acc;
        }
        slots.len() as u64 + (64 - (active as u64 - 1).leading_zeros() as u64)
    }

    fn write_models_rows(
        &self,
        active: usize,
        mem: &[Vec<Vec<f32>>],
        store: &mut ModelStore,
    ) -> EngineResult<u64> {
        let mut cycles = 0u64;
        for w in &self.design.model_writes {
            match w {
                ModelWrite::Whole { model, src } => {
                    let m = store.model_mut(*model as usize);
                    debug_assert_eq!(m.len(), src.len());
                    for (k, loc) in src.iter().enumerate() {
                        m[k] = mem[0][loc.au as usize][loc.slot as usize];
                    }
                    cycles += (src.len() as u64).div_ceil(BUS_WORDS);
                }
                ModelWrite::Row { model, index, src } => {
                    // Validate every thread's row index before charging
                    // or touching model memory: an out-of-range row must
                    // not inflate `merge_cycles` (or half-apply the
                    // scatter) on the error path.
                    let mdesc = &self.design.models[*model as usize];
                    for t_mem in mem.iter().take(active) {
                        let row = t_mem[index.au as usize][index.slot as usize].round() as i64;
                        if row < 0 || row as usize >= mdesc.rows {
                            return Err(EngineError::RowOutOfRange {
                                model: *model,
                                row,
                                rows: mdesc.rows,
                            });
                        }
                    }
                    cycles += (active as u64 * src.len() as u64).div_ceil(MODEL_PORTS);
                    let m = store.model_mut(*model as usize);
                    for t_mem in mem.iter().take(active) {
                        let base = t_mem[index.au as usize][index.slot as usize].round() as usize
                            * mdesc.cols;
                        for (k, loc) in src.iter().enumerate() {
                            m[base + k] = t_mem[loc.au as usize][loc.slot as usize];
                        }
                    }
                }
            }
        }
        Ok(cycles)
    }
}
