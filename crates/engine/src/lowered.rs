//! Deploy-time program lowering and the SoA lockstep executor — the
//! engine's one training executor.
//!
//! The paper's premise is that all resolution work happens at DEPLOY:
//! "the hDFG does not change, there is no hardware managed cache, and the
//! accelerator architecture is fixed during execution" (§6.1).
//! Interpreting the design's `MicroOp`s directly would pay per op per
//! tuple: `MicroOp`/`Src` enum dispatch, `Loc` indexing, and a dynamic
//! read-before-write staging buffer for intra-step hazards.
//!
//! [`lower`] runs once, at deploy, and removes all of it:
//!
//! * every `Src`/`Loc` is resolved to a raw scratchpad word offset;
//! * constants are inlined (`Const ⊕ Const` folds to an immediate, `Mov`
//!   becomes a copy or an immediate store);
//! * gather row bases and model shapes are pre-bound into the op;
//! * intra-step read-after-write hazards are resolved *statically*:
//!   hazardous writes are redirected to staging slots appended past the
//!   architectural scratchpad, and drain copies are emitted after the
//!   step — the runtime loop has no `writes` buffer and no hazard branch.
//!
//! Execution is **group-at-a-time** over a slot-major structure-of-arrays
//! scratchpad: word `w` of thread `t` lives at `buf[w * threads + t]`, so
//! one lowered ALU op executes across all active lockstep threads in a
//! tight, auto-vectorizable inner loop — the software analogue of the
//! paper's lockstep thread model (§5.2). There is one tier, and it is safe
//! because no op writes model memory: a `Gather` only *reads* the store,
//! and model write-back runs after the region, so no thread can observe
//! another's result inside one and LRMF's gathers run lockstep too. The
//! post-merge region is the same loop over one lane (thread 0's column of
//! the same SoA rows).
//!
//! The data movement around the ALU loops follows the same layout rule —
//! every value moves once, into or out of a contiguous SoA row: the group
//! load is `dana_storage::load_lanes`, the one row-to-lane loader scoring
//! shares, which writes each tuple column straight from its batch into the
//! SoA rows (offsets outermost, lanes innermost) and carries a group across
//! batch boundaries in the SoA buffer itself; the tree merge folds each
//! slot in thread order but several slots' chains at once, and row
//! gathers / write-backs validate every lane's row once and reuse the row
//! bases.
//!
//! The executor's models are held bit-identical to the DSL interpreter
//! `dana_ml::interp` — which reads the program, not its steps, so a bug in
//! the hazard analysis below shows up as a divergence — and its cycle
//! stats to the static estimate, by the equivalence suite and the
//! randomized differential tests in `tests/lowered_differential.rs`.

use dana_dsl::MergeOp;
use dana_storage::{load_lanes, TupleSource};

use crate::engine::{
    EngineDesign, EngineStats, MergePlan, ModelStore, ModelWrite, BUS_WORDS, MODEL_PORTS,
};
use crate::error::{EngineError, EngineResult};
use crate::isa::{AluOp, Loc, MicroOp, Src, Step};

/// Gather row index operand, pre-resolved at lower time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LowIdx {
    /// Read the row index from a scratchpad word offset.
    Slot(u32),
    /// Immediate row index (constant-folded).
    Const(f32),
}

/// One fully resolved micro-op: raw word offsets, inlined immediates,
/// pre-bound model shapes. No `Loc` arithmetic, no operand dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum LoweredOp {
    /// `buf[dst] ← op(buf[a], buf[b])`
    Bin { op: AluOp, a: u32, b: u32, dst: u32 },
    /// `buf[dst] ← op(imm, buf[b])`
    BinImmA {
        op: AluOp,
        imm: f32,
        b: u32,
        dst: u32,
    },
    /// `buf[dst] ← op(buf[a], imm)`
    BinImmB {
        op: AluOp,
        a: u32,
        imm: f32,
        dst: u32,
    },
    /// `buf[dst] ← v` (folded constants, constant `Mov`s)
    Imm { v: f32, dst: u32 },
    /// `buf[dst] ← buf[src]` (slot `Mov`s and staging drains)
    Copy { src: u32, dst: u32 },
    /// Model row gather with pre-bound shape and destination offsets.
    Gather {
        model: u8,
        rows: u32,
        cols: u32,
        index: LowIdx,
        dst: Vec<u32>,
    },
}

/// Dense-model broadcast with destination offsets pre-resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredBroadcast {
    pub model: u8,
    pub dst: Vec<u32>,
}

/// Tree-bus merge over pre-resolved word offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredMerge {
    pub op: MergeOp,
    pub slots: Vec<u32>,
}

/// Model write-back with offsets and shapes pre-bound.
#[derive(Debug, Clone, PartialEq)]
pub enum LoweredModelWrite {
    Whole {
        model: u8,
        src: Vec<u32>,
    },
    Row {
        model: u8,
        rows: u32,
        cols: u32,
        index: u32,
        src: Vec<u32>,
    },
}

/// The deploy-time lowering artifact: everything the runtime loop needs,
/// pre-resolved. Produced once by [`lower`] (at compile/deploy), held by
/// the deployed accelerator's [`crate::ExecutionEngine`], and executed
/// epoch-at-a-time by a [`TrainingSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredProgram {
    /// Architectural words per thread (`aus × slots_per_au`).
    pub(crate) arch_words: u32,
    /// Architectural words plus the staging slots appended by hazard
    /// resolution — the lowered scratchpad size per thread.
    pub(crate) words_per_thread: u32,
    pub(crate) per_tuple: Vec<LoweredOp>,
    pub(crate) post_merge: Vec<LoweredOp>,
    /// Word each tuple column loads into: the input slots, then the
    /// output slots.
    pub(crate) tuple_offsets: Vec<u32>,
    pub(crate) meta: Vec<(u32, f32)>,
    pub(crate) broadcasts: Vec<LoweredBroadcast>,
    pub(crate) merge: Option<LoweredMerge>,
    pub(crate) model_writes: Vec<LoweredModelWrite>,
    /// Word offset of the convergence-condition slot, if any.
    pub(crate) convergence_slot: Option<u32>,
    pub(crate) per_tuple_cycles: u64,
    pub(crate) post_merge_cycles: u64,
    pub(crate) gather_elems: u64,
}

/// Lowers a validated design's programs and data bindings into a
/// [`LoweredProgram`]. Pure and deterministic: lowering the same design
/// always produces the same artifact.
pub fn lower(d: &EngineDesign) -> LoweredProgram {
    let slots = d.slots_per_au as usize;
    let arch_words = d.aus_per_thread() as usize * slots;
    let flat = |l: &Loc| (l.au as usize * slots + l.slot as usize) as u32;
    let mut words_high = arch_words;

    let mut lower_steps = |steps: &[Step]| -> Vec<LoweredOp> {
        let mut out = Vec::new();
        for step in steps {
            let direct = step_is_hazard_free(step, slots);
            // Staging slots are assigned per step and reused across steps:
            // drains empty them before the next step issues.
            let mut next_stage = arch_words as u32;
            let mut drains: Vec<(u32, u32)> = Vec::new();
            let mut stage = |real: u32, drains: &mut Vec<(u32, u32)>| -> u32 {
                let s = next_stage;
                next_stage += 1;
                drains.push((s, real));
                s
            };
            for op in &step.ops {
                match op {
                    MicroOp::Alu { au, op, a, b, dst } => {
                        let real = (*au as usize * slots + *dst as usize) as u32;
                        let dst = if direct {
                            real
                        } else {
                            stage(real, &mut drains)
                        };
                        out.push(lower_alu(*op, a, b, dst, &flat));
                    }
                    MicroOp::Gather { model, index, dst } => {
                        let m = &d.models[*model as usize];
                        let dst: Vec<u32> = dst
                            .iter()
                            .map(|l| {
                                let real = flat(l);
                                if direct {
                                    real
                                } else {
                                    stage(real, &mut drains)
                                }
                            })
                            .collect();
                        out.push(LoweredOp::Gather {
                            model: *model,
                            rows: m.rows as u32,
                            cols: m.cols as u32,
                            index: lower_idx(index, &flat),
                            dst,
                        });
                    }
                }
            }
            out.extend(
                drains
                    .into_iter()
                    .map(|(src, dst)| LoweredOp::Copy { src, dst }),
            );
            words_high = words_high.max(next_stage as usize);
        }
        out
    };

    let per_tuple = lower_steps(&d.program.per_tuple);
    let post_merge = lower_steps(&d.program.post_merge);

    let tuple_offsets: Vec<u32> = d
        .input_slots
        .iter()
        .chain(&d.output_slots)
        .map(&flat)
        .collect();
    let broadcasts: Vec<LoweredBroadcast> = d
        .models
        .iter()
        .enumerate()
        .filter_map(|(mi, m)| {
            m.broadcast_slots.as_ref().map(|slots| LoweredBroadcast {
                model: mi as u8,
                dst: slots.iter().map(&flat).collect(),
            })
        })
        .collect();
    // The compiler gives every leaf its own slots, so a group's tuples load
    // before its broadcast without either overwriting the other.
    assert!(
        broadcasts
            .iter()
            .flat_map(|b| &b.dst)
            .all(|w| !tuple_offsets.contains(w)),
        "a broadcast slot is also a tuple slot"
    );
    let merge = match &d.merge {
        MergePlan::None => None,
        MergePlan::Whole { op, slots } => Some(LoweredMerge {
            op: *op,
            slots: slots.iter().map(&flat).collect(),
        }),
    };
    let model_writes = d
        .model_writes
        .iter()
        .map(|w| match w {
            ModelWrite::Whole { model, src } => LoweredModelWrite::Whole {
                model: *model,
                src: src.iter().map(&flat).collect(),
            },
            ModelWrite::Row { model, index, src } => {
                let m = &d.models[*model as usize];
                LoweredModelWrite::Row {
                    model: *model,
                    rows: m.rows as u32,
                    cols: m.cols as u32,
                    index: flat(index),
                    src: src.iter().map(&flat).collect(),
                }
            }
        })
        .collect();
    let convergence_slot = match &d.convergence {
        crate::engine::ConvergenceCheck::Epochs(_) => None,
        crate::engine::ConvergenceCheck::Condition { slot, .. } => Some(flat(slot)),
    };
    let gather_elems = d
        .program
        .per_tuple
        .iter()
        .flat_map(|s| &s.ops)
        .map(|o| match o {
            MicroOp::Gather { dst, .. } => dst.len() as u64,
            _ => 0,
        })
        .sum();

    LoweredProgram {
        arch_words: arch_words as u32,
        words_per_thread: words_high as u32,
        per_tuple,
        post_merge,
        tuple_offsets,
        meta: d.meta.iter().map(|(l, v)| (flat(l), *v)).collect(),
        broadcasts,
        merge,
        model_writes,
        convergence_slot,
        per_tuple_cycles: d.program.per_tuple_cycles(),
        post_merge_cycles: d.program.post_merge_cycles(),
        gather_elems,
    }
}

/// True when no op in `step` reads a scratchpad location that another op
/// in the same step writes — i.e. immediate write application is
/// indistinguishable from the hardware's read-before-write register-file
/// semantics. (Write-write collisions resolve in program order on both
/// paths, so only read-after-write forces staging.)
fn step_is_hazard_free(step: &Step, slots: usize) -> bool {
    let flat = |au: u16, slot: u16| au as usize * slots + slot as usize;
    let mut written: Vec<usize> = Vec::new();
    for op in &step.ops {
        match op {
            MicroOp::Alu { au, dst, .. } => written.push(flat(*au, *dst)),
            MicroOp::Gather { dst, .. } => written.extend(dst.iter().map(|l| flat(l.au, l.slot))),
        }
    }
    let reads_written = |src: &Src| match src {
        Src::Slot(l) => written.contains(&flat(l.au, l.slot)),
        Src::Const(_) => false,
    };
    for op in &step.ops {
        let hazard = match op {
            MicroOp::Alu { a, b, .. } => reads_written(a) || reads_written(b),
            MicroOp::Gather { index, .. } => reads_written(index),
        };
        if hazard {
            return false;
        }
    }
    true
}

fn lower_idx(index: &Src, flat: &impl Fn(&Loc) -> u32) -> LowIdx {
    match index {
        Src::Slot(l) => LowIdx::Slot(flat(l)),
        Src::Const(c) => LowIdx::Const(*c),
    }
}

fn lower_alu(op: AluOp, a: &Src, b: &Src, dst: u32, flat: &impl Fn(&Loc) -> u32) -> LoweredOp {
    match (op, a, b) {
        (AluOp::Mov, Src::Slot(l), _) => LoweredOp::Copy { src: flat(l), dst },
        (AluOp::Mov, Src::Const(c), _) => LoweredOp::Imm { v: *c, dst },
        (op, Src::Const(ca), Src::Const(cb)) => LoweredOp::Imm {
            v: op.apply(*ca, *cb),
            dst,
        },
        (op, Src::Slot(la), Src::Slot(lb)) => LoweredOp::Bin {
            op,
            a: flat(la),
            b: flat(lb),
            dst,
        },
        (op, Src::Const(ca), Src::Slot(lb)) => LoweredOp::BinImmA {
            op,
            imm: *ca,
            b: flat(lb),
            dst,
        },
        (op, Src::Slot(la), Src::Const(cb)) => LoweredOp::BinImmB {
            op,
            a: flat(la),
            imm: *cb,
            dst,
        },
    }
}

/// Per-run scratch state: the slot-major SoA buffer, which also carries
/// the group being loaded. Allocated once per training run; the engine
/// itself stays shared and immutable across concurrent queries.
pub(crate) struct SoaWorkspace {
    /// `words_per_thread × stride` f32 words, slot-major: word `w` of
    /// thread `t` at `buf[w * stride + t]`.
    buf: Vec<f32>,
    /// Each lane's validated model-row base (`row × cols`) for the row
    /// gather or write-back in flight — one `round()` and one range check
    /// per lane per op.
    row_bases: Vec<usize>,
    stride: usize,
}

impl AsMut<[f32]> for SoaWorkspace {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

/// SoA elements one lowered op touches per lane (scalar ops move one
/// word; a gather moves a model row's worth).
fn op_elems(op: &LoweredOp) -> u64 {
    match op {
        LoweredOp::Gather { dst, .. } => dst.len() as u64,
        _ => 1,
    }
}

impl LoweredProgram {
    /// Lowered scratchpad words per thread (architectural + staging).
    pub fn words_per_thread(&self) -> usize {
        self.words_per_thread as usize
    }

    /// SoA inner-loop elements ("lane-ops") the CPU tier executes per
    /// tuple: every per-tuple op touches one element per lane, and every
    /// dense-model broadcast element is refilled per lane per group. The
    /// backend advisor divides this by the `HardwareProfile`'s lane rate
    /// to estimate CPU seconds per tuple.
    pub fn per_tuple_lane_ops(&self) -> u64 {
        let ops: u64 = self.per_tuple.iter().map(op_elems).sum();
        let broadcast: u64 = self.broadcasts.iter().map(|b| b.dst.len() as u64).sum();
        ops + broadcast
    }

    /// Elements touched once per thread group (post-merge region, tree
    /// merge, model write-back) — amortized across the group's lanes by
    /// the advisor's cost model.
    pub fn per_group_ops(&self) -> u64 {
        let post: u64 = self.post_merge.iter().map(op_elems).sum();
        let merge = self.merge.as_ref().map_or(0, |m| m.slots.len() as u64);
        let writes: u64 = self
            .model_writes
            .iter()
            .map(|w| match w {
                LoweredModelWrite::Whole { src, .. } => src.len() as u64,
                LoweredModelWrite::Row { src, .. } => src.len() as u64,
            })
            .sum();
        post + merge + writes
    }

    fn workspace(&self, threads: usize) -> SoaWorkspace {
        let stride = threads.max(1);
        let mut buf = vec![0.0f32; self.words_per_thread() * stride];
        // Meta constants: configuration data, loaded once, to every thread.
        for &(off, v) in &self.meta {
            let base = off as usize * stride;
            buf[base..base + stride].fill(v);
        }
        SoaWorkspace {
            buf,
            row_bases: vec![0; stride],
            stride,
        }
    }

    /// One streaming epoch: load tuples into the SoA rows a thread group
    /// at a time, flushing every full group and the final partial one.
    /// Returns whether the convergence condition fired.
    fn run_epoch(
        &self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
        ws: &mut SoaWorkspace,
        stats: &mut EngineStats,
    ) -> EngineResult<bool> {
        load_lanes(
            source,
            &self.tuple_offsets,
            ws.stride,
            ws,
            |got, expected| EngineError::TupleWidth { got, expected },
            |ws, active| self.flush_group(active, ws, store, stats),
        )?;
        stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
        if let Some(off) = self.convergence_slot {
            return Ok(ws.buf[off as usize * ws.stride] != 0.0);
        }
        Ok(false)
    }

    /// One loaded thread group: broadcast → per-tuple program across the
    /// active lanes → merge → post-merge on lane 0 → model write-back.
    /// Broadcast slots and tuple slots are disjoint, so broadcasting after
    /// the load computes what the hardware's broadcast→load→execute
    /// sequence does.
    fn flush_group(
        &self,
        active: usize,
        ws: &mut SoaWorkspace,
        store: &mut ModelStore,
        stats: &mut EngineStats,
    ) -> EngineResult<()> {
        let stride = ws.stride;
        // Dense models stream once over the shared bus; all threads listen.
        for b in &self.broadcasts {
            let values = store.model(b.model as usize);
            for (&off, &v) in b.dst.iter().zip(values) {
                let base = off as usize * stride;
                ws.buf[base..base + stride].fill(v);
            }
            stats.broadcast_cycles += (values.len() as u64).div_ceil(BUS_WORDS);
        }
        exec_lockstep(&self.per_tuple, active, ws, store)?;
        stats.compute_cycles += self.per_tuple_cycles;
        if self.gather_elems > 0 {
            stats.merge_cycles += (active as u64 * self.gather_elems).div_ceil(MODEL_PORTS);
        }
        stats.merge_cycles += self.merge(active, ws);
        // Post-merge region on thread 0: lane 0 of the same SoA rows.
        exec_lockstep(&self.post_merge, 1, ws, store)?;
        stats.compute_cycles += self.post_merge_cycles;
        stats.merge_cycles += self.write_models(active, ws, store)?;
        stats.batches += 1;
        stats.tuples_processed += active as u64;
        Ok(())
    }

    /// Tree-bus merge into thread 0 — the rows are contiguous in the SoA
    /// layout, so each fold runs over adjacent words.
    fn merge(&self, active: usize, ws: &mut SoaWorkspace) -> u64 {
        let Some(m) = &self.merge else {
            return 0;
        };
        if active <= 1 {
            return 0;
        }
        match m.op {
            MergeOp::Sum => fold_lanes(ws, &m.slots, active, |acc, v| acc + v),
            MergeOp::Max => fold_lanes(ws, &m.slots, active, f32::max),
            MergeOp::Avg => {
                fold_lanes(ws, &m.slots, active, |acc, v| acc + v);
                for &off in &m.slots {
                    ws.buf[off as usize * ws.stride] /= active as f32;
                }
            }
        }
        m.slots.len() as u64 + (64 - (active as u64 - 1).leading_zeros() as u64)
    }

    /// Model write-back. Row writes validate every thread's row index
    /// *before* charging port-contention cycles or touching model memory —
    /// an out-of-range row must not inflate `merge_cycles` on the error
    /// path (nor partially apply the scatter).
    fn write_models(
        &self,
        active: usize,
        ws: &mut SoaWorkspace,
        store: &mut ModelStore,
    ) -> EngineResult<u64> {
        let stride = ws.stride;
        let mut cycles = 0u64;
        for w in &self.model_writes {
            match w {
                LoweredModelWrite::Whole { model, src } => {
                    let m = store.model_mut(*model as usize);
                    debug_assert_eq!(m.len(), src.len());
                    for (k, &off) in src.iter().enumerate() {
                        m[k] = ws.buf[off as usize * stride];
                    }
                    cycles += (src.len() as u64).div_ceil(BUS_WORDS);
                }
                LoweredModelWrite::Row {
                    model,
                    rows,
                    cols,
                    index,
                    src,
                } => {
                    ws.resolve_rows(active, &LowIdx::Slot(*index), *model, *rows, *cols)
                        .map_err(|(_, e)| e)?;
                    // Every active thread scatters its row through the
                    // shared model-memory ports (§7.2's LRMF overhead).
                    cycles += (active as u64 * src.len() as u64).div_ceil(MODEL_PORTS);
                    let m = store.model_mut(*model as usize);
                    // Per element the lanes still land in thread order, so
                    // a row two threads share keeps the later thread's.
                    for (k, &off) in src.iter().enumerate() {
                        let base = off as usize * stride;
                        let lanes = &ws.buf[base..base + active];
                        for (&v, &row_base) in lanes.iter().zip(&ws.row_bases) {
                            m[row_base + k] = v;
                        }
                    }
                }
            }
        }
        Ok(cycles)
    }
}

/// One training run's mutable engine state, held **epoch-at-a-time**: the
/// SoA workspace and the accumulated cycle counters, with the model store
/// supplied per epoch by the caller.
///
/// This is the seam intra-query data parallelism hangs off. Its epoch has
/// two callers: the quiet loop
/// ([`crate::engine::ExecutionEngine::run_training`]) runs epochs over one
/// session, while the guarded gang loop in `dana-parallel` — the one every
/// EXECUTE runs — holds one session **per member**, joins them at every
/// epoch boundary, and feeds each the *merged* model for the next epoch.
/// Because both share this per-epoch code verbatim, a one-member gang is
/// bit-identical — models and stats — to the quiet loop.
pub struct TrainingSession<'e> {
    lowered: &'e LoweredProgram,
    ws: SoaWorkspace,
    stats: EngineStats,
    /// Engine cycles charged by each completed epoch, in order — the
    /// observability layer's per-epoch span source. Cycle deltas, so the
    /// log always sums to `stats.cycles`.
    epoch_cycles: Vec<u64>,
}

impl<'e> TrainingSession<'e> {
    pub(crate) fn new(lowered: &'e LoweredProgram, threads: usize) -> TrainingSession<'e> {
        TrainingSession {
            ws: lowered.workspace(threads),
            lowered,
            stats: EngineStats::default(),
            epoch_cycles: Vec::new(),
        }
    }

    /// Runs one full epoch over `source` (the caller rewinds between
    /// epochs), training into `store`.
    /// Returns whether the design's convergence condition fired.
    pub fn run_epoch(
        &mut self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<bool> {
        let expected = self.lowered.tuple_offsets.len();
        if source.width() != expected {
            return Err(EngineError::TupleWidth {
                got: source.width(),
                expected,
            });
        }
        let before = self.stats.cycles;
        let converged = self
            .lowered
            .run_epoch(source, store, &mut self.ws, &mut self.stats)?;
        self.epoch_cycles.push(self.stats.cycles - before);
        Ok(converged)
    }

    /// Cycle counters accumulated so far (epoch bookkeeping is the epoch
    /// loop's job, so `epochs_run`/`converged_early` are still zero here).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Seals the run: stamps the epoch-loop outcome onto the accumulated
    /// counters, and yields the per-epoch cycle log for the lifecycle
    /// trace's epoch spans.
    pub fn finish(self, epochs_run: u32, converged_early: bool) -> (EngineStats, Vec<u64>) {
        let mut stats = self.stats;
        stats.epochs_run = epochs_run;
        stats.converged_early = converged_early;
        (stats, self.epoch_cycles)
    }
}

/// Slots whose merge chains [`fold_lanes`] runs side by side.
const MERGE_INTERLEAVE: usize = 8;

/// Folds lanes `1..active` of every slot in `slots` into lane 0 with `f`,
/// each slot in thread order. One slot's fold is a chain of dependent
/// operations; [`MERGE_INTERLEAVE`] independent slots' chains are advanced
/// together so they overlap instead of serialising on latency.
fn fold_lanes(ws: &mut SoaWorkspace, slots: &[u32], active: usize, f: impl Fn(f32, f32) -> f32) {
    let stride = ws.stride;
    let mut blocks = slots.chunks_exact(MERGE_INTERLEAVE);
    for block in &mut blocks {
        let rows: [&[f32]; MERGE_INTERLEAVE] = std::array::from_fn(|j| {
            let base = block[j] as usize * stride;
            &ws.buf[base..base + active]
        });
        let mut acc: [f32; MERGE_INTERLEAVE] = std::array::from_fn(|j| rows[j][0]);
        for t in 1..active {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc = f(*acc, row[t]);
            }
        }
        for (&off, acc) in block.iter().zip(acc) {
            ws.buf[off as usize * stride] = acc;
        }
    }
    for &off in blocks.remainder() {
        let base = off as usize * stride;
        let row = &mut ws.buf[base..base + active];
        row[0] = row[1..].iter().fold(row[0], |acc, &v| f(acc, v));
    }
}

/// Op-lockstep execution — the one interpreter of a [`LoweredOp`]: each op
/// dispatches once and then runs a tight inner loop across all `n` active
/// threads' contiguous SoA rows (`n = 1` for the post-merge region). A
/// `Gather` resolves every lane's row, then copies element by element
/// across the lanes. The store is only read.
///
/// An out-of-range gather row must report what thread order reports —
/// the lowest failing thread's first failing op. Lanes are
/// independent (nothing in a region writes the store), so narrowing the
/// active lanes to those below each failing lane and returning the last
/// error recorded is exactly that; over one lane it is the first failing
/// op's error.
fn exec_lockstep(
    ops: &[LoweredOp],
    mut n: usize,
    ws: &mut SoaWorkspace,
    store: &ModelStore,
) -> EngineResult<()> {
    let stride = ws.stride;
    let mut failed = None;
    for op in ops {
        let buf = &mut ws.buf[..];
        match *op {
            LoweredOp::Bin { op, a, b, dst } => {
                let (a, b, d) = (
                    a as usize * stride,
                    b as usize * stride,
                    dst as usize * stride,
                );
                lockstep_lanes(buf, op, d, n, move |m, t| (m[a + t], m[b + t]));
            }
            LoweredOp::BinImmA { op, imm, b, dst } => {
                let (b, d) = (b as usize * stride, dst as usize * stride);
                lockstep_lanes(buf, op, d, n, move |m, t| (imm, m[b + t]));
            }
            LoweredOp::BinImmB { op, a, imm, dst } => {
                let (a, d) = (a as usize * stride, dst as usize * stride);
                lockstep_lanes(buf, op, d, n, move |m, t| (m[a + t], imm));
            }
            LoweredOp::Imm { v, dst } => {
                let d = dst as usize * stride;
                buf[d..d + n].fill(v);
            }
            LoweredOp::Copy { src, dst } => {
                let (s, d) = (src as usize * stride, dst as usize * stride);
                buf.copy_within(s..s + n, d);
            }
            LoweredOp::Gather {
                model,
                rows,
                cols,
                ref index,
                ref dst,
            } => {
                if let Err((lane, e)) = ws.resolve_rows(n, index, model, rows, cols) {
                    n = lane;
                    failed = Some(e);
                }
                let values = store.model(model as usize);
                for (k, &off) in dst.iter().enumerate() {
                    let base = off as usize * stride;
                    let lanes = &mut ws.buf[base..base + n];
                    for (lane, &row_base) in lanes.iter_mut().zip(&ws.row_bases) {
                        *lane = values[row_base + k];
                    }
                }
            }
        }
    }
    failed.map_or(Ok(()), Err)
}

/// One binary op across `n` lockstep threads. `fetch` supplies the two
/// operands for lane `t` (slot/slot, imm/slot, or slot/imm — monomorphized
/// per call site). The arithmetic per arm is exactly `AluOp::apply`'s —
/// bit-identical f32 results — but the op match is hoisted out of the
/// thread loop, leaving a tight inner loop over contiguous SoA rows for
/// the vectorizer.
#[inline]
fn lockstep_lanes(
    buf: &mut [f32],
    op: AluOp,
    d: usize,
    n: usize,
    fetch: impl Fn(&[f32], usize) -> (f32, f32),
) {
    macro_rules! lanes {
        ($f:expr) => {{
            for t in 0..n {
                let (x, y) = fetch(&*buf, t);
                buf[d + t] = $f(x, y);
            }
        }};
    }
    match op {
        AluOp::Add => lanes!(|x: f32, y: f32| x + y),
        AluOp::Sub => lanes!(|x: f32, y: f32| x - y),
        AluOp::Mul => lanes!(|x: f32, y: f32| x * y),
        AluOp::Div => lanes!(|x: f32, y: f32| x / y),
        AluOp::Gt => lanes!(|x: f32, y: f32| if x > y { 1.0 } else { 0.0 }),
        AluOp::Lt => lanes!(|x: f32, y: f32| if x < y { 1.0 } else { 0.0 }),
        AluOp::Max => lanes!(|x: f32, y: f32| x.max(y)),
        _ => lanes!(|x: f32, y: f32| op.apply(x, y)),
    }
}

impl SoaWorkspace {
    /// Resolves lanes `0..n`'s row indices for one model-row op into
    /// `row_bases` (`row × cols`). Stops at the first out-of-range lane,
    /// returning it with its error; the bases below it are valid.
    fn resolve_rows(
        &mut self,
        n: usize,
        index: &LowIdx,
        model: u8,
        rows: u32,
        cols: u32,
    ) -> Result<(), (usize, EngineError)> {
        for t in 0..n {
            let raw = match index {
                LowIdx::Slot(off) => self.buf[*off as usize * self.stride + t],
                LowIdx::Const(c) => *c,
            };
            let row = raw.round() as i64;
            if row < 0 || row >= rows as i64 {
                let rows = rows as usize;
                return Err((t, EngineError::RowOutOfRange { model, row, rows }));
            }
            self.row_bases[t] = row as usize * cols as usize;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConvergenceCheck, ModelDesc};
    use crate::isa::EngineProgram;
    use dana_storage::TupleBatch;

    fn alu(au: u16, op: AluOp, a: Src, b: Src, dst: u16) -> MicroOp {
        MicroOp::Alu { au, op, a, b, dst }
    }

    fn s(au: u16, slot: u16) -> Src {
        Src::Slot(Loc::new(au, slot))
    }

    /// A design whose second step has an intra-step RAW hazard: AU 0
    /// rewrites slot 1 while AU 1 reads the old slot 1 in the same step.
    fn hazardous_design(num_threads: u16) -> EngineDesign {
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![
                    Step {
                        ops: vec![alu(0, AluOp::Mul, s(0, 0), Src::Const(2.0), 1)],
                    },
                    Step {
                        // RAW hazard: AU0 writes slot 1 (reading it), AU1
                        // reads AU0's old slot 1 via Mov.
                        ops: vec![
                            alu(0, AluOp::Add, s(0, 1), Src::Const(1.0), 1),
                            alu(1, AluOp::Mov, s(0, 1), Src::Const(0.0), 2),
                        ],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Add, s(0, 1), s(1, 2), 3)],
                    },
                ],
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![],
            meta: vec![],
            models: vec![ModelDesc {
                name: "w".into(),
                rows: 1,
                cols: 1,
                broadcast_slots: Some(vec![Loc::new(1, 7)]),
            }],
            merge: MergePlan::Whole {
                op: MergeOp::Sum,
                slots: vec![Loc::new(0, 3)],
            },
            model_writes: vec![ModelWrite::Whole {
                model: 0,
                src: vec![Loc::new(0, 3)],
            }],
            convergence: ConvergenceCheck::Epochs(2),
        }
    }

    #[test]
    fn hazardous_steps_get_staging_slots_and_no_runtime_branch() {
        let d = hazardous_design(4);
        let lp = lower(&d);
        // Step 2 has two staged writes → two staging slots past the
        // architectural words, drained by trailing copies.
        assert!(lp.words_per_thread > lp.arch_words);
        assert!(
            lp.per_tuple
                .iter()
                .any(|op| matches!(op, LoweredOp::Copy { src, .. } if *src >= lp.arch_words)),
            "staging drains expected: {:?}",
            lp.per_tuple
        );
        // And the staged execution computes what the hardware does: per
        // tuple x, slot 3 = (2x + 1) + 2x, summed over the batch — the
        // model after two epochs is the last batch's sum. Drop the staging
        // from `lower` and AU 1 reads 2x + 1, one more per tuple.
        let engine = crate::ExecutionEngine::new(d.clone()).unwrap();
        let tuples: Vec<Vec<f32>> = (0..13).map(|k| vec![k as f32 * 0.5 - 2.0]).collect();
        for (n, want) in [(13, 17.0), (12, 48.0)] {
            let mut store = ModelStore::zeroed(&d);
            let stats = engine
                .run_training_batch(&TupleBatch::from_rows(1, &tuples[..n]), &mut store)
                .unwrap();
            assert_eq!(store.model(0), &[want], "{n} tuples");
            assert_eq!(stats.batches, 2 * n.div_ceil(4) as u64);
        }
    }

    #[test]
    fn constants_fold_and_movs_lower_to_copies() {
        let mut d = hazardous_design(1);
        d.program.per_tuple = vec![Step {
            ops: vec![
                alu(0, AluOp::Add, Src::Const(2.0), Src::Const(3.0), 1),
                alu(1, AluOp::Mov, s(0, 0), Src::Const(0.0), 0),
            ],
        }];
        let lp = lower(&d);
        assert!(
            matches!(lp.per_tuple[0], LoweredOp::Imm { v, .. } if v == 5.0),
            "const-const must fold: {:?}",
            lp.per_tuple[0]
        );
        assert!(matches!(lp.per_tuple[1], LoweredOp::Copy { .. }));
    }

    /// A 4-thread design over one row-indexed 4×2 model `L`: gather
    /// `L[x0]`, gather `L[x1]`, add 1 to the first row's elements, then
    /// write them back to `L[x0]` with a `Row` model write after the region.
    fn row_model_design() -> EngineDesign {
        let bump = |slot| alu(0, AluOp::Add, s(0, slot), Src::Const(1.0), slot);
        let gather = |index, first| MicroOp::Gather {
            model: 0,
            index: s(0, index),
            dst: vec![Loc::new(0, first), Loc::new(0, first + 1)],
        };
        EngineDesign {
            num_threads: 4,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: [gather(0, 2), gather(1, 4), bump(2), bump(3)]
                    .into_iter()
                    .map(|op| Step { ops: vec![op] })
                    .collect(),
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0), Loc::new(0, 1)],
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
                src: vec![Loc::new(0, 2), Loc::new(0, 3)],
            }],
            convergence: ConvergenceCheck::Epochs(1),
        }
    }

    #[test]
    fn lockstep_gather_reports_the_lowest_failing_threads_first_error() {
        let d = row_model_design();
        let engine = crate::ExecutionEngine::new(d.clone()).unwrap();
        // Lane 3's *first* gather and lane 1's *second* gather are out of
        // range: thread order meets lane 1's error first. (Lane 3's row is
        // 2³², which must not wrap into range on the way to a `u32`.)
        let tuples = [
            vec![0.0, 1.0],
            vec![1.0, 99.0],
            vec![2.0, 3.0],
            vec![4_294_967_296.0, 0.0],
        ];
        let init: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let mut store = ModelStore::new(&d, vec![init.clone()]).unwrap();
        let err = engine
            .run_training_batch(&TupleBatch::from_rows(2, &tuples), &mut store)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RowOutOfRange {
                model: 0,
                row: 99,
                rows: 4
            }
        );
        assert_eq!(store.model(0), &init[..], "store untouched on the error");
    }

    /// A one-model (`L`, 2×1, row-indexed), one-input design whose
    /// per-tuple region copies the input to slot 1.
    fn one_input_design(num_threads: u16) -> EngineDesign {
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![Step {
                    ops: vec![alu(0, AluOp::Mov, s(0, 0), Src::Const(0.0), 1)],
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
        }
    }

    /// Feeds `tuples` (one group, failing after its per-tuple region) to
    /// the executor: it must refuse with a typed error — returned — leave
    /// the store untouched, and charge the group nothing past its
    /// per-tuple region.
    fn refuses_after_the_per_tuple_region(d: &EngineDesign, tuples: &[Vec<f32>]) -> EngineError {
        let engine = crate::ExecutionEngine::new(d.clone()).unwrap();
        let fresh = || ModelStore::new(d, vec![vec![-1.0, -2.0]]).unwrap();
        let batch = TupleBatch::from_rows(1, tuples);
        let mut store = fresh();
        let mut session = engine.training_session();
        let err = session
            .run_epoch(&mut dana_storage::OneBatchSource::new(&batch), &mut store)
            .unwrap_err();
        assert_eq!(
            store,
            fresh(),
            "nothing partially applied on the error path"
        );
        assert_eq!(
            session.stats(),
            EngineStats {
                compute_cycles: d.program.per_tuple_cycles(),
                ..EngineStats::default()
            },
            "the failing region or write-back must not be charged"
        );
        err
    }

    #[test]
    fn row_write_back_error_does_not_charge_cycles() {
        // A Row model write whose index is out of range must fail without
        // inflating merge_cycles or partially applying the scatter.
        let mut d = one_input_design(2);
        d.model_writes = vec![ModelWrite::Row {
            model: 0,
            index: Loc::new(0, 0),
            src: vec![Loc::new(0, 1)],
        }];
        // Thread 0 in range (would write), thread 1 out of range: the whole
        // write-back must refuse before touching the store.
        let err = refuses_after_the_per_tuple_region(&d, &[vec![0.0], vec![9.0]]);
        assert!(matches!(err, EngineError::RowOutOfRange { row: 9, .. }));
    }

    /// The post-merge region runs the lockstep loop over lane 0. Its first
    /// step has an intra-step read-after-write — AU 0 bumps slot 1 while
    /// the gather's index reads the old slot 1 — so the row reported is the
    /// staged (pre-step) value; the second gather, also out of range, is
    /// never the error reported.
    #[test]
    fn post_merge_gather_error_is_the_references_and_charges_nothing() {
        let gather = |index, au| MicroOp::Gather {
            model: 0,
            index,
            dst: vec![Loc::new(au, 2)],
        };
        let mut d = one_input_design(2);
        d.program.post_merge = vec![
            Step {
                ops: vec![
                    alu(0, AluOp::Add, s(0, 1), Src::Const(1.0), 1),
                    gather(s(0, 1), 1),
                ],
            },
            Step {
                ops: vec![gather(Src::Const(7.0), 2)],
            },
        ];
        // Were the error swallowed, thread 0's slots would land in `L`.
        d.model_writes = vec![ModelWrite::Whole {
            model: 0,
            src: vec![Loc::new(0, 1), Loc::new(1, 2)],
        }];
        let err = refuses_after_the_per_tuple_region(&d, &[vec![5.0], vec![0.0]]);
        assert_eq!(
            err,
            EngineError::RowOutOfRange {
                model: 0,
                row: 5,
                rows: 2
            }
        );
    }
}
