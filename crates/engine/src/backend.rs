//! The execution backend: one lowered program, two ways to cost it.
//!
//! The paper's argument is that the right execution substrate depends on
//! the workload: offloading to the FPGA pays off only once the scan is
//! large enough to amortize configuration and per-epoch orchestration
//! overhead. A [`Backend`] is a [`BackendKind`] and the engine it runs:
//!
//! * [`BackendKind::Fpga`] — the simulated-FPGA tier: its cost is the
//!   simulated cycle count (converted to seconds by the caller's clock
//!   model).
//! * [`BackendKind::Cpu`] — a native CPU tier that executes the **same**
//!   [`LoweredProgram`](crate::lowered::LoweredProgram) through the same
//!   slot-major `buf[word * lanes + l]` lockstep lane loops (op dispatch
//!   hoisted out of the lane loop so `rustc` auto-vectorizes them, LRMF's
//!   row gathers one lane at a time inside the op), but whose cost is
//!   **measured wall time**.
//!
//! Both run [`ExecutionEngine::run_training`] over the identical SoA
//! workspace, so their trained models and cycle counters are
//! bit-identical by construction — the differential suite holds them to
//! it. (A statement's EXECUTE runs the same sessions in
//! `dana_parallel`'s guarded gang loop and times it there.)
//!
//! The distinction is *what the number means*: the FPGA tier's
//! [`EngineStats::cycles`] model a 150 MHz accelerator fed by Striders;
//! the CPU tier's [`BackendRun::wall_seconds`] is a stopwatch around the
//! actual host loop. The backend advisor in `dana-core` compares the two
//! to pick a substrate per query.

use std::sync::Arc;
use std::time::Instant;

use dana_storage::TupleSource;

use crate::engine::{EngineStats, ExecutionEngine, ModelStore};
use crate::error::EngineResult;

/// Which execution substrate ran (or should run) a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// The simulated-FPGA tier: cycle-model cost, Strider-fed pipeline.
    Fpga,
    /// The native CPU tier: same lowered program, wall-clock cost.
    Cpu,
}

impl BackendKind {
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Fpga => "fpga",
            BackendKind::Cpu => "cpu",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one backend training run: the engine's counters plus,
/// for the CPU tier, the measured wall time of the training loop.
///
/// `stats` are identical across backends (same code, same workspace);
/// `wall_seconds` is `Some` only for backends that execute natively —
/// simulated tiers have no meaningful wall time to report and leave it
/// `None` so the two units can never be confused downstream.
#[derive(Debug, Clone, Copy)]
pub struct BackendRun {
    pub stats: EngineStats,
    pub wall_seconds: Option<f64>,
}

/// An execution substrate for one engine's lowered training program.
/// The tiers share the lowered SoA executor and differ only in how their
/// cost is accounted (simulated cycles vs measured wall time) and in
/// which system resources a run occupies (the FPGA tier holds an
/// accelerator lease; the CPU tier bypasses the pool entirely).
#[derive(Debug, Clone)]
pub struct Backend {
    pub kind: BackendKind,
    pub engine: Arc<ExecutionEngine>,
}

impl Backend {
    pub fn new(kind: BackendKind, engine: Arc<ExecutionEngine>) -> Backend {
        Backend { kind, engine }
    }

    /// [`ExecutionEngine::run_training`], timed when the tier executes
    /// natively.
    pub fn run_training(
        &self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<BackendRun> {
        let start = Instant::now();
        let stats = self.engine.run_training(source, store)?;
        Ok(BackendRun {
            stats,
            wall_seconds: (self.kind == BackendKind::Cpu).then(|| start.elapsed().as_secs_f64()),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{ConvergenceCheck, EngineDesign, MergePlan, ModelDesc, ModelWrite};
    use crate::isa::{AluOp, EngineProgram, Loc, MicroOp, Src, Step};
    use dana_dsl::MergeOp;
    use dana_storage::{OneBatchSource, TupleBatch};

    pub(crate) fn linreg_design(num_threads: u16) -> EngineDesign {
        let alu = |au, op, a, b, dst| MicroOp::Alu { au, op, a, b, dst };
        let s = |au, slot| Src::Slot(Loc::new(au, slot));
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![
                    Step {
                        ops: vec![alu(0, AluOp::Mul, s(0, 0), s(0, 1), 2)],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Sub, s(0, 2), s(0, 3), 2)],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Mul, s(0, 2), s(0, 0), 2)],
                    },
                ],
                post_merge: vec![
                    Step {
                        ops: vec![alu(0, AluOp::Mul, Src::Const(0.05), s(0, 2), 2)],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Sub, s(0, 1), s(0, 2), 4)],
                    },
                ],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![Loc::new(0, 3)],
            meta: vec![],
            models: vec![ModelDesc {
                name: "w".into(),
                rows: 1,
                cols: 1,
                broadcast_slots: Some(vec![Loc::new(0, 1)]),
            }],
            merge: MergePlan::Whole {
                op: MergeOp::Sum,
                slots: vec![Loc::new(0, 2)],
            },
            model_writes: vec![ModelWrite::Whole {
                model: 0,
                src: vec![Loc::new(0, 4)],
            }],
            convergence: ConvergenceCheck::Epochs(3),
        }
    }

    pub(crate) fn tuples(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|k| {
                let x = (k % 13) as f32 * 0.2 - 1.0;
                vec![x, 1.5 * x]
            })
            .collect()
    }

    #[test]
    fn cpu_and_fpga_backends_are_bit_identical() {
        for threads in [1u16, 4, 16] {
            let design = linreg_design(threads);
            let engine = Arc::new(ExecutionEngine::new(design.clone()).unwrap());
            let batch = TupleBatch::from_rows(2, tuples(53));
            let fpga = Backend::new(BackendKind::Fpga, engine.clone());
            let cpu = Backend::new(BackendKind::Cpu, engine);
            let mut fpga_store = ModelStore::zeroed(&design);
            let fpga_run = fpga
                .run_training(&mut OneBatchSource::new(&batch), &mut fpga_store)
                .unwrap();
            let mut cpu_store = ModelStore::zeroed(&design);
            let cpu_run = cpu
                .run_training(&mut OneBatchSource::new(&batch), &mut cpu_store)
                .unwrap();
            assert_eq!(fpga_store, cpu_store, "threads {threads}");
            assert_eq!(fpga_run.stats, cpu_run.stats, "threads {threads}");
        }
    }

    #[test]
    fn wall_time_is_cpu_only() {
        let design = linreg_design(4);
        let engine = Arc::new(ExecutionEngine::new(design.clone()).unwrap());
        let batch = TupleBatch::from_rows(2, tuples(20));
        let fpga = Backend::new(BackendKind::Fpga, engine.clone());
        let cpu = Backend::new(BackendKind::Cpu, engine);
        let mut store = ModelStore::zeroed(&design);
        let run = fpga
            .run_training(&mut OneBatchSource::new(&batch), &mut store)
            .unwrap();
        assert!(
            run.wall_seconds.is_none(),
            "simulated tier has no wall time"
        );
        let mut store = ModelStore::zeroed(&design);
        let run = cpu
            .run_training(&mut OneBatchSource::new(&batch), &mut store)
            .unwrap();
        assert!(run.wall_seconds.is_some_and(|w| w >= 0.0));
    }

    #[test]
    fn backend_kind_names() {
        assert_eq!(BackendKind::Fpga.name(), "fpga");
        assert_eq!(BackendKind::Cpu.name(), "cpu");
        assert_eq!(format!("{}", BackendKind::Cpu), "cpu");
        let json = serde_json::to_string(&BackendKind::Fpga).unwrap();
        let back: BackendKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, BackendKind::Fpga);
    }
}
