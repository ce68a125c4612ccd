//! The hardware generator (§6.1): resource allocation and design-space
//! exploration.
//!
//! "The hardware generator obtains the database page layout information,
//! model, and training data schema from the DBMS catalog. FPGA-specific
//! information ... \[is\] provided by the user. Using this information, the
//! hardware generator distributes the resources among access and execution
//! engine. ... To decide the allocation of resources to each thread vs.
//! number of threads, we equip the hardware generator with a performance
//! estimation tool that uses the static schedule of the operations for each
//! design point to estimate its relative performance. It chooses the
//! smallest and best-performing design point."

use std::sync::Arc;

use dana_dsl::FoldOrder;
use dana_engine::{EngineDesign, ExecutionEngine};
use dana_fpga::{FpgaSpec, ResourceBudget};
use dana_hdfg::Hdfg;
use dana_storage::PageLayoutDesc;
use dana_strider::codegen::{estimated_cycles_per_page, strider_program_for_layout};
use dana_strider::Instr;

use crate::error::{CompilerError, CompilerResult};
use crate::schedule::{schedule_hdfg, ScheduleParams};

/// DSP slices consumed by one analytic unit: a single-precision multiplier
/// plus adder pipeline maps to five DSP48E2 slices on UltraScale+.
pub const DSP_SLICES_PER_AU: u64 = 5;

/// Scratchpad depth offered to the scheduler (f32 slots per AU). Actual
/// usage is measured after scheduling and charged against BRAM.
const SCHED_SLOTS_PER_AU: u16 = 8192;

/// Page buffers are capped: beyond this the AXI link is saturated long
/// before extraction, and BRAM is better spent elsewhere.
const MAX_STRIDERS: u32 = 16;

/// Everything `compile` needs.
#[derive(Debug, Clone)]
pub struct CompileInput<'a> {
    pub hdfg: &'a Hdfg,
    pub fpga: FpgaSpec,
    pub layout: PageLayoutDesc,
    /// Training-table columns (for float-conversion accounting).
    pub schema_columns: usize,
    /// Expected training-set size, from catalog statistics — drives the
    /// thread-count exploration.
    pub expected_tuples: u64,
}

/// The static performance estimate the DSE ranks designs by.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerfEstimate {
    /// Engine cycles for one epoch over `expected_tuples`.
    pub epoch_engine_cycles: u64,
    /// Strider cycles to extract one (full) page.
    pub strider_cycles_per_page: u64,
}

/// A deployable accelerator: engine design + Strider program + budget,
/// plus the **execution engine built once at compile time**. Validation
/// and deploy-time lowering happen here — the query path only ever clones
/// the `Arc`, never reconstructs the engine.
#[derive(Debug, Clone)]
pub struct CompiledAccelerator {
    pub design: EngineDesign,
    /// The order the design's reductions fold in (the training oracle's
    /// input; nothing on the query path reads it).
    pub fold_order: FoldOrder,
    /// The validated, lowered engine — shared by every query that runs
    /// this accelerator.
    pub engine: Arc<ExecutionEngine>,
    pub strider_program: Vec<Instr>,
    pub budget: ResourceBudget,
    pub estimate: PerfEstimate,
}

impl CompiledAccelerator {
    /// Striders available to the access engine.
    pub fn num_striders(&self) -> u32 {
        self.budget.num_page_buffers
    }
}

/// Compiles the hDFG for the FPGA, exploring thread counts up to the UDF's
/// merge coefficient and keeping the best design point.
pub fn compile(input: &CompileInput) -> CompilerResult<CompiledAccelerator> {
    let merge_coef = input.hdfg.merge.map(|m| m.coef).unwrap_or(1);
    let candidates = thread_candidates(input, merge_coef);
    let mut best: Option<(u64, CompiledAccelerator)> = None;
    let mut last_err = None;
    for threads in candidates {
        match compile_with_threads(input, threads) {
            Ok(acc) => {
                let score = acc.estimate.epoch_engine_cycles;
                // Strict `<` keeps the *smallest* design on ties (§6.1) —
                // candidates are visited smallest-first.
                let better = best.as_ref().map(|(s, _)| score < *s).unwrap_or(true);
                if better {
                    best = Some((score, acc));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.map(|(_, acc)| acc).ok_or_else(|| {
        last_err.unwrap_or_else(|| {
            CompilerError::InsufficientResources("no feasible design point".into())
        })
    })
}

/// Compiles with an explicit thread count (the Figure 12 sweep knob).
pub fn compile_with_threads(
    input: &CompileInput,
    threads: u32,
) -> CompilerResult<CompiledAccelerator> {
    let fpga = &input.fpga;
    let total_aus = (fpga.dsp_slices / DSP_SLICES_PER_AU).min(fpga.max_compute_units as u64) as u32;
    let total_acs = total_aus / 8;
    if total_acs == 0 {
        return Err(CompilerError::InsufficientResources(format!(
            "{} DSP slices cannot host one analytic cluster",
            fpga.dsp_slices
        )));
    }
    if threads == 0 || threads > total_acs {
        return Err(CompilerError::InsufficientResources(format!(
            "{threads} threads exceed {total_acs} available clusters"
        )));
    }
    let acs_per_thread = (total_acs / threads).max(1) as u16;
    let params = ScheduleParams {
        num_threads: threads as u16,
        acs_per_thread,
        slots_per_au: SCHED_SLOTS_PER_AU,
        bus_lanes: 2,
    };
    let (design, fold_order) = schedule_hdfg(input.hdfg, params)?;
    // The engine re-validates the schedule; failure is a compiler bug.
    let engine = ExecutionEngine::new(design.clone())
        .map_err(|e| CompilerError::EngineRejected(e.to_string()))?;

    // ---- BRAM budgeting (§6.1) ----------------------------------------
    // Per-thread data/model storage: slots actually used.
    let slots_used = design.slots_per_au as u64;
    let data_model_bytes = slots_used * 4 * design.aus_per_thread() as u64;
    let mut used = data_model_bytes * threads as u64;
    // Row-indexed model memory is shared (single copy in BRAM).
    for m in &design.models {
        if m.broadcast_slots.is_none() {
            used += m.elements() as u64 * 4;
        }
    }
    if used > fpga.bram_bytes {
        return Err(CompilerError::InsufficientResources(format!(
            "design needs {used} BRAM bytes, device has {}",
            fpga.bram_bytes
        )));
    }
    // "The remainder of the BRAM memory is assigned to the page buffer to
    // store as many pages as possible."
    let remaining = fpga.bram_bytes - used;
    let num_page_buffers =
        ((remaining / input.layout.page_size as u64) as u32).clamp(1, MAX_STRIDERS);

    let budget = ResourceBudget {
        data_model_bytes,
        page_buffer_bytes: num_page_buffers as u64 * input.layout.page_size as u64,
        num_page_buffers,
        num_aus: total_aus.min(threads * acs_per_thread as u32 * 8),
        num_acs: threads * acs_per_thread as u32,
        num_threads: threads,
    };

    let (strider_program, _) = strider_program_for_layout(&input.layout);
    let estimate = estimate_perf(input, &engine);
    Ok(CompiledAccelerator {
        design,
        fold_order,
        engine: Arc::new(engine),
        strider_program,
        budget,
        estimate,
    })
}

/// Thread-count candidates: powers of two from 1 to the merge coefficient,
/// merge coefficient itself, bounded by available clusters.
fn thread_candidates(input: &CompileInput, merge_coef: u32) -> Vec<u32> {
    let total_aus =
        (input.fpga.dsp_slices / DSP_SLICES_PER_AU).min(input.fpga.max_compute_units as u64) as u32;
    let total_acs = (total_aus / 8).max(1);
    let cap = merge_coef.min(total_acs);
    let mut v = Vec::new();
    let mut t = 1u32;
    while t <= cap {
        v.push(t);
        t *= 2;
    }
    if !v.contains(&cap) {
        v.push(cap);
    }
    v
}

/// The §6.1 performance estimator: per-epoch engine cycles from the static
/// schedule. "Performance estimation is viable, as the hDFG does not
/// change, there is no hardware managed cache, and the accelerator
/// architecture is fixed during execution."
fn estimate_perf(input: &CompileInput, engine: &ExecutionEngine) -> PerfEstimate {
    let tuples = input.expected_tuples;
    let tuples_per_page = (input.layout.capacity as u64).min(tuples.max(1));
    PerfEstimate {
        epoch_engine_cycles: engine.estimated_epoch_cycles(tuples),
        strider_cycles_per_page: estimated_cycles_per_page(&input.layout, tuples_per_page)
            + tuples_per_page * input.schema_columns as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{
        linear_regression, logistic_regression, lrmf, svm, DenseParams, LrmfParams,
    };
    use dana_hdfg::translate;
    use dana_storage::page::TupleDirection;
    use dana_storage::TUPLE_HEADER_BYTES;

    fn layout_for(features: usize) -> PageLayoutDesc {
        PageLayoutDesc::new(
            32 * 1024,
            0,
            TUPLE_HEADER_BYTES + (features + 1) * 4,
            TUPLE_HEADER_BYTES,
            TupleDirection::Ascending,
        )
        .unwrap()
    }

    fn input_for<'a>(g: &'a Hdfg, features: usize, tuples: u64) -> CompileInput<'a> {
        CompileInput {
            hdfg: g,
            fpga: FpgaSpec::vu9p(),
            layout: layout_for(features),
            schema_columns: features + 1,
            expected_tuples: tuples,
        }
    }

    #[test]
    fn compiles_all_zoo_algorithms_on_vu9p() {
        for spec in [
            linear_regression(DenseParams {
                n_features: 50,
                ..Default::default()
            })
            .unwrap(),
            logistic_regression(DenseParams {
                n_features: 50,
                ..Default::default()
            })
            .unwrap(),
            svm(DenseParams {
                n_features: 50,
                ..Default::default()
            })
            .unwrap(),
        ] {
            let g = translate(&spec);
            let input = input_for(&g, 50, 10_000);
            let acc = compile(&input).unwrap();
            assert!(acc.design.num_threads >= 1);
            assert!(acc.budget.num_page_buffers >= 1);
            assert!(acc.estimate.epoch_engine_cycles > 0);
            assert!(!acc.strider_program.is_empty());
        }
    }

    #[test]
    fn lrmf_compiles_with_shared_model_memory() {
        let spec = lrmf(LrmfParams {
            rows: 500,
            cols: 400,
            rank: 10,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let layout = PageLayoutDesc::new(
            32 * 1024,
            0,
            TUPLE_HEADER_BYTES + 12,
            TUPLE_HEADER_BYTES,
            TupleDirection::Ascending,
        )
        .unwrap();
        let input = CompileInput {
            hdfg: &g,
            fpga: FpgaSpec::vu9p(),
            layout,
            schema_columns: 3,
            expected_tuples: 5_000,
        };
        let acc = compile(&input).unwrap();
        assert!(acc
            .design
            .models
            .iter()
            .all(|m| m.broadcast_slots.is_none()));
    }

    #[test]
    fn dse_respects_merge_coefficient() {
        let spec = linear_regression(DenseParams {
            n_features: 16,
            merge_coef: 4,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let input = input_for(&g, 16, 100_000);
        let acc = compile(&input).unwrap();
        assert!(
            acc.design.num_threads <= 4,
            "threads {} exceed merge coefficient 4",
            acc.design.num_threads
        );
    }

    #[test]
    fn narrow_models_benefit_from_more_threads() {
        // Remote-Sensing-like shape (54 features): the DSE should pick more
        // than one thread when the merge coefficient allows it (§7.2: narrow
        // models scale with threads).
        let spec = linear_regression(DenseParams {
            n_features: 54,
            merge_coef: 64,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let input = input_for(&g, 54, 500_000);
        let acc = compile(&input).unwrap();
        assert!(
            acc.design.num_threads > 1,
            "picked {}",
            acc.design.num_threads
        );
    }

    #[test]
    fn explicit_thread_sweep_monotone_resources() {
        let spec = linear_regression(DenseParams {
            n_features: 32,
            merge_coef: 1024,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let input = input_for(&g, 32, 100_000);
        let t2 = compile_with_threads(&input, 2).unwrap();
        let t8 = compile_with_threads(&input, 8).unwrap();
        assert_eq!(t2.design.num_threads, 2);
        assert_eq!(t8.design.num_threads, 8);
        assert!(t8.design.acs_per_thread <= t2.design.acs_per_thread);
        // More threads with the same tuple count → fewer batches → fewer
        // engine cycles for this narrow model.
        assert!(t8.estimate.epoch_engine_cycles < t2.estimate.epoch_engine_cycles);
    }

    #[test]
    fn tiny_fpga_is_rejected_gracefully() {
        let spec = linear_regression(DenseParams {
            n_features: 16,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let mut input = input_for(&g, 16, 1000);
        input.fpga.dsp_slices = 4; // less than one AU
        assert!(matches!(
            compile(&input),
            Err(CompilerError::InsufficientResources(_))
        ));
    }

    #[test]
    fn bram_pressure_rejects_oversized_designs() {
        let spec = linear_regression(DenseParams {
            n_features: 16,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let mut input = input_for(&g, 16, 1000);
        input.fpga.bram_bytes = 1024; // 1 KB of BRAM
        assert!(compile(&input).is_err());
    }

    #[test]
    fn thread_candidates_cover_powers_of_two() {
        let spec = linear_regression(DenseParams {
            n_features: 8,
            merge_coef: 24,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let input = input_for(&g, 8, 1000);
        let cands = thread_candidates(&input, 24);
        assert_eq!(cands, vec![1, 2, 4, 8, 16, 24]);
    }

    #[test]
    fn vu9p_caps_at_1024_compute_units() {
        // 6840 DSPs / 5 = 1368, capped to 1024 AUs = 128 ACs (§7.2).
        let spec = linear_regression(DenseParams {
            n_features: 8,
            merge_coef: 2048,
            ..Default::default()
        })
        .unwrap();
        let g = translate(&spec);
        let input = input_for(&g, 8, 1000);
        let err = compile_with_threads(&input, 2048);
        assert!(err.is_err(), "cannot exceed 128 clusters");
        let ok = compile_with_threads(&input, 128).unwrap();
        assert_eq!(ok.budget.num_acs, 128);
        assert_eq!(ok.budget.num_aus, 1024);
    }
}
