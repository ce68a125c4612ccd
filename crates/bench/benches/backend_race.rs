//! Backend race: the native CPU tier vs its per-tuple reference, plus
//! the advisor's FPGA/CPU crossover on a real system.
//!
//! Two measurements gate this PR's perf claim:
//!
//! 1. **SoA lockstep vs per-tuple interpreter.** The CPU backend runs
//!    the same deploy-time `LoweredProgram` the simulated FPGA runs —
//!    a struct-of-arrays lockstep executor — instead of interpreting
//!    micro-ops tuple-at-a-time. One training epoch over a large batch
//!    is timed on both tiers; the lowered executor must clear **2×**
//!    (1.2× in `DANA_SMOKE=1` mode, where the batch is small and cache
//!    effects flatten the gap).
//! 2. **Advisor crossover.** A full `Dana` system is calibrated
//!    (measuring this host's actual lane rate), then the same query is
//!    EXPLAINed below and above the computed break-even — the advisor
//!    must pick CPU below and FPGA above. The measured wall time of the
//!    CPU run and the simulated time of the FPGA run are recorded.
//!
//! Full runs append one JSON record per line to `BENCH_backend.json`
//! at the repo root.

use std::sync::Arc;
use std::time::Instant;

use dana::exec::initial_models;
use dana::prelude::*;
use dana_bench::{series_path, BenchRecord};
use dana_compiler::{schedule_hdfg, ScheduleParams};
use dana_dsl::zoo::{self, Algorithm, DenseParams};
use dana_engine::{ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_storage::page::TupleDirection;
use dana_storage::{HeapFileBuilder, Schema, TupleBatch};

const PAGE: usize = 32 * 1024;
const FEATURES: usize = 16;
const THREADS: u16 = 16;

fn synth_rows(n: usize, width: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|k| {
            (0..width)
                .map(|i| {
                    let h = (k as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                })
                .collect()
        })
        .collect()
}

fn dense_heap(n: usize) -> HeapFile {
    let truth: Vec<f32> = (0..FEATURES).map(|i| 0.25 * i as f32 - 1.5).collect();
    let mut b =
        HeapFileBuilder::new(Schema::training(FEATURES), PAGE, TupleDirection::Ascending).unwrap();
    for k in 0..n {
        let x: Vec<f32> = (0..FEATURES)
            .map(|i| (((k * 13 + i * 7) % 29) as f32 - 14.0) / 14.0)
            .collect();
        let s: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        b.insert(&Tuple::training(&x, s)).unwrap();
    }
    b.finish()
}

fn main() {
    let smoke = std::env::var("DANA_SMOKE").is_ok();
    let n = if smoke { 40_000 } else { 400_000 };

    // ---- race 1: lowered SoA executor vs per-tuple interpreter ----------
    let spec = zoo::spec_for(
        Algorithm::Logistic,
        DenseParams {
            n_features: FEATURES,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 1,
        },
    )
    .unwrap();
    let design = schedule_hdfg(
        &translate(&spec),
        ScheduleParams {
            num_threads: THREADS,
            acs_per_thread: 2,
            slots_per_au: 4096,
            bus_lanes: 2,
        },
    )
    .unwrap();
    let engine = Arc::new(ExecutionEngine::new(design).unwrap());
    let rows = synth_rows(n, FEATURES + 1);
    let batch = TupleBatch::from_rows(FEATURES + 1, &rows);

    let time_epoch = |f: &dyn Fn(&mut ModelStore)| -> (ModelStore, f64) {
        // Warm-up pass, then the timed pass — both from fresh models so
        // the two tiers do identical arithmetic.
        let design = engine.design();
        let mut warm = ModelStore::new(design, initial_models(design)).unwrap();
        f(&mut warm);
        let mut store = ModelStore::new(design, initial_models(design)).unwrap();
        let t = Instant::now();
        f(&mut store);
        (store, t.elapsed().as_secs_f64() * 1e3)
    };
    let (soa_store, cpu_soa_ms) = time_epoch(&|store| {
        engine.run_training_batch(&batch, store).unwrap();
    });
    let (ref_store, per_tuple_ms) = time_epoch(&|store| {
        engine
            .run_training_interpreter_batch(&batch, store)
            .unwrap();
    });
    assert_eq!(soa_store, ref_store, "tiers must stay bit-identical");
    let soa_speedup = per_tuple_ms / cpu_soa_ms;
    println!("=== backend_race: one epoch over {n} × {FEATURES} ({THREADS} threads) ===");
    println!(
        "SoA lockstep {cpu_soa_ms:.1} ms | per-tuple interpreter {per_tuple_ms:.1} ms \
         ({soa_speedup:.2}x)"
    );

    // ---- race 2: advisor crossover on a calibrated system ---------------
    let db = Dana::default_system();
    db.create_table("probe", dense_heap(2_000)).unwrap();
    db.deploy(
        &zoo::spec_for(
            Algorithm::Linear,
            DenseParams {
                n_features: FEATURES,
                learning_rate: 0.1,
                merge_coef: 8,
                epochs: 4,
            },
        )
        .unwrap(),
        "probe",
    )
    .unwrap();
    db.calibrate_backend_advisor();
    let measured_rate = db.hardware_profile().cpu_lane_ops_per_second;
    let cmp = db
        .explain_sql("EXPLAIN SELECT * FROM dana.linearR('probe');")
        .unwrap();
    let break_even = cmp.break_even_rows.unwrap_or(u64::MAX);
    println!("calibrated lane rate {measured_rate:.2e} ops/s, break-even ~{break_even} rows");

    let below = (break_even as usize / 20).clamp(256, 50_000);
    let above = (break_even as usize * 2).min(2_000_000);
    db.create_table("small", dense_heap(below)).unwrap();
    db.create_table("large", dense_heap(above)).unwrap();
    let small = db
        .execute("SELECT * FROM dana.linearR('small');")
        .unwrap()
        .report;
    let large = db
        .execute("SELECT * FROM dana.linearR('large');")
        .unwrap()
        .report;
    assert_eq!(small.backend, BackendKind::Cpu, "below break-even → CPU");
    assert_eq!(large.backend, BackendKind::Fpga, "above break-even → FPGA");
    let cpu_wall = small.timing.wall_seconds.unwrap();
    let fpga_sim = large.timing.total_seconds;
    println!(
        "crossover: {below} rows ran on Cpu (wall {:.2} ms), {above} rows on Fpga \
         (sim {:.2} ms)",
        cpu_wall * 1e3,
        fpga_sim * 1e3
    );

    BenchRecord::new("backend_race", per_tuple_ms, cpu_soa_ms, smoke)
        .int("tuples", n as u64)
        .int("features", FEATURES as u64)
        .int("threads", THREADS as u64)
        .num("measured_lane_rate", measured_rate)
        .int("break_even_rows", break_even)
        .num("cpu_wall_s", cpu_wall)
        .num("fpga_sim_s", fpga_sim)
        .append(&series_path("backend"));

    // Acceptance: the CPU tier's lowered executor must clear 2× over the
    // per-tuple reference (1.2× in smoke mode).
    let floor = if smoke { 1.2 } else { 2.0 };
    assert!(
        soa_speedup >= floor,
        "SoA speedup {soa_speedup:.2}x is below the {floor}x acceptance floor"
    );
    println!("backend race passed: SoA ≥ {floor}x per-tuple, advisor crossover verified.");
}
