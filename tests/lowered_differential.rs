//! Randomized differential tests for the deploy-time-lowered SoA
//! executor.
//!
//! The lowered executor is the only training executor. Its contract has
//! two halves: trained models *bit-identical* to the training oracle
//! (`dana_ml::train_spec`, an interpreter of the DSL program that folds
//! every reduction in the order the compiler recorded and reads neither
//! the schedule's `MicroOp`s nor its lowering), and cycle stats equal to
//! the hardware generator's static epoch estimate (ragged last group
//! included). These properties fuzz that contract over
//! randomized small DSL programs (linear/logistic/SVM, LRMF's
//! row-gathering programs, and programs outside the zoo), lockstep thread
//! counts 1/4/16/64 (64 is the width every benchmark design runs at),
//! random tuple streams cut into uneven batches, and every execution mode
//! of the full `Dana` pipeline.

use proptest::prelude::*;

use dana::exec::initial_models;
use dana::prelude::*;
use dana_compiler::{compile, compile_with_threads, schedule_hdfg, CompileInput, ScheduleParams};
use dana_dsl::zoo::{linear_regression, logistic_regression, svm, DenseParams};
use dana_dsl::{AlgoBuilder, AlgoSpec, Dims, FoldOrder, MergeOp};
use dana_engine::engine::BUS_WORDS;
use dana_engine::{EngineStats, ExecutionEngine, ModelStore};
use dana_hdfg::translate;
use dana_ml::train_spec;
use dana_parallel::ReplaySource;
use dana_storage::{BufferPoolConfig, TupleBatch};
use dana_workloads::{generate, workload};

mod common;
use common::execute;

/// Deterministic pseudo-random tuple values in [-1, 1).
fn synth_tuples(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|k| {
            (0..width)
                .map(|i| {
                    let h = (k as u64 ^ seed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                })
                .collect()
        })
        .collect()
}

fn bits(models: &[Vec<f32>]) -> Vec<Vec<u32>> {
    models
        .iter()
        .map(|m| m.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The stats a run of `epochs` epochs over `n` tuples must report: the
/// static estimate's cycles — every full thread group at
/// `estimated_batch_cycles(threads)`, the ragged last one at its own size,
/// as the hardware generator estimates an epoch — with compute charged
/// per batch and the dense models broadcast per batch.
fn expected_stats(engine: &ExecutionEngine, n: u64, epochs: u32, converged: bool) -> EngineStats {
    let d = engine.design();
    let threads = d.num_threads as u64;
    let batches = n.div_ceil(threads) * epochs as u64;
    let ragged = match n % threads {
        0 => 0,
        rem => engine.estimated_batch_cycles(rem as usize),
    };
    let full = n / threads * engine.estimated_batch_cycles(threads as usize);
    let cycles = (full + ragged) * epochs as u64;
    let compute_cycles = batches * (d.program.per_tuple_cycles() + d.program.post_merge_cycles());
    let broadcast_cycles = batches
        * d.models
            .iter()
            .filter(|m| m.broadcast_slots.is_some())
            .map(|m| (m.elements() as u64).div_ceil(BUS_WORDS))
            .sum::<u64>();
    EngineStats {
        cycles,
        epochs_run: epochs,
        batches,
        tuples_processed: n * epochs as u64,
        converged_early: converged,
        compute_cycles,
        merge_cycles: cycles - compute_cycles - broadcast_cycles,
        broadcast_cycles,
    }
}

/// Streams `tuples` to the executor as batches whose sizes cycle through
/// `cuts`, and asserts its models are bit-identical to the oracle's —
/// run at the design's thread count over the same tuples, folding in
/// `order` — and its stats equal the static estimate.
fn assert_matches_oracle(
    spec: &AlgoSpec,
    engine: &ExecutionEngine,
    order: &FoldOrder,
    tuples: &[Vec<f32>],
    cuts: &[usize],
    label: &str,
) {
    let design = engine.design();
    let width = tuples[0].len();
    let mut batches = Vec::new();
    let mut rest = tuples;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(cut.min(rest.len()));
        batches.push(TupleBatch::from_rows(width, head));
        rest = tail;
    }
    let mut source = ReplaySource::new(width, batches);
    let mut store = ModelStore::new(design, initial_models(design)).unwrap();
    let stats = engine.run_training(&mut source, &mut store).unwrap();

    let mut models = initial_models(design);
    let all = TupleBatch::from_rows(width, tuples);
    let threads = design.num_threads as usize;
    let (epochs, converged) = train_spec(spec, order, threads, &all, &mut models).unwrap();

    assert_eq!(
        bits(&store.into_values()),
        bits(&models),
        "{label}: lowered vs oracle models"
    );
    let n = tuples.len() as u64;
    assert_eq!(
        stats,
        expected_stats(engine, n, epochs, converged),
        "{label}: stats vs the static estimate"
    );
}

fn dense_spec(algo: usize, p: DenseParams) -> AlgoSpec {
    match algo {
        0 => linear_regression(p),
        1 => logistic_regression(p),
        _ => svm(p),
    }
    .unwrap()
}

fn params(threads: u16) -> ScheduleParams {
    ScheduleParams {
        num_threads: threads,
        acs_per_thread: 2,
        slots_per_au: 4096,
        bus_lanes: 2,
    }
}

/// A dense program outside the zoo: inputs scaled by a per-feature
/// constant vector, a `link` (identity / sigmoid / gaussian / sqrt) on the
/// score, a gradient `term` (none / divided by `1 + norm` / plus `lr·pi`),
/// a step scaled by constant groups the compiler folds in f64, a `merge`
/// (`Sum` / `Avg` / `Max`), and a convergence condition on the merged
/// gradient's norm when `converge`.
fn random_program(
    features: usize,
    link: usize,
    term: usize,
    merge: MergeOp,
    threads: u32,
    converge: bool,
    epochs: u32,
) -> AlgoSpec {
    let mut a = AlgoBuilder::new("outside_zoo");
    let mo = a.model("mo", &[features]);
    let x = a.input("in", &[features]);
    let y = a.output("out");
    let lr = a.meta("lr", 0.05);
    let one = a.meta("one", 1.0);
    let tol = a.meta("tol", 0.02);
    // Declared scalar, widened to a `[features]` vector below: every
    // shape derived from it is unchanged.
    let scale = a.meta("scale", 1.0);
    let xs = a.mul(x, scale).unwrap();
    let prod = a.mul(mo, xs).unwrap();
    let s = a.sigma(prod, 1).unwrap();
    let h = match link {
        0 => s,
        1 => a.sigmoid(s),
        2 => a.gaussian(s),
        _ => a.sqrt(s),
    };
    let er = a.sub(h, y).unwrap();
    let g = a.mul(er, xs).unwrap();
    let g = match term {
        0 => g,
        1 => {
            let n = a.norm(g, 1).unwrap();
            let d = a.add(one, n).unwrap();
            a.div(g, d).unwrap()
        }
        _ => {
            let p = a.pi(g, 1).unwrap();
            let q = a.mul(lr, p).unwrap();
            a.add(g, q).unwrap()
        }
    };
    let g = a.merge(g, threads, merge).unwrap();
    let total = a.sigma(scale, 1).unwrap();
    let magnitude = a.norm(scale, 1).unwrap();
    let k = a.div(magnitude, total).unwrap();
    let step = a.mul(lr, k).unwrap();
    let up = a.mul(step, g).unwrap();
    let mo_up = a.sub(mo, up).unwrap();
    a.set_model(mo, mo_up).unwrap();
    if converge {
        let n = a.norm(g, 1).unwrap();
        let done = a.lt(n, tol).unwrap();
        a.set_convergence(done, epochs);
    } else {
        a.set_epochs(epochs);
    }
    let mut spec = a.finish().unwrap();
    let v = &mut spec.vars[scale.id().0 as usize];
    v.dims = Dims::vector(features);
    v.meta_value = Some((0..features).map(|i| 0.5 + i as f64 / 7.0).collect());
    dana_dsl::validate::validate(&spec).unwrap();
    spec
}

proptest! {
    /// Random dense programs (linear / logistic / SVM), random shapes and
    /// hyper-parameters, lockstep thread counts 1/4/16/64: the lowered SoA
    /// executor is bit-identical to the oracle.
    #[test]
    fn lowered_is_bit_identical_on_random_dense_programs(
        algo in prop::sample::select(vec![0usize, 1, 2]),
        features in 2usize..24,
        n in 1usize..120,
        threads in prop::sample::select(vec![1u16, 4, 16, 64]),
        learning_rate in 0.01f64..0.5,
        merge_coef in prop::sample::select(vec![1u32, 4, 8, 16]),
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let p = DenseParams { n_features: features, learning_rate, merge_coef, epochs };
        let spec = dense_spec(algo, p);
        let scheduled = schedule_hdfg(&translate(&spec), params(threads));
        // Some (threads, shape) points are structurally infeasible — skip.
        prop_assume!(scheduled.is_ok());
        let (design, order) = scheduled.unwrap();
        let engine = ExecutionEngine::new(design).unwrap();
        let tuples = synth_tuples(n, features + 1, seed);
        assert_matches_oracle(
            &spec,
            &engine,
            &order,
            &tuples,
            &[n],
            &format!("algo {algo}, {features}f × {n}t, {threads} threads"),
        );
    }

    /// Random dense programs outside the zoo — every link, merge and group
    /// op, constant vectors, constant groups, convergence conditions — at
    /// 1, 2 or 4 clusters per thread: bit-identical to the oracle, which
    /// checks the schedule's operand resolution, broadcasts and constant
    /// folding as well as its reductions.
    #[test]
    fn lowered_is_bit_identical_on_random_programs_outside_the_zoo(
        features in 2usize..20,
        n in 1usize..90,
        threads in prop::sample::select(vec![1u16, 4, 16]),
        acs in prop::sample::select(vec![1u16, 2, 4]),
        link in 0usize..4,
        term in 0usize..3,
        merge in prop::sample::select(vec![MergeOp::Sum, MergeOp::Avg, MergeOp::Max]),
        converge in any::<bool>(),
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = random_program(features, link, term, merge, threads as u32, converge, epochs);
        let scheduled = schedule_hdfg(
            &translate(&spec),
            ScheduleParams { acs_per_thread: acs, ..params(threads) },
        );
        prop_assume!(scheduled.is_ok());
        let (design, order) = scheduled.unwrap();
        let engine = ExecutionEngine::new(design).unwrap();
        let tuples = synth_tuples(n, features + 1, seed);
        assert_matches_oracle(
            &spec,
            &engine,
            &order,
            &tuples,
            &[7, 3],
            &format!(
                "link {link}, term {term}, {merge:?}, converge {converge}: \
                 {features}f × {n}t, {threads} threads × {acs} ACs"
            ),
        );
    }

    /// Random LRMF programs: the per-tuple region gathers model rows (and
    /// writes them back with `Row` model writes after it — it never
    /// scatters), driving the lockstep executor's per-lane gather arm at
    /// thread counts 1/2/4/64. Still bit-identical to the oracle, which
    /// scatters rows in thread order.
    #[test]
    fn lowered_is_bit_identical_on_random_lrmf_programs(
        rows in 6usize..30,
        cols in 5usize..24,
        rank in 2usize..6,
        n in 1usize..150,
        merge_coef in prop::sample::select(vec![1u32, 2, 4, 64]),
        epochs in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let mut w = workload("Netflix").unwrap();
        w.lrmf = Some((rows, cols, rank));
        w.tuples = n as u64;
        w.epochs = epochs;
        w.merge_coef = merge_coef;
        w.learning_rate = 0.05;
        let table = generate(&w, 32 * 1024, seed).unwrap();
        let batch = table.heap.scan_batch().unwrap();
        let tuples: Vec<Vec<f32>> = batch.rows().map(|r| r.to_vec()).collect();
        // The merge coefficient is the thread count asked for (the DSE
        // would settle on fewer).
        let spec = w.spec();
        let acc = compile_with_threads(
            &CompileInput {
                hdfg: &translate(&spec),
                fpga: FpgaSpec::vu9p(),
                layout: *table.heap.layout(),
                schema_columns: table.heap.schema().len(),
                expected_tuples: table.heap.tuple_count(),
            },
            merge_coef,
        )
        .unwrap();
        assert_matches_oracle(
            &spec,
            &acc.engine,
            &acc.fold_order,
            &tuples,
            &[n],
            &format!("lrmf {rows}×{cols} rank {rank}, {n}t"),
        );
    }

    /// Batch boundaries carry no meaning: the same tuples delivered as
    /// several uneven batches — groups straddling batch boundaries, a
    /// partial last group, merge slot counts below and off the merge's
    /// interleave width of 8 — train bit-identically to the oracle, with
    /// the ragged-batch estimate's stats.
    #[test]
    fn lowered_is_bit_identical_across_uneven_batches(
        algo in prop::sample::select(vec![0usize, 1, 2]),
        features in 2usize..24,
        threads in prop::sample::select(vec![4u16, 16, 64]),
        full_groups in 0usize..4,
        partial in 0usize..63,
        cuts in prop::collection::vec(1usize..90, 1..6),
        epochs in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let p = DenseParams { n_features: features, learning_rate: 0.1, merge_coef: 64, epochs };
        let spec = dense_spec(algo, p);
        let scheduled = schedule_hdfg(&translate(&spec), params(threads));
        prop_assume!(scheduled.is_ok());
        let (design, order) = scheduled.unwrap();
        let engine = ExecutionEngine::new(design).unwrap();
        let threads = threads as usize;
        let n = full_groups * threads + 1 + partial % (threads - 1);
        let tuples = synth_tuples(n, features + 1, seed);
        assert_matches_oracle(
            &spec,
            &engine,
            &order,
            &tuples,
            &cuts,
            &format!("algo {algo}, {features}f × {n}t in {cuts:?}, {threads} threads"),
        );
    }

    /// The full pipeline: a deployed UDF's EXECUTE (the lowered executor
    /// fed by the Striders) stays bit-identical to the oracle over
    /// `HeapFile::scan_batch`, at the thread count DEPLOY compiles to, for
    /// random workload shapes.
    #[test]
    fn modes_agree_with_reference_on_random_workloads(
        name in prop::sample::select(vec!["Remote Sensing LR", "Patient"]),
        scale in prop::sample::select(vec![0.001f64, 0.002]),
        epochs in 1u32..3,
        merge_coef in prop::sample::select(vec![4u32, 8]),
        seed in 0u64..1_000_000,
    ) {
        let mut w = workload(name).unwrap().scaled(scale);
        w.epochs = epochs;
        w.merge_coef = merge_coef;
        let table = generate(&w, 32 * 1024, seed).unwrap();
        let spec = w.spec();
        let hdfg = translate(&spec);
        let input = CompileInput {
            hdfg: &hdfg,
            fpga: FpgaSpec::vu9p(),
            layout: *table.heap.layout(),
            schema_columns: table.heap.schema().len(),
            expected_tuples: table.heap.tuple_count(),
        };
        let batch = table.heap.scan_batch().unwrap();
        let db = Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 32 * 1024,
            },
            DiskModel::ssd(),
        );
        db.create_table("t", table.heap).unwrap();
        db.prewarm("t").unwrap();
        db.deploy(&spec, "t").unwrap();
        let acc = compile(&input).unwrap();
        let mut models = initial_models(&acc.design);
        let threads = acc.design.num_threads as usize;
        train_spec(&spec, &acc.fold_order, threads, &batch, &mut models).unwrap();
        let lowered = execute(&db, &spec.name, "t");
        assert_eq!(
            bits(&lowered.models),
            bits(&models),
            "{name} @ {scale}: lowered pipeline diverged from the oracle"
        );
        db.drop_table("t").unwrap();
    }
}
