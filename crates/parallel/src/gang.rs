//! Gang-scheduled shard execution: one query, many accelerators.
//!
//! A gang runs the *same* cached lowered program on every member, each
//! member streaming its own page-range shard. Training is
//! **epoch-synchronous**: all shards run one epoch from the same global
//! model, join at the epoch boundary, and the merge tier
//! ([`crate::merge`]) produces the next global model — the shard-level
//! analogue of the engine's per-batch thread merge. Scoring is
//! embarrassingly parallel: shards score concurrently and the caller
//! concatenates outputs in shard-index order (= source page order). So is
//! writing a PREDICT's table: members write disjoint ranges of its output
//! pages ([`materialize_gang`]).
//!
//! Shard threads are real OS threads (`std::thread::scope`), so on a
//! multi-core host the wall clock shrinks too; the *simulated* timing is
//! composed by the caller from the per-shard counters returned here
//! (critical-path shard + merge-tier cycles). A **one-member scoring
//! gang spawns nothing**: it runs inline on the caller's thread, which
//! is what lets every serial PREDICT/EVALUATE be a gang of one instead of
//! a second code path.

use dana_engine::{CancelToken, EngineStats, ExecutionEngine, FaultPlan, ModelStore};
use dana_infer::{
    evaluate_source_partial, score_source, InferError, Materialization, MetricKind, MetricPartial,
    ScoringProgram, ScoringStats,
};
use dana_storage::{HeapFile, HeapFileBuilder, SourceError, TupleBatch, TupleSource};

use crate::error::{ParallelError, ParallelResult};
use crate::merge::{MergeBuffer, MergeSpec, ShardOwnership};

/// Everything one gang-scheduled training run produced.
#[derive(Debug, Clone)]
pub struct GangOutcome {
    /// The final merged models (model declaration order, row-major).
    pub models: Vec<Vec<f32>>,
    pub epochs_run: u32,
    pub converged_early: bool,
    /// Per-shard engine counters, in shard order, each stamped with the
    /// gang's epoch outcome.
    pub shard_stats: Vec<EngineStats>,
    /// Per-shard tuples per epoch (the merge tier's averaging weights).
    pub shard_tuples: Vec<u64>,
    /// Tree-bus / model-port cycles the epoch-boundary merge tier
    /// charged, summed over all epochs. Zero for a one-shard gang.
    pub merge_cycles: u64,
    /// Shards that faulted mid-training and were re-executed on a
    /// survivor (deduplicated, ascending). Empty for a no-fault run.
    pub faulted_shards: Vec<usize>,
    /// Shard-epochs re-executed to recover from faults.
    pub reexecuted_epochs: u32,
}

/// Watches a shard's first scan to record which factor rows its tuples
/// touch (row-ownership merge input). Purely observational — batches
/// pass through untouched, so wrapping changes nothing numerically.
struct OwnershipRecorder<'a> {
    inner: &'a mut dyn TupleSource,
    /// `(model, tuple column, rows)` to watch, from the merge spec.
    columns: &'a [(usize, usize, usize)],
    ownership: &'a mut ShardOwnership,
}

/// Marks the rows `batch` touches in `ownership` (free function so the
/// recorder can observe while the batch reference still borrows its
/// inner source — disjoint field borrows).
fn record_rows(
    columns: &[(usize, usize, usize)],
    ownership: &mut ShardOwnership,
    batch: &TupleBatch,
) {
    for row in batch.rows() {
        for &(model, column, _) in columns {
            // The engine resolves row indices with `.round()`; match it
            // so ownership names exactly the rows the scatters hit.
            let idx = row[column].round();
            if idx >= 0.0 {
                if let Some((_, bits)) = ownership.per_model.iter_mut().find(|(mi, _)| *mi == model)
                {
                    if let Some(b) = bits.get_mut(idx as usize) {
                        *b = true;
                    }
                }
            }
        }
    }
}

impl TupleSource for OwnershipRecorder<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        let batch = self.inner.next_batch()?;
        if let Some(b) = batch {
            record_rows(self.columns, self.ownership, b);
        }
        Ok(batch)
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.inner.rewind()
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        self.inner.tuple_count_hint()
    }
}

/// Runs gang-scheduled, epoch-synchronous training: one
/// [`dana_engine::TrainingSession`] per shard, all executing the shared
/// engine's lowered program, merged deterministically at every epoch
/// boundary. `sources` are the per-shard tuple streams in shard order;
/// `init` is the initial global model.
///
/// A one-shard gang is **bit-identical** to
/// [`ExecutionEngine::run_training`] — same per-epoch code, identity
/// merge — in both models and cycle stats.
pub fn train_gang<S: TupleSource + Send>(
    engine: &ExecutionEngine,
    sources: &mut [S],
    init: Vec<Vec<f32>>,
) -> ParallelResult<GangOutcome> {
    let cancel = CancelToken::none();
    train_gang_guarded(engine, sources, init, &GangGuard::new(&cancel))
}

/// Guard context for a gang run: cooperative cancellation plus an
/// optional deterministic fault plan (see [`dana_engine::FaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub struct GangGuard<'a> {
    pub cancel: &'a CancelToken,
    pub fault: Option<&'a FaultPlan>,
}

impl<'a> GangGuard<'a> {
    /// Cancellation only, no injection.
    pub fn new(cancel: &'a CancelToken) -> GangGuard<'a> {
        GangGuard {
            cancel,
            fault: None,
        }
    }

    pub fn with_fault(mut self, fault: Option<&'a FaultPlan>) -> GangGuard<'a> {
        self.fault = fault;
        self
    }
}

/// [`train_gang`] with graceful degradation. At every epoch boundary the
/// guard's token is checked (typed [`ParallelError::Cancelled`] on
/// expiry) and the fault plan, if any, may fail a gang member. A faulted
/// shard's epoch is **re-executed on a survivor** after the barrier:
/// because every shard starts each epoch from a fresh store holding the
/// merged global model, and injection precedes the epoch's work, the
/// re-executed epoch — and therefore the deterministic merge and the
/// final models — is bit-identical to the no-fault run. The outcome
/// reports which shards faulted so the pool can quarantine the instances
/// that backed them.
pub fn train_gang_guarded<S: TupleSource + Send>(
    engine: &ExecutionEngine,
    sources: &mut [S],
    init: Vec<Vec<f32>>,
    guard: &GangGuard<'_>,
) -> ParallelResult<GangOutcome> {
    let k = sources.len();
    if k == 0 {
        return Err(ParallelError::EmptyGang);
    }
    let design = engine.design();
    let spec = MergeSpec::derive(design)?;
    let own_columns = spec.ownership_columns();
    let mut ownership: Vec<ShardOwnership> =
        (0..k).map(|_| ShardOwnership::for_spec(&spec)).collect();

    let mut sessions: Vec<_> = (0..k).map(|_| engine.training_session()).collect();
    let mut global = init;
    let max_epochs = design.convergence.max_epochs();
    let mut epochs_run = 0u32;
    let mut converged_early = false;
    let mut merge_cycles = 0u64;
    let mut shard_tuples: Vec<u64> = vec![0; k];
    let mut faulted_shards: Vec<usize> = Vec::new();
    let mut reexecuted_epochs = 0u32;

    for epoch in 0..max_epochs {
        if guard.cancel.is_cancelled() {
            return Err(ParallelError::Cancelled);
        }
        if let Some(plan) = guard.fault {
            if plan.should_panic(epoch) {
                panic!("injected accelerator panic at gang epoch {epoch}");
            }
        }
        // Every shard starts the epoch from the merged global model.
        let mut stores: Vec<ModelStore> = Vec::with_capacity(k);
        for _ in 0..k {
            stores.push(
                ModelStore::new(design, global.clone())
                    .map_err(|e| ParallelError::ModelShape(e.to_string()))?,
            );
        }

        // One OS thread per shard, joined at the epoch boundary (the
        // gang's barrier). Each thread owns its shard's source, session,
        // store, and ownership bitmap for the duration of the epoch.
        let results: Vec<Result<bool, dana_engine::EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sources
                .iter_mut()
                .zip(sessions.iter_mut())
                .zip(stores.iter_mut())
                .zip(ownership.iter_mut())
                .enumerate()
                .map(|(shard, (((source, session), store), own))| {
                    let columns = own_columns.as_slice();
                    let fault = guard.fault;
                    scope.spawn(move || {
                        if let Some(plan) = fault {
                            // The member faults *before* touching any of
                            // the epoch's tuples, so the survivor re-runs
                            // from exactly the epoch-start state.
                            if plan.should_fail(Some(shard), epoch) {
                                return Err(dana_engine::EngineError::TransientFault { epoch });
                            }
                        }
                        if epoch > 0 {
                            source.rewind().map_err(dana_engine::EngineError::from)?;
                            session.run_epoch(source, store)
                        } else if columns.is_empty() {
                            session.run_epoch(source, store)
                        } else {
                            // First scan: record factor-row ownership.
                            let mut recorder = OwnershipRecorder {
                                inner: source,
                                columns,
                                ownership: own,
                            };
                            session.run_epoch(&mut recorder, store)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread must not panic"))
                .collect()
        });

        // Surface the lowest-index *terminal* failure deterministically;
        // transient member faults degrade to survivor re-execution.
        let mut flags: Vec<Option<bool>> = vec![None; k];
        let mut faulted_now: Vec<usize> = Vec::new();
        for (shard, r) in results.into_iter().enumerate() {
            match r {
                Ok(flag) => flags[shard] = Some(flag),
                Err(source) if source.is_transient() => faulted_now.push(shard),
                Err(source) => return Err(ParallelError::Engine { shard, source }),
            }
        }

        // Graceful degradation: re-execute each faulted shard's epoch on
        // a survivor. A fresh store from the epoch-start global model and
        // a rewound source reproduce the epoch bit-identically, keeping
        // the deterministic merge — and the final models — unchanged.
        for &s in &faulted_now {
            stores[s] = ModelStore::new(design, global.clone())
                .map_err(|e| ParallelError::ModelShape(e.to_string()))?;
            sources[s].rewind().map_err(|e| ParallelError::Engine {
                shard: s,
                source: dana_engine::EngineError::from(e),
            })?;
            let run = if epoch == 0 && !own_columns.is_empty() {
                ownership[s] = ShardOwnership::for_spec(&spec);
                let mut recorder = OwnershipRecorder {
                    inner: &mut sources[s],
                    columns: own_columns.as_slice(),
                    ownership: &mut ownership[s],
                };
                sessions[s].run_epoch(&mut recorder, &mut stores[s])
            } else {
                sessions[s].run_epoch(&mut sources[s], &mut stores[s])
            };
            let flag = run.map_err(|source| ParallelError::Engine { shard: s, source })?;
            flags[s] = Some(flag);
            reexecuted_epochs += 1;
            if !faulted_shards.contains(&s) {
                faulted_shards.push(s);
            }
        }
        let flags: Vec<bool> = flags
            .into_iter()
            .map(|f| f.expect("every shard either ran or was re-executed"))
            .collect();

        if epoch == 0 {
            for (s, session) in sessions.iter().enumerate() {
                shard_tuples[s] = session.stats().tuples_processed;
            }
        }

        // Epoch-boundary merge, folded in shard-index order.
        let mut buffer = MergeBuffer::new(&spec, k, std::mem::take(&mut global));
        for (s, store) in stores.into_iter().enumerate() {
            buffer.submit(s, store.into_values(), shard_tuples[s]);
        }
        let (merged, cycles) = buffer.finish(&ownership)?;
        global = merged;
        merge_cycles += cycles;

        epochs_run += 1;
        // The gang converges when every shard's condition fired — for a
        // one-shard gang this is exactly the serial check.
        if !flags.is_empty() && flags.iter().all(|f| *f) {
            converged_early = true;
            break;
        }
    }

    let shard_stats = sessions
        .into_iter()
        .map(|s| s.finish(epochs_run, converged_early))
        .collect();
    faulted_shards.sort_unstable();
    Ok(GangOutcome {
        models: global,
        epochs_run,
        converged_early,
        shard_stats,
        shard_tuples,
        merge_cycles,
        faulted_shards,
        reexecuted_epochs,
    })
}

/// Runs `work` over every member's share — its source, or its range of
/// output pages — and returns the results in shard order, failures tagged
/// with their shard index. One member runs **inline on the calling
/// thread** — a serial statement is a gang of one, and pays for no
/// thread; several members get one OS thread each, joined before
/// returning.
fn run_members<S: Send, T: Send>(
    sources: &mut [S],
    work: impl Fn(&mut S) -> Result<T, InferError> + Sync,
) -> ParallelResult<Vec<T>> {
    let results: Vec<Result<T, InferError>> = match sources {
        [] => return Err(ParallelError::EmptyGang),
        [only] => vec![work(only)],
        many => std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = many
                .iter_mut()
                .map(|source| scope.spawn(move || work(source)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread must not panic"))
                .collect()
        }),
    };
    results
        .into_iter()
        .enumerate()
        .map(|(shard, r)| r.map_err(|source| ParallelError::Infer { shard, source }))
        .collect()
}

/// Scores every member with the same bound program and stitches the
/// outputs back together — the single place shard outputs are
/// concatenated. Returns the full prediction stream in shard order, which
/// is source page order and therefore bit-identical to one serial scan
/// (per-tuple scoring math is lane- and boundary-invariant), and the
/// per-member counters beside it. The first member's vector is the one
/// returned, extended by the rest: a one-member gang copies nothing.
pub fn score_gang_concat<S: TupleSource + Send>(
    program: &ScoringProgram,
    lanes: u16,
    sources: &mut [S],
) -> ParallelResult<(Vec<f32>, Vec<ScoringStats>)> {
    let shards = run_members(sources, |source| {
        let mut out = Vec::with_capacity(source.tuple_count_hint().unwrap_or(0) as usize);
        let stats = score_source(program, lanes, source, &mut out)?;
        Ok((out, stats))
    })?;
    let total: usize = shards.iter().map(|(p, _)| p.len()).sum();
    let mut stats = Vec::with_capacity(shards.len());
    let mut shards = shards.into_iter();
    let (mut predictions, first) = shards.next().expect("a gang has at least one member");
    stats.push(first);
    predictions.reserve(total - predictions.len());
    for (p, s) in shards {
        predictions.extend(p);
        stats.push(s);
    }
    Ok((predictions, stats))
}

/// Writes a PREDICT's output table with `members` workers: the output
/// pages are cut into that many contiguous ranges, each member writes its
/// range's pages, and the parts join in range order. Where an output page
/// starts in the source depends on the page alone, so the table is
/// byte-identical for every member count; one member — the serial
/// statement — writes the whole table on the caller's thread.
pub fn materialize_gang(table: &Materialization<'_>, members: usize) -> ParallelResult<HeapFile> {
    let parts = run_members(&mut table.ranges(members), |pages| {
        table.build_range(pages.clone())
    })?;
    Ok(HeapFileBuilder::finish_parts(parts).expect("ranges tile the table in full pages"))
}

/// One shard's metric fold.
#[derive(Debug, Clone, Copy)]
pub struct ShardEval {
    pub partial: MetricPartial,
    pub stats: ScoringStats,
}

/// Evaluates every member; the caller absorbs the partials in
/// shard-index order and finishes the metric once. A one-member gang's
/// finished value is the serial streamed metric — same fold, same thread.
pub fn evaluate_gang<S: TupleSource + Send>(
    program: &ScoringProgram,
    lanes: u16,
    sources: &mut [S],
    metric: MetricKind,
) -> ParallelResult<Vec<ShardEval>> {
    run_members(sources, |source| {
        let (partial, stats) = evaluate_source_partial(program, lanes, source, metric)?;
        Ok(ShardEval { partial, stats })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_engine::isa::{AluOp, EngineProgram, Loc, MicroOp, Src, Step};
    use dana_engine::{ConvergenceCheck, EngineDesign, MergePlan, ModelWrite};
    use dana_ml::Link;

    /// The engine crate's hand-scheduled 2-feature linear regression.
    fn linreg_design(num_threads: u16, epochs: u32) -> EngineDesign {
        let alu = |au, op, a, b, dst| MicroOp::Alu { au, op, a, b, dst };
        let s = |au, slot| Src::Slot(Loc::new(au, slot));
        let lr = 0.05f32;
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![
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
                ],
                post_merge: vec![
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
                ],
            },
            input_slots: vec![Loc::new(0, 0), Loc::new(1, 0)],
            output_slots: vec![Loc::new(0, 3)],
            meta: vec![],
            models: vec![dana_engine::engine::ModelDesc {
                name: "w".into(),
                rows: 1,
                cols: 2,
                broadcast_slots: Some(vec![Loc::new(0, 1), Loc::new(1, 1)]),
            }],
            merge: MergePlan::Whole {
                op: dana_dsl::MergeOp::Sum,
                slots: vec![Loc::new(0, 2), Loc::new(1, 2)],
            },
            model_writes: vec![ModelWrite::Whole {
                model: 0,
                src: vec![Loc::new(0, 4), Loc::new(1, 4)],
            }],
            convergence: ConvergenceCheck::Epochs(epochs),
        }
    }

    fn tuples(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|k| {
                let x0 = (k % 7) as f32 * 0.25;
                let x1 = (k % 5) as f32 * 0.5 - 1.0;
                vec![x0, x1, 2.0 * x0 - x1]
            })
            .collect()
    }

    fn replay(rows: &[Vec<f32>], per_batch: usize) -> crate::ReplaySource {
        crate::ReplaySource::new(
            3,
            rows.chunks(per_batch)
                .map(|c| TupleBatch::from_rows(3, c))
                .collect(),
        )
    }

    #[test]
    fn one_shard_gang_is_bit_identical_to_serial_training() {
        let design = linreg_design(4, 5);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(97);

        let mut serial_store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let mut serial_src = replay(&rows, 16);
        let serial_stats = engine
            .run_training(&mut serial_src, &mut serial_store)
            .unwrap();

        let mut sources = vec![replay(&rows, 16)];
        let outcome = train_gang(&engine, &mut sources, vec![vec![0.0, 0.0]]).unwrap();
        assert_eq!(outcome.models, serial_store.into_values());
        assert_eq!(outcome.shard_stats[0], serial_stats);
        assert_eq!(outcome.merge_cycles, 0);
        assert_eq!(outcome.epochs_run, 5);
        assert_eq!(outcome.shard_tuples, vec![97]);
    }

    #[test]
    fn multi_shard_gang_is_deterministic_and_learns() {
        let design = linreg_design(4, 20);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(240);
        let halves: Vec<&[Vec<f32>]> = vec![&rows[..120], &rows[120..]];
        let run = || {
            let mut sources: Vec<_> = halves.iter().map(|h| replay(h, 16)).collect();
            train_gang(&engine, &mut sources, vec![vec![0.0, 0.0]]).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.models, b.models, "gang training must be reproducible");
        assert!(a.merge_cycles > 0, "the merge tier must charge cycles");
        assert_eq!(a.shard_tuples, vec![120, 120]);
        // The merged model still fits y = 2·x0 − x1.
        let w = &a.models[0];
        assert!((w[0] - 2.0).abs() < 0.15, "w = {w:?}");
        assert!((w[1] + 1.0).abs() < 0.15, "w = {w:?}");
    }

    #[test]
    fn gang_member_fault_degrades_bit_identically() {
        let design = linreg_design(4, 20);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(240);
        let halves: Vec<&[Vec<f32>]> = vec![&rows[..120], &rows[120..]];
        let run = |fault: Option<&FaultPlan>| {
            let mut sources: Vec<_> = halves.iter().map(|h| replay(h, 16)).collect();
            let cancel = CancelToken::none();
            let guard = GangGuard::new(&cancel).with_fault(fault);
            train_gang_guarded(&engine, &mut sources, vec![vec![0.0, 0.0]], &guard).unwrap()
        };
        let clean = run(None);
        assert!(clean.faulted_shards.is_empty());
        assert_eq!(clean.reexecuted_epochs, 0);

        let plan = FaultPlan::shard_fault(1, 3);
        let degraded = run(Some(&plan));
        assert_eq!(plan.injected(), 1, "the member fault must fire");
        assert_eq!(degraded.faulted_shards, vec![1]);
        assert_eq!(degraded.reexecuted_epochs, 1);
        assert_eq!(
            degraded.models, clean.models,
            "survivor re-execution must keep the merge bit-identical"
        );
        assert_eq!(degraded.shard_stats, clean.shard_stats);
        assert_eq!(degraded.merge_cycles, clean.merge_cycles);
    }

    #[test]
    fn epoch_zero_member_fault_preserves_ownership_merge() {
        // Epoch-0 faults exercise the ownership-recorder re-wrap path.
        let design = linreg_design(4, 6);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(160);
        let halves: Vec<&[Vec<f32>]> = vec![&rows[..80], &rows[80..]];
        let run = |fault: Option<&FaultPlan>| {
            let mut sources: Vec<_> = halves.iter().map(|h| replay(h, 16)).collect();
            let cancel = CancelToken::none();
            let guard = GangGuard::new(&cancel).with_fault(fault);
            train_gang_guarded(&engine, &mut sources, vec![vec![0.0, 0.0]], &guard).unwrap()
        };
        let clean = run(None);
        let plan = FaultPlan::shard_fault(0, 0);
        let degraded = run(Some(&plan));
        assert_eq!(degraded.models, clean.models);
        assert_eq!(degraded.shard_tuples, clean.shard_tuples);
        assert_eq!(degraded.faulted_shards, vec![0]);
    }

    #[test]
    fn cancelled_gang_returns_typed_error() {
        let design = linreg_design(4, 20);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(64);
        let mut sources = vec![replay(&rows, 16)];
        let cancel = CancelToken::manual();
        cancel.cancel();
        let guard = GangGuard::new(&cancel);
        let err =
            train_gang_guarded(&engine, &mut sources, vec![vec![0.0, 0.0]], &guard).unwrap_err();
        assert!(matches!(err, ParallelError::Cancelled), "{err}");
    }

    /// Wraps a member's source and notes which thread pulls its batches.
    struct ThreadProbe {
        inner: crate::ReplaySource,
        pulled_on: Option<std::thread::ThreadId>,
    }

    impl TupleSource for ThreadProbe {
        fn width(&self) -> usize {
            self.inner.width()
        }

        fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
            self.pulled_on = Some(std::thread::current().id());
            self.inner.next_batch()
        }

        fn rewind(&mut self) -> Result<(), SourceError> {
            self.inner.rewind()
        }
    }

    /// Every gang size scores and evaluates bit-identically to the serial
    /// scorer, and a one-member gang *is* the serial path: it runs where
    /// the caller stands, while several members run on threads of their
    /// own.
    #[test]
    fn score_gang_concat_matches_serial_scan() {
        let program = ScoringProgram::Dense {
            weights: vec![0.7, -0.3],
            link: Link::Sigmoid,
            signed_labels: false,
        };
        let rows = tuples(101);
        let mut serial = Vec::new();
        let serial_stats = score_source(&program, 4, &mut replay(&rows, 13), &mut serial).unwrap();
        // Accuracy folds integer counts, so shard partials combine exactly.
        let metric = MetricKind::Accuracy;
        let (serial_value, _) =
            dana_infer::evaluate_source(&program, 4, &mut replay(&rows, 13), metric).unwrap();

        let here = std::thread::current().id();
        for split in [1usize, 2, 4] {
            let probes = || -> Vec<ThreadProbe> {
                rows.chunks(rows.len().div_ceil(split))
                    .map(|c| ThreadProbe {
                        inner: replay(c, 13),
                        pulled_on: None,
                    })
                    .collect()
            };
            let ran_inline_iff_alone = |sources: &[ThreadProbe]| {
                for s in sources {
                    let on = s.pulled_on.expect("every member was scanned");
                    assert_eq!(on == here, split == 1, "{split} shards");
                }
            };

            let mut sources = probes();
            let (concat, stats) = score_gang_concat(&program, 4, &mut sources).unwrap();
            assert_eq!(concat, serial, "{split} shards");
            assert_eq!(stats.len(), split);
            let total: u64 = stats.iter().map(|s| s.tuples).sum();
            assert_eq!(total, serial_stats.tuples);
            ran_inline_iff_alone(&sources);

            let mut sources = probes();
            let evals = evaluate_gang(&program, 4, &mut sources, metric).unwrap();
            let mut partial = MetricPartial::default();
            for e in &evals {
                partial.absorb(e.partial);
            }
            assert_eq!(
                partial.finish(metric).unwrap(),
                serial_value,
                "{split} shards"
            );
            ran_inline_iff_alone(&sources);
        }
    }
}
