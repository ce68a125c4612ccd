//! Gang-scheduled shard execution: one query, many accelerators.
//!
//! A gang runs the *same* cached lowered program on every member, each
//! member streaming its own page-range shard. Training is
//! **epoch-synchronous**: all members run one epoch from the same global
//! model, join at the epoch boundary, and the merge tier
//! ([`crate::merge`]) produces the next global model — the shard-level
//! analogue of the engine's per-batch thread merge. Scoring is
//! embarrassingly parallel: shards score concurrently and the caller
//! concatenates outputs in shard-index order (= source page order). So is
//! writing a PREDICT's table: members write disjoint ranges of its output
//! pages ([`materialize_gang`]).
//!
//! Every statement is a gang, a serial one of one member: training,
//! scoring and materialization all hand their members to one spawn helper
//! that runs a **lone member inline** on the caller's thread and gives
//! several one OS thread each (`std::thread::scope`), so on a multi-core
//! host the wall clock shrinks too. Every EXECUTE runs one guarded epoch
//! loop ([`train_gang_guarded`]) with one fault policy: a faulted member
//! re-runs its epoch from the epoch-start global model after a bounded
//! backoff. The *simulated* timing is composed by the caller from the
//! per-member counters returned here (critical-path member + merge-tier
//! cycles).

use dana_engine::{
    CancelToken, EngineError, EngineResult, EngineStats, ExecutionEngine, FaultEvents, ModelStore,
    RunGuard, TrainingSession,
};
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
    /// Engine cycles of each epoch on the critical member: the
    /// element-wise maximum of the members' per-epoch logs (a lone
    /// member's own log). The lifecycle trace's epoch spans follow it.
    pub epoch_cycles: Vec<u64>,
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
/// [`TrainingSession`] per member, all executing the shared engine's
/// lowered program, merged deterministically at every epoch boundary.
/// `sources` are the per-member tuple streams in member order; `init` is
/// the initial global model.
///
/// A one-member gang is **bit-identical** to
/// [`ExecutionEngine::run_training`] — same per-epoch code, identity
/// merge — in both models and cycle stats.
pub fn train_gang<S: TupleSource + Send>(
    engine: &ExecutionEngine,
    sources: &mut [S],
    init: Vec<Vec<f32>>,
) -> ParallelResult<GangOutcome> {
    let never = CancelToken::none();
    let guard = RunGuard::new(&never);
    train_gang_guarded(engine, sources, init, &guard, &mut FaultEvents::default())
}

/// [`train_gang`] under a statement's guard: the epoch loop every EXECUTE
/// runs, at any member count and on either backend. At every epoch
/// boundary, member by member in order, the token is checked (a passed
/// deadline fails the run with [`EngineError::DeadlineExceeded`]) and the
/// fault plan is consulted. A member the plan faults re-runs its epoch
/// from the epoch-start global model after the retry policy's backoff;
/// after `max_retries` consecutive faults the run fails with the
/// transient fault, naming the member. Because injection precedes the
/// epoch's work and the merge folds in member order, a recovered run is
/// bit-identical to the undisturbed one.
///
/// `events` records what fired — every member that faulted, recovered or
/// not — and is filled even when the run fails, so the caller can report
/// the instances behind those members. A lone member pays for nothing it
/// does not use: it runs on the caller's thread and trains the global
/// model in place, with no copy, no merge and no ownership recording.
pub fn train_gang_guarded<S: TupleSource + Send>(
    engine: &ExecutionEngine,
    sources: &mut [S],
    init: Vec<Vec<f32>>,
    guard: &RunGuard<'_>,
    events: &mut FaultEvents,
) -> ParallelResult<GangOutcome> {
    let k = sources.len();
    if k == 0 {
        return Err(ParallelError::EmptyGang);
    }
    let design = engine.design();
    // A lone member's merge is the identity: there are no merge semantics
    // to derive and no factor-row ownership to record.
    let spec = (k > 1).then(|| MergeSpec::derive(design)).transpose()?;
    let own_columns = spec
        .as_ref()
        .map(MergeSpec::ownership_columns)
        .unwrap_or_default();
    let unowned = spec.as_ref().map(ShardOwnership::for_spec);
    let mut ownership = vec![unowned.unwrap_or_default(); k];
    let mut sessions: Vec<_> = (0..k).map(|_| engine.training_session()).collect();
    let mut global = init;
    let max_epochs = design.convergence.max_epochs();
    let mut epochs_run = 0u32;
    let mut converged_early = false;
    let mut merge_cycles = 0u64;
    let mut shard_tuples: Vec<u64> = vec![0; k];

    while epochs_run < max_epochs && !converged_early {
        let epoch = epochs_run;
        if guard.fault.is_some_and(|plan| plan.should_panic(epoch)) {
            panic!("injected accelerator panic at epoch {epoch}");
        }
        // Every member starts the epoch from the global model; a lone
        // member takes it rather than a copy.
        let mut members = Vec::with_capacity(k);
        let shares = sources.iter_mut().zip(&mut sessions).zip(&mut ownership);
        for (member, ((source, session), ownership)) in shares.enumerate() {
            let ready = at_boundary(guard, member, epoch, events)?;
            let values = if k == 1 {
                std::mem::take(&mut global)
            } else {
                global.clone()
            };
            members.push(MemberEpoch {
                source,
                session,
                ownership,
                store: ModelStore::new(design, values)
                    .map_err(|e| ParallelError::ModelShape(e.to_string()))?,
                ready,
            });
        }

        // The members that passed the boundary run the epoch together;
        // then each faulted one re-runs it once its retry passes.
        let mut converged = run_members(&mut members, |m| {
            if m.ready {
                m.run(epoch, &own_columns).map(Some)
            } else {
                Ok(None)
            }
        })?;
        for (member, (m, flag)) in members.iter_mut().zip(&mut converged).enumerate() {
            if flag.is_none() {
                recover(guard, member, epoch, events)?;
                *flag = Some(m.run(epoch, &own_columns).map_err(|e| e.at(member))?);
            }
        }
        let stores: Vec<ModelStore> = members.into_iter().map(|m| m.store).collect();

        if epoch == 0 {
            for (tuples, session) in shard_tuples.iter_mut().zip(&sessions) {
                *tuples = session.stats().tuples_processed;
            }
        }
        global = match &spec {
            None => stores.into_iter().next().expect("one member").into_values(),
            // Epoch-boundary merge, folded in member order.
            Some(spec) => {
                let mut buffer = MergeBuffer::new(spec, k, std::mem::take(&mut global));
                for (s, store) in stores.into_iter().enumerate() {
                    buffer.submit(s, store.into_values(), shard_tuples[s]);
                }
                let (merged, cycles) = buffer.finish(&ownership)?;
                merge_cycles += cycles;
                merged
            }
        };
        epochs_run += 1;
        // The gang converges when every member's condition fired — for a
        // lone member this is exactly the quiet loop's check.
        converged_early = converged.iter().all(|c| *c == Some(true));
    }

    let mut epoch_cycles = vec![0u64; epochs_run as usize];
    let shard_stats = sessions
        .into_iter()
        .map(|session| {
            let (stats, log) = session.finish(epochs_run, converged_early);
            for (critical, cycles) in epoch_cycles.iter_mut().zip(log) {
                *critical = (*critical).max(cycles);
            }
            stats
        })
        .collect();
    Ok(GangOutcome {
        models: global,
        epochs_run,
        converged_early,
        shard_stats,
        shard_tuples,
        merge_cycles,
        epoch_cycles,
    })
}

/// One member's share of an epoch: its stream, engine session and
/// ownership bitmap, the model it trains, and whether it passed the
/// epoch boundary.
struct MemberEpoch<'m, 'e, S> {
    source: &'m mut S,
    session: &'m mut TrainingSession<'e>,
    ownership: &'m mut ShardOwnership,
    store: ModelStore,
    ready: bool,
}

impl<S: TupleSource> MemberEpoch<'_, '_, S> {
    /// Runs the member's epoch: its first attempt and every retry. A
    /// faulted member has touched neither its source nor its store, so a
    /// retry starts from the epoch-start global model, like the first
    /// attempt. A gang member's first scan records the factor rows its
    /// tuples touch.
    fn run(&mut self, epoch: u32, columns: &[(usize, usize, usize)]) -> EngineResult<bool> {
        let mut recorder;
        let source: &mut dyn TupleSource = if epoch > 0 {
            self.source.rewind()?;
            &mut *self.source
        } else if columns.is_empty() {
            &mut *self.source
        } else {
            recorder = OwnershipRecorder {
                inner: &mut *self.source,
                columns,
                ownership: &mut *self.ownership,
            };
            &mut recorder
        };
        self.session.run_epoch(source, &mut self.store)
    }
}

/// A member's epoch boundary: the token, then the fault plan. Consulted
/// on the caller's thread in member order, so a plan's budget is spent
/// the same way every run. `Ok(false)` is a transient fault, recorded in
/// `events`; a passed deadline is terminal.
fn at_boundary(
    guard: &RunGuard<'_>,
    member: usize,
    epoch: u32,
    events: &mut FaultEvents,
) -> ParallelResult<bool> {
    guard.cancel.check().map_err(|e| e.at(member))?;
    if !guard
        .fault
        .is_some_and(|plan| plan.should_fail(member, epoch))
    {
        return Ok(true);
    }
    events.transient_faults += 1;
    if let Err(at) = events.faulted_shards.binary_search(&member) {
        events.faulted_shards.insert(at, member);
    }
    Ok(false)
}

/// Answers a member's fault: after each backoff its boundary is tried
/// again, until it passes or `max_retries` consecutive attempts have
/// faulted — then the transient fault is terminal and names the member.
fn recover(
    guard: &RunGuard<'_>,
    member: usize,
    epoch: u32,
    events: &mut FaultEvents,
) -> ParallelResult<()> {
    for attempt in 0..guard.retry.max_retries {
        let pause = guard.retry.backoff_for(attempt);
        events.retries += 1;
        events.backoff_seconds += pause.as_secs_f64();
        std::thread::sleep(pause);
        if at_boundary(guard, member, epoch, events)? {
            return Ok(());
        }
    }
    Err(EngineError::TransientFault { epoch }.at(member))
}

/// A member's failure, tagged with the member that failed.
trait MemberError: Send {
    fn at(self, shard: usize) -> ParallelError;
}

impl MemberError for EngineError {
    fn at(self, shard: usize) -> ParallelError {
        ParallelError::Engine {
            shard,
            source: self,
        }
    }
}

impl MemberError for InferError {
    fn at(self, shard: usize) -> ParallelError {
        ParallelError::Infer {
            shard,
            source: self,
        }
    }
}

/// Runs `work` over every member's share — its epoch, its source, or its
/// range of output pages — and returns the results in member order, the
/// first failure tagged with its member. One member runs **inline on the
/// calling thread** — a serial statement is a gang of one, and pays for
/// no thread; several members get one OS thread each, joined before
/// returning (training's epoch barrier).
fn run_members<S: Send, T: Send, E: MemberError>(
    members: &mut [S],
    work: impl Fn(&mut S) -> Result<T, E> + Sync,
) -> ParallelResult<Vec<T>> {
    let results: Vec<Result<T, E>> = match members {
        [] => return Err(ParallelError::EmptyGang),
        [only] => vec![work(only)],
        many => std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = many
                .iter_mut()
                .map(|member| scope.spawn(move || work(member)))
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
        .map(|(shard, r)| r.map_err(|e| e.at(shard)))
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
    let shards = run_members(sources, |source| -> Result<_, InferError> {
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
    run_members(sources, |source| -> Result<_, InferError> {
        let (partial, stats) = evaluate_source_partial(program, lanes, source, metric)?;
        Ok(ShardEval { partial, stats })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_engine::isa::{AluOp, EngineProgram, Loc, MicroOp, Src, Step};
    use dana_engine::{
        ConvergenceCheck, EngineDesign, FaultPlan, MergePlan, ModelWrite, RetryPolicy,
    };
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

    /// Runs `sources` as one gang under `fault` with `retries`, returning
    /// the outcome and what fired.
    fn guarded(
        engine: &ExecutionEngine,
        sources: &mut [crate::ReplaySource],
        fault: Option<&FaultPlan>,
        retries: u32,
    ) -> (ParallelResult<GangOutcome>, FaultEvents) {
        let never = CancelToken::none();
        let retry = RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::default()
        };
        let guard = RunGuard::new(&never).with_fault(fault).with_retry(retry);
        let mut events = FaultEvents::default();
        let run = train_gang_guarded(engine, sources, vec![vec![0.0, 0.0]], &guard, &mut events);
        (run, events)
    }

    /// A lone member under a guard that fires nothing is the quiet loop,
    /// and one whose epoch faults twice recovers bit-identically to it —
    /// models, counters and per-epoch log.
    #[test]
    fn quiet_guard_is_run_training_and_a_faulted_run_recovers_bit_identically() {
        let design = linreg_design(4, 3);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(53);
        let mut plain_store = ModelStore::new(&design, vec![vec![0.0, 0.0]]).unwrap();
        let plain = engine
            .run_training(&mut replay(&rows, 16), &mut plain_store)
            .unwrap();
        let plain_models = plain_store.into_values();

        let plan = FaultPlan::transient_at_epoch(1, 2);
        let mut logs = Vec::new();
        for (fault, retries) in [(None, 0), (Some(&plan), 2)] {
            let (run, events) = guarded(&engine, &mut [replay(&rows, 16)], fault, 3);
            let run = run.unwrap();
            assert_eq!(run.models, plain_models, "retries {retries}");
            assert_eq!(run.shard_stats, vec![plain], "retries {retries}");
            assert_eq!(events.retries, retries);
            assert_eq!(events.transient_faults, retries);
            assert_eq!(run.epoch_cycles.iter().sum::<u64>(), plain.cycles);
            logs.push(run.epoch_cycles);
        }
        assert_eq!(logs[0].len(), 3);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn gang_member_fault_degrades_bit_identically() {
        let design = linreg_design(4, 20);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(240);
        let halves: Vec<&[Vec<f32>]> = vec![&rows[..120], &rows[120..]];
        let run = |fault: Option<&FaultPlan>| {
            let mut sources: Vec<_> = halves.iter().map(|h| replay(h, 16)).collect();
            let (run, events) = guarded(&engine, &mut sources, fault, 3);
            (run.unwrap(), events)
        };
        let (clean, quiet) = run(None);
        assert!(quiet.is_quiet());

        let plan = FaultPlan::shard_fault(1, 3);
        let (degraded, events) = run(Some(&plan));
        assert_eq!(plan.injected(), 1, "the member fault must fire");
        assert_eq!(events.faulted_shards, vec![1]);
        assert_eq!(events.retries, 1);
        assert_eq!(
            degraded.models, clean.models,
            "re-running the member's epoch must keep the merge bit-identical"
        );
        assert_eq!(degraded.shard_stats, clean.shard_stats);
        assert_eq!(degraded.merge_cycles, clean.merge_cycles);
        assert_eq!(degraded.epoch_cycles, clean.epoch_cycles);
    }

    #[test]
    fn epoch_zero_member_fault_preserves_ownership_merge() {
        // Epoch-0 faults exercise the first scan's ownership recording.
        let design = linreg_design(4, 6);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(160);
        let halves: Vec<&[Vec<f32>]> = vec![&rows[..80], &rows[80..]];
        let run = |fault: Option<&FaultPlan>| {
            let mut sources: Vec<_> = halves.iter().map(|h| replay(h, 16)).collect();
            let (run, events) = guarded(&engine, &mut sources, fault, 3);
            (run.unwrap(), events)
        };
        let (clean, _) = run(None);
        let plan = FaultPlan::shard_fault(0, 0);
        let (degraded, events) = run(Some(&plan));
        assert_eq!(degraded.models, clean.models);
        assert_eq!(degraded.shard_tuples, clean.shard_tuples);
        assert_eq!(events.faulted_shards, vec![0]);
    }

    /// A gang honours the retry policy: with no retries a member's fault
    /// is terminal, typed, and names the member — which `events` reports
    /// too.
    #[test]
    fn exhausted_retries_fail_naming_the_member() {
        let design = linreg_design(4, 6);
        let engine = ExecutionEngine::new(design).unwrap();
        let rows = tuples(160);
        let plan = FaultPlan::shard_fault(1, 2);
        let mut sources: Vec<_> = [&rows[..80], &rows[80..]]
            .iter()
            .map(|h| replay(h, 16))
            .collect();
        let (run, events) = guarded(&engine, &mut sources, Some(&plan), 0);
        match run.unwrap_err() {
            ParallelError::Engine { shard, source } => {
                assert_eq!(shard, 1);
                assert_eq!(source, EngineError::TransientFault { epoch: 2 });
            }
            other => panic!("expected a member's transient fault, got {other}"),
        }
        assert_eq!(events.faulted_shards, vec![1]);
        assert_eq!((events.transient_faults, events.retries), (1, 0));
    }

    /// The gang's epoch log is its critical member's: the larger half
    /// charges more cycles per epoch, and each epoch logs its count.
    #[test]
    fn gang_epoch_log_is_the_critical_members() {
        let design = linreg_design(4, 5);
        let engine = ExecutionEngine::new(design).unwrap();
        let rows = tuples(240);
        let mut sources = vec![replay(&rows[..150], 16), replay(&rows[150..], 16)];
        let outcome = train_gang(&engine, &mut sources, vec![vec![0.0, 0.0]]).unwrap();
        let critical = outcome.shard_stats.iter().map(|s| s.cycles).max().unwrap();
        assert!(outcome.shard_stats[1].cycles < critical);
        assert_eq!(outcome.epoch_cycles, vec![critical / 5; 5]);
    }

    #[test]
    fn cancelled_gang_returns_typed_error() {
        let design = linreg_design(4, 20);
        let engine = ExecutionEngine::new(design.clone()).unwrap();
        let rows = tuples(64);
        let mut sources = vec![replay(&rows, 16)];
        let cancel = CancelToken::manual();
        cancel.cancel();
        let guard = RunGuard::new(&cancel);
        let mut events = FaultEvents::default();
        let err = train_gang_guarded(
            &engine,
            &mut sources,
            vec![vec![0.0, 0.0]],
            &guard,
            &mut events,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ParallelError::Engine {
                    shard: 0,
                    source: EngineError::DeadlineExceeded
                }
            ),
            "{err}"
        );
        assert!(events.is_quiet());
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
