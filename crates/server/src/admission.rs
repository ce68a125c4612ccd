//! Admission control and scheduling policy.
//!
//! Queries are not handed straight to workers: they pass an admission
//! controller that (a) bounds the queue so an overload sheds load with a
//! typed [`crate::ServerError::Overloaded`] instead of unbounded memory
//! growth, and (b) orders dequeues by policy. FIFO is the fairness
//! baseline; shortest-job-first uses the plan's bind-time cost hint
//! ([`dana::PhysicalPlan::cost_hint`]: the statement's price on its
//! chosen tier — on the FPGA, the bill `EXPLAIN` prints — divided across
//! its gang) to let cheap interactive queries overtake long training
//! jobs.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crossbeam::channel::Sender;
use dana::{DanaError, QueryCtx, Work};
use dana_engine::EngineError;

use crate::error::{ServerError, ServerResult};
use crate::server::{Admitted, ReplyResult};
use crate::session::SessionId;

/// Dequeue ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First come, first served.
    #[default]
    Fifo,
    /// Shortest (estimated) job first; FIFO among ties.
    Sjf,
}

/// Admission priority class. The dequeue always prefers a waiting
/// `Interactive` job over any `Batch` job, whatever the configured
/// policy; within a class the policy (FIFO/SJF) orders as before. Point
/// predictions are `Interactive` — microseconds of work that must never
/// be starved behind a gang training job occupying the whole pool.
/// (`Interactive` declares first so the derived `Ord` sorts it ahead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-bound work (point predictions): dequeued before any
    /// waiting `Batch` job.
    Interactive,
    /// Training and scan-bound analytical queries (the default).
    #[default]
    Batch,
}

/// Admission controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum queries waiting for a worker; submissions beyond this are
    /// refused with [`ServerError::Overloaded`].
    pub max_queued: usize,
    pub policy: SchedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_queued: 1024,
            policy: SchedPolicy::Fifo,
        }
    }
}

/// One admitted query waiting for a worker.
pub(crate) struct Job {
    pub seq: u64,
    pub session: SessionId,
    /// What to run, lowered once at submit — or the parse/bind error the
    /// worker replies with.
    pub work: dana::DanaResult<Work>,
    /// The deadline (statement `timeout_ms` or the server default,
    /// anchored at submission) and retry budget the work runs under.
    /// Expired jobs are shed at dequeue time — they never reach a worker
    /// or take a lease.
    pub ctx: QueryCtx,
    /// Wall seconds the submit spent parsing/lowering the request.
    pub parse_wall: f64,
    /// Admission class: `Interactive` jobs dequeue before any `Batch`
    /// job regardless of policy.
    pub priority: Priority,
    /// Estimated simulated runtime (SJF's ordering key; FIFO ignores it).
    pub cost_hint: f64,
    pub reply: Sender<ReplyResult>,
    pub submitted_at: Instant,
}

/// Queue counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub admitted: u64,
    pub rejected: u64,
    /// Queries shed at dequeue time because their deadline had already
    /// passed while they waited (replied with the typed deadline error,
    /// never leased).
    pub shed: u64,
    /// Currently waiting (not yet picked up by a worker).
    pub depth: usize,
}

struct QState {
    jobs: Vec<Job>,
    next_seq: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    closed: bool,
}

/// Whether a job's deadline has already passed.
fn expired(job: &Job) -> bool {
    job.ctx.cancel.is_cancelled()
}

/// The admission queue proper.
pub(crate) struct AdmissionQueue {
    state: Mutex<QState>,
    readable: Condvar,
    config: AdmissionConfig,
}

impl AdmissionQueue {
    pub fn new(config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QState {
                jobs: Vec::new(),
                next_seq: 0,
                admitted: 0,
                rejected: 0,
                shed: 0,
                closed: false,
            }),
            readable: Condvar::new(),
            config,
        }
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
    fn lock(&self) -> MutexGuard<'_, QState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a query or refuses it (queue full / shutting down).
    pub fn submit(
        &self,
        session: SessionId,
        admitted: Admitted,
        reply: Sender<ReplyResult>,
    ) -> ServerResult<u64> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServerError::ShuttingDown);
        }
        if st.jobs.len() >= self.config.max_queued {
            st.rejected += 1;
            return Err(ServerError::Overloaded {
                queued: st.jobs.len(),
                limit: self.config.max_queued,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.admitted += 1;
        st.jobs.push(Job {
            seq,
            session,
            work: admitted.work,
            ctx: admitted.ctx,
            parse_wall: admitted.parse_wall,
            priority: admitted.priority,
            cost_hint: admitted.cost_hint,
            reply,
            submitted_at: Instant::now(),
        });
        drop(st);
        self.readable.notify_one();
        Ok(seq)
    }

    /// Blocks for the next job per the configured policy. Returns `None`
    /// once the queue is closed *and* drained — workers finish admitted
    /// work before exiting.
    pub fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            // Shed queries that outlived their deadline while queued:
            // reply with the typed deadline error now, so they never
            // occupy a worker or an accelerator lease.
            if st.jobs.iter().any(expired) {
                let mut kept = Vec::with_capacity(st.jobs.len());
                for job in std::mem::take(&mut st.jobs) {
                    if expired(&job) {
                        st.shed += 1;
                        let _ = job.reply.send(Err(ServerError::Dana(DanaError::Engine(
                            EngineError::DeadlineExceeded,
                        ))));
                    } else {
                        kept.push(job);
                    }
                }
                st.jobs = kept;
            }
            if !st.jobs.is_empty() {
                // Priority class first — an Interactive point query
                // beats any Batch job — then the configured policy
                // within the class.
                let idx = match self.config.policy {
                    SchedPolicy::Fifo => st
                        .jobs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, j)| (j.priority, j.seq))
                        .map(|(i, _)| i)
                        .expect("non-empty"),
                    SchedPolicy::Sjf => st
                        .jobs
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            a.priority.cmp(&b.priority).then(
                                a.cost_hint
                                    .partial_cmp(&b.cost_hint)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(a.seq.cmp(&b.seq)),
                            )
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty"),
                };
                return Some(st.jobs.swap_remove(idx));
            }
            if st.closed {
                return None;
            }
            st = self
                .readable
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admitting; wakes every blocked worker so the queue drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }

    pub fn stats(&self) -> QueueStats {
        let st = self.lock();
        QueueStats {
            admitted: st.admitted,
            rejected: st.rejected,
            shed: st.shed,
            depth: st.jobs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use dana_engine::{CancelToken, RetryPolicy};

    fn job(priority: Priority, cost_hint: f64) -> Admitted {
        Admitted {
            work: Ok(Work::Stats(None)),
            ctx: QueryCtx::default(),
            priority,
            cost_hint,
            parse_wall: 0.0,
        }
    }

    fn queue(max: usize, policy: SchedPolicy) -> AdmissionQueue {
        AdmissionQueue::new(AdmissionConfig {
            max_queued: max,
            policy,
        })
    }

    #[test]
    fn fifo_pops_in_submission_order() {
        let q = queue(16, SchedPolicy::Fifo);
        let (tx, _rx) = channel::unbounded();
        for cost in [3.0, 1.0, 2.0] {
            q.submit(1, job(Priority::Batch, cost), tx.clone()).unwrap();
        }
        let order: Vec<f64> = (0..3).map(|_| q.pop().unwrap().cost_hint).collect();
        assert_eq!(order, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn sjf_pops_cheapest_first_fifo_on_ties() {
        let q = queue(16, SchedPolicy::Sjf);
        let (tx, _rx) = channel::unbounded();
        let seqs: Vec<u64> = [3.0, 1.0, 2.0, 1.0]
            .iter()
            .map(|c| q.submit(1, job(Priority::Batch, *c), tx.clone()).unwrap())
            .collect();
        let popped: Vec<u64> = (0..4).map(|_| q.pop().unwrap().seq).collect();
        // Costs 1.0 (seq 1), 1.0 (seq 3), 2.0 (seq 2), 3.0 (seq 0).
        assert_eq!(popped, vec![seqs[1], seqs[3], seqs[2], seqs[0]]);
    }

    #[test]
    fn overload_is_refused_with_counts() {
        let q = queue(2, SchedPolicy::Fifo);
        let (tx, _rx) = channel::unbounded();
        q.submit(1, job(Priority::Batch, 1.0), tx.clone()).unwrap();
        q.submit(1, job(Priority::Batch, 1.0), tx.clone()).unwrap();
        match q.submit(1, job(Priority::Batch, 1.0), tx.clone()) {
            Err(ServerError::Overloaded {
                queued: 2,
                limit: 2,
            }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        let s = q.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn expired_jobs_are_shed_at_dequeue_never_leased() {
        let q = queue(16, SchedPolicy::Fifo);
        let (expired_tx, expired_rx) = channel::unbounded();
        let (live_tx, _live_rx) = channel::unbounded();
        // One job already past its deadline, one without a deadline.
        let past = Instant::now() - std::time::Duration::from_millis(5);
        let expired = Admitted {
            ctx: QueryCtx {
                cancel: CancelToken::with_deadline(past),
                retry: RetryPolicy::default(),
            },
            ..job(Priority::Batch, 1.0)
        };
        q.submit(1, expired, expired_tx).unwrap();
        q.submit(1, job(Priority::Batch, 1.0), live_tx).unwrap();
        // The pop skips the expired job and hands out the live one.
        let job = q.pop().unwrap();
        assert!(job.ctx.cancel.deadline().is_none());
        let shed_reply = expired_rx.try_recv().expect("shed job must be replied to");
        assert!(
            matches!(&shed_reply, Err(e) if e.is_deadline_exceeded()),
            "{shed_reply:?}"
        );
        let s = q.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.depth, 0);
        assert_eq!(s.admitted, 2, "shed jobs were admitted, then expired");
    }

    #[test]
    fn interactive_overtakes_batch_under_fifo() {
        let q = queue(16, SchedPolicy::Fifo);
        let (tx, _rx) = channel::unbounded();
        // Two batch jobs first, then an interactive point query.
        let b0 = q.submit(1, job(Priority::Batch, 5.0), tx.clone()).unwrap();
        let b1 = q.submit(1, job(Priority::Batch, 5.0), tx.clone()).unwrap();
        let point = q.submit(1, job(Priority::Interactive, 0.1), tx).unwrap();
        let popped: Vec<u64> = (0..3).map(|_| q.pop().unwrap().seq).collect();
        assert_eq!(
            popped,
            vec![point, b0, b1],
            "the interactive job dequeues first; batch stays FIFO"
        );
    }

    #[test]
    fn interactive_overtakes_batch_under_sjf_even_when_pricier() {
        let q = queue(16, SchedPolicy::Sjf);
        let (tx, _rx) = channel::unbounded();
        // The batch job has a *cheaper* cost hint — class still wins.
        let batch = q
            .submit(1, job(Priority::Batch, 0.001), tx.clone())
            .unwrap();
        let point = q.submit(1, job(Priority::Interactive, 1.0), tx).unwrap();
        let popped: Vec<u64> = (0..2).map(|_| q.pop().unwrap().seq).collect();
        assert_eq!(popped, vec![point, batch]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = queue(16, SchedPolicy::Fifo);
        let (tx, _rx) = channel::unbounded();
        q.submit(1, job(Priority::Batch, 1.0), tx.clone()).unwrap();
        q.close();
        assert!(matches!(
            q.submit(1, job(Priority::Batch, 1.0), tx),
            Err(ServerError::ShuttingDown)
        ));
        assert!(q.pop().is_some(), "admitted work still drains");
        assert!(q.pop().is_none(), "then the queue ends");
    }
}
