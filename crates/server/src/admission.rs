//! Admission control and scheduling policy.
//!
//! Queries are not handed straight to workers: they pass an admission
//! controller that (a) bounds the queue so an overload sheds load with a
//! typed [`crate::ServerError::Overloaded`] instead of unbounded memory
//! growth, and (b) dequeues in one order: every waiting
//! [`Priority::Interactive`] job before any [`Priority::Batch`] job, and
//! arrival order within each class.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crossbeam::channel::Sender;
use dana::{DanaError, QueryCtx, Work};
use dana_engine::EngineError;

use crate::error::{ServerError, ServerResult};
use crate::server::{Admitted, ReplyResult};
use crate::session::SessionId;

/// Admission priority class. The dequeue always prefers a waiting
/// `Interactive` job over any `Batch` job; within a class jobs leave in
/// the order they arrived. Point
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
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig { max_queued: 1024 }
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
    /// job.
    pub priority: Priority,
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
            reply,
            submitted_at: Instant::now(),
        });
        drop(st);
        self.readable.notify_one();
        Ok(seq)
    }

    /// Blocks for the next job: the oldest `Interactive` one, else the
    /// oldest `Batch` one. Returns `None`
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
                // beats any Batch job — then arrival order.
                let idx = st
                    .jobs
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, j)| (j.priority, j.seq))
                    .map(|(i, _)| i)
                    .expect("non-empty");
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

    fn job(priority: Priority) -> Admitted {
        Admitted {
            work: Ok(Work::Stats(None)),
            ctx: QueryCtx::default(),
            priority,
            parse_wall: 0.0,
        }
    }

    fn queue(max_queued: usize) -> AdmissionQueue {
        AdmissionQueue::new(AdmissionConfig { max_queued })
    }

    #[test]
    fn fifo_pops_in_submission_order() {
        let q = queue(16);
        let (tx, _rx) = channel::unbounded();
        let seqs: Vec<u64> = (0..3)
            .map(|_| q.submit(1, job(Priority::Batch), tx.clone()).unwrap())
            .collect();
        let popped: Vec<u64> = (0..3).map(|_| q.pop().unwrap().seq).collect();
        assert_eq!(popped, seqs);
    }

    #[test]
    fn overload_is_refused_with_counts() {
        let q = queue(2);
        let (tx, _rx) = channel::unbounded();
        q.submit(1, job(Priority::Batch), tx.clone()).unwrap();
        q.submit(1, job(Priority::Batch), tx.clone()).unwrap();
        match q.submit(1, job(Priority::Batch), tx.clone()) {
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
        let q = queue(16);
        let (expired_tx, expired_rx) = channel::unbounded();
        let (live_tx, _live_rx) = channel::unbounded();
        // One job already past its deadline, one without a deadline.
        let past = Instant::now() - std::time::Duration::from_millis(5);
        let expired = Admitted {
            ctx: QueryCtx {
                cancel: CancelToken::with_deadline(past),
                retry: RetryPolicy::default(),
            },
            ..job(Priority::Batch)
        };
        q.submit(1, expired, expired_tx).unwrap();
        q.submit(1, job(Priority::Batch), live_tx).unwrap();
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
        let q = queue(16);
        let (tx, _rx) = channel::unbounded();
        // Two batch jobs first, then an interactive point query.
        let b0 = q.submit(1, job(Priority::Batch), tx.clone()).unwrap();
        let b1 = q.submit(1, job(Priority::Batch), tx.clone()).unwrap();
        let point = q.submit(1, job(Priority::Interactive), tx).unwrap();
        let popped: Vec<u64> = (0..3).map(|_| q.pop().unwrap().seq).collect();
        assert_eq!(
            popped,
            vec![point, b0, b1],
            "the interactive job dequeues first; batch stays FIFO"
        );
    }

    #[test]
    fn close_drains_then_ends() {
        let q = queue(16);
        let (tx, _rx) = channel::unbounded();
        q.submit(1, job(Priority::Batch), tx.clone()).unwrap();
        q.close();
        assert!(matches!(
            q.submit(1, job(Priority::Batch), tx),
            Err(ServerError::ShuttingDown)
        ));
        assert!(q.pop().is_some(), "admitted work still drains");
        assert!(q.pop().is_none(), "then the queue ends");
    }
}
