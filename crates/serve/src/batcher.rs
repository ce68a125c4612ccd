//! The cross-request batcher.
//!
//! Point predictions are tiny — one row through the SoA lockstep
//! scorer — so per-request dispatch overhead (admission, leasing, the
//! program walk) dominates. When several clients hit the *same*
//! accelerator concurrently, their rows can share one dispatch: the
//! engine scores lanes in lockstep anyway, and per-row predictions are
//! independent of batch composition, so coalescing changes throughput
//! but not a single output bit.
//!
//! ## Protocol
//!
//! Each UDF has at most one *open* batch cell. The first caller to
//! register in a cell becomes its **leader**; later callers are
//! **followers**. Followers park on a reply channel. The leader waits
//! up to the configured window (or until the cell fills to
//! `max_batch`), *seals* the cell so no further rows can join, runs the
//! scoring closure over the accumulated rows, and fans each caller its
//! own row's prediction by registration index — so replies are
//! deterministic regardless of thread arrival order.
//!
//! On a failed dispatch the leader surfaces the typed error; followers
//! receive a string copy ([`ServeError::Batch`]) because the underlying
//! errors are not cloneable.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};

use crate::error::{ServeError, ServeResult};

/// Coalescing knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Rows after which a cell seals immediately (leader stops waiting).
    pub max_batch: usize,
    /// How long a leader holds the cell open for followers. Zero means
    /// singleton mode: every request dispatches alone.
    pub window: Duration,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig {
            max_batch: 16,
            window: Duration::from_micros(500),
        }
    }
}

type Reply = Result<(f32, usize), String>;

struct BatchInner {
    rows: Vec<Vec<f32>>,
    replies: Vec<Sender<Reply>>,
    /// Once true, no further registration: the leader is (or is about
    /// to start) dispatching this cell's rows.
    sealed: bool,
}

struct BatchCell {
    inner: Mutex<BatchInner>,
    /// Signalled when the cell fills to `max_batch`, waking the leader
    /// out of its window early.
    full: Condvar,
}

impl BatchCell {
    fn new() -> BatchCell {
        BatchCell {
            inner: Mutex::new(BatchInner {
                rows: Vec::new(),
                replies: Vec::new(),
                sealed: false,
            }),
            full: Condvar::new(),
        }
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
    fn lock(&self) -> MutexGuard<'_, BatchInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Coalesces concurrent point predictions per UDF. All methods take
/// `&self`; share it behind an `Arc` across request threads.
pub struct Batcher {
    open: Mutex<HashMap<String, Arc<BatchCell>>>,
    config: BatcherConfig,
}

impl Batcher {
    pub fn new(config: BatcherConfig) -> Batcher {
        Batcher {
            open: Mutex::new(HashMap::new()),
            config,
        }
    }

    fn lock_open(&self) -> MutexGuard<'_, HashMap<String, Arc<BatchCell>>> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submits one row for `udf` and blocks until its prediction is
    /// available. `score` runs at most once per sealed batch — on the
    /// leader's thread, with no batcher locks held — and must return
    /// one prediction per input row, in order.
    ///
    /// Returns `(prediction, batch_rows)` where `batch_rows` is how
    /// many rows shared the dispatch (1 = not coalesced).
    pub fn submit<F>(&self, udf: &str, row: Vec<f32>, score: F) -> ServeResult<(f32, usize)>
    where
        F: FnOnce(&[Vec<f32>]) -> ServeResult<Vec<f32>>,
    {
        if self.config.window.is_zero() || self.config.max_batch <= 1 {
            // Singleton mode: no cell bookkeeping at all.
            let preds = score(std::slice::from_ref(&row))?;
            return Ok((preds[0], 1));
        }

        let (tx, rx) = bounded::<Reply>(1);
        let (cell, index) = loop {
            // Take (or open) the UDF's cell under the map lock, then
            // try to register under the cell lock. A sealed cell means
            // its leader is dispatching; replace it and lead the next
            // batch ourselves.
            let cell = {
                let mut open = self.lock_open();
                Arc::clone(
                    open.entry(udf.to_string())
                        .or_insert_with(|| Arc::new(BatchCell::new())),
                )
            };
            let mut inner = cell.lock();
            if inner.sealed {
                drop(inner);
                let mut open = self.lock_open();
                if let Some(current) = open.get(udf) {
                    if Arc::ptr_eq(current, &cell) {
                        open.remove(udf);
                    }
                }
                continue;
            }
            let index = inner.rows.len();
            inner.rows.push(row.clone());
            inner.replies.push(tx.clone());
            if inner.rows.len() >= self.config.max_batch {
                inner.sealed = true;
                cell.full.notify_all();
            }
            drop(inner);
            break (cell, index);
        };

        if index == 0 {
            self.lead(udf, &cell, score)?;
        }

        match rx.recv() {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(msg)) => Err(ServeError::Batch(msg)),
            Err(_) => Err(ServeError::Batch(
                "batch dispatch dropped without replying".to_string(),
            )),
        }
    }

    /// The leader's half: hold the window open, seal, dispatch, fan out.
    fn lead<F>(&self, udf: &str, cell: &Arc<BatchCell>, score: F) -> ServeResult<()>
    where
        F: FnOnce(&[Vec<f32>]) -> ServeResult<Vec<f32>>,
    {
        let deadline = std::time::Instant::now() + self.config.window;
        let mut inner = cell.lock();
        while !inner.sealed {
            let now = std::time::Instant::now();
            if now >= deadline {
                inner.sealed = true;
                break;
            }
            let (guard, _timeout) = cell
                .full
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        let rows = std::mem::take(&mut inner.rows);
        let replies = std::mem::take(&mut inner.replies);
        drop(inner);

        // Retire the cell so the next arrival opens a fresh batch.
        {
            let mut open = self.lock_open();
            if let Some(current) = open.get(udf) {
                if Arc::ptr_eq(current, cell) {
                    open.remove(udf);
                }
            }
        }

        let n = rows.len();
        match score(&rows) {
            Ok(preds) => {
                debug_assert_eq!(preds.len(), n);
                for (i, reply) in replies.iter().enumerate() {
                    let _ = reply.send(Ok((preds[i], n)));
                }
                Ok(())
            }
            Err(e) => {
                // Followers get message copies; the leader's own reply
                // channel stays empty and the typed error propagates
                // through this return instead.
                let msg = e.to_string();
                for reply in replies.iter().skip(1) {
                    let _ = reply.send(Err(msg.clone()));
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn sum_scorer(calls: &Arc<AtomicUsize>) -> impl Fn(&[Vec<f32>]) -> ServeResult<Vec<f32>> + '_ {
        let calls = Arc::clone(calls);
        move |rows: &[Vec<f32>]| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(rows.iter().map(|r| r.iter().sum()).collect())
        }
    }

    #[test]
    fn singleton_mode_dispatches_alone() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 16,
            window: Duration::ZERO,
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let (p, n) = b.submit("f", vec![1.0, 2.0], sum_scorer(&calls)).unwrap();
        assert_eq!(p, 3.0);
        assert_eq!(n, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_fan_out_by_row() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::from_millis(100),
        }));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let b = Arc::clone(&b);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let row = vec![t as f32, 10.0];
                b.submit("f", row, |rows| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        let results: Vec<(f32, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each caller got exactly its own row's sum, and at least one
        // dispatch carried multiple rows (fewer dispatches than rows).
        for (t, (p, _n)) in results.iter().enumerate() {
            assert_eq!(*p, t as f32 + 10.0);
        }
        assert!(calls.load(Ordering::SeqCst) < 4);
        assert!(results.iter().any(|(_, n)| *n > 1));
    }

    #[test]
    fn max_batch_seals_the_cell_early() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            // A window long enough that only the max-batch seal can
            // explain a prompt return.
            window: Duration::from_secs(5),
        }));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(2));
        let start = std::time::Instant::now();
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let b = Arc::clone(&b);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit("f", vec![t as f32], |rows| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn failed_dispatch_reaches_every_member() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            window: Duration::from_secs(5),
        }));
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let b = Arc::clone(&b);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit("f", vec![t as f32], |_rows| {
                    Err(ServeError::Batch("scorer exploded".to_string()))
                })
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("scorer exploded"), "{err}");
        }
    }

    #[test]
    fn different_udfs_never_share_a_batch() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::from_millis(20),
        }));
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for (udf, v) in [("f", 1.0f32), ("g", 2.0f32)] {
            let b = Arc::clone(&b);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit(udf, vec![v], |rows| {
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        let results: Vec<(f32, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0].0, 1.0);
        assert_eq!(results[1].0, 2.0);
        assert!(results.iter().all(|(_, n)| *n == 1));
    }
}
