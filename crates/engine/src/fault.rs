//! Fault injection, cooperative cancellation, and the guard a training
//! run carries.
//!
//! The serving stack assumes accelerators that can hiccup mid-query: an
//! instance drops a lease, a gang member faults at an epoch boundary, a
//! query overruns its deadline. This module provides the primitives the
//! rest of the stack builds fault tolerance from:
//!
//! * [`CancelToken`] — cooperative cancellation. Queries carry a token and
//!   the epoch loop checks it at every epoch boundary; an expired deadline
//!   surfaces as the typed [`EngineError::DeadlineExceeded`], so the
//!   caller unwinds cleanly (leases released, buffer-pool frames dropped)
//!   instead of being killed mid-scatter.
//! * [`FaultPlan`] — a deterministic injection plan for tests and smoke
//!   runs. Faults fire at exact (member, epoch) boundaries with a bounded
//!   budget, so a seeded test replays bit-identically: no timers, no
//!   randomness.
//! * [`RunGuard`] — the token, the plan and the [`RetryPolicy`] one
//!   statement's training runs under; [`FaultEvents`] is what fired.
//!
//! The epoch loop that consults them is `dana_parallel`'s
//! `train_gang_guarded`: every EXECUTE, of one member or several, is a
//! gang. Its one fault policy is Bismarck's observation that
//! epoch-structured training restarts from a model snapshot and that
//! data-parallel training averages models: a faulted member re-runs its
//! epoch from the epoch-start global model after a bounded-exponential
//! backoff. Injection happens *at* the boundary — before any of the
//! epoch's tuples are processed — so the re-run sees exactly the state
//! the no-fault run would have, which is what keeps the recovered run's
//! models **and** cycle counters bit-identical to an undisturbed one.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, EngineResult};

/// Cooperative cancellation handle: a deadline, an explicit cancel flag,
/// or both. Clones share the flag, so a server can cancel a running query
/// from another thread; the running query observes it at its next
/// epoch-boundary [`CancelToken::check`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that never cancels.
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// Cancels when `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
            flag: None,
        }
    }

    /// A manually cancellable token (no deadline). Clone it into the
    /// query; call [`CancelToken::cancel`] on either clone.
    pub fn manual() -> CancelToken {
        CancelToken {
            deadline: None,
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Trips the cancel flag (no-op for deadline-only tokens).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the token has tripped (flag set or deadline passed).
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::SeqCst) {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// The cooperative check: called at epoch boundaries.
    pub fn check(&self) -> EngineResult<()> {
        if self.is_cancelled() {
            Err(EngineError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// A deterministic fault-injection plan, installed per-test (or per smoke
/// run) and consulted by the guarded epoch loop and the accelerator
/// pool. Every fault site is an exact (member, epoch) coordinate with a
/// bounded budget, so injected runs replay deterministically.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Epoch boundary at which to inject a transient fault.
    fail_epoch: Option<u32>,
    /// Restrict the injection to one gang member (`None` hits every
    /// member alike).
    fail_shard: Option<usize>,
    /// Epoch boundary at which to panic (worker isolation tests).
    panic_epoch: Option<u32>,
    /// Stall every lease grant by this long (deadline tests).
    stall: Option<Duration>,
    /// Remaining injections; each firing consumes one.
    budget: AtomicU32,
    /// Total faults actually fired.
    injected: AtomicU64,
}

impl FaultPlan {
    /// Injects `budget` transient faults at the boundary of `epoch`, to
    /// whichever gang members consult the plan first — members in order,
    /// then their retries. A serial run is a gang of one.
    pub fn transient_at_epoch(epoch: u32, budget: u32) -> FaultPlan {
        FaultPlan {
            fail_epoch: Some(epoch),
            budget: AtomicU32::new(budget),
            ..FaultPlan::default()
        }
    }

    /// Faults gang member `shard` once, at the boundary of `epoch`.
    pub fn shard_fault(shard: usize, epoch: u32) -> FaultPlan {
        FaultPlan {
            fail_epoch: Some(epoch),
            fail_shard: Some(shard),
            budget: AtomicU32::new(1),
            ..FaultPlan::default()
        }
    }

    /// Panics the executing worker at the boundary of `epoch`.
    pub fn panic_at_epoch(epoch: u32) -> FaultPlan {
        FaultPlan {
            panic_epoch: Some(epoch),
            budget: AtomicU32::new(1),
            ..FaultPlan::default()
        }
    }

    /// Stalls every lease grant by `stall`.
    pub fn lease_stall(stall: Duration) -> FaultPlan {
        FaultPlan {
            stall: Some(stall),
            budget: AtomicU32::new(u32::MAX),
            ..FaultPlan::default()
        }
    }

    /// How long a lease grant should stall, if this plan stalls leases.
    pub fn lease_stall_for(&self) -> Option<Duration> {
        self.stall
    }

    /// Consumes one injection if the plan targets this (member, epoch)
    /// coordinate. A serial run's lone member is member 0.
    pub fn should_fail(&self, member: usize, epoch: u32) -> bool {
        if self.fail_epoch != Some(epoch) {
            return false;
        }
        if self.fail_shard.is_some_and(|s| s != member) {
            return false;
        }
        self.take_budget()
    }

    /// Consumes one injection if the plan panics at this epoch boundary.
    pub fn should_panic(&self, epoch: u32) -> bool {
        self.panic_epoch == Some(epoch) && self.take_budget()
    }

    /// Total faults this plan has actually fired.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn take_budget(&self) -> bool {
        let took = self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok();
        if took {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        took
    }
}

/// Bounded exponential backoff for transient-fault retries. Deterministic
/// (no jitter) so injected tests replay exactly; the base is tiny because
/// the simulated faults it answers are instantaneous.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per epoch boundary before the fault is terminal.
    pub max_retries: u32,
    /// First backoff pause; doubles per consecutive retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// No retries: every transient fault is terminal.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `attempt` (0-based): `base << attempt`,
    /// capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let scaled = self
            .base_backoff
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.max_backoff);
        scaled.min(self.max_backoff)
    }
}

/// What happened, fault-wise, during one guarded run. All-zero for an
/// undisturbed query — observability layers add fault spans and counters
/// only when something actually fired, so no-fault trace structure is
/// unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultEvents {
    /// Transient faults observed (injected or reported).
    pub transient_faults: u32,
    /// Member epochs re-run from the epoch-start model after a fault.
    pub retries: u32,
    /// Total backoff pause across retries.
    pub backoff_seconds: f64,
    /// Gang members that faulted, recovered or not (ascending, deduped).
    pub faulted_shards: Vec<usize>,
}

impl FaultEvents {
    /// True when nothing fired — the run was undisturbed.
    pub fn is_quiet(&self) -> bool {
        *self == FaultEvents::default()
    }

    /// Folds another run's events into this one.
    pub fn absorb(&mut self, other: &FaultEvents) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff_seconds += other.backoff_seconds;
        self.faulted_shards
            .extend(other.faulted_shards.iter().copied());
    }
}

/// Guard context for one training run: cancellation, optional fault
/// injection, and the retry policy answering transient faults. The epoch
/// loop consults it at every member's epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct RunGuard<'a> {
    pub cancel: &'a CancelToken,
    pub fault: Option<&'a FaultPlan>,
    pub retry: RetryPolicy,
}

impl<'a> RunGuard<'a> {
    /// A guard with cancellation only (no injection, default retries).
    pub fn new(cancel: &'a CancelToken) -> RunGuard<'a> {
        RunGuard {
            cancel,
            fault: None,
            retry: RetryPolicy::default(),
        }
    }

    pub fn with_fault(mut self, fault: Option<&'a FaultPlan>) -> RunGuard<'a> {
        self.fault = fault;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> RunGuard<'a> {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_none_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn token_deadline_trips() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn token_manual_cancel_is_shared_across_clones() {
        let t = CancelToken::manual();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn plan_budget_is_consumed() {
        let plan = FaultPlan::transient_at_epoch(2, 2);
        assert!(!plan.should_fail(0, 1));
        assert!(plan.should_fail(0, 2));
        assert!(
            plan.should_fail(3, 2),
            "an untargeted plan hits every member"
        );
        assert!(!plan.should_fail(0, 2), "budget spent");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn shard_targeted_plan_fires_for_its_member_only() {
        let plan = FaultPlan::shard_fault(1, 0);
        assert!(!plan.should_fail(0, 0), "other member untouched");
        assert!(!plan.should_fail(1, 1), "other epoch untouched");
        assert!(plan.should_fail(1, 0));
        assert!(!plan.should_fail(1, 0), "single-shot");
        // A serial run's lone member is member 0, so member 0's plan hits it.
        assert!(FaultPlan::shard_fault(0, 0).should_fail(0, 0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(1));
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4), "capped");
        assert_eq!(
            p.backoff_for(40),
            Duration::from_millis(4),
            "shift overflow capped"
        );
    }

    #[test]
    fn quiet_events_are_quiet() {
        let mut a = FaultEvents::default();
        assert!(a.is_quiet());
        let b = FaultEvents {
            transient_faults: 1,
            retries: 1,
            backoff_seconds: 0.001,
            faulted_shards: vec![2],
        };
        a.absorb(&b);
        assert!(!a.is_quiet());
        assert_eq!(a.faulted_shards, vec![2]);
    }
}
