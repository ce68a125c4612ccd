//! The accelerator pool: N independent FPGA instances behind a lease
//! scheduler that grants atomic **gang leases**.
//!
//! The paper deploys *one* accelerator per query; a serving tier
//! multiplexes many concurrent queries over a fixed pool of FPGA cards
//! (each a full Strider + execution-engine machine of the same
//! [`dana_fpga::FpgaSpec`]). There is one lease type: a worker leases a
//! **gang** of `k ≥ 1` instances ([`AcceleratorPool::lease_gang`]) — a
//! serial statement is a gang of one — runs the admitted query on it,
//! and releases it with the query's **simulated** runtime.
//!
//! Grant discipline: requests of every size queue FIFO and are granted
//! strictly in arrival order, each **atomically** — a gang takes all `k`
//! instances in one step or keeps waiting. Waiters hold nothing while
//! they wait, so gangs cannot deadlock against singles or each other;
//! FIFO order bounds everyone's wait, so gangs are neither starved by a
//! stream of singles nor able to starve the singles behind them
//! indefinitely. Instance selection is deterministic: the
//! least-loaded free instances win, ties broken by the **lowest instance
//! id** — so gang placement and utilization metrics are reproducible
//! run-to-run regardless of how the free list got scrambled by earlier
//! releases.
//!
//! Because all end-to-end timing in this reproduction is analytic, the
//! pool also plays simulated-time list scheduler: each instance carries a
//! busy clock, and releasing advances the clock(s) by the query's
//! simulated seconds (every member of a gang is busy for the gang's whole
//! runtime — that is what gang scheduling means). For a batch of queries
//! all submitted up front this computes exactly the greedy
//! list-scheduling makespan — the number `concurrent_server` and
//! [`PoolUtilization::speedup_vs_serial`] compare against serial
//! back-to-back execution.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Simulated seconds (matches `dana::report::Seconds`).
pub type Seconds = f64;

/// An instance's health, as the pool's scheduler sees it.
///
/// Fault reports escalate one step at a time (healthy → suspect →
/// quarantined); a quarantined instance is withheld from scheduling until
/// a [`AcceleratorPool::probe`] reinstates it. If *every* instance ends
/// up quarantined the pool self-heals by auto-probing the lowest id
/// rather than deadlocking the admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    Healthy,
    /// One fault observed; still schedulable, next fault quarantines.
    Suspect,
    /// Withheld from scheduling until probed.
    Quarantined,
}

impl Health {
    /// Numeric code for stats rows (0 = healthy, 1 = suspect,
    /// 2 = quarantined).
    pub fn code(&self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Suspect => 1,
            Health::Quarantined => 2,
        }
    }
}

/// Snapshot of the pool's health machinery for `SHOW STATS('faults')`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHealth {
    /// Per-instance health, instance order.
    pub states: Vec<Health>,
    /// Instances quarantined, cumulatively.
    pub quarantines: u64,
    /// Quarantined instances reinstated (probes + self-heals).
    pub reinstates: u64,
    /// Fault reports received.
    pub faults_reported: u64,
}

impl PoolHealth {
    pub fn quarantined_now(&self) -> usize {
        self.states
            .iter()
            .filter(|h| **h == Health::Quarantined)
            .count()
    }
}

struct PoolState {
    /// Free instance ids (order-insignificant; selection sorts).
    free: Vec<usize>,
    /// Accumulated simulated busy seconds per instance.
    busy_seconds: Vec<Seconds>,
    /// Accumulated simulated idle seconds per instance: the schedule
    /// holes gang scheduling forces, charged **at grant time** — a gang
    /// starts in lockstep at its slowest member's clock, so every other
    /// member sits idle from its own clock until then. Recording the gap
    /// when it happens is what lets utilization gauges report idle
    /// directly instead of inferring it from wall clock after the fact.
    idle_seconds: Vec<Seconds>,
    /// Leases granted per instance.
    leases: Vec<u64>,
    /// FIFO of waiting requests: `(ticket, gang size)`.
    waiting: VecDeque<(u64, usize)>,
    next_ticket: u64,
    closed: bool,
    /// Per-instance health; quarantined instances are withheld from the
    /// free list until probed.
    health: Vec<Health>,
    /// Whether the instance is currently out on a lease (guards the
    /// probe/give-back race: a reinstated-but-still-leased instance must
    /// not be double-freed).
    leased_now: Vec<bool>,
    quarantines: u64,
    reinstates: u64,
    faults_reported: u64,
    /// Fault-injection: stall every lease grant by this long.
    lease_stall: Option<Duration>,
}

impl PoolState {
    fn quarantined_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == Health::Quarantined)
            .count()
    }

    /// Reinstates `id` if idle; returns it to the free list.
    fn reinstate(&mut self, id: usize) {
        self.health[id] = Health::Healthy;
        self.reinstates += 1;
        if !self.leased_now[id] && !self.free.contains(&id) {
            self.free.push(id);
        }
    }

    /// Deterministically picks the `k` least-loaded free instances
    /// (lowest id on ties), removes them from the free list, counts the
    /// leases, and charges the gang-skew idle gap to every member that
    /// has to wait for the slowest one. Caller guarantees
    /// `free.len() >= k`.
    fn take_least_loaded(&mut self, k: usize) -> Vec<usize> {
        let PoolState {
            free, busy_seconds, ..
        } = self;
        free.sort_unstable_by(|a, b| {
            busy_seconds[*a]
                .partial_cmp(&busy_seconds[*b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        let mut ids: Vec<usize> = free.drain(..k).collect();
        ids.sort_unstable();
        // Lockstep start: the gang begins at its most-loaded member's
        // clock; everyone else idles from their own clock until then.
        // (A single's start is its own clock — zero idle accrues.)
        let gang_start = ids
            .iter()
            .map(|&id| self.busy_seconds[id])
            .fold(0.0, f64::max);
        for &id in &ids {
            self.idle_seconds[id] += gang_start - self.busy_seconds[id];
            self.leases[id] += 1;
            self.leased_now[id] = true;
        }
        ids
    }
}

/// A pool of `n` identical accelerator instances.
pub struct AcceleratorPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// Exclusive use of `k ≥ 1` instances, acquired atomically — the gang
/// one query trains or scores on (one instance for a serial statement).
/// Releasing charges **every** member the gang's simulated runtime
/// (lockstep members idle-wait on the critical shard; the hardware is
/// occupied either way); dropping without releasing returns the members
/// free of charge (the panic path).
pub struct GangLease<'a> {
    pool: &'a AcceleratorPool,
    ids: Vec<usize>,
    released: bool,
}

impl GangLease<'_> {
    /// Member instance ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// Returns every member, charging each `sim_seconds` of simulated
    /// busy time.
    pub fn release(mut self, sim_seconds: Seconds) {
        self.released = true;
        self.pool.give_back(&self.ids, sim_seconds.max(0.0));
    }
}

impl Drop for GangLease<'_> {
    fn drop(&mut self) {
        if !self.released {
            self.pool.give_back(&self.ids, 0.0);
        }
    }
}

/// Utilization snapshot: the pool's simulated schedule so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolUtilization {
    /// Simulated busy seconds per instance.
    pub busy_seconds: Vec<Seconds>,
    /// Simulated idle seconds per instance: schedule holes charged at
    /// gang-grant time, when a member waits for its most-loaded peer.
    pub idle_seconds: Vec<Seconds>,
    /// Leases granted per instance.
    pub leases: Vec<u64>,
}

impl PoolUtilization {
    pub fn instances(&self) -> usize {
        self.busy_seconds.len()
    }

    /// Total simulated work across all instances — what serial
    /// back-to-back execution would take.
    pub fn serial_seconds(&self) -> Seconds {
        self.busy_seconds.iter().sum()
    }

    /// Simulated completion time of the pool's greedy schedule (the most
    /// loaded instance finishes last).
    pub fn makespan_seconds(&self) -> Seconds {
        self.busy_seconds.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean instance utilization over the makespan, in [0, 1].
    pub fn utilization(&self) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.serial_seconds() / (self.instances() as f64 * makespan)
    }

    /// Throughput speedup over one-at-a-time execution of the same work.
    pub fn speedup_vs_serial(&self) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan <= 0.0 {
            return 1.0;
        }
        self.serial_seconds() / makespan
    }
}

impl AcceleratorPool {
    pub fn new(instances: usize) -> AcceleratorPool {
        let n = instances.max(1);
        AcceleratorPool {
            state: Mutex::new(PoolState {
                free: (0..n).rev().collect(),
                busy_seconds: vec![0.0; n],
                idle_seconds: vec![0.0; n],
                leases: vec![0; n],
                waiting: VecDeque::new(),
                next_ticket: 0,
                closed: false,
                health: vec![Health::Healthy; n],
                leased_now: vec![false; n],
                quarantines: 0,
                reinstates: 0,
                faults_reported: 0,
                lease_stall: None,
            }),
            available: Condvar::new(),
        }
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn size(&self) -> usize {
        self.lock().busy_seconds.len()
    }

    /// Atomically leases a gang of `k` instances: blocks until this
    /// request reaches the head of the FIFO *and* enough instances are
    /// free, then takes the `k` least-loaded ones (lowest ids on ties) in
    /// one step — it can neither deadlock against other gangs (no
    /// incremental hoarding) nor be starved by a stream of singles
    /// (arrival order wins). `k` is clamped to the pool size — a larger
    /// gang could never be satisfied. Returns `None` once the pool is
    /// closed.
    pub fn lease_gang(&self, k: usize) -> Option<GangLease<'_>> {
        let mut st = self.lock();
        let k = k.clamp(1, st.busy_seconds.len());
        if st.closed {
            return None;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push_back((ticket, k));
        loop {
            if st.closed {
                st.waiting.retain(|(t, _)| *t != ticket);
                return None;
            }
            // Quarantined instances shrink the schedulable pool; if every
            // instance is quarantined, self-heal by auto-probing the
            // lowest id rather than deadlocking the pipeline.
            let n = st.busy_seconds.len();
            if st.quarantined_count() == n {
                st.reinstate(0);
            }
            let need = k.min(n - st.quarantined_count()).max(1);
            if st.waiting.front().map(|(t, _)| *t) == Some(ticket) && st.free.len() >= need {
                st.waiting.pop_front();
                let ids = st.take_least_loaded(need);
                let stall = st.lease_stall;
                drop(st);
                // Leftover free instances may satisfy the next request.
                self.available.notify_all();
                if let Some(stall) = stall {
                    // Injected lease-grant stall (deterministic duration).
                    std::thread::sleep(stall);
                }
                return Some(GangLease {
                    pool: self,
                    ids,
                    released: false,
                });
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn give_back(&self, ids: &[usize], sim_seconds: Seconds) {
        let mut st = self.lock();
        for &id in ids {
            st.busy_seconds[id] += sim_seconds;
            st.leased_now[id] = false;
            // Quarantined instances sit out until a probe reinstates them.
            if st.health[id] != Health::Quarantined {
                st.free.push(id);
            }
        }
        drop(st);
        self.available.notify_all();
    }

    /// Reports a fault on `id`, escalating its health one step:
    /// healthy → suspect → quarantined. A newly quarantined idle instance
    /// leaves the free list immediately; a leased one is withheld at
    /// give-back. Returns the instance's new health.
    pub fn report_fault(&self, id: usize) -> Health {
        let mut st = self.lock();
        if id >= st.health.len() {
            return Health::Healthy;
        }
        st.faults_reported += 1;
        let next = match st.health[id] {
            Health::Healthy => Health::Suspect,
            Health::Suspect | Health::Quarantined => Health::Quarantined,
        };
        if next == Health::Quarantined && st.health[id] != Health::Quarantined {
            st.quarantines += 1;
            st.free.retain(|&f| f != id);
        }
        st.health[id] = next;
        drop(st);
        // Capacity may have shrunk; waiters re-evaluate their clamp.
        self.available.notify_all();
        next
    }

    /// Probes a quarantined instance and reinstates it (the simulated
    /// probe always passes — instances here don't stay broken). Returns
    /// whether the instance was quarantined. No-op for healthy, suspect,
    /// or out-of-range ids.
    pub fn probe(&self, id: usize) -> bool {
        let mut st = self.lock();
        if id >= st.health.len() || st.health[id] != Health::Quarantined {
            return false;
        }
        st.reinstate(id);
        drop(st);
        self.available.notify_all();
        true
    }

    /// Injects a stall into every subsequent lease grant (`None` clears).
    pub fn set_lease_stall(&self, stall: Option<Duration>) {
        self.lock().lease_stall = stall;
    }

    /// Snapshot of instance health and the fault/quarantine counters.
    pub fn health(&self) -> PoolHealth {
        let st = self.lock();
        PoolHealth {
            states: st.health.clone(),
            quarantines: st.quarantines,
            reinstates: st.reinstates,
            faults_reported: st.faults_reported,
        }
    }

    /// Closes the pool: pending and future leases return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    pub fn utilization(&self) -> PoolUtilization {
        let st = self.lock();
        PoolUtilization {
            busy_seconds: st.busy_seconds.clone(),
            idle_seconds: st.idle_seconds.clone(),
            leases: st.leases.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn leases_pack_onto_least_loaded_instance() {
        let pool = AcceleratorPool::new(2);
        // Two jobs of unequal length, then two more: the greedy schedule
        // puts the later jobs opposite the heavy one.
        let l0 = pool.lease_gang(1).unwrap();
        let l1 = pool.lease_gang(1).unwrap();
        assert_ne!(l0.ids()[0], l1.ids()[0]);
        let heavy = l0.ids()[0];
        l0.release(10.0);
        l1.release(1.0);
        let l2 = pool.lease_gang(1).unwrap();
        assert_ne!(
            l2.ids()[0],
            heavy,
            "next lease must avoid the loaded instance"
        );
        l2.release(1.0);

        let u = pool.utilization();
        assert_eq!(u.instances(), 2);
        assert_eq!(u.serial_seconds(), 12.0);
        assert_eq!(u.makespan_seconds(), 10.0);
        assert!((u.speedup_vs_serial() - 1.2).abs() < 1e-12);
        assert_eq!(u.leases.iter().sum::<u64>(), 3);
    }

    /// Regression: ties on simulated load must break to the lowest
    /// instance id no matter how earlier lease/release traffic scrambled
    /// the free list — placement and utilization metrics must be
    /// reproducible run-to-run.
    #[test]
    fn equal_load_ties_break_to_lowest_instance_id() {
        let pool = AcceleratorPool::new(4);
        // Scramble the free list: take all four, release out of order
        // with *equal* charges so every instance stays tied.
        let mut leases: Vec<_> = (0..4).map(|_| pool.lease_gang(1).unwrap()).collect();
        // Release 2, 0, 3, 1.
        for want in [2usize, 0, 3, 1] {
            let pos = leases.iter().position(|l| l.ids()[0] == want).unwrap();
            leases.remove(pos).release(1.0);
        }
        // All tied at 1.0s; the next lease must take instance 0, then 1…
        let a = pool.lease_gang(1).unwrap();
        assert_eq!(a.ids()[0], 0, "tie must break to the lowest id");
        let b = pool.lease_gang(1).unwrap();
        assert_eq!(b.ids()[0], 1);
        drop((a, b));

        // Same for a gang: lowest ids among the least loaded, ascending.
        let g = pool.lease_gang(3).unwrap();
        assert_eq!(g.ids(), &[0, 1, 2]);
        g.release(2.0);
        // Now 0/1/2 carry 3.0s, instance 3 carries 1.0s: a 2-gang takes
        // the least-loaded 3 plus the lowest-id tied instance 0.
        let g = pool.lease_gang(2).unwrap();
        assert_eq!(g.ids(), &[0, 3]);
        g.release(0.0);
    }

    #[test]
    fn gang_lease_is_atomic_and_charges_every_member() {
        let pool = AcceleratorPool::new(4);
        let g = pool.lease_gang(3).unwrap();
        assert_eq!(g.size(), 3);
        assert_eq!(g.ids(), &[0, 1, 2]);
        // One instance left for singles while the gang runs.
        let s = pool.lease_gang(1).unwrap();
        assert_eq!(s.ids()[0], 3);
        s.release(1.0);
        g.release(5.0);
        let u = pool.utilization();
        assert_eq!(u.busy_seconds, vec![5.0, 5.0, 5.0, 1.0]);
        assert_eq!(u.makespan_seconds(), 5.0);
        // Oversized gangs clamp to the pool rather than deadlocking.
        let g = pool.lease_gang(9).unwrap();
        assert_eq!(g.size(), 4);
        g.release(0.0);
    }

    /// A gang over uneven clocks starts in lockstep at its slowest
    /// member, so the lighter members are charged the schedule hole as
    /// idle time at grant; singles never accrue idle.
    #[test]
    fn gang_grant_charges_schedule_hole_idle_to_lighter_members() {
        let pool = AcceleratorPool::new(2);
        let a = pool.lease_gang(1).unwrap();
        let b = pool.lease_gang(1).unwrap();
        a.release(3.0);
        b.release(1.0);
        // Singles accrue no idle, whatever their clocks.
        assert_eq!(pool.utilization().idle_seconds, vec![0.0, 0.0]);

        // Gang starts at t = 3.0 (instance 0's clock); instance 1 sat
        // idle from t = 1.0 until then.
        let g = pool.lease_gang(2).unwrap();
        g.release(2.0);
        let u = pool.utilization();
        assert_eq!(u.busy_seconds, vec![5.0, 3.0]);
        assert_eq!(u.idle_seconds, vec![0.0, 2.0]);

        // Busy-clock accounting is untouched by the idle charge.
        assert_eq!(u.serial_seconds(), 8.0);
    }

    /// FIFO grant order: a waiting gang is not starved by singles that
    /// arrive after it, and the singles still run once the gang got its
    /// turn — neither side starves the other.
    #[test]
    fn waiting_gang_neither_starves_nor_is_starved() {
        let pool = Arc::new(AcceleratorPool::new(2));
        let l0 = pool.lease_gang(1).unwrap();
        let l1 = pool.lease_gang(1).unwrap();

        let (tx, rx) = mpsc::channel::<&'static str>();
        let gang_pool = Arc::clone(&pool);
        let gang_tx = tx.clone();
        let gang = std::thread::spawn(move || {
            let g = gang_pool.lease_gang(2).unwrap();
            gang_tx.send("gang").unwrap();
            g.release(1.0);
        });
        // Give the gang time to enqueue, then queue a single behind it.
        std::thread::sleep(Duration::from_millis(30));
        let single_pool = Arc::clone(&pool);
        let single_tx = tx.clone();
        let single = std::thread::spawn(move || {
            let s = single_pool.lease_gang(1).unwrap();
            single_tx.send("single").unwrap();
            s.release(1.0);
        });
        std::thread::sleep(Duration::from_millis(30));

        // One instance frees: the gang (head of the queue) still needs
        // two, and the single behind it must not jump the line.
        l0.release(1.0);
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "nobody can be served on one free instance while a 2-gang heads the queue"
        );
        // Second instance frees: the gang takes both, then the single.
        l1.release(1.0);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "gang");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "single");
        gang.join().unwrap();
        single.join().unwrap();
        let u = pool.utilization();
        assert_eq!(
            u.leases.iter().sum::<u64>(),
            5,
            "2 singles + 2-gang + 1 single"
        );
    }

    #[test]
    fn equal_jobs_reach_near_linear_speedup() {
        let pool = AcceleratorPool::new(4);
        for _ in 0..16 {
            let lease = pool.lease_gang(1).unwrap();
            lease.release(1.0);
        }
        let u = pool.utilization();
        assert_eq!(u.serial_seconds(), 16.0);
        assert_eq!(u.makespan_seconds(), 4.0);
        assert!((u.speedup_vs_serial() - 4.0).abs() < 1e-12);
        assert!((u.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dropped_lease_returns_instance_without_charge() {
        let pool = AcceleratorPool::new(1);
        {
            let _lease = pool.lease_gang(1).unwrap();
            // Dropped without release (the panic path).
        }
        let again = pool.lease_gang(1).expect("instance must come back");
        again.release(2.0);
        assert_eq!(pool.utilization().serial_seconds(), 2.0);
    }

    #[test]
    fn close_wakes_blocked_leases() {
        let pool = std::sync::Arc::new(AcceleratorPool::new(1));
        let held = pool.lease_gang(1).unwrap();
        let p2 = std::sync::Arc::clone(&pool);
        let waiter = std::thread::spawn(move || p2.lease_gang(1).is_none());
        // Give the waiter time to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.close();
        assert!(waiter.join().unwrap(), "blocked lease must see the close");
        drop(held);
        assert!(pool.lease_gang(1).is_none(), "closed pool stays closed");
    }

    #[test]
    fn fault_reports_escalate_and_quarantine_withholds_the_instance() {
        let pool = AcceleratorPool::new(2);
        assert_eq!(pool.report_fault(0), Health::Suspect);
        // Suspect instances still schedule.
        let l = pool.lease_gang(1).unwrap();
        assert_eq!(l.ids()[0], 0);
        l.release(1.0);
        // Second fault quarantines; the idle instance leaves the free
        // list immediately, so the next lease lands elsewhere even though
        // instance 0 is the least loaded... (it is not: 1.0 vs 0.0 — take
        // the other one anyway to prove avoidance).
        assert_eq!(pool.report_fault(0), Health::Quarantined);
        let l = pool.lease_gang(1).unwrap();
        assert_eq!(l.ids()[0], 1);
        l.release(5.0);
        let l = pool.lease_gang(1).unwrap();
        assert_eq!(l.ids()[0], 1, "quarantined instance must not be leased");
        l.release(0.0);
        // Probe reinstates; instance 0 is schedulable again.
        assert!(pool.probe(0));
        assert!(!pool.probe(0), "probe is idempotent");
        let l = pool.lease_gang(1).unwrap();
        assert_eq!(l.ids()[0], 0);
        l.release(0.0);
        let h = pool.health();
        assert_eq!(h.quarantines, 1);
        assert_eq!(h.reinstates, 1);
        assert_eq!(h.faults_reported, 2);
        assert_eq!(h.quarantined_now(), 0);
    }

    #[test]
    fn quarantine_of_a_leased_instance_takes_effect_at_give_back() {
        let pool = AcceleratorPool::new(2);
        let g = pool.lease_gang(2).unwrap();
        // Confirmed gang-member fault: escalate instance 1 twice.
        pool.report_fault(1);
        pool.report_fault(1);
        g.release(1.0);
        assert_eq!(pool.health().states[1], Health::Quarantined);
        // Both capacity and gang clamp shrink to the surviving instance.
        let g = pool.lease_gang(2).unwrap();
        assert_eq!(g.ids(), &[0], "gang clamps to non-quarantined capacity");
        g.release(1.0);
    }

    #[test]
    fn fully_quarantined_pool_self_heals_instead_of_deadlocking() {
        let pool = AcceleratorPool::new(2);
        for id in 0..2 {
            pool.report_fault(id);
            pool.report_fault(id);
        }
        assert_eq!(pool.health().quarantined_now(), 2);
        let l = pool
            .lease_gang(1)
            .expect("self-heal must reinstate an instance");
        assert_eq!(l.ids()[0], 0, "lowest id is auto-probed");
        l.release(1.0);
        let h = pool.health();
        assert_eq!(h.quarantined_now(), 1);
        assert_eq!(h.reinstates, 1);
    }

    #[test]
    fn probe_during_lease_does_not_double_free() {
        let pool = AcceleratorPool::new(1);
        let l = pool.lease_gang(1).unwrap();
        pool.report_fault(0);
        pool.report_fault(0);
        // Reinstate while the lease is still out: no double-free.
        assert!(pool.probe(0));
        l.release(1.0);
        let a = pool.lease_gang(1).unwrap();
        let p2: &AcceleratorPool = &pool;
        std::thread::scope(|scope| {
            let t = scope.spawn(move || {
                // Must block (only one instance), not succeed instantly.
                std::thread::sleep(Duration::from_millis(20));
                p2.close();
            });
            assert!(
                p2.lease_gang(1).is_none(),
                "second lease must wait, then close"
            );
            t.join().unwrap();
        });
        a.release(0.0);
    }

    #[test]
    fn lease_stall_injection_delays_grants() {
        let pool = AcceleratorPool::new(1);
        pool.set_lease_stall(Some(Duration::from_millis(25)));
        let t0 = std::time::Instant::now();
        let l = pool.lease_gang(1).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        l.release(0.0);
        pool.set_lease_stall(None);
        let t0 = std::time::Instant::now();
        pool.lease_gang(1).unwrap().release(0.0);
        assert!(t0.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn empty_pool_utilization_is_safe() {
        let pool = AcceleratorPool::new(3);
        let u = pool.utilization();
        assert_eq!(u.utilization(), 0.0);
        assert_eq!(u.speedup_vs_serial(), 1.0);
        assert_eq!(u.makespan_seconds(), 0.0);
    }
}
