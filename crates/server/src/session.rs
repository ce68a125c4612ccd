//! Session management: who is asking, and how their queries are doing.
//!
//! Every client opens a session before submitting queries. The session
//! tracks per-client accounting — queries submitted / completed / failed,
//! simulated accelerator seconds consumed, and wall-clock execution time —
//! which is what an operator reads to see which tenant is saturating the
//! accelerator pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::{ServerError, ServerResult};

/// Opaque session handle.
pub type SessionId = u64;

/// Per-session accounting snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Client-supplied label (shown in utilization reports).
    pub name: String,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Simulated accelerator seconds consumed by completed queries.
    pub sim_seconds: f64,
    /// Host wall-clock seconds spent executing (excludes queue wait).
    pub wall_seconds: f64,
    /// Largest single-query wall execution time.
    pub max_wall_seconds: f64,
}

/// The session table.
#[derive(Default)]
pub struct SessionManager {
    sessions: Mutex<HashMap<SessionId, SessionStats>>,
    next: AtomicU64,
}

impl SessionManager {
    pub fn new() -> SessionManager {
        SessionManager::default()
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
    fn lock(&self) -> MutexGuard<'_, HashMap<SessionId, SessionStats>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a session and returns its id.
    pub fn open(&self, name: &str) -> SessionId {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.lock().insert(
            id,
            SessionStats {
                name: name.to_string(),
                ..SessionStats::default()
            },
        );
        id
    }

    /// Closes a session, returning its final stats.
    pub fn close(&self, id: SessionId) -> ServerResult<SessionStats> {
        self.lock()
            .remove(&id)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Records a submission attempt; errors if the session is unknown.
    pub fn record_submit(&self, id: SessionId) -> ServerResult<()> {
        let mut map = self.lock();
        let s = map.get_mut(&id).ok_or(ServerError::UnknownSession(id))?;
        s.submitted += 1;
        Ok(())
    }

    /// Records a query outcome. Unknown sessions are ignored (the client
    /// may have closed the session while its query was still queued).
    pub fn record_done(&self, id: SessionId, ok: bool, sim_seconds: f64, wall_seconds: f64) {
        let mut map = self.lock();
        if let Some(s) = map.get_mut(&id) {
            if ok {
                s.completed += 1;
                s.sim_seconds += sim_seconds;
            } else {
                s.failed += 1;
            }
            s.wall_seconds += wall_seconds;
            s.max_wall_seconds = s.max_wall_seconds.max(wall_seconds);
        }
    }

    pub fn stats(&self, id: SessionId) -> Option<SessionStats> {
        self.lock().get(&id).cloned()
    }

    /// All open sessions, sorted by id.
    pub fn all_stats(&self) -> Vec<(SessionId, SessionStats)> {
        let mut v: Vec<_> = self.lock().iter().map(|(k, v)| (*k, v.clone())).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_accounting() {
        let mgr = SessionManager::new();
        let a = mgr.open("alice");
        let b = mgr.open("bob");
        assert_ne!(a, b);

        mgr.record_submit(a).unwrap();
        mgr.record_done(a, true, 1.5, 0.1);
        mgr.record_submit(a).unwrap();
        mgr.record_done(a, false, 0.0, 0.3);

        let s = mgr.stats(a).unwrap();
        assert_eq!(s.name, "alice");
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert!((s.sim_seconds - 1.5).abs() < 1e-12);
        assert!((s.wall_seconds - 0.4).abs() < 1e-12);
        assert!((s.max_wall_seconds - 0.3).abs() < 1e-12);

        let all = mgr.all_stats();
        assert_eq!(all.len(), 2);
        assert!(all[0].0 < all[1].0);

        let closed = mgr.close(a).unwrap();
        assert_eq!(closed.completed, 1);
        assert!(matches!(
            mgr.record_submit(a),
            Err(ServerError::UnknownSession(_))
        ));
        assert!(matches!(mgr.close(a), Err(ServerError::UnknownSession(_))));
        // A straggler completion for a closed session is dropped silently.
        mgr.record_done(a, true, 1.0, 1.0);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let mgr = std::sync::Arc::new(SessionManager::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|i| m.open(&format!("s{i}")))
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids: Vec<SessionId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
