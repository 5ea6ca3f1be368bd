//! The sharded serving engine.
//!
//! One [`ScoringEngine`] is a single Mutex+Condvar queue: past a few
//! workers the coordinator lock, not scoring, bounds throughput.
//! [`ShardedEngine`] starts [`EngineConfig::shards`] fully independent
//! engines — each with its own bounded queue, worker pool, supervisor,
//! and breaker (the whole PR-7 fault-tolerance story, per shard) — and
//! routes every *connection* to one shard by hashing its connection id
//! ([`shard_index`], FNV-1a 64). Routing whole connections rather than
//! individual requests keeps the per-connection response-ordering and
//! micro-batching behavior of a single engine.
//!
//! Scores are unaffected by sharding: rowwise models are
//! row-independent, and MC-form models seed per request
//! ([`rdrp::SCORING_SEED`]), so a request scores bitwise-identically on
//! any shard of any topology — pinned by the sharded integration suite
//! at shards {1, 2, 8}.
//!
//! For tests, the environment variable `RDRP_SHARD_PIN` (read **once**,
//! at construction, to stay immune to env races between parallel tests)
//! forces every connection onto one shard index. Pinning never changes
//! scores, only which queue serves them.
//!
//! Fault injection: each shard consults its own chaos point
//! `shard{i}.worker_batch` in addition to the engine-wide
//! `engine.worker_batch`, so the chaos suite can wedge one shard and
//! prove its neighbors keep serving; [`ShardedEngine::submit_to`]
//! additionally consults `shard.submit` (stall faults) on the routing
//! path.

use crate::calibration::CalibrationMonitor;
use crate::config::EngineConfig;
use crate::engine::{PendingScore, Rejected, ScoringEngine};
use crate::net::Waker;
use linalg::Matrix;
use obs::Obs;
use rdrp::RoiMethod;
use std::sync::Arc;
use std::time::Duration;

/// Env var forcing all connections onto one shard (tests only).
pub const SHARD_PIN_ENV: &str = "RDRP_SHARD_PIN";

/// N independent [`ScoringEngine`] shards behind deterministic
/// connection→shard routing (see the module docs).
pub struct ShardedEngine {
    shards: Vec<ScoringEngine>,
    /// `RDRP_SHARD_PIN`, captured at construction.
    pin: Option<usize>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("pin", &self.pin)
            .finish()
    }
}

/// The shard index FNV-1a 64 assigns `conn_id` among `shards`.
///
/// The hash runs over the id's little-endian bytes; the mapping is part
/// of the serving contract (tests pin it), so changing it is a
/// protocol-visible event.
pub fn shard_index(conn_id: u64, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in conn_id.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    (hash % shards.max(1) as u64) as usize
}

impl ShardedEngine {
    /// Starts [`EngineConfig::shards`] independent engines, each with
    /// its own `workers`-sized pool and `queue_rows`-deep queue.
    pub fn start(cfg: EngineConfig, obs: Obs) -> ShardedEngine {
        ShardedEngine::start_with_chaos(cfg, obs, chaos::Chaos::disabled())
    }

    /// [`ShardedEngine::start`] with a fault-injection harness: shard
    /// `i` consults `shard{i}.worker_batch` alongside the engine-wide
    /// `engine.worker_batch` point.
    pub fn start_with_chaos(cfg: EngineConfig, obs: Obs, chaos: chaos::Chaos) -> ShardedEngine {
        let n = cfg.shards().max(1);
        let shards = (0..n)
            .map(|i| {
                ScoringEngine::start_shard(
                    cfg.clone(),
                    obs.clone(),
                    chaos.clone(),
                    Some(format!("shard{i}.worker_batch")),
                )
            })
            .collect();
        let pin = std::env::var(SHARD_PIN_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|p| p % n);
        ShardedEngine { shards, pin }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `index` (panics when out of range) — the chaos and
    /// bench suites address shards directly through this.
    pub fn shard(&self, index: usize) -> &ScoringEngine {
        &self.shards[index]
    }

    /// The shard index serving `conn_id`: the env pin when set,
    /// otherwise [`shard_index`].
    pub fn shard_index_for(&self, conn_id: u64) -> usize {
        self.pin
            .unwrap_or_else(|| shard_index(conn_id, self.shards.len()))
    }

    /// The engine serving `conn_id` — each connection's whole session
    /// runs against this one shard.
    pub fn shard_for(&self, conn_id: u64) -> &ScoringEngine {
        &self.shards[self.shard_index_for(conn_id)]
    }

    /// Submits directly through the routing path (bench/test
    /// convenience; the serving frontends hold `shard_for` instead).
    /// Consults the chaos point `shard.submit` (stall faults) before
    /// routing.
    ///
    /// # Errors
    /// Whatever the routed shard's [`ScoringEngine::submit`] rejects.
    pub fn submit_to(
        &self,
        conn_id: u64,
        scorer: &Arc<dyn RoiMethod>,
        rows: Matrix,
        deadline: Option<Duration>,
    ) -> Result<PendingScore, Rejected> {
        let harness = chaos::ambient();
        if let Some(fault) = harness.hit("shard.submit") {
            if let chaos::FaultKind::StallNs(ns) = fault.kind {
                harness.stall(ns);
            }
        }
        self.shard_for(conn_id).submit(scorer, rows, deadline)
    }

    /// Attaches (or, with `None`, detaches) one poll loop's waker to
    /// every shard, so an answer from any shard wakes the loop.
    pub(crate) fn set_waker(&self, waker: Option<Arc<Waker>>) {
        for shard in &self.shards {
            shard.set_waker(waker.clone());
        }
    }

    /// Attaches the calibration monitor to every shard, so feedback
    /// lines land on the same monitor regardless of which shard a
    /// connection hashed to.
    pub fn attach_monitor(&self, monitor: Arc<CalibrationMonitor>) {
        for shard in &self.shards {
            shard.attach_monitor(Arc::clone(&monitor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_pinned() {
        // FNV-1a 64 over little-endian bytes: these literal values are
        // part of the serving contract (FNV-1a(0 LE) =
        // 0xa8c7f832281a39c5, etc. — hand-checked against the
        // reference implementation, and mirrored by the integration
        // pins in tests/it/sharded.rs). Recompute before touching the
        // hash: a change silently re-homes every connection.
        let pins = [
            (0u64, 8usize, 5usize),
            (1, 8, 4),
            (2, 8, 7),
            (3, 8, 6),
            (0, 2, 1),
            (1, 2, 0),
            (0, 1, 0),
        ];
        for (id, n, want) in pins {
            assert_eq!(shard_index(id, n), want, "conn {id} re-homed among {n}");
        }
        // Consecutive ids spread across 8 shards rather than clumping
        // on one.
        let spread: std::collections::BTreeSet<usize> =
            (0..64u64).map(|id| shard_index(id, 8)).collect();
        assert!(spread.len() >= 4, "FNV-1a spread too poor: {spread:?}");
    }
}
