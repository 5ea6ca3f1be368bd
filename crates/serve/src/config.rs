//! Engine configuration: the validated builder every deployment
//! constructs its [`EngineConfig`] through.
//!
//! The config started life as a plain struct whose fields grew one PR at
//! a time — workers, batching, queue depth, supervision, breaker,
//! kernels — until every construction site was a field soup with no
//! validation anywhere. [`EngineConfig::builder`] replaces that: fields
//! are crate-private, construction funnels through
//! [`EngineConfigBuilder::build`], and the out-of-range combinations
//! that used to wedge an engine at runtime (zero workers, a zero-row
//! queue, zero shards) are typed [`ConfigError`]s at build time.
//! [`EngineConfig::default`] remains the no-thought starting point and
//! is always valid.
//!
//! The same config drives both [`ScoringEngine`](crate::ScoringEngine)
//! (which ignores [`shards`](EngineConfig::shards)) and
//! [`ShardedEngine`](crate::ShardedEngine) (which starts `shards`
//! independent engines, each with its own queue and `workers`-sized
//! pool).

use std::fmt;
use std::time::Duration;

/// Engine sizing and batching knobs. Construct through
/// [`EngineConfig::builder`]; read through the getters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining each engine's queue.
    pub(crate) workers: usize,
    /// Independent engine shards ([`ShardedEngine`](crate::ShardedEngine)
    /// only; a plain engine is always one shard).
    pub(crate) shards: usize,
    /// A coalesced batch never exceeds this many rows.
    pub(crate) max_batch_rows: usize,
    /// The longest a worker holds an under-full rowwise batch while
    /// another worker of its engine is busy.
    pub(crate) max_wait: Duration,
    /// Submission-queue capacity in rows — the backpressure bound.
    pub(crate) queue_rows: usize,
    /// Worker-pool supervision knobs.
    pub(crate) supervisor: SupervisorConfig,
    /// Circuit-breaker / load-shedding knobs.
    pub(crate) breaker: BreakerConfig,
    /// Score through the columnar f32 kernel path.
    pub(crate) block_kernels: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            shards: 1,
            max_batch_rows: 1024,
            max_wait: Duration::from_micros(500),
            queue_rows: 16_384,
            supervisor: SupervisorConfig::default(),
            breaker: BreakerConfig::default(),
            block_kernels: false,
        }
    }
}

impl EngineConfig {
    /// A builder seeded with [`EngineConfig::default`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Worker threads draining each engine's queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Independent engine shards a [`ShardedEngine`](crate::ShardedEngine)
    /// starts from this config. A plain [`ScoringEngine`](crate::ScoringEngine)
    /// is always a single shard and ignores this.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A coalesced batch never exceeds this many rows.
    pub fn max_batch_rows(&self) -> usize {
        self.max_batch_rows
    }

    /// The longest a worker holds an under-full rowwise batch for more
    /// requests while another worker of its engine is busy; a worker
    /// with no busy sibling scores at once. Measured in wall time (the
    /// queue condvar), not the `Obs` clock. Zero disables the wait:
    /// only requests already queued coalesce.
    pub fn max_wait(&self) -> Duration {
        self.max_wait
    }

    /// Submission-queue capacity in rows — the backpressure bound (per
    /// shard).
    pub fn queue_rows(&self) -> usize {
        self.queue_rows
    }

    /// Worker-pool supervision knobs.
    pub fn supervisor(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// Circuit-breaker / load-shedding knobs.
    pub fn breaker(&self) -> &BreakerConfig {
        &self.breaker
    }

    /// Whether scoring routes through the columnar f32 kernel path
    /// ([`rdrp::RoiMethod::scores_block`])
    /// instead of the f64 scalar path. Block scores track scalar scores
    /// only to f32 rounding (DESIGN.md §11), so deployments that
    /// golden-pin or replay scores must leave this off.
    pub fn block_kernels(&self) -> bool {
        self.block_kernels
    }
}

/// Builds a validated [`EngineConfig`] (see [`EngineConfig::builder`]).
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads per engine shard.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Independent engine shards (used by
    /// [`ShardedEngine`](crate::ShardedEngine)).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Micro-batch row cap.
    pub fn max_batch_rows(mut self, rows: usize) -> Self {
        self.cfg.max_batch_rows = rows;
        self
    }

    /// The longest a worker holds an under-full batch while another
    /// worker is busy (zero disables the wait).
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.cfg.max_wait = wait;
        self
    }

    /// Submission-queue capacity in rows, per shard.
    pub fn queue_rows(mut self, rows: usize) -> Self {
        self.cfg.queue_rows = rows;
        self
    }

    /// Worker-pool supervision knobs.
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.cfg.supervisor = supervisor;
        self
    }

    /// Circuit-breaker / load-shedding knobs.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.cfg.breaker = breaker;
        self
    }

    /// Route scoring through the columnar f32 kernel path.
    pub fn block_kernels(mut self, on: bool) -> Self {
        self.cfg.block_kernels = on;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    /// A typed [`ConfigError`] for each degenerate setting: an engine
    /// with zero workers, a zero-row queue, or a zero-row batch cap can
    /// never score anything; zero shards leaves nothing to route to.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if cfg.queue_rows == 0 {
            return Err(ConfigError::ZeroQueueRows);
        }
        if cfg.max_batch_rows == 0 {
            return Err(ConfigError::ZeroBatchRows);
        }
        if cfg.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(cfg)
    }
}

/// Why a configuration could not be built (see
/// [`EngineConfigBuilder::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever drain the queue.
    ZeroWorkers,
    /// `queue_rows == 0`: every submission would be rejected at the door.
    ZeroQueueRows,
    /// `max_batch_rows == 0`: no batch could ever hold a row.
    ZeroBatchRows,
    /// `shards == 0`: no shard to route any connection to.
    ZeroShards,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "engine needs at least one worker"),
            ConfigError::ZeroQueueRows => write!(f, "queue depth must be at least one row"),
            ConfigError::ZeroBatchRows => write!(f, "batch cap must be at least one row"),
            ConfigError::ZeroShards => write!(f, "engine needs at least one shard"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Worker-pool supervision: when a worker thread is considered wedged
/// and replaced wholesale instead of merely swapping its scratch space.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Consecutive panicking batches after which the worker retires and
    /// a fresh thread takes its place (`serve.worker_respawn`). A single
    /// panic still only poisons the affected requests. Zero disables
    /// respawning.
    pub respawn_after_panics: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            respawn_after_panics: 3,
        }
    }
}

/// Circuit breaker: when the engine stops accepting work it would
/// mishandle and starts shedding load instead. Both thresholds default
/// to disabled; the queue's hard capacity ([`EngineConfig::queue_rows`])
/// always backstops them.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Worker panics since the last healthy batch that open the breaker
    /// (`serve.shed`, reason `panic_rate`). Zero disables.
    pub trip_panics: u32,
    /// Queued-row watermark that opens the breaker on admission
    /// (`serve.shed`, reason `queue_pressure`). The crossing request is
    /// still admitted; subsequent ones shed. `None` disables.
    pub shed_queue_rows: Option<usize>,
    /// How long the breaker stays open. The first submission after the
    /// cooldown closes it (`serve.recovered`).
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_panics: 0,
            shed_queue_rows: None,
            cooldown: Duration::from_secs(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds_and_getters_expose_fields() {
        let cfg = EngineConfig::builder().build().unwrap();
        assert_eq!(cfg.workers(), 2);
        assert_eq!(cfg.shards(), 1);
        assert_eq!(cfg.max_batch_rows(), 1024);
        assert_eq!(cfg.queue_rows(), 16_384);
        assert!(!cfg.block_kernels());
    }

    #[test]
    fn zero_settings_are_typed_errors() {
        let cases = [
            (
                EngineConfig::builder().workers(0).build(),
                ConfigError::ZeroWorkers,
            ),
            (
                EngineConfig::builder().queue_rows(0).build(),
                ConfigError::ZeroQueueRows,
            ),
            (
                EngineConfig::builder().max_batch_rows(0).build(),
                ConfigError::ZeroBatchRows,
            ),
            (
                EngineConfig::builder().shards(0).build(),
                ConfigError::ZeroShards,
            ),
        ];
        for (result, expected) in cases {
            assert_eq!(result.unwrap_err(), expected);
        }
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = EngineConfig::builder()
            .workers(8)
            .shards(4)
            .max_batch_rows(256)
            .max_wait(Duration::from_micros(50))
            .queue_rows(512)
            .supervisor(SupervisorConfig {
                respawn_after_panics: 7,
            })
            .breaker(BreakerConfig {
                trip_panics: 2,
                shed_queue_rows: Some(100),
                cooldown: Duration::from_millis(10),
            })
            .block_kernels(true)
            .build()
            .unwrap();
        assert_eq!(cfg.workers(), 8);
        assert_eq!(cfg.shards(), 4);
        assert_eq!(cfg.max_batch_rows(), 256);
        assert_eq!(cfg.max_wait(), Duration::from_micros(50));
        assert_eq!(cfg.queue_rows(), 512);
        assert_eq!(cfg.supervisor().respawn_after_panics, 7);
        assert_eq!(cfg.breaker().shed_queue_rows, Some(100));
        assert!(cfg.block_kernels());
    }
}
