//! The micro-batching scoring engine.
//!
//! Requests enter a bounded submission queue; a persistent pool of
//! worker threads drains it. When the request at the head of the queue
//! holds a [`RoiMethod::rowwise`] model, the worker coalesces the
//! consecutive same-model requests queued behind it into one batch, up
//! to [`EngineConfig::max_batch_rows`] rows, so many small requests
//! amortize into one row-chunk-parallel `scores` call. Batching is
//! opportunistic: a batch is what queued while the workers were busy.
//! A worker holds an under-full batch for more rows only while another
//! worker of its engine is scoring, and never past
//! [`EngineConfig::max_wait`]; a lone request on an idle engine is
//! scored at once. Non-rowwise models (MC-sweep scoring) are scored one
//! request at a time, preserving bitwise determinism.
//!
//! A poll loop serving the engine ([`crate::net`]) attaches a waker;
//! every path that answers a request (a scored batch, a panicked batch,
//! an expired deadline) nudges it, so the loop can block until an
//! answer is ready instead of polling for one.
//!
//! Robustness:
//!
//! * **Backpressure** — a submission that would push the queue past
//!   [`EngineConfig::queue_rows`] is rejected with
//!   [`Rejected::QueueFull`] instead of queuing unboundedly.
//! * **Deadlines** — a request carrying a deadline that expires while it
//!   waits is answered with [`ScoreError::DeadlineExpired`] rather than
//!   scored late; a response that only *finishes* past its deadline is
//!   likewise answered with the typed error, never delivered stale.
//!   Deadlines are measured on the engine's [`Obs`] clock, so tests
//!   drive them with a manual clock.
//! * **Poisoned workers** — a panicking scorer is caught; the affected
//!   requests get [`ScoreError::WorkerPanicked`], the worker replaces
//!   its scratch [`Workspace`] and keeps serving.
//! * **Supervision** — a worker that panics
//!   [`SupervisorConfig::respawn_after_panics`](crate::SupervisorConfig::respawn_after_panics)
//!   times in a row retires itself and spawns a fresh replacement (event
//!   `serve.worker_respawn`), so a scorer that wedges one thread's state
//!   cannot bleed forward forever.
//! * **Load shedding** — when [`BreakerConfig`](crate::BreakerConfig)
//!   thresholds on panic rate or queue pressure are crossed, a circuit
//!   breaker opens (event `serve.shed`) and submissions are refused with
//!   [`Rejected::Overloaded`] carrying a `retry_after_ms` hint until the
//!   cooldown elapses (event `serve.recovered`). Both thresholds default
//!   to off.
//!
//! Everything is instrumented through `obs`: gauge `serve.queue_depth`
//! (rows waiting), histograms `serve.batch_rows` / `serve.batch_requests`
//! / `serve.score_ns` / `serve.e2e_ns`, counters `serve.requests` /
//! `serve.rows` / `serve.rejected.queue_full` / `serve.rejected.deadline`
//! / `serve.rejected.overloaded` / `serve.worker_panics` /
//! `serve.worker_respawns` / `serve.breaker_trips`. Fault injection for
//! the chaos suite enters through [`ScoringEngine::start_with_chaos`]
//! (injection point `engine.worker_batch`: panics and stalls).

use crate::calibration::{CalibrationMonitor, FeedbackOutcome, MonitorError};
use crate::config::EngineConfig;
use crate::net::Waker;
use linalg::Matrix;
use nn::Workspace;
use obs::Obs;
use rdrp::RoiMethod;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a submission was refused at the door (the request never queued).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Admitting the request would exceed the queue's row capacity.
    QueueFull {
        /// Rows already queued.
        queued_rows: usize,
        /// The configured capacity.
        capacity_rows: usize,
    },
    /// The request's feature width does not match the model's.
    WrongWidth {
        /// The model's feature dimension.
        expected: usize,
        /// The request's column count.
        got: usize,
    },
    /// The model behind this request was never fitted and cannot score.
    Unfitted,
    /// The engine is shutting down.
    ShuttingDown,
    /// The circuit breaker is open: recent panics or queue pressure
    /// flipped the engine into load-shedding.
    Overloaded {
        /// Milliseconds (rounded up) until the breaker can close;
        /// clients should back off at least this long before retrying.
        retry_after_ms: u64,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull {
                queued_rows,
                capacity_rows,
            } => write!(
                f,
                "queue full: {queued_rows} rows queued, capacity {capacity_rows}"
            ),
            Rejected::WrongWidth { expected, got } => {
                write!(f, "expected {expected} features per row, got {got}")
            }
            Rejected::Unfitted => write!(f, "model is unfitted and cannot score"),
            Rejected::ShuttingDown => write!(f, "engine is shutting down"),
            Rejected::Overloaded { retry_after_ms } => {
                write!(f, "engine is shedding load, retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Why a queued request could not be scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// The request's deadline passed before a worker reached it.
    DeadlineExpired,
    /// The scorer panicked while scoring the batch holding this request.
    WorkerPanicked,
    /// The engine shut down before responding.
    EngineShutDown,
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::DeadlineExpired => write!(f, "deadline expired before scoring"),
            ScoreError::WorkerPanicked => write!(f, "scorer panicked"),
            ScoreError::EngineShutDown => write!(f, "engine shut down before responding"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// A pending response: [`PendingScore::wait`] blocks until the engine
/// answers.
#[derive(Debug)]
pub struct PendingScore {
    rx: mpsc::Receiver<Result<Vec<f64>, ScoreError>>,
}

impl PendingScore {
    /// Blocks until the request is scored or rejected.
    pub fn wait(self) -> Result<Vec<f64>, ScoreError> {
        self.rx.recv().unwrap_or(Err(ScoreError::EngineShutDown))
    }

    /// Non-blocking probe: `Some` once the engine has answered, `None`
    /// while the request is still queued or scoring. The poll-driven
    /// serving loop ([`crate::net`]) uses this to drain responses
    /// without parking a thread per connection.
    pub fn try_wait(&self) -> Option<Result<Vec<f64>, ScoreError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ScoreError::EngineShutDown)),
        }
    }
}

struct Job {
    scorer: Arc<dyn RoiMethod>,
    rows: Matrix,
    deadline_ns: Option<u64>,
    enqueued_ns: u64,
    tx: mpsc::Sender<Result<Vec<f64>, ScoreError>>,
}

struct QueueState {
    pending: VecDeque<Job>,
    queued_rows: usize,
    shutdown: bool,
    /// Worker panics since the last healthy batch (breaker input).
    recent_panics: u32,
    /// When set, the breaker is open until this clock reading.
    shed_until_ns: Option<u64>,
    /// Workers scoring a batch right now.
    busy: usize,
    /// Workers holding an under-full batch for more rows.
    filling: usize,
}

struct Shared {
    cfg: EngineConfig,
    obs: Obs,
    chaos: chaos::Chaos,
    /// Shard-scoped chaos injection point (`shard{i}.worker_batch`),
    /// consulted alongside the engine-wide `engine.worker_batch` so the
    /// chaos suite can fault one shard of a [`crate::ShardedEngine`]
    /// while its siblings keep serving.
    shard_point: Option<String>,
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Live worker threads. Respawns push here from worker threads, so
    /// the vec lives behind its own lock rather than on the engine.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The waker of the poll loop serving this engine, if any.
    waker: RwLock<Option<Arc<Waker>>>,
}

impl Shared {
    /// Tells the attached poll loop that an answer is ready.
    fn wake(&self) {
        let waker = self
            .waker
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(waker) = waker.as_ref() {
            waker.wake();
        }
    }
}

/// The micro-batching scoring engine (see the module docs).
///
/// Dropping the engine drains the queue: already-submitted requests are
/// scored, then the workers exit and are joined.
pub struct ScoringEngine {
    shared: Arc<Shared>,
    monitor: RwLock<Option<Arc<CalibrationMonitor>>>,
}

impl fmt::Debug for ScoringEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScoringEngine")
            .field("cfg", &self.shared.cfg)
            .field("workers", &lock(&self.shared.handles).len())
            .finish()
    }
}

impl ScoringEngine {
    /// Starts the worker pool. `obs` carries both the instrumentation
    /// sink and the clock deadlines are measured on.
    pub fn start(cfg: EngineConfig, obs: Obs) -> ScoringEngine {
        ScoringEngine::start_with_chaos(cfg, obs, chaos::Chaos::disabled())
    }

    /// [`ScoringEngine::start`] with a fault-injection harness. The
    /// thread-local ambient handle does not cross into worker threads,
    /// so the chaos suite hands the engine its handle explicitly; the
    /// workers consult injection point `engine.worker_batch` (panic and
    /// stall faults) at the top of every batch.
    pub fn start_with_chaos(cfg: EngineConfig, obs: Obs, chaos: chaos::Chaos) -> ScoringEngine {
        ScoringEngine::start_shard(cfg, obs, chaos, None)
    }

    /// [`ScoringEngine::start_with_chaos`] with a shard-scoped chaos
    /// point name — how [`crate::ShardedEngine`] arms per-shard fault
    /// injection (`shard{i}.worker_batch`) on top of the engine-wide
    /// `engine.worker_batch` point.
    pub(crate) fn start_shard(
        cfg: EngineConfig,
        obs: Obs,
        chaos: chaos::Chaos,
        shard_point: Option<String>,
    ) -> ScoringEngine {
        let shared = Arc::new(Shared {
            cfg,
            obs,
            chaos,
            shard_point,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                queued_rows: 0,
                shutdown: false,
                recent_panics: 0,
                shed_until_ns: None,
                busy: 0,
                filling: 0,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            waker: RwLock::new(None),
        });
        for _ in 0..shared.cfg.workers.max(1) {
            spawn_worker(&shared);
        }
        ScoringEngine {
            shared,
            monitor: RwLock::new(None),
        }
    }

    /// Submits `rows` for scoring by `scorer`. Returns a handle the
    /// caller waits on; the scores come back in row order. `deadline`
    /// bounds total queue-plus-scoring time from now, on the engine's
    /// clock.
    ///
    /// # Errors
    /// [`Rejected`] when the request cannot enter the queue — wrong
    /// feature width, queue at capacity, an open circuit breaker, or
    /// engine shutdown. A rejected request was never queued and costs
    /// nothing.
    pub fn submit(
        &self,
        scorer: &Arc<dyn RoiMethod>,
        rows: Matrix,
        deadline: Option<Duration>,
    ) -> Result<PendingScore, Rejected> {
        let (tx, rx) = mpsc::channel();
        if rows.rows() == 0 {
            // Nothing to score: answer immediately without queueing.
            let _ = tx.send(Ok(Vec::new()));
            return Ok(PendingScore { rx });
        }
        match scorer.n_features() {
            None => return Err(Rejected::Unfitted),
            Some(expected) if rows.cols() != expected => {
                return Err(Rejected::WrongWidth {
                    expected,
                    got: rows.cols(),
                });
            }
            Some(_) => {}
        }
        let obs = &self.shared.obs;
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(Rejected::ShuttingDown);
        }
        if let Some(until) = state.shed_until_ns {
            let now = obs.now_ns();
            if now < until {
                obs.counter("serve.rejected.overloaded", 1.0);
                let remaining = until - now;
                return Err(Rejected::Overloaded {
                    retry_after_ms: remaining / 1_000_000
                        + u64::from(!remaining.is_multiple_of(1_000_000)),
                });
            }
            // Cooldown elapsed: the first submission through closes the
            // breaker and is served normally.
            state.shed_until_ns = None;
            state.recent_panics = 0;
            obs.event(
                "serve.recovered",
                &[("queued_rows", state.queued_rows.into())],
            );
        }
        if state.queued_rows + rows.rows() > self.shared.cfg.queue_rows {
            obs.counter("serve.rejected.queue_full", 1.0);
            return Err(Rejected::QueueFull {
                queued_rows: state.queued_rows,
                capacity_rows: self.shared.cfg.queue_rows,
            });
        }
        let now = obs.now_ns();
        state.queued_rows += rows.rows();
        state.pending.push_back(Job {
            scorer: Arc::clone(scorer),
            rows,
            deadline_ns: deadline.map(|d| now.saturating_add(d.as_nanos() as u64)),
            enqueued_ns: now,
            tx,
        });
        obs.gauge("serve.queue_depth", state.queued_rows as f64);
        if let Some(watermark) = self.shared.cfg.breaker.shed_queue_rows {
            if state.queued_rows >= watermark && state.shed_until_ns.is_none() {
                trip_breaker(&mut state, &self.shared, "queue_pressure");
            }
        }
        drop(state);
        self.shared.cv.notify_all();
        Ok(PendingScore { rx })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Attaches (or, with `None`, detaches) the waker of the poll loop
    /// serving this engine.
    pub(crate) fn set_waker(&self, waker: Option<Arc<Waker>>) {
        *self
            .shared
            .waker
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = waker;
    }

    /// Attaches (or replaces) the online calibration monitor. Scoring is
    /// untouched; the monitor only hears what [`ScoringEngine::observe`]
    /// feeds it.
    pub fn attach_monitor(&self, monitor: Arc<CalibrationMonitor>) {
        *self
            .monitor
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(monitor);
    }

    /// The attached calibration monitor, if any.
    pub fn monitor(&self) -> Option<Arc<CalibrationMonitor>> {
        self.monitor
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Feeds one feedback observation to the attached monitor (the
    /// serve-side entry point for `observe` protocol lines).
    ///
    /// # Errors
    /// [`MonitorError::Disabled`] when no monitor is attached; otherwise
    /// whatever [`CalibrationMonitor::observe`] raises.
    pub fn observe(
        &self,
        row: &[f64],
        pred: Option<f64>,
        scale: Option<f64>,
        outcome: f64,
    ) -> Result<FeedbackOutcome, MonitorError> {
        let monitor = self.monitor().ok_or(MonitorError::Disabled)?;
        monitor.observe(row, pred, scale, outcome)
    }
}

impl Drop for ScoringEngine {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        // Pop-and-join until the pool is empty. A retiring worker pushes
        // its replacement's handle before it exits, so joining a handle
        // happens-after any handle that worker registered — the loop
        // cannot observe an empty vec while a respawned thread still
        // runs.
        loop {
            let handle = lock(&self.shared.handles).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

// A worker panicking while holding the queue lock cannot leave it torn:
// every mutation is a single push/pop plus a counter update done before
// the guard drops, so continuing with the poisoned guard is safe — same
// policy as obs::InMemoryRecorder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Spawns one worker thread and registers its handle for joining.
fn spawn_worker(shared: &Arc<Shared>) {
    let cloned = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop(&cloned));
    lock(&shared.handles).push(handle);
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut ws = Workspace::new();
    let mut consecutive_panics = 0u32;
    while let Some(batch) = next_batch(shared) {
        let panicked = run_batch(shared, batch, &mut ws);
        batch_done(shared);
        if panicked {
            consecutive_panics += 1;
            let threshold = shared.cfg.supervisor.respawn_after_panics;
            if threshold > 0 && consecutive_panics >= threshold {
                // This thread is presumed wedged: retire it and hand the
                // queue to a fresh one (unless the engine is already
                // shutting down, in which case dying quietly is the job).
                let respawn = !lock(&shared.state).shutdown;
                if respawn {
                    shared.obs.counter("serve.worker_respawns", 1.0);
                    shared.obs.event(
                        "serve.worker_respawn",
                        &[("consecutive_panics", u64::from(consecutive_panics).into())],
                    );
                    spawn_worker(shared);
                }
                return;
            }
        } else {
            consecutive_panics = 0;
        }
    }
}

/// Opens the circuit breaker: submissions shed with
/// [`Rejected::Overloaded`] until the cooldown elapses.
fn trip_breaker(state: &mut QueueState, shared: &Shared, reason: &str) {
    let now = shared.obs.now_ns();
    let cooldown = shared.cfg.breaker.cooldown;
    state.shed_until_ns = Some(now.saturating_add(cooldown.as_nanos() as u64));
    shared.obs.counter("serve.breaker_trips", 1.0);
    shared.obs.event(
        "serve.shed",
        &[
            ("reason", reason.into()),
            ("cooldown_ms", (cooldown.as_millis() as u64).into()),
            ("queued_rows", state.queued_rows.into()),
            ("recent_panics", u64::from(state.recent_panics).into()),
        ],
    );
}

/// Blocks for the next batch; `None` means drained-and-shut-down.
fn next_batch(shared: &Shared) -> Option<Vec<Job>> {
    let mut state = lock(&shared.state);
    loop {
        if let Some(first) = pop_live(&mut state, shared) {
            let mut batch_rows = first.rows.rows();
            let coalesce = first.scorer.rowwise();
            let mut batch = vec![first];
            if coalesce {
                drain_matching(&mut state, shared, &mut batch, &mut batch_rows);
                if state.busy > 0 {
                    state = wait_for_fill(state, shared, &mut batch, &mut batch_rows);
                }
            }
            state.busy += 1;
            shared
                .obs
                .gauge("serve.queue_depth", state.queued_rows as f64);
            return Some(batch);
        }
        if state.shutdown {
            return None;
        }
        state = shared
            .cv
            .wait(state)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Pops the front job, rejecting any whose deadline already passed.
fn pop_live(state: &mut QueueState, shared: &Shared) -> Option<Job> {
    while let Some(job) = state.pending.pop_front() {
        state.queued_rows -= job.rows.rows();
        if expired(&job, shared) {
            continue;
        }
        return Some(job);
    }
    None
}

/// Checks `job`'s deadline; when expired, answers it and records the
/// rejection. Returns whether the job was consumed.
///
/// The boundary is *inclusive*: a deadline equal to the current clock is
/// expired. "Deadline `d`" means "done strictly before `d`" — at `d` the
/// budget is spent, and a strict `<` here would also make a saturated
/// deadline (`now + huge` clamped to `u64::MAX`) unexpirable even with
/// the clock itself at `u64::MAX`.
fn expired(job: &Job, shared: &Shared) -> bool {
    let now = shared.obs.now_ns();
    if job.deadline_ns.is_some_and(|d| d <= now) {
        shared.obs.counter("serve.rejected.deadline", 1.0);
        let _ = job.tx.send(Err(ScoreError::DeadlineExpired));
        shared.wake();
        return true;
    }
    false
}

/// Moves consecutive front jobs for the same model into `batch` while
/// they fit under `max_batch_rows`.
fn drain_matching(
    state: &mut QueueState,
    shared: &Shared,
    batch: &mut Vec<Job>,
    batch_rows: &mut usize,
) {
    while let Some(next) = state.pending.front() {
        if !Arc::ptr_eq(&next.scorer, &batch[0].scorer)
            || *batch_rows + next.rows.rows() > shared.cfg.max_batch_rows
        {
            break;
        }
        // Expiry is checked on the popped job so an expired request at
        // the front cannot wedge the coalescer.
        let Some(job) = state.pending.pop_front() else {
            break;
        };
        state.queued_rows -= job.rows.rows();
        if expired(&job, shared) {
            continue;
        }
        *batch_rows += job.rows.rows();
        batch.push(job);
    }
}

/// Holds an under-full rowwise batch for more requests while another
/// worker of this engine is busy (requests arriving meanwhile would
/// otherwise queue for the next batch), and never past `max_wait` (wall
/// time). Returns as soon as no other worker is busy.
fn wait_for_fill<'a>(
    mut state: MutexGuard<'a, QueueState>,
    shared: &Shared,
    batch: &mut Vec<Job>,
    batch_rows: &mut usize,
) -> MutexGuard<'a, QueueState> {
    let start = Instant::now();
    state.filling += 1;
    while state.busy > 0 && *batch_rows < shared.cfg.max_batch_rows && !state.shutdown {
        let Some(remaining) = shared.cfg.max_wait.checked_sub(start.elapsed()) else {
            break;
        };
        let (guard, timeout) = shared
            .cv
            .wait_timeout(state, remaining)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state = guard;
        drain_matching(&mut state, shared, batch, batch_rows);
        if timeout.timed_out() {
            break;
        }
    }
    state.filling -= 1;
    state
}

/// Marks a worker idle after it answered its batch, and releases any
/// worker holding a batch for fill once none is busy.
fn batch_done(shared: &Shared) {
    let mut state = lock(&shared.state);
    state.busy -= 1;
    if state.busy == 0 && state.filling > 0 {
        shared.cv.notify_all();
    }
}

/// Scores one batch and answers its jobs. Returns whether the scorer
/// panicked (or misbehaved equivalently), for the supervisor's
/// consecutive-panic accounting.
fn run_batch(shared: &Shared, batch: Vec<Job>, ws: &mut Workspace) -> bool {
    let obs = &shared.obs;
    let total_rows: usize = batch.iter().map(|j| j.rows.rows()).sum();
    obs.observe("serve.batch_requests", batch.len() as f64);
    obs.observe("serve.batch_rows", total_rows as f64);
    let scorer = Arc::clone(&batch[0].scorer);
    let x = concat_rows(&batch);
    let t0 = obs.now_ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The engine-wide point fires for any engine; the shard-scoped
        // point only exists under a ShardedEngine and lets a fault plan
        // single out one shard.
        let points = shared
            .shard_point
            .as_deref()
            .into_iter()
            .chain(["engine.worker_batch"]);
        for point in points {
            if let Some(fault) = shared.chaos.hit(point) {
                match fault.kind {
                    chaos::FaultKind::Panic => {
                        panic!("chaos: injected worker panic (hit {})", fault.hit)
                    }
                    chaos::FaultKind::StallNs(ns) => shared.chaos.stall(ns),
                    _ => {}
                }
            }
        }
        if shared.cfg.block_kernels {
            scorer.scores_block(&x, obs)
        } else {
            scorer.scores(&x, ws, obs)
        }
    }));
    obs.observe("serve.score_ns", obs.now_ns().saturating_sub(t0) as f64);
    match result {
        Ok(scores) if scores.len() == total_rows => {
            let mut offset = 0;
            let now = obs.now_ns();
            for job in &batch {
                let n = job.rows.rows();
                // A response finishing on or past its deadline is late:
                // the client's budget is spent, so it gets the typed
                // error, never a stale answer.
                if job.deadline_ns.is_some_and(|d| d <= now) {
                    obs.counter("serve.rejected.deadline", 1.0);
                    let _ = job.tx.send(Err(ScoreError::DeadlineExpired));
                } else {
                    let _ = job.tx.send(Ok(scores[offset..offset + n].to_vec()));
                    obs.counter("serve.requests", 1.0);
                    obs.counter("serve.rows", n as f64);
                    obs.observe("serve.e2e_ns", now.saturating_sub(job.enqueued_ns) as f64);
                }
                offset += n;
            }
            shared.wake();
            if shared.cfg.breaker.trip_panics > 0 {
                lock(&shared.state).recent_panics = 0;
            }
            false
        }
        // A wrong-length score vector is as much a scorer bug as a panic.
        Ok(_) | Err(_) => {
            obs.counter("serve.worker_panics", 1.0);
            // The panic may have unwound mid-write through the scratch
            // buffers; replace them.
            *ws = Workspace::new();
            let trip = shared.cfg.breaker.trip_panics;
            if trip > 0 {
                let mut state = lock(&shared.state);
                state.recent_panics += 1;
                if state.recent_panics >= trip && state.shed_until_ns.is_none() {
                    trip_breaker(&mut state, shared, "panic_rate");
                }
            }
            for job in &batch {
                let _ = job.tx.send(Err(ScoreError::WorkerPanicked));
            }
            shared.wake();
            true
        }
    }
}

/// Concatenates the batch's row blocks into one matrix. The single-job
/// case reuses the job's buffer; multi-job batches copy once.
fn concat_rows(batch: &[Job]) -> Matrix {
    if batch.len() == 1 {
        return batch[0].rows.clone();
    }
    let cols = batch[0].rows.cols();
    let total: usize = batch.iter().map(|j| j.rows.rows()).sum();
    let mut data = Vec::with_capacity(total * cols);
    for job in batch {
        data.extend_from_slice(job.rows.as_slice());
    }
    Matrix::from_vec(total, cols, data)
}
