//! The job engine: a shared work queue drained continuously by a
//! worker pool. It is the only thing in the workspace that runs jobs.
//!
//! Workers are spawned at construction and drain the queue the moment
//! jobs arrive, so [`WorkerPool::submit`] returns a job id immediately
//! and results are delivered as they complete. Clients collect their
//! own results with [`WorkerPool::wait`]; a multi-client daemon holds
//! one pool and each client waits only for its own ids. A batch is the
//! same thing with a short-lived pool: [`WorkerPool::pause`], submit
//! everything, [`WorkerPool::resume`], `wait` for the accepted ids,
//! [`WorkerPool::shutdown`].
//!
//! Everything is plain `std::thread` + `Mutex`/`Condvar` on the
//! injectable [`Clock`] — no async runtime.
//!
//! # Determinism
//!
//! Concurrency usually makes breaker/shed behaviour racy. The pool
//! pins down both:
//!
//! * **Per-name FIFO dispatch.** Two jobs with the same name never run
//!   concurrently, and dispatch in submission order. The circuit
//!   breaker's verdict for the *k*-th submission of a name is therefore
//!   a pure function of the outcomes of submissions 1..k-1 of that
//!   name — independent of worker count and thread scheduling. (It also
//!   stops same-name jobs from interleaving confusingly in summaries.)
//! * **Lockstep mode.** [`WorkerPool::pause`] gates dispatch, so a load
//!   generator can submit a burst against a quiescent queue (making
//!   admission decisions deterministic), then [`WorkerPool::resume`]
//!   and wait. The chaos/soak harness uses this to prove that two runs
//!   of the same seeded workload produce the same *set* of per-job
//!   outcomes.
//!
//! # Exactly-one-response
//!
//! Every accepted job produces exactly one [`JobReport`], even across
//! [`WorkerPool::shutdown`]: an aborted shutdown synthesizes
//! `TimedOut { reason: Cancelled }` reports for jobs still queued, and
//! running jobs are cancelled cooperatively and still report. A
//! rejected submission produces no report and carries a retry-after
//! hint instead.
//!
//! # The breaker rule
//!
//! A finished job feeds its name's circuit breaker as follows: a
//! success clears the history; a permanent failure, a panic, a wedge
//! and a `DeadlineExceeded` timeout each count one; a transient
//! failure (even after exhausting its retries), a quarantine refusal,
//! and an *external cancellation* (`CancelReason::Cancelled` — e.g. an
//! abandoning client or an aborted shutdown) count nothing. The
//! program itself never failed in the last case; punishing its name
//! would let an impatient client quarantine a healthy program.
//!
//! # Supervision
//!
//! Deadlines and cancellation are *cooperative*: a job that never
//! polls its token (or polls and ignores the verdict) holds a worker
//! hostage forever. With [`PoolConfig::supervise_grace_ticks`] > 0 the
//! pool turns on per-job heartbeats — every
//! [`CancelToken::check`] poll stamps the injected clock — and a
//! supervisor watches for running jobs whose stamp has gone stale by
//! more than the grace. Such a job is declared **wedged**: it receives
//! its exactly-once [`JobOutcome::Wedged`] report, its name is
//! released from the per-name FIFO gate, its worker thread is presumed
//! lost (detached, never joined) and a replacement worker is spawned
//! so pool capacity self-heals. If the zombie ever comes back, it
//! notices it was abandoned, discards its late report, and exits.
//!
//! The supervisor scans on a real-time interval but measures staleness
//! purely in injected-clock ticks, so `ManualClock` tests stay
//! deterministic: on a frozen clock nothing ever goes stale until the
//! test advances time, and [`WorkerPool::supervise_now`] runs one scan
//! synchronously for lockstep drivers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use warp_common::{CancelReason, CancelToken, Clock};

use crate::{
    run_job, Admission, BreakerState, ExecutorConfig, FailureKind, JobCtx, JobFailure, JobOutcome,
    JobReport, JobSuccess, QueuedJob,
};

/// Resolves a requested worker count: `0` means "available
/// parallelism", and the result is always at least 1.
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
    .max(1)
}

/// Configuration of a [`WorkerPool`]: the job-engine knobs plus the
/// pool size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolConfig {
    /// Queue, deadline, retry, breaker, and shed parameters.
    pub exec: ExecutorConfig,
    /// Worker threads (`0` = available parallelism; clamped to ≥ 1).
    pub workers: usize,
    /// Heartbeat staleness (in clock ticks) past which a running job
    /// is declared wedged and its worker replaced. `0` disables
    /// supervision entirely (no heartbeats, no supervisor thread).
    /// Must comfortably exceed the job's worst-case interval between
    /// cooperative polls, or healthy slow jobs get wedged.
    pub supervise_grace_ticks: u64,
    /// Real-time milliseconds between background supervisor scans
    /// (`0` = a small default). Scans are cheap and read-only unless a
    /// wedge is found. Lockstep (`ManualClock`) drivers should set
    /// [`SUPERVISE_MANUAL`] — no background thread at all — and call
    /// [`WorkerPool::supervise_now`] after each clock advance, so scan
    /// counts stay deterministic instead of racing the background
    /// scanner.
    pub supervise_interval_ms: u64,
}

/// Sentinel for [`PoolConfig::supervise_interval_ms`]: spawn no
/// background supervisor thread; wedges are detected only by explicit
/// [`WorkerPool::supervise_now`] calls. This is the lockstep mode —
/// with a `ManualClock`, a background scan could claim a wedge between
/// the harness advancing the clock and its own `supervise_now` call,
/// making scan-count assertions racy.
pub const SUPERVISE_MANUAL: u64 = u64::MAX;

/// Where a job currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker (or for an earlier same-name job).
    Queued,
    /// Executing on a worker right now.
    Running,
    /// Finished; its report is waiting to be collected.
    Done,
    /// Finished and its report was already collected by [`WorkerPool::wait`].
    Collected,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Collected => "collected",
        })
    }
}

/// Monotonic pool counters, snapshotted by [`WorkerPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Admission attempts.
    pub submitted: u64,
    /// Jobs accepted into the queue.
    pub accepted: u64,
    /// Jobs shed at admission (queue full or shutting down).
    pub shed: u64,
    /// Jobs that produced a report.
    pub completed: u64,
    /// Completed jobs that panicked (contained to the job).
    pub panicked: u64,
    /// Completed jobs refused by the circuit breaker.
    pub quarantined: u64,
    /// Jobs declared wedged by the supervisor (worker presumed lost).
    pub wedged: u64,
    /// Replacement workers spawned after wedges. `wedged - respawned`
    /// is the pool's permanent capacity loss — zero while the
    /// supervisor is healthy.
    pub respawned: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
}

/// How [`WorkerPool::shutdown`] treats work still in the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admitting, finish everything already queued, then exit.
    Drain,
    /// Stop admitting, cancel queued jobs (each still gets exactly one
    /// `TimedOut` report) and cooperatively cancel running jobs.
    Abort,
}

/// Bookkeeping for one executing job.
struct RunningJob {
    name: String,
    token: CancelToken,
    /// Serial of the worker thread executing it (wedge attribution).
    worker: usize,
}

struct PoolState<T, E> {
    queue: VecDeque<QueuedJob<T, E>>,
    /// Names currently executing — the per-name FIFO gate.
    running_names: BTreeSet<String>,
    /// Ids currently executing (status queries, abort-shutdown, and
    /// supervision).
    running: BTreeMap<usize, RunningJob>,
    /// Ids admitted and not yet finished (queued or running). An id
    /// below `next_id` that is neither here nor in `done` has been
    /// collected, so nothing is kept per job once its report is taken.
    pending: BTreeSet<usize>,
    /// Finished reports waiting for [`WorkerPool::wait`].
    done: BTreeMap<usize, JobReport<T, E>>,
    breaker: BTreeMap<String, BreakerState>,
    /// Worker serials presumed lost to a wedge. A zombie that comes
    /// back finds its serial here, discards its late report, and
    /// exits (its replacement already runs).
    abandoned: BTreeSet<usize>,
    /// Every name that has ever wedged a worker. Callers use this to
    /// escalate a resubmission of the same name to a harder isolation
    /// tier instead of risking another worker.
    wedged_names: BTreeSet<String>,
    stats: PoolStats,
    next_id: usize,
    shutdown: Option<ShutdownMode>,
    /// Tells the supervisor thread to exit (set after workers join, so
    /// a wedge during a drain can still be freed).
    supervisor_stop: bool,
    paused: bool,
}

struct Shared<T, E> {
    config: ExecutorConfig,
    /// Heartbeat staleness threshold; `0` = supervision off.
    grace_ticks: u64,
    clock: Arc<dyn Clock>,
    state: Mutex<PoolState<T, E>>,
    /// Workers wait here for dispatchable jobs.
    work: Condvar,
    /// Waiters block here for completions.
    completions: Condvar,
    /// The supervisor's interval timer / stop signal.
    supervise: Condvar,
    /// Live worker threads by serial. Wedged workers are removed and
    /// detached (never joined); replacements get fresh serials.
    threads: Mutex<BTreeMap<usize, std::thread::JoinHandle<()>>>,
    next_serial: AtomicUsize,
}

impl<T, E> Shared<T, E> {
    fn lock(&self) -> MutexGuard<'_, PoolState<T, E>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The live worker handles (lock order: state, then threads —
    /// never the reverse).
    fn threads(&self) -> MutexGuard<'_, BTreeMap<usize, std::thread::JoinHandle<()>>> {
        self.threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn is_quarantined_locked(&self, state: &PoolState<T, E>, name: &str) -> bool {
        self.config.breaker_threshold != 0
            && state
                .breaker
                .get(name)
                .is_some_and(|b| b.consecutive >= self.config.breaker_threshold)
    }

    /// Delivers one finished job's report, exactly once: folds it
    /// into the breaker, counts it, moves its id from `pending` to
    /// `done`, and wakes workers (a same-name successor may have become
    /// dispatchable) and waiters.
    fn complete_locked(&self, state: &mut PoolState<T, E>, report: JobReport<T, E>) {
        self.absorb_locked(state, &report);
        state.stats.completed += 1;
        match &report.outcome {
            JobOutcome::Panicked { .. } => state.stats.panicked += 1,
            JobOutcome::Quarantined { .. } => state.stats.quarantined += 1,
            JobOutcome::Wedged { .. } => state.stats.wedged += 1,
            _ => {}
        }
        state.pending.remove(&report.id);
        state.done.insert(report.id, report);
        self.work.notify_all();
        self.completions.notify_all();
    }

    /// Folds one finished job into the breaker (the module docs state
    /// the rule).
    fn absorb_locked(&self, state: &mut PoolState<T, E>, report: &JobReport<T, E>) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        match &report.outcome {
            JobOutcome::Success(_) => {
                state.breaker.remove(&report.name);
            }
            JobOutcome::Failed {
                kind: FailureKind::Transient,
                ..
            }
            | JobOutcome::Quarantined { .. }
            | JobOutcome::TimedOut {
                reason: CancelReason::Cancelled,
                ..
            } => {}
            JobOutcome::Failed { .. }
            | JobOutcome::TimedOut { .. }
            | JobOutcome::Panicked { .. }
            | JobOutcome::Wedged { .. } => {
                state
                    .breaker
                    .entry(report.name.clone())
                    .or_default()
                    .consecutive += 1;
            }
        }
    }
}

fn worker_loop<T: Send, E: Send>(shared: &Shared<T, E>, serial: usize) {
    let mut state = shared.lock();
    loop {
        match state.shutdown {
            Some(ShutdownMode::Abort) => break,
            Some(ShutdownMode::Drain) if state.queue.is_empty() => break,
            _ => {}
        }
        // Per-name FIFO: the first queued job whose name is idle. A
        // name already running blocks all its later submissions, so
        // same-name jobs execute serially in submission order.
        let slot = if state.paused {
            None
        } else {
            let running_names = &state.running_names;
            state
                .queue
                .iter()
                .position(|q| !running_names.contains(&q.name))
        };
        let Some(slot) = slot else {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        };
        let q = state.queue.remove(slot).expect("slot position is valid");
        if shared.grace_ticks > 0 {
            // Stamp "dispatched now": a job that never polls at all
            // still goes stale off this initial beat.
            q.token.enable_heartbeat();
        }
        state.running_names.insert(q.name.clone());
        state.running.insert(
            q.id,
            RunningJob {
                name: q.name.clone(),
                token: q.token.clone(),
                worker: serial,
            },
        );
        let consecutive = state.breaker.get(&q.name).copied().unwrap_or_default();
        let quarantined = shared.is_quarantined_locked(&state, &q.name);
        drop(state);

        let report = run_job(&shared.config, &shared.clock, quarantined, consecutive, &q);

        state = shared.lock();
        if state.abandoned.remove(&serial) {
            // The supervisor declared this job wedged while we ran it:
            // its Wedged report is already delivered, its name already
            // released, and a replacement worker already serves the
            // queue. Discard the late report and exit quietly.
            break;
        }
        state.running_names.remove(&q.name);
        state.running.remove(&q.id);
        shared.complete_locked(&mut state, report);
    }
    // This worker is exiting (shutdown or abandonment): wake siblings
    // and waiters so nobody sleeps through the state change.
    shared.work.notify_all();
    shared.completions.notify_all();
    drop(state);
}

/// One synchronous supervision scan: declares every running job whose
/// heartbeat is stale by more than the grace wedged, delivers its
/// exactly-once report, detaches its worker, and spawns a replacement.
/// Returns the number of jobs newly wedged.
fn scan_for_wedges<T: Send + 'static, E: Send + 'static>(shared: &Arc<Shared<T, E>>) -> usize {
    if shared.grace_ticks == 0 {
        return 0;
    }
    let mut state = shared.lock();
    if matches!(state.shutdown, Some(ShutdownMode::Abort)) {
        // Abort already cancelled everything; workers that never come
        // back are detached by shutdown itself.
        return 0;
    }
    let now = shared.clock.now_ticks();
    let wedged_ids: Vec<usize> = state
        .running
        .iter()
        .filter(|(_, rj)| {
            rj.token
                .heartbeat_ticks()
                .is_some_and(|beat| now.saturating_sub(beat) > shared.grace_ticks)
        })
        .map(|(id, _)| *id)
        .collect();
    if wedged_ids.is_empty() {
        return 0;
    }
    let mut lost_serials = Vec::new();
    for id in &wedged_ids {
        let rj = state.running.remove(id).expect("id came from running");
        state.running_names.remove(&rj.name);
        let stalled_for_ticks = now.saturating_sub(rj.token.heartbeat_ticks().unwrap_or(now));
        // Best effort: a zombie that eventually polls sees this and
        // unwinds; its late report is discarded via `abandoned`.
        rj.token.cancel();
        state.abandoned.insert(rj.worker);
        state.wedged_names.insert(rj.name.clone());
        lost_serials.push(rj.worker);
        let report = JobReport {
            id: *id,
            name: rj.name.clone(),
            outcome: JobOutcome::Wedged { stalled_for_ticks },
            wall_ticks: stalled_for_ticks,
        };
        shared.complete_locked(&mut state, report);
        // Respawn accounting is optimistic: the surgery below either
        // spawns the replacement or panics. Counting here — in the
        // same locked section that publishes the wedge — keeps
        // `wedged - respawned` (the "permanently lost capacity"
        // health signal) from transiently reading as a loss while the
        // replacement thread is mid-spawn.
        state.stats.respawned += 1;
    }
    drop(state);

    // Thread surgery happens outside the state lock (lock order:
    // state, then threads — never the reverse).
    {
        let mut threads = shared.threads();
        for serial in lost_serials {
            // Detach the presumed-dead worker: drop its handle without
            // joining. If it is a true zombie it burns until process
            // exit; if it comes back it exits via `abandoned`.
            drop(threads.remove(&serial));
            let fresh = spawn_worker(shared);
            threads.insert(fresh.0, fresh.1);
        }
    }
    wedged_ids.len()
}

/// Spawns one worker thread with a fresh serial.
fn spawn_worker<T: Send + 'static, E: Send + 'static>(
    shared: &Arc<Shared<T, E>>,
) -> (usize, std::thread::JoinHandle<()>) {
    let serial = shared.next_serial.fetch_add(1, Ordering::SeqCst);
    let cloned = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("warp-pool-{serial}"))
        .spawn(move || worker_loop(&*cloned, serial))
        .expect("spawn pool worker");
    (serial, handle)
}

/// The background supervisor: scans on a real-time interval, measuring
/// staleness in injected-clock ticks. Exits when told to (after the
/// workers have joined, so wedges during a drain still get freed).
fn supervisor_loop<T: Send + 'static, E: Send + 'static>(
    shared: &Arc<Shared<T, E>>,
    interval: std::time::Duration,
) {
    loop {
        {
            let state = shared.lock();
            if state.supervisor_stop {
                return;
            }
            let (state, _timeout) = shared
                .supervise
                .wait_timeout(state, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if state.supervisor_stop {
                return;
            }
        }
        scan_for_wedges(shared);
    }
}

/// The job engine. See the module docs for the dispatch, determinism,
/// and shutdown contracts.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use warp_common::ManualClock;
/// use warp_service::{JobSuccess, PoolConfig, ShutdownMode, WorkerPool};
///
/// let pool: WorkerPool<u32, String> =
///     WorkerPool::new(PoolConfig { workers: 2, ..PoolConfig::default() },
///                     Arc::new(ManualClock::new(0)));
/// let id = pool.submit("answer", |_ctx| Ok(JobSuccess::full(42))).id().unwrap();
/// let reports = pool.wait(&[id]);
/// assert!(reports[0].outcome.is_success());
/// pool.shutdown(ShutdownMode::Drain);
/// ```
pub struct WorkerPool<T, E> {
    shared: Arc<Shared<T, E>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
    n_workers: usize,
}

impl Admission {
    /// The accepted job id, if any.
    pub fn id(&self) -> Option<usize> {
        match self {
            Admission::Accepted { id, .. } => Some(*id),
            Admission::Rejected { .. } => None,
        }
    }
}

impl<T: Send + 'static, E: Send + 'static> WorkerPool<T, E> {
    /// Spawns the pool's workers immediately; they idle on a condvar
    /// until jobs arrive.
    pub fn new(config: PoolConfig, clock: Arc<dyn Clock>) -> WorkerPool<T, E> {
        let n_workers = effective_workers(config.workers);
        let shared = Arc::new(Shared {
            config: config.exec,
            grace_ticks: config.supervise_grace_ticks,
            clock,
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                running_names: BTreeSet::new(),
                running: BTreeMap::new(),
                pending: BTreeSet::new(),
                done: BTreeMap::new(),
                breaker: BTreeMap::new(),
                abandoned: BTreeSet::new(),
                wedged_names: BTreeSet::new(),
                stats: PoolStats::default(),
                next_id: 0,
                shutdown: None,
                supervisor_stop: false,
                paused: false,
            }),
            work: Condvar::new(),
            completions: Condvar::new(),
            supervise: Condvar::new(),
            threads: Mutex::new(BTreeMap::new()),
            next_serial: AtomicUsize::new(0),
        });
        {
            let mut threads = shared.threads();
            for _ in 0..n_workers {
                let (serial, handle) = spawn_worker(&shared);
                threads.insert(serial, handle);
            }
        }
        let supervisor = (config.supervise_grace_ticks > 0
            && config.supervise_interval_ms != SUPERVISE_MANUAL)
            .then(|| {
                let interval =
                    std::time::Duration::from_millis(match config.supervise_interval_ms {
                        0 => 2,
                        ms => ms,
                    });
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name("warp-pool-supervisor".to_owned())
                    .spawn(move || supervisor_loop(&shared, interval))
                    .expect("spawn pool supervisor")
            });
        WorkerPool {
            shared,
            supervisor: Mutex::new(supervisor),
            n_workers,
        }
    }

    /// Runs one supervision scan synchronously and returns the number
    /// of jobs newly declared wedged. Lockstep (`ManualClock`) drivers
    /// call this right after advancing the clock, making wedge
    /// detection deterministic; with a real clock it merely shortens
    /// the wait for the next background scan. No-op when supervision
    /// is disabled.
    pub fn supervise_now(&self) -> usize {
        scan_for_wedges(&self.shared)
    }

    /// Worker threads currently presumed live (nominal capacity minus
    /// wedged-and-detached workers plus respawns). Equals
    /// [`WorkerPool::workers`] whenever the supervisor keeps up.
    pub fn live_workers(&self) -> usize {
        self.shared.threads().len()
    }

    /// The number of worker threads actually running (the *effective*
    /// count after resolving `workers: 0`).
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Admission control: queues the job (workers pick it up
    /// immediately) unless the queue is at capacity or the pool is
    /// shutting down, in which case the job is shed with a retry hint.
    /// The queue never holds more than `queue_capacity` jobs.
    pub fn submit(
        &self,
        name: impl Into<String>,
        job: impl Fn(&JobCtx) -> Result<JobSuccess<T>, JobFailure<E>> + Send + Sync + 'static,
    ) -> Admission {
        let mut state = self.shared.lock();
        state.stats.submitted += 1;
        let at_capacity = self.shared.config.queue_capacity != 0
            && state.queue.len() >= self.shared.config.queue_capacity;
        if at_capacity || state.shutdown.is_some() {
            state.stats.shed += 1;
            return Admission::Rejected {
                retry_after_ticks: self.shared.config.retry_after_ticks,
            };
        }
        let id = state.next_id;
        state.next_id += 1;
        let token = CancelToken::new(self.shared.clock.clone());
        state.pending.insert(id);
        state.queue.push_back(QueuedJob {
            id,
            name: name.into(),
            token: token.clone(),
            job: Box::new(job),
        });
        state.stats.accepted += 1;
        state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queue.len());
        self.shared.work.notify_one();
        Admission::Accepted { id, cancel: token }
    }

    /// Blocks until every id in `ids` has finished, then removes and
    /// returns their reports in the order given. Each report is
    /// delivered exactly once: waiting twice on the same id returns
    /// nothing for it the second time (ids never waited on stay
    /// collectable). Unknown (never-admitted) ids are skipped.
    pub fn wait(&self, ids: &[usize]) -> Vec<JobReport<T, E>> {
        let mut state = self.shared.lock();
        loop {
            if !ids.iter().any(|id| state.pending.contains(id)) {
                return ids.iter().filter_map(|id| state.done.remove(id)).collect();
            }
            state = self
                .shared
                .completions
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Where job `id` currently is, or `None` for an unknown id.
    pub fn state_of(&self, id: usize) -> Option<JobState> {
        let state = self.shared.lock();
        if state.done.contains_key(&id) {
            Some(JobState::Done)
        } else if state.running.contains_key(&id) {
            Some(JobState::Running)
        } else if state.pending.contains(&id) {
            Some(JobState::Queued)
        } else if id < state.next_id {
            Some(JobState::Collected)
        } else {
            None
        }
    }

    /// `(id, name, state)` of every job still in the system (queued,
    /// running, or finished-but-uncollected), in id order.
    pub fn jobs_in_flight(&self) -> Vec<(usize, String, JobState)> {
        let state = self.shared.lock();
        let mut out: Vec<(usize, String, JobState)> = Vec::new();
        for q in &state.queue {
            out.push((q.id, q.name.clone(), JobState::Queued));
        }
        for (id, rj) in &state.running {
            out.push((*id, rj.name.clone(), JobState::Running));
        }
        for (id, report) in &state.done {
            out.push((*id, report.name.clone(), JobState::Done));
        }
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Jobs currently queued (excludes running jobs).
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Jobs currently executing on workers.
    pub fn running_len(&self) -> usize {
        self.shared.lock().running.len()
    }

    /// A snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.lock().stats
    }

    /// `true` if `name` has ever wedged a worker in this pool's
    /// lifetime. The escalation ladder's pivot: a first wedge runs
    /// in-thread, a resubmission of the same name should run under
    /// hard isolation.
    pub fn was_wedged(&self, name: &str) -> bool {
        self.shared.lock().wedged_names.contains(name)
    }

    /// Every name that has ever wedged a worker, sorted.
    pub fn wedged_names(&self) -> Vec<String> {
        self.shared.lock().wedged_names.iter().cloned().collect()
    }

    /// Names quarantined by the circuit breaker.
    pub fn quarantined_names(&self) -> Vec<String> {
        let state = self.shared.lock();
        if self.shared.config.breaker_threshold == 0 {
            return Vec::new();
        }
        state
            .breaker
            .iter()
            .filter(|(_, b)| b.consecutive >= self.shared.config.breaker_threshold)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Every name with breaker history: `(name, consecutive
    /// non-transient failures)`, tripped or not. `status`-style
    /// surfaces show these as "open or warming breakers".
    pub fn breaker_history(&self) -> Vec<(String, u32)> {
        let state = self.shared.lock();
        state
            .breaker
            .iter()
            .filter(|(_, b)| b.consecutive > 0)
            .map(|(n, b)| (n.clone(), b.consecutive))
            .collect()
    }

    /// `true` once the breaker has tripped for `name`.
    pub fn is_quarantined(&self, name: &str) -> bool {
        let state = self.shared.lock();
        self.shared.is_quarantined_locked(&state, name)
    }

    /// Clears the breaker history for `name`. Returns `true` when there
    /// was history to clear — a reset of a never-failing (or unknown)
    /// name is a no-op, and callers can say so.
    pub fn reset_breaker(&self, name: &str) -> bool {
        let mut state = self.shared.lock();
        let known = state.breaker.remove(name).is_some();
        // A quarantined name may have queued jobs blocked behind the
        // per-name gate only while a prior instance runs; nothing to
        // re-dispatch, but wake workers in case they idled.
        self.shared.work.notify_all();
        known
    }

    /// Gates dispatch: workers finish their current job but start no
    /// new one. Used by the deterministic soak driver to submit a
    /// burst against a quiescent queue.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Reopens dispatch after [`WorkerPool::pause`].
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }
}

impl<T, E> WorkerPool<T, E> {
    /// Stops the pool and joins every worker.
    ///
    /// `Drain` finishes all queued work first; `Abort` synthesizes a
    /// `TimedOut { Cancelled }` report for each queued job (preserving
    /// exactly-one-response) and cooperatively cancels running jobs.
    /// Either way, after this returns every accepted job has a report
    /// (collectable via [`WorkerPool::wait`]) and no threads remain.
    /// Idempotent; later submissions are shed.
    pub fn shutdown(&self, mode: ShutdownMode) {
        let mut state = self.shared.lock();
        if state.shutdown.is_none() {
            state.shutdown = Some(mode);
        }
        if matches!(mode, ShutdownMode::Abort) {
            // Give every queued job its one response without running it.
            while let Some(q) = state.queue.pop_front() {
                q.token.cancel();
                let report = JobReport {
                    id: q.id,
                    name: q.name,
                    outcome: JobOutcome::TimedOut {
                        reason: CancelReason::Cancelled,
                        attempts: 0,
                    },
                    wall_ticks: 0,
                };
                // Cancelled-before-running: counts nothing against the
                // name (the breaker rule).
                self.shared.complete_locked(&mut state, report);
            }
            // Running jobs observe the cancel at their next cooperative
            // poll and report TimedOut through the normal path.
            for rj in state.running.values() {
                rj.token.cancel();
            }
        }
        // Drain mode with a paused pool would deadlock: resume.
        state.paused = false;
        self.shared.work.notify_all();
        self.shared.completions.notify_all();
        drop(state);
        join_pool_threads(&self.shared, &self.supervisor);
    }
}

/// Joins every live worker, then stops and joins the supervisor. The
/// supervisor outlives the workers on purpose: a job that wedges
/// mid-drain (system clock) must still be detected so the drain can
/// finish — so while supervision is on, this never block-joins a
/// thread that might be wedged. It joins threads as they finish and
/// lets background scans detach stuck ones and spawn replacements,
/// which see the shutdown flag and exit promptly.
fn join_pool_threads<T, E>(
    shared: &Arc<Shared<T, E>>,
    supervisor: &Mutex<Option<std::thread::JoinHandle<()>>>,
) {
    if shared.grace_ticks == 0 {
        // Unsupervised pools keep the original contract: block until
        // every worker exits.
        let handles: Vec<_> = {
            let mut threads = shared.threads();
            std::mem::take(&mut *threads).into_values().collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    } else {
        loop {
            let (finished, remaining) = {
                let mut threads = shared.threads();
                let done: Vec<usize> = threads
                    .iter()
                    .filter(|(_, h)| h.is_finished())
                    .map(|(s, _)| *s)
                    .collect();
                let finished: Vec<_> = done
                    .into_iter()
                    .filter_map(|s| threads.remove(&s))
                    .collect();
                (finished, threads.len())
            };
            for handle in finished {
                let _ = handle.join();
            }
            if remaining == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    shared.lock().supervisor_stop = true;
    shared.supervise.notify_all();
    let handle = supervisor
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

impl<T, E> Drop for WorkerPool<T, E> {
    /// Dropping without an explicit shutdown aborts, so no thread
    /// outlives the pool; after one it finds nothing left to stop.
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Abort);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff_ticks;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Barrier;
    use warp_common::ManualClock;

    type TestPool = WorkerPool<u32, String>;

    fn pool(workers: usize, exec: ExecutorConfig) -> TestPool {
        pool_on(Arc::new(ManualClock::new(0)), workers, exec)
    }

    fn pool_on(clock: Arc<ManualClock>, workers: usize, exec: ExecutorConfig) -> TestPool {
        WorkerPool::new(
            PoolConfig {
                exec,
                workers,
                ..PoolConfig::default()
            },
            clock,
        )
    }

    /// Submits one job and returns its report.
    fn run_one(
        p: &TestPool,
        name: &str,
        job: impl Fn(&JobCtx) -> Result<JobSuccess<u32>, JobFailure<String>> + Send + Sync + 'static,
    ) -> JobReport<u32, String> {
        let id = p.submit(name, job).id().expect("accepted");
        p.wait(&[id]).pop().expect("one report")
    }

    /// Polls until `id` is running (the dispatch itself is async).
    fn await_running(p: &TestPool, id: usize) {
        for _ in 0..2_000 {
            if p.state_of(id) == Some(JobState::Running) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("job {id} never started running");
    }

    #[test]
    fn submit_runs_immediately_and_wait_collects() {
        let p = pool(2, ExecutorConfig::default());
        let a = p.submit("a", |_| Ok(JobSuccess::full(1))).id().unwrap();
        let b = p.submit("b", |_| Ok(JobSuccess::full(2))).id().unwrap();
        let reports = p.wait(&[a, b]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].outcome, JobOutcome::Success(JobSuccess::full(1)));
        assert_eq!(reports[1].outcome, JobOutcome::Success(JobSuccess::full(2)));
        // Exactly-once delivery: a second wait returns nothing.
        assert!(p.wait(&[a, b]).is_empty());
        assert_eq!(p.state_of(a), Some(JobState::Collected));
        p.shutdown(ShutdownMode::Drain);
        let stats = p.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn same_name_jobs_serialize_in_submission_order() {
        // 4 workers, 8 jobs under one name: per-name FIFO must run them
        // one at a time, in order.
        let p = pool(4, ExecutorConfig::default());
        let order = Arc::new(Mutex::new(Vec::new()));
        let live = Arc::new(AtomicU32::new(0));
        let mut ids = Vec::new();
        for i in 0..8_u32 {
            let order = order.clone();
            let live = live.clone();
            let id = p
                .submit("hot", move |_| {
                    let n = live.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(n, 0, "same-name jobs must never overlap");
                    order.lock().unwrap().push(i);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok(JobSuccess::full(i))
                })
                .id()
                .unwrap();
            ids.push(id);
        }
        let reports = p.wait(&ids);
        assert_eq!(reports.len(), 8);
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn distinct_names_run_concurrently() {
        // Two jobs that can only finish if they are in flight at the
        // same time: a shared barrier.
        let p = pool(2, ExecutorConfig::default());
        let barrier = Arc::new(Barrier::new(2));
        let b1 = barrier.clone();
        let b2 = barrier.clone();
        let a = p
            .submit("a", move |_| {
                b1.wait();
                Ok(JobSuccess::full(1))
            })
            .id()
            .unwrap();
        let b = p
            .submit("b", move |_| {
                b2.wait();
                Ok(JobSuccess::full(2))
            })
            .id()
            .unwrap();
        let reports = p.wait(&[a, b]);
        assert!(reports.iter().all(|r| r.outcome.is_success()));
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn queue_capacity_sheds_while_paused() {
        let p = pool(
            2,
            ExecutorConfig {
                queue_capacity: 3,
                retry_after_ticks: 123,
                ..ExecutorConfig::default()
            },
        );
        p.pause();
        let mut accepted = Vec::new();
        let mut shed = 0;
        for i in 0..5_u32 {
            match p.submit(format!("j{i}"), move |_| Ok(JobSuccess::full(i))) {
                Admission::Accepted { id, .. } => accepted.push(id),
                Admission::Rejected { retry_after_ticks } => {
                    assert_eq!(retry_after_ticks, 123);
                    shed += 1;
                }
            }
        }
        assert_eq!(accepted.len(), 3);
        assert_eq!(shed, 2);
        assert_eq!(p.queue_len(), 3, "queue never exceeds capacity");
        p.resume();
        let reports = p.wait(&accepted);
        assert_eq!(reports.len(), 3);
        let stats = p.stats();
        assert_eq!(stats.shed, 2);
        assert!(stats.max_queue_depth <= 3);
        // Capacity freed: a shed job is admissible on resubmit.
        assert!(p.submit("j3", |_| Ok(JobSuccess::full(3))).is_accepted());
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn breaker_is_deterministic_under_concurrency() {
        // Threshold 2: with per-name FIFO the 1st and 2nd "bad" jobs
        // must Fail and the 3rd..5th must be Quarantined, regardless of
        // worker scheduling.
        for _ in 0..4 {
            let p = pool(
                4,
                ExecutorConfig {
                    breaker_threshold: 2,
                    ..ExecutorConfig::default()
                },
            );
            let ids: Vec<usize> = (0..5)
                .map(|_| {
                    p.submit("bad", |_| Err(JobFailure::permanent("no".to_owned())))
                        .id()
                        .unwrap()
                })
                .collect();
            let reports = p.wait(&ids);
            let labels: Vec<&str> = reports.iter().map(|r| r.outcome.label()).collect();
            assert_eq!(
                labels,
                [
                    "failed",
                    "failed",
                    "quarantined",
                    "quarantined",
                    "quarantined"
                ]
            );
            assert_eq!(
                reports[2].outcome,
                JobOutcome::Quarantined {
                    consecutive_failures: 2
                }
            );
            assert!(p.is_quarantined("bad"));
            assert_eq!(p.quarantined_names(), ["bad"]);
            // Operator override reopens the circuit.
            assert!(p.reset_breaker("bad"));
            assert!(!p.is_quarantined("bad"));
            assert!(!p.reset_breaker("bad"), "second reset has no history");
            assert!(!p.reset_breaker("never-seen"));
            p.shutdown(ShutdownMode::Drain);
        }
    }

    #[test]
    fn cancelled_before_running_does_not_feed_the_breaker() {
        let p = pool(
            1,
            ExecutorConfig {
                breaker_threshold: 1,
                ..ExecutorConfig::default()
            },
        );
        p.pause();
        let Admission::Accepted { id, cancel } = p.submit("healthy", |_| Ok(JobSuccess::full(1)))
        else {
            panic!("accepted");
        };
        let bystander = p
            .submit("bystander", |_| Ok(JobSuccess::full(2)))
            .id()
            .unwrap();
        cancel.cancel();
        p.resume();
        let reports = p.wait(&[id, bystander]);
        assert_eq!(
            reports[0].outcome,
            JobOutcome::TimedOut {
                reason: CancelReason::Cancelled,
                attempts: 0
            }
        );
        assert!(reports[1].outcome.is_success());
        assert!(
            !p.is_quarantined("healthy"),
            "an abandoning client must not quarantine a healthy name"
        );
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn abort_shutdown_reports_every_accepted_job_exactly_once() {
        let p = pool(1, ExecutorConfig::default());
        p.pause();
        let ids: Vec<usize> = (0..6_u32)
            .map(|i| {
                p.submit(format!("j{i}"), move |_| Ok(JobSuccess::full(i)))
                    .id()
                    .unwrap()
            })
            .collect();
        p.shutdown(ShutdownMode::Abort);
        let reports = p.wait(&ids);
        assert_eq!(reports.len(), 6, "every accepted job gets one response");
        for r in &reports {
            assert!(
                matches!(
                    r.outcome,
                    JobOutcome::TimedOut {
                        reason: CancelReason::Cancelled,
                        ..
                    }
                ),
                "aborted queued jobs are cancelled, got {}",
                r.outcome.label()
            );
        }
        // Post-shutdown submissions are shed.
        assert!(!p.submit("late", |_| Ok(JobSuccess::full(0))).is_accepted());
        assert_eq!(p.stats().completed, 6);
    }

    #[test]
    fn drain_shutdown_finishes_queued_work() {
        let p = pool(2, ExecutorConfig::default());
        p.pause();
        let ids: Vec<usize> = (0..4_u32)
            .map(|i| {
                p.submit(format!("j{i}"), move |_| Ok(JobSuccess::full(i)))
                    .id()
                    .unwrap()
            })
            .collect();
        p.shutdown(ShutdownMode::Drain);
        let reports = p.wait(&ids);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.outcome.is_success()));
    }

    #[test]
    fn status_tracks_job_lifecycle() {
        let p = pool(1, ExecutorConfig::default());
        p.pause();
        let id = p.submit("x", |_| Ok(JobSuccess::full(7))).id().unwrap();
        assert_eq!(p.state_of(id), Some(JobState::Queued));
        let in_flight = p.jobs_in_flight();
        assert_eq!(in_flight, vec![(id, "x".to_owned(), JobState::Queued)]);
        p.resume();
        let reports = p.wait(&[id]);
        assert_eq!(reports.len(), 1);
        assert_eq!(p.state_of(id), Some(JobState::Collected));
        assert_eq!(p.state_of(999), None);
        assert!(p.jobs_in_flight().is_empty());
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn effective_workers_resolves_zero_and_clamps() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
        assert_eq!(effective_workers(1), 1);
    }

    #[test]
    fn supervisor_wedges_stalled_job_and_respawns_worker() {
        use std::sync::atomic::AtomicBool;
        let clock = Arc::new(ManualClock::new(0));
        let p: TestPool = WorkerPool::new(
            PoolConfig {
                exec: ExecutorConfig {
                    breaker_threshold: 1,
                    ..ExecutorConfig::default()
                },
                workers: 2,
                supervise_grace_ticks: 100,
                supervise_interval_ms: SUPERVISE_MANUAL,
            },
            clock.clone(),
        );
        // A cancellation-ignoring spin job: never polls its token, only
        // watches a harness-owned latch so the zombie can exit later.
        let release = Arc::new(AtomicBool::new(false));
        let r = release.clone();
        let id = p
            .submit("spin", move |_| {
                while !r.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Ok(JobSuccess::full(0))
            })
            .id()
            .unwrap();
        await_running(&p, id);
        // Frozen clock: no matter how long we really wait, the job is
        // not stale yet.
        assert_eq!(p.supervise_now(), 0);
        clock.advance(101);
        assert_eq!(p.supervise_now(), 1, "stale past grace: wedged");
        let reports = p.wait(&[id]);
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].outcome,
            JobOutcome::Wedged {
                stalled_for_ticks: 101
            }
        );
        assert!(p.wait(&[id]).is_empty(), "exactly-once delivery");
        let stats = p.stats();
        assert_eq!(stats.wedged, 1);
        assert_eq!(stats.respawned, 1);
        assert_eq!(p.live_workers(), 2, "capacity self-healed");
        // Wedges feed the breaker (threshold 1): the name is poison.
        assert!(p.is_quarantined("spin"));
        // And the name is remembered for isolation escalation.
        assert!(p.was_wedged("spin"));
        assert!(!p.was_wedged("never-seen"));
        assert_eq!(p.wedged_names(), ["spin"]);
        // The replacement worker serves subsequent jobs.
        let after = p.submit("after", |_| Ok(JobSuccess::full(7))).id().unwrap();
        let ok = p.submit("ok2", |_| Ok(JobSuccess::full(8))).id().unwrap();
        let reports = p.wait(&[after, ok]);
        assert!(reports.iter().all(|rep| rep.outcome.is_success()));
        // Let the zombie unwind; its late report must be discarded.
        release.store(true, Ordering::SeqCst);
        p.shutdown(ShutdownMode::Drain);
        assert_eq!(p.stats().completed, 3, "zombie's report was dropped");
    }

    #[test]
    fn healthy_jobs_survive_supervision_scans() {
        let clock = Arc::new(ManualClock::new(0));
        let p: TestPool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                supervise_grace_ticks: 1_000,
                supervise_interval_ms: SUPERVISE_MANUAL,
                ..PoolConfig::default()
            },
            clock.clone(),
        );
        let ids: Vec<usize> = (0..4_u32)
            .map(|i| {
                p.submit(format!("j{i}"), move |ctx| {
                    ctx.cancel
                        .check()
                        .map_err(|r| JobFailure::timeout(r.to_string()))?;
                    Ok(JobSuccess::full(i))
                })
                .id()
                .unwrap()
            })
            .collect();
        let reports = p.wait(&ids);
        assert!(reports.iter().all(|r| r.outcome.is_success()));
        assert_eq!(p.supervise_now(), 0);
        clock.advance(10_000);
        // Nothing is running: a huge advance wedges nobody.
        assert_eq!(p.supervise_now(), 0);
        let stats = p.stats();
        assert_eq!(stats.wedged, 0);
        assert_eq!(stats.respawned, 0);
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn wedge_releases_the_per_name_fifo_gate() {
        use std::sync::atomic::AtomicBool;
        let clock = Arc::new(ManualClock::new(0));
        let p: TestPool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                supervise_grace_ticks: 50,
                supervise_interval_ms: SUPERVISE_MANUAL,
                ..PoolConfig::default()
            },
            clock.clone(),
        );
        let release = Arc::new(AtomicBool::new(false));
        let r = release.clone();
        let stuck = p
            .submit("hot", move |_| {
                while !r.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Ok(JobSuccess::full(0))
            })
            .id()
            .unwrap();
        await_running(&p, stuck);
        // Same name queues behind the wedged instance.
        let successor = p.submit("hot", |_| Ok(JobSuccess::full(1))).id().unwrap();
        assert_eq!(p.state_of(successor), Some(JobState::Queued));
        clock.advance(51);
        assert_eq!(p.supervise_now(), 1);
        // The gate is released: the successor can now run and finish.
        let reports = p.wait(&[stuck, successor]);
        assert_eq!(reports.len(), 2);
        assert!(matches!(reports[0].outcome, JobOutcome::Wedged { .. }));
        assert!(reports[1].outcome.is_success());
        release.store(true, Ordering::SeqCst);
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn panic_is_contained_and_counted() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let p = pool(
            2,
            ExecutorConfig {
                breaker_threshold: 1,
                ..ExecutorConfig::default()
            },
        );
        let bomb = p
            .submit("bomb", |_| panic!("chaos: injected"))
            .id()
            .unwrap();
        let ok = p.submit("ok", |_| Ok(JobSuccess::full(1))).id().unwrap();
        let reports = p.wait(&[bomb, ok]);
        std::panic::set_hook(hook);
        match &reports[0].outcome {
            JobOutcome::Panicked { what, attempts } => {
                assert!(what.contains("chaos: injected"), "{what}");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(reports[1].outcome.is_success());
        assert_eq!(p.stats().panicked, 1);
        // Panics feed the breaker.
        assert!(p.is_quarantined("bomb"));
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn wait_returns_reports_in_the_order_asked() {
        let p = pool(3, ExecutorConfig::default());
        let ids: Vec<usize> = (0..8_u32)
            .map(|i| {
                p.submit(format!("job-{i}"), move |_| Ok(JobSuccess::full(i)))
                    .id()
                    .unwrap()
            })
            .collect();
        let reports = p.wait(&ids);
        assert_eq!(reports.len(), 8);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.id, ids[i]);
            assert_eq!(r.name, format!("job-{i}"));
            assert_eq!(r.outcome, JobOutcome::Success(JobSuccess::full(i as u32)));
        }
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn transient_failures_retry_with_deterministic_backoff() {
        let config = ExecutorConfig {
            max_attempts: 3,
            ..ExecutorConfig::default()
        };
        let p = pool(1, config.clone());
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let report = run_one(&p, "flaky", move |_| {
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(JobFailure::transient("hiccup".to_owned()))
            } else {
                Ok(JobSuccess::full(7))
            }
        });
        assert_eq!(report.outcome, JobOutcome::Success(JobSuccess::full(7)));
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        // Wall time is exactly the two backoff sleeps — the ManualClock
        // advances only inside sleep_ticks.
        let expected = backoff_ticks(&config, "flaky", 1) + backoff_ticks(&config, "flaky", 2);
        assert_eq!(report.wall_ticks, expected);
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn transient_exhaustion_reports_final_error() {
        let p = pool(
            1,
            ExecutorConfig {
                max_attempts: 2,
                breaker_threshold: 1,
                ..ExecutorConfig::default()
            },
        );
        let report = run_one(&p, "flaky", |_| {
            Err(JobFailure::transient("still down".to_owned()))
        });
        assert_eq!(
            report.outcome,
            JobOutcome::Failed {
                kind: FailureKind::Transient,
                error: "still down".to_owned(),
                attempts: 2,
            }
        );
        // Transient exhaustion does not feed the breaker.
        assert!(!p.is_quarantined("flaky"));
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn deadline_ends_job_between_retries_with_structured_timeout() {
        let p = pool(
            1,
            ExecutorConfig {
                max_attempts: 10,
                deadline_ticks: 3_000, // less than two backoff sleeps
                ..ExecutorConfig::default()
            },
        );
        let report = run_one(&p, "doomed", |_| {
            Err(JobFailure::transient("flap".to_owned()))
        });
        match &report.outcome {
            JobOutcome::TimedOut { reason, attempts } => {
                assert!(
                    matches!(reason, CancelReason::DeadlineExceeded { .. }),
                    "{reason:?}"
                );
                assert!(*attempts >= 1 && *attempts < 10, "{attempts}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn cooperative_job_observes_deadline_mid_attempt() {
        // The job polls its token like the compiler's pass boundaries
        // do; the auto-advancing clock makes each poll cost 100 ticks.
        let p = pool_on(
            Arc::new(ManualClock::with_auto_advance(0, 100)),
            1,
            ExecutorConfig {
                deadline_ticks: 1_000,
                ..ExecutorConfig::default()
            },
        );
        let polls = Arc::new(AtomicU32::new(0));
        let counter = polls.clone();
        let report = run_one(&p, "spinner", move |ctx| loop {
            counter.fetch_add(1, Ordering::SeqCst);
            if let Err(reason) = ctx.cancel.check() {
                return Err(JobFailure::timeout(reason.to_string()));
            }
        });
        match &report.outcome {
            JobOutcome::TimedOut { reason, attempts } => {
                assert!(matches!(reason, CancelReason::DeadlineExceeded { .. }));
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        // ~12 polls: each check reads the clock once. Bounded and
        // deterministic either way.
        assert!(polls.load(Ordering::SeqCst) < 20);
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn success_resets_breaker_history() {
        let p = pool(
            1,
            ExecutorConfig {
                breaker_threshold: 2,
                ..ExecutorConfig::default()
            },
        );
        let fail = |_: &JobCtx| Err(JobFailure::permanent("no".to_owned()));
        let ids = [
            p.submit("waver", fail).id().unwrap(),
            p.submit("waver", |_| Ok(JobSuccess::full(1))).id().unwrap(),
            p.submit("waver", fail).id().unwrap(),
        ];
        let reports = p.wait(&ids);
        // fail, success (resets), fail: never reaches 2 consecutive.
        assert!(!p.is_quarantined("waver"));
        assert!(reports[1].outcome.is_success());
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn degraded_success_is_flagged_not_failed() {
        let p = pool(1, ExecutorConfig::default());
        let report = run_one(&p, "big", |_| {
            Ok(JobSuccess {
                value: 1,
                degraded: true,
            })
        });
        assert!(report.outcome.is_success());
        assert!(report.outcome.is_degraded());
        assert_eq!(report.outcome.label(), "degraded");
        p.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn bookkeeping_is_bounded_by_jobs_in_flight() {
        // Nothing the pool keeps per job may outlive the job's report:
        // after any number of submit/wait rounds the id maps are empty.
        let per_job_state = |p: &TestPool| {
            let state = p.shared.lock();
            state.queue.len() + state.running.len() + state.pending.len() + state.done.len()
        };
        let p = pool(2, ExecutorConfig::default());
        let mut last = 0;
        for rounds in [10_u32, 1_000] {
            for i in 0..rounds {
                let a = p
                    .submit("a", move |_| Ok(JobSuccess::full(i)))
                    .id()
                    .unwrap();
                let b = p
                    .submit("b", move |_| Ok(JobSuccess::full(i)))
                    .id()
                    .unwrap();
                assert_eq!(p.wait(&[a, b]).len(), 2);
                last = b;
            }
            assert_eq!(per_job_state(&p), 0, "after {rounds} rounds");
        }
        // The lifecycle queries still answer from `next_id` alone.
        assert_eq!(p.state_of(0), Some(JobState::Collected));
        assert_eq!(p.state_of(last), Some(JobState::Collected));
        assert_eq!(p.state_of(last + 1), None);
        assert!(p.wait(&[0, last, last + 1]).is_empty());
        assert!(p.jobs_in_flight().is_empty());
        p.shutdown(ShutdownMode::Drain);
    }
}
