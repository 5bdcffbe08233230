//! The job engine: bounded execution slots, single-flight deduplication,
//! crash containment, and the cache/backpressure decision — everything
//! below the HTTP layer, so all of it is testable without a socket.
//!
//! A caller that [`Service::submit`] admits settles its submission with
//! [`Service::settle`]: a job's leader runs it on its own thread once one
//! of `workers` slots is free, and a caller that joins waits. One lock
//! ([`Service::inner`]) guards the cache, the in-flight table, the queue
//! of waiting leaders, the child-process registry, and the poison set,
//! so the submit decision — *poisoned? hit? join? enqueue? reject?* — is
//! atomic. The invariants the integration suite pins:
//!
//! - **Single-flight**: at most one execution per content address is
//!   ever in flight; concurrent identical submissions join it
//!   (`runs == misses` for successful jobs, always).
//! - **Bounded**: at most `workers` jobs execute at once, and at most
//!   `queue_cap` leaders wait for a slot, starting in admission order;
//!   beyond that, submissions are rejected *immediately* with a
//!   structured error — the server's memory is bounded by `queue_cap`,
//!   not by clients.
//! - **Byte-stable**: a cached result is returned verbatim, so cold and
//!   cached responses are identical bytes — and so are sandboxed and
//!   in-process responses, because the worker envelope transports the
//!   executor's output through one exact JSON round trip.
//! - **Contained**: with a sandbox configured, a job that panics,
//!   aborts, OOMs, or overruns its deadline kills *its own process*;
//!   the server answers with a structured error and keeps serving.
//!   A crashed (not cleanly-failed) job is retried once with backoff;
//!   if it crashes again its key is poisoned — subsequent submissions
//!   get a structured 422 instead of another execution slot.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use apobs::CacheCounters;
use aputil::Json;

use crate::cache::{CacheTier, ResultCache};
use crate::poison::{lock, wait_on};
use crate::request::{CanonRequest, Kind};
use crate::worker::{ChildSlot, KillReason, RunOutcome, SandboxConfig};

/// Computes one job: canonical request in, complete report document
/// out. Injected by the binary that owns the simulators (`apbench`),
/// keeping this crate free of a dependency cycle. Must be pure in the
/// caching sense: same canonical request ⇒ same bytes.
pub type Executor = Arc<dyn Fn(&CanonRequest) -> Result<String, String> + Send + Sync>;

/// Most keys the crash-loop breaker remembers; beyond this the oldest
/// poisoned key is forgotten (and would have to crash-loop again to
/// re-trip). Bounds a hostile client's ability to grow server memory.
const POISON_CAP: usize = 1024;

/// Server/service configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Jobs executed (or supervised) at once; a leader beyond this waits
    /// for a slot.
    pub workers: usize,
    /// Jobs admitted but not yet running; beyond this, reject.
    pub queue_cap: usize,
    /// Memory-tier cache capacity, in entries.
    pub cache_entries: usize,
    /// Disk-tier directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Disk-tier byte budget with LRU eviction; `None` = unbounded.
    pub disk_cache_bytes: Option<u64>,
    /// Accept `kind:"sleep"` test jobs. Off in production.
    pub allow_sleep: bool,
    /// Process isolation policy; `None` runs jobs in-process (PR 9
    /// behaviour, plus panic containment via `catch_unwind`).
    pub sandbox: Option<SandboxConfig>,
    /// How long `shutdown` waits for in-flight jobs to finish before
    /// killing their worker processes.
    pub drain_ms: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            cache_entries: 64,
            cache_dir: None,
            disk_cache_bytes: None,
            allow_sleep: false,
            sandbox: None,
            drain_ms: 2_000,
        }
    }
}

/// How a job failed — each variant maps to one structured HTTP error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job ran to completion and reported an error of its own
    /// (unknown app, unreadable trace...). `500 job_failed`.
    Failed(String),
    /// The worker process (or, in-process, the leader's `catch_unwind`)
    /// died without a result. `500 job_crashed`.
    Crashed { status: String, stderr_tail: String },
    /// Killed for exceeding the per-job deadline. `504 job_timeout`.
    Timeout { deadline_ms: u64 },
    /// The key tripped the crash-loop breaker. `422 job_poisoned`.
    Poisoned { crashes: u32 },
    /// The server is shutting down. `503 job_canceled`.
    Canceled(String),
}

impl JobError {
    /// The machine-readable `error` field of the response document.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Failed(_) => "job_failed",
            JobError::Crashed { .. } => "job_crashed",
            JobError::Timeout { .. } => "job_timeout",
            JobError::Poisoned { .. } => "job_poisoned",
            JobError::Canceled(_) => "job_canceled",
        }
    }

    pub fn http_status(&self) -> u16 {
        match self {
            JobError::Failed(_) | JobError::Crashed { .. } => 500,
            JobError::Timeout { .. } => 504,
            JobError::Poisoned { .. } => 422,
            JobError::Canceled(_) => 503,
        }
    }

    /// The structured error document (HTTP body).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("error", Json::from(self.code())),
            ("detail", Json::from(self.to_string())),
        ];
        match self {
            JobError::Crashed {
                status,
                stderr_tail,
            } => {
                fields.push(("exit_status", Json::from(status.as_str())));
                fields.push(("stderr_tail", Json::from(stderr_tail.as_str())));
            }
            JobError::Timeout { deadline_ms } => {
                fields.push(("deadline_ms", Json::from(*deadline_ms)));
            }
            JobError::Poisoned { crashes } => {
                fields.push(("crashes", Json::from(u64::from(*crashes))));
            }
            JobError::Failed(_) | JobError::Canceled(_) => {}
        }
        Json::obj(fields)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(msg) | JobError::Canceled(msg) => write!(f, "{msg}"),
            JobError::Crashed { status, .. } => write!(f, "worker crashed: {status}"),
            JobError::Timeout { deadline_ms } => {
                write!(
                    f,
                    "job exceeded the {deadline_ms} ms deadline and was killed"
                )
            }
            JobError::Poisoned { crashes } => write!(
                f,
                "request key is poisoned after {crashes} crashed executions"
            ),
        }
    }
}

/// One admitted job, shared by its leader and every caller that joined
/// it.
pub struct Job {
    pub request: CanonRequest,
    /// Set once, under the service lock, when the leader has finished:
    /// the report bytes or a structured failure.
    outcome: OnceLock<Result<Vec<u8>, JobError>>,
}

/// What `submit` decided, atomically, under one lock.
pub enum Submission {
    /// Served from cache: the exact bytes a cold run would produce.
    Done { body: Vec<u8>, tier: CacheTier },
    /// Admitted as the job's leader, or `joined` onto an identical
    /// in-flight job; the caller must pass it to [`Service::settle`].
    Pending { job: Arc<Job>, joined: bool },
    /// Queue full — structured backpressure, client should retry later.
    Rejected { queued: usize, capacity: usize },
    /// Answered without a run: the key is poisoned (422) or the server
    /// is shutting down (503).
    Refused(JobError),
}

struct Inner {
    cache: ResultCache,
    /// Content address -> the one job currently computing it, from
    /// admission until its leader publishes the outcome.
    inflight: HashMap<u64, Arc<Job>>,
    /// Leaders waiting for an execution slot, by key, in admission
    /// order: only the front one may take a free slot.
    queue: VecDeque<u64>,
    /// Jobs executing now; at most `Config::workers`.
    running: usize,
    /// Admitted submissions, leaders and joiners, not yet answered: the
    /// drain waits for none.
    pending: usize,
    /// Content address -> the live child computing it (sandbox mode);
    /// this is what the shutdown drain kills.
    children: HashMap<u64, Arc<ChildSlot>>,
    /// Crash-loop breaker: key -> total crashed executions. Bounded by
    /// [`POISON_CAP`] (oldest key forgotten first).
    poisoned: HashMap<u64, u32>,
    poison_order: VecDeque<u64>,
    counters: CacheCounters,
    shutdown: bool,
}

/// The engine. Construct with [`Service::new`]; callers settle what
/// they submit on their own threads (see the module docs).
pub struct Service {
    pub cfg: Config,
    inner: Mutex<Inner>,
    /// The one condvar, notified when a slot, the queue's front or a job's
    /// outcome changes, when a submission is answered, and when shutdown
    /// begins: waiting leaders recheck their turn, joiners their job, and
    /// the drain rechecks for quiet.
    changed: Condvar,
    executor: Executor,
    /// Serializes [`Service::shutdown`]: the first caller drains, every
    /// concurrent caller blocks here until the drain has finished (the
    /// flag records "drained"). Without this a foreground server could
    /// observe the shutdown flag and exit the process mid-drain.
    drain_lock: Mutex<bool>,
}

/// A point-in-time `/stats` snapshot.
#[derive(Clone, Debug)]
pub struct Stats {
    pub counters: CacheCounters,
    pub in_flight: usize,
    pub queue_depth: usize,
    pub cache_entries: usize,
    pub cache_bytes: usize,
    pub disk_entries: usize,
    pub disk_bytes: u64,
    pub workers: usize,
    pub queue_capacity: usize,
    pub poisoned_keys: usize,
    pub children: usize,
    pub sandbox: bool,
}

/// The answer to a job that shutdown stopped before it ran.
fn shutting_down() -> JobError {
    JobError::Canceled("server shutting down".to_string())
}

/// Executes a `kind:"sleep"` test job — the one implementation behind
/// both in-process execution and `repro job-exec`, so their reports are
/// identical. Sleeps `ms`, then honours `crash` literally: `"panic"`
/// panics, `"abort"` calls `abort(2)`. Only a sandboxed child may abort
/// (`in_child`); in-process the request is refused up front, because the
/// abort would take the whole server with it.
pub fn run_sleep(request: &CanonRequest, in_child: bool) -> Result<String, String> {
    let ms = request.field("ms").and_then(Json::as_u64).unwrap_or(0);
    let crash = request.field("crash").and_then(Json::as_str);
    if crash == Some("abort") && !in_child {
        return Err("crash=\"abort\" requires sandbox mode (--sandbox)".to_string());
    }
    std::thread::sleep(Duration::from_millis(ms));
    match crash {
        Some("panic") => panic!("injected panic (crash=\"panic\")"),
        Some("abort") => std::process::abort(),
        _ => Ok(Json::obj([
            ("schema", Json::from("ap1000plus.sleep")),
            ("version", Json::from(1u64)),
            ("slept_ms", Json::from(ms)),
        ])
        .to_string()),
    }
}

impl Service {
    pub fn new(cfg: Config, executor: Executor) -> Arc<Service> {
        let cache = ResultCache::new(
            cfg.cache_entries,
            cfg.cache_dir.clone(),
            cfg.disk_cache_bytes,
        );
        Arc::new(Service {
            cfg,
            inner: Mutex::new(Inner {
                cache,
                inflight: HashMap::new(),
                queue: VecDeque::new(),
                running: 0,
                pending: 0,
                children: HashMap::new(),
                poisoned: HashMap::new(),
                poison_order: VecDeque::new(),
                counters: CacheCounters::new(),
                shutdown: false,
            }),
            changed: Condvar::new(),
            executor,
            drain_lock: Mutex::new(false),
        })
    }

    /// The atomic admit decision: poisoned, cache hit, join, enqueue,
    /// or reject.
    pub fn submit(&self, request: CanonRequest) -> Submission {
        let key = request.key;
        let mut inner = lock(&self.inner);
        if inner.shutdown {
            return Submission::Refused(shutting_down());
        }
        // The breaker outranks the cache: a poisoned key has never been
        // cached as success (only Ok results are stored), and answering
        // 422 here keeps repeat crashers from ever running again.
        if let Some(&crashes) = inner.poisoned.get(&key) {
            inner.counters.poison_rejects += 1;
            return Submission::Refused(JobError::Poisoned { crashes });
        }
        if let Some((body, tier)) = inner.cache.get(key) {
            match tier {
                CacheTier::Memory => inner.counters.hits += 1,
                CacheTier::Disk => inner.counters.disk_hits += 1,
            }
            inner.counters.evictions = inner.cache.evictions;
            return Submission::Done { body, tier };
        }
        if let Some(job) = inner.inflight.get(&key).map(Arc::clone) {
            inner.counters.joins += 1;
            inner.pending += 1;
            return Submission::Pending { job, joined: true };
        }
        if inner.queue.len() >= self.cfg.queue_cap {
            inner.counters.rejected += 1;
            return Submission::Rejected {
                queued: inner.queue.len(),
                capacity: self.cfg.queue_cap,
            };
        }
        inner.counters.misses += 1;
        let job = Arc::new(Job {
            request,
            outcome: OnceLock::new(),
        });
        inner.inflight.insert(key, Arc::clone(&job));
        inner.queue.push_back(key);
        inner.pending += 1;
        Submission::Pending { job, joined: false }
    }

    /// Settles a [`Submission::Pending`] on the calling thread: the leader
    /// runs the job, a joiner waits for it, and `answer` gets the outcome.
    /// The submission counts as pending until `answer` returns, so a
    /// drained server has answered every submission it admitted.
    pub fn settle<R>(
        &self,
        job: &Arc<Job>,
        joined: bool,
        answer: impl FnOnce(Result<Vec<u8>, JobError>) -> R,
    ) -> R {
        let outcome = if joined {
            let mut inner = lock(&self.inner);
            loop {
                if let Some(outcome) = job.outcome.get() {
                    break outcome.clone();
                }
                inner = wait_on(&self.changed, inner);
            }
        } else {
            self.lead(job)
        };
        let answered = answer(outcome);
        lock(&self.inner).pending -= 1;
        self.changed.notify_all();
        answered
    }

    /// Runs a job on its leader's thread: waits, in admission order, for
    /// a free execution slot, executes, caches a success, and hands the
    /// outcome to every joiner. A leader still waiting when shutdown
    /// begins fails with `job_canceled`.
    fn lead(&self, job: &Arc<Job>) -> Result<Vec<u8>, JobError> {
        let key = job.request.key;
        let mut inner = lock(&self.inner);
        while !inner.shutdown
            && (inner.running >= self.cfg.workers.max(1) || inner.queue.front() != Some(&key))
        {
            inner = wait_on(&self.changed, inner);
        }
        inner.queue.retain(|&k| k != key);
        let result = if inner.shutdown {
            inner.counters.failures += 1;
            Err(shutting_down())
        } else {
            inner.running += 1;
            drop(inner);
            // The new front of the queue may take a slot still free.
            self.changed.notify_all();
            let result = self.run_with_retry(job);
            inner = lock(&self.inner);
            inner.running -= 1;
            if let Ok(body) = &result {
                inner.counters.runs += 1;
                // The memory tier always takes the entry; a failed disk
                // write costs a later recompute, not an error.
                if inner.cache.put(key, &job.request.text, body).is_err() {
                    inner.counters.disk_write_failures += 1;
                }
                inner.counters.evictions = inner.cache.evictions;
                inner.counters.disk_evictions = inner.cache.disk_evictions;
            }
            result
        };
        let _ = job.outcome.set(result.clone());
        inner.inflight.remove(&key);
        drop(inner);
        self.changed.notify_all();
        result
    }

    /// Executes a job to its final verdict, applying the crash policy:
    /// a crashed (not cleanly-failed, not timed-out) execution gets
    /// `retries` deterministic retries with linear backoff; when the
    /// last one also crashes, the key is poisoned. Timeouts neither
    /// retry (the deadline would just burn twice) nor poison (slow is
    /// not crash-looping); clean failures pass straight through.
    fn run_with_retry(&self, job: &Arc<Job>) -> Result<Vec<u8>, JobError> {
        let (retries, backoff_ms) = match &self.cfg.sandbox {
            Some(s) => (s.retries, s.retry_backoff_ms),
            None => (1, 100),
        };
        let mut attempt: u32 = 0;
        loop {
            match self.execute_once(job) {
                RunOutcome::Ok(body) => return Ok(body),
                RunOutcome::CleanFail(msg) => {
                    lock(&self.inner).counters.failures += 1;
                    return Err(JobError::Failed(msg));
                }
                RunOutcome::Timeout { deadline_ms } => {
                    let mut inner = lock(&self.inner);
                    inner.counters.timeouts += 1;
                    inner.counters.kills += 1;
                    return Err(JobError::Timeout { deadline_ms });
                }
                RunOutcome::Canceled => {
                    lock(&self.inner).counters.failures += 1;
                    return Err(JobError::Canceled(
                        "job killed by server shutdown".to_string(),
                    ));
                }
                RunOutcome::Crashed {
                    status,
                    stderr_tail,
                } => {
                    lock(&self.inner).counters.crashed += 1;
                    if attempt < retries && !self.is_shutdown() {
                        attempt += 1;
                        lock(&self.inner).counters.job_retries += 1;
                        std::thread::sleep(Duration::from_millis(
                            backoff_ms.saturating_mul(u64::from(attempt)),
                        ));
                        continue;
                    }
                    self.poison(job.request.key, attempt + 1);
                    return Err(JobError::Crashed {
                        status,
                        stderr_tail,
                    });
                }
            }
        }
    }

    /// One execution attempt, sandboxed or in-process.
    fn execute_once(&self, job: &Arc<Job>) -> RunOutcome {
        let request = &job.request;
        // The sleep gate is server policy, enforced before any process
        // is spawned; the child itself always honours sleep requests.
        if request.kind == Kind::Sleep && !self.cfg.allow_sleep {
            return RunOutcome::CleanFail("sleep jobs are disabled on this server".to_string());
        }
        match &self.cfg.sandbox {
            Some(sandbox) => self.execute_sandboxed(sandbox, request),
            None => self.execute_inproc(request),
        }
    }

    fn execute_sandboxed(&self, sandbox: &SandboxConfig, request: &CanonRequest) -> RunOutcome {
        if self.is_shutdown() {
            return RunOutcome::Canceled;
        }
        let key = request.key;
        let outcome = crate::worker::run_job(sandbox, &request.text, |slot| {
            lock(&self.inner).children.insert(key, slot);
        });
        lock(&self.inner).children.remove(&key);
        outcome
    }

    /// In-process execution with panic containment: a panicking
    /// executor becomes [`RunOutcome::Crashed`] — same retry and
    /// breaker policy as a sandboxed crash, it just can't survive
    /// `abort(2)` or enforce deadlines (that needs `sandbox`).
    fn execute_inproc(&self, request: &CanonRequest) -> RunOutcome {
        let run = || match request.kind {
            Kind::Sleep => run_sleep(request, false),
            _ => (self.executor)(request),
        };
        match std::panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(body)) => RunOutcome::Ok(body.into_bytes()),
            Ok(Err(msg)) => RunOutcome::CleanFail(msg),
            Err(payload) => RunOutcome::Crashed {
                status: "panic in the connection handler running the job".to_string(),
                stderr_tail: aputil::panic_message(payload.as_ref()),
            },
        }
    }

    /// Trips the breaker for `key`, evicting the oldest poisoned key
    /// if the set is at capacity.
    fn poison(&self, key: u64, crashes: u32) {
        let mut inner = lock(&self.inner);
        if inner.poisoned.len() >= POISON_CAP && !inner.poisoned.contains_key(&key) {
            if let Some(old) = inner.poison_order.pop_front() {
                inner.poisoned.remove(&old);
            }
        }
        if inner.poisoned.insert(key, crashes).is_none() {
            inner.poison_order.push_back(key);
        }
    }

    /// Graceful drain: refuse new work, fail every leader still waiting
    /// for a slot, give running jobs `drain_ms` to finish, then kill the
    /// remaining worker processes, and return once every admitted
    /// submission is answered — reaped children and in-process jobs
    /// alike — so a stopped server leaves no orphan processes, no job
    /// running and no admitted client unanswered.
    ///
    /// Safe to call from multiple threads: the first caller drains,
    /// everyone else blocks until that drain is complete. This is what
    /// lets a foreground server exit the process only *after* the drain
    /// has actually finished, whichever thread started it.
    pub fn shutdown(&self) {
        let mut drained = lock(&self.drain_lock);
        if !*drained {
            self.drain();
            *drained = true;
        }
    }

    fn drain(&self) {
        lock(&self.inner).shutdown = true;
        self.changed.notify_all();

        // Phase 1: let running jobs finish and be answered on their own.
        let drain_deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        if self.wait_quiet(drain_deadline) {
            return;
        }
        // Phase 2: kill whatever is still running in a child process.
        {
            let mut inner = lock(&self.inner);
            inner.counters.kills += inner.children.len() as u64;
            for slot in inner.children.values() {
                slot.kill(KillReason::Drain);
            }
        }
        // Phase 3: wait for every submission to be answered: killed
        // children reaped, in-process jobs (which cannot be killed)
        // ended. Every 10 ms, kill any child that registered after the
        // sweep (idempotent on dead children).
        while !self.wait_quiet(Instant::now() + Duration::from_millis(10)) {
            for slot in lock(&self.inner).children.values() {
                slot.kill(KillReason::Drain);
            }
        }
    }

    /// Waits until no submission is pending, or until `deadline`; true if
    /// none is.
    fn wait_quiet(&self, deadline: Instant) -> bool {
        let mut inner = lock(&self.inner);
        while inner.pending > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            inner = self
                .changed
                .wait_timeout(inner, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Whether [`Service::shutdown`] has run (e.g. via `POST /shutdown`).
    pub fn is_shutdown(&self) -> bool {
        lock(&self.inner).shutdown
    }

    pub fn stats(&self) -> Stats {
        let inner = lock(&self.inner);
        Stats {
            counters: inner.counters.clone(),
            in_flight: inner.inflight.len(),
            queue_depth: inner.queue.len(),
            cache_entries: inner.cache.entries(),
            cache_bytes: inner.cache.bytes(),
            disk_entries: inner.cache.disk_entries(),
            disk_bytes: inner.cache.disk_bytes(),
            workers: self.cfg.workers,
            queue_capacity: self.cfg.queue_cap,
            poisoned_keys: inner.poisoned.len(),
            children: inner.children.len(),
            sandbox: self.cfg.sandbox.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::parse_request;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    /// An executor that counts invocations and echoes the request key.
    fn counting_executor(counter: Arc<AtomicU64>) -> Executor {
        Arc::new(move |req: &CanonRequest| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(format!(r#"{{"echo":"{}"}}"#, req.key_hex()))
        })
    }

    fn req(body: &str) -> CanonRequest {
        parse_request(body.as_bytes()).unwrap()
    }

    fn svc(cfg: Config, runs: Arc<AtomicU64>) -> Arc<Service> {
        Service::new(cfg, counting_executor(runs))
    }

    /// Admits `body` as a new job's leader.
    fn admit(svc: &Service, body: &str) -> Arc<Job> {
        match svc.submit(req(body)) {
            Submission::Pending { job, joined } => {
                assert!(!joined);
                job
            }
            _ => panic!("expected a leader"),
        }
    }

    /// Settles a submission as a connection handler does, answering
    /// with the outcome itself.
    fn settle(svc: &Service, job: &Arc<Job>, joined: bool) -> Result<Vec<u8>, JobError> {
        svc.settle(job, joined, |outcome| outcome)
    }

    /// Leads `job` on a thread of its own.
    fn lead_on_a_thread(
        svc: &Arc<Service>,
        job: &Arc<Job>,
    ) -> JoinHandle<Result<Vec<u8>, JobError>> {
        let (svc, job) = (Arc::clone(svc), Arc::clone(job));
        std::thread::spawn(move || settle(&svc, &job, false))
    }

    #[test]
    fn cold_then_hit_is_byte_identical_and_runs_once() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(Config::default(), Arc::clone(&runs));
        let job = admit(&svc, r#"{"kind":"bench","apps":["EP"]}"#);
        let cold = settle(&svc, &job, false).unwrap();
        let hit = match svc.submit(req(r#"{"apps":["EP"],"kind":"bench"}"#)) {
            Submission::Done { body, tier } => {
                assert_eq!(tier, CacheTier::Memory);
                body
            }
            _ => panic!("expected cache hit"),
        };
        assert_eq!(cold, hit, "cached bytes must equal cold bytes");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let st = svc.stats();
        assert_eq!(
            (st.counters.misses, st.counters.hits, st.counters.runs),
            (1, 1, 1)
        );
        svc.shutdown();
    }

    #[test]
    fn a_panic_under_the_state_lock_does_not_kill_the_service() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(Config::default(), Arc::clone(&runs));
        let run = |body: &str| settle(&svc, &admit(&svc, body), false).unwrap();
        let cold = run(r#"{"kind":"bench","apps":["EP"]}"#);

        let holder = Arc::clone(&svc);
        let panicked = std::thread::spawn(move || {
            let _inner = holder.inner.lock().unwrap();
            panic!("poison the service state");
        })
        .join();
        assert!(panicked.is_err() && svc.inner.is_poisoned());

        // The counters survived, a cached key is still a hit, a fresh key
        // still runs, and the drain in `shutdown` still works.
        let st = svc.stats();
        assert_eq!((st.counters.misses, st.counters.runs), (1, 1));
        match svc.submit(req(r#"{"kind":"bench","apps":["EP"]}"#)) {
            Submission::Done { body, .. } => assert_eq!(body, cold),
            _ => panic!("expected a cache hit"),
        }
        run(r#"{"kind":"bench","apps":["CG"]}"#);
        let st = svc.stats();
        assert_eq!(
            (st.counters.misses, st.counters.hits, st.counters.runs),
            (2, 1, 2)
        );
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        svc.shutdown();
    }

    #[test]
    fn identical_concurrent_submissions_single_flight() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(
            Config {
                allow_sleep: true,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        // A slow job: both submissions overlap its execution window.
        let first = admit(&svc, r#"{"kind":"sleep","ms":300}"#);
        let leader = lead_on_a_thread(&svc, &first);
        // Give the leader a moment to start it, then submit the twin.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = match svc.submit(req(r#"{"kind":"sleep","ms":300}"#)) {
            Submission::Pending { job, joined } => {
                assert!(joined, "identical in-flight request must join");
                job
            }
            _ => panic!("expected join"),
        };
        assert!(Arc::ptr_eq(&first, &second), "joined the same job object");
        let a = leader.join().unwrap().unwrap();
        let b = settle(&svc, &second, true).unwrap();
        assert_eq!(a, b);
        let st = svc.stats();
        assert_eq!(st.counters.joins, 1);
        assert_eq!(st.counters.misses, st.counters.runs);
        svc.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_capacity() {
        let runs = Arc::new(AtomicU64::new(0));
        // One slot, one queue place, slow jobs: the third distinct
        // submission must bounce.
        let svc = svc(
            Config {
                workers: 1,
                queue_cap: 1,
                allow_sleep: true,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        let j1 = lead_on_a_thread(&svc, &admit(&svc, r#"{"kind":"sleep","ms":400}"#));
        // Wait until job 1 holds the slot (queue empty again).
        while svc.stats().queue_depth > 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let j2 = lead_on_a_thread(&svc, &admit(&svc, r#"{"kind":"sleep","ms":401}"#));
        match svc.submit(req(r#"{"kind":"sleep","ms":402}"#)) {
            Submission::Rejected { queued, capacity } => {
                assert_eq!((queued, capacity), (1, 1));
            }
            _ => panic!("expected rejection"),
        }
        j1.join().unwrap().unwrap();
        j2.join().unwrap().unwrap();
        assert_eq!(svc.stats().counters.rejected, 1);
        svc.shutdown();
    }

    #[test]
    fn eviction_recomputes_byte_identically() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(
            Config {
                cache_entries: 1,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        let run = |body: &str| match svc.submit(req(body)) {
            Submission::Pending { job, .. } => settle(&svc, &job, false).unwrap(),
            Submission::Done { body, .. } => body,
            _ => panic!("rejected"),
        };
        let first = run(r#"{"kind":"bench","apps":["EP"]}"#);
        run(r#"{"kind":"bench","apps":["MatMul"]}"#); // evicts EP
        let again = run(r#"{"kind":"bench","apps":["EP"]}"#); // recompute
        assert_eq!(first, again, "recomputed result must be byte-identical");
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        let st = svc.stats();
        assert_eq!(st.counters.evictions, 2);
        assert_eq!(st.counters.hits, 0);
        svc.shutdown();
    }

    #[test]
    fn executor_failures_are_reported_not_cached() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let exec: Executor = Arc::new(move |_req| {
            calls2.fetch_add(1, Ordering::SeqCst);
            Err("workload exploded".to_string())
        });
        let svc = Service::new(Config::default(), exec);
        for _ in 0..2 {
            let job = admit(&svc, r#"{"kind":"bench","apps":["EP"]}"#);
            let err = settle(&svc, &job, false).unwrap_err();
            assert_eq!(err, JobError::Failed("workload exploded".to_string()));
            assert_eq!(err.code(), "job_failed");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(svc.stats().counters.failures, 2);
        svc.shutdown();
    }

    #[test]
    fn sleep_is_refused_unless_enabled() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(Config::default(), runs);
        let job = admit(&svc, r#"{"kind":"sleep","ms":1}"#);
        assert!(settle(&svc, &job, false)
            .unwrap_err()
            .to_string()
            .contains("disabled"));
        svc.shutdown();
    }

    #[test]
    fn in_process_sleep_reports_and_refuses_abort() {
        let runs = Arc::new(AtomicU64::new(0));
        let cfg = Config {
            allow_sleep: true,
            ..Config::default()
        };
        let svc = svc(cfg, Arc::clone(&runs));
        let run = |body: &str| settle(&svc, &admit(&svc, body), false);
        let report = run(r#"{"kind":"sleep","ms":1}"#).unwrap();
        assert_eq!(
            String::from_utf8(report).unwrap(),
            r#"{"schema":"ap1000plus.sleep","version":1,"slept_ms":1}"#
        );
        // An abort would take the server down: refused, not executed.
        let err = run(r#"{"kind":"sleep","ms":1,"crash":"abort"}"#).unwrap_err();
        assert_eq!(err.code(), "job_failed");
        assert!(err.to_string().contains("--sandbox"), "{err}");
        assert_eq!(
            runs.load(Ordering::SeqCst),
            0,
            "sleep never reaches the executor"
        );
        svc.shutdown();
    }

    #[test]
    fn panicking_executor_is_contained_retried_and_poisons_the_key() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let exec: Executor = Arc::new(move |_req| {
            calls2.fetch_add(1, Ordering::SeqCst);
            panic!("simulated simulator bug");
        });
        let svc = Service::new(Config::default(), exec);
        let job = admit(&svc, r#"{"kind":"bench","apps":["EP"]}"#);
        match settle(&svc, &job, false).unwrap_err() {
            JobError::Crashed {
                status,
                stderr_tail,
            } => {
                assert!(status.contains("panic"), "{status}");
                assert!(stderr_tail.contains("simulated simulator bug"));
            }
            other => panic!("expected Crashed, got {other:?}"),
        }
        // One retry happened: the executor ran twice for one submit.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let st = svc.stats();
        assert_eq!(st.counters.crashed, 2);
        assert_eq!(st.counters.job_retries, 1);
        assert_eq!(st.poisoned_keys, 1, "final crash poisons the key");
        svc.shutdown();
    }

    #[test]
    fn poisoned_key_is_rejected_without_running() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let exec: Executor = Arc::new(move |_req| {
            calls2.fetch_add(1, Ordering::SeqCst);
            panic!("always crashes");
        });
        let svc = Service::new(Config::default(), exec);
        let body = r#"{"kind":"bench","apps":["EP"]}"#;
        let job = admit(&svc, body);
        assert!(matches!(
            settle(&svc, &job, false).unwrap_err(),
            JobError::Crashed { .. }
        ));
        // Same key again: the breaker answers, the executor does not run.
        let before = calls.load(Ordering::SeqCst);
        match svc.submit(req(body)) {
            Submission::Refused(err) => {
                assert_eq!(err, JobError::Poisoned { crashes: 2 });
                assert_eq!(err.http_status(), 422);
            }
            _ => panic!("expected poisoned"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), before);
        let st = svc.stats();
        assert_eq!(st.counters.poison_rejects, 1);
        assert_eq!(st.poisoned_keys, 1);
        // A *different* key still runs (and also crashes — but it ran).
        let job = admit(&svc, r#"{"kind":"bench","apps":["CG"]}"#);
        let _ = settle(&svc, &job, false);
        assert!(calls.load(Ordering::SeqCst) > before);
        svc.shutdown();
    }

    /// An executor that logs each job's first app when it starts, then
    /// blocks until the test sends it a permit.
    fn gated_executor() -> (Executor, Arc<Mutex<Vec<String>>>, mpsc::Sender<()>) {
        let started = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&started);
        let (permits, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let exec: Executor = Arc::new(move |req: &CanonRequest| {
            let apps = req.field("apps").and_then(Json::as_arr).unwrap();
            lock(&log).push(apps[0].as_str().unwrap().to_string());
            lock(&gate).recv().map_err(|e| e.to_string())?;
            Ok(format!(r#"{{"echo":"{}"}}"#, req.key_hex()))
        });
        (exec, started, permits)
    }

    fn bench(app: &str) -> String {
        format!(r#"{{"kind":"bench","apps":["{app}"]}}"#)
    }

    /// Polls `done` until it holds, failing after ten seconds.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn two_slow_jobs_with_two_slots_both_start_before_either_ends() {
        let (exec, started, permits) = gated_executor();
        let svc = Service::new(Config::default(), exec);
        let (a, b) = (admit(&svc, &bench("EP")), admit(&svc, &bench("CG")));
        // The second leader arrives first and waits its turn; the first
        // takes a slot and must leave the other slot to it.
        let second = lead_on_a_thread(&svc, &b);
        std::thread::sleep(Duration::from_millis(50));
        let first = lead_on_a_thread(&svc, &a);
        eventually("both jobs start", || lock(&started).len() == 2);
        let st = svc.stats();
        assert_eq!((st.queue_depth, st.in_flight), (0, 2));
        assert_eq!(st.counters.runs, 0, "neither job has ended");
        for _ in 0..2 {
            permits.send(()).unwrap();
        }
        first.join().unwrap().unwrap();
        second.join().unwrap().unwrap();
        assert_eq!(svc.stats().counters.runs, 2);
        svc.shutdown();
    }

    #[test]
    fn a_job_beyond_the_slots_waits_in_the_queue_and_starts_in_admission_order() {
        let (exec, started, permits) = gated_executor();
        let svc = Service::new(Config::default(), exec);
        let running: Vec<_> = ["EP", "CG"]
            .map(|app| lead_on_a_thread(&svc, &admit(&svc, &bench(app))))
            .into();
        eventually("both slots are taken", || lock(&started).len() == 2);
        // Admitted FT before MatMul; MatMul's leader arrives first.
        let (ft, matmul) = (admit(&svc, &bench("FT")), admit(&svc, &bench("MatMul")));
        let late = lead_on_a_thread(&svc, &matmul);
        std::thread::sleep(Duration::from_millis(50));
        let early = lead_on_a_thread(&svc, &ft);
        std::thread::sleep(Duration::from_millis(50));
        let st = svc.stats();
        assert_eq!((st.queue_depth, st.in_flight), (2, 4));
        assert_eq!(lock(&started).len(), 2, "no third job runs on two slots");

        permits.send(()).unwrap();
        eventually("the first waiter starts", || lock(&started).len() == 3);
        assert_eq!(lock(&started)[2], "FT");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(lock(&started).len(), 3, "still two slots");
        assert_eq!(svc.stats().queue_depth, 1);

        for _ in 0..3 {
            permits.send(()).unwrap();
        }
        for leader in running.into_iter().chain([early, late]) {
            leader.join().unwrap().unwrap();
        }
        assert_eq!(lock(&started)[3], "MatMul");
        assert_eq!(svc.stats().counters.runs, 4);
        svc.shutdown();
    }

    #[test]
    fn shutdown_cancels_a_waiting_leader_and_returns_after_the_running_job() {
        let (exec, started, permits) = gated_executor();
        let svc = Service::new(
            Config {
                workers: 1,
                drain_ms: 20,
                ..Config::default()
            },
            exec,
        );
        // The running job's leader takes its time to answer.
        let answered = Arc::new(AtomicU64::new(0));
        let running = {
            let (svc, job, answered) = (
                Arc::clone(&svc),
                admit(&svc, &bench("EP")),
                Arc::clone(&answered),
            );
            std::thread::spawn(move || {
                svc.settle(&job, false, |outcome| {
                    std::thread::sleep(Duration::from_millis(50));
                    answered.store(1, Ordering::SeqCst);
                    outcome
                })
            })
        };
        eventually("the job starts", || lock(&started).len() == 1);
        let waiting = lead_on_a_thread(&svc, &admit(&svc, &bench("CG")));
        eventually("the second leader queues", || svc.stats().queue_depth == 1);

        let (stopped, stop) = mpsc::channel();
        let (stopper, seen) = (Arc::clone(&svc), Arc::clone(&answered));
        std::thread::spawn(move || {
            stopper.shutdown();
            stopped.send(seen.load(Ordering::SeqCst)).unwrap();
        });
        let err = waiting.join().unwrap().unwrap_err();
        assert_eq!(err, shutting_down());
        assert_eq!(err.http_status(), 503);
        // Long past `drain_ms`, the in-process job still runs, and
        // shutdown waits for it.
        assert!(stop.recv_timeout(Duration::from_millis(200)).is_err());
        permits.send(()).unwrap();
        let seen = stop
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns once the running job has ended");
        assert_eq!(seen, 1, "and its leader has answered");
        running.join().unwrap().unwrap();
        let st = svc.stats();
        assert_eq!((st.in_flight, st.queue_depth), (0, 0));
        assert_eq!((st.counters.runs, st.counters.failures), (1, 1));
        assert_eq!(lock(&started).len(), 1, "the canceled job never ran");
    }

    #[test]
    fn a_submit_after_shutdown_is_canceled_not_queue_full() {
        let runs = Arc::new(AtomicU64::new(0));
        let svc = svc(Config::default(), Arc::clone(&runs));
        svc.shutdown();
        match svc.submit(req(&bench("EP"))) {
            Submission::Refused(err) => {
                assert_eq!(err, JobError::Canceled("server shutting down".to_string()));
                assert_eq!((err.code(), err.http_status()), ("job_canceled", 503));
            }
            _ => panic!("expected job_canceled"),
        }
        let st = svc.stats();
        assert_eq!((st.counters.rejected, st.counters.misses), (0, 0));
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn error_documents_are_structured() {
        let crashed = JobError::Crashed {
            status: "killed by signal 9".to_string(),
            stderr_tail: "oom".to_string(),
        };
        assert_eq!(crashed.http_status(), 500);
        let j = crashed.to_json();
        assert_eq!(j.get("error").and_then(Json::as_str), Some("job_crashed"));
        assert_eq!(
            j.get("exit_status").and_then(Json::as_str),
            Some("killed by signal 9")
        );
        assert_eq!(j.get("stderr_tail").and_then(Json::as_str), Some("oom"));

        let timeout = JobError::Timeout { deadline_ms: 250 };
        assert_eq!(timeout.http_status(), 504);
        assert_eq!(
            timeout.to_json().get("deadline_ms").and_then(Json::as_u64),
            Some(250)
        );

        let poisoned = JobError::Poisoned { crashes: 2 };
        assert_eq!(poisoned.http_status(), 422);
        assert_eq!(
            poisoned.to_json().get("crashes").and_then(Json::as_u64),
            Some(2)
        );
    }
}
