//! The job engine: bounded worker pool, single-flight deduplication,
//! crash containment, and the cache/backpressure decision — everything
//! below the HTTP layer, so all of it is testable without a socket.
//!
//! One lock ([`Service::inner`]) guards the cache, the in-flight table,
//! the queue, the child-process registry, and the poison set, so the
//! submit decision — *poisoned? hit? join? enqueue? reject?* — is
//! atomic. The invariants the integration suite pins:
//!
//! - **Single-flight**: at most one execution per content address is
//!   ever in flight; concurrent identical submissions join it
//!   (`runs == misses` for successful jobs, always).
//! - **Bounded**: the queue never exceeds `queue_cap`; beyond that,
//!   submissions are rejected *immediately* with a structured error —
//!   the server's memory is bounded by `queue_cap`, not by clients.
//! - **Byte-stable**: a cached result is returned verbatim, so cold and
//!   cached responses are identical bytes — and so are sandboxed and
//!   in-process responses, because the worker envelope transports the
//!   executor's output through one exact JSON round trip.
//! - **Contained**: with a sandbox configured, a job that panics,
//!   aborts, OOMs, or overruns its deadline kills *its own process*;
//!   the server answers with a structured error and keeps serving.
//!   A crashed (not cleanly-failed) job is retried once with backoff;
//!   if it crashes again its key is poisoned — subsequent submissions
//!   get a structured 422 instead of another turn on the pool.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
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
    /// Worker threads executing (or supervising) jobs.
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
    /// The worker process (or, in-process, the worker thread's
    /// `catch_unwind`) died without a result. `500 job_crashed`.
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

/// One admitted job, shared by its executing worker and every waiter
/// that joined it.
pub struct Job {
    pub request: CanonRequest,
    /// `Some` once finished: the report bytes or a structured failure.
    outcome: Mutex<Option<Result<Vec<u8>, JobError>>>,
    done_cv: Condvar,
}

impl Job {
    fn new(request: CanonRequest) -> Arc<Job> {
        Arc::new(Job {
            request,
            outcome: Mutex::new(None),
            done_cv: Condvar::new(),
        })
    }

    fn complete(&self, outcome: Result<Vec<u8>, JobError>) {
        *lock(&self.outcome) = Some(outcome);
        self.done_cv.notify_all();
    }

    /// Blocks until the job finishes; returns report bytes or failure.
    pub fn wait(&self) -> Result<Vec<u8>, JobError> {
        let mut st = lock(&self.outcome);
        loop {
            if let Some(outcome) = &*st {
                return outcome.clone();
            }
            st = wait_on(&self.done_cv, st);
        }
    }
}

/// What `submit` decided, atomically, under one lock.
pub enum Submission {
    /// Served from cache: the exact bytes a cold run would produce.
    Done { body: Vec<u8>, tier: CacheTier },
    /// Admitted (or joined onto an identical in-flight job).
    Pending { job: Arc<Job>, joined: bool },
    /// Queue full — structured backpressure, client should retry later.
    Rejected { queued: usize, capacity: usize },
    /// The key crash-looped and is poisoned — structured 422, no run.
    Poisoned { crashes: u32 },
}

struct Inner {
    cache: ResultCache,
    /// Content address -> the one job currently computing it.
    inflight: HashMap<u64, Arc<Job>>,
    queue: VecDeque<Arc<Job>>,
    /// Content address -> the live child computing it (sandbox mode);
    /// this is what the shutdown drain kills.
    children: HashMap<u64, Arc<ChildSlot>>,
    /// Crash-loop breaker: key -> total crashed executions. Bounded by
    /// [`POISON_CAP`] (oldest key forgotten first).
    poisoned: HashMap<u64, u32>,
    poison_order: VecDeque<u64>,
    counters: CacheCounters,
    shutdown: bool,
    /// Workers free to take a job, most recently idle last: `submit`
    /// wakes the top one, so under serial load one warm worker (its
    /// stack, caches and allocator arena) runs every job.
    idle: Vec<usize>,
}

/// The engine. Construct with [`Service::new`], then attach workers via
/// [`Service::spawn_workers`].
pub struct Service {
    pub cfg: Config,
    inner: Mutex<Inner>,
    /// One condvar per worker, so `submit` wakes exactly the worker it
    /// took off [`Inner::idle`].
    work_cvs: Vec<Condvar>,
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

/// Executes a `kind:"sleep"` test job — the one implementation behind
/// both the in-process worker and `repro job-exec`, so their reports are
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
        let work_cvs = (0..cfg.workers.max(1)).map(|_| Condvar::new()).collect();
        Arc::new(Service {
            cfg,
            inner: Mutex::new(Inner {
                cache,
                inflight: HashMap::new(),
                queue: VecDeque::new(),
                children: HashMap::new(),
                poisoned: HashMap::new(),
                poison_order: VecDeque::new(),
                counters: CacheCounters::new(),
                shutdown: false,
                idle: Vec::new(),
            }),
            work_cvs,
            executor,
            drain_lock: Mutex::new(false),
        })
    }

    /// Starts the worker pool; returns the join handles.
    pub fn spawn_workers(self: &Arc<Service>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.work_cvs.len())
            .map(|i| {
                let svc = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("apserve-worker-{i}"))
                    .spawn(move || svc.worker_loop(i))
                    .expect("spawn worker")
            })
            .collect()
    }

    /// The atomic admit decision: poisoned, cache hit, join, enqueue,
    /// or reject.
    pub fn submit(&self, request: CanonRequest) -> Submission {
        let key = request.key;
        let mut inner = lock(&self.inner);
        if inner.shutdown {
            return Submission::Rejected {
                queued: inner.queue.len(),
                capacity: 0,
            };
        }
        // The breaker outranks the cache: a poisoned key has never been
        // cached as success (only Ok results are stored), and answering
        // 422 here keeps repeat crashers off the pool entirely.
        if let Some(&crashes) = inner.poisoned.get(&key) {
            inner.counters.poison_rejects += 1;
            return Submission::Poisoned { crashes };
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
        let job = Job::new(request);
        inner.inflight.insert(key, Arc::clone(&job));
        inner.queue.push_back(Arc::clone(&job));
        let wake = inner.idle.pop();
        drop(inner);
        if let Some(worker) = wake {
            self.work_cvs[worker].notify_one();
        }
        Submission::Pending { job, joined: false }
    }

    /// Worker `me`: takes jobs off the queue until shutdown. It is on
    /// [`Inner::idle`] whenever it waits, and leaves it when it takes a
    /// job; a wake that finds the queue already emptied by another worker
    /// puts it back before it waits again.
    fn worker_loop(&self, me: usize) {
        let mut inner = lock(&self.inner);
        loop {
            let Some(job) = inner.queue.pop_front() else {
                if inner.shutdown {
                    return;
                }
                if !inner.idle.contains(&me) {
                    inner.idle.push(me);
                }
                inner = wait_on(&self.work_cvs[me], inner);
                continue;
            };
            inner.idle.retain(|&w| w != me);
            drop(inner);
            let result = self.run_with_retry(&job);
            inner = lock(&self.inner);
            let key = job.request.key;
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
            inner.inflight.remove(&key);
            // Idle again before the waiter learns the result, so the
            // client's next job finds this worker on top of the stack.
            inner.idle.push(me);
            drop(inner);
            job.complete(result);
            inner = lock(&self.inner);
        }
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
                status: "panic in worker thread".to_string(),
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

    /// Graceful drain: refuse new work, fail everything still queued,
    /// give running jobs `drain_ms` to finish, then kill the remaining
    /// worker processes and wait (bounded) for their reaping — so a
    /// stopped server leaves no orphan processes behind.
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
        let drained: Vec<Arc<Job>> = {
            let mut inner = lock(&self.inner);
            inner.queue.drain(..).collect()
        };
        for job in &drained {
            let mut inner = lock(&self.inner);
            inner.inflight.remove(&job.request.key);
            inner.counters.failures += 1;
            drop(inner);
            job.complete(Err(JobError::Canceled("server shutting down".to_string())));
        }
        for cv in &self.work_cvs {
            cv.notify_one();
        }

        // Phase 1: let in-flight jobs finish on their own.
        let drain_deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        while Instant::now() < drain_deadline {
            if lock(&self.inner).inflight.is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Phase 2: kill whatever is still running in a child process.
        let slots: Vec<Arc<ChildSlot>> = {
            let mut inner = lock(&self.inner);
            let slots: Vec<_> = inner.children.values().map(Arc::clone).collect();
            inner.counters.kills += slots.len() as u64;
            slots
        };
        for slot in &slots {
            slot.kill(KillReason::Drain);
        }
        if slots.is_empty() {
            // In-process stragglers can't be killed; the worker join in
            // the server's stop path bounds what happens next.
            return;
        }
        // Phase 3: bounded wait for the supervisors to reap the kills.
        let reap_deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < reap_deadline {
            let inner = lock(&self.inner);
            if inner.inflight.is_empty() {
                return;
            }
            // Close the register-after-sweep race: kill any child that
            // appeared since phase 2 (idempotent on dead children).
            for slot in inner.children.values() {
                slot.kill(KillReason::Drain);
            }
            drop(inner);
            std::thread::sleep(Duration::from_millis(10));
        }
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

    fn svc(cfg: Config, runs: Arc<AtomicU64>) -> (Arc<Service>, Vec<std::thread::JoinHandle<()>>) {
        let svc = Service::new(cfg, counting_executor(runs));
        let workers = svc.spawn_workers();
        (svc, workers)
    }

    fn finish(svc: Arc<Service>, workers: Vec<std::thread::JoinHandle<()>>) {
        svc.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn cold_then_hit_is_byte_identical_and_runs_once() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(Config::default(), Arc::clone(&runs));
        let cold = match svc.submit(req(r#"{"kind":"bench","apps":["EP"]}"#)) {
            Submission::Pending { job, joined } => {
                assert!(!joined);
                job.wait().unwrap()
            }
            _ => panic!("expected pending"),
        };
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
        finish(svc, workers);
    }

    #[test]
    fn a_panic_under_the_state_lock_does_not_kill_the_service() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(Config::default(), Arc::clone(&runs));
        let run = |body: &str| match svc.submit(req(body)) {
            Submission::Pending { job, joined } => {
                assert!(!joined);
                job.wait().unwrap()
            }
            _ => panic!("expected pending"),
        };
        let cold = run(r#"{"kind":"bench","apps":["EP"]}"#);

        let holder = Arc::clone(&svc);
        let panicked = std::thread::spawn(move || {
            let _inner = holder.inner.lock().unwrap();
            panic!("poison the service state");
        })
        .join();
        assert!(panicked.is_err() && svc.inner.is_poisoned());

        // The counters survived, a cached key is still a hit, a fresh key
        // still reaches a worker, and the drain in `finish` still works.
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
        finish(svc, workers);
    }

    #[test]
    fn identical_concurrent_submissions_single_flight() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(
            Config {
                allow_sleep: true,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        // A slow job: both submissions overlap its execution window.
        let first = match svc.submit(req(r#"{"kind":"sleep","ms":300}"#)) {
            Submission::Pending { job, joined } => {
                assert!(!joined);
                job
            }
            _ => panic!("expected pending"),
        };
        // Give the worker a moment to dequeue it, then submit the twin.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = match svc.submit(req(r#"{"kind":"sleep","ms":300}"#)) {
            Submission::Pending { job, joined } => {
                assert!(joined, "identical in-flight request must join");
                job
            }
            _ => panic!("expected join"),
        };
        assert!(Arc::ptr_eq(&first, &second), "joined the same job object");
        let a = first.wait().unwrap();
        let b = second.wait().unwrap();
        assert_eq!(a, b);
        let st = svc.stats();
        assert_eq!(st.counters.joins, 1);
        assert_eq!(st.counters.misses, st.counters.runs);
        finish(svc, workers);
    }

    #[test]
    fn full_queue_rejects_with_capacity() {
        let runs = Arc::new(AtomicU64::new(0));
        // One worker, one queue slot, slow jobs: the third distinct
        // submission must bounce.
        let (svc, workers) = svc(
            Config {
                workers: 1,
                queue_cap: 1,
                allow_sleep: true,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        let j1 = match svc.submit(req(r#"{"kind":"sleep","ms":400}"#)) {
            Submission::Pending { job, .. } => job,
            _ => panic!("expected pending"),
        };
        // Wait until the worker has picked up job 1 (queue empty again).
        while svc.stats().queue_depth > 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let j2 = match svc.submit(req(r#"{"kind":"sleep","ms":401}"#)) {
            Submission::Pending { job, .. } => job,
            _ => panic!("expected pending"),
        };
        match svc.submit(req(r#"{"kind":"sleep","ms":402}"#)) {
            Submission::Rejected { queued, capacity } => {
                assert_eq!((queued, capacity), (1, 1));
            }
            _ => panic!("expected rejection"),
        }
        j1.wait().unwrap();
        j2.wait().unwrap();
        assert_eq!(svc.stats().counters.rejected, 1);
        finish(svc, workers);
    }

    #[test]
    fn eviction_recomputes_byte_identically() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(
            Config {
                cache_entries: 1,
                ..Config::default()
            },
            Arc::clone(&runs),
        );
        let run = |body: &str| match svc.submit(req(body)) {
            Submission::Pending { job, .. } => job.wait().unwrap(),
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
        finish(svc, workers);
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
        let workers = svc.spawn_workers();
        for _ in 0..2 {
            match svc.submit(req(r#"{"kind":"bench","apps":["EP"]}"#)) {
                Submission::Pending { job, .. } => {
                    let err = job.wait().unwrap_err();
                    assert_eq!(err, JobError::Failed("workload exploded".to_string()));
                    assert_eq!(err.code(), "job_failed");
                }
                _ => panic!("failures must not be cached"),
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(svc.stats().counters.failures, 2);
        finish(svc, workers);
    }

    #[test]
    fn sleep_is_refused_unless_enabled() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(Config::default(), runs);
        match svc.submit(req(r#"{"kind":"sleep","ms":1}"#)) {
            Submission::Pending { job, .. } => {
                assert!(job.wait().unwrap_err().to_string().contains("disabled"));
            }
            _ => panic!("expected pending"),
        }
        finish(svc, workers);
    }

    #[test]
    fn in_process_sleep_reports_and_refuses_abort() {
        let runs = Arc::new(AtomicU64::new(0));
        let cfg = Config {
            allow_sleep: true,
            ..Config::default()
        };
        let (svc, workers) = svc(cfg, Arc::clone(&runs));
        let run = |body: &str| match svc.submit(req(body)) {
            Submission::Pending { job, .. } => job.wait(),
            _ => panic!("expected pending"),
        };
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
        finish(svc, workers);
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
        let workers = svc.spawn_workers();
        let body = r#"{"kind":"bench","apps":["EP"]}"#;
        match svc.submit(req(body)) {
            Submission::Pending { job, .. } => match job.wait().unwrap_err() {
                JobError::Crashed {
                    status,
                    stderr_tail,
                } => {
                    assert!(status.contains("panic"), "{status}");
                    assert!(stderr_tail.contains("simulated simulator bug"));
                }
                other => panic!("expected Crashed, got {other:?}"),
            },
            _ => panic!("expected pending"),
        }
        // One retry happened: the executor ran twice for one submit.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let st = svc.stats();
        assert_eq!(st.counters.crashed, 2);
        assert_eq!(st.counters.job_retries, 1);
        assert_eq!(st.poisoned_keys, 1, "final crash poisons the key");
        finish(svc, workers);
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
        let workers = svc.spawn_workers();
        let body = r#"{"kind":"bench","apps":["EP"]}"#;
        match svc.submit(req(body)) {
            Submission::Pending { job, .. } => {
                assert!(matches!(job.wait().unwrap_err(), JobError::Crashed { .. }));
            }
            _ => panic!("expected pending"),
        }
        // Same key again: the breaker answers, the executor does not run.
        let before = calls.load(Ordering::SeqCst);
        match svc.submit(req(body)) {
            Submission::Poisoned { crashes } => assert_eq!(crashes, 2),
            _ => panic!("expected poisoned"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), before);
        let st = svc.stats();
        assert_eq!(st.counters.poison_rejects, 1);
        assert_eq!(st.poisoned_keys, 1);
        // A *different* key still runs (and also crashes — but it ran).
        match svc.submit(req(r#"{"kind":"bench","apps":["CG"]}"#)) {
            Submission::Pending { job, .. } => {
                let _ = job.wait();
            }
            _ => panic!("expected pending"),
        }
        assert!(calls.load(Ordering::SeqCst) > before);
        finish(svc, workers);
    }

    /// Blocks until `n` workers are parked on their own condvars. Before
    /// any job has run, a worker on the stack is a waiting one: it pushes
    /// itself and waits under one hold of the lock.
    fn wait_idle(svc: &Service, n: usize) {
        while lock(&svc.inner).idle.len() < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn serial_jobs_run_on_the_most_recently_idle_worker() {
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran_on);
        let exec: Executor = Arc::new(move |req: &CanonRequest| {
            lock(&log).push(std::thread::current().id());
            Ok(format!(r#"{{"echo":"{}"}}"#, req.key_hex()))
        });
        let svc = Service::new(Config::default(), exec);
        let workers = svc.spawn_workers();
        wait_idle(&svc, 2);
        for size in 0..8 {
            match svc.submit(req(&format!(
                r#"{{"kind":"bench","apps":["EP"],"sizes":[{}]}}"#,
                16 << size
            ))) {
                Submission::Pending { job, joined } => {
                    assert!(!joined);
                    job.wait().unwrap();
                }
                _ => panic!("expected pending"),
            }
        }
        let ran_on = lock(&ran_on).clone();
        assert_eq!(ran_on.len(), 8);
        assert!(ran_on.iter().all(|&id| id == ran_on[0]), "{ran_on:?}");
        // The other worker never left its condvar.
        assert_eq!(lock(&svc.inner).idle.len(), 2);
        finish(svc, workers);
    }

    #[test]
    fn concurrent_jobs_start_on_both_workers() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(
            Config {
                allow_sleep: true,
                ..Config::default()
            },
            runs,
        );
        wait_idle(&svc, 2);
        let start = Instant::now();
        let jobs: Vec<Arc<Job>> = [1500, 1501]
            .map(
                |ms| match svc.submit(req(&format!(r#"{{"kind":"sleep","ms":{ms}}}"#))) {
                    Submission::Pending { job, .. } => job,
                    _ => panic!("expected pending"),
                },
            )
            .into();
        // Both jobs leave the queue and no worker is idle long before
        // either sleep ends: the second job did not wait for the first.
        loop {
            let inner = lock(&svc.inner);
            if inner.queue.is_empty() && inner.idle.is_empty() {
                break;
            }
            drop(inner);
            assert!(
                start.elapsed() < Duration::from_millis(1200),
                "a job waited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for job in jobs {
            job.wait().unwrap();
        }
        assert_eq!(svc.stats().counters.runs, 2);
        finish(svc, workers);
    }

    #[test]
    fn shutdown_wakes_workers_parked_on_their_own_condvars() {
        let runs = Arc::new(AtomicU64::new(0));
        let (svc, workers) = svc(Config::default(), runs);
        wait_idle(&svc, 2);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            finish(svc, workers);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("shutdown drains and joins both parked workers");
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
