//! # apserve — simulation-as-a-service for the AP1000+ reproduction
//!
//! A long-running job server that turns the workspace's deterministic
//! simulators into a shared service: clients `POST /submit` small JSON
//! job documents (bench grids, fault campaigns, trace remodels) and get
//! back the same versioned report documents the CLI tools write — except
//! that identical requests are answered from a **content-addressed
//! result cache** instead of being re-simulated.
//!
//! The design leans entirely on a property the rest of the workspace
//! already pays for: reports are byte-reproducible (deterministic
//! simulation, `host_ms`-stripped, stable serialization). That makes
//! caching trivially correct — the cache key is an FNV-1a hash of the
//! *canonicalized* request (defaults filled, keys sorted, values
//! re-typed), and `same key ⇒ same report bytes`.
//!
//! Layering (each layer testable without the one above):
//!
//! - [`http`]: minimal HTTP/1.1 over `std::net` with hard input limits;
//! - [`request`]: strict validation + canonicalization + hashing;
//! - [`cache`]: in-memory LRU + optional persistent disk tier;
//! - [`service`]: bounded execution slots, single-flight deduplication,
//!   explicit backpressure (full queue ⇒ structured 429, never
//!   unbounded memory), crash retry, and the crash-loop breaker;
//! - [`worker`]: the process-isolation supervisor — per-job child
//!   processes, wall-clock deadlines, rlimit ceilings, and the
//!   stdin/stdout result-envelope protocol for `repro job-exec`;
//! - [`server`]: accept loop and routing (`/healthz`, `/stats`,
//!   `/submit`, `/shutdown`); the connection handler that leads a job
//!   runs it, and every answer is one `Content-Length` response whose
//!   status says whether the job failed;
//! - [`client`]: the blocking client used by `repro submit` and CI.
//!
//! The crate is simulator-agnostic: the binary that owns the workloads
//! (`apbench`'s `repro serve`) injects an [`Executor`] closure, keeping
//! the dependency graph acyclic.

pub mod cache;
pub mod client;
pub mod http;
mod poison;
pub mod request;
pub mod server;
pub mod service;
pub mod worker;

pub use cache::{CacheTier, ResultCache};
pub use client::HttpResponse;
pub use http::{HttpError, HttpRequest, Response, MAX_BODY_BYTES};
pub use request::{parse_request, CanonRequest, Kind, RequestError};
pub use server::{serve, ServerHandle};
pub use service::{run_sleep, Config, Executor, JobError, Service, Stats, Submission};
pub use worker::{result_envelope, SandboxConfig};
