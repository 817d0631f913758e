//! The resident analysis server.
//!
//! SPLLIFT's pitch is "minutes instead of years" for one-shot analysis;
//! this crate drops the per-invocation cost too — and serves many
//! clients at once. Following the wasmtime `Engine`/`Store` split, the
//! server is built from:
//!
//! * an [`Engine`] — the shared immutable half: interned fingerprinted
//!   programs + feature models ([`LoadedSpl`]), the cross-session LRU
//!   **solution cache** keyed by `(program fingerprint, analysis, model
//!   mode)` (repeated `analyze` requests are answered with *zero*
//!   solver propagations, from any session on any connection), and the
//!   governance counters — all behind `Arc` + fine-grained locking;
//! * per-session [`Store`](store::Store)s — the cheap mutable half: a
//!   session-private BDD manager (thread-confined, per DESIGN.md §6),
//!   the [`spllift_core::SolverMemo`] for **incremental re-analysis**
//!   (an `edit` dirties only the edited method and its transitive
//!   callers), and per-request governance budgets;
//! * a session-sharded [`Executor`] — session names hash to shards, one
//!   worker thread per shard, so concurrent sessions analyze in
//!   parallel while each session's stream stays deterministic, with
//!   **admission control** (per-shard in-flight bound) riding the
//!   budget/quarantine machinery;
//! * two transports: classic stdin/stdout (`spllift-cli serve`) and a
//!   TCP socket ([`SocketServer`], `spllift-cli serve --listen`) with
//!   graceful drain on `shutdown`.
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out (blank lines are
//! skipped). Responses are canonical compact JSON
//! ([`spllift_json::Json::render`]) and contain no wall-clock timings,
//! so transcripts diff byte-exactly.
//! A malformed or failing request yields `{"type":"error",...}` and the
//! server keeps serving. Requests:
//!
//! | `type`     | fields |
//! |------------|--------|
//! | `load`     | `session`, one of `source`/`path`/`gen`, optional `model` |
//! | `analyze`  | `session`, optional `analysis` (default `taint`), `mode` |
//! | `query`    | `session`, `analysis`, `mode`, `queries: [...]` |
//! | `edit`     | `session`, `method`, optional `locals`, `stmts: [...]` |
//! | `stats`    | — |
//! | `evict`    | — |
//! | `shutdown` | — |
//!
//! The complete wire contract — every request/response shape, error
//! codes, quarantine semantics, budget overrides, versioning rules —
//! is specified in `docs/PROTOCOL.md` at the repository root.
//!
//! Queries address statements as `<method>:<index>` where `<method>` is
//! a method name (optionally `Class.name`-qualified) or a raw `m<N>`
//! id, and facts by their `Debug` rendering (e.g. `Local(LocalId(1))`).
//! A fact absent from the solution is not an error: its constraint is
//! `false` (the paper's ⊥), and `holds_in` answers `false`.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod exec;
mod handler;
pub mod store;
pub mod transport;

pub use engine::{Engine, LoadedSpl};
pub use exec::{Executor, Submitted};
pub use transport::SocketServer;

use spllift_spl::{default_jobs, FaultPlan};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Every request `type` the router accepts, in the order the protocol
/// documentation lists them. The unknown-type error message and the
/// `docs/PROTOCOL.md` conformance test both derive from this list.
pub const REQUEST_TYPES: [&str; 7] = [
    "load", "analyze", "query", "edit", "stats", "evict", "shutdown",
];

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads for batched queries (`--jobs`).
    pub jobs: usize,
    /// Executor shards — concurrently analyzing session groups
    /// (`--shards`). Sessions hash to shards; shard count never changes
    /// response bytes, only parallelism.
    pub shards: usize,
    /// Per-shard in-flight request bound (`--max-inflight`): beyond it,
    /// `submit` answers an `overloaded` error instead of queueing.
    pub max_inflight: usize,
    /// Solution-cache entry budget (`--cache-entries`).
    pub cache_entries: usize,
    /// Solution-cache byte budget (`--cache-bytes`).
    pub cache_bytes: usize,
    /// Default per-rung wall-clock allowance for every solve
    /// (`--solve-timeout-ms`); per-request `timeout_ms` overrides it.
    pub solve_timeout_ms: Option<u64>,
    /// Default per-rung BDD node budget (`--bdd-node-budget`).
    pub bdd_node_budget: Option<u64>,
    /// Default per-rung BDD operation budget (`--bdd-op-budget`).
    pub bdd_op_budget: Option<u64>,
    /// Default per-rung phase-1 propagation cap (`--max-propagations`).
    pub max_propagations: Option<u64>,
    /// Deterministic fault injection (`--inject-fault kind@n`): sabotage
    /// the `n`-th `analyze` request's solve. Testing harness only.
    pub inject_fault: Option<FaultPlan>,
    /// Scope the fault trigger to one session's own `analyze` ordinal
    /// (`--inject-fault-session`): under concurrency the *global*
    /// ordinal depends on request interleaving, but the victim
    /// session's own counter does not. Testing harness only.
    pub fault_session: Option<String>,
    /// Features every degraded solve must keep precise
    /// (`--keep-features A,B`): when budgets trip, the governor
    /// schedules feature-sparing abstractions (confound OR groups,
    /// project away everything else) before the canonical ladder. A
    /// request's `keep_features` field overrides it; names not in a
    /// session's feature universe are ignored (the per-request field,
    /// by contrast, rejects unknown names).
    pub keep_features: Option<Vec<String>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            jobs: default_jobs(),
            shards: default_jobs(),
            max_inflight: 256,
            cache_entries: 64,
            cache_bytes: 16 << 20,
            solve_timeout_ms: None,
            bdd_node_budget: None,
            bdd_op_budget: None,
            max_propagations: None,
            inject_fault: None,
            fault_session: None,
            keep_features: None,
        }
    }
}

/// The classic single-client facade over the sharded executor: one
/// request in, one response out, strictly in order. `spllift-cli serve`
/// without `--listen` runs this over stdin/stdout; tests drive
/// [`Server::handle_line`] directly. Responses are byte-identical to
/// the socket transport's per-session streams.
pub struct Server {
    exec: Executor,
}

impl Server {
    /// Creates an empty server (spawns the executor's shard workers).
    pub fn new(opts: ServerOptions) -> Self {
        Server {
            exec: Executor::new(Arc::new(Engine::new(opts))),
        }
    }

    /// Handles one request line; returns the rendered response and
    /// whether the server should shut down afterwards.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        match self.exec.submit(line) {
            Submitted::Ready(resp) => (resp, false),
            Submitted::Pending(rx) => (rx.recv().unwrap_or_else(|_| exec::internal_error()), false),
            Submitted::Shutdown(resp) => (resp, true),
        }
    }

    /// Serves line-delimited requests from `input` until EOF or a
    /// `shutdown` request, flushing one response line each.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors on the two streams; protocol-level failures
    /// become `{"type":"error",...}` responses instead.
    pub fn run(&mut self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (resp, shutdown) = self.handle_line(&line);
            writeln!(output, "{resp}")?;
            output.flush()?;
            if shutdown {
                break;
            }
        }
        Ok(())
    }
}
