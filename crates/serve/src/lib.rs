//! Sweep-as-a-service: a long-running job server over the deterministic
//! sweep engine.
//!
//! The `serve` binary (and the [`start`] library entry point behind it)
//! accepts `.vps` scenarios over a std-only TCP socket using the
//! newline-delimited protocol in [`vpsim_bench::protocol`], prepares them
//! with [`vpsim_bench::sweep::SweepSpec::prepare_shard`], and streams
//! per-cell results back as they complete — in strict job-index order —
//! followed by the final merged table, byte-identical to what a local
//! `sweep` run prints.
//!
//! Persistence comes from [`vpsim_bench::store::Stores`]: with a store
//! directory configured, captured traces survive restarts (and are
//! replayed zero-copy via `mmap` on store hits), and finished grid cells
//! are never simulated twice — a resubmitted scenario is served entirely
//! from the result cache with zero simulations, still byte-identical.
//!
//! Architecture (all `std`, no dependencies):
//!
//! * an accept loop on a non-blocking listener, polling a shutdown flag;
//! * one handler thread per connection, parsing requests and replying
//!   `ERR <msg>` to malformed input without dropping the connection;
//! * one shared [`vpsim_bench::pool::Pool`]: every admitted job submits
//!   its unsimulated cells as one pool job, and workers take cells
//!   **round-robin across jobs**, so concurrent submissions interleave
//!   instead of serializing — a small grid behind a large one starts
//!   streaming immediately. The handler waits for its cells in job-index
//!   order, keeping per-connection output deterministic;
//! * admission control: at most `queue_cap` jobs in flight; excess
//!   submissions get `ERR server busy … RETRY-AFTER <ms>`, which the
//!   `sweep --remote` client honours with jittered exponential backoff;
//! * shard support: `SUBMIT … shard <i>/<n>` runs only cells with
//!   `index % n == i` and answers with raw `RESULT` frames, so several
//!   server processes sharing one `--store` directory can split a grid
//!   and the `sweep --workers` client can merge it byte-identically;
//! * abandoned-job reclamation: when a client disconnects mid-stream the
//!   handler logs the peer and job id and cancels the pool job, dropping
//!   its pending cells instead of simulating them for a dead socket
//!   ([`ServeMetrics`] counts it);
//! * graceful shutdown via the `SHUTDOWN` command, a signal (the binary
//!   bridges SIGINT/SIGTERM to [`ServerHandle::shutdown`]), or stdin EOF.
//!
//! See "Service layer" in `ARCHITECTURE.md` at the repository root.

mod server;

pub use server::{start, ServeMetrics, ServerConfig, ServerHandle};
