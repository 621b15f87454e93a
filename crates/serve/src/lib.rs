//! Plan-cached batch serving of second-order MRM moment queries.
//!
//! The solver's plan/execute split ([`somrm_core::SolvePlan`]) makes a
//! solve's setup — uniformization constants, shifted iteration matrix,
//! worker pool — reusable across requests. This crate turns that into a
//! serving layer:
//!
//! - [`cache`] — an LRU [`PlanCache`] keyed by
//!   `(π-free plan digest, max order)` with hit/miss/evict counters
//!   published through `somrm-obs`: tenants differing only in their
//!   initial distribution, and requests at any horizon, share a plan;
//! - [`proto`] — the JSON-lines request/response protocol;
//! - [`server`] — the batch loop: each distinct model spec of a batch
//!   is resolved once, and requests that arrive together and share a
//!   generator and rewards are coalesced into ONE fused multi-order
//!   sweep over their merged time grid that projects every distinct
//!   initial distribution of the group;
//! - [`telemetry`] — request-scoped observability riding on top:
//!   id-tagged lifecycle spans surviving coalescing, the sideband admin
//!   protocol (`{"cmd":"stats"}` / `reset` / `health`), and
//!   slow-request Chrome-trace capture. All read-only — responses are
//!   bitwise identical with telemetry on or off.
//!
//! The CLI front end is `somrm-tool serve`; this crate stays I/O-shaped
//! (any `Read`/`Write`) so tests drive it with in-memory buffers.

pub mod cache;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use cache::{qt_bucket, CacheStats, PlanCache, PlanKey, QT_ZERO_BUCKET};
pub use proto::{parse_request, render_err, render_ok, ModelSpec, Request, MAX_ORDER};
pub use server::{
    serve, serve_batch, serve_batch_traced, BatchOutcome, ModelResolver, ServeOptions,
    ServeSummary,
};
pub use telemetry::{
    parse_command, Command, CommandKind, SlowTraceOptions, TraceTee, TracedLine,
};
