//! The SpecInfer serving runtime: request manager and continuous
//! batching (§5 of the paper), with two front-ends over one loop.
//!
//! * [`IterationScheduler`] — Orca-style iteration-level scheduling:
//!   requests join and leave the running batch between *decoding
//!   iterations*, never blocking behind long generations.
//! * The iteration driver (`driver.rs`, private) — the request-manager
//!   loop of Figure 6, written once: each tick admits arrivals, verifies
//!   the whole live batch of speculative-decoding
//!   [`specinfer_spec::Session`]s in one batched LLM pass (real models,
//!   real token trees), charges a simulated clock what the paper-scale
//!   models would cost on the configured cluster ([`TimingConfig`]), and
//!   retires what finished.
//! * [`Server`] — trace replay: feeds the driver a whole trace and ticks
//!   it until idle.
//! * [`ServerDaemon`] — the same driver on a background thread, fed live
//!   through a channel; submissions join mid-flight and resolve through
//!   [`Ticket`]s.
//! * [`FaultPlan`] — a seeded, replayable fault schedule both front-ends
//!   honour; [`clock`] — the one sanctioned wall-clock reader.
//! * [`ServeReport`] — per-request responses plus the aggregate metrics
//!   the paper reports (mean per-token latency, throughput, tokens per
//!   decoding step).

pub mod clock;
mod daemon;
mod driver;
mod fault;
mod metrics;
mod request;
mod scheduler;
mod server;

pub use daemon::{DaemonError, ServerDaemon, Ticket};
pub use fault::{BurstSpec, FaultPlan, FaultSpec};
pub use metrics::{FaultCounters, IterationRecord, OccupancyStats, ServeReport};
pub use request::{Request, RequestId, RequestOutcome, Response};
pub use scheduler::{IterationScheduler, QueuePolicy, QueueStats};
pub use server::{Server, ServerConfig, TimingConfig};
