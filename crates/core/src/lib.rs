//! ORTHRUS: the paper's prototype (Section 3).
//!
//! Two design principles, faithfully reproduced:
//!
//! 1. **Partitioned functionality** — the engine pins two kinds of
//!    long-lived threads: *concurrency-control (CC) threads*, each owning
//!    a disjoint partition of the lock space with completely latch-free,
//!    thread-local lock state ([`cc`]), and *execution threads* that run
//!    transaction logic and never touch lock metadata ([`exec`]). The two
//!    kinds share no data structures; they communicate exclusively via
//!    latch-free SPSC rings (`orthrus-spsc`), one per (producer, consumer)
//!    pair ([`msg`]).
//! 2. **Planned, deadlock-free locking** — each transaction's access set
//!    is analyzed (or OLLP-reconnoitered) up front, grouped into per-CC
//!    *spans* sorted by CC id ([`plan`]), and acquired strictly in that
//!    order. With the CC→CC **forwarding optimization** of Section 3.3 a
//!    transaction touching `Ncc` CC threads costs `Ncc + 1` messages;
//!    without it (ablation) the execution thread mediates every span and
//!    pays `2·Ncc`.
//!
//! Execution threads are asynchronous: each multiplexes a slab of
//! in-flight transactions, starting new ones while older ones wait for
//! lock grants (Section 3.3).
//!
//! ## Fabric batching (`flush_threshold`)
//!
//! The paper's design stands on cheap message passing; this reproduction
//! additionally **amortizes** it. Every hot loop moves messages in
//! batches, governed by one knob, [`OrthrusConfig::flush_threshold`]:
//!
//! - execution threads stage `Acquire`/`Release` requests per destination
//!   CC thread during a scheduling quantum and flush each destination's
//!   batch with a single slice push — one atomic publish for up to
//!   `flush_threshold` messages (`orthrus_spsc::Producer::push_slice`);
//! - CC threads drain up to `flush_threshold` requests per poll round in
//!   per-lane batches (`orthrus_spsc::FanIn::drain_round`) and coalesce
//!   the round's grants and forwards per destination, so several grants
//!   to one execution thread cost one flush;
//! - buffers always flush before a thread polls or parks, so batching
//!   never delays a message behind an idle quantum, and staged messages
//!   stay within the ring-capacity bounds sized for the per-message
//!   fabric.
//!
//! `flush_threshold = 1` (ablation A5, `abl05_batching`) reproduces the
//! seed's message-per-message semantics exactly; the default is
//! [`config::DEFAULT_FLUSH_THRESHOLD`]. The batch ring operations
//! themselves are model-checked in `orthrus-spsc`'s proptests (batched
//! and single-message interleavings are observationally FIFO-equivalent).
//!
//! ## Admission scheduling ([`OrthrusConfig::admission`])
//!
//! Under high skew the bottleneck moves upstream of the fabric: blindly
//! admitted hot-key transactions pile waiters into CC queues that can
//! only serialize. Admission is therefore a pluggable policy layer
//! ([`admit`]) rather than code inlined in the execution thread:
//!
//! - [`AdmissionPolicy::ConflictBatch`] (default,
//!   [`AdmissionPolicy::conflict_batch`]) plans each transaction once at
//!   admission, derives a conflict class from the hottest key of its
//!   planned footprint (a decaying frequency sketch over recent
//!   footprints), and drains per-class run queues back-to-back; each
//!   drained run is **serialized locally** by the execution thread under
//!   one fused lock acquisition — one acquire/release round per run
//!   instead of per transaction (Prasaad et al., "Improving High
//!   Contention OLTP Performance via Transaction Scheduling"; ablation
//!   A6, `abl06_admission`, compares the two across skew). A
//!   transaction that arrives alone is admitted as a run of one;
//! - [`AdmissionPolicy::Fifo`] admits in generator order, one lock
//!   round per transaction, as the paper does — proptest-pinned
//!   identical (programs *and* plans) to the seed's inlined admission.
//!
//! ## Transaction sources and the open loop ([`source`], [`session`])
//!
//! *Where* admission gets its transactions is a second seam,
//! [`TxnSource`]: the closed-loop [`engine::OrthrusEngine::run`] wraps
//! the synthetic workload generator ([`SyntheticSource`] — proptest-
//! pinned bit-identical to the seed's admission stream), while the
//! service-mode lifecycle ([`engine::OrthrusEngine::start`] →
//! [`EngineHandle`]) feeds each execution thread from a bounded client
//! ingest ring ([`ClientSource`]). Clients hold [`Session`]s:
//! `submit(Program) -> Ticket` routes by [`hot_key_hint`], a full ring
//! is backpressure ([`TrySubmitError::Full`]), and every accepted
//! ticket completes exactly once through a completion ring carrying
//! submit→commit latency (folded into `RunStats` as per-thread latency
//! histograms). Both admission policies operate unchanged over
//! either source; shutdown drains client backlogs dry before stopping
//! (ablation A8, `abl08_openloop`, sweeps offered load against
//! delivered throughput and latency).
//!
//! ## Durability ([`OrthrusConfig::durability`])
//!
//! The paper's engine is main-memory only; this reproduction adds an
//! optional command log (`orthrus-durability`, ablation A9,
//! `abl09_durability`). With `DurabilityMode::Log`/`LogFsync`, every
//! committed fused run appends **one** checksummed record of its
//! programs — while the run's locks are still held, so the log order is
//! conflict-consistent — and ticketed completions release only after the
//! covering record is written (fsynced, under `log+fsync`). Group commit
//! rides the existing admission batching: one append (and one fsync) per
//! run, the same amortization schedule as the lock fabric's round trips.
//! [`OrthrusEngine::recover`] replays a (possibly torn) log through
//! `execute_planned` to rebuild table state before serving.
//!
//! [`hot_key_hint`]: orthrus_txn::Program::hot_key_hint

pub mod admit;
pub mod cc;
pub mod config;
pub mod engine;
pub mod exec;
pub mod hub;
pub mod msg;
pub mod plan;
pub mod session;
pub mod source;

#[cfg(test)]
mod proptests;

pub use admit::{AdmissionPolicy, Admitted, Admitter};
pub use config::{CcAssignment, OrthrusConfig};
pub use engine::{spawn_named, EngineError, EngineHandle, OrthrusEngine};
pub use hub::{ClientRx, CompletionHub};
pub use orthrus_durability::{DurabilityMode, ReplayReport, SyncInterval};
pub use plan::LockPlan;
pub use session::{EngineClosed, Session, TrySubmitError};
pub use source::{ClientSource, Completion, Reply, Sourced, SyntheticSource, Ticket, TxnSource};

/// Serializes this crate's timed-engine tests: two concurrent multi-thread
/// engine runs on a small CI host can starve one measurement window.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
