//! Durability for the ORTHRUS engine: command logging + replay.
//!
//! The paper's prototype is main-memory only; this crate is the
//! reproduction's crash-consistency extension, following the H-Store /
//! VoltDB *command logging* lineage (log the transaction, not its
//! effects — see PAPERS.md): committed [`Program`]s are appended to a
//! segmented, checksummed log ([`CommandLog`], over
//! [`orthrus_storage::log`]), and [`recover`] rebuilds table state by
//! re-executing the committed stream through the engine's own
//! `execute_planned` path.
//!
//! ## Why logical logging is sound here
//!
//! Replay reproduces the live run's state only if (a) execution is
//! deterministic given the database state each transaction saw and (b)
//! the log order is consistent with the serialization order. Both hold by
//! construction:
//!
//! - every program's writes are a deterministic function of its inputs
//!   plus the records it reads under its locks (the engine's planned,
//!   deadlock-free execution — proptest-pinned deterministic since PR 2);
//! - execution threads write a run's record **while still holding the
//!   run's locks** (before the releases leave the thread), so for any two
//!   conflicting transactions the one serialized first also logs first.
//!   Non-conflicting transactions may interleave arbitrarily in the log —
//!   replaying them in log order is one of their equivalent serial
//!   orders.
//!
//! Data-dependent access sets (OLLP, Section 3.2) need no annotation in
//! the log: at replay time the database state equals the state the live
//! transaction committed against (w.r.t. its footprint), so noise-free
//! reconnaissance re-derives the exact plan — [`replay`] plans with
//! `ollp_noise = 0` and a mismatch retry loop that, in practice, never
//! fires.
//!
//! ## Group commit
//!
//! One log record covers one *fused admission run* (PR 2's
//! conflict-batched runs): the execution thread that just committed a
//! run of N same-class transactions appends a single record holding all
//! N programs — the same amortization the message fabric applies to lock
//! traffic, applied to the record (and, under
//! [`DurabilityMode::LogFsync`], to the fsync). FIFO admission degrades
//! to per-transaction records, exactly as it degrades to per-transaction
//! lock rounds. The *write* amortizes one level further: a thread frames
//! every record of one scheduling quantum into one buffer and writes them
//! with one `write` ([`CommandLog::append_frames`]) just before the
//! quantum's lock releases leave it.
//!
//! ## Crash points
//!
//! Tests script the crash with `orthrus_storage::log::{scan, truncate_at}`:
//! truncate the physical byte stream at an arbitrary offset — what an
//! interrupted `write(2)` leaves behind — and recover. The contract
//! (tested in [`replay`] and in the engine's crash suite): recovery
//! drops the torn tail, replays every fully-logged commit exactly once,
//! and yields a prefix-consistent committed state.
//!
//! [`Program`]: orthrus_txn::Program

//! ## Durability rung 2
//!
//! PR 7 lifts the amortization one layer and bounds recovery work:
//!
//! - [`sync`]: the cross-thread group-fsync coordinator — exec threads
//!   publish appended watermarks instead of flushing inline; one
//!   coordinator coalesces all outstanding appends into a single fsync
//!   and the threads release completions at or below the synced
//!   watermark.
//! - [`snapshot`]: byte codecs for a whole [`Database`] image
//!   (bit-identity is the contract, proptest-pinned).
//! - [`checkpoint`]: fuzzy (quiesce-free) checkpoints — a shadow replica
//!   advanced by replaying the durable log prefix, written as
//!   `ckpt-NNNNNN` with the log position it covers; older log segments
//!   are truncated afterwards, so [`recover`] loads the newest valid
//!   checkpoint and replays only the suffix.
//!
//! Recovery reads the log once: [`replay`], [`recover`] and the shadow
//! replay are one serial streaming loop in log order, and [`recover`]
//! cuts the log where that stream stopped (the [`replay`] module docs
//! say why there is no parallel replay).
//!
//! [`Database`]: orthrus_txn::Database

pub mod checkpoint;
pub mod codec;
pub mod log;
pub mod replay;
pub mod snapshot;
pub mod sync;

#[cfg(test)]
mod proptests;

pub use codec::LoggedCommit;
pub use log::{AppendReceipt, CommandLog, DurabilityMode};
pub use replay::{recover, replay, ReplayReport};
pub use sync::{run_sync_coordinator, SyncInterval};

/// The failpoint registry is process-global: a one-shot point one test
/// arms fires in whichever test passes that site first, and the arming
/// test's `clear` disarms every other test's point. A test that arms a
/// point holds this exclusively ([`arm_failpoints`]); a test that passes
/// a failpoint site (a log append, `sync`, a group fsync, a checkpoint)
/// holds it shared ([`pass_failpoints`]).
#[cfg(test)]
static FAILPOINTS: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
pub(crate) fn arm_failpoints() -> std::sync::RwLockWriteGuard<'static, ()> {
    FAILPOINTS.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
pub(crate) fn pass_failpoints() -> std::sync::RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(|e| e.into_inner())
}
