//! Deterministic simulation & fault injection for the ORTHRUS engine.
//!
//! The engine's correctness argument rests on ordering properties of its
//! cross-thread handoffs: lock grants forwarded CC→CC, completions
//! riding SPSC rings, command-log appends ordered by lock coverage.
//! Threaded tests exercise only the interleavings the OS happens to
//! produce. This crate replaces the OS: a [`SimScheduler`] installed
//! through the `orthrus_common::sim` seam serializes every enrolled
//! engine thread onto one seeded virtual-time token, so a run's entire
//! interleaving — and every injected fault — is a pure function of
//! `(seed, fault budget)` and replays bit-identically.
//!
//! Layers:
//! - [`sched`] — the scheduler: token passing, seeded interleaving
//!   choice, fault injection (delayed/reordered deliveries, ring-full
//!   bursts, fan-in lane shuffles), step trace + order-sensitive hash;
//! - [`run`] — one simulated engine run: derive a full engine
//!   configuration from a seed, drive a mixed workload through the
//!   open-loop client API, then check invariants (ticket conservation,
//!   exact serializability witnesses, TPC-C money conservation, and a
//!   replay-determinism pin against the command log);
//! - [`explore`] — the explorer loop: sweep seeds, and on failure
//!   binary-search the smallest fault budget that still reproduces it,
//!   printing a replayable trace;
//! - [`isolation`] — the isolation oracle behind `explore`'s runs: every
//!   committed ticket's reads must match a serial replay in lock-grant
//!   order;
//! - [`net`] — the same treatment for the TCP front door: engine +
//!   `orthrus-net` listener under the scheduler, connection threads
//!   free-running, asserting convergence and conservation (not trace
//!   bit-identity — socket readiness is OS timing; see module docs);
//! - [`part`] — the partitioned deployment (`orthrus-part`): every
//!   partition's workers plus the epoch sequencer under one barrier,
//!   asserting cross-partition money conservation, global ticket
//!   conservation, and epoch-ordered replay after recovery.
//!
//! The `sim` binary fronts all four: `sim explore --seeds N`,
//! `sim run --seed S [--budget B] [--trace]`, `sim net --seeds N`,
//! and `sim part --seeds N`.

pub mod cover;
pub mod crash;
pub mod explore;
pub mod isolation;
pub mod net;
pub mod part;
pub mod run;
pub mod sched;

pub use cover::CoverageMap;
pub use crash::{run_crash_sim, CrashSimConfig, CrashSimOutcome};
pub use explore::{explore, minimize, ExploreReport, FailureReport};
pub use net::{run_net_sim, NetSimConfig, NetSimOutcome};
pub use part::{run_part_sim, PartSimConfig, PartSimOutcome};
pub use run::{run_sim, run_sim_guided, SimConfig, SimOutcome, WorkloadKind};
pub use sched::{
    client_names, Committed, CrashSpec, FaultPlan, SchedReport, SimScheduler, Step, StepKind,
};
