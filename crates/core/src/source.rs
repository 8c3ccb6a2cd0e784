//! Transaction sources: where admission gets its work from.
//!
//! The seed engine could only drive itself — each execution thread's
//! admitter fabricated transactions from a synthetic generator spinning
//! as fast as the engine could commit (a *closed loop*). This module
//! turns the admitter's input into a seam: a [`TxnSource`] yields
//! [`Sourced`] transactions, and every admission policy
//! ([`crate::admit::AdmissionPolicy`]) operates identically over either
//! implementation:
//!
//! - [`SyntheticSource`] wraps the workload [`Gen`] — the closed loop,
//!   bit-identical to the seed's admission stream (the Fifo pins in
//!   `crate::proptests` run through this type);
//! - [`ClientSource`] drains a bounded per-execution-thread ingest ring
//!   fed by client [`crate::session::Session`]s — the *open* loop, where
//!   transactions arrive at an offered rate with a [`Ticket`] each and a
//!   full ring is backpressure, not silent loss.
//!
//! The distinction the execution thread actually cares about is the
//! shutdown contract: a synthetic source just stops generating when the
//! run winds down, while a client source must be **drained dry** —
//! every accepted ticket is owed a [`Completion`], including the ones
//! still sitting in the ingest ring when shutdown begins.

use std::time::Instant;

use orthrus_spsc::Consumer;
use orthrus_txn::Program;
use orthrus_workload::Gen;

/// Opaque handle for one accepted client submission. Minted by
/// `Session::try_submit`, echoed back in the [`Completion`] when the
/// transaction commits. Ids are unique **and dense** per engine run
/// (minting happens only after the backpressure and shutdown checks
/// pass, under the lane lock), so the ticket counter doubles as the
/// accepted-submission ledger conservation checks audit against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// A submission's return address: its ticket, and who is owed the
/// completion — the [`crate::hub::CompletionHub`] client that submitted
/// it and that client's own tag for it (a wire request id, a partition
/// layer's global ticket). Written once, under the ingest-lane lock; it
/// rides the transaction through admission, OLLP retries and the
/// group-fsync wait, and comes back as the [`Completion`], so whoever
/// drains the engine knows where each completion goes without looking
/// anything up. The command log does not record the owner: a recovered
/// engine has nobody to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub ticket: Ticket,
    /// `None` for plain [`crate::session::Session::try_submit`] work:
    /// nobody registered is waiting for it.
    pub client: Option<u32>,
    pub tag: u64,
}

impl Reply {
    /// The completion this submission is owed, now that it committed.
    #[inline]
    pub fn completed(self, latency_ns: u64) -> Completion {
        Completion {
            ticket: self.ticket,
            latency_ns,
            client: self.client,
            tag: self.tag,
        }
    }
}

/// One client submission travelling through an ingest ring.
#[derive(Debug)]
pub struct Submission {
    pub reply: Reply,
    pub program: Program,
    /// When the client submitted. Commit latency is measured from here,
    /// so ingest-ring queueing counts toward latency — exactly what an
    /// open-loop experiment is after.
    pub submitted: Instant,
}

/// Delivered to the client when a submission commits. The engine retries
/// OLLP mismatches internally and planned execution cannot deadlock, so
/// every accepted ticket completes exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub ticket: Ticket,
    /// Submit→commit latency, including ingest-ring wait, admission
    /// (run-queue) wait, lock wait, and any OLLP retries.
    pub latency_ns: u64,
    /// The owner the submission named ([`Reply::client`]).
    pub client: Option<u32>,
    /// The owner's tag for it ([`Reply::tag`]).
    pub tag: u64,
}

// Completions cross two rings by value, a cache line for two.
const _: () = assert!(std::mem::size_of::<Completion>() <= 32);

/// One transaction pulled from a source, not yet planned.
pub struct Sourced {
    pub program: Program,
    /// `None` for synthetic work, `Some` for client submissions (it
    /// rides the transaction to commit, where it completes).
    pub reply: Option<Reply>,
    /// Latency clock start: submission time for client work, pull time
    /// for synthetic work.
    pub started: Instant,
}

/// The admitter's input seam. Implementations are enum-free and
/// monomorphized into the execution thread (`Admitter<S>`): the hot
/// admission path pays no virtual dispatch for the abstraction.
pub trait TxnSource {
    /// Pull the next transaction, or `None` if no work is currently
    /// available (client ring empty). Synthetic sources never return
    /// `None`.
    fn pull(&mut self) -> Option<Sourced>;

    /// Whether undelivered input currently exists (buffered locally or
    /// visible in the ingest ring). Synthetic sources always have more.
    fn has_pending(&self) -> bool;

    /// The shutdown contract: `true` if the execution thread must keep
    /// admitting after a stop request until the source runs dry (client
    /// sources — ticket conservation), `false` if stop means stop
    /// (synthetic sources — the seed's wind-down).
    fn drain_on_stop(&self) -> bool;
}

/// The closed loop: wrap the workload generator. `pull` is infallible
/// and produces exactly the seed's program stream (the admitter's
/// planning RNG stays outside the source, so the generate→plan order is
/// byte-for-byte the seed's — proptest-pinned in `crate::proptests`).
pub struct SyntheticSource {
    gen: Gen,
}

impl SyntheticSource {
    pub fn new(gen: Gen) -> Self {
        SyntheticSource { gen }
    }
}

impl TxnSource for SyntheticSource {
    #[inline]
    fn pull(&mut self) -> Option<Sourced> {
        Some(Sourced {
            program: self.gen.next_program(),
            reply: None,
            started: Instant::now(),
        })
    }

    fn has_pending(&self) -> bool {
        true
    }

    fn drain_on_stop(&self) -> bool {
        false
    }
}

/// The open loop: drain one bounded SPSC ingest ring fed by client
/// sessions. Pulls go through a local buffer filled with the ring's
/// batch drain ([`Consumer::drain_into`] — one cached-index refresh and
/// one atomic store per sweep, the same slice economics as the message
/// fabric), so a burst of submissions costs one ring transaction, not
/// one per transaction.
pub struct ClientSource {
    ring: Consumer<Submission>,
    /// Drained-but-unpulled submissions, **reversed** so `pop()` yields
    /// FIFO order without shifting the vector.
    buf: Vec<Submission>,
    /// Max submissions moved per ring sweep.
    batch: usize,
}

impl ClientSource {
    /// Wrap an ingest ring consumer, draining up to `batch` submissions
    /// per ring sweep (the engine passes its `flush_threshold`).
    pub fn new(ring: Consumer<Submission>, batch: usize) -> Self {
        ClientSource {
            ring,
            buf: Vec::with_capacity(batch.max(1)),
            batch: batch.max(1),
        }
    }
}

impl TxnSource for ClientSource {
    fn pull(&mut self) -> Option<Sourced> {
        if self.buf.is_empty() {
            if self.ring.drain_into(&mut self.buf, self.batch) == 0 {
                return None;
            }
            self.buf.reverse();
        }
        self.buf.pop().map(|s| Sourced {
            program: s.program,
            reply: Some(s.reply),
            started: s.submitted,
        })
    }

    fn has_pending(&self) -> bool {
        !self.buf.is_empty() || !self.ring.is_empty()
    }

    fn drain_on_stop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_spsc::channel;
    use orthrus_workload::{MicroSpec, Spec};

    fn submission(id: u64) -> Submission {
        Submission {
            reply: Reply {
                ticket: Ticket(id),
                client: None,
                tag: 0,
            },
            program: Program::Rmw { keys: vec![id] },
            submitted: Instant::now(),
        }
    }

    #[test]
    fn synthetic_source_streams_the_generator() {
        let spec = MicroSpec::uniform(128, 4, false);
        let mut src = SyntheticSource::new(Spec::Micro(spec.clone()).generator(3, 1));
        let mut reference = spec.generator(3, 1);
        for _ in 0..32 {
            let s = src.pull().expect("synthetic sources never run dry");
            assert_eq!(s.program, reference.next_program());
            assert_eq!(s.reply, None);
        }
        assert!(src.has_pending());
        assert!(!src.drain_on_stop());
    }

    #[test]
    fn client_source_preserves_submission_order_across_batches() {
        let (mut tx, rx) = channel::<Submission>(64);
        let mut src = ClientSource::new(rx, 4);
        for id in 0..10 {
            tx.try_push(submission(id)).unwrap();
        }
        // Batch boundary at 4: FIFO must stitch across refills.
        for id in 0..10 {
            let s = src.pull().expect("ring has work");
            assert_eq!(s.reply.map(|r| r.ticket), Some(Ticket(id)));
            assert_eq!(s.program, Program::Rmw { keys: vec![id] });
        }
        assert!(src.pull().is_none(), "dry ring pulls nothing");
        assert!(src.drain_on_stop());
    }

    #[test]
    fn client_source_pending_tracks_buffer_and_ring() {
        let (mut tx, rx) = channel::<Submission>(8);
        let mut src = ClientSource::new(rx, 2);
        assert!(!src.has_pending());
        for id in 0..3 {
            tx.try_push(submission(id)).unwrap();
        }
        assert!(src.has_pending(), "ring occupancy counts");
        let _ = src.pull();
        // One drained into the buffer (batch 2 → one still buffered).
        assert!(src.has_pending(), "buffered submissions count");
        let _ = src.pull();
        let _ = src.pull();
        assert!(!src.has_pending());
    }

    #[test]
    fn client_latency_clock_starts_at_submission() {
        let (mut tx, rx) = channel::<Submission>(8);
        let mut src = ClientSource::new(rx, 8);
        let before = Instant::now();
        tx.try_push(submission(0)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = src.pull().unwrap();
        assert!(
            s.started >= before && s.started.elapsed().as_micros() >= 2_000,
            "queue wait must count toward latency"
        );
    }
}
