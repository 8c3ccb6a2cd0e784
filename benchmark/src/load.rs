//! The load generator: the benchmark's own clock, the per-ticket
//! latency recorder, the pacing schedule, and the drive loops for the
//! in-process front doors and for one TCP connection.
//!
//! Latency is always measured here — a start time per ticket id (per
//! request id over TCP) against the instant the drain call that returned
//! the ticket came back — never through `LatencyHistogram` or
//! `Completion::latency_ns`, which are engine-side, bucket-quantised and
//! blind to completion-ring residence.

use std::time::{Duration, Instant};

use orthrus_core::{Completion, Ticket, TrySubmitError};
use orthrus_net::{CompletionMsg, NetClient};
use orthrus_txn::Program;
use orthrus_workload::Gen;

use crate::stats::{
    bucket_cv, quiet_median_ns, ratio, summarize_ns, sustained_rate, LatSummary, BUCKET_NS,
};
use crate::trace::{Tracer, NONE};

/// Nanoseconds since the run's epoch; shared by recorders and tracers
/// so every timestamp of a run is on one axis.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Pin the calling load-generator thread (and the threads it spawns) to
/// the last CPU. The engine pins its CC and execution threads from CPU 0
/// upward, so on a host with CPUs to spare the generator gets one to
/// itself; on a 2-CPU host it shares with the execution thread instead
/// of being moved between the two by the scheduler, which made
/// identical runs differ by which engine thread it happened to displace.
/// Best effort, like the engine's own pinning.
pub fn pin_generator() {
    let cpus = orthrus_common::affinity::available_cores();
    orthrus_common::affinity::pin_to_core(cpus - 1);
}

/// How a window offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Keep the in-flight window full; the next request goes out only
    /// when a previous one completes.
    Closed,
    /// Send on a fixed schedule regardless of completions. This
    /// generator sends the requests whose global index is
    /// `k·stride + offset` (one generator: stride 1, offset 0).
    Paced { rate: u64, stride: u64, offset: u64 },
}

impl Mode {
    /// When this generator's `k`-th request of a window that started at
    /// `start_ns` is due; `None` in a closed loop, where a request is due
    /// as soon as the window has room.
    fn due(self, start_ns: u64, k: u64) -> Option<u64> {
        match self {
            Mode::Closed => None,
            Mode::Paced {
                rate,
                stride,
                offset,
            } => Some(start_ns + due_ns(k * stride + offset, rate)),
        }
    }
}

/// When request `index` of an open-loop schedule at `rate` requests per
/// second is due, in ns after the window start. A pure function of rate
/// and index: a late generator does not shift later due times.
pub fn due_ns(index: u64, rate: u64) -> u64 {
    (index as u128 * 1_000_000_000 / rate as u128) as u64
}

/// Latency slots: ids in flight must span fewer ids than this (a
/// request overtaken by this many later ones is reported as lost).
const RING: usize = 1 << 16;
/// Raw latency samples kept per window.
const LAT_CAPACITY: usize = 8 << 20;
/// Raw generator-lag samples kept per paced window.
const LAG_CAPACITY: usize = 2 << 20;

#[derive(Clone, Copy)]
struct Slot {
    id: u64,
    /// What latency is measured from: the submit call's start in a
    /// closed loop, the due time in a paced one.
    start_ns: u64,
    call_start_ns: u64,
    call_end_ns: u64,
}

/// Per-ticket bookkeeping for one generator: start times, the
/// exactly-once audit, and the current window's raw samples. Every
/// buffer is allocated and touched up front.
pub struct Recorder {
    pub clock: Clock,
    ring: Vec<Slot>,
    pub inflight: usize,
    pub accepted: u64,
    pub completed: u64,
    /// Completions for an id not in flight (duplicate or unknown), and
    /// in-flight ids overwritten before they completed.
    pub anomalies: u64,
    /// Submissions refused for a reason other than backpressure.
    pub rejected: u64,
    submit_span: &'static str,
    drain_span: &'static str,
    // The current window.
    start_ns: u64,
    end_ns: u64,
    lat: Vec<u32>,
    lag: Vec<u32>,
    buckets: Vec<u32>,
    paced: bool,
    submits: u64,
    full: u64,
    area: u128,
    last_sample_ns: u64,
    overflow: u64,
}

fn touched<T: Clone>(fill: T, capacity: usize) -> Vec<T> {
    let mut v = vec![fill; capacity];
    v.clear();
    v
}

impl Recorder {
    pub fn new(clock: Clock, submit_span: &'static str, drain_span: &'static str) -> Self {
        let empty = Slot {
            id: NONE,
            start_ns: 0,
            call_start_ns: 0,
            call_end_ns: 0,
        };
        Recorder {
            clock,
            ring: vec![empty; RING],
            inflight: 0,
            accepted: 0,
            completed: 0,
            anomalies: 0,
            rejected: 0,
            submit_span,
            drain_span,
            start_ns: 0,
            end_ns: 0,
            lat: touched(0, LAT_CAPACITY),
            lag: touched(0, LAG_CAPACITY),
            buckets: Vec::new(),
            paced: false,
            submits: 0,
            full: 0,
            area: 0,
            last_sample_ns: 0,
            overflow: 0,
        }
    }

    /// Open a measurement window of `dur_ns` (a whole number of
    /// buckets) starting at `start_ns`. A paced window also records how
    /// late each request was sent.
    pub fn begin_window(&mut self, start_ns: u64, dur_ns: u64, paced: bool) {
        assert_eq!(dur_ns % BUCKET_NS, 0, "windows are whole buckets");
        self.paced = paced;
        self.start_ns = start_ns;
        self.end_ns = start_ns + dur_ns;
        self.lat.clear();
        self.lag.clear();
        self.buckets.clear();
        self.buckets.resize((dur_ns / BUCKET_NS) as usize, 0);
        self.submits = 0;
        self.full = 0;
        self.area = 0;
        self.last_sample_ns = start_ns;
        self.overflow = 0;
    }

    /// Integrate the in-flight count over time (Little's-law
    /// occupancy) up to `now_ns`; called before every change of the
    /// count, so each interval is weighted by the count that held in it.
    /// A request is in flight until the generator sees its completion,
    /// the same interval its latency covers.
    #[inline]
    fn sample_inflight(&mut self, now_ns: u64) {
        let now_ns = now_ns.min(self.end_ns).max(self.last_sample_ns);
        self.area += self.inflight as u128 * (now_ns - self.last_sample_ns) as u128;
        self.last_sample_ns = now_ns;
    }

    /// An accepted submission: `id` is now in flight, timed from
    /// `start_ns`; the submit call itself ran `call_start_ns..call_end_ns`.
    #[inline]
    pub fn submitted(&mut self, id: u64, start_ns: u64, call_start_ns: u64, call_end_ns: u64) {
        self.sample_inflight(call_start_ns);
        let slot = &mut self.ring[id as usize & (RING - 1)];
        if slot.id != NONE {
            self.anomalies += 1;
            self.inflight -= 1;
        }
        *slot = Slot {
            id,
            start_ns,
            call_start_ns,
            call_end_ns,
        };
        self.inflight += 1;
        self.accepted += 1;
        self.submits += 1;
        if self.paced && self.lag.len() < self.lag.capacity() {
            let late = call_start_ns.saturating_sub(start_ns);
            self.lag.push(late.min(u32::MAX as u64) as u32);
        }
    }

    /// A submission the front door pushed back (backpressure).
    #[inline]
    pub fn backpressured(&mut self) {
        self.full += 1;
    }

    /// `id` came back from the drain call that ran
    /// `drain_start_ns..now_ns`.
    #[inline]
    pub fn finished(&mut self, id: u64, drain_start_ns: u64, now_ns: u64, tr: &mut Tracer) {
        let slot = &mut self.ring[id as usize & (RING - 1)];
        if slot.id != id {
            self.anomalies += 1;
            return;
        }
        let s = *slot;
        slot.id = NONE;
        self.sample_inflight(now_ns);
        self.inflight -= 1;
        self.completed += 1;
        if self.lat.len() < self.lat.capacity() {
            self.lat
                .push(now_ns.saturating_sub(s.start_ns).min(u32::MAX as u64) as u32);
        } else {
            self.overflow += 1;
        }
        if now_ns >= self.start_ns && now_ns < self.end_ns {
            self.buckets[((now_ns - self.start_ns) / BUCKET_NS) as usize] += 1;
        }
        if tr.samples(id) {
            let txn = tr.span("txn", s.call_start_ns, now_ns, NONE, id);
            if txn != NONE {
                tr.span(self.submit_span, s.call_start_ns, s.call_end_ns, txn, id);
                tr.span(self.drain_span, drain_start_ns, now_ns, txn, id);
            }
        }
    }

    /// Account for a request that was submitted and completed outside
    /// the drive loops (the set-up's first commit).
    pub fn note_external(&mut self) {
        self.accepted += 1;
        self.completed += 1;
    }

    /// Close the window and hand out its raw samples.
    pub fn end_window(&mut self) -> WindowRaw {
        self.sample_inflight(self.end_ns);
        WindowRaw {
            dur_ns: self.end_ns - self.start_ns,
            buckets: self.buckets.clone(),
            lat: self.lat.clone(),
            lag: self.lag.clone(),
            submits: self.submits,
            full: self.full,
            area: self.area,
            overflow: self.overflow,
        }
    }
}

/// One generator's raw window; TCP connections merge theirs.
#[derive(Debug, Clone, Default)]
pub struct WindowRaw {
    pub dur_ns: u64,
    pub buckets: Vec<u32>,
    pub lat: Vec<u32>,
    pub lag: Vec<u32>,
    pub submits: u64,
    pub full: u64,
    pub area: u128,
    pub overflow: u64,
}

impl WindowRaw {
    pub fn merge(&mut self, other: WindowRaw) {
        assert_eq!(self.dur_ns, other.dur_ns, "merged windows are aligned");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.lat.extend(other.lat);
        self.lag.extend(other.lag);
        self.submits += other.submits;
        self.full += other.full;
        self.area += other.area;
        self.overflow += other.overflow;
    }

    pub fn summarize(mut self) -> WindowStats {
        let secs = self.dur_ns as f64 / 1e9;
        let in_window: u64 = self.buckets.iter().map(|&b| b as u64).sum();
        let mean_rate = ratio(in_window as f64, secs);
        let quiet_p50_us = quiet_median_ns(&self.lat) / 1e3;
        let lat = summarize_ns(&mut self.lat);
        let lag = summarize_ns(&mut self.lag);
        let mean_inflight = ratio(self.area as f64, self.dur_ns as f64);
        WindowStats {
            rate: sustained_rate(&self.buckets),
            cv: bucket_cv(&self.buckets),
            lat,
            quiet_p50_us,
            lag_p99_us: lag.p99_us,
            lag_max_us: self.lag.last().map_or(0.0, |&l| l as f64 / 1e3),
            full_share: ratio(self.full as f64, (self.full + self.submits) as f64),
            // L = λ·W with the window's own mean rate and mean latency.
            littles_ratio: ratio(mean_inflight, mean_rate * lat.mean_us / 1e6),
            overflow: self.overflow,
        }
    }
}

/// What one window measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    /// 90th percentile of the one-second completion counts.
    pub rate: f64,
    pub cv: f64,
    /// Over every sample of the window.
    pub lat: LatSummary,
    /// Median latency of the window's quietest slice.
    pub quiet_p50_us: f64,
    pub lag_p99_us: f64,
    pub lag_max_us: f64,
    pub full_share: f64,
    pub littles_ratio: f64,
    /// Latency samples that did not fit the preallocated buffer.
    pub overflow: u64,
}

/// An in-process front door: `Session` + `EngineHandle`, or
/// `PartSession` + `PartitionedHandle`.
pub trait InProc {
    const SUBMIT_SPAN: &'static str;
    const DRAIN_SPAN: &'static str;
    fn try_submit(&mut self, program: Program) -> Result<Ticket, TrySubmitError>;
    fn drain(&mut self, out: &mut Vec<Completion>) -> usize;
}

/// Drive one window through an in-process front door from this thread.
pub fn drive<D: InProc>(
    door: &mut D,
    gen: &mut Gen,
    rec: &mut Recorder,
    tr: &mut Tracer,
    mode: Mode,
    window: usize,
    dur: Duration,
) {
    let clock = rec.clock;
    let start = clock.now_ns();
    let dur_ns = dur.as_nanos() as u64 / BUCKET_NS * BUCKET_NS;
    let end = start + dur_ns;
    rec.begin_window(start, dur_ns, mode != Mode::Closed);
    let mut handed_back: Option<Program> = None;
    let mut sent = 0u64;
    let mut out: Vec<Completion> = Vec::with_capacity(4096);
    loop {
        let now = clock.now_ns();
        if now >= end {
            break;
        }
        let mut progressed = false;
        while rec.inflight < window {
            let call_start = clock.now_ns();
            let from = match mode.due(start, sent) {
                None => call_start,
                Some(due) if due > call_start => break,
                Some(due) => due,
            };
            let program = handed_back.take().unwrap_or_else(|| gen.next_program());
            match door.try_submit(program) {
                Ok(ticket) => {
                    let call_end = if tr.enabled() { clock.now_ns() } else { 0 };
                    tr.call(D::SUBMIT_SPAN, call_start, call_end, 1);
                    rec.submitted(ticket.0, from, call_start, call_end);
                    sent += 1;
                    progressed = true;
                }
                Err(TrySubmitError::Full(p)) => {
                    handed_back = Some(p);
                    rec.backpressured();
                    break;
                }
                Err(TrySubmitError::Shutdown(_)) => {
                    rec.rejected += 1;
                    break;
                }
            }
        }
        progressed |= drain_once(door, rec, tr, &mut out);
        if !progressed {
            std::thread::yield_now();
        }
    }
}

fn drain_once<D: InProc>(
    door: &mut D,
    rec: &mut Recorder,
    tr: &mut Tracer,
    out: &mut Vec<Completion>,
) -> bool {
    let clock = rec.clock;
    let drain_start = if tr.enabled() { clock.now_ns() } else { 0 };
    let n = door.drain(out);
    if n == 0 && !tr.enabled() {
        return false;
    }
    let now = clock.now_ns();
    tr.call(D::DRAIN_SPAN, drain_start, now, n as u64);
    for c in out.drain(..) {
        rec.finished(c.ticket.0, drain_start, now, tr);
    }
    n > 0
}

/// Drain until nothing is in flight. Returns whether that happened
/// before `timeout`.
pub fn quiesce<D: InProc>(
    door: &mut D,
    rec: &mut Recorder,
    tr: &mut Tracer,
    timeout: Duration,
) -> bool {
    let deadline = Instant::now() + timeout;
    let mut out = Vec::new();
    while rec.inflight > 0 {
        if !drain_once(door, rec, tr, &mut out) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }
    true
}

/// Span names for the TCP client's two calls.
pub const NET_SEND_SPAN: &str = "net.client.send";
pub const NET_POLL_SPAN: &str = "net.client.poll";

/// One TCP connection and everything its driver thread owns.
pub struct TcpConn {
    pub client: NetClient,
    pub gen: Gen,
    pub rec: Recorder,
    pub tr: Tracer,
}

impl TcpConn {
    fn poll(&mut self, got: &mut Vec<CompletionMsg>) -> std::io::Result<usize> {
        let poll_start = self.rec.clock.now_ns();
        let n = self.client.poll_responses(got)?;
        let now = self.rec.clock.now_ns();
        self.tr.call(NET_POLL_SPAN, poll_start, now, n as u64);
        for m in got.drain(..) {
            self.rec.finished(m.req_id, poll_start, now, &mut self.tr);
        }
        Ok(n)
    }

    /// Drive one window over this connection, starting at `start_ns`
    /// (shared by all connections so their buckets align), then wait
    /// for the responses still owed.
    ///
    /// In a closed loop the connection refills once half its window is
    /// free, in one request frame: topping up after every response would
    /// degenerate into one-transaction frames and measure syscalls.
    pub fn drive(
        &mut self,
        mode: Mode,
        window: usize,
        start_ns: u64,
        dur: Duration,
    ) -> std::io::Result<()> {
        let clock = self.rec.clock;
        let dur_ns = dur.as_nanos() as u64 / BUCKET_NS * BUCKET_NS;
        let end = start_ns + dur_ns;
        self.rec
            .begin_window(start_ns, dur_ns, mode != Mode::Closed);
        let mut got: Vec<CompletionMsg> = Vec::with_capacity(2 * window);
        let mut sent = 0u64;
        while clock.now_ns() < start_ns {
            std::thread::yield_now();
        }
        loop {
            let now = clock.now_ns();
            if now >= end {
                break;
            }
            let free = window - self.rec.inflight;
            let n = match mode {
                Mode::Closed if free >= (window / 2).max(1) => free,
                Mode::Closed => 0,
                Mode::Paced { .. } => (0..free as u64)
                    .take_while(|k| mode.due(start_ns, sent + k).is_some_and(|due| due <= now))
                    .count(),
            };
            if n > 0 {
                let batch: Vec<Program> = (0..n).map(|_| self.gen.next_program()).collect();
                let call_start = clock.now_ns();
                let ids = self.client.send_batch(batch)?;
                let call_end = clock.now_ns();
                self.tr
                    .call(NET_SEND_SPAN, call_start, call_end, ids.len() as u64);
                for id in ids {
                    let from = mode.due(start_ns, sent).unwrap_or(call_start);
                    self.rec.submitted(id, from, call_start, call_end);
                    sent += 1;
                }
            }
            if self.rec.inflight > 0 {
                // Blocks up to the client's 1 ms read timeout.
                self.poll(&mut got)?;
            } else if n == 0 {
                std::thread::yield_now();
            }
        }
        self.quiesce(Duration::from_secs(10))
    }

    pub fn quiesce(&mut self, timeout: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut got = Vec::new();
        while self.rec.inflight > 0 {
            if self.poll(&mut got)? == 0 && Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("{} responses never arrived", self.rec.inflight),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_only_on_rate_and_index() {
        assert_eq!(due_ns(0, 4000), 0);
        assert_eq!(due_ns(1, 4000), 250_000);
        assert_eq!(due_ns(4000, 4000), 1_000_000_000);
        // No drift: the millionth request of a 150 k/s schedule.
        assert_eq!(due_ns(1_500_000, 150_000), 10_000_000_000);
        // Rates that do not divide a second still never run ahead.
        assert_eq!(due_ns(3, 7), 428_571_428);
        for i in 0..1000 {
            assert!(due_ns(i, 70_000) <= due_ns(i + 1, 70_000));
        }
    }

    #[test]
    fn two_connections_interleave_one_schedule() {
        // Connection 1 of 2 sends global indices 1, 3, 5, ...
        let local: Vec<u64> = (0..3).map(|k| due_ns(k * 2 + 1, 4000)).collect();
        assert_eq!(local, vec![250_000, 750_000, 1_250_000]);
    }

    fn recorder() -> Recorder {
        Recorder::new(Clock::start(), "submit", "drain")
    }

    #[test]
    fn a_late_generator_never_shortens_a_measured_latency() {
        let mut rec = recorder();
        let mut tr = Tracer::off();
        rec.begin_window(0, 10 * BUCKET_NS, true);
        // Due at 1000 ns, but the generator only got to it at 9000 ns.
        rec.submitted(0, 1_000, 9_000, 9_100);
        // On time: due and sent at 2000 ns.
        rec.submitted(1, 2_000, 2_000, 2_100);
        rec.finished(0, 19_000, 20_000, &mut tr);
        rec.finished(1, 19_000, 20_000, &mut tr);
        let w = rec.end_window();
        // Timed from the due time, not from the late send.
        assert_eq!(w.lat, vec![19_000, 18_000]);
        assert_eq!(w.lag, vec![8_000, 0]);
    }

    #[test]
    fn recorder_audits_exactly_once_completion() {
        let mut rec = recorder();
        let mut tr = Tracer::off();
        rec.begin_window(0, BUCKET_NS, false);
        rec.submitted(5, 0, 0, 10);
        rec.finished(5, 50, 100, &mut tr);
        assert_eq!((rec.accepted, rec.completed, rec.anomalies), (1, 1, 0));
        // A second completion of the same id, and one nobody sent.
        rec.finished(5, 50, 100, &mut tr);
        rec.finished(77, 50, 100, &mut tr);
        assert_eq!((rec.completed, rec.anomalies, rec.inflight), (1, 2, 0));
        // An id overtaken by a whole ring of later ones is lost.
        rec.submitted(9, 0, 0, 10);
        rec.submitted(9 + RING as u64, 0, 0, 10);
        assert_eq!((rec.anomalies, rec.inflight), (3, 1));
    }

    #[test]
    fn window_counts_buckets_occupancy_and_backpressure() {
        let mut rec = recorder();
        let mut tr = Tracer::off();
        rec.begin_window(1_000, 2 * BUCKET_NS, false);
        rec.submitted(0, 1_000, 1_000, 1_010);
        rec.backpressured();
        // In flight for exactly one bucket of the two.
        rec.finished(0, 1_000, 1_000 + BUCKET_NS, &mut tr);
        // A completion after the window still gives a latency sample,
        // but does not count towards the rate, and its request occupies
        // the system only up to the window's end.
        rec.submitted(1, 1_000 + BUCKET_NS, 1_000 + BUCKET_NS, 1_010 + BUCKET_NS);
        rec.finished(1, 0, 1_000 + 5 * BUCKET_NS, &mut tr);
        let w = rec.end_window();
        assert_eq!(w.buckets, vec![0, 1]);
        assert_eq!(w.lat.len(), 2);
        assert_eq!(w.area, 2 * BUCKET_NS as u128);
        let s = w.summarize();
        assert_eq!(s.full_share, 1.0 / 3.0);
    }

    #[test]
    fn sampled_tickets_get_a_txn_span_with_two_children() {
        let mut rec = recorder();
        let mut tr = Tracer::on();
        rec.begin_window(0, BUCKET_NS, false);
        rec.submitted(64, 100, 100, 300);
        rec.submitted(65, 100, 100, 300);
        rec.finished(64, 900, 1_100, &mut tr);
        rec.finished(65, 900, 1_100, &mut tr);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["txn", "submit", "drain"]);
        assert_eq!(tr.self_times_ns("txn"), vec![600]);
    }

    #[test]
    fn merged_windows_add_up() {
        let mut a = WindowRaw {
            dur_ns: BUCKET_NS,
            buckets: vec![3],
            lat: vec![10],
            submits: 3,
            ..WindowRaw::default()
        };
        a.merge(WindowRaw {
            dur_ns: BUCKET_NS,
            buckets: vec![4],
            lat: vec![20, 30],
            submits: 4,
            full: 1,
            ..WindowRaw::default()
        });
        assert_eq!(a.buckets, vec![7]);
        assert_eq!(a.lat, vec![10, 20, 30]);
        assert_eq!((a.submits, a.full), (7, 1));
    }
}
