//! The TCP front door: listener, pump, and two single-purpose threads
//! per connection over the engine.
//!
//! The paper's first design flaw is the multi-purpose thread, and every
//! thread here has one job and one thing it blocks on:
//!
//! - **`netlisten`** owns the [`EngineHandle`]. It is the *single pump*:
//!   it drains the engine's completion rings and
//!   [`CompletionHub::route`]s each batch to the owning connections'
//!   [`ClientRx`] rings. With nothing to drain it parks on the engine's
//!   completion doorbell ([`EngineHandle::wait_completions`]), which the
//!   execution threads ring after publishing; the wait is bounded by
//!   `ACCEPT_POLL` only because the same thread polls a non-blocking
//!   `accept`.
//! - **`netconn{i}`** (the *reader*, numbered in accept order) blocks in
//!   `read` with no timeout — the kernel wakes it the moment request
//!   bytes arrive — decodes request frames into its queue of parked
//!   requests and submits from its front through a cloned [`Session`]
//!   with [`Session::try_submit_queue`], request ids riding along as
//!   tags: one lane lock and one ring publish per run of requests bound
//!   for the same execution thread.
//! - **`netconn{i}w`** (the *writer*) parks on its `ClientRx` doorbell,
//!   which `route` rings once per call that delivered to it, and fills
//!   one response frame at a time. When a frame's first completion
//!   arrives the writer looks at how many of the connection's requests
//!   are in the engine (`accepted − answered`) and sends the frame once
//!   it carries **half of them** (at least one, at most `batch_max`),
//!   going back to its doorbell in between. That is the whole batching
//!   policy. Everything counted is already submitted, so the frame
//!   fills without the client doing anything more; with one request in
//!   flight the frame is due at once, so a trickle is answered response
//!   by response; and frame size follows the load the connection
//!   offers, not which thread the scheduler happened to run (flushing
//!   whenever the ring ran dry made 15-completion frames while the
//!   engine hogged both CPUs and 2-completion frames once it yielded).
//!   The reader leaving, a dead socket and a stop request flush what is
//!   held.
//!
//! No timer sits between a request's bytes arriving and its response
//! entering `write` while the engine takes the request. (A socket read
//! *timeout* would: `SO_RCVTIMEO` is rounded up to scheduler ticks, so a
//! nominal 1 ms timeout measured 8 ms on a HZ=250 host — which used to
//! be this server's round trip.) The writer can see a completion before
//! the reader's submit call has even returned, so the request id travels
//! with the submission and comes back in the completion
//! ([`Completion::tag`]) rather than living in a per-connection map; the
//! two halves share only counters (`Link`).
//!
//! Backpressure is end-to-end: requests enter the engine in arrival
//! order, and when an ingest ring refuses one, it and everything behind
//! it stay parked in the reader, which **stops reading its socket**
//! until they are accepted — a reader
//! blocked in a timeout-less `read` could not retry them. It retries
//! when one of its own completions comes back (the engine made room)
//! or, failing that, every `ROOM_POLL`: the one timed wait a request
//! can meet, and only while the engine is full. Frames already read are
//! decoded only while fewer than `backpressure_cap` requests are parked,
//! so the parked queue stays bounded however much one read brought in.
//! The kernel's receive buffer fills, the TCP window closes, and the
//! client's `write` blocks — ring-full pressure mapped onto TCP flow
//! control with no RST and no unbounded server-side buffering.
//!
//! Every thread enrolls in the deterministic-simulation seam under its
//! thread name, so `orthrus-sim` can interleave `netlisten` with the
//! engine's CC/exec threads (an enrolled thread's doorbell wait is a
//! sim park step, never an OS block). Socket readiness itself is OS
//! timing the scheduler cannot capture, so net sim runs assert
//! *convergence and conservation* (every accepted ticket answered or
//! accounted), not trace-hash bit-identity like the in-process corpus.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orthrus_common::failpoint::{global as failpoints, FailAction};
use orthrus_common::{sim, Doorbell, ThreadStats};
use orthrus_core::{ClientRx, Completion, CompletionHub, EngineClosed, EngineHandle, Session};
use orthrus_txn::Program;

use crate::codec::{encode_response, CompletionMsg, Frame, FrameDecoder, WireError};

/// Failpoint hit on every socket read in the connection's reader.
/// `Err` injects an I/O error (connection teardown path); `Torn(keep)`
/// delivers only the first `keep` bytes of the read — the stream then
/// desyncs and the decoder's fatal-desync path closes the connection.
pub const FP_NET_READ: &str = "net.read";

/// How long a closing connection waits for in-flight tickets to
/// complete (and a stalled peer to take its responses) before giving up
/// and orphaning them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How often the listener polls `accept`, and so the upper bound on one
/// listener park: how stale a connection attempt (or a stop request)
/// can get. Not on the response path — a completion wakes the listener
/// at once.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// How long a reader whose requests the engine refused waits before
/// offering them again when none of its own completions comes back
/// first. On the path of a request only while the engine is full.
const ROOM_POLL: Duration = Duration::from_micros(200);

/// Socket write timeout: how long a peer that stopped reading can pin
/// its writer inside one `write` before the writer looks up to see
/// whether the connection is closing.
const WRITE_STALL: Duration = Duration::from_millis(50);

/// Front-end tuning. The harness reads `addr`, `client_ring`, `read_buf`
/// and `backpressure_cap` from `ORTHRUS_NET_*` (see
/// `orthrus-harness::config`).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`NetServer::addr`]).
    pub addr: SocketAddr,
    /// Most completions one response frame carries, and so the most a
    /// frame waits for; a bigger drain is split into several frames
    /// (still one `write`).
    pub batch_max: usize,
    /// Per-connection completion-ring capacity (rounded up to a power
    /// of two by the hub).
    pub client_ring: usize,
    /// Socket read buffer size per connection.
    pub read_buf: usize,
    /// Max decoded-but-unsubmitted requests a connection holds (give or
    /// take one frame): at the cap the reader neither reads its socket
    /// nor decodes what it has already read until the engine accepts
    /// some (the ring-full → TCP flow-control mapping).
    pub backpressure_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            batch_max: 256,
            client_ring: 1024,
            read_buf: 64 * 1024,
            backpressure_cap: 4096,
        }
    }
}

impl NetConfig {
    /// Parse and set the listen address.
    pub fn with_addr<A: ToSocketAddrs>(mut self, addr: A) -> std::io::Result<Self> {
        self.addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        Ok(self)
    }
}

/// A running TCP front-end. Owns the engine (via the listener thread)
/// until [`shutdown`](Self::shutdown) hands it back.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hub: Arc<CompletionHub>,
    session: Session,
    listener: Option<JoinHandle<(EngineHandle, ThreadStats)>>,
}

impl NetServer {
    /// Bind, spawn the listener thread, and start serving. The engine
    /// handle moves into the listener (single-drainer invariant); get it
    /// back from [`shutdown`](Self::shutdown).
    pub fn start(handle: EngineHandle, cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let session = handle.session();
        let hub = Arc::new(CompletionHub::new());

        let jh = {
            let stop = Arc::clone(&stop);
            let hub = Arc::clone(&hub);
            let session = session.clone();
            std::thread::Builder::new()
                .name("netlisten".into())
                .spawn(move || listen_loop(listener, handle, session, hub, stop, cfg))?
        };

        Ok(NetServer {
            addr,
            stop,
            hub,
            session,
            listener: Some(jh),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloned in-process session — the harness fast path still works
    /// alongside the TCP front door (its completions count as *unowned*
    /// in the hub; they are drained and dropped by the pump).
    pub fn session(&self) -> Session {
        self.session.clone()
    }

    /// The completion router, for conservation accounting
    /// (`routed + orphaned + unowned` = completions drained).
    pub fn hub(&self) -> &CompletionHub {
        &self.hub
    }

    /// Stop accepting, drain in-flight work (bounded by a deadline),
    /// join every thread, and hand back the engine plus the merged
    /// network-side [`ThreadStats`]. Does **not** shut the engine down —
    /// that stays the caller's call.
    pub fn shutdown(mut self) -> (EngineHandle, ThreadStats) {
        let jh = self.listener.take().expect("shutdown is once");
        request_stop(&self.stop, &jh);
        jh.join().expect("netlisten panicked")
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if let Some(jh) = self.listener.take() {
            request_stop(&self.stop, &jh);
            let _ = jh.join();
        }
    }
}

/// Raise the stop flag and nudge the listener out of its park (the flag
/// is part of its wait predicate, so a bare `unpark` is enough).
fn request_stop<T>(stop: &AtomicBool, listener: &JoinHandle<T>) {
    stop.store(true, Ordering::SeqCst);
    listener.thread().unpark();
}

/// Accept + pump loop; owns the engine handle for its whole life.
fn listen_loop(
    listener: TcpListener,
    mut handle: EngineHandle,
    session: Session,
    hub: Arc<CompletionHub>,
    stop: Arc<AtomicBool>,
    cfg: NetConfig,
) -> (EngineHandle, ThreadStats) {
    let _sim = sim::enroll("netlisten");
    // Poison is ignored: a half-merged total is still a total of counters.
    let conn_stats: Arc<Mutex<ThreadStats>> = Arc::default();
    // Each live connection's reader thread and its socket, kept so a
    // stop request can end the reader's timeout-less `read`.
    let mut conns: Vec<(JoinHandle<()>, Arc<TcpStream>)> = Vec::new();
    // Connections still running; the last one out nudges this thread,
    // so a stop request waits for them on an event, not on a poll.
    let live = Arc::new(AtomicUsize::new(0));
    let me = std::thread::current();
    let mut next_conn = 0usize;
    let mut drained: Vec<Completion> = Vec::new();
    let mut stopping = false;
    // `accept` is a syscall and this loop turns once per completion
    // batch: poll it on its own clock, not on every turn.
    let mut next_accept = Instant::now();

    loop {
        let mut progress = false;

        if stop.load(Ordering::Relaxed) {
            if !stopping {
                stopping = true;
                // Readers are blocked in `read` with no timeout: end it
                // for them (EOF). Each then runs its close protocol.
                for (_, stream) in &conns {
                    let _ = stream.shutdown(Shutdown::Read);
                }
            }
        } else if Instant::now() >= next_accept {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progress = true;
                    // Finished connections go, and their sockets' fds
                    // with them.
                    conns.retain(|(reader, _)| !reader.is_finished());
                    let name = format!("netconn{next_conn}");
                    next_conn += 1;
                    let stream = Arc::new(stream);
                    let conn = Conn {
                        stream: Arc::clone(&stream),
                        session: session.clone(),
                        hub: Arc::clone(&hub),
                        stop: Arc::clone(&stop),
                        cfg: cfg.clone(),
                    };
                    let rx = hub.register(cfg.client_ring);
                    let client = rx.id();
                    let stats = Arc::clone(&conn_stats);
                    live.fetch_add(1, Ordering::Relaxed);
                    let leave = Leave(Arc::clone(&live), me.clone());
                    let spawned = std::thread::Builder::new()
                        .name(name.clone())
                        .spawn(move || {
                            let _leave = leave;
                            let _sim = sim::enroll(&name);
                            let local = conn.serve(rx, &name);
                            (stats.lock())
                                .unwrap_or_else(PoisonError::into_inner)
                                .merge(&local);
                        });
                    match spawned {
                        Ok(jh) => conns.push((jh, stream)),
                        // Out of threads: this one connection goes (the
                        // dropped closure closes its socket and counts
                        // it out of `live`); the rest are still served.
                        Err(_) => hub.unregister(client),
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Nobody waiting — or a transient failure (EMFILE and
                // friends): keep serving existing connections.
                Err(_) => next_accept = Instant::now() + ACCEPT_POLL,
            }
        }

        drained.clear();
        if handle.drain_completions(&mut drained) > 0 {
            hub.route(&drained);
            progress = true;
        }

        let all_gone = || live.load(Ordering::Acquire) == 0;
        if stopping && all_gone() {
            break;
        }
        if !progress {
            // Besides completions (and, on the clock, connections): a
            // stop request, then the last connection leaving.
            handle.wait_completions(ACCEPT_POLL, || {
                stop.load(Ordering::Relaxed) && (!stopping || all_gone())
            });
        }
    }

    for (reader, _) in conns {
        let _ = reader.join();
    }
    // Final pump: route anything the last connections left behind so the
    // hub's conservation counters (orphaned) balance.
    drained.clear();
    if handle.drain_completions(&mut drained) > 0 {
        hub.route(&drained);
    }
    let stats = conn_stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (handle, stats)
}

/// Dropped as a connection thread exits (unwinding included): one fewer
/// live connection, and a nudge for the listener that may be waiting
/// for the last.
struct Leave(Arc<AtomicUsize>, std::thread::Thread);

impl Drop for Leave {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
        self.1.unpark();
    }
}

/// What a connection's two halves share: counters and one doorbell.
#[derive(Default)]
struct Link {
    /// Tickets the engine accepted from this connection. Bumped by the
    /// reader only; final once `reader_done` is set.
    accepted: AtomicU64,
    /// Completions the writer has taken off the hub.
    answered: AtomicU64,
    /// The reader has left its loop: no further ticket will be accepted
    /// and the connection is closing.
    reader_done: AtomicBool,
    /// The socket is gone (peer closed, I/O error, wire desync):
    /// responses have nowhere to go.
    dead: AtomicBool,
    /// Rung by the writer whenever `answered` moves — the reader's
    /// "the engine made room" event while requests are parked.
    space: Doorbell,
}

/// One accepted connection, before it splits into its two halves.
struct Conn {
    stream: Arc<TcpStream>,
    session: Session,
    hub: Arc<CompletionHub>,
    stop: Arc<AtomicBool>,
    cfg: NetConfig,
}

impl Conn {
    /// Run the connection on the calling thread (which becomes the
    /// reader, `name`) plus a spawned writer (`{name}w`). Returns both
    /// halves' stats, merged.
    fn serve(self, rx: ClientRx, name: &str) -> ThreadStats {
        let _ = self.stream.set_nodelay(true);
        let _ = self.stream.set_write_timeout(Some(WRITE_STALL));
        let link = Arc::new(Link::default());
        let client_id = rx.id();
        let writer_bell = Arc::clone(rx.doorbell());
        let writer = Writer {
            stream: Arc::clone(&self.stream),
            rx,
            link: Arc::clone(&link),
            stop: Arc::clone(&self.stop),
            batch_max: self.cfg.batch_max.max(1),
            outbox: Vec::new(),
            wbuf: Vec::new(),
            closing_since: None,
            stats: ThreadStats::default(),
        };
        let writer = {
            let name = format!("{name}w");
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || {
                    let _sim = sim::enroll(&name);
                    writer.run()
                })
                .expect("spawn netconn writer")
        };

        let mut reader = Reader {
            stream: &self.stream,
            session: &self.session,
            client_id,
            link: &link,
            stop: &self.stop,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            backpressure_cap: self.cfg.backpressure_cap.max(1),
            rdbuf: vec![0u8; self.cfg.read_buf.max(512)],
            eof: false,
            stats: ThreadStats::default(),
        };
        reader.run();
        let mut stats = reader.stats;
        stats.net_bad_frames += reader.decoder.bad_frames();

        link.reader_done.store(true, Ordering::Release);
        writer_bell.ring();
        if let Ok(w) = writer.join() {
            stats.merge(&w);
        }
        // Unregister only now: completions for tickets still in flight
        // (dead socket, or the drain deadline passed) will be counted as
        // orphaned by the pump, keeping per-connection conservation
        // auditable.
        self.hub.unregister(client_id);
        let _ = self.stream.shutdown(Shutdown::Both);
        stats
    }
}

/// The reading half: socket → decoder → engine.
struct Reader<'a> {
    stream: &'a TcpStream,
    session: &'a Session,
    client_id: u32,
    link: &'a Link,
    stop: &'a AtomicBool,
    decoder: FrameDecoder,
    /// Decoded but not yet accepted by the engine (ring-full
    /// backpressure parks requests here, and the socket goes unread
    /// until they are gone). Refilled from the decoder only while
    /// shorter than `backpressure_cap`.
    pending: VecDeque<(u64, Program)>,
    backpressure_cap: usize,
    rdbuf: Vec<u8>,
    /// The peer finished sending (or the listener ended our read): no
    /// more requests will arrive, but the socket still takes responses.
    eof: bool,
    stats: ThreadStats,
}

impl Reader<'_> {
    fn closing(&self) -> bool {
        self.eof || self.link.dead.load(Ordering::Acquire) || self.stop.load(Ordering::Relaxed)
    }

    fn run(&mut self) {
        let mut closing_since: Option<Instant> = None;
        loop {
            // Decode before looking at `dead`: this is where a desynced
            // stream is discovered.
            self.decode();
            let closing = self.closing();
            if self.pending.is_empty() {
                // A stop request ends the connection between reads:
                // everything already off the wire has been submitted.
                if closing {
                    return;
                }
                self.read_socket();
                continue;
            }
            // Parked work goes first, FIFO per connection. A dead or
            // stopping connection still submits it: work that made it
            // off the wire is owed a ticket (whose completion is
            // answered if the socket lives, orphaned if not).
            match self.offer() {
                Offer::EngineClosed => {
                    // These can never be accepted; the closing socket
                    // is the client's (only) signal.
                    self.pending.clear();
                    return;
                }
                Offer::Accepted => {}
                Offer::Full => {
                    let now = Instant::now();
                    let give_up =
                        closing.then(|| *closing_since.get_or_insert(now) + DRAIN_DEADLINE);
                    if give_up.is_some_and(|at| now >= at) {
                        return;
                    }
                    // Wait for the engine to make room. One of our own
                    // tickets coming back is the usual event; the poll
                    // covers rings full of other connections' work
                    // (nothing of ours will signal) and a writer stuck
                    // behind a peer that stopped reading.
                    let answered = self.link.answered.load(Ordering::Acquire);
                    self.link.space.wait_until(
                        || {
                            self.link.answered.load(Ordering::Acquire) != answered
                                || self.closing() != closing
                        },
                        Some(give_up.map_or(now + ROOM_POLL, |at| at.min(now + ROOM_POLL))),
                    );
                }
            }
        }
    }

    /// Offer the parked queue to the engine, front first: whatever it
    /// takes leaves the front, and the first refusal leaves everything
    /// from the refused request on parked, in order.
    fn offer(&mut self) -> Offer {
        match self
            .session
            .try_submit_queue(&mut self.pending, self.client_id)
        {
            Ok(0) => Offer::Full,
            Ok(n) => {
                self.link.accepted.fetch_add(n as u64, Ordering::Release);
                Offer::Accepted
            }
            Err(EngineClosed) => Offer::EngineClosed,
        }
    }

    /// One blocking `read` (no timeout: bytes, EOF, or the listener's
    /// `shutdown(Read)` end it), fed to the decoder.
    fn read_socket(&mut self) {
        let mut n = match self.stream.read(&mut self.rdbuf) {
            // The peer half-closed, or the listener ended our read after
            // a stop request: a graceful close either way, the socket
            // still takes the responses it is owed. (A peer that is
            // gone altogether fails the writer's next `write`.)
            Ok(0) => {
                self.eof = true;
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => return,
            Err(_) => return self.die(),
        };
        match failpoints().hit(FP_NET_READ) {
            Some(FailAction::Err) => return self.die(),
            Some(FailAction::Torn(keep)) => n = n.min(keep as usize),
            Some(FailAction::Maybe(_)) | None => {}
        }
        self.stats.net_read_calls += 1;
        self.decoder.feed(&self.rdbuf[..n]);
    }

    /// Decode buffered frames into `pending`, up to the backpressure
    /// cap: what does not fit stays as bytes in the decoder.
    fn decode(&mut self) {
        while self.pending.len() < self.backpressure_cap {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Request(reqs))) => {
                    self.stats.net_rx_frames += 1;
                    self.stats.net_rx_txns += reqs.len() as u64;
                    self.stats.net_rx_batch.record(reqs.len() as u64);
                    self.pending.extend(reqs);
                }
                Ok(Some(Frame::Response(_))) => {
                    // Clients don't send responses; treat as a
                    // malformed-but-framed message and move on.
                    self.stats.net_bad_frames += 1;
                }
                Ok(None) => return,
                Err(WireError::Desync(_)) => return self.die(),
            }
        }
    }

    fn die(&mut self) {
        self.link.dead.store(true, Ordering::Release);
    }
}

enum Offer {
    /// The engine took at least one request.
    Accepted,
    /// Every destination ring was full.
    Full,
    /// The engine is shutting down and will never take the rest.
    EngineClosed,
}

/// The writing half: hub ring → response frames → socket.
struct Writer {
    stream: Arc<TcpStream>,
    rx: ClientRx,
    link: Arc<Link>,
    stop: Arc<AtomicBool>,
    batch_max: usize,
    /// One frame's completions, translated to wire messages.
    outbox: Vec<CompletionMsg>,
    wbuf: Vec<u8>,
    /// When this half first saw the connection closing.
    closing_since: Option<Instant>,
    stats: ThreadStats,
}

impl Writer {
    fn run(mut self) -> ThreadStats {
        let bell = Arc::clone(self.rx.doorbell());
        // The response frame being filled, and the size it is due at.
        let mut frame: Vec<Completion> = Vec::new();
        let mut need = 0;
        let mut answered = 0u64;
        loop {
            // Read before draining: if the reader was done by now,
            // `accepted` is final and a dry ring below means what it
            // says.
            let reader_done = self.link.reader_done.load(Ordering::Acquire);

            let held = frame.len();
            while self.rx.drain_into(&mut frame, usize::MAX) > 0 {}
            let fresh = (frame.len() - held) as u64;
            if fresh > 0 {
                if held == 0 {
                    // The frame's first completion: it is due once it
                    // carries half of what the connection has in the
                    // engine right now. The reader publishes `accepted`
                    // after its submit call returns, so completions can
                    // get here first: the count saturates and the frame
                    // is due at once.
                    let in_engine =
                        (self.link.accepted.load(Ordering::Acquire)).saturating_sub(answered);
                    need = (in_engine / 2).clamp(1, self.batch_max as u64) as usize;
                }
                answered += fresh;
                self.link.answered.store(answered, Ordering::Release);
                self.link.space.ring();
            }
            let dead = self.link.dead.load(Ordering::Acquire);
            if !frame.is_empty()
                && (frame.len() >= need || reader_done || dead || self.stop.load(Ordering::Relaxed))
            {
                // A dead socket skips the send — the drained completions
                // are already accounted (routed) and writes can only
                // fail.
                if !dead {
                    self.send(&frame);
                }
                frame.clear();
                continue;
            }

            if !reader_done {
                let (rx, link) = (&self.rx, &self.link);
                bell.wait(|| !rx.is_empty() || link.reader_done.load(Ordering::Acquire));
                continue;
            }
            // Closing, and nothing held. A dead socket exits at once; a
            // graceful close waits — bounded — for in-flight tickets so
            // the client gets its answers.
            let deadline = self.close_deadline();
            if dead
                || answered == self.link.accepted.load(Ordering::Acquire)
                || deadline.is_none_or(|d| Instant::now() >= d)
            {
                return self.stats;
            }
            let rx = &self.rx;
            bell.wait_until(|| !rx.is_empty(), deadline);
        }
    }

    /// `None` while the connection is open; once the server is stopping
    /// or the reader is done, when this half's patience with the close
    /// runs out.
    fn close_deadline(&mut self) -> Option<Instant> {
        if !self.stop.load(Ordering::Relaxed) && !self.link.reader_done.load(Ordering::Acquire) {
            return None;
        }
        Some(*self.closing_since.get_or_insert_with(Instant::now) + DRAIN_DEADLINE)
    }

    /// Encode `comp` as response frames (one per `batch_max` chunk) and
    /// push the bytes out, normally with one `write`.
    fn send(&mut self, comp: &[Completion]) {
        self.wbuf.clear();
        for chunk in comp.chunks(self.batch_max) {
            self.outbox.clear();
            self.outbox.extend(chunk.iter().map(|c| CompletionMsg {
                req_id: c.tag,
                latency_ns: c.latency_ns,
            }));
            encode_response(&self.outbox, &mut self.wbuf);
            self.stats.net_tx_frames += 1;
            self.stats.net_tx_completions += chunk.len() as u64;
            self.stats.net_tx_batch.record(chunk.len() as u64);
        }
        let mut sent = 0;
        while sent < self.wbuf.len() {
            match (&*self.stream).write(&self.wbuf[sent..]) {
                Ok(0) => return self.die(),
                Ok(n) => {
                    self.stats.net_write_calls += 1;
                    sent += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The peer is not reading (blocking sockets report a
                // write timeout as either kind). Keep the tail and keep
                // trying — unless the connection is closing and has run
                // out of patience.
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.close_deadline().is_some_and(|d| Instant::now() >= d) {
                        return self.die();
                    }
                }
                Err(_) => return self.die(),
            }
        }
    }

    /// The socket failed under a write: mark it and shut it down, which
    /// also ends the reader's blocking `read`.
    fn die(&mut self) {
        self.link.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_core::{CcAssignment, OrthrusConfig, OrthrusEngine};
    use orthrus_storage::Table;
    use orthrus_txn::Database;

    /// A writer on one end of a loopback socket, fed by hand: the test
    /// submits owned work, takes the completions off the engine itself
    /// and routes them to the writer in the portions it chooses.
    struct Rig {
        handle: EngineHandle,
        hub: CompletionHub,
        client: u32,
        peer: TcpStream,
        link: Arc<Link>,
        stop: Arc<AtomicBool>,
        bell: Arc<Doorbell>,
        writer: JoinHandle<ThreadStats>,
        done: VecDeque<Completion>,
        decoder: FrameDecoder,
    }

    impl Rig {
        fn new() -> Rig {
            let db = Arc::new(Database::Flat(Table::new(256, 64)));
            let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
            let handle = OrthrusEngine::service(db, cfg).start(7);
            let hub = CompletionHub::new();
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            let (stream, _) = listener.accept().expect("accept");
            peer.set_read_timeout(Some(Duration::from_millis(50)))
                .expect("timeout");
            let rx = hub.register(64);
            let (client, bell) = (rx.id(), Arc::clone(rx.doorbell()));
            let link = Arc::new(Link::default());
            let stop = Arc::new(AtomicBool::new(false));
            let writer = Writer {
                stream: Arc::new(stream),
                rx,
                link: Arc::clone(&link),
                stop: Arc::clone(&stop),
                batch_max: 256,
                outbox: Vec::new(),
                wbuf: Vec::new(),
                closing_since: None,
                stats: ThreadStats::default(),
            };
            Rig {
                handle,
                hub,
                client,
                peer,
                link,
                stop,
                bell,
                writer: std::thread::spawn(move || writer.run()),
                done: VecDeque::new(),
                decoder: FrameDecoder::new(),
            }
        }

        /// Run `n` owned transactions to completion and keep their
        /// completions back. `publish` says whether the reader's
        /// `accepted` count learns of them.
        fn commit(&mut self, n: u64, publish: bool) {
            let mut queue = (0..n)
                .map(|i| (i, Program::Rmw { keys: vec![i] }))
                .collect();
            let taken = (self.handle.session()).try_submit_queue(&mut queue, self.client);
            assert_eq!(taken, Ok(n as usize));
            if publish {
                self.link.accepted.fetch_add(n, Ordering::Release);
            }
            let mut got = Vec::new();
            while (got.len() as u64) < n {
                self.handle
                    .wait_completions(Duration::from_secs(10), || false);
                self.handle.drain_completions(&mut got);
            }
            self.done.extend(got);
        }

        /// Hand the writer the next `n` completions in one `route` call.
        fn route(&mut self, n: usize) {
            let batch: Vec<Completion> = self.done.drain(..n).collect();
            self.hub.route(&batch);
        }

        /// Read until `total` completions have arrived; the sizes of the
        /// response frames they came in.
        fn frames(&mut self, total: usize) -> Vec<usize> {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut sizes = Vec::new();
            while sizes.iter().sum::<usize>() < total {
                assert!(Instant::now() < deadline, "got {sizes:?} of {total}");
                sizes.extend(self.poll());
            }
            sizes
        }

        /// Nothing arrives for 50 ms.
        fn assert_quiet(&mut self, why: &str) {
            assert_eq!(self.poll(), [], "{why}");
        }

        /// One read (up to the 50 ms timeout); the frames it completed.
        fn poll(&mut self) -> Vec<usize> {
            let mut buf = [0u8; 4096];
            match self.peer.read(&mut buf) {
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("peer read: {e}"),
            }
            let mut sizes = Vec::new();
            while let Some(frame) = self.decoder.next_frame().expect("clean stream") {
                let Frame::Response(msgs) = frame else {
                    panic!("writer sent a request frame");
                };
                sizes.push(msgs.len());
            }
            sizes
        }

        fn finish(mut self) {
            self.link.reader_done.store(true, Ordering::Release);
            self.bell.ring();
            self.writer.join().expect("writer");
            self.handle.shutdown();
        }
    }

    #[test]
    fn a_frame_leaves_once_it_carries_half_of_what_is_in_the_engine() {
        let mut rig = Rig::new();
        rig.commit(8, true);
        // 8 in the engine when the first completion comes back: due at 4.
        rig.route(3);
        rig.assert_quiet("3 of 8 is a frame still filling");
        rig.route(1);
        assert_eq!(rig.frames(4), [4]);
        // 4 left: due at 2.
        rig.route(1);
        rig.assert_quiet("1 of 4");
        rig.route(1);
        assert_eq!(rig.frames(2), [2]);
        // 2 left: due at 1, and a bigger drain leaves whole.
        rig.route(2);
        assert_eq!(rig.frames(2), [2]);
        // One request in flight is answered at once.
        rig.commit(1, true);
        rig.route(1);
        assert_eq!(rig.frames(1), [1]);
        rig.finish();
    }

    #[test]
    fn a_held_frame_does_not_outlive_its_reader() {
        let mut rig = Rig::new();
        rig.commit(8, true);
        rig.route(3);
        rig.assert_quiet("3 of 8");
        rig.link.reader_done.store(true, Ordering::Release);
        rig.bell.ring();
        assert_eq!(rig.frames(3), [3], "the reader left: flush what is held");
        // Closing: what still comes back is not held either.
        rig.route(1);
        assert_eq!(rig.frames(1), [1]);
        rig.route(4);
        assert_eq!(rig.frames(4), [4]);
        rig.finish();
    }

    #[test]
    fn nothing_is_held_once_a_stop_is_requested() {
        let mut rig = Rig::new();
        rig.commit(8, true);
        rig.route(2);
        rig.assert_quiet("2 of 8");
        rig.stop.store(true, Ordering::SeqCst);
        rig.route(1);
        assert_eq!(rig.frames(3), [3]);
        rig.route(1);
        assert_eq!(rig.frames(1), [1]);
        rig.route(4);
        assert_eq!(rig.frames(4), [4]);
        rig.finish();
    }

    /// The reader publishes `accepted` after its submit call returns, so
    /// a quick engine's completions can reach the writer first.
    #[test]
    fn completions_that_beat_the_readers_count_are_answered_at_once() {
        let mut rig = Rig::new();
        rig.commit(3, false);
        rig.route(3);
        assert_eq!(rig.frames(3), [3], "accepted − answered saturates at 0");
        rig.link.accepted.fetch_add(3, Ordering::Release);
        rig.finish();
    }
}
