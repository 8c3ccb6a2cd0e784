//! End-to-end tests for the TCP front door (`orthrus-net`): loopback
//! round trips, per-connection ticket conservation, ring-full → TCP
//! flow-control backpressure, abrupt disconnects, torn reads, response
//! promptness (no timer; a response waits only for company that is
//! already in the engine), response-frame size, and shutdown.

mod common;

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::common::failpoint::{global as failpoints, FailAction};
use orthrus::core::{CcAssignment, EngineHandle, OrthrusConfig, OrthrusEngine};
use orthrus::net::{codec, FrameDecoder, NetClient, NetConfig, NetServer, FP_NET_READ};
use orthrus::storage::Table;
use orthrus::txn::{Database, Program};

fn engine(ingest_capacity: usize) -> EngineHandle {
    let db = Arc::new(Database::Flat(Table::new(1024, 64)));
    let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
    cfg.ingest_capacity = ingest_capacity;
    OrthrusEngine::service(db, cfg).start(7)
}

fn rmw(key: u64) -> Program {
    Program::Rmw { keys: vec![key] }
}

const DEADLINE: Duration = Duration::from_secs(20);

/// Clears the shared failpoint registry on drop, so a failing assertion
/// in one test cannot leave faults armed for the next (the registry is
/// process-global and these tests share a binary).
struct ArmedRegistry;

impl ArmedRegistry {
    fn arm(name: &str, action: FailAction, count: Option<u64>) -> Self {
        failpoints().clear();
        failpoints().configure(name, action, count);
        ArmedRegistry
    }
}

impl Drop for ArmedRegistry {
    fn drop(&mut self) {
        failpoints().clear();
    }
}

/// Several clients, each with its own request-id space: every request
/// must come back on its own connection exactly once, and the server's
/// conservation ledger must balance to zero loss.
#[test]
fn loopback_roundtrip_conserves_every_ticket_per_connection() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const BATCHES: usize = 5;
    const PER_BATCH: usize = 40;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut expected = HashSet::new();
                let mut got = Vec::new();
                for b in 0..BATCHES {
                    let programs = (0..PER_BATCH)
                        .map(|i| rmw((c * 7 + b * 3 + i) as u64))
                        .collect();
                    for id in client.send_batch(programs).expect("send") {
                        expected.insert(id);
                    }
                }
                client
                    .recv_exact(BATCHES * PER_BATCH, DEADLINE, &mut got)
                    .expect("all responses before deadline");
                let ids: HashSet<u64> = got.iter().map(|m| m.req_id).collect();
                assert_eq!(ids.len(), got.len(), "no request answered twice");
                assert_eq!(ids, expected, "exactly this connection's requests");
                assert!(got.iter().all(|m| m.latency_ns > 0));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let total = (CLIENTS * BATCHES * PER_BATCH) as u64;
    let (mut handle, stats) = server.shutdown();
    assert_eq!(stats.net_rx_txns, total, "every request decoded");
    assert_eq!(stats.net_tx_completions, total, "every completion sent");
    assert!(
        stats.net_read_calls <= stats.net_rx_txns,
        "batching must not inflate read syscalls past one per txn"
    );
    handle.shutdown();
}

/// Tiny ingest rings + a flood: the server must park rejected work and
/// stop reading (closing the TCP window) rather than drop or die — and
/// still answer everything.
#[test]
fn ring_full_backpressure_slows_the_wire_without_loss() {
    let _guard = common::serial();
    let cfg = NetConfig {
        backpressure_cap: 32,
        client_ring: 16,
        ..NetConfig::default()
    };
    let server = NetServer::start(engine(8), cfg).expect("bind loopback");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    const TOTAL: usize = 3000;
    let mut got = Vec::new();
    for b in 0..TOTAL / 100 {
        let programs = (0..100).map(|i| rmw((b * 100 + i) as u64 % 64)).collect();
        client.send_batch(programs).expect("send");
        // Keep draining while pushing so the client-side socket never
        // wedges both directions at once.
        let _ = client.poll_responses(&mut got);
    }
    client
        .recv_exact(TOTAL - got.len(), DEADLINE, &mut got)
        .expect("flood fully answered");
    let ids: HashSet<u64> = got.iter().map(|m| m.req_id).collect();
    assert_eq!(ids.len(), TOTAL, "every flooded request answered once");

    let (mut handle, stats) = server.shutdown();
    assert_eq!(stats.net_tx_completions, TOTAL as u64);
    assert!(
        stats.net_tx_frames < TOTAL as u64 / 2,
        "a backpressured flood must flush in batches, not one-by-one \
         ({} frames for {TOTAL} completions)",
        stats.net_tx_frames
    );
    handle.shutdown();
}

/// Drop the socket with submissions in flight: their completions are
/// counted as orphaned — never lost, never a panic — and the server
/// keeps serving other connections.
#[test]
fn abrupt_disconnect_orphans_inflight_tickets() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");

    const N: usize = 200;
    {
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let programs = (0..N).map(|i| rmw(i as u64)).collect();
        client.send_batch(programs).expect("send");
        // Dropped here: the OS sends FIN/RST with completions in flight.
    }

    // Every accepted ticket must eventually be accounted: either routed
    // (made it to the connection before the drop was noticed) or
    // orphaned (arrived after unregister). Nothing may vanish.
    let deadline = Instant::now() + DEADLINE;
    loop {
        let accounted = server.hub().routed() + server.hub().orphaned();
        if accounted >= N as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {accounted}/{N} completions accounted after disconnect"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The front door must still be open for business.
    let mut client = NetClient::connect(server.addr()).expect("reconnect");
    client.send_batch(vec![rmw(1)]).expect("send");
    let mut got = Vec::new();
    client
        .recv_exact(1, DEADLINE, &mut got)
        .expect("served after disconnect");

    let (mut handle, _) = server.shutdown();
    handle.shutdown();
}

/// A torn read (injected via the `net.read` failpoint) desyncs the
/// stream. The connection must close — no panic, no garbage responses —
/// while fresh connections still work and conservation holds.
#[test]
fn torn_read_failpoint_closes_the_connection_cleanly() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");

    // Tear exactly one read: the first 5 bytes survive (a valid header
    // prefix), the rest of that read vanishes mid-frame.
    let _armed = ArmedRegistry::arm(FP_NET_READ, FailAction::Torn(5), Some(1));
    {
        let mut client = NetClient::connect(server.addr()).expect("connect");
        client
            .send_batch((0..50).map(|i| rmw(i as u64)).collect())
            .expect("send");
        // A tear alone just looks like a half-arrived frame; the desync
        // shows when the *next* bytes land misaligned. Wait for the torn
        // read to actually consume the batch (the hit counter ticks on
        // the server's read), then send 0xff filler: it completes the
        // orphaned header with an implausible length — the fatal path.
        let deadline = Instant::now() + DEADLINE;
        while failpoints().hits(FP_NET_READ) == 0 {
            assert!(Instant::now() < deadline, "server never read the batch");
            std::thread::sleep(Duration::from_millis(1));
        }
        client.send_raw(&[0xffu8; 2048]).expect("send garbage tail");
        // The stream desyncs at the server; it must close on us rather
        // than answer with garbage.
        let mut got = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        // Poll until the server closes on us — the expected outcome.
        while client.poll_responses(&mut got).is_ok() {
            // Any responses that do arrive must be real req ids.
            assert!(got.iter().all(|m| m.req_id < 50));
            assert!(
                Instant::now() < deadline,
                "server never closed a desynced stream"
            );
        }
    }

    // Server survives; a clean connection is served normally.
    let mut client = NetClient::connect(server.addr()).expect("reconnect");
    client.send_batch(vec![rmw(3), rmw(4)]).expect("send");
    let mut got = Vec::new();
    client
        .recv_exact(2, DEADLINE, &mut got)
        .expect("served after torn read");

    let (mut handle, _) = server.shutdown();
    handle.shutdown();
}

/// A CRC-corrupted frame is skipped (counted, not fatal) and the frames
/// after it in the same write still execute: intact framing means a
/// damaged payload never desyncs the stream.
#[test]
fn corrupt_crc_frame_is_skipped_without_desync() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // Frame 1: valid encoding of req id 0, then flip a payload byte so
    // the CRC check fails. Frame 2: untouched, req id 1.
    let mut bad = Vec::new();
    codec::encode_request(&[(0, rmw(9))], &mut bad);
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    let mut good = Vec::new();
    codec::encode_request(&[(1, rmw(10))], &mut good);
    bad.extend_from_slice(&good);
    client.send_raw(&bad).expect("send");

    let mut got = Vec::new();
    client
        .recv_exact(1, DEADLINE, &mut got)
        .expect("good frame survives");
    assert_eq!(got[0].req_id, 1, "the corrupted frame must not execute");

    let (mut handle, stats) = server.shutdown();
    assert_eq!(stats.net_bad_frames, 1, "the skip must be counted");
    assert_eq!(stats.net_rx_txns, 1);
    handle.shutdown();
}

/// Responses are never held for company. The old connection loop kept a
/// response back until a steered batch size had piled up — and a steady
/// trickle never let it see the idle moment that forced a flush — so
/// once a few deep bursts had walked the setpoint up, each trickled
/// response waited for dozens of others (64 × 2 ms at one request per
/// 2 ms). Now a frame waits only for half of what the connection has in
/// the engine: with one request in flight, for nothing.
///
/// The client here is open-loop on purpose (one thread sends on a
/// clock, another timestamps arrivals): a client that waits for each
/// response before sending the next would hand the old server its idle
/// moment.
#[test]
fn a_trickle_after_a_burst_is_answered_one_by_one() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");

    // Warm-up: 256-deep bursts, each awaited in full — what a closed-
    // loop client's first second looks like.
    const BURST: u64 = 16 * 256;
    const TRICKLE: u64 = 200;
    const GAP: Duration = Duration::from_millis(2);
    const LIMIT: Duration = Duration::from_millis(20);

    let mut tx = TcpStream::connect(server.addr()).expect("connect");
    tx.set_nodelay(true).expect("nodelay");
    let mut rx = tx.try_clone().expect("clone");
    // Arrival times by request id, from a thread that only reads.
    let (arrived_tx, arrived) = mpsc::channel::<(u64, Instant)>();
    let receiver = std::thread::spawn(move || {
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 16 * 1024];
        let mut seen = 0;
        while seen < BURST + TRICKLE {
            let n = rx.read(&mut buf).expect("read");
            assert!(n > 0, "server closed early");
            let now = Instant::now();
            decoder.feed(&buf[..n]);
            while let Some(frame) = decoder.next_frame().expect("clean stream") {
                let codec::Frame::Response(msgs) = frame else {
                    panic!("server sent a request frame");
                };
                for m in msgs {
                    seen += 1;
                    arrived_tx.send((m.req_id, now)).expect("test thread alive");
                }
            }
        }
    });

    let mut wire = Vec::new();
    for base in (0..BURST).step_by(256) {
        let burst: Vec<(u64, Program)> = (base..base + 256).map(|i| (i, rmw(i % 64))).collect();
        wire.clear();
        codec::encode_request(&burst, &mut wire);
        tx.write_all(&wire).expect("send burst");
        for _ in 0..256 {
            arrived.recv_timeout(DEADLINE).expect("burst answered");
        }
    }

    let mut sent_at = Vec::with_capacity(TRICKLE as usize);
    let start = Instant::now();
    for i in 0..TRICKLE {
        let due = start + GAP * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        wire.clear();
        codec::encode_request(&[(BURST + i, rmw(i % 64))], &mut wire);
        sent_at.push(Instant::now());
        tx.write_all(&wire).expect("send");
    }
    let mut late = Vec::new();
    for _ in 0..TRICKLE {
        let (id, at) = arrived.recv_timeout(DEADLINE).expect("trickle answered");
        let took = at.saturating_duration_since(sent_at[(id - BURST) as usize]);
        if took > LIMIT {
            late.push((id, took));
        }
    }
    receiver.join().expect("receiver");
    // Not "none": this host deschedules a thread for tens of
    // milliseconds now and then. Held responses make *every* one late.
    assert!(
        late.len() <= TRICKLE as usize / 50,
        "{} of {TRICKLE} trickled responses took over {LIMIT:?}: {late:?}",
        late.len()
    );

    let (mut handle, stats) = server.shutdown();
    assert!(
        stats.net_tx_frames >= TRICKLE,
        "each trickled response leaves in its own frame ({} frames)",
        stats.net_tx_frames
    );
    handle.shutdown();
}

/// A lone request on a fresh connection is answered at once: nothing on
/// its path waits for a timer. (A socket read timeout did: nominally
/// 1 ms, 8 ms after rounding to scheduler ticks, and the only thing
/// that ever let the old connection loop look at its completions.)
#[test]
fn a_lone_request_on_a_cold_connection_is_answered_promptly() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    // Best of a few fresh connections: one deschedule of this thread
    // must not fail the test, and a timer on the path would slow all.
    let best = (0..5)
        .map(|i| {
            let mut client = NetClient::connect(server.addr()).expect("connect");
            let mut got = Vec::new();
            let t0 = Instant::now();
            client.send_batch(vec![rmw(i)]).expect("send");
            client.recv_exact(1, DEADLINE, &mut got).expect("answered");
            t0.elapsed()
        })
        .min()
        .expect("five tries");
    assert!(
        best < Duration::from_millis(5),
        "a lone request took {best:?} at best"
    );
    let (mut handle, _) = server.shutdown();
    handle.shutdown();
}

/// A request frame may carry a program with an empty key list — the codec
/// accepts one. It touches nothing, so it is answered without a lock
/// round, and the connection goes on: the request behind it, on both of
/// the engine's execution threads, is answered too. (One such frame used
/// to kill the execution thread it landed on; the server kept accepting
/// and nothing on that lane was ever answered again.)
#[test]
fn an_empty_key_list_is_answered_and_so_is_the_request_after_it() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut got = Vec::new();
    // Two of each: hint-less programs go to the lanes round-robin.
    for empty in [
        Program::Rmw { keys: vec![] },
        Program::Rmw { keys: vec![] },
        Program::ReadOnly { keys: vec![] },
        Program::ReadOnly { keys: vec![] },
    ] {
        let sent = client.send_batch(vec![empty]).expect("send");
        client
            .recv_exact(1, DEADLINE, &mut got)
            .expect("the empty program is answered");
        assert_eq!(got.pop().map(|c| c.req_id), Some(sent[0]));
    }
    let sent = client.send_batch((0..8).map(rmw).collect()).expect("send");
    client
        .recv_exact(sent.len(), DEADLINE, &mut got)
        .expect("the requests after it are answered");
    let answered: HashSet<u64> = got.iter().map(|c| c.req_id).collect();
    assert_eq!(answered, sent.into_iter().collect::<HashSet<u64>>());
    let (mut handle, _) = server.shutdown();
    let stats = handle.shutdown();
    assert_eq!(stats.totals.committed_all, 12);
}

/// Read response frames off `stream` until `want` completions have
/// arrived; returns how many completions each frame carried.
fn read_response_frames(stream: &mut TcpStream, want: usize) -> Vec<usize> {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut sizes = Vec::new();
    while sizes.iter().sum::<usize>() < want {
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server closed after {sizes:?} of {want}");
        decoder.feed(&buf[..n]);
        while let Some(frame) = decoder.next_frame().expect("clean stream") {
            let codec::Frame::Response(msgs) = frame else {
                panic!("server sent a request frame");
            };
            sizes.push(msgs.len());
        }
    }
    sizes
}

/// Frame size follows what the connection has in the engine, not which
/// thread the scheduler ran: 64 requests in one frame come back as
/// 32, 16, 8, … — a frame is due when it carries half of what was in
/// flight at its first completion. (Flushing whenever the completion
/// ring ran dry answered such a burst in ~30 frames once the engine
/// yielded its core between polls.)
#[test]
fn a_burst_is_answered_in_a_few_large_frames() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    let mut wire = Vec::new();
    let mut send = |stream: &mut TcpStream, ids: std::ops::Range<u64>| {
        let burst: Vec<(u64, Program)> = ids.map(|i| (i, rmw(i % 64))).collect();
        wire.clear();
        codec::encode_request(&burst, &mut wire);
        stream.write_all(&wire).expect("send");
    };
    // Warm: both connection threads exist and have run.
    send(&mut stream, 0..1);
    assert_eq!(read_response_frames(&mut stream, 1), [1]);
    // Best of three: a completion that beats the reader's count of what
    // it submitted leaves at once, in a small frame of its own.
    let fewest = (0..3u64)
        .map(|round| {
            send(&mut stream, 1 + round * 64..1 + (round + 1) * 64);
            let sizes = read_response_frames(&mut stream, 64);
            assert_eq!(sizes.iter().sum::<usize>(), 64);
            sizes
        })
        .min_by_key(Vec::len)
        .expect("three rounds");
    assert!(
        fewest.len() <= 8,
        "64 requests in one frame came back in {} frames: {fewest:?}",
        fewest.len()
    );
    let (mut handle, _) = server.shutdown();
    handle.shutdown();
}

/// A client that sends its requests and half-closes is owed every
/// response before the server closes its side: the reader's EOF flushes
/// the frame the writer was filling, and does not mark the socket dead.
#[test]
fn a_half_closed_connection_gets_all_its_responses_before_eof() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    let burst: Vec<(u64, Program)> = (0..8).map(|i| (i, rmw(i))).collect();
    let mut wire = Vec::new();
    codec::encode_request(&burst, &mut wire);
    stream.write_all(&wire).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let sizes = read_response_frames(&mut stream, 8);
    assert_eq!(sizes.iter().sum::<usize>(), 8, "{sizes:?}");
    assert_eq!(
        stream.read(&mut [0u8; 16]).expect("read"),
        0,
        "then the server closes its side"
    );
    let (mut handle, stats) = server.shutdown();
    assert_eq!(stats.net_tx_completions, 8);
    handle.shutdown();
}

/// Readers block in `read` with no timeout, so shutdown has to end that
/// read for them: two idle, still-open connections must not hold it up.
#[test]
fn shutdown_does_not_wait_for_idle_open_connections() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let mut clients: Vec<NetClient> = (0..2)
        .map(|_| NetClient::connect(server.addr()).expect("connect"))
        .collect();
    // One round trip each: both connections are accepted and their
    // readers are parked in `read` by the time shutdown starts.
    for c in &mut clients {
        c.send_batch(vec![rmw(1)]).expect("send");
        c.recv_exact(1, DEADLINE, &mut Vec::new())
            .expect("answered");
    }
    let t0 = Instant::now();
    let (mut handle, stats) = server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "shutdown took {took:?} with two idle connections open"
    );
    assert_eq!(stats.net_tx_completions, 2);
    // The server closed on them; they were not merely abandoned.
    for c in &mut clients {
        let err = c
            .recv_exact(1, DEADLINE, &mut Vec::new())
            .expect_err("closed connection");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }
    handle.shutdown();
}

/// Shutdown with work in flight: every ticket the engine accepted is
/// answered on the wire before the connection closes — the frame a
/// writer was still filling when the stop request came included.
#[test]
fn shutdown_delivers_every_inflight_response_before_closing() {
    let _guard = common::serial();
    let server = NetServer::start(engine(256), NetConfig::default()).expect("bind loopback");
    let session = server.session();
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // A thousand requests and not one response read: whatever has not
    // completed when shutdown starts is in flight, and nothing the
    // server already wrote has been acknowledged by the application.
    const N: u64 = 1000;
    for b in 0..N / 100 {
        let programs = (0..100).map(|i| rmw((b * 100 + i) % 64)).collect();
        client.send_batch(programs).expect("send");
    }
    let deadline = Instant::now() + DEADLINE;
    while session.accepted() < N {
        assert!(Instant::now() < deadline, "server never read the flood");
        std::thread::yield_now();
    }
    let (mut handle, stats) = server.shutdown();
    assert_eq!(stats.net_rx_txns, N);
    assert_eq!(
        stats.net_tx_completions, N,
        "every accepted ticket written before the close"
    );

    let mut got = Vec::new();
    client
        .recv_exact(N as usize, DEADLINE, &mut got)
        .expect("all responses readable after shutdown");
    let ids: HashSet<u64> = got.iter().map(|m| m.req_id).collect();
    assert_eq!(ids, (0..N).collect::<HashSet<u64>>(), "one response each");
    let err = client.poll_responses(&mut got).expect_err("then the close");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    handle.shutdown();
}

/// A peer that floods requests and never reads a response pins the
/// writer behind a full socket. Shutdown must still come back once the
/// close-drain deadline (5 s) has run out: neither half may wait on the
/// other for an event that only a reading peer could cause.
#[test]
fn shutdown_outlasts_a_flooding_peer_that_never_reads() {
    let _guard = common::serial();
    let server = NetServer::start(engine(8), NetConfig::default()).expect("bind loopback");
    let session = server.session();

    // Enough unread responses to pin the writer: a response is 16 bytes
    // on the wire, and here a never-reading loopback peer soaks up
    // 4–10 MB (both socket buffers, autotuned) before `write` stalls.
    const FLOOD: u64 = 600_000;
    let mut peer = TcpStream::connect(server.addr()).expect("connect");
    let flooder = std::thread::spawn(move || {
        let burst: Vec<(u64, Program)> = (0..256).map(|i| (i, rmw(i % 64))).collect();
        let mut wire = Vec::new();
        codec::encode_request(&burst, &mut wire);
        // Until the server closes on us.
        while peer.write_all(&wire).is_ok() {}
    });
    let deadline = Instant::now() + DEADLINE;
    while session.accepted() < FLOOD {
        assert!(Instant::now() < deadline, "server stopped taking the flood");
        std::thread::sleep(Duration::from_millis(10));
    }

    let t0 = Instant::now();
    let (mut handle, stats) = server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(7),
        "shutdown took {took:?} behind a peer that never reads"
    );
    assert!(stats.net_rx_txns >= FLOOD);
    flooder.join().expect("flooder");
    handle.shutdown();
}

/// The decoder itself never panics on arbitrary bytes — fuzz the whole
/// input space, not just mutations of valid frames.
#[test]
fn decoder_survives_arbitrary_garbage() {
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _ in 0..200 {
        let mut d = FrameDecoder::new();
        let len = (rng() % 512) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
        d.feed(&bytes);
        // Drain until quiescent; errors are fine, panics are not.
        while let Ok(Some(_)) = d.next_frame() {}
    }
}
