//! A minimal blocking client for the ORTHRUS wire protocol.
//!
//! This is the counterpart the load generator and the tests drive; it
//! is deliberately simple — one blocking socket, whose read timeout
//! only bounds how long an *idle* poll sits (see
//! [`NetClient::poll_responses`]) — so client-side behaviour never
//! confounds server-side measurements. It
//! still speaks the batched protocol: [`send_batch`] encodes any number
//! of programs into **one** request frame and one `write` syscall.
//!
//! [`send_batch`]: NetClient::send_batch

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use orthrus_txn::Program;

use crate::codec::{encode_request, CompletionMsg, Frame, FrameDecoder, WireError};

/// Blocking protocol client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    rdbuf: Vec<u8>,
    wire: Vec<u8>,
    next_req_id: u64,
}

impl NetClient {
    /// Connect with `TCP_NODELAY` and a read timeout (so
    /// [`poll_responses`](Self::poll_responses) returns instead of
    /// hanging when the server has nothing to say). The timeout asks
    /// for 1 ms; the kernel rounds `SO_RCVTIMEO` up to scheduler ticks,
    /// so expect one to two ticks — 8 ms measured at HZ=250.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(1)))?;
        Ok(NetClient {
            stream,
            decoder: FrameDecoder::new(),
            rdbuf: vec![0u8; 64 * 1024],
            wire: Vec::new(),
            next_req_id: 0,
        })
    }

    /// Request ids are minted densely per connection, so
    /// `next_req_id()` doubles as the sent-request count.
    pub fn next_req_id(&self) -> u64 {
        self.next_req_id
    }

    /// Encode `programs` as one request frame and push it with one
    /// `write_all`. Returns the request ids, in submission order; each
    /// comes back exactly once in a [`CompletionMsg`].
    pub fn send_batch(&mut self, programs: Vec<Program>) -> std::io::Result<Vec<u64>> {
        let reqs: Vec<(u64, Program)> = programs
            .into_iter()
            .map(|p| {
                let id = self.next_req_id;
                self.next_req_id += 1;
                (id, p)
            })
            .collect();
        self.wire.clear();
        encode_request(&reqs, &mut self.wire);
        self.stream.write_all(&self.wire)?;
        Ok(reqs.into_iter().map(|(id, _)| id).collect())
    }

    /// Raw frame escape hatch for protocol tests: write arbitrary bytes
    /// to the server in one call.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Pull whatever responses are available right now into `out`;
    /// returns how many arrived (0 on read timeout). Server-initiated
    /// close surfaces as `UnexpectedEof`.
    ///
    /// A response wakes the blocked read the moment its bytes arrive:
    /// the timeout is never on the response path. It is an idle wait
    /// only, and a coarse one — a `0` return comes after the
    /// tick-rounded timeout (8 ms at HZ=250, see
    /// [`connect`](Self::connect)), not after 1 ms. A caller with its
    /// own schedule to keep (an open-loop sender with nothing in
    /// flight) should sleep on that schedule instead of polling.
    pub fn poll_responses(&mut self, out: &mut Vec<CompletionMsg>) -> std::io::Result<usize> {
        let n = self.pop_decoded(out)?;
        if n > 0 {
            return Ok(n);
        }
        match self.stream.read(&mut self.rdbuf) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(k) => {
                self.decoder.feed(&self.rdbuf[..k]);
                self.pop_decoded(out)
            }
            // Blocking sockets report a read timeout as either kind,
            // depending on platform.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Keep polling until `want` responses arrive or `timeout` passes
    /// (then `TimedOut`). The workhorse of closed-loop test clients.
    pub fn recv_exact(
        &mut self,
        want: usize,
        timeout: Duration,
        out: &mut Vec<CompletionMsg>,
    ) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut got = 0usize;
        while got < want {
            got += self.poll_responses(out)?;
            if got < want && Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("got {got} of {want} responses before the deadline"),
                ));
            }
        }
        Ok(())
    }

    fn pop_decoded(&mut self, out: &mut Vec<CompletionMsg>) -> std::io::Result<usize> {
        let mut n = 0usize;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Response(msgs))) => {
                    n += msgs.len();
                    out.extend(msgs);
                }
                // Servers don't send requests; skip-and-count already
                // happened inside the decoder for malformed frames.
                Ok(Some(Frame::Request(_))) => {}
                Ok(None) => return Ok(n),
                Err(WireError::Desync(why)) => {
                    return Err(std::io::Error::new(ErrorKind::InvalidData, why))
                }
            }
        }
    }
}
