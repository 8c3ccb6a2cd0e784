//! # orthrus-net — the TCP front door
//!
//! Everything before this crate drives the engine in-process; real
//! deployments of the paper's design (Ren, Faleiro & Abadi, SIGMOD'16)
//! face clients over a network, and the wire is its own contention
//! point: a naive one-txn-per-syscall front-end bottlenecks long before
//! the lock manager does. This crate adds that missing layer:
//!
//! - [`codec`] — the framed binary protocol: length-prefixed, CRC'd,
//!   versioned frames (the same framing discipline as the command log)
//!   carrying batches of [`Program`](orthrus_txn::Program)s inbound and
//!   completion messages outbound, with a desync-free decoder that
//!   skips damaged-but-framed input and only gives up when the stream
//!   itself is unrecoverable.
//! - [`server`] — the listener/pump thread plus a reader and a writer
//!   thread per connection, every wait an event wait (blocking `read`,
//!   doorbell park) so no timer sits on the request → response path.
//!   Wire batching needs no controller: a writer sends a response frame
//!   once it carries half of what its connection has in the engine, so
//!   frames are single under a trickle and grow with the load the
//!   connection offers. Engine ring-full backpressure is mapped onto TCP flow
//!   control (stop reading → the window closes), and every accepted
//!   ticket is conserved per connection even through abrupt disconnects.
//! - [`client`] — a deliberately boring blocking client for load
//!   generation and tests.
//!
//! Requests are routed by their planned footprint *before* lane
//! selection: the submission path keys on
//! [`Program::routing_key`](orthrus_txn::Program::routing_key) (hot-key
//! hint, else the smallest static-footprint key), so the hint-less
//! partition-layer variants — transfers, adjusts, fused epoch batches —
//! land deterministically whether the engine behind the listener is a
//! single [`orthrus_core::OrthrusEngine`] or one partition of an
//! `orthrus-part` deployment. The codec carries all of those variants
//! verbatim (see `codec::tests::partition_layer_programs_roundtrip`).

pub mod client;
pub mod codec;
pub mod server;

pub use client::NetClient;
pub use codec::{CompletionMsg, Frame, FrameDecoder, WireError};
pub use server::{NetConfig, NetServer, FP_NET_READ};
