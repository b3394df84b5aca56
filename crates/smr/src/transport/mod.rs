//! The replica messaging substrate: authenticated point-to-point TCP links.
//!
//! Deployed BFT systems treat reconnecting, authenticated links as a
//! first-class subsystem, not an afterthought bolted onto the consensus
//! core:
//!
//! * [`tcp`] — [`TcpTransport`], the one transport the replica pump runs
//!   on: length-framed, HMAC-authenticated streams driven by a single
//!   poll-based [`reactor`] per replica, embedded in the replica's own
//!   thread (nonblocking accept/read/write, bounded per-connection write
//!   queues drained with vectored writes, client admission control), with
//!   automatic redial so a restarted replica rejoins without respawning the
//!   world. Sends are *at-most-once* (a torn connection or full outbox
//!   drops messages), which is exactly what the protocol layers already
//!   tolerate — consensus repairs via `FetchValue` and state transfer, the
//!   synchronizer via [`NetEvent::PeerUp`]-triggered resends. The same
//!   module holds the client side, [`TcpClientPool`] and [`TcpClient`] (a
//!   pool of one), which polls its connections from the caller's thread;
//! * [`reactor`] — the event loop itself plus its building blocks:
//!   incremental frame reassembly, pooled write queues, and the
//!   [`TransportStats`] counters;
//! * [`sys`] — the thin in-tree `poll(2)`/nonblocking-`connect(2)` wrapper
//!   (no external crates);
//! * [`frame`] — the shared wire format: a fixed 8-byte header (4-byte
//!   little-endian length + 4-byte truncated HMAC-SHA256 tag, exactly the
//!   `smartchain_codec::FRAME_BYTES` the simulator's NIC model charges)
//!   followed by the message's canonical [`smartchain_codec::Encode`] bytes;
//! * [`cluster`] — the deployment descriptor (`cluster.toml`): member
//!   addresses plus the cluster secret that pairwise link keys and
//!   deterministic per-replica consensus keys are derived from.

pub mod cluster;
pub mod frame;
pub mod reactor;
pub mod sys;
pub mod tcp;

pub use cluster::ClusterConfig;
pub use reactor::{StatsInner, TransportStats};
pub use tcp::{Injector, TcpClient, TcpClientPool, TcpConfig, TcpTransport};

use crate::ordering::SmrMsg;
use crate::types::{Reply, Request};
use smartchain_consensus::ReplicaId;

/// An inbound event surfaced by a transport to its replica loop.
#[derive(Debug)]
pub enum NetEvent {
    /// A message from peer replica `from` (authenticated by the link).
    Peer {
        /// Sending replica (established at the link handshake).
        from: ReplicaId,
        /// The message.
        msg: SmrMsg,
    },
    /// A client request.
    Client(Request),
    /// The link to `peer` was (re-)established — either our writer redialed
    /// it or the peer dialed in. Messages queued for the peer may have died
    /// with the previous connection; the replica should re-send protocol
    /// state the peer cannot recover on its own (see
    /// `OrderingCore::on_peer_reconnect`).
    PeerUp(ReplicaId),
    /// Orderly shutdown request (injected by the embedding).
    Shutdown,
}

/// Why a blocking receive returned without an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The transport is closed; no further events will arrive.
    Closed,
}

/// Where a replica writes: the four best-effort sends of [`TcpTransport`].
/// The runtime's [`ReplicaHost`](crate::runtime::ReplicaHost) is generic
/// over it, so the same host runs on sockets and, in tests, on an
/// in-memory net.
pub trait NetSink {
    /// Sends `msg` to peer replica `to`.
    fn send(&mut self, to: ReplicaId, msg: SmrMsg);
    /// Sends `msg` to every peer but ourselves.
    fn broadcast(&mut self, msg: &SmrMsg);
    /// Replies to a client (routed by `reply.client`).
    fn reply(&mut self, reply: Reply);
    /// Replies to every client of one decided batch.
    fn reply_all(&mut self, replies: Vec<Reply>);
}
