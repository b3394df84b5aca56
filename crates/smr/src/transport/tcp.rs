//! The real-socket transport: length-framed, HMAC-authenticated
//! TCP links over `std::net`, driven by one poll-based reactor embedded in
//! the replica loop's own thread.
//!
//! Topology: every ordered replica pair `(i → j)` has one connection, dialed
//! by `i` and used only for `i → j` traffic, so there is no tie-breaking and
//! a restarted replica simply redials. All sockets of one replica — the
//! listener, the out-links, every accepted peer and client connection —
//! are owned by a single [`reactor`](super::reactor) that the replica loop
//! drives directly: `send`/`broadcast`/`reply_all` encode frames into
//! pooled buffers inline, and `recv_timeout` runs the poll loop, draining
//! bounded per-connection write queues with vectored writes and surfacing
//! inbound frames as [`NetEvent`]s. No thread is spawned at all: thread
//! count is O(0) per replica beyond the loop itself, not O(connections),
//! so thousands of clients cost file descriptors — not stacks, and not a
//! context switch per frame (the measured bottleneck of the old
//! thread-pair design).
//!
//! Loss model: sends are at-most-once. A torn connection drops whatever was
//! in flight; the reactor redials, emits [`NetEvent::PeerUp`], and the
//! protocol layers re-send what cannot be regenerated (synchronizer state)
//! or repair through `FetchValue`/state transfer. A *full* bounded queue
//! also drops — but never silently: the drop is counted in
//! [`TransportStats`] and, for peer links, a synthetic `PeerUp` fires once
//! the queue drains so the same repair path runs. This is precisely the
//! fair-lossy link the consensus layer already assumes.

use super::frame::{read_frame, write_client_hello, write_frame, FrameKey};
use super::reactor::{FrameReader, Reactor, StatsInner, TransportStats, WriteQueue};
use super::sys::{poll_wait, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use super::{NetEvent, RecvError};
use crate::ordering::SmrMsg;
use crate::types::{Reply, Request};
use smartchain_codec::{from_bytes, to_bytes};
use smartchain_consensus::ReplicaId;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The write half of the reactor's wake pipe plus the dedup flag: any
/// thread can [`WakeHandle::wake`] a poll-blocked replica loop; repeated
/// wakes between two poll returns cost one pipe byte total.
#[derive(Debug)]
struct WakeHandle {
    stream: UnixStream,
    flag: Arc<AtomicBool>,
}

impl WakeHandle {
    fn wake(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            // A full pipe means wake bytes are already pending — safe to
            // drop the write either way.
            let _ = (&self.stream).write(&[1]);
        }
    }
}

/// A cloneable handle that injects [`NetEvent`]s into a running replica
/// loop from any thread — shutdown, test hooks — and wakes the loop's
/// poll so the event is seen promptly.
#[derive(Clone, Debug)]
pub struct Injector {
    tx: Sender<NetEvent>,
    wake: Arc<WakeHandle>,
}

impl Injector {
    /// Queues `event` for the replica loop and wakes its poll. Best
    /// effort: events sent after the transport dropped are discarded.
    pub fn send(&self, event: NetEvent) {
        if self.tx.send(event).is_ok() {
            self.wake.wake();
        }
    }
}

/// Configuration of one replica's TCP transport.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// This replica's id (index into `addrs`).
    pub me: ReplicaId,
    /// Listen/dial addresses of every replica, indexed by id.
    pub addrs: Vec<String>,
    /// Cluster secret that pairwise link keys derive from.
    pub secret: [u8; 32],
    /// View id carried in session handshakes.
    pub view: u64,
    /// Bounded per-connection write queue (frames); sends beyond it are
    /// dropped (at-most-once), counted, and repaired via `PeerUp`.
    pub outbox: usize,
    /// Redial backoff after a failed connect.
    pub reconnect_delay: Duration,
    /// Client admission cap: inbound connections beyond this (plus the
    /// reserved peer slots) are closed at accept.
    pub max_clients: usize,
}

impl TcpConfig {
    /// A config for replica `me` of a cluster at `addrs` under `secret`.
    pub fn new(me: ReplicaId, addrs: Vec<String>, secret: [u8; 32]) -> TcpConfig {
        TcpConfig {
            me,
            addrs,
            secret,
            view: 0,
            outbox: 1024,
            reconnect_delay: Duration::from_millis(50),
            max_clients: 1024,
        }
    }
}

/// The TCP transport of one replica: the reactor that owns every socket,
/// driven in place by whichever thread runs the replica loop.
pub struct TcpTransport {
    me: ReplicaId,
    n: usize,
    reactor: Reactor,
    injected: Receiver<NetEvent>,
    injected_tx: Sender<NetEvent>,
    wake: Arc<WakeHandle>,
    stats: Arc<StatsInner>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Binds `addrs[me]` and assembles the reactor.
    ///
    /// # Errors
    ///
    /// Fails when the listen address cannot be bound.
    pub fn bind(config: TcpConfig) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(&config.addrs[config.me])?;
        Self::from_listener(config, listener)
    }

    /// Assembles over an already-bound listener (port-0 deployments bind
    /// first, learn the real port, then exchange addresses).
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be inspected or made non-blocking, or
    /// when the wake pipe cannot be created.
    pub fn from_listener(config: TcpConfig, listener: TcpListener) -> io::Result<TcpTransport> {
        let n = config.addrs.len();
        let me = config.me;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let (injected_tx, injected) = mpsc::channel::<NetEvent>();
        let wake_flag = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let reactor = Reactor::new(
            &config,
            listener,
            wake_rx,
            Arc::clone(&wake_flag),
            Arc::clone(&stats),
        );
        Ok(TcpTransport {
            me,
            n,
            reactor,
            injected,
            injected_tx,
            wake: Arc::new(WakeHandle {
                stream: wake_tx,
                flag: wake_flag,
            }),
            stats,
            local_addr,
        })
    }

    /// The bound listen address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can inject events into this transport's replica loop
    /// (shutdown, testing hooks) from any thread.
    pub fn injector(&self) -> Injector {
        Injector {
            tx: self.injected_tx.clone(),
            wake: Arc::clone(&self.wake),
        }
    }

    /// A snapshot of this transport's counters.
    pub fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    /// The live counter cell — snapshot-able after the transport has moved
    /// into its replica thread.
    pub fn stats_handle(&self) -> Arc<StatsInner> {
        Arc::clone(&self.stats)
    }

    /// Tears the transport down, closing every connection it owns.
    pub fn shutdown(self) {}

    /// This replica's id.
    pub fn me(&self) -> ReplicaId {
        self.me
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Best-effort send to one peer. Sends are *at-most-once*: a torn
    /// connection or full outbox drops the message, which the protocol
    /// layers repair via `FetchValue`, state transfer and
    /// [`NetEvent::PeerUp`]-triggered resends.
    pub fn send(&mut self, to: ReplicaId, msg: SmrMsg) {
        if to != self.me && to < self.n {
            self.reactor.queue_send(to, &msg);
        }
    }

    /// Best-effort send to every peer but ourselves.
    pub fn broadcast(&mut self, msg: &SmrMsg) {
        // The payload is serialized once; only per-link headers/tags differ.
        self.reactor.queue_broadcast(msg);
    }

    /// Best-effort reply to a client (routed by `reply.client`).
    pub fn reply(&mut self, reply: Reply) {
        self.reactor.queue_replies(vec![reply]);
    }

    /// Best-effort replies to every client of one decided batch, queued in
    /// one reactor pass.
    pub fn reply_all(&mut self, replies: Vec<Reply>) {
        if !replies.is_empty() {
            self.reactor.queue_replies(replies);
        }
    }

    /// Blocking receive with timeout.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing arrived, [`RecvError::Closed`]
    /// when the transport shut down.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<NetEvent, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Injected events (shutdown) outrank socket traffic; buffered
            // socket events next; only then block in the poll.
            if let Ok(event) = self.injected.try_recv() {
                return Ok(event);
            }
            if let Some(event) = self.reactor.pop_event() {
                return Ok(event);
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|r| !r.is_zero())
            else {
                return Err(RecvError::Timeout);
            };
            self.reactor.poll_once(remaining);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<NetEvent> {
        if let Ok(event) = self.injected.try_recv() {
            return Some(event);
        }
        if let Some(event) = self.reactor.pop_event() {
            return Some(event);
        }
        self.reactor.poll_once(Duration::ZERO);
        self.reactor.pop_event()
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable address"))
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A TCP client of the replica cluster: one connection per replica, requests
/// broadcast to all, replies tallied to an `f+1` matching quorum.
pub struct TcpClient {
    client_id: u64,
    addrs: Vec<String>,
    conns: Vec<Option<TcpStream>>,
    replies: Receiver<Reply>,
    replies_tx: Sender<Reply>,
    readers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("client_id", &self.client_id)
            .field("replicas", &self.addrs.len())
            .finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Creates a client of the cluster at `addrs`. Connections are
    /// established lazily per send, so a down replica does not block
    /// construction.
    pub fn new(client_id: u64, addrs: Vec<String>) -> TcpClient {
        let (replies_tx, replies) = mpsc::channel();
        let conns = (0..addrs.len()).map(|_| None).collect();
        TcpClient {
            client_id,
            addrs,
            conns,
            replies,
            replies_tx,
            readers: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Ensures a live connection to `replica`, dialing if needed.
    fn ensure_conn(&mut self, replica: ReplicaId) -> Option<&mut TcpStream> {
        if self.conns[replica].is_none() {
            let addr = resolve(&self.addrs[replica]).ok()?;
            let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
            stream.set_nodelay(true).ok();
            write_client_hello(&mut stream, self.client_id).ok()?;
            // Reader for this connection's replies.
            let read_half = stream.try_clone().ok()?;
            let replies_tx = self.replies_tx.clone();
            let stop = Arc::clone(&self.stop);
            self.readers.retain(|h| !h.is_finished());
            self.readers.push(
                std::thread::Builder::new()
                    .name("sc-client-reader".into())
                    .spawn(move || client_reader(read_half, replies_tx, stop))
                    .expect("spawn client reader"),
            );
            self.conns[replica] = Some(stream);
        }
        self.conns[replica].as_mut()
    }

    /// Broadcasts `request` to every replica (best effort).
    pub fn submit(&mut self, request: &Request) {
        let key = FrameKey::client();
        let payload = to_bytes(&SmrMsg::Request(request.clone()));
        for replica in 0..self.addrs.len() {
            let ok = match self.ensure_conn(replica) {
                Some(stream) => write_frame(stream, &key, &payload).is_ok(),
                None => false,
            };
            if !ok {
                self.conns[replica] = None;
            }
        }
    }

    /// Submits `request` and waits for `quorum` matching replies,
    /// retransmitting every 500 ms.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no quorum forms within `deadline`.
    pub fn execute_request(
        &mut self,
        request: Request,
        quorum: usize,
        deadline: Duration,
    ) -> io::Result<Vec<u8>> {
        self.submit(&request);
        let deadline_at = std::time::Instant::now() + deadline;
        let mut tally: HashMap<Vec<u8>, std::collections::HashSet<ReplicaId>> = HashMap::new();
        let mut next_retransmit = std::time::Instant::now() + Duration::from_millis(500);
        loop {
            let now = std::time::Instant::now();
            if now >= deadline_at {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply quorum"));
            }
            if now >= next_retransmit {
                // Lost requests or replies (e.g. a replica restarting) are
                // repaired by client retransmission, as in the paper.
                self.submit(&request);
                next_retransmit = now + Duration::from_millis(500);
            }
            let wait = next_retransmit.min(deadline_at) - now;
            match self.replies.recv_timeout(wait) {
                Ok(reply) if reply.seq == request.seq && reply.client == request.client => {
                    let set = tally.entry(reply.result.clone()).or_default();
                    set.insert(reply.replica);
                    if set.len() >= quorum {
                        return Ok(reply.result);
                    }
                }
                Ok(_) => {}  // stale reply from an earlier operation
                Err(_) => {} // timeout tick: loop re-checks deadline
            }
        }
    }

    /// Closes every connection and joins the reader threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for conn in self.conns.iter().flatten() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

fn client_reader(mut stream: TcpStream, replies_tx: Sender<Reply>, stop: Arc<AtomicBool>) {
    let key = FrameKey::client();
    while !stop.load(Ordering::Relaxed) {
        let payload = match read_frame(&mut stream, &key) {
            Ok(p) => p,
            Err(_) => return,
        };
        if let Ok(SmrMsg::Reply(reply)) = from_bytes::<SmrMsg>(&payload) {
            if replies_tx.send(reply).is_err() {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-client driver (poll-based, zero threads)
// ---------------------------------------------------------------------------

/// How often an unanswered request is retransmitted by the pool.
const POOL_RETRANSMIT: Duration = Duration::from_millis(500);

struct PoolConn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
}

/// Per-result set of replicas that voted for it.
type ReplyTally = HashMap<Vec<u8>, std::collections::HashSet<ReplicaId>>;

struct PoolClient {
    id: u64,
    next_seq: u64,
    completed: u64,
    /// The in-flight request's seq and per-result reply tally.
    in_flight: Option<(u64, ReplyTally)>,
    last_sent: Instant,
    conns: Vec<Option<PoolConn>>,
}

/// Drives many logical clients over nonblocking sockets from a single
/// caller thread — the load-generation side of the 1k-client soak. Where
/// [`TcpClient`] spawns a reader thread per connection, the pool spawns
/// none: every connection of every client is multiplexed over one
/// `poll(2)` set, which is exactly the discipline the replica-side reactor
/// is being tested against.
pub struct TcpClientPool {
    addrs: Vec<String>,
    clients: Vec<PoolClient>,
}

impl std::fmt::Debug for TcpClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClientPool")
            .field("clients", &self.clients.len())
            .field("replicas", &self.addrs.len())
            .finish_non_exhaustive()
    }
}

impl TcpClientPool {
    /// Connects `count` logical clients (ids `first_id..first_id+count`) to
    /// every replica in `addrs`. Failed dials leave holes that requests
    /// simply skip — the quorum tally tolerates missing replicas.
    pub fn connect(addrs: Vec<String>, first_id: u64, count: usize) -> TcpClientPool {
        let now = Instant::now();
        let clients = (0..count as u64)
            .map(|i| {
                let id = first_id + i;
                let conns = (0..addrs.len())
                    .map(|replica| {
                        let addr = resolve(&addrs[replica]).ok()?;
                        let mut stream =
                            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
                        stream.set_nodelay(true).ok();
                        write_client_hello(&mut stream, id).ok()?;
                        stream.set_nonblocking(true).ok()?;
                        Some(PoolConn {
                            stream,
                            reader: FrameReader::new(),
                            wq: WriteQueue::new(64),
                        })
                    })
                    .collect();
                PoolClient {
                    id,
                    next_seq: 1,
                    completed: 0,
                    in_flight: None,
                    last_sent: now,
                    conns,
                }
            })
            .collect();
        TcpClientPool { addrs, clients }
    }

    /// Live connection count (diagnostics).
    pub fn connections(&self) -> usize {
        self.clients
            .iter()
            .map(|c| c.conns.iter().flatten().count())
            .sum()
    }

    /// Runs a closed loop: every client keeps exactly one request in
    /// flight until it has completed `ops_per_client` operations (a
    /// `quorum` of matching replies each), retransmitting unanswered
    /// requests. Returns the total operations completed before `deadline`.
    pub fn run_closed_loop(
        &mut self,
        ops_per_client: u64,
        quorum: usize,
        payload: &[u8],
        deadline: Duration,
    ) -> u64 {
        let deadline_at = Instant::now() + deadline;
        let target = ops_per_client * self.clients.len() as u64;
        loop {
            let now = Instant::now();
            let mut done = 0u64;
            // Issue / retransmit.
            for ci in 0..self.clients.len() {
                let client = &mut self.clients[ci];
                done += client.completed;
                if client.completed >= ops_per_client {
                    continue;
                }
                match &client.in_flight {
                    None => {
                        let seq = client.next_seq;
                        client.next_seq += 1;
                        client.in_flight = Some((seq, HashMap::new()));
                        client.last_sent = now;
                        Self::submit(client, payload, seq);
                    }
                    Some((seq, _)) if now.duration_since(client.last_sent) >= POOL_RETRANSMIT => {
                        let seq = *seq;
                        client.last_sent = now;
                        Self::submit(client, payload, seq);
                    }
                    Some(_) => {}
                }
            }
            if done >= target || now >= deadline_at {
                return done;
            }
            self.pump(deadline_at.min(now + POOL_RETRANSMIT), quorum);
        }
    }

    /// Encodes `seq`'s request once and queues it on every live connection
    /// (the client frame key is shared, so the bytes are identical).
    fn submit(client: &mut PoolClient, payload: &[u8], seq: u64) {
        let request = Request {
            client: client.id,
            seq,
            payload: payload.to_vec(),
            signature: None,
        };
        let mut frame = Vec::new();
        if super::frame::encode_frame_into(
            &mut frame,
            &FrameKey::client(),
            &SmrMsg::Request(request),
        )
        .is_err()
        {
            return;
        }
        for conn in client.conns.iter_mut().flatten() {
            // Full queue: skip — the retransmit timer repairs it.
            let _ = conn.wq.push(frame.clone());
        }
    }

    /// One poll round: flush pending writes, read replies, tally quorums.
    fn pump(&mut self, until: Instant, quorum: usize) {
        // Opportunistic flush before polling.
        for client in &mut self.clients {
            for slot in &mut client.conns {
                if let Some(conn) = slot {
                    if !conn.wq.is_empty() && conn.wq.drain(&mut conn.stream).is_err() {
                        *slot = None;
                    }
                }
            }
        }
        let mut fds = Vec::new();
        let mut index = Vec::new();
        for (ci, client) in self.clients.iter().enumerate() {
            for (ri, conn) in client.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                index.push((ci, ri));
            }
        }
        if fds.is_empty() {
            return;
        }
        let timeout = until.saturating_duration_since(Instant::now());
        let Ok(ready) = poll_wait(&mut fds, Some(timeout)) else {
            return;
        };
        if ready == 0 {
            return;
        }
        let key = FrameKey::client();
        for (fd, &(ci, ri)) in fds.iter().zip(&index) {
            if fd.revents == 0 {
                continue;
            }
            let client = &mut self.clients[ci];
            let mut replies = Vec::new();
            let mut drop_conn = false;
            {
                let Some(conn) = &mut client.conns[ri] else {
                    continue;
                };
                if fd.revents & POLLOUT != 0 && conn.wq.drain(&mut conn.stream).is_err() {
                    drop_conn = true;
                }
                if !drop_conn && fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    drop_conn = match conn.reader.fill(&mut conn.stream) {
                        Ok((_, eof)) => eof,
                        Err(_) => true,
                    };
                    loop {
                        match conn.reader.next_frame() {
                            Ok(Some((tag, payload))) if key.verify(&payload, &tag) => {
                                if let Ok(SmrMsg::Reply(reply)) = from_bytes::<SmrMsg>(&payload) {
                                    replies.push(reply);
                                }
                            }
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(_) => break,
                        }
                    }
                }
            }
            if drop_conn {
                client.conns[ri] = None;
            }
            for reply in replies {
                Self::tally(client, ri, reply, quorum);
            }
        }
    }

    fn tally(client: &mut PoolClient, _replica_conn: usize, reply: Reply, quorum: usize) {
        let Some((seq, tally)) = &mut client.in_flight else {
            return;
        };
        if reply.client != client.id || reply.seq != *seq {
            return; // stale reply from an earlier operation
        }
        let set = tally.entry(reply.result).or_default();
        set.insert(reply.replica);
        if set.len() >= quorum {
            client.in_flight = None;
            client.completed += 1;
        }
    }
}
