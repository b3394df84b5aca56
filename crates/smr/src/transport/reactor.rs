//! The event loop behind [`super::tcp::TcpTransport`]: one poll-driven
//! reactor per replica owning every peer and client socket — running
//! *inside* the replica loop's thread, not beside it.
//!
//! The previous backend spent a reader/writer thread pair per connection;
//! at 1k clients that is 2k+ threads and a context switch per frame. Here
//! a single reactor multiplexes everything over `poll(2)`:
//!
//! * nonblocking accept with an admission cap (peer slots are reserved, so
//!   a client flood cannot lock replicas out) and accept backoff;
//! * per-connection [`FrameReader`]s that reassemble frames from arbitrary
//!   TCP segmentation without blocking — torn frames simply wait in the
//!   buffer for the next readable event;
//! * per-connection bounded [`WriteQueue`]s drained with vectored writes,
//!   coalescing every frame queued since the last wakeup into few syscalls;
//!   a slow client fills only its own queue (drops counted), never the
//!   replica loop;
//! * demand-driven nonblocking dials for the `me → peer` out-links with
//!   the same redial/[`NetEvent::PeerUp`] semantics the writer threads had,
//!   plus overflow repair: an outbox overflow (silent drop in the old
//!   backend) now surfaces a synthetic `PeerUp` once the queue drains, so
//!   the synchronizer re-sends what was lost.
//!
//! The replica loop drives the reactor directly: `send`/`broadcast`/
//! `reply_all` encode frames into the bounded queues inline, and
//! `recv_timeout` runs `Reactor::poll_once`, which flushes queues, polls
//! every socket, and buffers inbound [`NetEvent`]s for the loop to pop.
//! No cross-thread handoff happens anywhere on the frame path — the
//! measured cost of the old design was exactly those per-frame context
//! switches. The only concurrency left is a one-byte wake pipe
//! (deduplicated by an atomic flag) so *other* threads — the cluster
//! harness injecting `Shutdown`, tests — can interrupt a blocking poll.

use super::frame::{
    decode_hello, encode_frame_into, frame_header, peer_hello_frame, FrameKey, Hello, HEADER_BYTES,
    MAX_FRAME, TAG_BYTES,
};
use super::sys::{
    connect_nonblocking, poll_wait, take_socket_error, Dial, PollFd, POLLERR, POLLHUP, POLLIN,
    POLLNVAL, POLLOUT,
};
use super::tcp::TcpConfig;
use super::NetEvent;
use crate::ordering::SmrMsg;
use crate::types::Reply;
use smartchain_codec::from_bytes;
use smartchain_consensus::ReplicaId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Incremental frame reading
// ---------------------------------------------------------------------------

/// Read chunk size per `read(2)`.
const READ_CHUNK: usize = 64 * 1024;

/// Reassembly capacity a [`FrameReader`] keeps once it has drained: past
/// this, the memory of a large frame (a state transfer, up to
/// `MAX_FRAME`) goes back instead of staying pinned to the connection.
const KEEP_CAPACITY: usize = 16 * READ_CHUNK;

thread_local! {
    /// The block every [`FrameReader`] on this thread reads into. A reader
    /// uses it only inside [`FrameReader::fill`], so one block per thread
    /// serves any number of connections — a replica with a thousand
    /// clients, or a client pool with thousands of sockets, pins 64 KiB
    /// per thread instead of 64 KiB per connection.
    static READ_SCRATCH: std::cell::RefCell<Box<[u8; READ_CHUNK]>> =
        std::cell::RefCell::new(Box::new([0u8; READ_CHUNK]));
}

/// Reassembles length-prefixed frames from a nonblocking stream. Bytes
/// accumulate across arbitrarily-torn reads (`EAGAIN` mid-frame included);
/// complete frames pop off the front.
///
/// Reads land in a per-thread scratch block and only the bytes actually
/// received are appended to the reassembly buffer — the naive
/// `resize(len + CHUNK, 0)` pattern memsets 64 KiB per readable event,
/// which at protocol frame sizes costs more than the read itself.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads everything currently available from `r` (stopping at
    /// `WouldBlock`). Returns `(bytes_read, saw_eof)`.
    ///
    /// # Errors
    ///
    /// Propagates hard I/O failures; `WouldBlock` and `Interrupted` are
    /// absorbed.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<(u64, bool)> {
        self.compact();
        READ_SCRATCH.with_borrow_mut(|scratch| self.fill_from(r, &mut scratch[..]))
    }

    fn fill_from(&mut self, r: &mut impl Read, scratch: &mut [u8]) -> io::Result<(u64, bool)> {
        let mut total = 0u64;
        loop {
            match r.read(scratch) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    total += n as u64;
                    // A short read usually means the socket buffer is
                    // drained; under level-triggered poll it is safe to
                    // stop here either way.
                    if n < READ_CHUNK {
                        return Ok((total, false));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok((total, false));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete frame, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an oversized length prefix (protocol violation —
    /// the connection should be dropped).
    pub fn next_frame(&mut self) -> io::Result<Option<([u8; TAG_BYTES], Vec<u8>)>> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length exceeds MAX_FRAME",
            ));
        }
        if avail.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        let mut tag = [0u8; TAG_BYTES];
        tag.copy_from_slice(&avail[4..HEADER_BYTES]);
        let payload = avail[HEADER_BYTES..HEADER_BYTES + len].to_vec();
        self.start += HEADER_BYTES + len;
        Ok(Some((tag, payload)))
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.buf.capacity() > KEEP_CAPACITY && self.buf.len() <= READ_CHUNK {
            self.buf.shrink_to(READ_CHUNK);
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded, pooled write queues with vectored drains
// ---------------------------------------------------------------------------

/// Max frames handed to one `writev` call (kernel `IOV_MAX` is 1024; 64
/// already amortizes the syscall completely for protocol-sized frames).
const MAX_IOVECS: usize = 64;
/// Buffers above this size are not recycled into the pool — one state
/// transfer must not pin megabytes per connection forever.
const POOL_MAX_BUF: usize = 256 * 1024;
/// Recycled buffers kept per queue.
const POOL_MAX_LEN: usize = 32;

/// Per-call outcome of [`WriteQueue::drain`], fed into [`StatsInner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainStats {
    /// `writev` syscalls issued.
    pub writev_calls: u64,
    /// Frames fully written.
    pub frames: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// One queued outbound frame.
///
/// Unicast traffic owns its bytes (header and payload staged contiguously in
/// a pooled buffer). Broadcast traffic is *shared*: the payload was encoded
/// once into an `Arc<[u8]>` that every peer's queue references, and only the
/// [`HEADER_BYTES`] header — whose truncated HMAC tag depends on the link
/// key — is per-queue. The vectored drain stitches header and body together
/// on the wire, so the receiver cannot tell the two apart.
#[derive(Debug)]
pub enum Frame {
    /// A frame staged whole in one buffer (header + payload).
    Owned(Vec<u8>),
    /// A per-link header over a payload buffer shared across queues.
    Shared {
        /// Length prefix + per-link tag for `body`.
        header: [u8; HEADER_BYTES],
        /// The encode-once payload, shared with every other peer's queue.
        body: Arc<[u8]>,
    },
}

impl Frame {
    /// Total wire bytes of this frame.
    fn len(&self) -> usize {
        match self {
            Frame::Owned(buf) => buf.len(),
            Frame::Shared { body, .. } => HEADER_BYTES + body.len(),
        }
    }
}

/// A bounded queue of encoded frames awaiting a writable socket, with a
/// small buffer pool so steady-state traffic allocates nothing.
#[derive(Debug)]
pub struct WriteQueue {
    q: VecDeque<Frame>,
    /// Bytes of `q[0]` already written (partial vectored writes resume here).
    head_off: usize,
    cap: usize,
    pool: Vec<Vec<u8>>,
}

impl WriteQueue {
    /// A queue admitting at most `cap` frames (minimum 1).
    pub fn new(cap: usize) -> WriteQueue {
        WriteQueue {
            q: VecDeque::new(),
            head_off: 0,
            cap: cap.max(1),
            pool: Vec::new(),
        }
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// A cleared buffer to encode the next frame into — pooled if possible.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() <= POOL_MAX_BUF && self.pool.len() < POOL_MAX_LEN {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Enqueues an encoded frame. Returns `false` — and recycles the
    /// buffer — when the queue is at capacity (the caller counts the drop).
    pub fn push(&mut self, frame: Vec<u8>) -> bool {
        if self.q.len() >= self.cap {
            self.recycle(frame);
            return false;
        }
        self.q.push_back(Frame::Owned(frame));
        true
    }

    /// Enqueues a shared-payload frame (the encode-once broadcast path):
    /// this queue stores only the per-link `header` and a reference to the
    /// payload encoded once for all peers. Returns `false` at capacity.
    pub fn push_shared(&mut self, header: [u8; HEADER_BYTES], body: Arc<[u8]>) -> bool {
        if self.q.len() >= self.cap {
            return false;
        }
        self.q.push_back(Frame::Shared { header, body });
        true
    }

    /// Enqueues at the *front*, bypassing the cap — session hellos must go
    /// out first even on a queue that filled while disconnected.
    pub fn push_front(&mut self, frame: Vec<u8>) {
        debug_assert_eq!(self.head_off, 0, "push_front under a partial write");
        self.q.push_front(Frame::Owned(frame));
    }

    /// Forgets partial-write progress: on a fresh connection the current
    /// head frame is resent from byte 0 (the old connection died, so the
    /// receiver never saw the partial bytes; duplicates are handled by
    /// protocol-level dedup anyway).
    pub fn reset_partial(&mut self) {
        self.head_off = 0;
    }

    /// Writes as much as `w` accepts via vectored writes, coalescing up to
    /// `MAX_IOVECS` frames per syscall. Stops cleanly at `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates hard write failures (including `Ok(0)` as `WriteZero`);
    /// the connection should be torn down and `reset_partial` called before
    /// reuse.
    pub fn drain(&mut self, w: &mut impl Write) -> io::Result<DrainStats> {
        let mut stats = DrainStats::default();
        loop {
            if self.q.is_empty() {
                return Ok(stats);
            }
            // A shared frame contributes up to two slices (detached header,
            // then the shared body); stop one slice short of the cap so
            // either shape still fits.
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.q.len().min(MAX_IOVECS));
            for (i, frame) in self.q.iter().enumerate() {
                if slices.len() + 1 >= MAX_IOVECS {
                    break;
                }
                let off = if i == 0 { self.head_off } else { 0 };
                match frame {
                    Frame::Owned(buf) => slices.push(IoSlice::new(&buf[off..])),
                    Frame::Shared { header, body } => {
                        if off < HEADER_BYTES {
                            slices.push(IoSlice::new(&header[off..]));
                            slices.push(IoSlice::new(body));
                        } else {
                            // Partial write stopped inside the body.
                            slices.push(IoSlice::new(&body[off - HEADER_BYTES..]));
                        }
                    }
                }
            }
            match w.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection accepted zero bytes",
                    ));
                }
                Ok(mut n) => {
                    stats.writev_calls += 1;
                    stats.bytes += n as u64;
                    while n > 0 {
                        let head_remaining = self.q[0].len() - self.head_off;
                        if n >= head_remaining {
                            n -= head_remaining;
                            let done = self.q.pop_front().expect("head exists");
                            self.head_off = 0;
                            stats.frames += 1;
                            if let Frame::Owned(buf) = done {
                                self.recycle(buf);
                            }
                        } else {
                            self.head_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(stats),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Shared transport counters, updated by the reactor thread and snapshotted
/// from anywhere via [`StatsInner::snapshot`].
#[derive(Debug, Default)]
pub struct StatsInner {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    writev_calls: AtomicU64,
    writev_frames: AtomicU64,
    broadcast_msgs: AtomicU64,
    broadcast_payload_encodes: AtomicU64,
    queue_full_drops: AtomicU64,
    accept_rejections: AtomicU64,
    handshake_failures: AtomicU64,
    peer_reconnects: AtomicU64,
    clients_connected: AtomicU64,
}

impl StatsInner {
    fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn drained(&self, d: &DrainStats) {
        self.add(&self.writev_calls, d.writev_calls);
        self.add(&self.writev_frames, d.frames);
        self.add(&self.frames_out, d.frames);
        self.add(&self.bytes_out, d.bytes);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> TransportStats {
        let get = |f: &AtomicU64| f.load(Ordering::Relaxed);
        TransportStats {
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            bytes_in: get(&self.bytes_in),
            bytes_out: get(&self.bytes_out),
            writev_calls: get(&self.writev_calls),
            writev_frames: get(&self.writev_frames),
            broadcast_msgs: get(&self.broadcast_msgs),
            broadcast_payload_encodes: get(&self.broadcast_payload_encodes),
            queue_full_drops: get(&self.queue_full_drops),
            accept_rejections: get(&self.accept_rejections),
            handshake_failures: get(&self.handshake_failures),
            peer_reconnects: get(&self.peer_reconnects),
            clients_connected: get(&self.clients_connected),
        }
    }
}

/// A snapshot of one transport's counters (see [`StatsInner`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Authenticated frames received (peer and client).
    pub frames_in: u64,
    /// Frames fully written to sockets.
    pub frames_out: u64,
    /// Payload+header bytes received.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Vectored-write syscalls issued.
    pub writev_calls: u64,
    /// Frames completed via those syscalls (`writev_frames / writev_calls`
    /// = average coalesce size).
    pub writev_frames: u64,
    /// Peer broadcasts issued by the replica loop.
    pub broadcast_msgs: u64,
    /// Payload serializations those broadcasts cost. With the encode-once
    /// fan-out this tracks `broadcast_msgs` one-to-one — *not* once per
    /// peer — because every peer queue shares the same payload buffer.
    pub broadcast_payload_encodes: u64,
    /// Frames dropped because a bounded write queue was full (slow peer or
    /// client throttled — never silent any more).
    pub queue_full_drops: u64,
    /// Inbound connections closed by the admission cap.
    pub accept_rejections: u64,
    /// Connections dropped for failed/expired/spoofed handshakes.
    pub handshake_failures: u64,
    /// Successful out-link (re)connects.
    pub peer_reconnects: u64,
    /// Currently-registered client connections (gauge).
    pub clients_connected: u64,
}

impl TransportStats {
    /// Average frames coalesced per vectored write.
    pub fn avg_coalesce(&self) -> f64 {
        if self.writev_calls == 0 {
            0.0
        } else {
            self.writev_frames as f64 / self.writev_calls as f64
        }
    }

    /// Average payload serializations per broadcast (≈ 1.0 with the
    /// encode-once fan-out; the pre-sharing transport paid one *copy* per
    /// peer on top of the encode).
    pub fn encodes_per_broadcast(&self) -> f64 {
        if self.broadcast_msgs == 0 {
            0.0
        } else {
            self.broadcast_payload_encodes as f64 / self.broadcast_msgs as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

/// How long an in-flight nonblocking dial may take before it is abandoned.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Redial backoff after a failed or abandoned dial, or a dropped link.
const RECONNECT_DELAY: Duration = Duration::from_millis(50);
/// How long an accepted connection may sit without completing its hello.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept pause after an admission-cap rejection (prevents accept-storm
/// spin while the cluster is saturated).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);
/// Poll timeout when no timer is pending.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// State of one demand-dialed `me → peer` out-link.
enum PeerState {
    /// No connection; dial when there is something to send and
    /// `redial_at` has passed.
    Idle,
    /// Nonblocking connect in flight (awaiting `POLLOUT`).
    Connecting {
        stream: TcpStream,
        deadline: Instant,
    },
    /// Live, handshake queued/sent.
    Connected { stream: TcpStream },
}

struct PeerLink {
    state: PeerState,
    wq: WriteQueue,
    key: FrameKey,
    /// At least one frame was dropped on a full queue since the last
    /// (re)connect or drain — emit a synthetic `PeerUp` when the queue
    /// next empties so the synchronizer re-sends what was lost.
    overflowed: bool,
    redial_at: Instant,
}

/// What an accepted connection turned out to be.
enum ConnKind {
    /// Hello not yet received.
    Pending { deadline: Instant },
    /// Authenticated inbound peer link (`peer → me` traffic only).
    PeerIn { from: ReplicaId, key: Box<FrameKey> },
    /// A client connection; replies route back over it.
    Client { id: u64 },
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    kind: ConnKind,
    wq: WriteQueue,
}

/// What a poll-set entry refers to.
#[derive(Clone, Copy)]
enum Target {
    Wake,
    Listener,
    Peer(usize),
    Conn(u64),
}

pub(super) struct Reactor {
    me: ReplicaId,
    n: usize,
    addrs: Vec<String>,
    secret: [u8; 32],
    outbox: usize,
    max_clients: usize,
    listener: TcpListener,
    wake_rx: UnixStream,
    wake_flag: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    client_key: FrameKey,
    peers: Vec<Option<PeerLink>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// client id → connection token (latest hello wins).
    clients: HashMap<u64, u64>,
    accept_paused_until: Option<Instant>,
    /// Inbound events awaiting pickup by the replica loop.
    ready: VecDeque<NetEvent>,
    /// Pollset scratch, reused across [`Reactor::poll_once`] calls so a
    /// thousand connections do not mean a thousand-entry allocation per
    /// poll.
    pollfds: Vec<PollFd>,
    poll_targets: Vec<Target>,
}

/// The first socket address `addr` resolves to.
pub(super) fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable address"))
}

impl Reactor {
    pub(super) fn new(
        config: &TcpConfig,
        listener: TcpListener,
        wake_rx: UnixStream,
        wake_flag: Arc<AtomicBool>,
        stats: Arc<StatsInner>,
    ) -> Reactor {
        let n = config.addrs.len();
        let now = Instant::now();
        let peers = (0..n)
            .map(|peer| {
                (peer != config.me).then(|| PeerLink {
                    state: PeerState::Idle,
                    wq: WriteQueue::new(config.outbox),
                    key: FrameKey::link(&config.secret, config.me, peer),
                    overflowed: false,
                    redial_at: now,
                })
            })
            .collect();
        Reactor {
            me: config.me,
            n,
            addrs: config.addrs.clone(),
            secret: config.secret,
            outbox: config.outbox,
            max_clients: config.max_clients,
            listener,
            wake_rx,
            wake_flag,
            stats,
            client_key: FrameKey::client(),
            peers,
            conns: HashMap::new(),
            next_token: 0,
            clients: HashMap::new(),
            accept_paused_until: None,
            ready: VecDeque::new(),
            pollfds: Vec::new(),
            poll_targets: Vec::new(),
        }
    }

    /// Inbound connection budget: every client slot plus one reserved slot
    /// per remote peer, so a client flood cannot lock replicas out.
    fn max_inbound(&self) -> usize {
        self.max_clients + self.n.saturating_sub(1)
    }

    fn emit(&mut self, event: NetEvent) {
        self.ready.push_back(event);
    }

    /// Pops the next buffered inbound event, if any.
    pub(super) fn pop_event(&mut self) -> Option<NetEvent> {
        self.ready.pop_front()
    }

    /// One turn of the event loop: run timers, flush pending writes, then
    /// block in `poll(2)` for at most `max_wait` (capped further by the
    /// nearest timer) and dispatch whatever readiness came back. Inbound
    /// frames land in the `ready` queue for [`Reactor::pop_event`].
    pub(super) fn poll_once(&mut self, max_wait: Duration) {
        let now = Instant::now();
        self.run_timers(now);
        self.flush_all();
        if !self.ready.is_empty() {
            // Timers/flushes produced events (overflow repair, PeerUp):
            // hand them to the caller before sleeping on the pollset.
            return;
        }
        self.build_pollset();
        let timeout = self.next_timeout(Instant::now()).min(max_wait);
        let mut fds = std::mem::take(&mut self.pollfds);
        let targets = std::mem::take(&mut self.poll_targets);
        let polled = poll_wait(&mut fds, Some(timeout));
        if matches!(polled, Ok(n) if n > 0) {
            for (fd, target) in fds.iter().zip(&targets) {
                if fd.revents == 0 {
                    continue;
                }
                match *target {
                    Target::Wake => self.handle_wake(),
                    Target::Listener => self.accept_ready(),
                    Target::Peer(idx) => self.peer_event(idx, fd.revents),
                    Target::Conn(token) => self.conn_event(token, fd.revents),
                }
            }
        }
        // Return the scratch buffers for the next call.
        self.pollfds = fds;
        self.poll_targets = targets;
    }

    // -- frame intake from the replica loop --------------------------------

    /// Queues `msg` for one peer (encoded under the link key).
    pub(super) fn queue_send(&mut self, to: ReplicaId, msg: &SmrMsg) {
        self.queue_peer_msg(to, msg);
    }

    /// Queues `msg` for every peer, encode-once: the payload is serialized
    /// into one shared `Arc<[u8]>` and every peer's queue references that
    /// same buffer — only the 8-byte per-link header (length + truncated
    /// HMAC tag under the pairwise key) is computed per peer.
    pub(super) fn queue_broadcast(&mut self, msg: &SmrMsg) {
        let payload = smartchain_codec::to_shared_bytes(msg);
        self.stats.add(&self.stats.broadcast_msgs, 1);
        self.stats.add(&self.stats.broadcast_payload_encodes, 1);
        for to in 0..self.n {
            if to != self.me {
                self.queue_peer_shared(to, &payload);
            }
        }
    }

    /// Queues a decided batch's replies onto their clients' connections.
    pub(super) fn queue_replies(&mut self, replies: Vec<Reply>) {
        for reply in replies {
            self.queue_reply(reply);
        }
    }

    fn handle_wake(&mut self) {
        // Clear the dedup flag *before* draining the pipe so a sender
        // racing with us either sees the flag clear (and writes a fresh
        // wake byte) or its byte is already in the pipe we drain below.
        self.wake_flag.store(false, Ordering::Release);
        let mut scratch = [0u8; 64];
        while matches!(self.wake_rx.read(&mut scratch), Ok(n) if n > 0) {}
    }

    fn queue_peer_msg(&mut self, to: ReplicaId, msg: &SmrMsg) {
        let Some(Some(link)) = self.peers.get_mut(to) else {
            return;
        };
        let mut buf = link.wq.take_buf();
        if encode_frame_into(&mut buf, &link.key, msg).is_err() || !link.wq.push(buf) {
            self.stats.add(&self.stats.queue_full_drops, 1);
            link.overflowed = true;
        }
    }

    fn queue_peer_shared(&mut self, to: ReplicaId, payload: &Arc<[u8]>) {
        let Some(Some(link)) = self.peers.get_mut(to) else {
            return;
        };
        let queued = match frame_header(&link.key, payload) {
            Ok(header) => link.wq.push_shared(header, Arc::clone(payload)),
            Err(_) => false,
        };
        if !queued {
            self.stats.add(&self.stats.queue_full_drops, 1);
            link.overflowed = true;
        }
    }

    fn queue_reply(&mut self, reply: Reply) {
        let Some(&token) = self.clients.get(&reply.client) else {
            return; // client gone; it will retransmit elsewhere
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut buf = conn.wq.take_buf();
        let msg = SmrMsg::Reply(reply);
        if encode_frame_into(&mut buf, &self.client_key, &msg).is_err() || !conn.wq.push(buf) {
            // Slow client: only *its* queue fills, only *its* replies drop.
            self.stats.add(&self.stats.queue_full_drops, 1);
        }
    }

    // -- timers ------------------------------------------------------------

    fn run_timers(&mut self, now: Instant) {
        for idx in 0..self.peers.len() {
            let Some(link) = &mut self.peers[idx] else {
                continue;
            };
            match &link.state {
                PeerState::Idle => {
                    if !link.wq.is_empty() && now >= link.redial_at {
                        self.start_dial(idx, now);
                    }
                }
                PeerState::Connecting { deadline, .. } => {
                    if now >= *deadline {
                        link.state = PeerState::Idle;
                        link.redial_at = now + RECONNECT_DELAY;
                    }
                }
                PeerState::Connected { .. } => {}
            }
        }
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(token, conn)| match conn.kind {
                ConnKind::Pending { deadline } if now >= deadline => Some(*token),
                _ => None,
            })
            .collect();
        for token in expired {
            self.stats.add(&self.stats.handshake_failures, 1);
            self.close_conn(token);
        }
        if matches!(self.accept_paused_until, Some(t) if now >= t) {
            self.accept_paused_until = None;
        }
    }

    fn next_timeout(&self, now: Instant) -> Duration {
        let mut deadline: Option<Instant> = None;
        let mut consider = |t: Instant| match deadline {
            Some(d) if d <= t => {}
            _ => deadline = Some(t),
        };
        for link in self.peers.iter().flatten() {
            match &link.state {
                PeerState::Idle if !link.wq.is_empty() => consider(link.redial_at),
                PeerState::Connecting { deadline, .. } => consider(*deadline),
                _ => {}
            }
        }
        for conn in self.conns.values() {
            if let ConnKind::Pending { deadline } = conn.kind {
                consider(deadline);
            }
        }
        if let Some(t) = self.accept_paused_until {
            consider(t);
        }
        match deadline {
            Some(t) => t.saturating_duration_since(now).min(IDLE_POLL),
            None => IDLE_POLL,
        }
    }

    // -- out-links ---------------------------------------------------------

    fn start_dial(&mut self, idx: usize, now: Instant) {
        let addr = match resolve(&self.addrs[idx]) {
            Ok(a) => a,
            Err(_) => {
                if let Some(link) = &mut self.peers[idx] {
                    link.redial_at = now + RECONNECT_DELAY;
                }
                return;
            }
        };
        match connect_nonblocking(&addr) {
            Ok(Dial::Connected(fd)) => self.finish_connect(idx, TcpStream::from(fd)),
            Ok(Dial::InProgress(fd)) => {
                if let Some(link) = &mut self.peers[idx] {
                    link.state = PeerState::Connecting {
                        stream: TcpStream::from(fd),
                        deadline: now + CONNECT_TIMEOUT,
                    };
                }
            }
            Err(_) => {
                if let Some(link) = &mut self.peers[idx] {
                    link.redial_at = now + RECONNECT_DELAY;
                }
            }
        }
    }

    fn finish_connect(&mut self, idx: usize, stream: TcpStream) {
        let hello = peer_hello_frame(&self.secret, self.me, idx);
        if let Some(link) = &mut self.peers[idx] {
            stream.set_nodelay(true).ok();
            // The old connection (if any) died mid-frame at worst: resend
            // the head frame whole, hello first.
            link.wq.reset_partial();
            link.wq.push_front(hello);
            link.state = PeerState::Connected { stream };
            // A fresh link makes queued-then-dropped traffic repairable via
            // the PeerUp below; don't double-signal.
            link.overflowed = false;
        }
        self.stats.add(&self.stats.peer_reconnects, 1);
        self.emit(NetEvent::PeerUp(idx));
        self.flush_peer(idx);
    }

    fn teardown_peer(&mut self, idx: usize) {
        if let Some(link) = &mut self.peers[idx] {
            link.state = PeerState::Idle;
            link.redial_at = Instant::now() + RECONNECT_DELAY;
            link.wq.reset_partial();
        }
    }

    fn peer_event(&mut self, idx: usize, revents: i16) {
        let Some(link) = &mut self.peers[idx] else {
            return;
        };
        match &mut link.state {
            PeerState::Idle => {}
            PeerState::Connecting { stream, .. } => {
                if revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0 {
                    match take_socket_error(stream.as_raw_fd()) {
                        Ok(()) if revents & POLLOUT != 0 => {
                            let PeerState::Connecting { stream, .. } =
                                std::mem::replace(&mut link.state, PeerState::Idle)
                            else {
                                unreachable!()
                            };
                            self.finish_connect(idx, stream);
                        }
                        _ => self.teardown_peer(idx),
                    }
                }
            }
            PeerState::Connected { stream } => {
                if revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0 {
                    // The out-link is one-directional: readable means EOF
                    // (peer died/restarted) or stray bytes we discard.
                    let mut scratch = [0u8; 4096];
                    loop {
                        match stream.read(&mut scratch) {
                            Ok(0) => {
                                self.teardown_peer(idx);
                                return;
                            }
                            Ok(_) => {}
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                self.teardown_peer(idx);
                                return;
                            }
                        }
                    }
                }
                if revents & POLLOUT != 0 {
                    self.flush_peer(idx);
                }
            }
        }
    }

    fn flush_peer(&mut self, idx: usize) {
        let Some(link) = &mut self.peers[idx] else {
            return;
        };
        let PeerState::Connected { stream } = &mut link.state else {
            return;
        };
        match link.wq.drain(stream) {
            Ok(d) => {
                self.stats.drained(&d);
                if link.wq.is_empty() && link.overflowed {
                    link.overflowed = false;
                    // Everything still queued made it out, but earlier
                    // frames were dropped on the floor: tell the replica
                    // loop so the synchronizer re-sends protocol state.
                    self.emit(NetEvent::PeerUp(idx));
                }
            }
            Err(_) => self.teardown_peer(idx),
        }
    }

    // -- inbound connections -----------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.max_inbound() {
                        // At capacity: close immediately and pause accepts
                        // briefly so a flood does not spin the loop.
                        self.stats.add(&self.stats.accept_rejections, 1);
                        self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        drop(stream);
                        return;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            reader: FrameReader::new(),
                            kind: ConnKind::Pending {
                                deadline: Instant::now() + HANDSHAKE_TIMEOUT,
                            },
                            wq: WriteQueue::new(self.outbox),
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, revents: i16) {
        if revents & POLLNVAL != 0 {
            self.close_conn(token);
            return;
        }
        if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
            self.conn_readable(token);
        }
        if revents & POLLOUT != 0 {
            self.flush_conn(token);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let mut frames = Vec::new();
        let mut close;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            close = match conn.reader.fill(&mut conn.stream) {
                Ok((bytes, eof)) => {
                    self.stats.add(&self.stats.bytes_in, bytes);
                    eof
                }
                Err(_) => true,
            };
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
        }
        for (tag, payload) in frames {
            if !self.on_frame(token, &tag, &payload) {
                close = true;
                break;
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Processes one complete frame. Returns `false` when the connection
    /// must be dropped (spoofed tag, garbage from a peer, bad hello).
    fn on_frame(&mut self, token: u64, tag: &[u8; TAG_BYTES], payload: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match &conn.kind {
            ConnKind::Pending { .. } => match decode_hello(tag, payload, &self.secret, self.me) {
                Ok(Hello::Peer { from, .. }) if from < self.n && from != self.me => {
                    conn.kind = ConnKind::PeerIn {
                        from,
                        key: Box::new(FrameKey::link(&self.secret, from, self.me)),
                    };
                    // The peer (re)dialed us: whatever we owed it on *our*
                    // out-link may also need repair — surface the event.
                    self.emit(NetEvent::PeerUp(from));
                    true
                }
                Ok(Hello::Client { client }) => {
                    conn.kind = ConnKind::Client { id: client };
                    // Latest hello wins: a reconnecting client's replies
                    // must route to its new connection.
                    self.clients.insert(client, token);
                    self.stats
                        .clients_connected
                        .store(self.clients.len() as u64, Ordering::Relaxed);
                    true
                }
                _ => {
                    self.stats.add(&self.stats.handshake_failures, 1);
                    false
                }
            },
            ConnKind::PeerIn { from, key } => {
                let from = *from;
                if !key.verify(payload, tag) {
                    return false; // spoofed or corrupted: drop the link
                }
                let Ok(msg) = from_bytes::<SmrMsg>(payload) else {
                    return false; // authenticated peers do not send garbage
                };
                self.stats.add(&self.stats.frames_in, 1);
                self.emit(NetEvent::Peer { from, msg });
                true
            }
            ConnKind::Client { .. } => {
                if !self.client_key.verify(payload, tag) {
                    return false;
                }
                self.stats.add(&self.stats.frames_in, 1);
                // Clients may only submit requests; anything else on a
                // client connection is ignored without being decoded.
                if let Ok(req) = SmrMsg::decode_request(payload) {
                    self.emit(NetEvent::Client(req));
                }
                true
            }
        }
    }

    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.wq.drain(&mut conn.stream) {
            Ok(d) => self.stats.drained(&d),
            Err(_) => self.close_conn(token),
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if let ConnKind::Client { id } = conn.kind {
                // Only unmap if this is still the client's live connection.
                if self.clients.get(&id) == Some(&token) {
                    self.clients.remove(&id);
                    self.stats
                        .clients_connected
                        .store(self.clients.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    // -- poll-set assembly -------------------------------------------------

    fn flush_all(&mut self) {
        for idx in 0..self.peers.len() {
            let flush = matches!(
                &self.peers[idx],
                Some(link) if !link.wq.is_empty()
                    && matches!(link.state, PeerState::Connected { .. })
            );
            if flush {
                self.flush_peer(idx);
            }
        }
        let pending: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(t, c)| (!c.wq.is_empty()).then_some(*t))
            .collect();
        for token in pending {
            self.flush_conn(token);
        }
    }

    fn build_pollset(&mut self) {
        let fds = &mut self.pollfds;
        let targets = &mut self.poll_targets;
        fds.clear();
        targets.clear();
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        targets.push(Target::Wake);
        // The listener stays in the set even at the admission cap: over-cap
        // connections are actively closed (and counted) rather than left in
        // the backlog, with `ACCEPT_BACKOFF` pacing a sustained flood.
        if self.accept_paused_until.is_none() {
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            targets.push(Target::Listener);
        }
        for (idx, link) in self.peers.iter().enumerate() {
            let Some(link) = link else { continue };
            let (fd, events) = match &link.state {
                PeerState::Idle => continue,
                PeerState::Connecting { stream, .. } => (stream.as_raw_fd(), POLLOUT),
                PeerState::Connected { stream } => (
                    stream.as_raw_fd(),
                    POLLIN | if link.wq.is_empty() { 0 } else { POLLOUT },
                ),
            };
            fds.push(PollFd::new(fd, events));
            targets.push(Target::Peer(idx));
        }
        for (token, conn) in &self.conns {
            let events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            targets.push(Target::Conn(*token));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::frame::write_frame;

    /// A reader that yields scripted chunks, interleaving `WouldBlock`
    /// between them — a socket delivering a frame across many readable
    /// events, torn at arbitrary byte boundaries.
    struct ChunkedReader {
        chunks: Vec<Vec<u8>>,
        next: usize,
        served_since_block: bool,
    }

    impl ChunkedReader {
        fn new(bytes: &[u8], chunk: usize) -> ChunkedReader {
            ChunkedReader {
                chunks: bytes.chunks(chunk.max(1)).map(<[u8]>::to_vec).collect(),
                next: 0,
                served_since_block: false,
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.chunks.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
            }
            if self.served_since_block {
                // One chunk per readable event: EAGAIN until re-polled.
                self.served_since_block = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"));
            }
            let chunk = &self.chunks[self.next];
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                self.chunks[self.next].drain(..n);
            }
            self.served_since_block = true;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_reassembles_across_eagain_boundaries() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let mut wire = Vec::new();
        write_frame(&mut wire, &key, &[0xabu8; 300]).unwrap();
        write_frame(&mut wire, &key, b"second").unwrap();
        // 7-byte chunks tear the header itself, not just the payload.
        let mut src = ChunkedReader::new(&wire, 7);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        // Each fill() models one POLLIN wakeup.
        for _ in 0..wire.len() {
            reader.fill(&mut src).unwrap();
            while let Some((tag, payload)) = reader.next_frame().unwrap() {
                assert!(key.verify(&payload, &tag));
                frames.push(payload);
            }
            if frames.len() == 2 {
                break;
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], vec![0xabu8; 300]);
        assert_eq!(frames[1], b"second");
    }

    /// A 2 MiB frame grows the reassembly buffer; once it has popped, the
    /// next fill gives that memory back instead of keeping it for the life
    /// of the connection.
    #[test]
    fn frame_reader_gives_back_a_large_frames_memory() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let mut reader = FrameReader::new();
        let mut pop_after_fills = |payload: &[u8]| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &key, payload).unwrap();
            let mut src = ChunkedReader::new(&wire, READ_CHUNK);
            for _ in 0..=wire.len() / READ_CHUNK {
                reader.fill(&mut src).unwrap();
                if let Some((_, got)) = reader.next_frame().unwrap() {
                    assert_eq!(got, payload);
                    return reader.buf.capacity();
                }
            }
            panic!("frame of {} bytes never completed", payload.len());
        };
        let large = pop_after_fills(&vec![0x5a; 2 << 20]);
        assert!(large >= 2 << 20, "capacity {large}");
        let small = pop_after_fills(b"small");
        assert!(
            small <= 2 * READ_CHUNK,
            "capacity {small} after a small frame"
        );
    }

    /// Readers share one scratch block per thread: two of them, filled in
    /// turn on one thread, each reassemble only their own stream — frames
    /// larger than the block, torn across many fills.
    #[test]
    fn interleaved_readers_on_one_thread_keep_their_own_streams() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let payloads = |fill: u8| -> Vec<Vec<u8>> {
            vec![
                vec![fill; READ_CHUNK + 1000],
                vec![fill ^ 0xff; 3 * READ_CHUNK + 17],
                vec![fill; 5],
            ]
        };
        let (a_sent, b_sent) = (payloads(0x11), payloads(0x22));
        let wire = |frames: &[Vec<u8>]| {
            let mut wire = Vec::new();
            for p in frames {
                write_frame(&mut wire, &key, p).unwrap();
            }
            wire
        };
        // Chunks of different sizes keep the two streams' tears apart.
        let mut a_src = ChunkedReader::new(&wire(&a_sent), READ_CHUNK + 333);
        let mut b_src = ChunkedReader::new(&wire(&b_sent), 40_000);
        let (mut a, mut b) = (FrameReader::new(), FrameReader::new());
        let (mut a_got, mut b_got) = (Vec::new(), Vec::new());
        for _ in 0..64 {
            for (reader, src, got) in [
                (&mut a, &mut a_src, &mut a_got),
                (&mut b, &mut b_src, &mut b_got),
            ] {
                reader.fill(src).unwrap();
                while let Some((tag, payload)) = reader.next_frame().unwrap() {
                    assert!(key.verify(&payload, &tag));
                    got.push(payload);
                }
            }
        }
        assert_eq!(a_got, a_sent);
        assert_eq!(b_got, b_sent);
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefix() {
        let mut reader = FrameReader::new();
        let mut bogus = vec![0u8; HEADER_BYTES];
        bogus[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut src = ChunkedReader::new(&bogus, 64);
        reader.fill(&mut src).unwrap();
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn frame_reader_reports_eof() {
        struct Eof;
        impl Read for Eof {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Ok(0)
            }
        }
        let (n, eof) = FrameReader::new().fill(&mut Eof).unwrap();
        assert_eq!(n, 0);
        assert!(eof);
    }

    /// A writer that accepts at most `budget` bytes per call — the kernel
    /// returning short vectored writes under socket-buffer pressure — and
    /// `WouldBlock`s after `calls_before_block` calls.
    struct ShortWriter {
        written: Vec<u8>,
        budget: usize,
        calls: usize,
        block_after: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.calls >= self.block_after {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls += 1;
            let mut left = self.budget;
            for buf in bufs {
                let n = buf.len().min(left);
                self.written.extend_from_slice(&buf[..n]);
                left -= n;
                if left == 0 {
                    break;
                }
            }
            Ok(self.budget - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_short_vectored_writes() {
        let mut wq = WriteQueue::new(16);
        let frames: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 100 + i as usize]).collect();
        for f in &frames {
            assert!(wq.push(f.clone()));
        }
        let expected: Vec<u8> = frames.concat();
        // 37-byte budget: every call ends mid-frame.
        let mut w = ShortWriter {
            written: Vec::new(),
            budget: 37,
            calls: 0,
            block_after: 3,
        };
        let d = wq.drain(&mut w).unwrap();
        assert_eq!(d.writev_calls, 3);
        assert_eq!(d.bytes, 111);
        assert!(!wq.is_empty(), "blocked mid-queue");
        // Next POLLOUT: the rest goes out, resuming mid-frame.
        w.block_after = usize::MAX;
        let d2 = wq.drain(&mut w).unwrap();
        assert!(wq.is_empty());
        assert_eq!(d.frames + d2.frames, 5);
        assert_eq!(w.written, expected, "byte stream intact across partials");
    }

    #[test]
    fn write_queue_enforces_cap_and_reports_drops() {
        let mut wq = WriteQueue::new(2);
        assert!(wq.push(vec![1]));
        assert!(wq.push(vec![2]));
        assert!(!wq.push(vec![3]), "cap reached: push reports the drop");
        assert_eq!(wq.len(), 2);
        // push_front (session hello) bypasses the cap.
        wq.push_front(vec![0]);
        assert_eq!(wq.len(), 3);
        let mut w = ShortWriter {
            written: Vec::new(),
            budget: usize::MAX,
            calls: 0,
            block_after: usize::MAX,
        };
        wq.drain(&mut w).unwrap();
        assert_eq!(w.written, vec![0, 1, 2], "hello first, dropped frame gone");
    }

    #[test]
    fn write_queue_reset_partial_resends_head_frame_whole() {
        let mut wq = WriteQueue::new(4);
        wq.push(vec![9u8; 50]);
        let mut w = ShortWriter {
            written: Vec::new(),
            budget: 20,
            calls: 0,
            block_after: 1,
        };
        wq.drain(&mut w).unwrap(); // 20 of 50 bytes out, connection dies
        wq.reset_partial();
        let mut w2 = ShortWriter {
            written: Vec::new(),
            budget: usize::MAX,
            calls: 0,
            block_after: usize::MAX,
        };
        wq.drain(&mut w2).unwrap();
        assert_eq!(
            w2.written,
            vec![9u8; 50],
            "fresh connection gets the whole frame"
        );
    }

    #[test]
    fn shared_frames_drain_byte_identical_to_write_frame() {
        // One payload allocation serves three links; each queue's drained
        // bytes must match what write_frame would have produced under that
        // link's key.
        let payload: Arc<[u8]> = Arc::from(&[0x42u8; 500][..]);
        let keys: Vec<FrameKey> = (1..4).map(|to| FrameKey::link(&[7u8; 32], 0, to)).collect();
        let mut queues: Vec<WriteQueue> = Vec::new();
        for key in &keys {
            let mut wq = WriteQueue::new(8);
            let header = frame_header(key, &payload).unwrap();
            assert!(wq.push_shared(header, Arc::clone(&payload)));
            queues.push(wq);
        }
        // 3 queue references + the local handle: zero payload copies made.
        assert_eq!(Arc::strong_count(&payload), 4);
        for (key, wq) in keys.iter().zip(&mut queues) {
            let mut classic = Vec::new();
            write_frame(&mut classic, key, &payload).unwrap();
            let mut w = ShortWriter {
                written: Vec::new(),
                budget: usize::MAX,
                calls: 0,
                block_after: usize::MAX,
            };
            let d = wq.drain(&mut w).unwrap();
            assert_eq!(d.frames, 1);
            assert_eq!(w.written, classic, "shared frame wire-identical");
        }
    }

    #[test]
    fn shared_frame_survives_partial_writes_mid_header_and_mid_body() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let payload: Arc<[u8]> = Arc::from(&[0x17u8; 200][..]);
        let mut classic = Vec::new();
        write_frame(&mut classic, &key, &payload).unwrap();
        // 3-byte budget: the first drain tears inside the 8-byte header;
        // later drains tear inside the body; mixed with owned frames after.
        let mut wq = WriteQueue::new(8);
        wq.push_shared(frame_header(&key, &payload).unwrap(), payload);
        wq.push(classic.clone()); // an owned copy rides behind the shared one
        let mut w = ShortWriter {
            written: Vec::new(),
            budget: 3,
            calls: 0,
            block_after: 1,
        };
        while !wq.is_empty() {
            w.block_after = w.calls + 1; // one syscall per simulated POLLOUT
            wq.drain(&mut w).unwrap();
        }
        let expected: Vec<u8> = classic.iter().chain(&classic).copied().collect();
        assert_eq!(w.written, expected, "byte stream intact across partials");
    }

    #[test]
    fn write_queue_recycles_buffers() {
        let mut wq = WriteQueue::new(4);
        let mut buf = wq.take_buf();
        buf.extend_from_slice(&[1, 2, 3]);
        let ptr = buf.as_ptr();
        wq.push(buf);
        let mut w = ShortWriter {
            written: Vec::new(),
            budget: usize::MAX,
            calls: 0,
            block_after: usize::MAX,
        };
        wq.drain(&mut w).unwrap();
        let reused = wq.take_buf();
        assert_eq!(reused.as_ptr(), ptr, "drained buffer returns via the pool");
        assert!(reused.is_empty());
    }

    #[test]
    fn write_queue_treats_zero_write_as_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wq = WriteQueue::new(4);
        wq.push(vec![1, 2, 3]);
        assert!(wq.drain(&mut Zero).is_err());
    }
}
