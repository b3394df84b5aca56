//! The client side of the TCP links: [`TcpClientPool`] multiplexes every
//! connection of every logical client over one `poll(2)` set in the
//! caller's thread, spawning no thread, and [`TcpClient`] is a pool of one.
//! A request goes to every replica and is answered once `quorum`
//! connections return the same result. A reply counts for the connection it
//! arrived on, that is for the replica address the client dialed, and not
//! for the `replica` field it carries, which nothing authenticates: client
//! frames carry only a public checksum ([`FrameKey::client`]). So one
//! replier cannot vote twice by naming two replicas.

use super::frame::{encode_frame_into, write_client_hello, FrameKey};
use super::reactor::{resolve, FrameReader, WriteQueue};
use super::sys::{poll_wait, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::ordering::SmrMsg;
use crate::types::{Reply, Request};
use smartchain_codec::from_bytes;
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How often an unanswered request is retransmitted.
const RETRANSMIT: Duration = Duration::from_millis(500);

/// How long a dial waits for a replica to accept.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
}

impl ClientConn {
    /// Dials `addr`, introduces itself as `client`, and turns nonblocking.
    fn dial(addr: &str, client: u64) -> Option<ClientConn> {
        let addr = resolve(addr).ok()?;
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
        stream.set_nodelay(true).ok();
        write_client_hello(&mut stream, client).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(ClientConn {
            stream,
            reader: FrameReader::new(),
            wq: WriteQueue::new(64),
        })
    }
}

/// The one request a client has in flight.
struct InFlight {
    seq: u64,
    /// The request's frame, encoded once and queued again per retransmit.
    frame: Vec<u8>,
    /// The result each connection returned, by connection index. A voter is
    /// the connection a reply arrived on, never the reply's own `replica`
    /// field: client frames carry only a public checksum, so that field is
    /// whatever the sender wrote.
    votes: Vec<Option<Vec<u8>>>,
    sent_at: Instant,
}

/// One logical client: a connection per replica (dialed on demand), at most
/// one request in flight, and the result of the last one answered.
struct ClientSlot {
    id: u64,
    next_seq: u64,
    completed: u64,
    result: Option<Vec<u8>>,
    in_flight: Option<InFlight>,
    conns: Vec<Option<ClientConn>>,
}

impl ClientSlot {
    /// Puts `request` in flight and sends it.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the request does not fit in one frame.
    fn start(&mut self, request: Request, addrs: &[String]) -> io::Result<()> {
        let seq = request.seq;
        let mut frame = Vec::new();
        let msg = SmrMsg::Request(request);
        encode_frame_into(&mut frame, &FrameKey::client(), &msg)?;
        self.in_flight = Some(InFlight {
            seq,
            frame,
            votes: vec![None; self.conns.len()],
            sent_at: Instant::now(),
        });
        self.send(addrs);
        Ok(())
    }

    /// Queues the request in flight on every replica's connection, dialing
    /// the missing ones first.
    fn send(&mut self, addrs: &[String]) {
        let Some(flight) = &mut self.in_flight else {
            return;
        };
        flight.sent_at = Instant::now();
        for (slot, addr) in self.conns.iter_mut().zip(addrs) {
            if slot.is_none() {
                *slot = ClientConn::dial(addr, self.id);
            }
            if let Some(conn) = slot {
                // Full queue: skip — the retransmit timer repairs it.
                let _ = conn.wq.push(flight.frame.clone());
            }
        }
    }

    /// Counts `reply`, which arrived on connection `conn`; `quorum`
    /// connections returning the same result answer the request.
    fn on_reply(&mut self, conn: usize, reply: Reply, quorum: usize) {
        let Some(flight) = &mut self.in_flight else {
            return;
        };
        if reply.client != self.id || reply.seq != flight.seq {
            return; // stale reply from an earlier operation
        }
        flight.votes[conn] = Some(reply.result);
        let vote = &flight.votes[conn];
        if flight.votes.iter().filter(|v| *v == vote).count() >= quorum {
            self.result = vote.clone();
            self.in_flight = None;
            self.completed += 1;
        }
    }
}

/// A TCP client of the replica cluster: a [`TcpClientPool`] of one client,
/// which sends each request to every replica and accepts a result once
/// `quorum` replicas' connections return it.
#[derive(Debug)]
pub struct TcpClient {
    pool: TcpClientPool,
}

impl TcpClient {
    /// Creates a client of the cluster at `addrs`. Connections are
    /// established lazily per send, so a down replica does not block
    /// construction.
    pub fn new(client_id: u64, addrs: Vec<String>) -> TcpClient {
        TcpClient {
            pool: TcpClientPool::new(addrs, client_id, 1),
        }
    }

    /// Submits `request` and waits for `quorum` matching replies,
    /// retransmitting every 500 ms. `request.client` must be this client's
    /// id: replicas route replies by it.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no quorum forms within `deadline`; `InvalidInput`
    /// when the request does not fit in one frame.
    pub fn execute_request(
        &mut self,
        request: Request,
        quorum: usize,
        deadline: Duration,
    ) -> io::Result<Vec<u8>> {
        let deadline_at = Instant::now() + deadline;
        let pool = &mut self.pool;
        pool.clients[0].start(request, &pool.addrs)?;
        while pool.clients[0].in_flight.is_some() {
            if Instant::now() >= deadline_at {
                pool.clients[0].in_flight = None;
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply quorum"));
            }
            pool.pump(deadline_at, quorum);
        }
        Ok(pool.clients[0].result.take().unwrap_or_default())
    }

    /// Closes every connection.
    pub fn shutdown(self) {}
}

/// Drives many logical clients over nonblocking sockets from a single
/// caller thread — the load-generation side of the 1k-client soak, and
/// (with one client) [`TcpClient`]. No thread is spawned: every connection
/// of every client is multiplexed over one `poll(2)` set, which is exactly
/// the discipline the replica-side reactor is being tested against.
pub struct TcpClientPool {
    addrs: Vec<String>,
    clients: Vec<ClientSlot>,
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
    fn new(addrs: Vec<String>, first_id: u64, count: usize) -> TcpClientPool {
        let clients = (first_id..first_id + count as u64)
            .map(|id| ClientSlot {
                id,
                next_seq: 1,
                completed: 0,
                result: None,
                in_flight: None,
                conns: addrs.iter().map(|_| None).collect(),
            })
            .collect();
        TcpClientPool { addrs, clients }
    }

    /// Connects `count` logical clients (ids `first_id..first_id+count`) to
    /// every replica in `addrs`. Failed dials leave holes that are dialed
    /// again at the next send or retransmission.
    pub fn connect(addrs: Vec<String>, first_id: u64, count: usize) -> TcpClientPool {
        let mut pool = TcpClientPool::new(addrs, first_id, count);
        for slot in &mut pool.clients {
            for (conn, addr) in slot.conns.iter_mut().zip(&pool.addrs) {
                *conn = ClientConn::dial(addr, slot.id);
            }
        }
        pool
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
            let mut done = 0u64;
            for slot in &mut self.clients {
                done += slot.completed;
                if slot.completed < ops_per_client && slot.in_flight.is_none() {
                    let request = Request {
                        client: slot.id,
                        seq: slot.next_seq,
                        payload: payload.to_vec(),
                        signature: None,
                    };
                    slot.next_seq += 1;
                    if slot.start(request, &self.addrs).is_err() {
                        return done;
                    }
                }
            }
            if done >= target || Instant::now() >= deadline_at {
                return done;
            }
            self.pump(deadline_at, quorum);
        }
    }

    /// One round: retransmits every request that is due, flushes queued
    /// frames, polls until the next retransmission or `deadline_at`, and
    /// counts each reply for the connection it arrived on.
    fn pump(&mut self, deadline_at: Instant, quorum: usize) {
        let now = Instant::now();
        let mut until = deadline_at;
        let mut fds = Vec::new();
        let mut index = Vec::new();
        for (ci, slot) in self.clients.iter_mut().enumerate() {
            if let Some(flight) = &slot.in_flight {
                let mut at = flight.sent_at + RETRANSMIT;
                if now >= at {
                    // Lost requests or replies (a replica restarting, a
                    // torn connection) are repaired by retransmission, as
                    // in the paper.
                    slot.send(&self.addrs);
                    at = now + RETRANSMIT;
                }
                until = until.min(at);
            }
            for (ri, conn_slot) in slot.conns.iter_mut().enumerate() {
                let Some(conn) = conn_slot else { continue };
                if !conn.wq.is_empty() && conn.wq.drain(&mut conn.stream).is_err() {
                    *conn_slot = None;
                    continue;
                }
                let events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                index.push((ci, ri));
            }
        }
        // An empty set still waits out the timeout rather than spin.
        let timeout = until.saturating_duration_since(Instant::now());
        if !matches!(poll_wait(&mut fds, Some(timeout)), Ok(ready) if ready > 0) {
            return;
        }
        let key = FrameKey::client();
        for (fd, &(ci, ri)) in fds.iter().zip(&index) {
            let slot = &mut self.clients[ci];
            let Some(conn) = &mut slot.conns[ri] else {
                continue;
            };
            let mut drop_conn =
                fd.revents & POLLOUT != 0 && conn.wq.drain(&mut conn.stream).is_err();
            let mut replies = Vec::new();
            if !drop_conn && fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                drop_conn = conn
                    .reader
                    .fill(&mut conn.stream)
                    .map_or(true, |(_, eof)| eof);
                loop {
                    match conn.reader.next_frame() {
                        Ok(Some((tag, payload))) if key.verify(&payload, &tag) => {
                            if let Ok(SmrMsg::Reply(reply)) = from_bytes::<SmrMsg>(&payload) {
                                replies.push(reply);
                            }
                        }
                        Ok(Some(_)) => {}
                        // A malformed header leaves nothing to resync on.
                        end => {
                            drop_conn |= end.is_err();
                            break;
                        }
                    }
                }
            }
            if drop_conn {
                slot.conns[ri] = None;
            }
            for reply in replies {
                slot.on_reply(ri, reply, quorum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f + 1 at n = 7.
    const QUORUM: usize = 3;

    /// A client of seven replicas with request 5 in flight.
    fn in_flight_at_n7() -> ClientSlot {
        ClientSlot {
            id: 1,
            next_seq: 6,
            completed: 0,
            result: None,
            in_flight: Some(InFlight {
                seq: 5,
                frame: Vec::new(),
                votes: vec![None; 7],
                sent_at: Instant::now(),
            }),
            conns: (0..7).map(|_| None).collect(),
        }
    }

    fn reply(seq: u64, result: u8) -> Reply {
        Reply {
            client: 1,
            seq,
            result: vec![result],
            replica: 0,
        }
    }

    /// Three matching replies from distinct connections answer the
    /// request; two do not.
    #[test]
    fn three_matching_connections_answer_at_n7() {
        let mut slot = in_flight_at_n7();
        slot.on_reply(4, reply(5, 1), QUORUM);
        slot.on_reply(6, reply(5, 1), QUORUM);
        assert!(slot.in_flight.is_some(), "two votes are no quorum");
        slot.on_reply(0, reply(5, 1), QUORUM);
        assert!(slot.in_flight.is_none());
        assert_eq!(slot.result, Some(vec![1]));
        assert_eq!(slot.completed, 1);
    }

    /// A connection that replies again, or changes its reply, counts once,
    /// as its latest reply.
    #[test]
    fn a_connection_counts_once_as_its_latest_reply() {
        let mut slot = in_flight_at_n7();
        for _ in 0..3 {
            slot.on_reply(2, reply(5, 1), QUORUM);
        }
        slot.on_reply(3, reply(5, 1), QUORUM);
        assert!(slot.in_flight.is_some(), "a repeated reply counts once");
        slot.on_reply(3, reply(5, 2), QUORUM);
        slot.on_reply(5, reply(5, 1), QUORUM);
        assert!(slot.in_flight.is_some(), "connection 3 now votes for 2");
        slot.on_reply(1, reply(5, 1), QUORUM);
        assert_eq!(slot.result, Some(vec![1]));
        assert_eq!(slot.completed, 1);
    }

    /// Replies for an earlier request count nothing, not even on a
    /// connection that has not voted yet.
    #[test]
    fn a_stale_reply_counts_nothing() {
        let mut slot = in_flight_at_n7();
        slot.on_reply(0, reply(5, 1), QUORUM);
        slot.on_reply(1, reply(5, 1), QUORUM);
        for conn in 2..7 {
            slot.on_reply(conn, reply(4, 1), QUORUM);
        }
        let flight = slot.in_flight.as_ref().expect("still in flight");
        assert_eq!(flight.votes.iter().flatten().count(), 2);
        slot.on_reply(2, reply(5, 1), QUORUM);
        assert_eq!(slot.completed, 1);
    }
}
