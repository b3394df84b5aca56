//! The load generator: one thread, many logical clients, one poll set.
//!
//! Built from the transport's public client pieces (`write_client_hello`,
//! `FrameKey::client`, `FrameReader`, `WriteQueue`, `PollFd`) in the shape of
//! `TcpClientPool`, with what a measurement needs on top: pre-signed
//! requests, closed- or open-loop pacing, a reply check per operation, and a
//! timestamp at every step of a request's life (due → sent → first reply →
//! `f+1` matching replies).
//!
//! The protocol allows one request in flight per client id, so an open-loop
//! request that falls due while its client's previous one is unanswered waits
//! in that client's backlog — and its latency still counts from when it was
//! due, so a stall in the cluster shows up in every request it delayed.

use crate::requests::ClientPlan;
use crate::trace::now_ns;
use smartchain_codec::from_bytes;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::transport::frame::{write_client_hello, FrameKey};
use smartchain_smr::transport::reactor::{FrameReader, WriteQueue};
use smartchain_smr::transport::sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// An unanswered request is retransmitted this often, as `TcpClientPool` does.
const RETRANSMIT_NS: u64 = 500_000_000;
/// An operation without a reply quorum this long after it was due has failed.
const FAIL_AFTER_NS: u64 = 5_000_000_000;
/// Upper bound on one poll sleep, so retransmit and failure timers are seen.
const HOUSEKEEPING_NS: u64 = 50_000_000;
/// How often dead connections are redialed when [`RunSpec::redial`] is set.
const REDIAL_NS: u64 = 100_000_000;
/// Per-connection write queue bound (frames), as in `TcpClientPool`.
const WRITE_QUEUE_FRAMES: usize = 64;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // `poll_wait` takes whole milliseconds and rounds up; an open loop at
    // 2000 requests/s has a request due every 500 µs, so the generator needs
    // the nanosecond timeout of ppoll(2) to run on schedule.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits for readiness on `fds` for at most `timeout_ns`. An interrupted
/// wait reports no events; the caller's loop polls again.
fn poll_ns(fds: &mut [PollFd], timeout_ns: u64) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // `PollFd`s (layout-compatible with `struct pollfd`) and its length is
    // passed alongside; `ts` outlives the call; a null sigmask is allowed
    // and leaves the signal mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// How requests are released.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Each client sends its next request as soon as the previous one has
    /// its reply quorum.
    Closed,
    /// Request `i` (round-robin over the clients) is due at
    /// `start + i / rate`, whatever the cluster is doing.
    Open {
        /// Offered load, requests per second.
        rate: f64,
    },
}

/// Moments of a run the caller may want to sample counters at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The first measured request was just released.
    MeasuredStart,
    /// About a second has passed since the last tick.
    Tick,
    /// The last measured request just completed.
    MeasuredEnd,
}

/// What one [`Generator::run`] does.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Unmeasured operations each client performs first.
    pub warmup_per_client: u64,
    /// Measured operations each client performs next.
    pub measured_per_client: u64,
    /// Keep a span per measured request (the traced pass).
    pub trace: bool,
    /// Redial connections that died (the fault probe restarts a replica).
    pub redial: bool,
    /// Record the arrival time of every reply from this replica.
    pub watch_replica: Option<usize>,
    /// Stop at the first failed operation. A fault-free workload is invalid
    /// once one fails, and a closed loop on a cluster that has stopped
    /// answering would otherwise take five seconds per remaining operation.
    pub stop_at_failure: bool,
}

/// One measured request's life, nanoseconds since the trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    /// Logical client id.
    pub client: u64,
    /// The client's sequence number.
    pub seq: u64,
    /// When the request was due to be sent.
    pub due_ns: u64,
    /// When it was handed to the sockets.
    pub sent_ns: u64,
    /// When the first reply for it arrived.
    pub first_reply_ns: u64,
    /// When the `f+1`-th matching reply arrived.
    pub quorum_ns: u64,
}

/// What a run did and observed.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations sent at least once.
    pub attempted: u64,
    /// Operations that reached `f+1` matching, correct replies.
    pub completed: u64,
    /// Operations that timed out or drew `f+1` wrong replies.
    pub failed: u64,
    /// Of those, the ones that drew `f+1` wrong replies.
    pub wrong: u64,
    /// Completed operations of the measured phase.
    pub measured_completed: u64,
    /// When the first measured request was due.
    pub measured_start_ns: u64,
    /// When the last measured request completed.
    pub measured_end_ns: u64,
    /// Quorum time minus due time, per measured operation.
    pub latency_ns: Vec<u64>,
    /// Send time minus the later of (due time, client became free), per
    /// measured operation: how late the generator itself ran.
    pub lateness_ns: Vec<u64>,
    /// One span per measured request (traced runs only).
    pub spans: Vec<OpSpan>,
    /// Requests sent again after [`RETRANSMIT_NS`].
    pub retransmits: u64,
    /// CPU seconds the generator thread used inside the measured window.
    pub gen_cpu_s: f64,
    /// Arrival times of replies from [`RunSpec::watch_replica`].
    pub watched_replies_ns: Vec<u64>,
}

impl Outcome {
    /// Length of the measured window in seconds.
    pub fn measured_seconds(&self) -> f64 {
        self.measured_end_ns.saturating_sub(self.measured_start_ns) as f64 / 1e9
    }
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
}

struct InFlight {
    /// Index into the client's plan (`seq − 1`).
    op: usize,
    due_ns: u64,
    /// `max(due, client became free)` — the base of generator lateness.
    free_ns: u64,
    sent_ns: u64,
    last_sent_ns: u64,
    first_reply_ns: u64,
    /// Replicas (by connection) that answered with the expected result.
    good: u32,
    /// Replicas that answered with anything else.
    bad: u32,
}

struct Client {
    plan: ClientPlan,
    next: usize,
    conns: Vec<Option<Conn>>,
    in_flight: Option<InFlight>,
    /// When the previous operation finished (closed-loop due time).
    ready_ns: u64,
    /// Open loop: due times of released, not yet sent operations.
    backlog: VecDeque<u64>,
}

/// The generator: every connection of every logical client, multiplexed
/// over one poll set by the calling thread.
pub struct Generator {
    addrs: Vec<SocketAddr>,
    quorum: usize,
    key: FrameKey,
    clients: Vec<Client>,
    /// `fds[c * n + r]` watches client `c`'s connection to replica `r`
    /// (`fd < 0`, which the kernel skips, while that connection is down).
    fds: Vec<PollFd>,
}

fn dial(addr: &SocketAddr, client_id: u64) -> io::Result<Conn> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_millis(500))?;
    stream.set_nodelay(true)?;
    write_client_hello(&mut stream, client_id)?;
    stream.set_nonblocking(true)?;
    Ok(Conn {
        stream,
        reader: FrameReader::new(),
        wq: WriteQueue::new(WRITE_QUEUE_FRAMES),
    })
}

impl Generator {
    /// Connects every client of `plans` to every replica in `addrs`;
    /// `quorum` matching replies (`f + 1`) complete an operation.
    ///
    /// # Errors
    ///
    /// Fails when an address does not parse or a replica refuses a
    /// connection — the fault-free workloads need all of them.
    pub fn connect(
        addrs: &[String],
        plans: Vec<ClientPlan>,
        quorum: usize,
    ) -> io::Result<Generator> {
        let addrs: Vec<SocketAddr> = addrs
            .iter()
            .map(|a| {
                a.parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad replica address"))
            })
            .collect::<io::Result<_>>()?;
        let mut fds = Vec::with_capacity(plans.len() * addrs.len());
        let mut clients = Vec::with_capacity(plans.len());
        for plan in plans {
            let mut conns = Vec::with_capacity(addrs.len());
            for addr in &addrs {
                let conn = dial(addr, plan.id)?;
                fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
                conns.push(Some(conn));
            }
            clients.push(Client {
                plan,
                next: 0,
                conns,
                in_flight: None,
                ready_ns: 0,
                backlog: VecDeque::new(),
            });
        }
        Ok(Generator {
            addrs,
            quorum,
            key: FrameKey::client(),
            clients,
            fds,
        })
    }

    /// Runs `spec` to the end: every client performs its warm-up operations,
    /// then its measured ones, continuing from where the previous run on
    /// this generator stopped. `observe` is called with the current time at
    /// the edges of the measured window and about once a second in between
    /// (the traced pass samples counters there).
    ///
    /// # Errors
    ///
    /// Propagates a failing `ppoll`.
    ///
    /// # Panics
    ///
    /// Panics if a client's plan holds fewer operations than `spec` asks for.
    pub fn run(
        &mut self,
        spec: &RunSpec,
        observe: &mut dyn FnMut(Event, u64),
    ) -> io::Result<Outcome> {
        let n = self.addrs.len();
        let first_op = self.clients.first().map_or(0, |c| c.next);
        let per_client = (spec.warmup_per_client + spec.measured_per_client) as usize;
        let first_measured = first_op + spec.warmup_per_client as usize;
        let last_op = first_op + per_client;
        for client in &self.clients {
            assert_eq!(client.next, first_op, "clients advance in lock step");
            assert!(
                client.plan.ops.len() >= last_op,
                "plan shorter than the run"
            );
        }
        let total = (self.clients.len() * per_client) as u64;
        let measured_total = self.clients.len() as u64 * spec.measured_per_client;
        let mut out = Outcome {
            latency_ns: Vec::with_capacity(measured_total as usize),
            lateness_ns: Vec::with_capacity(measured_total as usize),
            ..Outcome::default()
        };
        let start_ns = now_ns();
        for client in &mut self.clients {
            client.ready_ns = start_ns;
        }
        let interval_ns = match spec.pacing {
            Pacing::Open { rate } => 1e9 / rate,
            Pacing::Closed => 0.0,
        };
        let due_of = |i: u64| start_ns + (i as f64 * interval_ns) as u64;
        let mut released = 0u64; // open loop: operations whose due time has passed
        let mut cpu_at_start: Option<f64> = None;
        let mut next_tick_ns = start_ns + 1_000_000_000;
        let mut next_redial_ns = start_ns + REDIAL_NS;
        loop {
            let now = now_ns();
            if let Pacing::Open { .. } = spec.pacing {
                while released < total && due_of(released) <= now {
                    let c = (released % self.clients.len() as u64) as usize;
                    self.clients[c].backlog.push_back(due_of(released));
                    released += 1;
                }
            }
            for c in 0..self.clients.len() {
                let client = &mut self.clients[c];
                if let Some(flight) = &mut client.in_flight {
                    if now.saturating_sub(flight.due_ns) >= FAIL_AFTER_NS {
                        client.in_flight = None;
                        client.ready_ns = now;
                        out.failed += 1;
                    } else if now.saturating_sub(flight.last_sent_ns) >= RETRANSMIT_NS {
                        flight.last_sent_ns = now;
                        out.retransmits += 1;
                        let op = flight.op;
                        self.send(c, op);
                    }
                    continue;
                }
                if client.next >= last_op {
                    continue;
                }
                let due_ns = match spec.pacing {
                    Pacing::Closed => client.ready_ns,
                    Pacing::Open { .. } => match client.backlog.pop_front() {
                        Some(due) => due,
                        None => continue,
                    },
                };
                let op = client.next;
                client.next += 1;
                if op == first_measured && cpu_at_start.is_none() {
                    cpu_at_start = Some(crate::procfs::this_thread_cpu_s());
                    out.measured_start_ns = due_ns;
                    observe(Event::MeasuredStart, now);
                }
                client.in_flight = Some(InFlight {
                    op,
                    due_ns,
                    free_ns: due_ns.max(client.ready_ns),
                    sent_ns: now,
                    last_sent_ns: now,
                    first_reply_ns: 0,
                    good: 0,
                    bad: 0,
                });
                out.attempted += 1;
                self.send(c, op);
            }
            if out.completed + out.failed >= total || spec.stop_at_failure && out.failed > 0 {
                break;
            }
            if now >= next_tick_ns {
                observe(Event::Tick, now);
                next_tick_ns += 1_000_000_000;
            }
            if spec.redial && now >= next_redial_ns {
                self.redial();
                next_redial_ns = now + REDIAL_NS;
            }
            let mut wake_ns = (now + HOUSEKEEPING_NS).min(next_tick_ns);
            if matches!(spec.pacing, Pacing::Open { .. }) && released < total {
                wake_ns = wake_ns.min(due_of(released));
            }
            let ready = poll_ns(&mut self.fds, wake_ns.saturating_sub(now_ns()))?;
            if ready == 0 {
                continue;
            }
            let now = now_ns();
            let mut replies = Vec::new();
            for idx in 0..self.fds.len() {
                let revents = self.fds[idx].revents;
                if revents == 0 {
                    continue;
                }
                self.fds[idx].revents = 0;
                let (c, r) = (idx / n, idx % n);
                let alive = self.service(c, r, revents, &mut replies);
                if !alive {
                    self.clients[c].conns[r] = None;
                    self.fds[idx] = PollFd::new(-1, 0);
                }
                for reply in replies.drain(..) {
                    if spec.watch_replica == Some(r) {
                        out.watched_replies_ns.push(now);
                    }
                    self.tally(c, r, reply, now, spec, first_measured, &mut out);
                }
            }
            if out.measured_completed >= measured_total {
                // The measured operations are each client's last ones.
                out.measured_end_ns = now;
                break;
            }
        }
        if out.measured_end_ns == 0 {
            // Some measured operation failed: close the window at the end.
            out.measured_end_ns = now_ns();
        }
        out.gen_cpu_s = crate::procfs::this_thread_cpu_s() - cpu_at_start.unwrap_or_default();
        observe(Event::MeasuredEnd, out.measured_end_ns);
        Ok(out)
    }

    /// Queues operation `op` of client `c` on each of its live connections
    /// and writes as much as the sockets take.
    fn send(&mut self, c: usize, op: usize) {
        let n = self.addrs.len();
        let client = &mut self.clients[c];
        let prepared = &client.plan.ops[op];
        for r in 0..n {
            let Some(conn) = &mut client.conns[r] else {
                continue;
            };
            // A full queue skips this replica; the retransmit timer repairs it.
            let _ = conn.wq.push_shared(prepared.header, prepared.body.clone());
            let alive = conn.wq.drain(&mut conn.stream).is_ok();
            let idx = c * n + r;
            if !alive {
                client.conns[r] = None;
                self.fds[idx] = PollFd::new(-1, 0);
            } else {
                self.fds[idx].events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
            }
        }
    }

    /// Handles readiness on one connection: flushes pending writes, reads
    /// what arrived, and appends every authentic reply frame to `replies`.
    /// Returns whether the connection is still usable.
    fn service(
        &mut self,
        c: usize,
        r: usize,
        revents: i16,
        replies: &mut Vec<smartchain_smr::types::Reply>,
    ) -> bool {
        let n = self.addrs.len();
        let Some(conn) = &mut self.clients[c].conns[r] else {
            return false;
        };
        if revents & POLLOUT != 0 {
            if conn.wq.drain(&mut conn.stream).is_err() {
                return false;
            }
            self.fds[c * n + r].events = POLLIN | if conn.wq.is_empty() { 0 } else { POLLOUT };
        }
        if revents & (POLLIN | POLLHUP | POLLERR) == 0 {
            return true;
        }
        let eof = match conn.reader.fill(&mut conn.stream) {
            Ok((_, eof)) => eof,
            Err(_) => true,
        };
        while let Ok(Some((tag, payload))) = conn.reader.next_frame() {
            if !self.key.verify(&payload, &tag) {
                continue;
            }
            if let Ok(SmrMsg::Reply(reply)) = from_bytes::<SmrMsg>(&payload) {
                replies.push(reply);
            }
        }
        !eof
    }

    /// Counts one reply towards its operation's quorum.
    #[allow(clippy::too_many_arguments)]
    fn tally(
        &mut self,
        c: usize,
        r: usize,
        reply: smartchain_smr::types::Reply,
        now: u64,
        spec: &RunSpec,
        first_measured: usize,
        out: &mut Outcome,
    ) {
        let client = &mut self.clients[c];
        let Some(flight) = &mut client.in_flight else {
            return;
        };
        if reply.client != client.plan.id || reply.seq != flight.op as u64 + 1 {
            return; // a late reply to an earlier operation
        }
        if flight.first_reply_ns == 0 {
            flight.first_reply_ns = now;
        }
        // The connection, not the reply's `replica` field, identifies the
        // voter: a replica cannot vote under another's name.
        if *reply.result == *client.plan.ops[flight.op].expected {
            flight.good |= 1 << r;
        } else {
            flight.bad |= 1 << r;
        }
        let correct = flight.good.count_ones() as usize >= self.quorum;
        let wrong = flight.bad.count_ones() as usize >= self.quorum;
        if !correct && !wrong {
            return;
        }
        let flight = client.in_flight.take().expect("checked above");
        client.ready_ns = now;
        if wrong && !correct {
            out.failed += 1;
            out.wrong += 1;
            return;
        }
        out.completed += 1;
        if flight.op < first_measured {
            return;
        }
        out.measured_completed += 1;
        out.latency_ns.push(now.saturating_sub(flight.due_ns));
        out.lateness_ns
            .push(flight.sent_ns.saturating_sub(flight.free_ns));
        if spec.trace {
            out.spans.push(OpSpan {
                client: client.plan.id,
                seq: flight.op as u64 + 1,
                due_ns: flight.due_ns,
                sent_ns: flight.sent_ns,
                first_reply_ns: flight.first_reply_ns,
                quorum_ns: now,
            });
        }
    }

    /// Dials every connection that is down (a refused dial costs a few
    /// microseconds on loopback).
    fn redial(&mut self) {
        let n = self.addrs.len();
        for (c, client) in self.clients.iter_mut().enumerate() {
            for r in 0..n {
                if client.conns[r].is_some() {
                    continue;
                }
                if let Ok(conn) = dial(&self.addrs[r], client.plan.id) {
                    self.fds[c * n + r] = PollFd::new(conn.stream.as_raw_fd(), POLLIN);
                    client.conns[r] = Some(conn);
                }
            }
        }
    }
}
