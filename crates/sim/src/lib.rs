//! Deterministic discrete-event simulation kernel for SmartChain experiments.
//!
//! The paper evaluates SMARTCHAIN on a 14-machine cluster (1 Gbps switched
//! network, SCSI HDDs, dual quad-core Xeons). This crate replaces that
//! testbed with explicit hardware models driven in *virtual time*:
//!
//! * [`hw::NicModel`] — per-node egress bandwidth + propagation delay; a
//!   leader broadcasting a 100 KB proposal to nine peers pays for nine
//!   serialized transmissions, exactly like a real NIC.
//! * [`hw::DiskModel`] — synchronous-write latency (the HDD fsync penalty at
//!   the heart of the paper's durability analysis) plus streaming bandwidth.
//! * [`hw::CpuModel`] — a sequential "state machine" lane plus a worker pool
//!   for parallel signature verification (Table I's `Parallel Sign.
//!   Verification` column).
//!
//! Experiments build a [`Cluster`] of [`Actor`]s (replicas, clients, load
//! generators), inject faults through [`Sim::crash`]/[`Sim::recover`] and
//! partitions, and read results from [`metrics`]. Every run is reproducible
//! from its RNG seed.

pub mod hw;
pub mod metrics;
pub mod rng;

use rng::SimRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifies a node (replica, client, or auxiliary actor) in a simulation.
pub type NodeId = usize;

/// Virtual time in nanoseconds since simulation start.
pub type Time = u64;

/// One second in simulation time units.
pub const SECOND: Time = 1_000_000_000;
/// One millisecond in simulation time units.
pub const MILLI: Time = 1_000_000;
/// One microsecond in simulation time units.
pub const MICRO: Time = 1_000;

/// Event delivered to an [`Actor`].
#[derive(Debug)]
pub enum Event<M> {
    /// A message from another node.
    Message {
        /// Sender node.
        from: NodeId,
        /// The message itself.
        msg: M,
    },
    /// A timer set with [`Ctx::set_timer`] fired.
    Timer {
        /// Token passed when the timer was set.
        token: u64,
    },
    /// An asynchronous operation (disk write, pool verification) finished.
    OpDone {
        /// Token passed when the operation was submitted.
        token: u64,
    },
    /// Delivered once when the simulation starts.
    Start,
    /// The node just crashed; volatile state is about to be lost. Actors
    /// should treat fields representing stable storage as surviving and
    /// everything else as garbage after this event.
    Crash,
    /// The node restarted after a crash (recovery mode begins).
    Recover,
}

/// Blanket-implemented downcast support so experiment harnesses can inspect
/// concrete actor state after a run (meters, application state, ...).
pub trait AsAny {
    /// Upcasts to `Any` for downcasting by concrete type.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable variant of [`AsAny::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A simulation participant.
pub trait Actor<M>: AsAny {
    /// Handles one event. All interaction with the world goes through `ctx`.
    fn on_event(&mut self, event: Event<M>, ctx: &mut Ctx<'_, M>);
}

#[derive(Debug)]
enum Kind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
    OpDone { node: NodeId, token: u64 },
    Crash { node: NodeId },
    Recover { node: NodeId },
    Start { node: NodeId },
}

struct Scheduled<M> {
    at: Time,
    seq: u64,
    kind: Kind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    crashed: bool,
    /// The sequential execution lane is busy until this instant.
    busy_until: Time,
    /// NIC egress is busy until this instant.
    nic_free_at: Time,
    /// Disk is busy until this instant.
    disk_free_at: Time,
    /// Worker-pool lanes (parallel verification), each free at given instant.
    pool_free_at: Vec<Time>,
    /// Bytes written to disk (accounting).
    disk_bytes: u64,
    /// Count of synchronous flushes issued (accounting).
    disk_syncs: u64,
}

/// The simulation kernel: virtual clock, event queue, hardware models and
/// fault injection.
pub struct Sim<M> {
    now: Time,
    next_seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
    nodes: Vec<NodeState>,
    spec: hw::HwSpec,
    rng: SimRng,
    drop_prob: f64,
    cut_links: HashSet<(NodeId, NodeId)>,
    delivered_messages: u64,
}

impl<M> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl<M> Sim<M> {
    /// Creates a kernel for `node_count` nodes with the given hardware spec
    /// and RNG seed.
    pub fn new(node_count: usize, spec: hw::HwSpec, seed: u64) -> Sim<M> {
        let nodes = (0..node_count)
            .map(|_| NodeState {
                crashed: false,
                busy_until: 0,
                nic_free_at: 0,
                disk_free_at: 0,
                pool_free_at: vec![0; spec.cpu.pool_workers.max(1)],
                disk_bytes: 0,
                disk_syncs: 0,
            })
            .collect();
        let mut sim = Sim {
            now: 0,
            next_seq: 0,
            queue: BinaryHeap::new(),
            nodes,
            spec,
            rng: SimRng::seed_from_u64(seed),
            drop_prob: 0.0,
            cut_links: HashSet::new(),
            delivered_messages: 0,
        };
        for n in 0..node_count {
            sim.push(0, Kind::Start { node: n });
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Count of messages delivered so far.
    pub fn delivered_messages(&self) -> u64 {
        self.delivered_messages
    }

    /// Bytes written to `node`'s disk so far.
    pub fn disk_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node].disk_bytes
    }

    /// Synchronous flushes issued by `node` so far.
    pub fn disk_syncs(&self, node: NodeId) -> u64 {
        self.nodes[node].disk_syncs
    }

    fn push(&mut self, at: Time, kind: Kind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Sets the probability that any individual message is dropped.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_prob = p.clamp(0.0, 1.0);
    }

    /// Cuts (or restores) the directed link `from -> to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, up: bool) {
        if up {
            self.cut_links.remove(&(from, to));
        } else {
            self.cut_links.insert((from, to));
        }
    }

    /// Cuts both directions between `a` and every node in `others`.
    pub fn partition(&mut self, a: NodeId, others: &[NodeId]) {
        for &b in others {
            self.set_link(a, b, false);
            self.set_link(b, a, false);
        }
    }

    /// Schedules a crash of `node` at absolute time `at`.
    pub fn crash(&mut self, node: NodeId, at: Time) {
        self.push(at, Kind::Crash { node });
    }

    /// Schedules a recovery of `node` at absolute time `at`.
    pub fn recover(&mut self, node: NodeId, at: Time) {
        self.push(at, Kind::Recover { node });
    }
}

/// Per-event context handed to actors; all side effects go through here.
pub struct Ctx<'a, M> {
    sim: &'a mut Sim<M>,
    node: NodeId,
    /// CPU time charged by the handler so far (sequential lane).
    charged: Time,
}

impl<'a, M> Ctx<'a, M> {
    /// The node this context belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time (at the start of handling this event).
    pub fn now(&self) -> Time {
        self.sim.now
    }

    /// Deterministic per-run randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }

    /// Charges sequential CPU time to this node: outputs issued by the
    /// handler take effect after all charged time, and the node cannot
    /// process its next event until then.
    pub fn charge(&mut self, duration: Time) {
        self.charged += duration;
    }

    /// Charges the cost of `count` operations of `each` duration to the
    /// verification pool, returning the virtual duration until the pool
    /// drains. Does *not* block the sequential lane; combine with
    /// [`Ctx::op_after`] when the protocol must wait for completion.
    pub fn pool_charge(&mut self, each: Time, count: usize) -> Time {
        let start = self.sim.now + self.charged;
        let lanes = &mut self.sim.nodes[self.node].pool_free_at;
        let mut finish = start;
        for _ in 0..count {
            // Assign to the earliest-free lane.
            let (idx, &free) = lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("pool has at least one lane");
            let begin = free.max(start);
            let end = begin + each;
            lanes[idx] = end;
            finish = finish.max(end);
        }
        finish - start
    }

    /// Sends `msg` (of `size` wire bytes) to `to`, paying NIC egress cost.
    pub fn send(&mut self, to: NodeId, msg: M, size: usize) {
        let from = self.node;
        if self.sim.nodes[from].crashed {
            return;
        }
        let ready = self.sim.now + self.charged;
        let nic = &self.sim.spec.nic;
        let egress_start = self.sim.nodes[from].nic_free_at.max(ready);
        let egress_end = egress_start + nic.transmit_time(size);
        self.sim.nodes[from].nic_free_at = egress_end;
        if self.sim.cut_links.contains(&(from, to)) {
            return; // transmitted into the void
        }
        if self.sim.drop_prob > 0.0 && self.sim.rng.gen_bool(self.sim.drop_prob) {
            return;
        }
        let jitter = if nic.jitter_ns > 0 {
            self.sim.rng.gen_range(nic.jitter_ns)
        } else {
            0
        };
        let arrival = egress_end + nic.propagation_ns + jitter;
        self.sim.push(arrival, Kind::Deliver { from, to, msg });
    }

    /// Sets a timer that fires after `delay`, delivering [`Event::Timer`]
    /// with `token`.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        let node = self.node;
        let at = self.sim.now + self.charged + delay;
        self.sim.push(at, Kind::Timer { node, token });
    }

    /// Schedules [`Event::OpDone`] with `token` after `delay` (used to model
    /// completions of asynchronous work such as pool verification).
    pub fn op_after(&mut self, delay: Time, token: u64) {
        let node = self.node;
        let at = self.sim.now + self.charged + delay;
        self.sim.push(at, Kind::OpDone { node, token });
    }

    /// Writes `size` bytes to this node's disk.
    ///
    /// With `sync == true` the write costs the full synchronous-write latency
    /// and [`Event::OpDone`] with `token` fires when it is durable. With
    /// `sync == false` the write only occupies disk bandwidth and no
    /// completion is delivered (fire and forget), matching OS-buffered
    /// writes.
    pub fn disk_write(&mut self, size: usize, sync: bool, token: u64) {
        let node = self.node;
        let start = self.sim.nodes[node]
            .disk_free_at
            .max(self.sim.now + self.charged);
        let disk = &self.sim.spec.disk;
        let dur = disk.write_time(size, sync);
        let end = start + dur;
        self.sim.nodes[node].disk_free_at = end;
        self.sim.nodes[node].disk_bytes += size as u64;
        if sync {
            self.sim.nodes[node].disk_syncs += 1;
            self.sim.push(end, Kind::OpDone { node, token });
        }
    }

    /// Reads `size` bytes from this node's disk, completing with
    /// [`Event::OpDone`] and `token`.
    pub fn disk_read(&mut self, size: usize, token: u64) {
        let node = self.node;
        let start = self.sim.nodes[node]
            .disk_free_at
            .max(self.sim.now + self.charged);
        let dur = self.sim.spec.disk.read_time(size);
        let end = start + dur;
        self.sim.nodes[node].disk_free_at = end;
        self.sim.push(end, Kind::OpDone { node, token });
    }

    /// The hardware spec in force (for cost lookups by protocol code).
    pub fn hw(&self) -> &hw::HwSpec {
        &self.sim.spec
    }
}

/// Owns the actors and drives the kernel.
pub struct Cluster<M> {
    sim: Sim<M>,
    actors: Vec<Box<dyn Actor<M>>>,
}

impl<M> std::fmt::Debug for Cluster<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("sim", &self.sim)
            .finish_non_exhaustive()
    }
}

impl<M> Cluster<M> {
    /// Builds a cluster from actors (node ids are assigned by position).
    pub fn new(actors: Vec<Box<dyn Actor<M>>>, spec: hw::HwSpec, seed: u64) -> Cluster<M> {
        let sim = Sim::new(actors.len(), spec, seed);
        Cluster { sim, actors }
    }

    /// Kernel access (fault injection, clock, accounting).
    pub fn sim(&mut self) -> &mut Sim<M> {
        &mut self.sim
    }

    /// Immutable kernel access.
    pub fn sim_ref(&self) -> &Sim<M> {
        &self.sim
    }

    /// Access an actor (e.g. to read metrics after a run).
    pub fn actor(&self, id: NodeId) -> &dyn Actor<M> {
        self.actors[id].as_ref()
    }

    /// Processes events until the queue empties or virtual time passes
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let mut processed = 0u64;
        while let Some(head) = self.sim.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Scheduled { at, kind, .. } = self.sim.queue.pop().expect("peeked");
            self.sim.now = at.max(self.sim.now);
            processed += 1;
            match kind {
                Kind::Crash { node } => {
                    self.sim.nodes[node].crashed = true;
                    let mut ctx = Ctx {
                        sim: &mut self.sim,
                        node,
                        charged: 0,
                    };
                    self.actors[node].on_event(Event::Crash, &mut ctx);
                }
                Kind::Recover { node } => {
                    self.sim.nodes[node].crashed = false;
                    self.sim.nodes[node].busy_until = self.sim.now;
                    self.dispatch(node, Event::Recover);
                }
                Kind::Start { node } => self.dispatch(node, Event::Start),
                Kind::Timer { node, token } => self.dispatch(node, Event::Timer { token }),
                Kind::OpDone { node, token } => self.dispatch(node, Event::OpDone { token }),
                Kind::Deliver { from, to, msg } => {
                    if !self.sim.nodes[to].crashed {
                        self.sim.delivered_messages += 1;
                        self.dispatch(to, Event::Message { from, msg });
                    }
                }
            }
        }
        processed
    }

    fn dispatch(&mut self, node: NodeId, event: Event<M>) {
        if self.sim.nodes[node].crashed {
            return;
        }
        // If the node's sequential lane is still busy, defer the event.
        if self.sim.nodes[node].busy_until > self.sim.now {
            let at = self.sim.nodes[node].busy_until;
            let kind = match event {
                Event::Message { from, msg } => Kind::Deliver {
                    from,
                    to: node,
                    msg,
                },
                Event::Timer { token } => Kind::Timer { node, token },
                Event::OpDone { token } => Kind::OpDone { node, token },
                Event::Start => Kind::Start { node },
                Event::Recover => Kind::Recover { node },
                Event::Crash => Kind::Crash { node },
            };
            self.sim.push(at, kind);
            return;
        }
        let mut ctx = Ctx {
            sim: &mut self.sim,
            node,
            charged: 0,
        };
        self.actors[node].on_event(event, &mut ctx);
        let charged = ctx.charged;
        if charged > 0 {
            self.sim.nodes[node].busy_until = self.sim.now + charged;
        }
    }

    /// Runs to quiescence (empty queue). Mostly useful in tests; live
    /// workloads keep the queue non-empty forever.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone)]
    enum Ping {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: NodeId,
        log: Rc<RefCell<Vec<(Time, u32)>>>,
        count: u32,
    }

    impl Actor<Ping> for Pinger {
        fn on_event(&mut self, event: Event<Ping>, ctx: &mut Ctx<'_, Ping>) {
            match event {
                Event::Start => ctx.send(self.peer, Ping::Ping(0), 100),
                Event::Message {
                    msg: Ping::Pong(n), ..
                } => {
                    self.log.borrow_mut().push((ctx.now(), n));
                    if n < self.count {
                        ctx.send(self.peer, Ping::Ping(n + 1), 100);
                    }
                }
                _ => {}
            }
        }
    }

    struct Ponger;

    impl Actor<Ping> for Ponger {
        fn on_event(&mut self, event: Event<Ping>, ctx: &mut Ctx<'_, Ping>) {
            if let Event::Message {
                from,
                msg: Ping::Ping(n),
            } = event
            {
                ctx.charge(10 * MICRO);
                ctx.send(from, Ping::Pong(n), 100);
            }
        }
    }

    fn spec() -> hw::HwSpec {
        hw::HwSpec::paper_testbed()
    }

    #[test]
    fn ping_pong_roundtrips() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![
            Box::new(Pinger {
                peer: 1,
                log: Rc::clone(&log),
                count: 5,
            }),
            Box::new(Ponger),
        ];
        let mut cluster = Cluster::new(actors, spec(), 1);
        cluster.run_to_quiescence();
        let log = log.borrow();
        assert_eq!(log.len(), 6);
        assert_eq!(log.last().unwrap().1, 5);
        // Time strictly advances and includes the 10us processing charge.
        assert!(log.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let actors: Vec<Box<dyn Actor<Ping>>> = vec![
                Box::new(Pinger {
                    peer: 1,
                    log: Rc::clone(&log),
                    count: 20,
                }),
                Box::new(Ponger),
            ];
            let mut cluster = Cluster::new(actors, spec(), seed);
            cluster.run_to_quiescence();
            let v = log.borrow().clone();
            v
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crash_stops_delivery_and_recover_resumes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![
            Box::new(Pinger {
                peer: 1,
                log: Rc::clone(&log),
                count: 1000,
            }),
            Box::new(Ponger),
        ];
        let mut cluster = Cluster::new(actors, spec(), 3);
        cluster.sim().crash(1, MILLI);
        cluster.run_until(10 * MILLI);
        let after_crash = log.borrow().len();
        cluster.run_until(20 * MILLI);
        // No progress while peer is down.
        assert_eq!(log.borrow().len(), after_crash);
    }

    #[test]
    fn cut_link_blocks_messages() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![
            Box::new(Pinger {
                peer: 1,
                log: Rc::clone(&log),
                count: 10,
            }),
            Box::new(Ponger),
        ];
        let mut cluster = Cluster::new(actors, spec(), 3);
        cluster.sim().set_link(0, 1, false);
        cluster.run_until(SECOND);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn charge_serializes_node_processing() {
        // A node charged 1ms per event handles at most 1000 events/sec.
        struct Busy {
            handled: Rc<RefCell<u32>>,
        }
        impl Actor<Ping> for Busy {
            fn on_event(&mut self, event: Event<Ping>, ctx: &mut Ctx<'_, Ping>) {
                if matches!(event, Event::Message { .. }) {
                    *self.handled.borrow_mut() += 1;
                    ctx.charge(MILLI);
                }
            }
        }
        struct Spammer {
            peer: NodeId,
        }
        impl Actor<Ping> for Spammer {
            fn on_event(&mut self, event: Event<Ping>, ctx: &mut Ctx<'_, Ping>) {
                if matches!(event, Event::Start) {
                    for i in 0..100 {
                        ctx.send(self.peer, Ping::Ping(i), 10);
                    }
                }
            }
        }
        let handled = Rc::new(RefCell::new(0));
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![
            Box::new(Spammer { peer: 1 }),
            Box::new(Busy {
                handled: Rc::clone(&handled),
            }),
        ];
        let mut cluster = Cluster::new(actors, spec(), 5);
        cluster.run_until(50 * MILLI);
        let n = *handled.borrow();
        assert!((45..=55).contains(&n), "expected ~50 handled, got {n}");
    }

    #[test]
    fn disk_accounting() {
        struct Writer;
        impl Actor<Ping> for Writer {
            fn on_event(&mut self, event: Event<Ping>, ctx: &mut Ctx<'_, Ping>) {
                if matches!(event, Event::Start) {
                    ctx.disk_write(4096, true, 1);
                    ctx.disk_write(4096, false, 2);
                }
            }
        }
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![Box::new(Writer)];
        let mut cluster = Cluster::new(actors, spec(), 1);
        cluster.run_to_quiescence();
        assert_eq!(cluster.sim_ref().disk_bytes(0), 8192);
        assert_eq!(cluster.sim_ref().disk_syncs(0), 1);
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone)]
    struct Nothing;

    /// The verification pool parallelizes up to `pool_workers` lanes: 8 jobs
    /// of 1ms on 4 lanes drain in 2ms, not 8ms.
    #[test]
    fn pool_charge_models_parallelism() {
        struct PoolUser {
            drain: Rc<RefCell<Time>>,
        }
        impl Actor<Nothing> for PoolUser {
            fn on_event(&mut self, event: Event<Nothing>, ctx: &mut Ctx<'_, Nothing>) {
                if matches!(event, Event::Start) {
                    *self.drain.borrow_mut() = ctx.pool_charge(MILLI, 8);
                }
            }
        }
        let drain = Rc::new(RefCell::new(0));
        let actors: Vec<Box<dyn Actor<Nothing>>> = vec![Box::new(PoolUser {
            drain: Rc::clone(&drain),
        })];
        let mut cluster = Cluster::new(actors, hw::HwSpec::test_fast(), 1);
        cluster.run_to_quiescence();
        // test_fast has 4 pool workers.
        assert_eq!(*drain.borrow(), 2 * MILLI);
    }

    /// Back-to-back pool batches queue behind each other (lanes are stateful).
    #[test]
    fn pool_lanes_carry_backlog() {
        struct TwoBatches {
            drains: Rc<RefCell<Vec<Time>>>,
        }
        impl Actor<Nothing> for TwoBatches {
            fn on_event(&mut self, event: Event<Nothing>, ctx: &mut Ctx<'_, Nothing>) {
                if matches!(event, Event::Start) {
                    let first = ctx.pool_charge(MILLI, 4); // fills all 4 lanes
                    let second = ctx.pool_charge(MILLI, 4); // queues behind
                    self.drains.borrow_mut().extend([first, second]);
                }
            }
        }
        let drains = Rc::new(RefCell::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<Nothing>>> = vec![Box::new(TwoBatches {
            drains: Rc::clone(&drains),
        })];
        let mut cluster = Cluster::new(actors, hw::HwSpec::test_fast(), 1);
        cluster.run_to_quiescence();
        let d = drains.borrow();
        assert_eq!(d[0], MILLI);
        assert_eq!(d[1], 2 * MILLI, "second batch waits for the first");
    }

    /// Per-node NIC egress serializes sends: broadcasting a large message to
    /// three peers takes three transmission times on the sender side.
    #[test]
    fn egress_serializes_broadcasts() {
        struct Sender;
        impl Actor<Nothing> for Sender {
            fn on_event(&mut self, event: Event<Nothing>, ctx: &mut Ctx<'_, Nothing>) {
                if matches!(event, Event::Start) && ctx.id() == 0 {
                    for peer in 1..4 {
                        ctx.send(peer, Nothing, 1_000_000); // 1MB each
                    }
                }
            }
        }
        struct Receiver {
            at: Rc<RefCell<Vec<Time>>>,
        }
        impl Actor<Nothing> for Receiver {
            fn on_event(&mut self, event: Event<Nothing>, ctx: &mut Ctx<'_, Nothing>) {
                if matches!(event, Event::Message { .. }) {
                    self.at.borrow_mut().push(ctx.now());
                }
            }
        }
        let at = Rc::new(RefCell::new(Vec::new()));
        let mut actors: Vec<Box<dyn Actor<Nothing>>> = vec![Box::new(Sender)];
        for _ in 0..3 {
            actors.push(Box::new(Receiver { at: Rc::clone(&at) }));
        }
        // 1 Gbps: 1MB ~ 8ms per copy.
        let mut cluster = Cluster::new(actors, hw::HwSpec::paper_testbed(), 1);
        cluster.run_to_quiescence();
        let mut times = at.borrow().clone();
        times.sort_unstable();
        assert_eq!(times.len(), 3);
        // Arrival spacing approximately one transmission time (8ms) apart.
        let gap1 = times[1] - times[0];
        let gap2 = times[2] - times[1];
        assert!(gap1 > 6 * MILLI && gap1 < 11 * MILLI, "gap1 {gap1}");
        assert!(gap2 > 6 * MILLI && gap2 < 11 * MILLI, "gap2 {gap2}");
    }
}
