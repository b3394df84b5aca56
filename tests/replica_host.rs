//! The deployed replica without sockets: four `ReplicaHost`s — the state
//! machine `TcpCluster` and `serve_replica` pump — wired by an in-memory
//! net, on temp-dir storage, with a clock advanced by hand.
//!
//! 1. 8 clients × 25 requests each get f + 1 matching replies, and every
//!    host applies the same batches.
//! 2. With a checkpoint every 4 batches every host assembles the
//!    checkpoint certificate, and a read-proof request returns a
//!    `ReadProof` that verifies against the view.
//! 3. Host 3 is dropped while traffic runs past two checkpoints, then
//!    reopened from its directory while every message from replica 2 to 3
//!    is lost: its state request to replica 2 goes unanswered, and one
//!    deadline later replica 1 ships the state it catches up from.
//! 4. The whole scenario, run twice, writes the same output sequence.
//! 5. A syncing host fed a state reply that reports regency `u32::MAX`
//!    survives two deadlines and sends no STOP.

use smartchain::consensus::messages::ConsensusMsg;
use smartchain::consensus::ReplicaId;
use smartchain::crypto::keys::Backend;
use smartchain::smr::app::CounterApp;
use smartchain::smr::durability::{DurableApp, ReadProof};
use smartchain::smr::ordering::SmrMsg;
use smartchain::smr::runtime::{read_proof_request_payload, ReplicaHost};
use smartchain::smr::transport::{ClusterConfig, NetEvent, NetSink};
use smartchain::smr::types::{Reply, Request};
use smartchain::storage::testing::TempDir;
use std::collections::BTreeMap;
use std::time::Instant;

const N: usize = 4;
const CLIENTS: u64 = 8;
/// Batches between checkpoints.
const PERIOD: u64 = 4;

/// One write of a host, as it reached its sink.
#[derive(Clone, Debug, PartialEq)]
enum Wire {
    Send(ReplicaId, SmrMsg),
    Broadcast(SmrMsg),
    Reply(Reply),
}

/// What one host wrote during one step or deadline, in order.
#[derive(Default)]
struct Outbox(Vec<Wire>);

impl NetSink for Outbox {
    fn send(&mut self, to: ReplicaId, msg: SmrMsg) {
        self.0.push(Wire::Send(to, msg));
    }

    fn broadcast(&mut self, msg: &SmrMsg) {
        self.0.push(Wire::Broadcast(msg.clone()));
    }

    fn reply(&mut self, reply: Reply) {
        self.0.push(Wire::Reply(reply));
    }

    fn reply_all(&mut self, replies: Vec<Reply>) {
        self.0.extend(replies.into_iter().map(Wire::Reply));
    }
}

fn cluster() -> ClusterConfig {
    let addrs = (0..N).map(|i| format!("replica-{i}")).collect();
    let mut cluster = ClusterConfig::new(addrs, [7; 32]);
    cluster.checkpoint_period = PERIOD;
    cluster.require_signed = false;
    cluster
}

fn open_host(
    cluster: &ClusterConfig,
    me: ReplicaId,
    dir: &TempDir,
    now: Instant,
) -> ReplicaHost<CounterApp> {
    let durable = DurableApp::open(CounterApp::new(), dir, PERIOD).expect("open storage");
    ReplicaHost::new(cluster, me, Backend::Sim, durable, now)
}

/// Four hosts on an in-memory net: every message reaches its live
/// destination's inbox, except on the one cut link.
struct Net {
    cluster: ClusterConfig,
    dirs: Vec<TempDir>,
    hosts: Vec<Option<ReplicaHost<CounterApp>>>,
    inbox: Vec<Vec<NetEvent>>,
    now: Instant,
    /// A `(from, to)` link that loses every message.
    cut: Option<(ReplicaId, ReplicaId)>,
    /// Every write of every host, tagged with its writer.
    transcript: Vec<(ReplicaId, Wire)>,
    /// Results per `(client, seq)`, by replying replica.
    replies: BTreeMap<(u64, u64), BTreeMap<ReplicaId, Vec<u8>>>,
    /// The next sequence number of each client.
    next_seq: Vec<u64>,
}

impl Net {
    fn new(tag: &str) -> Net {
        let cluster = cluster();
        let now = Instant::now();
        let dirs: Vec<TempDir> = (0..N)
            .map(|i| TempDir::new(&format!("smartchain-host-{tag}-{i}")))
            .collect();
        let hosts = (0..N)
            .map(|i| Some(open_host(&cluster, i, &dirs[i], now)))
            .collect();
        Net {
            cluster,
            dirs,
            hosts,
            inbox: (0..N).map(|_| Vec::new()).collect(),
            now,
            cut: None,
            transcript: Vec::new(),
            replies: BTreeMap::new(),
            next_seq: vec![1; CLIENTS as usize],
        }
    }

    fn host(&self, i: ReplicaId) -> &ReplicaHost<CounterApp> {
        self.hosts[i].as_ref().expect("live host")
    }

    fn route(&mut self, from: ReplicaId, out: Outbox) {
        for wire in out.0 {
            let mut deliver = |to: ReplicaId, msg: SmrMsg| {
                if self.hosts[to].is_some() && self.cut != Some((from, to)) {
                    self.inbox[to].push(NetEvent::Peer { from, msg });
                }
            };
            match &wire {
                Wire::Send(to, msg) => deliver(*to, msg.clone()),
                Wire::Broadcast(msg) => {
                    for to in (0..N).filter(|&to| to != from) {
                        deliver(to, msg.clone());
                    }
                }
                Wire::Reply(reply) => {
                    self.replies
                        .entry((reply.client, reply.seq))
                        .or_default()
                        .insert(from, reply.result.clone());
                }
            }
            self.transcript.push((from, wire));
        }
    }

    /// Steps every host with its inbox until no message is in flight.
    fn settle(&mut self) {
        loop {
            let mut idle = true;
            for i in 0..N {
                let events = std::mem::take(&mut self.inbox[i]);
                let Some(host) = self.hosts[i].as_mut().filter(|_| !events.is_empty()) else {
                    continue;
                };
                idle = false;
                let mut out = Outbox::default();
                assert!(host.step(events, self.now, &mut out), "host {i} stopped");
                self.route(i, out);
            }
            if idle {
                return;
            }
        }
    }

    /// Advances the clock to the earliest deadline and ticks every host
    /// that is due. Returns the hosts that ticked.
    fn tick(&mut self) -> Vec<ReplicaId> {
        let next = self.hosts.iter().flatten().map(ReplicaHost::next_deadline);
        self.now = self.now.max(next.min().expect("a live host"));
        let mut ticked = Vec::new();
        for i in 0..N {
            let Some(host) = self.hosts[i].as_mut() else {
                continue;
            };
            if host.next_deadline() <= self.now {
                let mut out = Outbox::default();
                assert!(host.on_deadline(self.now, &mut out), "host {i} stopped");
                self.route(i, out);
                ticked.push(i);
            }
        }
        self.settle();
        ticked
    }

    /// Sends `request` to every live host, as a client does.
    fn submit(&mut self, request: &Request) {
        for i in 0..N {
            if self.hosts[i].is_some() {
                self.inbox[i].push(NetEvent::Client(request.clone()));
            }
        }
    }

    /// Whether f + 1 replicas returned the same result for `(client, seq)`.
    fn answered(&self, client: u64, seq: u64) -> bool {
        let Some(results) = self.replies.get(&(client, seq)) else {
            return false;
        };
        let quorum = self.cluster.f() + 1;
        results
            .values()
            .any(|r| results.values().filter(|s| *s == r).count() >= quorum)
    }

    /// Every client issues `ops` more requests, one at a time, each sent
    /// once the previous one has f + 1 matching replies. No request is
    /// lost on the way, so no deadline has to pass.
    fn run_clients(&mut self, ops: u64) {
        let last: Vec<u64> = self.next_seq.iter().map(|s| s + ops - 1).collect();
        for client in 0..CLIENTS {
            self.submit(&request(client, self.next_seq[client as usize]));
        }
        loop {
            self.settle();
            let mut waiting = false;
            for client in 0..CLIENTS {
                let seq = self.next_seq[client as usize];
                if seq > last[client as usize] {
                    continue;
                }
                assert!(self.answered(client, seq), "client {client} seq {seq}");
                self.next_seq[client as usize] += 1;
                if seq < last[client as usize] {
                    self.submit(&request(client, seq + 1));
                    waiting = true;
                }
            }
            if !waiting {
                return;
            }
        }
    }

    /// Asserts that the live hosts applied the same batches.
    fn assert_agree(&self) {
        let first = self.host(0).durable();
        for host in self.hosts.iter().flatten() {
            let durable = host.durable();
            assert_eq!(durable.batches_applied(), first.batches_applied());
            assert_eq!(durable.tip(), first.tip());
            assert_eq!(durable.app().totals(), first.app().totals());
        }
    }
}

fn request(client: u64, seq: u64) -> Request {
    Request {
        client,
        seq,
        payload: vec![(client + seq) as u8 % 5 + 1],
        signature: None,
    }
}

/// Runs phases 1–3 and returns everything the hosts wrote.
fn scenario(tag: &str) -> Vec<(ReplicaId, Wire)> {
    let mut net = Net::new(tag);

    // 1. Ordering: every request answered, every host in agreement.
    net.run_clients(25);
    net.assert_agree();
    let ordered = net.host(0).durable().batches_applied();
    assert!(ordered >= 2 * PERIOD, "{ordered} batches");

    // 2. Checkpoint certificates and a light-client read.
    let view = net.cluster.view(Backend::Sim);
    for host in net.hosts.iter().flatten() {
        let (covered, _, _) = host.durable().latest_checkpoint_basis().expect("basis");
        let cert = host.durable().checkpoint_cert().expect("certificate");
        assert_eq!(cert.covered, covered);
        assert!(cert.verify(&view));
    }
    let read = Request {
        client: 99,
        seq: 1,
        payload: read_proof_request_payload(0),
        signature: None,
    };
    net.inbox[1].push(NetEvent::Client(read));
    net.settle();
    let bytes = &net.replies[&(99, 1)][&1];
    let proof: ReadProof = smartchain::codec::from_bytes(bytes).expect("a ReadProof");
    assert!(
        proof.verify(&view),
        "the read proof verifies against the view"
    );

    // 3. Host 3 misses two checkpoints, then comes back behind a cut link.
    net.hosts[3] = None;
    net.run_clients(15);
    let ahead = net.host(0).durable().batches_applied();
    assert!(ahead >= ordered + 2 * PERIOD + 9, "{ordered} → {ahead}");
    net.cut = Some((2, 3));
    net.hosts[3] = Some(open_host(&net.cluster, 3, &net.dirs[3], net.now));
    assert_eq!(net.host(3).durable().batches_applied(), ordered);
    net.run_clients(2);
    let asked: Vec<ReplicaId> = net
        .transcript
        .iter()
        .filter_map(|(from, wire)| match wire {
            Wire::Send(to, SmrMsg::StateReq { .. }) if *from == 3 => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(asked, vec![2], "the first shipper is replica 2");
    assert!(net.host(3).durable().batches_applied() < ahead);
    assert!(net.tick().contains(&3), "one deadline");
    let shipped = net
        .transcript
        .iter()
        .any(|(from, wire)| *from == 1 && matches!(wire, Wire::Send(3, SmrMsg::StateRep { .. })));
    assert!(shipped, "replica 1 ships the state");
    net.assert_agree();
    net.run_clients(2);
    net.assert_agree();
    net.transcript
}

#[test]
fn four_hosts_order_certify_and_catch_up_reproducibly() {
    let first = scenario("a");
    let second = scenario("b");
    assert_eq!(first.len(), second.len());
    assert!(first == second, "two runs wrote different sequences");
}

#[test]
fn syncing_host_survives_the_highest_reported_regency() {
    let cluster = cluster();
    let dir = TempDir::new("smartchain-host-max-regency");
    let mut now = Instant::now();
    let mut host = open_host(&cluster, 0, &dir, now);
    let mut out = Outbox::default();
    // Traffic far beyond the catch-up window starts a state transfer.
    let far = SmrMsg::Consensus(ConsensusMsg::FetchValue { instance: 100 });
    assert!(host.step([NetEvent::Peer { from: 1, msg: far }], now, &mut out));
    assert!(
        matches!(
            out.0.as_slice(),
            [Wire::Send(3, SmrMsg::StateReq { from_batch: 1 })]
        ),
        "{:?}",
        out.0
    );
    let reply = SmrMsg::StateRep {
        covered: 0,
        snapshot: None,
        first_batch: 1,
        batches: Vec::new(),
        regency: u32::MAX,
        cert: None,
    };
    let events = [
        NetEvent::Peer {
            from: 3,
            msg: reply,
        },
        NetEvent::Client(request(1, 1)),
    ];
    assert!(host.step(events, now, &mut out));
    assert_eq!(host.core().regency(), u32::MAX);
    assert_eq!(host.core().pending_len(), 1);
    for _ in 0..2 {
        now = host.next_deadline();
        assert!(host.on_deadline(now, &mut out));
    }
    let stops = out
        .0
        .iter()
        .filter(|w| matches!(w, Wire::Broadcast(SmrMsg::Sync(_))))
        .count();
    assert_eq!(stops, 0, "{:?}", out.0);
    assert!(
        out.0
            .iter()
            .any(|w| matches!(w, Wire::Broadcast(SmrMsg::InstanceFetch { .. }))),
        "the first deadline still sends its repair round"
    );
    assert_eq!(host.core().regency(), u32::MAX);
}
