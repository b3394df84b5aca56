//! Closed-loop client actors for the simulator.
//!
//! The paper drives its experiments with 2400 client processes spread over
//! four machines, each issuing a request and waiting for matching replies
//! before sending the next (§VI-A). One [`ClientActor`] hosts many *logical*
//! clients (to keep simulation event counts manageable), each an independent
//! closed loop: send to all replicas → await `f+1` matching replies → next
//! request. Unanswered requests are resent on a fixed timer.

use crate::actor::client_id;
use crate::ordering::{SmrEnvelope, SmrMsg};
use crate::types::{Reply, Request};
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_sim::metrics::LatencyMeter;
use smartchain_sim::{Actor, Ctx, Event, NodeId, Time, MILLI, SECOND};
use std::collections::{BTreeMap, HashMap};

/// Builds application requests for a workload.
pub trait RequestFactory: Send {
    /// Produces the request for `(client, seq)`.
    fn make(&mut self, client: u64, seq: u64) -> Request;
}

/// Factory for the test counter application.
pub struct CounterFactory {
    signed: bool,
    keys: HashMap<u64, SecretKey>,
}

impl CounterFactory {
    /// Creates a factory; `signed` controls request signatures.
    pub fn new(signed: bool) -> CounterFactory {
        CounterFactory {
            signed,
            keys: HashMap::new(),
        }
    }
}

impl RequestFactory for CounterFactory {
    fn make(&mut self, client: u64, seq: u64) -> Request {
        let payload = vec![(client % 251) as u8, (seq % 251) as u8, 1];
        let signature = if self.signed {
            let key = self.keys.entry(client).or_insert_with(|| {
                let mut seed = [0u8; 32];
                seed[..8].copy_from_slice(&client.to_le_bytes());
                seed[8] = 0xc1;
                SecretKey::from_seed(Backend::Sim, &seed)
            });
            let sig = key.sign(&Request::sign_payload(client, seq, &payload));
            Some((key.public_key(), sig))
        } else {
            None
        };
        Request {
            client,
            seq,
            payload,
            signature,
        }
    }
}

/// Client behaviour parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Logical clients hosted by this actor.
    pub logical_clients: u32,
    /// Requests each logical client issues (None = unbounded).
    pub requests_per_client: Option<u64>,
}

/// Retransmission timeout: an unanswered request is resent to every replica
/// once it is this old.
const RETRANSMIT_AFTER: Time = 2 * SECOND;

/// Delay before the first request (lets replicas initialize).
const START_DELAY: Time = MILLI;

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            logical_clients: 1,
            requests_per_client: None,
        }
    }
}

struct Outstanding {
    request: Request,
    /// First send: the recorded latency counts from here.
    first_sent: Time,
    /// Last send, first or retransmitted: the retransmit timer counts from
    /// here.
    sent_at: Time,
    /// result bytes -> the nodes that sent a reply with them.
    replies: HashMap<Vec<u8>, Vec<NodeId>>,
}

/// A simulation actor hosting `logical_clients` closed-loop clients.
///
/// Generic over the network message type `M` so the same client drives plain
/// SMR replicas and SmartChain nodes.
pub struct ClientActor<M = SmrMsg> {
    _marker: std::marker::PhantomData<M>,
    node: NodeId,
    replicas: Vec<NodeId>,
    f: usize,
    config: ClientConfig,
    factory: Box<dyn RequestFactory>,
    next_seq: HashMap<u64, u64>,
    /// In-flight requests, ordered by (client, seq) so the retransmit scan
    /// walks them deterministically (hash order would vary run to run and
    /// break seeded reproducibility).
    outstanding: BTreeMap<(u64, u64), Outstanding>,
    latency: LatencyMeter,
    completed: u64,
}

impl<M: SmrEnvelope> ClientActor<M> {
    /// Creates a client actor on simulation node `node`.
    pub fn new(
        node: NodeId,
        replicas: Vec<NodeId>,
        f: usize,
        config: ClientConfig,
        factory: Box<dyn RequestFactory>,
    ) -> ClientActor<M> {
        ClientActor {
            _marker: std::marker::PhantomData,
            node,
            replicas,
            f,
            config,
            factory,
            next_seq: HashMap::new(),
            outstanding: BTreeMap::new(),
            latency: LatencyMeter::new(),
            completed: 0,
        }
    }

    /// Completed request count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Observed latencies.
    pub fn latency(&self) -> &LatencyMeter {
        &self.latency
    }

    fn fire_next(&mut self, logical: u64, ctx: &mut Ctx<'_, M>) {
        let seq = self.next_seq.entry(logical).or_insert(0);
        if let Some(limit) = self.config.requests_per_client {
            if *seq >= limit {
                return;
            }
        }
        let this_seq = *seq;
        *seq += 1;
        let request = self.factory.make(logical, this_seq);
        let msg = M::from_smr(SmrMsg::Request(request.clone()));
        let size = msg.envelope_size();
        for &r in &self.replicas {
            ctx.send(r, msg.clone(), size);
        }
        self.outstanding.insert(
            (logical, this_seq),
            Outstanding {
                request,
                first_sent: ctx.now(),
                sent_at: ctx.now(),
                replies: HashMap::new(),
            },
        );
    }

    /// Counts `reply` for the node that sent it: the `replica` field is
    /// written by the replier, so one faulty node could otherwise claim to
    /// be a quorum on its own.
    fn on_reply(&mut self, from: NodeId, reply: Reply, ctx: &mut Ctx<'_, M>) {
        let key = (reply.client, reply.seq);
        let required = self.f + 1;
        let Some(entry) = self.outstanding.get_mut(&key) else {
            return; // duplicate/late reply
        };
        let repliers = entry.replies.entry(reply.result).or_default();
        if repliers.contains(&from) {
            return;
        }
        repliers.push(from);
        if repliers.len() >= required {
            let first_sent = entry.first_sent;
            self.outstanding.remove(&key);
            self.latency.record(ctx.now() - first_sent);
            self.completed += 1;
            self.fire_next(key.0, ctx);
        }
    }
}

impl<M: SmrEnvelope> Actor<M> for ClientActor<M> {
    fn on_event(&mut self, event: Event<M>, ctx: &mut Ctx<'_, M>) {
        match event {
            Event::Start => {
                ctx.set_timer(START_DELAY, 0);
                ctx.set_timer(RETRANSMIT_AFTER, 1);
            }
            Event::Timer { token: 0 } => {
                for slot in 0..self.config.logical_clients {
                    let logical = client_id(self.node, slot);
                    self.fire_next(logical, ctx);
                }
            }
            Event::Timer { token: 1 } => {
                // Retransmit stragglers.
                let now = ctx.now();
                let stale: Vec<Request> = self
                    .outstanding
                    .values_mut()
                    .filter(|o| now.saturating_sub(o.sent_at) >= RETRANSMIT_AFTER)
                    .map(|o| {
                        o.sent_at = now;
                        o.request.clone()
                    })
                    .collect();
                for request in stale {
                    let msg = M::from_smr(SmrMsg::Request(request));
                    let size = msg.envelope_size();
                    for &r in &self.replicas {
                        ctx.send(r, msg.clone(), size);
                    }
                }
                ctx.set_timer(RETRANSMIT_AFTER, 1);
            }
            Event::Timer { .. } => {}
            Event::Message { from, msg } => {
                if let Some(reply) = msg.as_reply() {
                    self.on_reply(from, reply.clone(), ctx);
                }
            }
            Event::OpDone { .. } | Event::Crash | Event::Recover => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_sim::hw::HwSpec;
    use smartchain_sim::Cluster;

    #[test]
    fn factory_produces_increasing_seqs() {
        let mut f = CounterFactory::new(true);
        let a = f.make(client_id(5, 0), 0);
        let b = f.make(client_id(5, 0), 1);
        assert_eq!(a.client, b.client);
        assert!(a.verify_signature() && b.verify_signature());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn client_ids_embed_node() {
        let c = client_id(7, 3);
        assert_eq!(crate::actor::client_node(c), 7);
    }

    /// A scripted replier: answers each request with one reply per id in
    /// `claims`, all with the same result. Silent when `claims` is empty.
    /// With `skip_first` it ignores the first copy of each request and
    /// answers only its retransmissions.
    struct Replier {
        claims: Vec<usize>,
        skip_first: bool,
        seen: std::collections::HashSet<(u64, u64)>,
    }

    impl Replier {
        fn new(claims: Vec<usize>, skip_first: bool) -> Replier {
            Replier {
                claims,
                skip_first,
                seen: Default::default(),
            }
        }
    }

    impl Actor<SmrMsg> for Replier {
        fn on_event(&mut self, event: Event<SmrMsg>, ctx: &mut Ctx<'_, SmrMsg>) {
            if let Event::Message {
                from,
                msg: SmrMsg::Request(request),
            } = event
            {
                if self.skip_first && self.seen.insert((request.client, request.seq)) {
                    return;
                }
                for &replica in &self.claims {
                    let reply = SmrMsg::Reply(Reply {
                        client: request.client,
                        seq: request.seq,
                        result: vec![7],
                        replica,
                    });
                    let size = reply.envelope_size();
                    ctx.send(from, reply, size);
                }
            }
        }
    }

    /// Requests completed, and their latencies, by a client at f = 1 whose
    /// four replicas are `repliers`.
    fn run_client(repliers: [Replier; 4]) -> (u64, LatencyMeter) {
        let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
        for replier in repliers {
            actors.push(Box::new(replier));
        }
        actors.push(Box::new(ClientActor::<SmrMsg>::new(
            4,
            (0..4).collect(),
            1,
            ClientConfig {
                requests_per_client: Some(3),
                ..ClientConfig::default()
            },
            Box::new(CounterFactory::new(false)),
        )));
        let mut cluster = Cluster::new(actors, HwSpec::test_fast(), 5);
        cluster.run_until(20 * SECOND);
        let client = cluster
            .actor(4)
            .as_any()
            .downcast_ref::<ClientActor>()
            .expect("client actor");
        (client.completed(), client.latency().clone())
    }

    /// Requests completed by a client whose replicas are scripted by
    /// `claims[node]`.
    fn completed_with(claims: [Vec<usize>; 4]) -> u64 {
        run_client(claims.map(|claims| Replier::new(claims, false))).0
    }

    #[test]
    fn one_node_claiming_two_replica_ids_is_one_reply() {
        assert_eq!(completed_with([vec![0, 1], vec![], vec![], vec![]]), 0);
        assert_eq!(completed_with([vec![0], vec![1], vec![], vec![]]), 3);
    }

    #[test]
    fn latency_counts_from_the_first_send() {
        let (completed, latency) = run_client([0, 1, 2, 3].map(|r| Replier::new(vec![r], true)));
        assert_eq!(completed, 3);
        let fastest = latency.percentile_seconds(0.0);
        let retransmit = RETRANSMIT_AFTER as f64 / SECOND as f64;
        assert!(
            fastest >= retransmit,
            "a request answered only on its resend took {fastest} s, less than the {retransmit} s timeout"
        );
    }
}
