//! Closed-loop client actors for the simulator.
//!
//! The paper drives its experiments with 2400 client processes spread over
//! four machines, each issuing a request and waiting for matching replies
//! before sending the next (§VI-A). One [`ClientActor`] hosts many *logical*
//! clients (to keep simulation event counts manageable), each an independent
//! closed loop: send to all replicas → await `f+1` matching replies (or
//! `2f+1` when durable acknowledgement is required, §IV-B) → next request.

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
    /// Matching replies needed beyond `f` (true = durable 2f+1, false = f+1).
    pub durable_quorum: bool,
    /// Retransmission timeout.
    pub retransmit_after: Time,
    /// Delay before the first request (lets replicas initialize).
    pub start_delay: Time,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            logical_clients: 1,
            requests_per_client: None,
            durable_quorum: false,
            retransmit_after: 2 * SECOND,
            start_delay: MILLI,
        }
    }
}

struct Outstanding {
    request: Request,
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

    fn required_matching(&self) -> usize {
        if self.config.durable_quorum {
            2 * self.f + 1
        } else {
            self.f + 1
        }
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
        let required = self.required_matching();
        let Some(entry) = self.outstanding.get_mut(&key) else {
            return; // duplicate/late reply
        };
        let repliers = entry.replies.entry(reply.result).or_default();
        if repliers.contains(&from) {
            return;
        }
        repliers.push(from);
        if repliers.len() >= required {
            let sent_at = entry.sent_at;
            self.outstanding.remove(&key);
            self.latency.record(ctx.now() - sent_at);
            self.completed += 1;
            self.fire_next(key.0, ctx);
        }
    }
}

impl<M: SmrEnvelope> Actor<M> for ClientActor<M> {
    fn on_event(&mut self, event: Event<M>, ctx: &mut Ctx<'_, M>) {
        match event {
            Event::Start => {
                ctx.set_timer(self.config.start_delay, 0);
                ctx.set_timer(self.config.retransmit_after, 1);
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
                    .filter(|o| now.saturating_sub(o.sent_at) >= self.config.retransmit_after)
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
                ctx.set_timer(self.config.retransmit_after, 1);
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
    struct Replier {
        claims: Vec<usize>,
    }

    impl Actor<SmrMsg> for Replier {
        fn on_event(&mut self, event: Event<SmrMsg>, ctx: &mut Ctx<'_, SmrMsg>) {
            if let Event::Message {
                from,
                msg: SmrMsg::Request(request),
            } = event
            {
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

    /// Requests completed by a client at f = 1 whose four replicas are
    /// scripted by `claims[node]`.
    fn completed_with(claims: [Vec<usize>; 4]) -> u64 {
        let mut actors: Vec<Box<dyn Actor<SmrMsg>>> = Vec::new();
        for claims in claims {
            actors.push(Box::new(Replier { claims }));
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
        cluster.run_until(10 * SECOND);
        cluster
            .actor(4)
            .as_any()
            .downcast_ref::<ClientActor>()
            .expect("client actor")
            .completed()
    }

    #[test]
    fn one_node_claiming_two_replica_ids_is_one_reply() {
        assert_eq!(completed_with([vec![0, 1], vec![], vec![], vec![]]), 0);
        assert_eq!(completed_with([vec![0], vec![1], vec![], vec![]]), 3);
    }
}
