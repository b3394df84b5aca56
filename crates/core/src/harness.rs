//! Reusable simulation-cluster builder for SmartChain experiments: wires up
//! [`ChainNode`]s, prospective joiners and closed-loop clients on the
//! discrete-event kernel. Used by the integration tests, the examples and
//! every benchmark binary.

use crate::block::{Genesis, ViewInfo};
use crate::node::{app_payload, ChainMsg, ChainNode, NodeConfig};
use crate::view_keys::KeyStore;
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_sim::hw::HwSpec;
use smartchain_sim::{Actor, Cluster, NodeId, Time};
use smartchain_smr::app::Application;
use smartchain_smr::client::{ClientActor, ClientConfig, RequestFactory};
use smartchain_smr::ordering::{SmrEnvelope, SmrMsg};
use smartchain_smr::types::{Reply, Request};
use std::collections::HashMap;

impl SmrEnvelope for ChainMsg {
    fn from_smr(msg: SmrMsg) -> Self {
        ChainMsg::Smr(msg)
    }
    fn as_reply(&self) -> Option<&Reply> {
        match self {
            ChainMsg::Smr(SmrMsg::Reply(r)) => Some(r),
            _ => None,
        }
    }
    fn envelope_size(&self) -> usize {
        self.wire_size()
    }
}

/// Wraps an inner factory's payloads in the SmartChain app envelope.
pub struct EnvelopeFactory {
    inner: Box<dyn RequestFactory>,
}

impl EnvelopeFactory {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RequestFactory>) -> EnvelopeFactory {
        EnvelopeFactory { inner }
    }
}

impl RequestFactory for EnvelopeFactory {
    fn make(&mut self, client: u64, seq: u64) -> Request {
        let mut req = self.inner.make(client, seq);
        // The signature produced by the inner factory covers the app bytes;
        // nodes verify accordingly (see `verify_envelope_signature`).
        req.payload = app_payload(&req.payload);
        req
    }
}

/// Per-node schedule for prospective members.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSchedule {
    /// Ask to join at this time.
    pub join_at: Option<Time>,
    /// Ask to leave at this time.
    pub leave_at: Option<Time>,
}

/// Constructor for per-client request factories.
type FactoryMaker = Box<dyn Fn() -> Box<dyn RequestFactory>>;

/// Constructor for application instances (receives the genesis app data).
type AppMaker<A> = Box<dyn Fn(&[u8]) -> A>;

/// Builder for a SmartChain simulation cluster.
pub struct ChainClusterBuilder<A: Application> {
    make_app: AppMaker<A>,
    genesis_members: usize,
    extra_nodes: Vec<NodeSchedule>,
    node_config: NodeConfig,
    hw: HwSpec,
    seed: u64,
    checkpoint_period: u64,
    app_data: Vec<u8>,
    client_actors: usize,
    logical_per_actor: u32,
    requests_per_client: Option<u64>,
    client_factory: FactoryMaker,
    key_seed: u8,
    exclusion: Option<(Time, usize)>,
    backend: Backend,
}

impl<A: Application> ChainClusterBuilder<A> {
    /// Starts a builder with `n` genesis members whose application instances
    /// come from `make_app` (receiving the genesis app data).
    pub fn new(n: usize, make_app: impl Fn(&[u8]) -> A + 'static) -> ChainClusterBuilder<A> {
        ChainClusterBuilder {
            make_app: Box::new(make_app),
            genesis_members: n,
            extra_nodes: Vec::new(),
            node_config: NodeConfig::default(),
            hw: HwSpec::test_fast(),
            seed: 42,
            checkpoint_period: 1_000_000, // effectively off unless set
            app_data: Vec::new(),
            client_actors: 1,
            logical_per_actor: 1,
            requests_per_client: Some(10),
            client_factory: Box::new(|| {
                Box::new(smartchain_smr::client::CounterFactory::new(false))
            }),
            key_seed: 50,
            exclusion: None,
            backend: Backend::Sim,
        }
    }

    /// Sets the node configuration.
    pub fn node_config(mut self, config: NodeConfig) -> Self {
        self.node_config = config;
        self
    }

    /// Sets the hardware model.
    pub fn hw(mut self, hw: HwSpec) -> Self {
        self.hw = hw;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the checkpoint period `z` (blocks).
    pub fn checkpoint_period(mut self, z: u64) -> Self {
        self.checkpoint_period = z;
        self
    }

    /// Sets genesis application data.
    pub fn app_data(mut self, data: Vec<u8>) -> Self {
        self.app_data = data;
        self
    }

    /// Adds a prospective node with a join/leave schedule.
    pub fn extra_node(mut self, schedule: NodeSchedule) -> Self {
        self.extra_nodes.push(schedule);
        self
    }

    /// Configures the client fleet.
    pub fn clients(
        mut self,
        actors: usize,
        logical_per_actor: u32,
        requests_per_client: Option<u64>,
    ) -> Self {
        self.client_actors = actors;
        self.logical_per_actor = logical_per_actor;
        self.requests_per_client = requests_per_client;
        self
    }

    /// Uses a custom request factory for clients.
    pub fn client_factory(
        mut self,
        factory: impl Fn() -> Box<dyn RequestFactory> + 'static,
    ) -> Self {
        self.client_factory = Box::new(factory);
        self
    }

    /// At time `at`, every member advocates excluding genesis member
    /// `target` (the paper's Fig. 5b flow).
    pub fn exclude_member(mut self, at: Time, target: usize) -> Self {
        self.exclusion = Some((at, target));
        self
    }

    /// Selects the signature backend for replica keys. [`Backend::Sim`]
    /// (default) keeps big sweeps fast; [`Backend::Ed25519`] runs the whole
    /// stack on real RFC 8032 crypto (slower, used by end-to-end tests).
    pub fn crypto_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> ChainCluster {
        let total_nodes = self.genesis_members + self.extra_nodes.len();
        // Key stores for all (potential) members.
        let stores: Vec<KeyStore> = (0..total_nodes)
            .map(|i| {
                KeyStore::new(
                    SecretKey::from_seed(self.backend, &[i as u8 + self.key_seed; 32]),
                    self.backend,
                )
            })
            .collect();
        let genesis_view = ViewInfo {
            id: 0,
            members: stores[..self.genesis_members]
                .iter()
                .map(|s| s.certified_key_for(0))
                .collect(),
        };
        let genesis = Genesis {
            view: genesis_view,
            checkpoint_period: self.checkpoint_period,
            app_data: self.app_data.clone(),
        };
        let directory: HashMap<PublicKey, NodeId> = stores
            .iter()
            .enumerate()
            .map(|(i, s)| (s.permanent_public(), i))
            .collect();
        let target_pk = self
            .exclusion
            .map(|(_, idx)| genesis.view.members[idx].permanent);
        let mut actors: Vec<Box<dyn Actor<ChainMsg>>> = Vec::new();
        for (i, store) in stores.into_iter().enumerate() {
            let schedule = if i < self.genesis_members {
                NodeSchedule::default()
            } else {
                self.extra_nodes[i - self.genesis_members]
            };
            let my_pk = store.permanent_public();
            let mut node = ChainNode::new(
                store,
                genesis.clone(),
                (self.make_app)(&self.app_data),
                self.node_config,
                directory.clone(),
                schedule.join_at,
                schedule.leave_at,
            );
            if let (Some((at, _)), Some(target)) = (self.exclusion, target_pk) {
                // Everyone except the target advocates the removal.
                if i < self.genesis_members && my_pk != target {
                    node.schedule_exclusion(at, target);
                }
            }
            actors.push(Box::new(node));
        }
        let replica_nodes: Vec<NodeId> = (0..self.genesis_members).collect();
        let f = (self.genesis_members - 1) / 3;
        let mut client_nodes = Vec::new();
        for c in 0..self.client_actors {
            let node = total_nodes + c;
            client_nodes.push(node);
            let factory = EnvelopeFactory::new((self.client_factory)());
            actors.push(Box::new(ClientActor::<ChainMsg>::new(
                node,
                replica_nodes.clone(),
                f,
                ClientConfig {
                    logical_clients: self.logical_per_actor,
                    requests_per_client: self.requests_per_client,
                },
                Box::new(factory),
            )));
        }
        ChainCluster {
            cluster: Cluster::new(actors, self.hw, self.seed),
            client_nodes,
        }
    }
}

/// A built SmartChain simulation cluster.
pub struct ChainCluster {
    cluster: Cluster<ChainMsg>,
    client_nodes: Vec<NodeId>,
}

impl ChainCluster {
    /// Runs the simulation until virtual `deadline`.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        self.cluster.run_until(deadline)
    }

    /// Kernel access (fault injection, accounting).
    pub fn sim(&mut self) -> &mut smartchain_sim::Sim<ChainMsg> {
        self.cluster.sim()
    }

    /// Simulation node ids of the client actors.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.client_nodes
    }

    /// Typed access to a chain node.
    pub fn node<A: Application>(&self, id: NodeId) -> &ChainNode<A> {
        self.cluster
            .actor(id)
            .as_any()
            .downcast_ref::<ChainNode<A>>()
            .expect("chain node at this id")
    }

    /// Typed access to a client actor.
    pub fn client(&self, id: NodeId) -> &ClientActor<ChainMsg> {
        self.cluster
            .actor(id)
            .as_any()
            .downcast_ref::<ClientActor<ChainMsg>>()
            .expect("client actor at this id")
    }

    /// Total requests completed across all clients.
    pub fn total_completed(&self) -> u64 {
        self.client_nodes
            .iter()
            .map(|&c| self.client(c).completed())
            .sum()
    }
}
