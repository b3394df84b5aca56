//! # SmartChain
//!
//! A from-scratch Rust reproduction of **"From Byzantine Replication to
//! Blockchain: Consensus is Only the Beginning"** (Bessani et al., DSN 2020):
//! a permissioned blockchain platform layered on BFT state machine
//! replication, with a self-verifiable block ledger, strong (0-Persistence)
//! durability via the PERSIST phase, and fork-safe decentralized
//! reconfiguration through per-view consensus-key rotation.
//!
//! # Module map
//!
//! The replica is an explicit **staged commit pipeline** — verify → order →
//! execute → persist → reply — with every stage a separate module, every
//! persistence rung a [`storage::SyncPolicy`] of one [`storage::Engine`],
//! and a windowed ordering core that keeps α > 1 consensus instances in
//! flight while earlier blocks execute and persist:
//!
//! * [`crypto`] — SHA-2, Ed25519 (RFC 8032), HMAC-SHA256 (frame
//!   authentication on the TCP links), Merkle trees, and the
//!   [`crypto::pool::VerifyPool`] powering the wall-clock verify stage.
//! * [`codec`] — deterministic canonical encoding; [`codec::Encode`] is the
//!   single source of truth for hashes, signatures, persistence *and* wire
//!   sizes (`encoded_len`), so the NIC model never drifts from the encoders.
//!   Each wire type lists its fields once (`codec_struct!`/`codec_enum!`),
//!   and its encoder, length and decoder derive from that list.
//! * [`merkle`] — dependency-free binary Merkle trees over transaction
//!   lists, result lists, and fixed-size state chunks: roots, membership
//!   proofs ([`merkle::prove_chunk`]/[`merkle::verify`]), and the
//!   `chunked_root` that commits snapshots chunk-by-chunk so state transfer
//!   and light clients verify the same bytes the quorum certified.
//! * [`storage`] — the stable-storage substrate: the CRC-framed segmented
//!   log [`storage::segmented::SegmentedLog`] (fixed-capacity segment files +
//!   manifest, O(segment-delete) prefix truncation, recovery that scans
//!   only the active segment), snapshots, and [`storage::Engine`], the
//!   persistence ladder (memory / async / group commit, §V-C) as one type
//!   and the only code that decides when a record is synced — over the
//!   heap `MemLog` in the simulator and over the segmented log
//!   ([`storage::SegmentedEngine`]) on metal.
//! * [`sim`] — the deterministic discrete-event kernel with hardware models
//!   (NIC, disk, CPU + verification-pool lanes) and a self-contained seeded
//!   RNG ([`sim::rng`]); every run is reproducible bit-for-bit from its
//!   seed (pinned by `tests/seed_regression.rs`).
//! * [`consensus`] — VP-Consensus instances and the Mod-SMaRt
//!   synchronizer; leader changes collect locked values for every
//!   in-flight instance (per-instance STOPDATA/SYNC vectors).
//! * [`smr`] — the *windowed* total-order core (up to α =
//!   `OrderingConfig::window` consensus instances in flight at once,
//!   strictly in-order delivery, one ordering path and one view-change
//!   rule at every α, and a stalled frontier that heals via a
//!   one-round-trip `InstanceFetch`/`InstanceRep` repair before any
//!   regency change),
//!   clients,
//!   [`smr::durability::DurableApp`] (durable delivery over a
//!   `SegmentedEngine` at any rung; group commit by default — each
//!   record stores the raw decided value + decision proof, hash-chained,
//!   checkpoints truncate the covered prefix, and restart replays only the
//!   post-checkpoint suffix), the deterministic parallel-EXECUTE scheduler
//!   ([`smr::exec`]: static per-transaction lane hints → a plan of
//!   parallel groups and serial barriers whose merged results are
//!   bit-identical to serial execution; neither the simulator nor the
//!   deployed replica runs it — both execute serially — and only the
//!   benchmark's `exec.*` probes time it) — and the
//!   metal deployment layer: [`smr::transport`] provides the links
//!   (length-framed HMAC-authenticated TCP driven by a per-replica poll
//!   reactor with automatic redial) and [`smr::runtime`] runs one replica
//!   loop over them, booted the same way by `TcpCluster` (threads +
//!   loopback sockets) and `serve_replica` (one OS process per replica; see
//!   `examples/replica.rs` and `examples/client.rs`), with runtime state
//!   transfer so a killed and restarted replica rejoins from its disk plus
//!   a peer-shipped suffix.
//! * [`core`] — the SMARTCHAIN layer (the paper's contribution):
//!   blocks/ledger/audit, and the replica split into
//!   [`core::node`] (the actor spine) plus [`core::pipeline`] (the stages:
//!   verify, produce, persist, checkpoint, state transfer, reconfig). Up
//!   to α blocks ride EXECUTE/PERSIST concurrently — device syncs and
//!   PERSIST certificates complete out of order, replies release in block
//!   order. EXECUTE runs each batch serially, as the deployed replica
//!   does. The ledger sits on the heap-backed `storage::Engine` and keeps
//!   its whole history: every replica checkpoints at the same blocks, so
//!   all of them hold one header chain.
//! * [`light_client`] — verification without replication:
//!   [`light_client::HeaderTracker`] follows the header chain admitting
//!   blocks purely on their quorum certificates and checks
//!   transaction/result membership proofs against tracked headers, and
//!   [`light_client::TcpLightClient`] reads certified state chunks from a
//!   live cluster, trusting the returned `ReadProof` (checkpoint
//!   certificate + Merkle path) rather than the replica that served it
//!   (see `examples/light_client.rs`).
//! * [`coin`] — SMaRtCoin, the UTXO digital-coin application; its account
//!   state is hash-sharded into copy-on-write lane shards and every
//!   transaction exposes a static read/write footprint
//!   (`CoinTx::touched_ids`), which is what makes the parallel EXECUTE
//!   stage deterministic.
//! * [`baselines`] — Tendermint- and Fabric-style comparator models.
//!
//! # Quickstart
//!
//! ```
//! use smartchain::core::audit::verify_chain;
//! use smartchain::core::harness::ChainClusterBuilder;
//! use smartchain::sim::SECOND;
//! use smartchain::smr::app::CounterApp;
//!
//! let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
//!     .clients(1, 2, Some(10))
//!     .build();
//! cluster.run_until(30 * SECOND);
//! let node = cluster.node::<CounterApp>(0);
//! let report = verify_chain(&node.genesis().clone(), &node.chain())?;
//! assert!(report.blocks > 0);
//! # Ok::<(), smartchain::core::audit::AuditError>(())
//! ```

pub use smartchain_baselines as baselines;
pub use smartchain_codec as codec;
pub use smartchain_coin as coin;
pub use smartchain_consensus as consensus;
pub use smartchain_core as core;
pub use smartchain_crypto as crypto;
pub use smartchain_light_client as light_client;
pub use smartchain_merkle as merkle;
pub use smartchain_sim as sim;
pub use smartchain_smr as smr;
pub use smartchain_storage as storage;
