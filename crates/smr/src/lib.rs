//! Mod-SMaRt state machine replication for SmartChain.
//!
//! This crate reimplements the BFT-SMaRt stack the paper builds on
//! (§II-C): the [`ordering`] core (total order via sequential VP-Consensus
//! instances with regency-based leader changes), the [`types`] wire
//! vocabulary, the [`app`] service interface, simulation [`actor`]s for
//! replicas and closed-loop [`client`]s, and the Dura-SMaRt-style
//! [`durability`] pipeline whose batch-coalescing the paper measures in
//! Table I, and the deterministic parallel-EXECUTE scheduler ([`exec`]:
//! lane planning over hash-sharded state, worker pool, conflict stats) —
//! plus the metal deployment layer: the [`runtime`]'s sans-IO replica
//! host, pumped over the [`transport`]'s authenticated, reconnecting links.

pub mod actor;
pub mod app;
pub mod client;
pub mod durability;
pub mod exec;
pub mod ordering;
pub mod runtime;
pub mod transport;
pub mod types;
