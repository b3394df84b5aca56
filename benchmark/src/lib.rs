//! The repository's benchmark: fixed-work, repetition-median workloads
//! against the deployed `TcpCluster` path, and probes that time the calls
//! into each layer's public functions on the workloads' own inputs.
//!
//! Nothing here is part of the system under test; see `README.md` for what
//! is measured and why.

pub mod affinity;
pub mod cli;
pub mod cluster_probes;
pub mod generator;
pub mod genesis;
pub mod json;
pub mod manifest;
pub mod probes;
pub mod procfs;
pub mod requests;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
