//! VP-Consensus — the Byzantine consensus algorithm at the core of
//! Mod-SMaRt / BFT-SMaRt (Cachin, "Yet another visit to Paxos", adapted as in
//! the paper's §II-C1).
//!
//! Each consensus *instance* decides one value (a batch of transactions).
//! During normal operation the message pattern matches PBFT (paper Fig. 1):
//!
//! ```text
//! leader   --PROPOSE(v)-->  all
//! replica  --WRITE(H(v))--> all        (on valid proposal)
//! replica  --ACCEPT(H(v), signed)-->   (on quorum of matching WRITEs)
//! decide(v, proof)                     (on quorum of matching ACCEPTs)
//! ```
//!
//! where a quorum is ⌈(n+f+1)/2⌉ replicas. The signed ACCEPT set forms a
//! **decision proof** ([`proof::DecisionProof`]) which the blockchain layer
//! later embeds in blocks — this is why a single correct durable log suffices
//! for recovery (paper Observation 2).
//!
//! Leader changes are handled by the [`synchronizer`] (Mod-SMaRt's
//! synchronization phase): `STOP`/`STOPDATA`/`SYNC` with regencies.

pub mod instance;
pub mod messages;
pub mod proof;
pub mod synchronizer;

pub use smartchain_crypto::ValueBytes;

/// Identifies a replica inside a view (dense, 0-based).
pub type ReplicaId = usize;

/// The most consensus instances a replica keeps open, and so the most locks
/// one STOPDATA may carry: the synchronizer drops a larger report before it
/// checks any certificate.
pub const MAX_WINDOW: u64 = 255;

/// A view: the set of replicas currently running the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonic view number (0 = initial view from the genesis block).
    pub id: u64,
    /// Public consensus keys, indexed by replica id; `members.len() == n`.
    pub members: Vec<smartchain_crypto::keys::PublicKey>,
}

impl View {
    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Maximum tolerated Byzantine replicas: ⌊(n-1)/3⌋.
    pub fn f(&self) -> usize {
        (self.n().saturating_sub(1)) / 3
    }

    /// Byzantine quorum size ⌈(n+f+1)/2⌉ (≥ 2f+1).
    pub fn quorum(&self) -> usize {
        (self.n() + self.f() + 2) / 2 // integer ceil of (n+f+1)/2
    }

    /// Size of the "join/leave" certificate quorum n−f.
    pub fn reconfig_quorum(&self) -> usize {
        self.n() - self.f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn view(n: usize) -> View {
        let members = (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 1; 32]).public_key())
            .collect();
        View { id: 0, members }
    }

    #[test]
    fn quorum_math_matches_paper() {
        // n=4, f=1 -> quorum 3; n=7, f=2 -> quorum 5; n=10, f=3 -> quorum 7.
        for (n, f, q) in [(4, 1, 3), (7, 2, 5), (10, 3, 7), (5, 1, 4), (6, 1, 4)] {
            let v = view(n);
            assert_eq!(v.f(), f, "n={n}");
            assert_eq!(v.quorum(), q, "n={n}");
            // Quorum intersection: two quorums intersect in >= f+1 replicas.
            assert!(2 * v.quorum() > v.n() + v.f(), "n={n}");
        }
    }

    #[test]
    fn reconfig_quorum_is_n_minus_f() {
        assert_eq!(view(4).reconfig_quorum(), 3);
        assert_eq!(view(10).reconfig_quorum(), 7);
    }
}
