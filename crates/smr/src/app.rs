//! The replicated-service interface (paper §II-B).

use crate::exec::{ExecPool, LaneHint};
use crate::types::Request;

/// A deterministic application replicated by the SMR protocol.
///
/// Requirements from the state machine approach: executions must be
/// deterministic functions of `(state, request)`, and snapshots must capture
/// everything `execute` depends on.
///
/// The lane methods ([`Application::lane_hint`],
/// [`Application::configure_lanes`], [`Application::execute_group`]) opt an
/// application into the deterministic parallel EXECUTE stage
/// ([`crate::exec`]), which only the benchmark's `exec.*` probes run: the
/// simulator and the deployed replica call [`Application::execute`]
/// serially. The default hint is [`LaneHint::Cross`], which plans each
/// transaction as a barrier, so a laned run of such an application is a
/// serial one.
pub trait Application: Send + 'static {
    /// Executes one ordered request, returning the reply payload.
    fn execute(&mut self, request: &Request) -> Vec<u8>;

    /// Serializes the full service state.
    fn take_snapshot(&self) -> Vec<u8>;

    /// Replaces the service state with a snapshot taken by a peer.
    fn install_snapshot(&mut self, snapshot: &[u8]);

    /// Resets to the initial (genesis) state — used when a crashed replica
    /// restarts with no snapshot on disk.
    fn reset(&mut self);

    /// Statically derives which of `lanes` execution lanes `request`'s
    /// read/write set lands on. Must be a pure function of the request (not
    /// of mutable state), so every replica plans identically; returning
    /// [`LaneHint::Cross`] is always safe and means "execute serially".
    fn lane_hint(&self, _request: &Request, _lanes: usize) -> LaneHint {
        LaneHint::Cross
    }

    /// Re-partitions internal state for `lanes` execution lanes. Called
    /// once at deployment setup (and after recovery), before any laned
    /// execution. State content must be unaffected.
    fn configure_lanes(&mut self, _lanes: usize) {}

    /// Executes one parallel group of a [`crate::exec::BatchPlan`]:
    /// `group[lane]` lists `(original_index, request)` pairs, in batch
    /// order, whose footprints are disjoint across lanes. Returns
    /// `(original_index, result)` pairs (any order — the scheduler
    /// reassembles). Implementations may fan lanes out on `pool`; the
    /// default executes serially in original batch order, which is correct
    /// for every application.
    fn execute_group(
        &mut self,
        group: &[Vec<(usize, &Request)>],
        _pool: Option<&ExecPool>,
    ) -> Vec<(usize, Vec<u8>)> {
        let mut flat: Vec<(usize, &Request)> =
            group.iter().flat_map(|lane| lane.iter().copied()).collect();
        flat.sort_unstable_by_key(|&(index, _)| index);
        flat.into_iter()
            .map(|(index, request)| (index, self.execute(request)))
            .collect()
    }
}

/// A trivial key-value counter application for tests: payload bytes are added
/// into a running sum per client; the reply is the new sum (little-endian).
#[derive(Debug, Default, Clone)]
pub struct CounterApp {
    sums: std::collections::BTreeMap<u64, u64>,
}

impl CounterApp {
    /// Creates an empty counter app.
    pub fn new() -> CounterApp {
        CounterApp::default()
    }

    /// Current sum for a client.
    pub fn sum(&self, client: u64) -> u64 {
        self.sums.get(&client).copied().unwrap_or(0)
    }

    /// All per-client sums (replica-state comparison in tests).
    pub fn totals(&self) -> &std::collections::BTreeMap<u64, u64> {
        &self.sums
    }
}

impl Application for CounterApp {
    fn execute(&mut self, request: &Request) -> Vec<u8> {
        let add: u64 = request.payload.iter().map(|&b| b as u64).sum();
        let sum = self.sums.entry(request.client).or_insert(0);
        *sum += add;
        sum.to_le_bytes().to_vec()
    }

    fn take_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in &self.sums {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.sums.clear();
        for chunk in snapshot.chunks_exact(16) {
            let k = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
            let v = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
            self.sums.insert(k, v);
        }
    }

    fn reset(&mut self) {
        self.sums.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(client: u64, seq: u64, payload: Vec<u8>) -> Request {
        Request {
            client,
            seq,
            payload,
            signature: None,
        }
    }

    #[test]
    fn counter_is_deterministic() {
        let mut a = CounterApp::new();
        let mut b = CounterApp::new();
        for i in 0..10u64 {
            let r = req(i % 3, i, vec![i as u8, 2 * i as u8]);
            assert_eq!(a.execute(&r), b.execute(&r));
        }
        assert_eq!(a.take_snapshot(), b.take_snapshot());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut a = CounterApp::new();
        a.execute(&req(1, 0, vec![5]));
        a.execute(&req(2, 0, vec![7]));
        let snap = a.take_snapshot();
        let mut b = CounterApp::new();
        b.install_snapshot(&snap);
        assert_eq!(b.sum(1), 5);
        assert_eq!(b.sum(2), 7);
    }

    #[test]
    fn reset_clears_state() {
        let mut a = CounterApp::new();
        a.execute(&req(1, 0, vec![5]));
        a.reset();
        assert_eq!(a.sum(1), 0);
    }
}
