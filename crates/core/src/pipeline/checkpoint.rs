//! Side stage — chain-linked checkpoints (§V-B3): a snapshot every `z`
//! blocks, stored outside the chain, referenced by later headers.
//!
//! Every replica snapshots at the same blocks (the multiples of `z`) and
//! keeps its whole history, so the `last_checkpoint` field each header
//! carries, and the PERSIST certificate signed over the header, agree
//! cluster-wide.
//!
//! Snapshot *durability* is modeled, not assumed: the snapshot's device
//! write is tracked while in flight, so a crash before completion falls
//! back to the previous durable snapshot (Async rung: modeled completion
//! time; Sync rung: an explicit fsync completion event); a state-transfer
//! install models its device write the same way. The snapshot also carries
//! the replica's per-client record (each client's highest `seq` up to the
//! covered block) as its dedup frontier, so a joiner anchored on it can
//! reject retransmissions of requests inside the summarized prefix.

use crate::block::BlockHeader;
use crate::messages::ChainMsg;
use crate::node::ChainNode;
use crate::pipeline::KIND_SNAPSHOT;
use smartchain_codec::codec_struct;
use smartchain_crypto::Hash;
use smartchain_merkle as merkle;
use smartchain_sim::{Ctx, Time};
use smartchain_smr::app::Application;
use smartchain_storage::SyncPolicy;

/// The commitment a snapshot is verified against at install time: the
/// header of the covered block (whose `hash_results` folds the state root
/// in), plus the opening `(results_root, state_root)` pair. The header is
/// what the quorum's PERSIST certificate / decision proof signed, so a
/// receiver that trusts the covered block's hash can check shipped state
/// chunk-by-chunk without trusting the shipper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotCommit {
    /// Header of the snapshot's covered block.
    pub header: BlockHeader,
    /// Merkle root of the covered block's results list.
    pub results_root: Hash,
    /// Merkle root of the application state after the covered block
    /// ([`merkle::chunked_root`] with [`merkle::STATE_CHUNK`]-byte chunks).
    pub state_root: Hash,
}

impl SnapshotCommit {
    /// The commitment opens the header: `hash_results` really is the node
    /// hash of the claimed results root and state root.
    pub fn opens_header(&self) -> bool {
        self.header.hash_results == merkle::node_hash(&self.results_root, &self.state_root)
    }
}

codec_struct!(SnapshotCommit {
    header,
    results_root,
    state_root
});

/// A checkpoint snapshot: the serialized application state, the block it
/// covers, and the per-client record (duplicate-filter frontier) at that
/// block.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotState {
    /// Highest block the snapshot summarizes.
    pub(crate) covered: u64,
    /// Serialized application state.
    pub(crate) state: Vec<u8>,
    /// Per-client highest delivered sequence number at `covered` — shipped
    /// with the snapshot so a snapshot-anchored joiner's dedup filter covers
    /// the summarized prefix.
    pub(crate) dedup: Vec<(u64, u64)>,
    /// The certified commitment receivers verify the state against.
    pub(crate) commit: SnapshotCommit,
}

impl<A: Application> ChainNode<A> {
    /// Modeled size of a `len`-byte snapshot (configured, else `len`).
    pub(crate) fn modeled_size(&self, len: usize) -> u64 {
        if self.config.state_size > 0 {
            self.config.state_size
        } else {
            len as u64
        }
    }

    /// Starts the device write a snapshot of `size` modeled bytes covering
    /// block `covered` needs on the configured rung, and returns when (in
    /// virtual time) it completes: `None` on the Memory rung, which never
    /// writes; `after` the caller's own delay plus the modeled streaming
    /// write on Async (an approximation that ignores disk queueing —
    /// buffered writes carry no completion event to wait on); `Time::MAX`
    /// on Sync, whose explicit fsync completion ([`KIND_SNAPSHOT`]) promotes
    /// it.
    pub(crate) fn write_snapshot(
        &self,
        size: u64,
        covered: u64,
        after: Time,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) -> Option<Time> {
        let size = size as usize;
        match self.config.persistence {
            SyncPolicy::None => None,
            SyncPolicy::Async => {
                ctx.disk_write(size, false, 0);
                Some(ctx.now() + after + ctx.hw().disk.write_time(size, false))
            }
            SyncPolicy::Sync => {
                ctx.disk_write(size, true, KIND_SNAPSHOT | covered);
                Some(Time::MAX)
            }
        }
    }

    /// Called by the produce stage right after block `number` executes:
    /// takes a checkpoint if the period elapsed. The trigger sits at
    /// EXECUTE time, not reply release, so the snapshot captures the
    /// application state at exactly block `number` on every replica — with
    /// α > 1 later blocks may otherwise already be executing, and a
    /// release-time covered point would be a replica-local timing artifact
    /// that diverges the `last_checkpoint` header field.
    pub(crate) fn maybe_checkpoint(&mut self, number: u64, ctx: &mut Ctx<'_, ChainMsg>) {
        let z = self.genesis.checkpoint_period;
        if z != 0 && number.is_multiple_of(z) {
            self.take_checkpoint(number, ctx);
        }
    }

    /// Serializes the application state (stalling the sequential lane for
    /// the modeled duration), records the snapshot together with the dedup
    /// frontier, and starts the device write the configured rung demands.
    pub(crate) fn take_checkpoint(&mut self, covered_block: u64, ctx: &mut Ctx<'_, ChainMsg>) {
        self.checkpoint_log.push((ctx.now(), covered_block));
        // An earlier snapshot whose modeled (Async) write completed in the
        // meantime is durable now — resolve it so the fallback chain below
        // advances instead of pinning the very first snapshot forever.
        if let Some(m) = self.member.as_mut() {
            if m.snapshot_inflight
                .is_some_and(|at| at != Time::MAX && ctx.now() >= at)
            {
                m.snapshot_inflight = None;
                m.snapshot_fallback = None;
            }
        }
        // Serialize once; the modeled size falls back to the real length.
        let snapshot = self.app.take_snapshot();
        let size = self.modeled_size(snapshot.len());
        let serialize_ns = self.config.snapshot_ns_per_byte * size;
        ctx.charge(serialize_ns);
        let inflight = self.write_snapshot(size, covered_block, serialize_ns, ctx);
        let Some(m) = self.member.as_mut() else {
            return;
        };
        // The snapshot is taken at EXECUTE time of the covered block, so its
        // chunked root is exactly the state root the block's header bound —
        // capture the header as the commitment receivers verify against.
        let block = m
            .ledger
            .block(covered_block)
            .ok()
            .flatten()
            .expect("the covered block was just appended");
        let commit = SnapshotCommit {
            header: block.header,
            results_root: block.body.results_root(),
            state_root: merkle::chunked_root(&snapshot, merkle::STATE_CHUNK),
        };
        debug_assert!(
            commit.opens_header(),
            "snapshot root must open the covered header"
        );
        let new = SnapshotState {
            covered: covered_block,
            state: snapshot,
            // The per-client record describes exactly the snapshotted
            // state: the checkpoint runs right after its covered block
            // executed. (The ordering core's own frontier can run ahead —
            // batches in the delivery queue are marked delivered there.)
            dedup: m.executed_frontier(),
            commit,
        };
        // The superseded snapshot becomes the crash fallback, tagged with
        // when its own write completed/completes (0 = already durable): a
        // crash restores the newest snapshot whose write had finished, even
        // if that snapshot was superseded mid-flight.
        if let Some(prev) = m.snapshot.take() {
            let prev_at = m.snapshot_inflight.take().unwrap_or(0);
            let keep_old = m
                .snapshot_fallback
                .as_ref()
                .is_some_and(|&(_, at)| at == 0 && prev_at == Time::MAX);
            if !keep_old {
                m.snapshot_fallback = Some((prev, prev_at));
            }
        }
        m.snapshot = Some(new);
        m.snapshot_inflight = inflight;
        m.ledger.set_last_checkpoint(covered_block);
    }

    /// [`KIND_SNAPSHOT`] completion (Sync rung): the snapshot whose fsync
    /// this was is durable. The token carries the covered block, so a
    /// completion can only promote the snapshot it belongs to — the current
    /// one, or a superseded one now serving as the crash fallback.
    pub(crate) fn snapshot_write_done(&mut self, covered: u64) {
        let Some(m) = self.member.as_mut() else {
            return;
        };
        if m.snapshot.as_ref().is_some_and(|s| s.covered == covered) {
            m.snapshot_inflight = None;
            m.snapshot_fallback = None;
        } else if let Some((fallback, at)) = m.snapshot_fallback.as_mut() {
            if fallback.covered == covered {
                *at = 0;
            }
        }
    }
}
