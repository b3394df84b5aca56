//! Side stage — state transfer: snapshot + block suffix from peers (joins,
//! recoveries, lagging replicas), and crash recovery from the local ledger.
//!
//! Both replay blocks through `ChainNode::replay_block`, which classifies
//! requests with the same rule as live EXECUTE: a request EXECUTE dropped
//! (forged under sequential verification) is not executed on replay
//! either. Every replayed request raises the replica's per-client record,
//! and each install or recovery ends by seeding the ordering core's
//! duplicate filter from that record.
//!
//! Only one designated replica ships the full state; the rest send
//! hash-sized acknowledgements (the PBFT optimization). The shipper is the
//! highest-id member other than the requester — never the leader, whose NIC
//! would wedge behind a multi-second transfer and stall ordering
//! cluster-wide.
//!
//! Installation is gated on the PBFT agreement rule: every reply (full or
//! ack) carries the sender's `(height, chain hash)` digest, and the full
//! reply installs only once `f+1` distinct members' digests are consistent
//! with the shipped content — so at least one *correct* replica vouches for
//! the history, and a Byzantine shipper cannot feed a syncing replica a
//! forged snapshot/anchor/suffix on its own.

use crate::audit::ChainCursor;
use crate::block::{Block, BlockBody, ViewInfo};
use crate::messages::ChainMsg;
use crate::node::{ChainNode, MemberState};
use crate::pipeline::checkpoint::{SnapshotCommit, SnapshotState};
use smartchain_merkle as merkle;
use smartchain_sim::{Ctx, NodeId};
use smartchain_smr::app::Application;
use smartchain_smr::ordering::OrderingCore;
use smartchain_storage::SyncPolicy;

/// Consecutive recent heights carried in every state-reply digest set (the
/// exponential tail takes over beyond it). Sized so members within a normal
/// spread of the cluster tip land a digest *inside* a shipped suffix and can
/// vouch for its content rather than abstain.
const DIGEST_DENSE_WINDOW: u64 = 32;

/// A full state reply buffered until `f+1` members' digests corroborate it.
pub(crate) struct PendingState {
    pub(crate) snapshot: Option<(u64, Vec<u8>)>,
    pub(crate) commit: Option<SnapshotCommit>,
    pub(crate) snapshot_anchor: Option<smartchain_crypto::Hash>,
    pub(crate) snapshot_dedup: Vec<(u64, u64)>,
    pub(crate) blocks: Vec<Block>,
    pub(crate) modeled_size: u64,
}

impl<A: Application> ChainNode<A> {
    /// Asks the membership for everything after our chain tip.
    pub(crate) fn start_state_transfer(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let from_block = {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            if m.syncing {
                return;
            }
            m.syncing = true;
            // A fresh sync round drops any stale full reply. Digest sets
            // from earlier rounds stay: a member's `(height, hash)` commits
            // to an append-only prefix, so it keeps vouching forever — and
            // it covers the race where a new round's full reply beats the
            // new acks.
            m.pending_state = None;
            m.ledger.height() + 1
        };
        let msg = ChainMsg::StateReq { from_block };
        self.send_to_members(&msg, ctx);
    }

    /// Serves a peer's state request (fully, if we are the designated
    /// shipper; as an acknowledgement otherwise).
    pub(crate) fn serve_state_request(
        &mut self,
        from_node: NodeId,
        from_block: u64,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        let Some(m) = self.member.as_ref() else {
            return;
        };
        if m.syncing {
            return;
        }
        let me = self.my_replica_id().unwrap_or(usize::MAX);
        // The highest-id member other than the requester ships the full
        // state: picking the *leader* (id 0) would wedge its NIC behind a
        // multi-second transfer and stall ordering cluster-wide.
        let requester_id = (0..m.view.n()).find(|&r| self.node_of(&m.view, r) == Some(from_node));
        let candidate = if requester_id == Some(m.view.n() - 1) {
            m.view.n().saturating_sub(2)
        } else {
            m.view.n() - 1
        };
        let full = me == candidate;
        let snapshot = m.snapshot.clone();
        let snap_covered = snapshot.as_ref().map(|s| s.covered).unwrap_or(0);
        // Ship only what the requester is missing: the snapshot (if it
        // covers part of the gap) plus blocks after max(snapshot, what the
        // requester already has). Re-shipping from block 1 on every catch-up
        // round would make a lagging replica chase the chain forever.
        let start = (snap_covered + 1).max(from_block.max(1));
        let snapshot = if snap_covered + 1 > from_block {
            snapshot
        } else {
            None
        };
        // The hash of the snapshot's covered block lets the requester chain
        // the shipped suffix onto the summarized prefix (anchor-aware: the
        // shipper itself may have joined through a fast-forward, in which
        // case record `covered` is an anchor marker rather than a block).
        let snapshot_anchor = snapshot
            .as_ref()
            .and_then(|s| m.ledger.chain_hash_at(s.covered));
        let blocks = m.ledger.blocks_from(start).unwrap_or_default();
        let blocks_size: usize = blocks.iter().map(Block::wire_size).sum();
        let modeled = if full {
            let snap_size = snapshot
                .as_ref()
                .map_or(0, |s| self.modeled_size(s.state.len()));
            snap_size + blocks_size as u64
        } else {
            64
        };
        if full && self.config.persistence != SyncPolicy::None {
            ctx.disk_read(modeled as usize, 0);
        }
        let (snapshot, commit, snapshot_dedup) = if full {
            match snapshot {
                Some(s) => (Some((s.covered, s.state)), Some(s.commit), s.dedup),
                None => (None, None, Vec::new()),
            }
        } else {
            (None, None, Vec::new())
        };
        // Every reply commits to the sender's chain: `f+1` consistent
        // digests are what authorizes the requester to install.
        let digests = Self::tip_digests(self.member.as_ref().expect("active"));
        let msg = ChainMsg::StateRep {
            snapshot,
            commit,
            snapshot_anchor: if full { snapshot_anchor } else { None },
            snapshot_dedup,
            blocks: if full { blocks } else { Vec::new() },
            modeled_size: modeled,
            full,
            digests,
        };
        let size = msg.wire_size();
        ctx.send(from_node, msg, size);
    }

    /// `(height, chain hash)` digests, highest first: a dense window over
    /// the sender's most recent [`DIGEST_DENSE_WINDOW`] blocks, then
    /// exponentially receding heights (−32, −64, …). The dense window is
    /// what lets a peer near the shipped suffix's tip vouch for (or refute)
    /// the suffix *content*; the exponential tail finds a common height
    /// with repliers much further ahead or behind.
    fn tip_digests(m: &MemberState) -> Vec<(u64, smartchain_crypto::Hash)> {
        let tip = m.ledger.height();
        let mut out = Vec::new();
        let mut back = 0u64;
        loop {
            let height = tip.saturating_sub(back);
            if height == 0 {
                break;
            }
            if out.last().map(|(h, _)| *h) != Some(height) {
                if let Some(hash) = m.ledger.chain_hash_at(height) {
                    out.push((height, hash));
                }
            }
            if height == 1 {
                break;
            }
            back = if back < DIGEST_DENSE_WINDOW {
                back + 1
            } else {
                back * 2
            };
        }
        out
    }

    /// Buffers a state reply (full or acknowledgement) for the current sync
    /// round and installs the pending full reply once `f+1` members' digests
    /// are consistent with its content.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_state_reply(
        &mut self,
        from_node: NodeId,
        snapshot: Option<(u64, Vec<u8>)>,
        commit: Option<SnapshotCommit>,
        snapshot_anchor: Option<smartchain_crypto::Hash>,
        snapshot_dedup: Vec<(u64, u64)>,
        blocks: Vec<Block>,
        modeled_size: u64,
        full: bool,
        digests: Vec<(u64, smartchain_crypto::Hash)>,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        {
            let member_ok = {
                let Some(m) = self.member.as_ref() else {
                    return;
                };
                if !m.syncing {
                    return;
                }
                // Only members may vouch (one digest set per member node).
                (0..m.view.n()).any(|r| self.node_of(&m.view, r) == Some(from_node))
            };
            if !member_ok {
                return;
            }
            let m = self.member.as_mut().expect("active");
            m.state_acks.insert(from_node, digests);
            if full && m.pending_state.is_none() {
                m.pending_state = Some(PendingState {
                    snapshot,
                    commit,
                    snapshot_anchor,
                    snapshot_dedup,
                    blocks,
                    modeled_size,
                });
            }
        }
        self.try_install_state(ctx);
    }

    /// Checks whether the buffered full reply is authorized — self-
    /// authenticating, or corroborated by `f+1` consistent digest sets —
    /// and installs it if so.
    fn try_install_state(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let ready = {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            let Some(pending) = m.pending_state.as_ref() else {
                return;
            };
            // `> f` is the PBFT `f+1` rule: at least one correct voucher.
            Self::candidate_self_authenticating(m, pending)
                || m.state_acks
                    .values()
                    .filter(|digests| Self::reply_vouches(m, pending, digests))
                    .count()
                    > m.view.f()
        };
        if !ready {
            return;
        }
        let m = self.member.as_mut().expect("active");
        let pending = m.pending_state.take().expect("pending state");
        m.state_acks.clear();
        self.install_state(
            pending.snapshot,
            pending.commit,
            pending.snapshot_anchor,
            pending.snapshot_dedup,
            pending.blocks,
            pending.modeled_size,
            ctx,
        );
    }

    /// A suffix-only candidate (no snapshot) is self-authenticating when
    /// the blocks above the local tip pass the third-party auditor's
    /// per-block checks from that tip ([`ChainCursor::verify_next`]:
    /// numbering, linkage, commitments, a transaction block's proof bound
    /// to its batch, quorum authority under the *current* view's consensus
    /// keys, a reconfiguration's vote certificate and derived view), and
    /// each decision proof sits at its block's own number. No network round
    /// is needed to accept it, so installs stay deterministic.
    /// Snapshot-bearing candidates (the state is not self-verifying) and
    /// suffixes spanning view changes fall back to the `f+1` digest rule.
    fn candidate_self_authenticating(m: &MemberState, pending: &PendingState) -> bool {
        if pending.snapshot.is_some() {
            return false;
        }
        let tip = ChainCursor {
            view: m.view.clone(),
            prev_hash: m.ledger.last_block_hash(),
            next_number: m.ledger.next_number(),
            last_reconfig: m.ledger.last_reconfig(),
        };
        Self::suffix_self_authenticating(tip, &pending.blocks)
    }

    /// The pure core of [`Self::candidate_self_authenticating`]: checks the
    /// shipped `blocks` above `tip` (the ones installing would append).
    pub(crate) fn suffix_self_authenticating(mut tip: ChainCursor, blocks: &[Block]) -> bool {
        let (view_id, first) = (tip.view.id, tip.next_number);
        blocks.iter().filter(|b| b.header.number >= first).all(|b| {
            let proof = match &b.body {
                BlockBody::Transactions { proof, .. } => proof,
                BlockBody::Reconfiguration { proof, .. } => proof,
            };
            tip.view.id == view_id
                && proof.instance == b.header.number
                && tip.verify_next(b).is_ok()
        })
    }

    /// Whether one member's digest set corroborates the candidate state: its
    /// highest height the candidate can resolve must lie in the candidate's
    /// *new* content (above the requester's own tip) and carry the same
    /// hash. Hash chaining makes that one point vouch for everything below
    /// it; a forged suffix resolves to different hashes and turns the
    /// member into a rejecter. Members whose digests never reach the new
    /// content — far ahead of the suffix's tip with no dense-window
    /// overlap, at or below the requester's own tip, or behind it —
    /// abstain: a digest the requester's *own pre-install prefix* already
    /// explains would corroborate any forged suffix grafted onto that
    /// prefix.
    fn reply_vouches(
        m: &MemberState,
        pending: &PendingState,
        digests: &[(u64, smartchain_crypto::Hash)],
    ) -> bool {
        let own_tip = m.ledger.height();
        for (height, digest) in digests {
            if *height <= own_tip {
                return false; // descending: only prefix heights remain
            }
            if let Some(hash) = Self::candidate_hash_at(m, pending, *height) {
                return hash == *digest;
            }
        }
        false
    }

    /// The chain hash the requester would hold at `height` *after* installing
    /// `pending`: from the shipped blocks, the shipped snapshot anchor, or
    /// the local ledger (shared correct prefix). `None` when the candidate
    /// state cannot speak for that height.
    fn candidate_hash_at(
        m: &MemberState,
        pending: &PendingState,
        height: u64,
    ) -> Option<smartchain_crypto::Hash> {
        if let Some(block) = pending.blocks.iter().find(|b| b.header.number == height) {
            return Some(block.header.hash());
        }
        if let (Some((covered, _)), Some(anchor)) = (&pending.snapshot, &pending.snapshot_anchor) {
            if *covered == height {
                return Some(*anchor);
            }
        }
        if height > m.ledger.height() {
            return None;
        }
        m.ledger.chain_hash_at(height)
    }

    /// Whether a shipped snapshot opens its certified commitment: the commit
    /// must be present, describe the covered block (same number, and the
    /// header hash the digest-vouched anchor chains on), open the header's
    /// `hash_results`, and — the content check — the shipped state bytes
    /// must re-chunk to exactly the state root the quorum certified. Any
    /// tampered [`merkle::STATE_CHUNK`]-sized chunk flips the root and fails
    /// here. Pure so the rejection logic is unit-testable.
    pub(crate) fn snapshot_commit_verifies(
        covered: u64,
        state: &[u8],
        anchor: Option<&smartchain_crypto::Hash>,
        commit: Option<&SnapshotCommit>,
    ) -> bool {
        let Some(commit) = commit else {
            return false;
        };
        commit.header.number == covered
            && anchor == Some(&commit.header.hash())
            && commit.opens_header()
            && merkle::chunked_root(state, merkle::STATE_CHUNK) == commit.state_root
    }

    /// Installs a full state reply: snapshot, then block replay, then view
    /// catch-up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install_state(
        &mut self,
        snapshot: Option<(u64, Vec<u8>)>,
        commit: Option<SnapshotCommit>,
        snapshot_anchor: Option<smartchain_crypto::Hash>,
        snapshot_dedup: Vec<(u64, u64)>,
        blocks: Vec<Block>,
        modeled_size: u64,
        ctx: &mut Ctx<'_, ChainMsg>,
    ) {
        {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            if !m.syncing {
                return;
            }
        }
        // Shipped state installs only if it opens the certified commitment —
        // the `f+1` digest rule vouches for the *chain*, but the snapshot
        // bytes themselves are opaque to it; the Merkle commitment is what
        // binds them to the covered header. Reject before any modeled
        // install work and retry against (hopefully) honest shippers.
        if let Some((covered, state)) = &snapshot {
            if !Self::snapshot_commit_verifies(
                *covered,
                state,
                snapshot_anchor.as_ref(),
                commit.as_ref(),
            ) {
                if std::env::var("SC_ST_DEBUG").is_ok() {
                    eprintln!("[st] snapshot commitment rejected at block {covered}");
                }
                self.finish_sync();
                return;
            }
        }
        ctx.charge(self.config.install_ns_per_byte * modeled_size);
        if let Some((covered, state)) = snapshot {
            self.app.install_snapshot(&state);
            // The received snapshot must reach the LOCAL device to survive
            // this replica's crashes — same durability model as a locally
            // taken checkpoint (take_checkpoint).
            let inflight = self.write_snapshot(self.modeled_size(state.len()), covered, 0, ctx);
            if let Some(m) = self.member.as_mut() {
                if covered > m.ledger.height() {
                    // The snapshot summarizes blocks we never had: fast-
                    // forward the ledger through it so the shipped suffix
                    // chains on.
                    if let Some(anchor) = snapshot_anchor {
                        m.ledger
                            .install_checkpoint_anchor(covered, anchor)
                            .expect("checkpoint anchor installs");
                    }
                }
                // The shipped dedup frontier covers the summarized prefix:
                // without it, a retransmission of a request the snapshot
                // already contains would be re-ordered and fork this
                // replica's delivered sequence.
                m.raise_executed(snapshot_dedup.iter().copied());
                m.snapshot = Some(SnapshotState {
                    covered,
                    state,
                    dedup: snapshot_dedup,
                    commit: commit.expect("a shipped snapshot's commitment verified above"),
                });
                // The installed snapshot replaces whatever local write was
                // in flight; its own write is tracked like a checkpoint's
                // (a crash before completion falls back to nothing — the
                // replica re-syncs).
                m.snapshot_inflight = inflight;
                m.snapshot_fallback = None;
                m.ledger.set_last_checkpoint(covered);
            }
        }
        let mut new_view: Option<ViewInfo> = None;
        for block in blocks {
            let skip = self
                .member
                .as_ref()
                .is_some_and(|m| block.header.number <= m.ledger.height());
            if skip {
                continue;
            }
            // Blocks the installed snapshot already summarizes must not
            // re-execute on top of it (they can be shipped when the sender's
            // snapshot ran ahead of this replica's surviving ledger prefix);
            // they still append and raise the per-client record.
            let in_snapshot = self
                .member
                .as_ref()
                .and_then(|m| m.snapshot.as_ref())
                .is_some_and(|s| block.header.number <= s.covered);
            // Append FIRST: a block the ledger rejects (broken hash chain,
            // bad number) must not execute into the application either — a
            // divergence between chain and app state is precisely the fork
            // state transfer exists to prevent. The rest of the shipped
            // suffix cannot chain onto a rejected block, so stop here; the
            // replica stays syncing and re-requests.
            let appended = self
                .member
                .as_mut()
                .is_some_and(|m| m.ledger.append(&block).is_ok());
            if !appended {
                if std::env::var("SC_ST_DEBUG").is_ok() {
                    eprintln!("[st] append rejected block {}", block.header.number);
                }
                // Clear `syncing` so the next NeedStateTransfer trigger can
                // start a fresh round against (hopefully) honest shippers.
                self.finish_sync();
                return;
            }
            if let BlockBody::Reconfiguration { new_view: v, .. } = &block.body {
                new_view = Some(v.clone());
            }
            self.replay_block(&block, !in_snapshot);
        }
        if let Some(v) = new_view {
            let my_pk = self.keys.permanent_public();
            if v.position_of(&my_pk).is_some() {
                self.keys.rotate_to(v.id);
                let height = self.member.as_ref().map(|m| m.ledger.height()).unwrap_or(0);
                if let Some(m) = self.member.as_mut() {
                    let me = v.position_of(&my_pk).expect("member");
                    m.generation += 1;
                    m.view = v;
                    m.core = OrderingCore::new(
                        me,
                        m.view.to_consensus_view(),
                        self.keys.consensus().clone(),
                        self.config.ordering,
                        height,
                    );
                }
            } else {
                self.member = None;
                return;
            }
        }
        self.finish_sync();
    }

    /// Ends a sync round: seeds the ordering core's duplicate filter from
    /// the per-client record (covering whatever was just installed or
    /// replayed) and fast-forwards it to the ledger tip.
    fn finish_sync(&mut self) {
        if let Some(m) = self.member.as_mut() {
            m.seed_core();
            let height = m.ledger.height();
            m.core.fast_forward(height);
            m.syncing = false;
        }
    }

    /// Crash recovery: volatile pipeline state is gone; rebuild the
    /// ordering core, reinstall the last durable snapshot (if any), replay
    /// the surviving ledger suffix into the application, and fetch the lost
    /// tail from peers.
    pub(crate) fn recover_from_ledger(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        self.app.reset();
        let replay = {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            m.delivery_queue.clear();
            m.open.clear();
            m.pending_reconfig = None;
            m.reconfig_install = None;
            m.persist_stash.clear();
            m.verify.clear();
            m.state_acks.clear();
            m.pending_state = None;
            m.timer_armed = false;
            m.syncing = false;
            // The crash dropped the engine's non-durable suffix; re-derive
            // the chain tail from what actually survived. This is where the
            // persistence ladder becomes observable: a Sync replica replays
            // almost everything locally, an Async/Memory replica must fetch
            // the lost suffix from its peers.
            m.ledger.reload().expect("ledger reload");
            // The ordering core is volatile too: a restarted replica's
            // duplicate filter, pending pool and open instances start empty,
            // and `finish_sync` seeds the filter from the record below.
            m.generation += 1;
            m.core = OrderingCore::new(
                m.core.id(),
                m.view.to_consensus_view(),
                self.keys.consensus().clone(),
                self.config.ordering,
                m.ledger.height(),
            );
            // Checkpoints only reach the disk on the non-Memory rungs
            // (take_checkpoint); under ∞-persistence the snapshot was RAM
            // and died with it.
            if self.config.persistence == SyncPolicy::None {
                m.snapshot = None;
            } else if let Some(covered) = m.snapshot.as_ref().map(|s| s.covered) {
                m.ledger.set_last_checkpoint(covered);
            }
            // The per-client record restarts from the surviving snapshot's
            // frontier; the replay below raises it through the ledger.
            m.executed = m
                .snapshot
                .as_ref()
                .map(|s| s.dedup.iter().copied().collect())
                .unwrap_or_default();
            m.ledger.blocks_from(1).unwrap_or_default()
        };
        // A surviving snapshot restores the (possibly anchor-summarized)
        // prefix; blocks it covers must not re-execute on top of it.
        let mut replay_from = 1u64;
        if let Some(snapshot) = self.member.as_ref().and_then(|m| m.snapshot.as_ref()) {
            self.app.install_snapshot(&snapshot.state);
            replay_from = snapshot.covered + 1;
        }
        let mut replayed = 0u64;
        for block in &replay {
            replayed += self.replay_block(block, block.header.number >= replay_from);
        }
        ctx.charge(self.config.execute_ns * replayed);
        self.finish_sync();
        self.start_state_transfer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockBody};
    use crate::node::ChainNode;
    use smartchain_consensus::proof::DecisionProof;
    use smartchain_smr::app::CounterApp;
    use smartchain_smr::types::Request;

    /// A block whose header binds `state` the way produce does: the covered
    /// block's `hash_results` folds in the chunked state root.
    fn committed_block(covered: u64, state: &[u8]) -> (Block, SnapshotCommit) {
        let body = BlockBody::Transactions {
            consensus_id: covered,
            requests: vec![Request {
                client: 1,
                seq: 0,
                payload: vec![0, 1, 2],
                signature: None,
            }],
            proof: DecisionProof {
                instance: covered,
                epoch: 0,
                value_hash: [0u8; 32],
                accepts: Vec::new(),
            },
            results: vec![vec![7]],
        };
        let state_root = merkle::chunked_root(state, merkle::STATE_CHUNK);
        let block = Block::build(covered, 0, 0, [3u8; 32], body, state_root);
        let commit = SnapshotCommit {
            header: block.header,
            results_root: block.body.results_root(),
            state_root,
        };
        (block, commit)
    }

    type Node = ChainNode<CounterApp>;

    #[test]
    fn honest_snapshot_opens_its_commitment() {
        let state: Vec<u8> = (0..1000u32).flat_map(u32::to_le_bytes).collect();
        let (block, commit) = committed_block(8, &state);
        assert!(commit.opens_header());
        let anchor = block.header.hash();
        assert!(Node::snapshot_commit_verifies(
            8,
            &state,
            Some(&anchor),
            Some(&commit)
        ));
    }

    #[test]
    fn tampered_chunk_is_rejected() {
        let state: Vec<u8> = (0..1000u32).flat_map(u32::to_le_bytes).collect();
        let (block, commit) = committed_block(8, &state);
        let anchor = block.header.hash();
        // Flip one byte in an interior chunk: the chunked root changes and
        // the shipped state no longer opens the certified commitment.
        let mut tampered = state.clone();
        tampered[3 * merkle::STATE_CHUNK + 1] ^= 0x40;
        assert!(!Node::snapshot_commit_verifies(
            8,
            &tampered,
            Some(&anchor),
            Some(&commit)
        ));
        // Appending forged extra state fails too (leaf count changes).
        let mut extended = state.clone();
        extended.extend_from_slice(b"free money");
        assert!(!Node::snapshot_commit_verifies(
            8,
            &extended,
            Some(&anchor),
            Some(&commit)
        ));
    }

    #[test]
    fn commitment_must_match_the_vouched_anchor() {
        let state = vec![5u8; 700];
        let (block, commit) = committed_block(8, &state);
        let anchor = block.header.hash();
        // No commitment at all: a shipper cannot opt out of verification.
        assert!(!Node::snapshot_commit_verifies(
            8,
            &state,
            Some(&anchor),
            None
        ));
        // Commitment for a different covered height.
        assert!(!Node::snapshot_commit_verifies(
            9,
            &state,
            Some(&anchor),
            Some(&commit)
        ));
        // Anchor (the digest-vouched chain hash) disagrees with the header
        // the commitment opens — a self-consistent but unvouched header.
        assert!(!Node::snapshot_commit_verifies(
            8,
            &state,
            Some(&[9u8; 32]),
            Some(&commit)
        ));
        // A commitment whose roots do not open the header is rejected even
        // when the state matches its (forged) state root.
        let mut forged = commit.clone();
        forged.state_root = merkle::chunked_root(b"other state", merkle::STATE_CHUNK);
        assert!(!Node::snapshot_commit_verifies(
            8,
            b"other state",
            Some(&anchor),
            Some(&forged)
        ));
    }
}
