//! Stage 1 — VERIFY: batched client-signature checking.
//!
//! BFT-SMaRt's insight (paper Table I: parallel verification alone doubles
//! SMaRtCoin's throughput) is that client-signature checks do not belong on
//! the sequential state-machine lane. This stage batches every request that
//! arrives while a verification round is in flight and dispatches the whole
//! batch to the worker-pool lanes at once:
//!
//! * **virtual time** — one `pool_dispatch` charge per *batch* (not per
//!   request) and a [`Ctx::pool_charge`] spanning the batch across the
//!   [`smartchain_sim::hw::CpuModel`] worker lanes;
//! * **wall clock** — the same shape runs on
//!   `smartchain_crypto::pool::VerifyPool` (see `smr::runtime`), which is
//!   the deployment backend for this stage.
//!
//! Batching the dispatch amortizes the hand-off cost that the paper's Java
//! stack pays per request, and gives the verify stage the same
//! work-queue discipline as the persist stage's group commit.

use crate::messages::ChainMsg;
use crate::node::ChainNode;
use crate::pipeline::{verify_envelope_signature, KIND_VERIFY};
use smartchain_sim::Ctx;
use smartchain_smr::actor::SigMode;
use smartchain_smr::app::Application;
use smartchain_smr::types::Request;

/// The verify stage's queue state (lives in `MemberState`).
#[derive(Debug, Default)]
pub(crate) struct VerifyStage {
    /// Requests awaiting the next verification round.
    pending: Vec<Request>,
    /// The round currently on the pool lanes: `(token, batch)`.
    in_flight: Option<(u64, Vec<Request>)>,
}

impl VerifyStage {
    pub(crate) fn new() -> VerifyStage {
        VerifyStage::default()
    }

    /// Drops all queued work (crash recovery).
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
        self.in_flight = None;
    }
}

impl<A: Application> ChainNode<A> {
    /// Stage entry: admits a client request under the configured signature
    /// policy. `None`/`Sequential` bypass this stage (sequential mode
    /// verifies inside the state machine at execution); `Parallel` queues
    /// the request for the next batched verification round.
    pub(crate) fn admit(&mut self, req: Request, ctx: &mut Ctx<'_, ChainMsg>) {
        let sig_mode = self.config.sig_mode;
        {
            let Some(m) = self.member.as_ref() else {
                return;
            };
            if m.syncing {
                return;
            }
        }
        match sig_mode {
            SigMode::None | SigMode::Sequential => self.submit_to_core(req, ctx),
            SigMode::Parallel => {
                if let Some(m) = self.member.as_mut() {
                    m.verify.pending.push(req);
                }
                self.dispatch_verify_batch(ctx);
            }
        }
    }

    /// Starts a verification round if the lanes are idle and work is queued.
    fn dispatch_verify_batch(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let batch = {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            if m.verify.in_flight.is_some() || m.verify.pending.is_empty() {
                return;
            }
            // Everything queued rides this round.
            std::mem::take(&mut m.verify.pending)
        };
        // One dispatch per batch: the sequential lane pays the pool hand-off
        // once, however many requests ride along.
        ctx.charge(ctx.hw().cpu.pool_dispatch_ns);
        let delay = ctx.pool_charge(ctx.hw().cpu.verify_ns, batch.len());
        let Some(m) = self.member.as_mut() else {
            return;
        };
        m.next_token += 1;
        let token = KIND_VERIFY | m.next_token;
        m.verify.in_flight = Some((token, batch));
        ctx.op_after(delay, token);
    }

    /// Pool completion: check the whole batch, feed survivors to the order
    /// stage, then start the next round with whatever queued meanwhile.
    pub(crate) fn on_verify_done(&mut self, token: u64, ctx: &mut Ctx<'_, ChainMsg>) {
        let batch = {
            let Some(m) = self.member.as_mut() else {
                return;
            };
            match &m.verify.in_flight {
                Some((t, _)) if *t == token => m.verify.in_flight.take().map(|(_, b)| b),
                _ => None, // stale completion from before a view change
            }
        };
        let Some(batch) = batch else { return };
        for req in batch {
            if verify_envelope_signature(&req) {
                self.submit_to_core(req, ctx);
            }
            // Forged requests die here, before the order stage sees them.
        }
        self.dispatch_verify_batch(ctx);
    }
}
