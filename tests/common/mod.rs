//! Sans-IO helpers for the root tests that drive `OrderingCore`s directly:
//! a cluster of cores on one view and a FIFO message pump.

use smartchain::consensus::View;
use smartchain::crypto::keys::{Backend, SecretKey};
use smartchain::smr::ordering::{CoreOutput, OrderingConfig, OrderingCore, SmrMsg};
use smartchain::smr::types::Request;
use std::collections::VecDeque;

/// `n` cores on one view, all running `config`, with fresh state.
pub fn cores(n: usize, config: OrderingConfig) -> Vec<OrderingCore> {
    let secrets: Vec<SecretKey> = (0..n)
        .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 40; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(|s| s.public_key()).collect(),
    };
    (0..n)
        .map(|i| OrderingCore::new(i, view.clone(), secrets[i].clone(), config, 0))
        .collect()
}

pub fn req(client: u64, seq: u64) -> Request {
    Request {
        client,
        seq,
        payload: vec![client as u8, seq as u8],
        signature: None,
    }
}

/// Admits each `(replica, request)` and pairs every output with the replica
/// that produced it, ready for [`pump`].
pub fn submit(
    cores: &mut [OrderingCore],
    requests: Vec<(usize, Request)>,
) -> Vec<(usize, CoreOutput)> {
    let mut outputs = Vec::new();
    for (r, request) in requests {
        outputs.extend(cores[r].submit(request).into_iter().map(|out| (r, out)));
    }
    outputs
}

/// Routes `initial` outputs in FIFO order until quiescence, dropping every
/// message for which `drop(from, to, msg)` holds. Returns each replica's
/// delivered request ids in delivery order.
pub fn pump(
    cores: &mut [OrderingCore],
    initial: Vec<(usize, CoreOutput)>,
    mut drop: impl FnMut(usize, usize, &SmrMsg) -> bool,
) -> Vec<Vec<(u64, u64)>> {
    let n = cores.len();
    let mut delivered = vec![Vec::new(); n];
    let mut queue = VecDeque::new();
    let mut route =
        |from: usize, out: CoreOutput, queue: &mut VecDeque<(usize, usize, SmrMsg)>| match out {
            CoreOutput::Broadcast(m) => queue.extend(
                (0..n)
                    .filter(|&to| to != from)
                    .map(|to| (from, to, m.clone())),
            ),
            CoreOutput::Send(to, m) => queue.push_back((from, to, m)),
            CoreOutput::Deliver(b) => delivered[from].extend(b.requests.iter().map(Request::id)),
            CoreOutput::NeedStateTransfer { .. } => {}
        };
    for (from, out) in initial {
        route(from, out, &mut queue);
    }
    let mut steps = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 200_000, "pump did not quiesce");
        if drop(from, to, &msg) {
            continue;
        }
        for out in cores[to].on_message(from, msg) {
            route(to, out, &mut queue);
        }
    }
    delivered
}
