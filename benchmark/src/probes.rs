//! Layer probes: spans around calls into each layer's public functions, on
//! inputs taken from the workload generator — the same signed MINT/SPEND
//! requests, batched 64 at a time by a real `OrderingCore` quartet, and the
//! 200k-coin snapshot of `bigstate_ckpt`.
//!
//! Every probe is a *count* or a *time of one call with nothing else
//! running*: it says what a layer costs, not how long work waited for it.
//! The README lists which end-to-end metric each is predicted to move.

use crate::genesis::GenesisCoinApp;
use crate::requests;
use crate::stats::median;
use crate::trace::{now_ns, Trace};
use smartchain_codec::{from_bytes, to_bytes};
use smartchain_coin::SmartCoinApp;
use smartchain_consensus::View;
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey, Signature};
use smartchain_crypto::pool::VerifyPool;
use smartchain_crypto::sha256;
use smartchain_merkle as merkle;
use smartchain_smr::app::Application;
use smartchain_smr::durability::{ckpt_sign_payload, CheckpointCert, DurableApp};
use smartchain_smr::exec::{plan_batch, run_plan, ExecPool};
use smartchain_smr::ordering::{CoreOutput, OrderedBatch, OrderingConfig, OrderingCore, SmrMsg};
use smartchain_smr::transport::frame::{encode_frame_into, frame_header, FrameKey};
use smartchain_smr::transport::reactor::{FrameReader, WriteQueue};
use smartchain_smr::types::{decode_batch, Request};
use smartchain_storage::segmented::SegmentConfig;
use smartchain_storage::snapshot::{Snapshot, SnapshotStore};
use smartchain_storage::{DurabilityEngine, RecordLog, SegmentedEngine, SyncPolicy};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;

/// Batch bound of the shipped `RuntimeConfig`, and the clients per workload.
const BATCH: usize = 64;
/// Genesis coins of `bigstate_ckpt`.
const BIG_STATE_COINS: u64 = 200_000;
/// A checkpoint period no probe reaches, so `apply_batch` is timed alone.
const NEVER: u64 = u64::MAX;

/// A probe's results: metric name (as declared in the manifest) and value.
pub type Values = Vec<(&'static str, f64)>;

fn replica_keys(backend: Backend) -> (View, Vec<SecretKey>) {
    let secrets: Vec<SecretKey> = (0..4)
        .map(|i| SecretKey::from_seed(backend, &[0x70 + i as u8; 32]))
        .collect();
    let view = View {
        id: 0,
        members: secrets.iter().map(SecretKey::public_key).collect(),
    };
    (view, secrets)
}

/// What four `OrderingCore`s did with a request stream.
#[derive(Default)]
struct Ordered {
    /// The batches replica 0 delivered, in order.
    batches: Vec<OrderedBatch>,
    /// Per full-size decision: seconds from the previous delivery at
    /// replica 0 (all four cores' work, on one thread).
    seconds: Vec<f64>,
    /// Per full-size decision: protocol messages delivered to a core.
    msgs: Vec<f64>,
    /// Per full-size decision: their wire bytes.
    bytes: Vec<f64>,
}

/// The in-memory network between the cores: a FIFO of `(from, to, msg)`,
/// and what crossed it so far.
#[derive(Default)]
struct Shuttle {
    queue: VecDeque<(usize, usize, SmrMsg)>,
    msgs: u64,
    bytes: u64,
    /// `(time, msgs, bytes)` at replica 0's previous delivery.
    last: (u64, u64, u64),
    out: Ordered,
}

impl Shuttle {
    fn post(&mut self, from: usize, to: usize, msg: SmrMsg) {
        self.msgs += 1;
        self.bytes += msg.wire_size() as u64;
        self.queue.push_back((from, to, msg));
    }

    fn handle(&mut self, from: usize, n: usize, outputs: Vec<CoreOutput>) {
        for output in outputs {
            match output {
                CoreOutput::Broadcast(msg) => {
                    for to in (0..n).filter(|&to| to != from) {
                        self.post(from, to, msg.clone());
                    }
                }
                CoreOutput::Send(to, msg) => self.post(from, to, msg),
                CoreOutput::Deliver(batch) if from == 0 => {
                    let now = now_ns();
                    if batch.requests.len() == BATCH {
                        self.out.seconds.push((now - self.last.0) as f64 / 1e9);
                        self.out.msgs.push((self.msgs - self.last.1) as f64);
                        self.out.bytes.push((self.bytes - self.last.2) as f64);
                    }
                    self.last = (now, self.msgs, self.bytes);
                    self.out.batches.push(batch);
                }
                CoreOutput::Deliver(_) | CoreOutput::NeedStateTransfer { .. } => {}
            }
        }
    }
}

/// Four `OrderingCore`s wired by an in-memory FIFO shuttle: no sockets, no
/// threads, no timers. Every core gets every request (clients broadcast),
/// then the shuttle runs until no message is left.
fn order(backend: Backend, requests: &[Request]) -> Ordered {
    let (view, secrets) = replica_keys(backend);
    let mut cores: Vec<OrderingCore> = secrets
        .into_iter()
        .enumerate()
        .map(|(me, secret)| {
            OrderingCore::new(
                me,
                view.clone(),
                secret,
                OrderingConfig {
                    max_batch: BATCH,
                    ..OrderingConfig::default()
                },
                0,
            )
        })
        .collect();
    let n = cores.len();
    let mut shuttle = Shuttle::default();
    for request in requests {
        for (me, core) in cores.iter_mut().enumerate() {
            let outputs = core.submit(request.clone());
            shuttle.handle(me, n, outputs);
        }
    }
    shuttle.last.0 = now_ns();
    while let Some((from, to, msg)) = shuttle.queue.pop_front() {
        let outputs = cores[to].on_message(from, msg);
        shuttle.handle(to, n, outputs);
    }
    shuttle.out
}

fn codec_and_crypto(trace: &mut Trace, requests: &[Request], batch: &OrderedBatch) -> Values {
    let spend = requests.last().expect("requests").clone();
    let msg = SmrMsg::Request(spend.clone());
    let encoded = to_bytes(&msg);
    let key = FrameKey::client();
    let (public, signature) = spend.signature.expect("signed");
    let signed = Request::sign_payload(spend.client, spend.seq, &spend.payload);
    let ed_key = SecretKey::from_seed(Backend::Ed25519, &[0x33; 32]);
    let ed_sig = ed_key.sign(&signed);
    let ed_public = ed_key.public_key();
    let pool_items: Vec<(PublicKey, Vec<u8>, Signature)> = (0..BATCH)
        .map(|_| (ed_public, signed.clone(), ed_sig))
        .collect();
    let pool = VerifyPool::new(2);
    vec![
        (
            "codec.request_encode_ns",
            trace.median_timed("codec.request_encode", 15, 2000, || to_bytes(&msg)) * 1e9,
        ),
        (
            "codec.request_decode_ns",
            trace.median_timed("codec.request_decode", 15, 2000, || {
                from_bytes::<SmrMsg>(&encoded)
            }) * 1e9,
        ),
        (
            "codec.batch_decode_us",
            trace.median_timed("codec.batch_decode", 15, 50, || decode_batch(&batch.value)) * 1e6,
        ),
        (
            "crypto.batch_digest_us",
            trace.median_timed("crypto.batch_digest", 15, 50, || {
                sha256::digest_parts(&[batch.value.as_slice()])
            }) * 1e6,
        ),
        (
            "crypto.hmac_frame_ns",
            trace.median_timed("crypto.hmac_frame", 15, 2000, || {
                frame_header(&key, &encoded)
            }) * 1e9,
        ),
        (
            "crypto.sim_verify_ns",
            trace.median_timed("crypto.sim_verify", 15, 2000, || {
                public.verify(&signed, &signature)
            }) * 1e9,
        ),
        (
            "crypto.ed25519_sign_us",
            trace.median_timed("crypto.ed25519_sign", 9, 4, || ed_key.sign(&signed)) * 1e6,
        ),
        (
            "crypto.ed25519_verify_us",
            trace.median_timed("crypto.ed25519_verify", 9, 4, || {
                ed_public.verify(&signed, &ed_sig)
            }) * 1e6,
        ),
        (
            "crypto.verify_pool_batch64_ms",
            trace.median_timed("crypto.verify_pool_batch64", 3, 1, || {
                pool.verify_batch(&pool_items)
            }) * 1e3,
        ),
    ]
}

fn ordering(trace: &mut Trace, sim: &Ordered, requests_ed: &[Request]) -> Values {
    let ed = trace.scope("ordering.decide_ed25519", |_| {
        order(Backend::Ed25519, requests_ed)
    });
    vec![
        ("ordering.decide_us", median(&sim.seconds) * 1e6),
        ("ordering.decide_ed25519_ms", median(&ed.seconds) * 1e3),
        ("ordering.msgs_per_decision", median(&sim.msgs)),
        ("ordering.bytes_per_decision", median(&sim.bytes)),
    ]
}

/// Applies `batches` to a fresh `DurableApp` under `dir`, one span each;
/// returns the median seconds per full batch and the engine's syncs per
/// record.
fn apply_all(
    trace: &mut Trace,
    name: &str,
    dir: &Path,
    policy: SyncPolicy,
    minters: &[PublicKey],
    batches: &[OrderedBatch],
) -> io::Result<(f64, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let app = GenesisCoinApp::new(minters.to_vec(), minters[0], 0);
    let mut durable = DurableApp::open_with_policy(app, dir, NEVER, policy)?;
    let mut samples = Vec::with_capacity(batches.len());
    for batch in batches {
        let (result, seconds) = trace.timed_once(name, || durable.apply_batch(batch));
        result?;
        if batch.requests.len() == BATCH {
            samples.push(seconds);
        }
    }
    let stats = durable.engine_stats();
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        median(&samples),
        stats.syncs as f64 / stats.records.max(1) as f64,
    ))
}

fn durability_and_storage(
    trace: &mut Trace,
    tmpfs: &Path,
    disk: &Path,
    minters: &[PublicKey],
    batches: &[OrderedBatch],
) -> io::Result<Values> {
    let mut values = Values::new();
    let (sync, fsyncs_per_batch) = apply_all(
        trace,
        "durability.apply_batch",
        &tmpfs.join("apply-sync"),
        SyncPolicy::Sync,
        minters,
        batches,
    )?;
    let (none, _) = apply_all(
        trace,
        "durability.apply_batch_none",
        &tmpfs.join("apply-none"),
        SyncPolicy::None,
        minters,
        batches,
    )?;
    let (on_disk, _) = apply_all(
        trace,
        "durability.apply_batch_disk",
        &disk.join("apply-sync"),
        SyncPolicy::Sync,
        minters,
        batches,
    )?;
    values.push(("durability.apply_batch_us", sync * 1e6));
    values.push(("durability.apply_batch_none_us", none * 1e6));
    values.push(("durability.apply_batch_us_disk", on_disk * 1e6));
    values.push(("storage.fsyncs_per_batch", fsyncs_per_batch));

    // The record `apply_batch` logs for one full batch: prev ‖ value ‖ proof.
    let full = batches
        .iter()
        .rfind(|b| b.requests.len() == BATCH)
        .expect("a full batch");
    let mut record = vec![0u8; 32];
    smartchain_codec::Encode::encode(&full.value, &mut record);
    smartchain_codec::Encode::encode(&*full.proof, &mut record);
    for (name, span, dir) in [
        ("storage.append_flush_us", "storage.append_flush", tmpfs),
        (
            "storage.append_flush_us_disk",
            "storage.append_flush_disk",
            disk,
        ),
    ] {
        let dir = dir.join("engine");
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = SegmentedEngine::open(&dir, SyncPolicy::Sync, SegmentConfig::default())?;
        let seconds = trace.median_timed_ok(span, 40, || {
            engine.append(&record).and_then(|_| engine.flush())
        })?;
        values.push((name, seconds * 1e6));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // truncate_prefix after a checkpoint: the covered segments are deleted.
    let dir = tmpfs.join("truncate");
    let _ = std::fs::remove_dir_all(&dir);
    let segments = SegmentConfig {
        records_per_segment: 128,
    };
    let mut engine = SegmentedEngine::open(&dir, SyncPolicy::None, segments)?;
    let mut samples = Vec::new();
    for round in 1..=8u64 {
        for _ in 0..128 {
            engine.append(&record)?;
        }
        let (result, seconds) = trace.timed_once("storage.truncate_prefix", || {
            engine.truncate_prefix(round * 128)
        });
        result?;
        samples.push(seconds);
    }
    values.push(("storage.truncate_prefix_us", median(&samples) * 1e6));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(values)
}

/// Everything that works on the 200k-coin state of `bigstate_ckpt`.
fn big_state(
    trace: &mut Trace,
    seed: u64,
    tmpfs: &Path,
    minters: &[PublicKey],
) -> io::Result<Values> {
    let mut values = Values::new();
    let owner = minters[0];
    let (view, secrets) = replica_keys(Backend::Sim);
    let dir = tmpfs.join("bigstate");
    let _ = std::fs::remove_dir_all(&dir);

    let app = GenesisCoinApp::populated(minters.to_vec(), owner, BIG_STATE_COINS);
    values.push((
        "coin.take_snapshot_ms",
        trace.median_timed("coin.take_snapshot", 3, 1, || app.take_snapshot()) * 1e3,
    ));
    let state = app.take_snapshot();
    values.push((
        "merkle.chunked_root_ms",
        trace.median_timed("merkle.chunked_root", 3, 1, || {
            merkle::chunked_root(&state, merkle::STATE_CHUNK)
        }) * 1e3,
    ));
    let chunk = state.len() / merkle::STATE_CHUNK / 2;
    let root = merkle::chunked_root(&state, merkle::STATE_CHUNK);
    let proof = merkle::prove_chunk(&state, merkle::STATE_CHUNK, chunk);
    let leaf = &state[chunk * merkle::STATE_CHUNK..(chunk + 1) * merkle::STATE_CHUNK];
    values.push((
        "merkle.proof_verify_ns",
        trace.median_timed("merkle.proof_verify", 15, 200, || {
            merkle::verify(&root, leaf, &proof)
        }) * 1e9,
    ));
    let store = SnapshotStore::open(dir.join("store"))?;
    let snapshot = Snapshot {
        covered_block: 1,
        state,
        meta: Vec::new(),
    };
    values.push((
        "storage.snapshot_install_ms",
        trace.median_timed_ok("storage.snapshot_install", 3, || store.install(&snapshot))? * 1e3,
    ));
    drop(snapshot);
    drop(app);

    // A replica with the big state: checkpoint, serve a state transfer,
    // recover from disk; and a fresh replica installing that transfer.
    let key = requests::client_key(seed, Backend::Sim, 0);
    let app = GenesisCoinApp::new(minters.to_vec(), owner, BIG_STATE_COINS);
    let mut durable = DurableApp::open(app, dir.join("shipper"), NEVER)?;
    // A snapshot installs remotely only when it runs ahead of the receiver,
    // so the checkpoint must cover at least one batch.
    durable.apply_requests(&[requests::make_request(seed, &key, 0, 1)])?;
    values.push((
        "durability.checkpoint_ms",
        trace.median_timed_ok("durability.checkpoint", 3, || durable.checkpoint())? * 1e3,
    ));
    let (covered, state_root, tip) = durable
        .latest_checkpoint_basis()
        .expect("a checkpoint was cut");
    let payload = ckpt_sign_payload(covered, &state_root, &tip);
    durable.store_checkpoint_cert(CheckpointCert {
        covered,
        state_root,
        tip,
        signatures: secrets
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.sign(&payload)))
            .collect(),
    })?;
    values.push((
        "durability.state_reply_ms",
        trace.median_timed_ok("durability.state_reply", 3, || durable.state_reply(1))? * 1e3,
    ));
    let reply = durable.state_reply(1)?;
    if reply.snapshot.is_none() || reply.cert.is_none() {
        return Err(io::Error::other(
            "state_reply shipped no certified snapshot",
        ));
    }
    let mut samples = Vec::new();
    for round in 0..3 {
        let joiner_dir = dir.join(format!("joiner-{round}"));
        let app = GenesisCoinApp::new(minters.to_vec(), owner, 0);
        let mut joiner = DurableApp::open(app, &joiner_dir, NEVER)?;
        let (installed, seconds) = trace.timed_once("durability.install_remote", || {
            joiner.install_remote(
                &view,
                reply.covered,
                reply.snapshot.clone(),
                reply.cert.as_ref(),
                reply.first_batch,
                &reply.batches,
            )
        });
        installed.map_err(|e| io::Error::other(format!("install_remote: {e}")))?;
        samples.push(seconds);
        if joiner.batches_applied() != covered {
            return Err(io::Error::other(
                "install_remote did not adopt the snapshot",
            ));
        }
        drop(joiner);
        let _ = std::fs::remove_dir_all(&joiner_dir);
    }
    values.push(("durability.install_remote_ms", median(&samples) * 1e3));
    // One batch past the checkpoint, so recovery replays a log suffix on
    // top of the snapshot.
    durable.apply_requests(&[requests::make_request(seed, &key, 0, 2)])?;
    drop(durable);
    let mut samples = Vec::new();
    for _ in 0..3 {
        let app = GenesisCoinApp::new(minters.to_vec(), owner, BIG_STATE_COINS);
        let (reopened, seconds) = trace.timed_once("durability.recover_open", || {
            DurableApp::open(app, dir.join("shipper"), NEVER)
        });
        let reopened = reopened?;
        samples.push(seconds);
        if reopened.batches_applied() != covered + 1 || reopened.replayed_on_recovery() != 1 {
            return Err(io::Error::other(
                "recovery did not restore snapshot + suffix",
            ));
        }
    }
    values.push(("durability.recover_open_ms", median(&samples) * 1e3));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(values)
}

fn coin_and_exec(trace: &mut Trace, minters: &[PublicKey], requests: &[Request]) -> Values {
    // One client's chain, executed in order: op 1 mints, the rest spend.
    let chain: Vec<&Request> = requests
        .iter()
        .filter(|r| r.client == requests[0].client)
        .collect();
    let mut app = SmartCoinApp::new(minters.to_vec());
    app.execute(chain[0]);
    let mut next = 1;
    let execute = trace.median_timed("coin.execute_spend", chain.len() - 1, 1, || {
        let result = app.execute(chain[next]);
        next += 1;
        result
    });
    // A full batch of SPENDs against the state just before it: round `k`
    // of every client's chain, after rounds `1..k` were applied.
    let rounds = requests.len() / BATCH;
    let mut values = vec![("coin.execute_spend_ns", execute * 1e9)];
    for (name, span, lanes) in [
        ("exec.run_plan_batch64_us_l1", "exec.run_plan_l1", 1usize),
        ("exec.run_plan_batch64_us_l4", "exec.run_plan_l4", 4usize),
    ] {
        let mut app = SmartCoinApp::new(minters.to_vec());
        app.configure_lanes(lanes);
        let pool = (lanes > 1).then(|| ExecPool::new(lanes));
        let mut samples = Vec::new();
        for round in 0..rounds {
            let batch: Vec<&Request> = requests[round * BATCH..(round + 1) * BATCH]
                .iter()
                .collect();
            let seconds = trace.timed(span, 1, || {
                let hints: Vec<_> = batch.iter().map(|r| app.lane_hint(r, lanes)).collect();
                let plan = plan_batch(&hints, lanes);
                run_plan(&mut app, &batch, &plan, pool.as_ref())
            });
            if round > 0 {
                samples.push(seconds); // round 0 is the MINTs
            }
        }
        values.push((name, median(&samples) * 1e6));
    }
    values
}

/// `WriteQueue::drain` → `FrameReader` over one loopback socket, one thread:
/// request-sized frames per second the framing layer moves when nothing
/// else is in the way.
fn loopback(trace: &mut Trace, requests: &[Request]) -> io::Result<Values> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let key = FrameKey::client();
    let msg = SmrMsg::Request(requests.last().expect("requests").clone());
    let mut wq = WriteQueue::new(BATCH);
    let mut reader = FrameReader::new();
    const STEPS: usize = 200;
    let mut step = |wq: &mut WriteQueue, reader: &mut FrameReader| -> io::Result<u64> {
        for _ in 0..BATCH {
            let mut buf = wq.take_buf();
            encode_frame_into(&mut buf, &key, &msg)?;
            wq.push(buf);
        }
        let mut received = 0;
        while received < BATCH as u64 {
            wq.drain(&mut tx)?;
            reader.fill(&mut rx)?;
            while let Some((tag, payload)) = reader.next_frame()? {
                if !key.verify(&payload, &tag) {
                    return Err(io::Error::other("loopback frame failed its tag"));
                }
                received += 1;
            }
        }
        Ok(received)
    };
    let seconds = trace.median_timed_ok("transport.loopback", 5, || {
        (0..STEPS).try_for_each(|_| step(&mut wq, &mut reader).map(drop))
    })?;
    Ok(vec![(
        "transport.loopback_frames_s",
        (STEPS * BATCH) as f64 / seconds,
    )])
}

/// Runs every workload-independent probe under one `probes` span.
///
/// # Errors
///
/// Propagates storage and socket failures; a probe whose layer misbehaves
/// (a tag that does not verify, a snapshot that does not install) fails the
/// pass rather than reporting a time for the wrong work.
pub fn run_all(trace: &mut Trace, seed: u64, tmpfs: &Path, disk: &Path) -> io::Result<Values> {
    trace.scope("probes", |trace| -> io::Result<Values> {
        // 33 rounds: the MINTs, then 32 rounds of SPENDs, for 64 clients.
        let sim_requests = requests::build_requests(seed, Backend::Sim, BATCH, 33);
        let ed_requests = requests::build_requests(seed, Backend::Ed25519, BATCH, 4);
        let minters = requests::client_public_keys(seed, Backend::Sim, BATCH);
        let sim = trace.scope("ordering.decide", |_| order(Backend::Sim, &sim_requests));
        let full = sim
            .batches
            .iter()
            .rfind(|b| b.requests.len() == BATCH)
            .ok_or_else(|| io::Error::other("the ordering shuttle decided no full batch"))?;
        let mut values = Values::new();
        values.extend(codec_and_crypto(trace, &sim_requests, full));
        values.extend(ordering(trace, &sim, &ed_requests));
        values.extend(durability_and_storage(
            trace,
            tmpfs,
            disk,
            &minters,
            &sim.batches,
        )?);
        values.extend(big_state(trace, seed, tmpfs, &minters)?);
        values.extend(coin_and_exec(trace, &minters, &sim_requests));
        values.extend(loopback(trace, &sim_requests)?);
        Ok(values)
    })
}
