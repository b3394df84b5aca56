//! The TCP deployment, end to end over real loopback sockets: signed
//! requests, torn connections, spoofed frames, a replica that is killed
//! and rejoins via runtime state transfer, and a client pool that redials
//! a replica that was down.
//!
//! These tests are wall-clock (CI runs them in the workspace-test job) and
//! are budgeted to stay well under 30 s combined.

use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_smr::app::CounterApp;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_smr::transport::frame::{
    read_frame, write_client_hello, write_frame, write_peer_hello, FrameKey,
};
use smartchain_smr::transport::TcpClientPool;
use smartchain_smr::types::Request;
use smartchain_storage::testing::TempDir;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn fresh_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("smartchain-tcp-test-{tag}"))
}

fn config(dir: &TempDir) -> RuntimeConfig {
    RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        progress_timeout: Duration::from_millis(200),
        ..RuntimeConfig::default()
    }
}

fn sum_of(reply: &[u8]) -> u64 {
    u64::from_le_bytes(reply[..8].try_into().expect("8-byte sum"))
}

/// A client pool dials a missing connection again when it sends: a pool
/// connected while replica 3 was down reaches it once it is back, so with
/// replica 1 killed in turn, replicas 0, 2 and 3 still form a reply quorum
/// of 2f + 1 = 3.
#[test]
fn client_pool_redials_a_replica_that_was_down() {
    let dir = fresh_dir("redial");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let addrs = cluster.cluster_config().replicas.clone();
    cluster.kill_replica(3);
    let mut pool = TcpClientPool::connect(addrs, 0x4ED1A1, 2);
    assert_eq!(pool.connections(), 6, "replica 3 is down at connect");
    cluster.restart_replica(3).expect("restart replica 3");
    cluster.kill_replica(1);
    assert_eq!(
        pool.run_closed_loop(5, 3, &[1], Duration::from_secs(10)),
        10
    );
    assert_eq!(pool.connections(), 6, "replica 3 redialed, replica 1 gone");
    cluster.shutdown();
}

/// Signed and unsigned client requests complete over real sockets, a forged
/// signature dies in the verify stage, and the cluster stays live after it.
#[test]
fn signed_requests_complete_end_to_end() {
    let dir = fresh_dir("signed");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let r = cluster
        .execute(vec![5], Duration::from_secs(15))
        .expect("unsigned op");
    assert_eq!(sum_of(&r), 5);
    let sk = SecretKey::from_seed(Backend::Sim, &[77u8; 32]);
    let client = 0xC11E28; // the built-in client id: replies route back
    let payload = vec![7u8];
    let sig = sk.sign(&Request::sign_payload(client, 2, &payload));
    let r = cluster
        .execute_request(
            Request {
                client,
                seq: 2,
                payload,
                signature: Some((sk.public_key(), sig)),
            },
            Duration::from_secs(15),
        )
        .expect("signed op");
    assert_eq!(sum_of(&r), 12);
    // Forged signature: no replica orders it, no quorum forms.
    let bad = sk.sign(b"not this request");
    let err = cluster.execute_request(
        Request {
            client,
            seq: 3,
            payload: vec![100u8],
            signature: Some((sk.public_key(), bad)),
        },
        Duration::from_millis(900),
    );
    assert!(err.is_err(), "forged request must not execute");
    // The cluster is still live afterwards.
    let payload = vec![1u8];
    let sig = sk.sign(&Request::sign_payload(client, 4, &payload));
    let r = cluster
        .execute_request(
            Request {
                client,
                seq: 4,
                payload,
                signature: Some((sk.public_key(), sig)),
            },
            Duration::from_secs(15),
        )
        .expect("post-forgery op");
    assert_eq!(sum_of(&r), 13);
    cluster.shutdown();
}

/// Kill one replica: the cluster keeps committing. Restart it on its old
/// port and storage: it recovers its durable prefix, fetches the missed
/// suffix via runtime state transfer, and participates again — proven by
/// killing a *second* replica afterwards, which leaves a quorum only if the
/// first one truly rejoined.
#[test]
fn survives_kill_and_rejoin_via_state_transfer() {
    let dir = fresh_dir("rejoin");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let mut expected = 0u64;
    for add in [1u8, 2] {
        expected += add as u64;
        let r = cluster
            .execute(vec![add], Duration::from_secs(15))
            .expect("warm-up op");
        assert_eq!(sum_of(&r), expected);
    }
    // Replica 3 dies (its listener, links and thread all go away).
    cluster.kill_replica(3);
    for add in [3u8, 4, 5] {
        expected += add as u64;
        let r = cluster
            .execute(vec![add], Duration::from_secs(15))
            .expect("op with one replica down");
        assert_eq!(sum_of(&r), expected);
    }
    // Replica 3 comes back on the same address and disk: local recovery,
    // then state transfer for the batches it missed.
    cluster.restart_replica(3).expect("rebind and restart");
    expected += 6;
    let r = cluster
        .execute(vec![6], Duration::from_secs(15))
        .expect("op after rejoin");
    assert_eq!(sum_of(&r), expected);
    // The acid test: with replica 2 dead, progress now *requires* the
    // rejoined replica 3 to vote (2f+1 = 3 of {0, 1, 3}).
    cluster.kill_replica(2);
    expected += 7;
    let r = cluster
        .execute(vec![7], Duration::from_secs(30))
        .expect("op that needs the rejoined replica");
    assert_eq!(sum_of(&r), expected);
    cluster.shutdown();
}

/// The leader is killed mid-stream and later rejoins: the survivors elect a
/// new leader over TCP (STOP/STOPDATA/SYNC on real sockets, with
/// PeerUp-triggered resends repairing anything a torn link ate), and the
/// restarted ex-leader re-integrates through the next regency.
#[test]
fn leader_crash_and_rejoin_mid_view_change() {
    let dir = fresh_dir("leader");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let r = cluster
        .execute(vec![1], Duration::from_secs(15))
        .expect("warm-up");
    assert_eq!(sum_of(&r), 1);
    // Kill the regency-0 leader; the next op forces a view change.
    cluster.kill_replica(0);
    let r = cluster
        .execute(vec![2], Duration::from_secs(30))
        .expect("op across the leader change");
    assert_eq!(sum_of(&r), 3);
    // The ex-leader returns, behind on both batches and regency.
    cluster.restart_replica(0).expect("restart ex-leader");
    let r = cluster
        .execute(vec![3], Duration::from_secs(15))
        .expect("op after ex-leader rejoin");
    assert_eq!(sum_of(&r), 6);
    // Progress must now survive losing another replica, which requires the
    // rejoined ex-leader to have caught up (quorum = 3 of {0, 1, 2}).
    cluster.kill_replica(3);
    let r = cluster
        .execute(vec![4], Duration::from_secs(30))
        .expect("op that needs the rejoined ex-leader");
    assert_eq!(sum_of(&r), 10);
    cluster.shutdown();
}

/// With the default 500 ms progress timeout — the client's retransmit
/// period — a killed leader is replaced within a few timeouts: the
/// survivors' timers are deadlines, so the retransmitted request arriving
/// every 500 ms does not keep postponing them, and the second expiry (the
/// first sends a repair round) raises STOP at every survivor. At n = 7 the
/// leaders of regencies 0 and 1 are both dead, so the timers must escalate
/// once more.
#[test]
fn leader_crash_fails_over_within_a_few_timeouts_despite_retransmits() {
    // (n, the replicas killed, the bound in progress timeouts)
    for (n, killed, bound) in [(4, &[0][..], 8), (7, &[0, 1][..], 16)] {
        let dir = fresh_dir(&format!("failover-{n}"));
        let config = RuntimeConfig {
            replicas: n,
            storage_dir: Some(dir.to_path_buf()),
            ..RuntimeConfig::default()
        };
        let timeout = config.progress_timeout;
        let mut cluster =
            TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
        let r = cluster
            .execute(vec![1], Duration::from_secs(15))
            .expect("warm-up");
        assert_eq!(sum_of(&r), 1);
        for &replica in killed {
            cluster.kill_replica(replica);
        }
        let r = cluster
            .execute(vec![2], bound * timeout)
            .unwrap_or_else(|e| panic!("n = {n}: no op within {bound} timeouts: {e}"));
        assert_eq!(sum_of(&r), 3);
        let r = cluster
            .execute(vec![3], bound * timeout)
            .unwrap_or_else(|e| panic!("n = {n}: no follow-up op: {e}"));
        assert_eq!(sum_of(&r), 6);
        cluster.shutdown();
    }
}

/// Kill-and-restart against a *truncated* segmented log: with a small
/// checkpoint period the replicas' durable logs have had their prefixes
/// compacted away by the time replica 3 is killed. Its restart must recover
/// snapshot + post-checkpoint suffix from its own segmented store (replaying
/// only records above the checkpoint), fetch the missed tail via the
/// digest-checked runtime state transfer, and vote again.
#[test]
fn kill_restart_recovers_from_truncated_segmented_log() {
    let dir = fresh_dir("truncated");
    let config = RuntimeConfig {
        checkpoint_period: 3,
        ..config(&dir)
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let mut expected = 0u64;
    // 7 ops → checkpoints at 3 and 6 truncate batches 1..6 on every replica.
    for add in 1u8..=7 {
        expected += add as u64;
        let r = cluster
            .execute(vec![add], Duration::from_secs(15))
            .expect("warm-up op");
        assert_eq!(sum_of(&r), expected);
    }
    cluster.kill_replica(3);
    // The dead replica's on-disk log really is truncated: reopen it directly.
    {
        use smartchain_storage::{RecordLog, SegmentConfig, SegmentedLog};
        let log = SegmentedLog::open(
            dir.join("replica-3").join("segments"),
            SegmentConfig::default(),
        )
        .expect("reopen replica 3's segmented log");
        assert!(
            log.first_index() >= 6,
            "checkpoints must have truncated the log prefix (first index {})",
            log.first_index()
        );
        assert_eq!(log.read(0).expect("read"), None, "old records are gone");
    }
    for add in [8u8, 9] {
        expected += add as u64;
        let r = cluster
            .execute(vec![add], Duration::from_secs(15))
            .expect("op with one replica down");
        assert_eq!(sum_of(&r), expected);
    }
    cluster.restart_replica(3).expect("rebind and restart");
    expected += 10;
    let r = cluster
        .execute(vec![10], Duration::from_secs(15))
        .expect("op after rejoin");
    assert_eq!(sum_of(&r), expected);
    // Progress now requires the restarted replica's vote (3 of {0, 1, 3}).
    cluster.kill_replica(2);
    expected += 11;
    let r = cluster
        .execute(vec![11], Duration::from_secs(30))
        .expect("op that needs the rejoined replica");
    assert_eq!(sum_of(&r), expected);
    cluster.shutdown();
}

/// With `require_signed`, an unsigned request — which any network peer
/// could forge, stamping a victim's `(client, seq)` — dies in the verify
/// stage, while properly signed traffic flows.
#[test]
fn require_signed_rejects_unsigned_requests() {
    let dir = fresh_dir("reqsig");
    let config = RuntimeConfig {
        require_signed: true,
        ..config(&dir)
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    // An unsigned op never forms a quorum.
    let err = cluster.execute(vec![9], Duration::from_millis(900));
    assert!(err.is_err(), "unsigned request must be rejected");
    // A signed one for the same client completes — and, crucially, the
    // rejected unsigned request did not poison the dedup frontier.
    let sk = SecretKey::from_seed(Backend::Sim, &[55u8; 32]);
    let client = 0xC11E28;
    let payload = vec![3u8];
    let sig = sk.sign(&Request::sign_payload(client, 2, &payload));
    let r = cluster
        .execute_request(
            Request {
                client,
                seq: 2,
                payload,
                signature: Some((sk.public_key(), sig)),
            },
            Duration::from_secs(15),
        )
        .expect("signed op on a require_signed cluster");
    assert_eq!(sum_of(&r), 3);
    cluster.shutdown();
}

/// An attacker without the cluster secret cannot impersonate a replica: the
/// spoofed session handshake is rejected at the HMAC check, and the cluster
/// keeps working untouched.
#[test]
fn spoofed_peer_frames_rejected() {
    let dir = fresh_dir("spoof");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let victim_addr = cluster.cluster_config().replicas[0].clone();
    // Handshake MAC'd under the wrong secret, claiming to be replica 2.
    {
        let mut stream = TcpStream::connect(&victim_addr).expect("dial victim");
        write_peer_hello(&mut stream, &[0xEE; 32], 2, 0).expect("send spoofed hello");
        // Follow with a frame that would be a consensus message if accepted.
        let msg = SmrMsg::Request(Request {
            client: 1,
            seq: 1,
            payload: vec![9],
            signature: None,
        });
        let _ = write_frame(
            &mut stream,
            &FrameKey::link(&[0xEE; 32], 2, 0),
            &smartchain_codec::to_bytes(&msg),
        );
    }
    // Raw garbage on a fresh connection is equally dropped.
    {
        let mut stream = TcpStream::connect(&victim_addr).expect("dial victim");
        let _ = stream.write_all(b"\xff\xff\xff\xff garbage that is not a frame");
    }
    let r = cluster
        .execute(vec![4], Duration::from_secs(15))
        .expect("cluster unaffected by spoofed frames");
    assert_eq!(sum_of(&r), 4);
    cluster.shutdown();
}

/// A client whose frames arrive in torn pieces (handshake split mid-header,
/// request split byte-ranges apart) is still served: the readers reassemble
/// frames from arbitrary TCP segmentation.
#[test]
fn partial_frame_delivery_is_reassembled() {
    let dir = fresh_dir("partial");
    let mut cluster =
        TcpCluster::start(config(&dir), Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    // Warm the cluster up through the normal path.
    cluster
        .execute(vec![1], Duration::from_secs(15))
        .expect("warm-up");
    let addrs = cluster.cluster_config().replicas.clone();
    let client_id = 0xD1717u64;
    // Hand-roll the client: connect to every replica, send hello + request
    // in deliberately torn chunks.
    let mut hello = Vec::new();
    write_client_hello(&mut hello, client_id).expect("encode hello");
    let request = SmrMsg::Request(Request {
        client: client_id,
        seq: 1,
        payload: vec![5],
        signature: None,
    });
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &FrameKey::client(),
        &smartchain_codec::to_bytes(&request),
    )
    .expect("encode frame");
    // Phase 1: register the client at every replica first (hellos torn
    // mid-header) — consensus spreads the request cluster-wide the moment
    // the leader sees it, and replies only route over registered
    // connections.
    let mut streams = Vec::new();
    for addr in &addrs {
        let mut stream = TcpStream::connect(addr).expect("dial replica");
        let (head, tail) = hello.split_at(3);
        stream.write_all(head).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(tail).unwrap();
        streams.push(stream);
    }
    // Phase 2: the request itself, a few bytes at a time.
    for stream in &mut streams {
        for chunk in frame.chunks(7) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    // f+1 matching replies prove the torn request was ordered and executed.
    let mut matching = 0;
    for mut stream in streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if let Ok(payload) = read_frame(&mut stream, &FrameKey::client()) {
            if let Ok(SmrMsg::Reply(reply)) = smartchain_codec::from_bytes::<SmrMsg>(&payload) {
                assert_eq!(reply.client, client_id);
                assert_eq!(reply.seq, 1);
                assert_eq!(sum_of(&reply.result), 5);
                matching += 1;
            }
        }
    }
    assert!(matching >= 2, "need f+1 replies, got {matching}");
    cluster.shutdown();
}
