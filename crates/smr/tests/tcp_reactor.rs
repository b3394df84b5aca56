//! Reactor-specific transport behavior over real loopback sockets: bounded
//! outbox overflow surfacing as repair, the client admission cap, slow-client
//! isolation, retransmissions answered from the durable reply record, the
//! per-connection counters, and clients that count a reply for the
//! connection it arrived on. The protocol-level TCP suite lives in
//! `tcp_cluster.rs`; these tests exercise the transport alone.

use smartchain_crypto::keys::Backend;
use smartchain_smr::app::CounterApp;
use smartchain_smr::ordering::SmrMsg;
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_smr::transport::frame::{
    read_frame, read_hello, write_client_hello, write_frame, FrameKey,
};
use smartchain_smr::transport::{NetEvent, TcpClient, TcpClientPool, TcpConfig, TcpTransport};
use smartchain_smr::types::{Reply, Request};
use smartchain_storage::testing::TempDir;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SECRET: [u8; 32] = [0x5A; 32];

fn big_request(seq: u64, len: usize) -> SmrMsg {
    SmrMsg::Request(Request {
        client: 7,
        seq,
        payload: vec![0xAB; len],
        signature: None,
    })
}

/// Reads one frame and returns its result if it is the reply to
/// `(client, 1)`; `None` on anything else, a torn link or `timeout`.
fn read_reply(stream: &mut TcpStream, client: u64, timeout: Duration) -> Option<Vec<u8>> {
    stream.set_read_timeout(Some(timeout)).unwrap();
    let payload = smartchain_smr::transport::frame::read_frame(stream, &FrameKey::client()).ok()?;
    match smartchain_codec::from_bytes::<SmrMsg>(&payload) {
        Ok(SmrMsg::Reply(reply)) if reply.client == client && reply.seq == 1 => Some(reply.result),
        _ => None,
    }
}

/// Dials `addr` as `client` and sends request `(client, 1)`, which adds 4.
fn send_first_request(addr: &str, client: u64) -> TcpStream {
    let request = SmrMsg::Request(Request {
        client,
        seq: 1,
        payload: vec![4],
        signature: None,
    });
    let mut stream = TcpStream::connect(addr).expect("dial");
    write_client_hello(&mut stream, client).expect("hello");
    let payload = smartchain_codec::to_bytes(&request);
    write_frame(&mut stream, &FrameKey::client(), &payload).expect("request");
    stream
}

/// Sends request `(client, 1)` to every replica in `addrs` and returns the
/// first reply; the connections close on return.
fn execute_raw(addrs: &[String], client: u64) -> Option<Vec<u8>> {
    let mut conns: Vec<TcpStream> = addrs
        .iter()
        .map(|a| send_first_request(a, client))
        .collect();
    conns
        .iter_mut()
        .find_map(|s| read_reply(s, client, Duration::from_secs(10)))
}

/// Drives the reactor until `want` matches an event or the deadline passes.
fn drive_until(
    transport: &mut TcpTransport,
    deadline: Duration,
    mut want: impl FnMut(&NetEvent) -> bool,
) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if let Ok(event) = transport.recv_timeout(Duration::from_millis(20)) {
            if want(&event) {
                return true;
            }
        }
    }
    false
}

/// Overflowing a peer's bounded outbox is counted, never silent, and once
/// the backlog drains the reactor emits a synthetic `PeerUp` so the
/// ordering layer re-sends what the drops may have lost.
#[test]
fn outbox_overflow_is_counted_and_repaired() {
    // The test plays replica 1: it accepts replica 0's out-link and stops
    // reading, so frames pile up in the kernel buffer and then the outbox.
    let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
    let peer_addr = peer_listener.local_addr().unwrap().to_string();
    let listener0 = TcpListener::bind("127.0.0.1:0").expect("bind replica 0");
    let addr0 = listener0.local_addr().unwrap().to_string();
    let mut config = TcpConfig::new(0, vec![addr0, peer_addr], SECRET);
    config.outbox = 4;
    let mut transport = TcpTransport::from_listener(config, listener0).expect("transport");
    let stats = transport.stats_handle();

    // Demand-dial: the first send starts the connect.
    transport.send(1, big_request(1, 1024));
    assert!(
        drive_until(&mut transport, Duration::from_secs(5), |e| matches!(
            e,
            NetEvent::PeerUp(1)
        )),
        "out-link must come up"
    );
    let (mut peer_side, _) = peer_listener.accept().expect("accept out-link");
    let hello = read_hello(&mut peer_side, &SECRET, 1).expect("link hello");
    assert!(matches!(
        hello,
        smartchain_smr::transport::frame::Hello::Peer { from: 0, .. }
    ));

    // Flood without the peer reading: 256 KiB frames overrun the socket
    // buffer, then the 4-frame outbox.
    let mut seq = 2u64;
    let overflowed = {
        let end = Instant::now() + Duration::from_secs(10);
        loop {
            if stats.snapshot().queue_full_drops > 0 {
                break true;
            }
            if Instant::now() >= end {
                break false;
            }
            transport.send(1, big_request(seq, 256 * 1024));
            seq += 1;
            let _ = transport.recv_timeout(Duration::from_millis(5));
        }
    };
    assert!(overflowed, "bounded outbox must report drops");

    // The peer starts reading again: the queue drains and the reactor
    // surfaces the loss as a synthetic PeerUp on the same link.
    let drainer = std::thread::spawn(move || {
        let mut sink = [0u8; 64 * 1024];
        peer_side
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        while let Ok(n) = peer_side.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    assert!(
        drive_until(&mut transport, Duration::from_secs(10), |e| matches!(
            e,
            NetEvent::PeerUp(1)
        )),
        "drained overflow must trigger repair"
    );
    drop(transport);
    drainer.join().unwrap();
}

/// Broadcasting to several peers serializes the payload exactly once: the
/// encode counter tracks broadcasts one-to-one (not once per peer), and the
/// shared-buffer frames still authenticate per link — a real peer receives
/// and verifies the message over its own pairwise key.
#[test]
fn broadcast_encodes_payload_once_for_all_peers() {
    // Three replica addresses; the test runs replicas 0 and 1, replica 2 is
    // a bound-but-mute listener so replica 0 genuinely fans out to two
    // distinct links with two distinct tags.
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let mut it = listeners.into_iter();
    let mut sender =
        TcpTransport::from_listener(TcpConfig::new(0, addrs.clone(), SECRET), it.next().unwrap())
            .expect("transport 0");
    let mut receiver =
        TcpTransport::from_listener(TcpConfig::new(1, addrs, SECRET), it.next().unwrap())
            .expect("transport 1");
    let stats = sender.stats_handle();

    const ROUNDS: u64 = 5;
    for seq in 1..=ROUNDS {
        sender.broadcast(&big_request(seq, 2048));
    }
    let mut seen = 0u64;
    let end = Instant::now() + Duration::from_secs(10);
    while seen < ROUNDS && Instant::now() < end {
        let _ = sender.recv_timeout(Duration::from_millis(5));
        if let Ok(NetEvent::Peer { from: 0, msg }) = receiver.recv_timeout(Duration::from_millis(5))
        {
            assert!(matches!(msg, SmrMsg::Request(ref r) if r.payload.len() == 2048));
            seen += 1;
        }
    }
    assert_eq!(seen, ROUNDS, "peer must receive every broadcast intact");
    let snap = stats.snapshot();
    assert_eq!(snap.broadcast_msgs, ROUNDS);
    assert_eq!(
        snap.broadcast_payload_encodes, ROUNDS,
        "one serialization per broadcast, not per peer"
    );
    assert!((snap.encodes_per_broadcast() - 1.0).abs() < f64::EPSILON);
}

/// The admission cap closes inbound connections beyond
/// `max_clients` + reserved peer slots, and counts the rejections;
/// admitted clients keep working.
#[test]
fn admission_cap_rejects_excess_clients() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let mut config = TcpConfig::new(0, vec![addr.clone()], SECRET);
    config.max_clients = 1;
    let mut transport = TcpTransport::from_listener(config, listener).expect("transport");
    let stats = transport.stats_handle();

    let mut admitted = TcpStream::connect(&addr).expect("first client");
    write_client_hello(&mut admitted, 1).expect("hello");
    let request = SmrMsg::Request(Request {
        client: 1,
        seq: 1,
        payload: vec![3],
        signature: None,
    });
    write_frame(
        &mut admitted,
        &FrameKey::client(),
        &smartchain_codec::to_bytes(&request),
    )
    .expect("request frame");
    assert!(
        drive_until(&mut transport, Duration::from_secs(5), |e| matches!(
            e,
            NetEvent::Client(r) if r.client == 1
        )),
        "the admitted client must be served"
    );

    // One client slot, one client connected: the next connection is closed
    // at accept.
    let mut rejected = TcpStream::connect(&addr).expect("second connect");
    let end = Instant::now() + Duration::from_secs(5);
    rejected
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut got_eof = false;
    while Instant::now() < end && !got_eof {
        let _ = transport.recv_timeout(Duration::from_millis(20));
        match rejected.read(&mut [0u8; 16]) {
            Ok(0) => got_eof = true,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => got_eof = true,
        }
    }
    assert!(got_eof, "the over-cap connection must be closed");
    let snap = stats.snapshot();
    assert!(snap.accept_rejections >= 1, "rejection must be counted");
    assert_eq!(snap.clients_connected, 1, "the admitted client stays");
}

/// A retransmission of an already-delivered request — the client lost
/// every copy of its reply — is answered from the replica's durable reply
/// record instead of dying silently at the dedup frontier. Without this,
/// reply loss (torn connection, throttled slow client) wedges the client
/// forever; with it, client retransmission repairs any dropped frame.
#[test]
fn retransmitted_delivered_request_is_answered_from_cache() {
    let dir = TempDir::new("smartchain-reactor-test-recache");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        progress_timeout: Duration::from_millis(200),
        ..RuntimeConfig::default()
    };
    let cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let addrs = cluster.cluster_config().replicas.clone();
    let client_id = 0xCAC4Eu64;
    // First pass: submit to every replica, read one real reply, then drop
    // all connections — every other reply copy dies with them.
    let first = execute_raw(&addrs, client_id).expect("first execution must reply");
    // Second pass: fresh connections, same (client, seq). The request is
    // inside every replica's dedup frontier now — only the reply record
    // can answer it.
    let mut retry = send_first_request(&addrs[0], client_id);
    let second = read_reply(&mut retry, client_id, Duration::from_secs(10))
        .expect("retransmission must be answered from the reply record");
    assert_eq!(first, second, "the recorded reply must match the original");
    cluster.shutdown();
}

/// A replica that caught up by state transfer answers a retransmission of
/// a request it never executed itself: the reply record arrives with the
/// transferred state. Replica 3 is down long enough that every peer's
/// outbox to it overflows, so only state transfer can catch it up.
#[test]
fn retransmission_is_answered_by_a_replica_that_caught_up_by_state_transfer() {
    let dir = TempDir::new("smartchain-reactor-test-transferred-reply");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        progress_timeout: Duration::from_millis(200),
        checkpoint_period: 16,
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let addrs = cluster.cluster_config().replicas.clone();
    let op = |c: &mut TcpCluster<CounterApp>| c.execute(vec![1], Duration::from_secs(10));
    cluster.kill_replica(3);
    (0..500).for_each(|_| drop(op(&mut cluster).expect("op")));
    let client_id = 0x7EA5u64;
    let first = execute_raw(&addrs[..3], client_id).expect("first execution must reply");
    (0..4).for_each(|_| drop(op(&mut cluster).expect("op")));
    cluster.restart_replica(3).expect("restart replica 3");
    let deadline = Instant::now() + Duration::from_secs(20);
    let answer = loop {
        assert!(
            Instant::now() < deadline,
            "replica 3 never answered the retransmission"
        );
        // Keep traffic flowing so replica 3 notices it is behind.
        op(&mut cluster).expect("op");
        let mut retry = send_first_request(&addrs[3], client_id);
        if let Some(result) = read_reply(&mut retry, client_id, Duration::from_millis(200)) {
            break result;
        }
    };
    assert_eq!(
        answer, first,
        "the transferred reply must match the original"
    );
    cluster.shutdown();
}

/// A client that connects and then stalls (never reads, never writes)
/// costs the cluster nothing: ordering proceeds and other clients commit.
/// The same run sanity-checks the transport counters end to end.
#[test]
fn stalled_client_is_isolated_and_stats_count_traffic() {
    let dir = TempDir::new("smartchain-reactor-test-stall");
    let config = RuntimeConfig {
        storage_dir: Some(dir.to_path_buf()),
        progress_timeout: Duration::from_millis(200),
        ..RuntimeConfig::default()
    };
    let mut cluster =
        TcpCluster::start(config, Backend::Sim, CounterApp::new).expect("boot tcp cluster");
    let addr = cluster.cluster_config().replicas[0].clone();

    // Register a client on replica 0, then go silent without ever reading.
    let mut stalled = TcpStream::connect(&addr).expect("stalled client");
    write_client_hello(&mut stalled, 0xDEAD).expect("hello");

    let mut sum = 0u64;
    for op in 1..=3u64 {
        let r = cluster
            .execute(vec![op as u8], Duration::from_secs(15))
            .expect("cluster must commit around the stalled client");
        sum += op;
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), sum);
    }

    let stats = cluster.transport_stats(0).expect("replica 0 stats");
    assert!(stats.frames_in > 0, "inbound frames counted: {stats:?}");
    assert!(stats.frames_out > 0, "outbound frames counted: {stats:?}");
    assert!(stats.bytes_in > stats.frames_in, "header bytes counted");
    assert!(stats.bytes_out > stats.frames_out, "header bytes counted");
    assert!(stats.writev_calls > 0, "writes are vectored: {stats:?}");
    assert!(stats.avg_coalesce() >= 1.0);
    assert_eq!(stats.queue_full_drops, 0, "no backpressure at this load");
    drop(stalled);
    cluster.shutdown();
}

/// Four loopback "replicas" of which only the first answers: it accepts one
/// client connection and answers each request twice, once as replica 0 and
/// once as replica 1. The other three accept nothing; their backlogs still
/// complete the client's dials. Returns the addresses, the listeners to
/// keep open, and the answering thread, which ends when the client hangs up.
fn forged_quorum_cluster() -> (Vec<String>, Vec<TcpListener>, JoinHandle<()>) {
    let listeners: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let forger = listeners[0].try_clone().expect("clone listener");
    let answering = std::thread::spawn(move || {
        let key = FrameKey::client();
        let (mut stream, _) = forger.accept().expect("accept client");
        read_frame(&mut stream, &key).expect("client hello");
        while let Ok(payload) = read_frame(&mut stream, &key) {
            let Ok(SmrMsg::Request(request)) = smartchain_codec::from_bytes::<SmrMsg>(&payload)
            else {
                continue;
            };
            for replica in 0..2 {
                let reply = SmrMsg::Reply(Reply {
                    client: request.client,
                    seq: request.seq,
                    result: b"forged".to_vec(),
                    replica,
                });
                if write_frame(&mut stream, &key, &smartchain_codec::to_bytes(&reply)).is_err() {
                    return;
                }
            }
        }
    });
    (addrs, listeners, answering)
}

/// Two replies on one connection are one vote, whatever `replica` they
/// claim: a single replier cannot assemble `TcpClient`'s quorum of two. The
/// same replier's one vote does meet a quorum of one.
#[test]
fn client_counts_one_vote_per_connection() {
    let (addrs, listeners, answering) = forged_quorum_cluster();
    let mut client = TcpClient::new(9, addrs);
    let request = |seq| Request {
        client: 9,
        seq,
        payload: vec![1],
        signature: None,
    };
    let err = client
        .execute_request(request(1), 2, Duration::from_secs(2))
        .expect_err("one replier must not make a quorum of two");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    let result = client
        .execute_request(request(2), 1, Duration::from_secs(2))
        .expect("the replier's one vote meets a quorum of one");
    assert_eq!(result, b"forged");
    client.shutdown();
    answering.join().unwrap();
    drop(listeners);
}

/// The pool counts votes the same way: at quorum 2 the forged replies
/// complete nothing, and at quorum 1 the same request completes.
#[test]
fn client_pool_counts_one_vote_per_connection() {
    let (addrs, listeners, answering) = forged_quorum_cluster();
    let mut pool = TcpClientPool::connect(addrs, 9, 1);
    assert_eq!(pool.connections(), 4);
    assert_eq!(
        pool.run_closed_loop(1, 2, &[1], Duration::from_secs(2)),
        0,
        "one replier must not make a quorum of two"
    );
    assert_eq!(pool.run_closed_loop(1, 1, &[1], Duration::from_secs(2)), 1);
    drop(pool);
    answering.join().unwrap();
    drop(listeners);
}
