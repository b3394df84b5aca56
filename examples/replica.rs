//! One replica of a real multi-process SmartChain deployment.
//!
//! Generate a deployment descriptor once, then launch one process per
//! replica (and drive them with the `client` example):
//!
//! ```text
//! cargo run --release --example replica -- --init 4 --base-port 7100 > cluster.toml
//! cargo run --release --example replica -- --id 0 --config cluster.toml &
//! cargo run --release --example replica -- --id 1 --config cluster.toml &
//! cargo run --release --example replica -- --id 2 --config cluster.toml &
//! cargo run --release --example replica -- --id 3 --config cluster.toml &
//! cargo run --release --example client  -- --config cluster.toml --ops 100
//! ```
//!
//! Each process binds its own TCP listener (length-framed, HMAC-
//! authenticated links), recovers its durable state from `--storage`, and
//! pumps the same `ReplicaHost` the in-process clusters use. Kill one with
//! SIGKILL and restart it: it replays its disk, state-transfers the missed
//! suffix from a peer, and rejoins.

use smartchain::crypto::keys::Backend;
use smartchain::crypto::sha256;
use smartchain::smr::app::CounterApp;
use smartchain::smr::runtime::serve_replica;
use smartchain::smr::transport::ClusterConfig;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  replica --init N --base-port P        # print a cluster.toml for N replicas\n  replica --id N --config cluster.toml [--storage DIR]"
    );
    exit(2);
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn read_urandom() -> Option<Vec<u8>> {
    use std::io::Read;
    let mut f = std::fs::File::open("/dev/urandom").ok()?;
    let mut buf = [0u8; 32];
    f.read_exact(&mut buf).ok()?;
    Some(buf.to_vec())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(n) = arg_value(&args, "--init") {
        let n: usize = n.parse().unwrap_or_else(|_| usage());
        let base: u16 = arg_value(&args, "--base-port")
            .and_then(|p| p.parse().ok())
            .unwrap_or(7100);
        // A demo secret: hashed urandom when available, time+pid otherwise.
        // Production deployments should provision the secret out of band.
        let entropy = read_urandom().unwrap_or_else(|| {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            format!("{now}-{}", std::process::id()).into_bytes()
        });
        let secret = sha256::digest(&entropy);
        let addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", base + i as u16))
            .collect();
        print!("{}", ClusterConfig::new(addrs, secret).to_toml());
        return;
    }
    let Some(id) = arg_value(&args, "--id").and_then(|v| v.parse::<usize>().ok()) else {
        usage();
    };
    let Some(config_path) = arg_value(&args, "--config") else {
        usage();
    };
    let text = std::fs::read_to_string(&config_path).unwrap_or_else(|e| {
        eprintln!("read {config_path}: {e}");
        exit(1);
    });
    let cluster = ClusterConfig::parse(&text).unwrap_or_else(|e| {
        eprintln!("parse {config_path}: {e}");
        exit(1);
    });
    if id >= cluster.n() {
        eprintln!(
            "--id {id} out of range (cluster has {} replicas)",
            cluster.n()
        );
        exit(1);
    }
    let storage = arg_value(&args, "--storage")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("smartchain-data/replica-{id}")));
    eprintln!(
        "replica {id}: listening on {}, storage {}, {} members",
        cluster.replicas[id],
        storage.display(),
        cluster.n()
    );
    // Ed25519 throughout: the Sim backend's verification registry is
    // process-local and cannot authenticate across processes.
    if let Err(e) = serve_replica(&cluster, id, Backend::Ed25519, storage, CounterApp::new()) {
        eprintln!("replica {id}: {e}");
        exit(1);
    }
}
