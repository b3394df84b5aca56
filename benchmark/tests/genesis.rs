//! `GenesisCoinApp` exists because `DurableApp::open` resets the
//! application: these tests pin both halves of that.

use smartchain_benchmark::genesis::GenesisCoinApp;
use smartchain_benchmark::requests::{client_key, make_request};
use smartchain_coin::SmartCoinApp;
use smartchain_crypto::keys::Backend;
use smartchain_smr::app::Application;
use smartchain_smr::durability::DurableApp;
use smartchain_storage::snapshot::SnapshotStore;
use std::path::PathBuf;

const GENESIS_COINS: u64 = 1_000;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sc-benchmark-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn coins_in(snapshot_state: &[u8]) -> usize {
    let mut app = SmartCoinApp::new(Vec::new());
    app.install_snapshot(snapshot_state);
    app.utxo_count()
}

#[test]
fn first_checkpoint_holds_the_genesis_coins() {
    let dir = fresh_dir("genesis");
    let key = client_key(1, Backend::Sim, 0);
    let app = GenesisCoinApp::new(vec![key.public_key()], key.public_key(), GENESIS_COINS);
    assert_eq!(
        app.coin().utxo_count(),
        0,
        "`new` leaves populating to reset()"
    );
    // Checkpoint every 2 batches: the MINT, then the SPEND of its coin.
    let mut durable = DurableApp::open(app, &dir, 2).unwrap();
    assert_eq!(durable.app().coin().utxo_count(), GENESIS_COINS as usize);
    for seq in 1..=2 {
        durable
            .apply_requests(&[make_request(1, &key, 0, seq)])
            .unwrap();
    }
    let snapshot = SnapshotStore::open(dir.join("snapshots"))
        .unwrap()
        .load()
        .unwrap()
        .expect("the second batch cut the first checkpoint");
    assert_eq!(snapshot.covered_block, 2);
    // The genesis coins plus the one coin the client circulates.
    assert_eq!(coins_in(&snapshot.state), GENESIS_COINS as usize + 1);
    drop(durable);

    // Recovery resets first, then installs the snapshot: no double genesis.
    let app = GenesisCoinApp::new(vec![key.public_key()], key.public_key(), GENESIS_COINS);
    let recovered = DurableApp::open(app, &dir, 2).unwrap();
    assert_eq!(
        recovered.app().coin().utxo_count(),
        GENESIS_COINS as usize + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plain_coin_app_loses_coins_populated_before_open() {
    let dir = fresh_dir("plain");
    let key = client_key(1, Backend::Sim, 0);
    let mut app = SmartCoinApp::new(vec![key.public_key()]);
    app.populate_synthetic(key.public_key(), GENESIS_COINS);
    let durable = DurableApp::open(app, &dir, 2).unwrap();
    assert_eq!(
        durable.app().utxo_count(),
        0,
        "if this fails DurableApp::open stopped resetting and GenesisCoinApp can go"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
