//! Durable, self-verifiable ledgers on real disk: run a cluster, persist the
//! chain with a real segmented-log ledger (CRC-framed records, torn-write
//! recovery), reopen it as an independent auditor process would, and verify
//! it from nothing but the genesis configuration.
//!
//! ```text
//! cargo run --example audit_chain
//! ```

use smartchain::core::audit::verify_chain;
use smartchain::core::harness::ChainClusterBuilder;
use smartchain::core::ledger::Ledger;
use smartchain::sim::SECOND;
use smartchain::smr::app::CounterApp;
use smartchain::storage::{RecordLog, SegmentConfig, SegmentedLog};

fn main() -> std::io::Result<()> {
    println!("== Durable ledger + third-party audit ==\n");
    // 1. Produce a chain in simulation.
    let mut cluster = ChainClusterBuilder::new(4, |_| CounterApp::new())
        .clients(1, 4, Some(100))
        .build();
    cluster.run_until(60 * SECOND);
    let node = cluster.node::<CounterApp>(0);
    let chain = node.chain();
    let genesis = node.genesis().clone();
    println!("produced {} blocks in simulation", chain.len());

    // 2. Persist it to a real on-disk ledger and sync it.
    let dir = std::env::temp_dir().join(format!("smartchain-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || SegmentedLog::open(&dir, SegmentConfig::default());
    {
        let mut ledger = Ledger::open(open()?, genesis.clone())?;
        for block in &chain {
            ledger.append(block)?;
        }
        ledger.sync()?;
        println!("persisted to {}", dir.display());
    }
    // A chain this short fits in the first segment, which stays active.
    let active = dir.join("seg-00000000000000000000.seg");
    let bytes = std::fs::metadata(&active)?.len();
    println!("active segment size: {bytes} bytes");

    // 3. Reopen as an auditor: recover the chain from disk and verify it.
    let log = open()?;
    println!("recovered {} records from disk", log.len());
    let ledger = Ledger::open(log, genesis.clone())?;
    let recovered = ledger.blocks_from(1)?;
    assert_eq!(recovered.len(), chain.len(), "every block recovered");
    match verify_chain(&genesis, &recovered) {
        Ok(report) => println!(
            "audit from disk: OK — {} blocks, tip {}…",
            report.blocks,
            &smartchain::crypto::hex(&report.tip)[..16]
        ),
        Err(e) => println!("audit from disk: FAILED — {e}"),
    }

    // 4. Tamper with one byte mid-segment and show the ledger detects it.
    let mut raw = std::fs::read(&active)?;
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    std::fs::write(&active, raw)?;
    let tampered = open()?;
    println!(
        "after 1-bit tamper: {} of {} records survive CRC recovery (prefix property)",
        tampered.len(),
        chain.len() + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
