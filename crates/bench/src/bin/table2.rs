//! Regenerates **Table II**: throughput and latency of SMARTCHAIN
//! (strong/weak, signatures + synchronous writes) versus the Tendermint and
//! Hyperledger-Fabric models, all at maximum durability with n = 4.
//!
//! ```text
//! cargo run --release -p smartchain-bench --bin table2
//! ```

use smartchain_bench::{fmt_latency, fmt_tput, run_fabric, run_smartchain, run_tendermint, Scale};
use smartchain_core::node::Variant;
use smartchain_storage::SyncPolicy;

fn main() {
    let scale = Scale::default();
    println!(
        "Table II — throughput (txs/sec) and latency (sec), n=4, {} clients",
        scale.clients()
    );
    println!("paper reference: SC-strong 12560/0.210, SC-weak 14547/0.200, Tendermint 1602/1.378, Fabric 381/1.602");
    println!();
    let strong = run_smartchain(4, Variant::Strong, SyncPolicy::Sync, true, scale, 3);
    println!(
        "SMARTCHAIN Strong  : {}   latency {}",
        fmt_tput(&strong),
        fmt_latency(&strong)
    );
    let weak = run_smartchain(4, Variant::Weak, SyncPolicy::Sync, true, scale, 3);
    println!(
        "SMARTCHAIN Weak    : {}   latency {}",
        fmt_tput(&weak),
        fmt_latency(&weak)
    );
    let tm = run_tendermint(4, scale, 3);
    println!(
        "Tendermint (model) : {}   latency {}",
        fmt_tput(&tm),
        fmt_latency(&tm)
    );
    let fab = run_fabric(4, scale, 3);
    println!(
        "Fabric (model)     : {}   latency {}",
        fmt_tput(&fab),
        fmt_latency(&fab)
    );
    println!();
    println!(
        "shape check: SC-strong/Tendermint = {:.1}x (paper ~7.8x), SC-strong/Fabric = {:.1}x (paper ~33x)",
        strong.throughput / tm.throughput,
        strong.throughput / fab.throughput
    );
}
