//! Regenerates **Figure 6**: SMARTCHAIN throughput for consortium sizes
//! n ∈ {4, 7, 10} under all persistence configurations — Si+Sy (signatures +
//! synchronous writes), Si (signatures only), Sy (sync writes only), N
//! (neither) — for the strong and weak variants, plus the Durable-SMaRt
//! baseline (no blockchain layer).
//!
//! ```text
//! cargo run --release -p smartchain-bench --bin fig6
//! ```

use smartchain_bench::{run_smartchain, run_smr_coin, RunResult, Scale};
use smartchain_core::node::Variant;
use smartchain_smr::actor::{AppLedger, DurabilityMode, SigMode};
use smartchain_storage::SyncPolicy;

fn cell(r: &RunResult) -> String {
    format!("{:>6.1}k", r.throughput / 1000.0)
}

fn main() {
    // Half the Table I workload per cell: the sweep spans 36 cluster runs.
    let scale = Scale {
        requests_per_client: 30,
        ..Scale::default()
    };
    println!(
        "Figure 6 — SMARTCHAIN throughput (ktxs/sec), {} clients",
        scale.clients()
    );
    println!("paper reference n=4: strong Si+Sy ~12k, weak Si+Sy ~14k, strong Sy ~18k, weak Sy ~26k, Durable-SMaRt N ~33k");
    println!();
    let configs = [
        ("Si+Sy", true, SyncPolicy::Sync),
        ("Si   ", true, SyncPolicy::Async),
        ("Sy   ", false, SyncPolicy::Sync),
        ("N    ", false, SyncPolicy::None),
    ];
    for n in [4usize, 7, 10] {
        println!("== n = {n} ==");
        for variant in [Variant::Strong, Variant::Weak] {
            let name = match variant {
                Variant::Strong => "strong blockchain",
                Variant::Weak => "weak blockchain  ",
            };
            let mut row = format!("{name} :");
            for (label, sigs, persistence) in configs {
                let r = run_smartchain(n, variant, persistence, sigs, scale, 2);
                row.push_str(&format!("  {label}={}", cell(&r)));
            }
            println!("{row}");
        }
        // Durable-SMaRt baseline rows (no blockchain layer).
        let mut row = String::from("Durable-SMaRt    :");
        for (label, sig_mode, ledger) in [
            ("Si+Sy", SigMode::Parallel, AppLedger::None),
            ("Si   ", SigMode::Parallel, AppLedger::None),
            ("Sy   ", SigMode::None, AppLedger::None),
            ("N    ", SigMode::None, AppLedger::None),
        ] {
            // Si+Sy / Sy use the durable layer (sync); Si / N run in memory.
            let durability = if label.trim().ends_with("Sy") || label == "Sy   " {
                DurabilityMode::DuraSmart
            } else {
                DurabilityMode::None
            };
            let r = run_smr_coin(n, sig_mode, ledger, durability, scale, 2);
            row.push_str(&format!("  {label}={}", cell(&r)));
        }
        println!("{row}");
        println!();
    }
}
