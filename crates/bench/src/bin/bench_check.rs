//! CI bench gate: runs the deterministic scenarios of
//! [`smartchain_bench::micro`] and requires every count pinned in
//! `BENCH_BASELINE.json` (repo root) to equal its pin.
//!
//! One kind of check: every pin is a count (or a ratio of counts) that a
//! given tree reproduces bit for bit — virtual-time blocks and completions,
//! records replayed, chunks verified, digests per decision, encodes per
//! broadcast — so any move is a behaviour change, either a regression to
//! fix or an intended change to re-pin. Beside the pins sit the properties
//! no single pin states: α = 4 strictly out-delivers α = 1, every 5%-drop
//! cell beats the deleted repair-less path, recovery scans exactly the
//! active segment, and connecting 1 000 clients adds no thread. Nothing
//! here is timed; wall-clock performance is measured on the deployed path
//! by `benchmark/`.
//!
//! Re-pin by running `cargo run --release -p smartchain-bench --bin
//! bench_check -- --print-baseline` and pasting the output.

use smartchain_bench::micro::{
    alpha_pipeline_throughput, chunked_install_scenario, hash_once_scenario, loss_grid_cell,
    segmented_recovery_scenario, tcp_client_soak, tcp_smoke, LossProfile,
};
use std::collections::BTreeMap;

/// Minimal parser for the flat `{"key": number}` baseline file — the
/// workspace carries no JSON dependency, and the gate needs nothing more.
fn parse_baseline(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for part in text.split(',') {
        let Some((key_part, value_part)) = part.split_once(':') else {
            continue;
        };
        let key: String = key_part
            .chars()
            .filter(|c| !"\"{}\n\r\t ".contains(*c))
            .collect();
        let value: String = value_part
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let (false, Ok(v)) = (key.is_empty(), value.parse::<f64>()) {
            out.insert(key, v);
        }
    }
    out
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

struct Gate {
    /// The pins; `None` under `--print-baseline`, which only records.
    baseline: Option<BTreeMap<String, f64>>,
    measured: BTreeMap<String, f64>,
    failures: Vec<String>,
}

impl Gate {
    /// Records `value` under `key` and requires it to equal the pin.
    fn pin(&mut self, key: &str, value: f64) {
        self.measured.insert(key.to_string(), value);
        let Some(baseline) = &self.baseline else {
            return;
        };
        let Some(&pin) = baseline.get(key) else {
            self.failures.push(format!("{key}: no baseline pinned"));
            return;
        };
        let ok = value == pin;
        println!(
            "{key}: {value} (pin {pin}) {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            self.failures.push(format!("{key}: {value} != pin {pin}"));
        }
    }

    /// Requires a property no pin states; `--print-baseline` skips it.
    fn require(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if self.baseline.is_some() && !ok {
            self.failures.push(failure());
        }
    }
}

/// The pinned 5%-drop grid scenario on the deleted fixed-α path that never
/// sent a repair fetch, measured on its last tree and never re-measured:
/// completed requests at α = 1 (53 of 120), and the fewer regency changes
/// of its α = 1 and α = 4 cells (1 114 and 20). The drop5 gates hold every
/// window, all of which now repair, to beating it.
const NO_REPAIR_DROP5_COMPLETED: u64 = 53;
const NO_REPAIR_DROP5_REGENCY_CHANGES: u64 = 20;

fn main() {
    let baseline = (!std::env::args().any(|a| a == "--print-baseline")).then(|| {
        let path = baseline_path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        parse_baseline(&text)
    });
    let mut gate = Gate {
        baseline,
        measured: BTreeMap::new(),
        failures: Vec::new(),
    };

    // Pipelined consensus in virtual time.
    let a1 = alpha_pipeline_throughput(1, 0.0, 10);
    let a4 = alpha_pipeline_throughput(4, 0.0, 10);
    println!(
        "alpha scenario: alpha=1 {:.1} batches/vsec, alpha=4 {:.1} batches/vsec",
        a1.batches_per_vsec, a4.batches_per_vsec
    );
    gate.require(a4.blocks > a1.blocks, || {
        format!(
            "alpha=4 must strictly out-deliver alpha=1 (got {} vs {})",
            a4.blocks, a1.blocks
        )
    });
    gate.pin("alpha1_blocks_10s", a1.blocks as f64);
    gate.pin("alpha4_blocks_10s", a4.blocks as f64);

    // The same scenario at window 8 under 1% uniform drops: at α = 8 a
    // follower one instance behind the leader must still take part in
    // in-window traffic (the catch-up window exceeds the pipeline width),
    // or reordering and loss push it into state transfer.
    let lossy = alpha_pipeline_throughput(8, 0.01, 10);
    println!(
        "alpha scenario, 1% drops: window 8 {:.1} batches/vsec",
        lossy.batches_per_vsec
    );
    gate.pin("alpha8_drop1_blocks_10s", lossy.blocks as f64);

    // Loss grid: the pinned seed-regression scenario under clean / 5%-drop
    // / bursty loss, each at the windows 1, 4 and 8; every cell repairs.
    // On the pinned 5%-drop cells every window must beat the deleted
    // repair-less path: ≥ 1.5× its completions and strictly fewer
    // regencies than its best cell — repair rounds, not view changes, do
    // the healing.
    for profile in [LossProfile::Clean, LossProfile::Drop5, LossProfile::Bursty] {
        for window in [1, 4, 8] {
            let cell = loss_grid_cell(profile, window);
            println!(
                "loss grid {:>6} x {:>8}: {} completed, {} regency changes, {} fetches sent",
                profile.key(),
                cell.window_key(),
                cell.completed,
                cell.regency_changes(),
                cell.fetches_sent(),
            );
            let key = format!("grid_{}_{}_completed", profile.key(), cell.window_key());
            gate.pin(&key, cell.completed as f64);
            if profile != LossProfile::Drop5 {
                continue;
            }
            let threshold = (3 * NO_REPAIR_DROP5_COMPLETED).div_ceil(2);
            gate.require(cell.completed >= threshold, || {
                format!(
                    "loss grid drop5: {} must complete >= 1.5x the repair-less path (got {} vs threshold {threshold})",
                    cell.window_key(),
                    cell.completed
                )
            });
            gate.require(
                cell.regency_changes() < NO_REPAIR_DROP5_REGENCY_CHANGES,
                || {
                    format!(
                        "loss grid drop5: {} must install strictly fewer regencies than the repair-less path (got {} vs {NO_REPAIR_DROP5_REGENCY_CHANGES})",
                        cell.window_key(),
                        cell.regency_changes()
                    )
                },
            );
        }
    }

    // Segmented-engine recovery replay: 50 batches at checkpoint period 20
    // and 8-record segments → checkpoints truncate the covered prefix, so
    // the reopen replays exactly 10 records and scans only the active
    // segment. Restart cost bounded by the checkpoint interval is the whole
    // point of the segmented engine — these pins gate it.
    let seg = segmented_recovery_scenario(50, 20, 8);
    println!(
        "segmented recovery: {} applied, {} replayed, {} segment(s)/{} record(s) scanned",
        seg.applied, seg.replayed, seg.segments_scanned, seg.records_scanned
    );
    gate.pin("segmented_replayed_records", seg.replayed as f64);
    gate.pin("segmented_scanned_records", seg.records_scanned as f64);
    gate.require(seg.segments_scanned == 1, || {
        format!(
            "segmented recovery must scan exactly the active segment (scanned {})",
            seg.segments_scanned
        )
    });

    // Certified chunked install: a quorum-certified snapshot of 24 counter
    // records (384 bytes, two 256-byte chunks) installed on a fresh
    // replica. The verified-chunk count is a pure function of the state
    // size: it moves only if the chunk geometry or the install path's
    // verification coverage changes.
    let install = chunked_install_scenario(24);
    println!(
        "chunked install: {} chunk(s) verified over {} state bytes",
        install.chunks_verified, install.state_bytes
    );
    gate.pin("chunked_install_chunks", install.chunks_verified as f64);

    // Zero-copy hot path: digest work per decided value on a 4-replica
    // α = 4 core pump. Decided values travel as shared, hash-memoized
    // handles, so the whole cluster computes exactly one SHA-256 per
    // decision — any second hash on the ordering path moves this row.
    let hash_once = hash_once_scenario();
    println!(
        "hash-once: {} decisions, {} digests ({:.2} hashes/decision cluster-wide)",
        hash_once.decisions,
        hash_once.digests,
        hash_once.hashes_per_decision(),
    );
    gate.pin("hashes_per_decision", hash_once.hashes_per_decision());

    // A closed loop over real loopback TCP: the transport counters must be
    // live, and the fan-out must encode each broadcast once.
    let transport = tcp_smoke(1000);
    if let Some(stats) = &transport {
        println!(
            "tcp replica-0 transport: {} frames in / {} out, {} KiB in / {} KiB out, {} writev calls ({:.2} frames/call), {} drops, {} rejects, {} broadcasts / {} payload encodes ({:.2} encodes/broadcast)",
            stats.frames_in,
            stats.frames_out,
            stats.bytes_in / 1024,
            stats.bytes_out / 1024,
            stats.writev_calls,
            stats.avg_coalesce(),
            stats.queue_full_drops,
            stats.accept_rejections,
            stats.broadcast_msgs,
            stats.broadcast_payload_encodes,
            stats.encodes_per_broadcast(),
        );
        // One payload serialization per broadcast, shared across all three
        // peer queues: a per-peer re-encode (or re-copy) moves this to ~3.
        gate.pin("broadcast_encodes_per_msg", stats.encodes_per_broadcast());
    }
    gate.require(
        transport
            .as_ref()
            .is_some_and(|s| s.frames_in > 0 && s.writev_calls > 0),
        || format!("tcp smoke transport counters missing or idle: {transport:?}"),
    );

    // 1k-client soak at fixed volume: 1000 logical clients over 4000
    // sockets run 2 ops each from one caller thread. The completion count
    // is deterministic, and connecting the whole fleet must add zero
    // threads to the process (the O(replicas) claim).
    let soak = tcp_client_soak(1000, 2);
    println!(
        "tcp client soak: {} clients / {} conns, {}/{} ops, threads {} -> {}",
        soak.clients,
        soak.connections,
        soak.completed,
        soak.target_ops,
        soak.threads_before_clients,
        soak.threads_with_clients,
    );
    gate.pin("soak_completed_ops", soak.completed as f64);
    gate.require(
        soak.threads_with_clients <= soak.threads_before_clients,
        || {
            format!(
                "client fleet must not add threads (went {} -> {})",
                soak.threads_before_clients, soak.threads_with_clients
            )
        },
    );

    let Some(baseline) = &gate.baseline else {
        let entries: Vec<String> = gate
            .measured
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        println!("{{\n{}\n}}", entries.join(",\n"));
        return;
    };
    // A pin nothing measures any more is stale: re-pin to drop it.
    for key in baseline.keys() {
        if !gate.measured.contains_key(key) {
            gate.failures
                .push(format!("{key}: pinned but not measured"));
        }
    }
    if gate.failures.is_empty() {
        println!("bench_check: all gates passed");
    } else {
        eprintln!("bench_check: {} gate(s) failed:", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
