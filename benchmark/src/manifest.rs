//! The benchmark's contract — workloads, metric names, units, directions and
//! bounds — in one place. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`]'s output, and a test keeps the two equal.

use crate::json::{array, num, object, string};
use crate::workloads::{RUN_SECONDS, WORKLOADS};

/// A metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics, the same three on every workload. The README's
/// "How steady it is" has the spreads the bounds rest on (`bigstate_ckpt`
/// sets the one on `peak_rss_mb`), and says why median latency is a
/// per-layer metric and not one of these.
pub const END_TO_END: [MetricDecl; 3] = [
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics of the traced pass: `<layer>.<name>`, layers being
/// this repository's modules on the deployed path.
pub const PER_LAYER: [MetricDecl; 56] = [
    // codec
    layer("codec.request_encode_ns", "ns", "lower"),
    layer("codec.request_decode_ns", "ns", "lower"),
    layer("codec.batch_decode_us", "us", "lower"),
    // crypto
    layer("crypto.batch_digest_us", "us", "lower"),
    layer("crypto.hmac_frame_ns", "ns", "lower"),
    layer("crypto.sim_verify_ns", "ns", "lower"),
    layer("crypto.ed25519_sign_us", "us", "lower"),
    layer("crypto.ed25519_verify_us", "us", "lower"),
    layer("crypto.verify_pool_batch64_ms", "ms", "lower"),
    // consensus + smr.ordering
    layer("ordering.decide_us", "us", "lower"),
    layer("ordering.decide_ed25519_ms", "ms", "lower"),
    layer("ordering.msgs_per_decision", "count", "lower"),
    layer("ordering.bytes_per_decision", "B", "lower"),
    // smr.durability
    layer("durability.apply_batch_us", "us", "lower"),
    layer("durability.apply_batch_none_us", "us", "lower"),
    layer("durability.apply_batch_us_disk", "us", "lower"),
    layer("durability.checkpoint_ms", "ms", "lower"),
    layer("durability.state_reply_ms", "ms", "lower"),
    layer("durability.install_remote_ms", "ms", "lower"),
    layer("durability.recover_open_ms", "ms", "lower"),
    // storage
    layer("storage.append_flush_us", "us", "lower"),
    layer("storage.append_flush_us_disk", "us", "lower"),
    layer("storage.fsyncs_per_batch", "count", "lower"),
    layer("storage.snapshot_install_ms", "ms", "lower"),
    layer("storage.truncate_prefix_us", "us", "lower"),
    // merkle
    layer("merkle.chunked_root_ms", "ms", "lower"),
    layer("merkle.proof_verify_ns", "ns", "lower"),
    // coin + smr.exec
    layer("coin.execute_spend_ns", "ns", "lower"),
    layer("coin.take_snapshot_ms", "ms", "lower"),
    layer("exec.run_plan_batch64_us_l1", "us", "lower"),
    layer("exec.run_plan_batch64_us_l4", "us", "lower"),
    // smr.transport
    layer("transport.frames_per_op", "count", "lower"),
    layer("transport.bytes_per_op", "B", "lower"),
    layer("transport.writev_per_op", "count", "lower"),
    layer("transport.coalesce_ratio", "count", "higher"),
    layer("transport.queue_full_drops", "count", "lower"),
    layer("transport.loopback_frames_s", "1/s", "higher"),
    // smr.runtime / the process
    layer("runtime.leader_thread_cpu_ms_per_op", "ms", "lower"),
    layer("runtime.replica_threads_cpu_share", "%", "lower"),
    layer("runtime.pool_threads_cpu_share", "%", "lower"),
    layer("runtime.leader_crash_outage_s", "s", "lower"),
    layer("runtime.rejoin_s", "s", "lower"),
    layer("proc.cpu_ms_per_op", "ms", "lower"),
    layer("proc.cores_busy", "count", "lower"),
    layer("proc.rss_growth_kb_per_kop", "kB", "lower"),
    layer("proc.threads", "count", "lower"),
    // the generator's view of each request
    layer("client.latency_p50_ms", "ms", "lower"),
    layer("client.latency_p95_ms", "ms", "lower"),
    layer("client.latency_p99_ms", "ms", "lower"),
    layer("client.latency_max_ms", "ms", "lower"),
    layer("client.stalls_over_100ms", "count", "lower"),
    layer("client.first_reply_p50_ms", "ms", "lower"),
    layer("client.gen_lateness_p99_ms", "ms", "lower"),
    layer("client.gen_cpu_share", "%", "lower"),
    layer("client.trace_overhead_pct", "%", "lower"),
    // light client
    layer("light_client.read_verify_us", "us", "lower"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS.iter().map(|w| {
        format!(
            "    {}",
            object([("name", string(w.name)), ("why", string(w.why))])
        )
    });
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "    {}",
            object([
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better)),
                ("bound", num(m.bound)),
            ])
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "    {}",
            object([
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better)),
            ])
        )
    });
    let block = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        array([string("bash"), string("benchmark/run.sh")]),
        array([string("benchmark")]),
        num(RUN_SECONDS),
        block(workloads.collect()),
        block(end_to_end.collect()),
        block(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
    }
}
