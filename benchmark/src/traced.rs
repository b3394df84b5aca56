//! The traced pass of one workload: one repetition with request spans and
//! per-second counter samples kept in memory, then the layer probes on the
//! workload generator's own inputs; every per-layer metric of the manifest
//! comes out of it, and the spans go to `<out-dir>/trace-<workload>.json`.
//!
//! End-to-end metrics never come from here. An untraced repetition runs
//! first, in a process of its own like every end-to-end repetition, and
//! `client.trace_overhead_pct` is the throughput the traced one lost
//! against it.

use crate::cli::{self, Metric, Options, RunResult, StorageRoot};
use crate::manifest::PER_LAYER;
use crate::probes::Values;
use crate::stats::{max, median, quantile};
use crate::trace::Trace;
use crate::workloads::{self, cpu_breakdown, Repetition, Workload};
use crate::{cluster_probes, probes};
use std::io;

/// The per-layer metrics one traced repetition yields by itself.
fn repetition_metrics(rep: &Repetition) -> io::Result<Values> {
    let (start, end) = rep
        .window
        .as_ref()
        .ok_or_else(|| io::Error::other("the traced repetition has no measured window"))?;
    let ops = rep.outcome.measured_completed.max(1) as f64;
    let seconds = rep.outcome.measured_seconds();
    let cpu = cpu_breakdown(start, end);
    let sent = |f: fn(&smartchain_smr::transport::TransportStats) -> u64| {
        (f(&end.transport) - f(&start.transport)) as f64
    };
    let writev_calls = sent(|t| t.writev_calls);
    let latency: Vec<f64> = rep
        .outcome
        .latency_ns
        .iter()
        .map(|&v| v as f64 / 1e6)
        .collect();
    let first_reply: Vec<f64> = rep
        .outcome
        .spans
        .iter()
        .map(|s| s.first_reply_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .collect();
    Ok(vec![
        ("transport.frames_per_op", sent(|t| t.frames_out) / ops),
        ("transport.bytes_per_op", sent(|t| t.bytes_out) / ops),
        ("transport.writev_per_op", writev_calls / ops),
        (
            "transport.coalesce_ratio",
            sent(|t| t.writev_frames) / writev_calls.max(1.0),
        ),
        ("transport.queue_full_drops", sent(|t| t.queue_full_drops)),
        (
            "runtime.leader_thread_cpu_ms_per_op",
            cpu.leader_loop_s * 1e3 / ops,
        ),
        (
            "runtime.replica_threads_cpu_share",
            cpu.replica_loops_s / cpu.process_s * 100.0,
        ),
        (
            "runtime.pool_threads_cpu_share",
            cpu.pools_s / cpu.process_s * 100.0,
        ),
        ("proc.cpu_ms_per_op", cpu.process_s * 1e3 / ops),
        ("proc.cores_busy", cpu.process_s / seconds),
        (
            "proc.rss_growth_kb_per_kop",
            (end.rss_kb - start.rss_kb) / (ops / 1e3),
        ),
        ("proc.threads", end.threads.len() as f64),
        ("client.latency_p50_ms", rep.latency_p50_ms),
        ("client.latency_p95_ms", quantile(&latency, 0.95)),
        ("client.latency_p99_ms", quantile(&latency, 0.99)),
        ("client.latency_max_ms", max(&latency)),
        (
            "client.stalls_over_100ms",
            latency.iter().filter(|&&l| l > 100.0).count() as f64,
        ),
        ("client.first_reply_p50_ms", median(&first_reply)),
        ("client.gen_lateness_p99_ms", rep.gen_lateness_p99_ms),
        ("client.gen_cpu_share", rep.gen_cpu_share * 100.0),
    ])
}

/// Runs the traced pass of `workload`.
///
/// # Errors
///
/// Propagates socket and storage failures, and fails when a probe's layer
/// misbehaves or a declared metric was not produced.
pub fn run(workload: &Workload, opts: &Options, storage: &StorageRoot) -> io::Result<RunResult> {
    let mut trace = Trace::new();

    let reference = cli::spawn_repetition(workload, opts, storage, 0)?;
    cli::print_repetition("untraced reference", &reference);
    let rep = trace.scope(&format!("workload.{}", workload.name), |trace| {
        workloads::run_repetition(
            workload,
            opts.seed,
            cli::scale(opts),
            &storage.path,
            "traced",
            Some(trace),
        )
    });
    let rep = rep?;
    let traced = rep.summary();
    cli::print_repetition("traced", &traced);

    let mut values = repetition_metrics(&rep)?;
    values.push((
        "client.trace_overhead_pct",
        (reference.throughput_ops_s - rep.throughput_ops_s) / reference.throughput_ops_s * 100.0,
    ));
    drop(rep);
    let disk = opts.out_dir.join(format!("disk-{}", std::process::id()));
    std::fs::create_dir_all(&disk)?;
    let probed = probes::run_all(&mut trace, opts.seed, &storage.path, &disk);
    let _ = std::fs::remove_dir_all(&disk);
    values.extend(probed?);
    values.extend(cluster_probes::leader_crash(
        &mut trace,
        opts.seed,
        &storage.path,
    )?);
    values.extend(cluster_probes::light_client_read(
        &mut trace,
        opts.seed,
        &storage.path,
    )?);

    let trace_file = opts.out_dir.join(format!("trace-{}.json", workload.name));
    std::fs::write(&trace_file, trace.to_json(workload.name, opts.seed))?;
    println!("trace written to {}", trace_file.display());

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|decl| {
            values
                .iter()
                .find(|(name, _)| *name == decl.name)
                .map(|&(_, value)| Metric {
                    name: decl.name.to_string(),
                    value,
                    unit: decl.unit,
                })
                .ok_or_else(|| io::Error::other(format!("no probe produced {}", decl.name)))
        })
        .collect::<io::Result<_>>()?;
    println!("per-layer (traced repetition + probes):");
    cli::print_metrics(&metrics);
    let failed = reference.failed + traced.failed;
    Ok(RunResult {
        correct: reference.wrong + traced.wrong == 0.0 && (!opts.strict || failed == 0.0),
        attempted: (reference.attempted + traced.attempted) as u64,
        failed: failed as u64,
        metrics,
    })
}
