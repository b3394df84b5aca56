//! The two probes that need a live cluster of their own: a leader crash with
//! a restart, and a light-client read beside writes.

use crate::generator::{Generator, Pacing, RunSpec};
use crate::probes::Values;
use crate::requests;
use crate::stats::median;
use crate::trace::{now_ns, Trace};
use crate::workloads::Deployment;
use smartchain_crypto::keys::Backend;
use smartchain_light_client::TcpLightClient;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Fault probe schedule, seconds from the first request: the leader dies,
/// comes back, and the probe keeps watching.
const KILL_AT_S: f64 = 3.0;
const RESTART_AT_S: f64 = 8.0;
const END_AT_S: f64 = 14.0;
/// Offered load during the fault probe: an open loop, so that requests due
/// while there is no leader are counted.
const FAULT_RATE: f64 = 500.0;
const FAULT_CLIENTS: usize = 64;

fn sleep_until(at_ns: u64) {
    std::thread::sleep(Duration::from_nanos(at_ns.saturating_sub(now_ns())));
}

/// Kills replica 0 (the leader) under a 500 requests/s open loop, restarts
/// it five seconds later, and reports the longest time without a completed
/// operation and how long the restarted replica took to answer a client
/// again. Requests may fail here (5 s without a quorum); that is reported,
/// not required to be zero.
///
/// # Errors
///
/// Propagates socket and storage failures.
pub fn leader_crash(trace: &mut Trace, seed: u64, storage_root: &Path) -> io::Result<Values> {
    trace.scope("runtime.fault_probe", |trace| -> io::Result<Values> {
        let per_client = (FAULT_RATE * END_AT_S / FAULT_CLIENTS as f64).ceil() as u64;
        let plans = requests::build_plans(seed, Backend::Sim, FAULT_CLIENTS, per_client);
        let minters = requests::client_public_keys(seed, Backend::Sim, FAULT_CLIENTS);
        let mut deployment =
            Deployment::boot(storage_root.join("fault"), Backend::Sim, minters, 0)?;
        let mut generator = Generator::connect(&deployment.addrs, plans, deployment.quorum)?;
        let start_ns = now_ns();
        // The cluster handle goes to a thread of its own for the duration:
        // killing joins a thread and restarting may wait for the port, and
        // neither may hold up the generator's schedule.
        let faults = std::thread::Builder::new()
            .name("bench-faults".into())
            .spawn(move || {
                sleep_until(start_ns + (KILL_AT_S * 1e9) as u64);
                deployment.cluster.kill_replica(0);
                let killed_ns = now_ns();
                sleep_until(start_ns + (RESTART_AT_S * 1e9) as u64);
                let restarted = deployment.cluster.restart_replica(0);
                (deployment, killed_ns, now_ns(), restarted)
            })?;
        let outcome = generator.run(
            &RunSpec {
                pacing: Pacing::Open { rate: FAULT_RATE },
                warmup_per_client: 0,
                measured_per_client: per_client,
                trace: true,
                redial: true,
                watch_replica: Some(0),
                stop_at_failure: false,
            },
            &mut |_, _| {},
        );
        let (deployment, killed_ns, restarted_ns, restarted) =
            faults.join().expect("fault thread panicked");
        drop(generator);
        deployment.shutdown();
        let outcome = outcome?;
        restarted?;
        trace.add_requests(&outcome.spans);

        let end_ns = outcome.measured_end_ns;
        let mut quorums: Vec<u64> = outcome.spans.iter().map(|s| s.quorum_ns).collect();
        quorums.push(killed_ns);
        quorums.push(end_ns);
        quorums.sort_unstable();
        let outage_ns = quorums
            .windows(2)
            .filter(|w| w[1] > killed_ns)
            .map(|w| w[1] - w[0].max(killed_ns))
            .max()
            .unwrap_or(0);
        // Censored at the end of the observation window: a value equal to
        // the window means replica 0 never answered a client again.
        let rejoin_ns = outcome
            .watched_replies_ns
            .iter()
            .find(|&&at| at > restarted_ns)
            .map_or(end_ns.saturating_sub(restarted_ns), |&at| at - restarted_ns);
        println!(
            "fault probe: {} of {} operations failed (no quorum within 5 s of being due)",
            outcome.failed, outcome.attempted
        );
        Ok(vec![
            ("runtime.leader_crash_outage_s", outage_ns as f64 / 1e9),
            ("runtime.rejoin_s", rejoin_ns as f64 / 1e9),
        ])
    })
}

/// Coins of the light-client probe's cluster: the `bigstate_ckpt` state.
const LIGHT_COINS: u64 = 200_000;
/// Few clients make small batches, so the first checkpoint (128 batches)
/// comes after about a thousand operations.
const LIGHT_CLIENTS: usize = 8;
const LIGHT_OPS_PER_CLIENT: u64 = 192;
const LIGHT_READS: usize = 7;

/// Boots the `bigstate_ckpt` cluster, writes until its first checkpoint is
/// certified, and times `TcpLightClient::read_chunk` — fetch from one
/// replica, then certificate and Merkle-path verification.
///
/// # Errors
///
/// Propagates socket and storage failures, and fails when no replica serves
/// a verifiable read within the deadline.
pub fn light_client_read(trace: &mut Trace, seed: u64, storage_root: &Path) -> io::Result<Values> {
    trace.scope("light_client.probe", |trace| -> io::Result<Values> {
        let plans = requests::build_plans(seed, Backend::Sim, LIGHT_CLIENTS, LIGHT_OPS_PER_CLIENT);
        let minters = requests::client_public_keys(seed, Backend::Sim, LIGHT_CLIENTS);
        let deployment = Deployment::boot(
            storage_root.join("light"),
            Backend::Sim,
            minters,
            LIGHT_COINS,
        )?;
        let mut generator = Generator::connect(&deployment.addrs, plans, deployment.quorum)?;
        let outcome = generator.run(
            &RunSpec {
                pacing: Pacing::Closed,
                warmup_per_client: 0,
                measured_per_client: LIGHT_OPS_PER_CLIENT,
                trace: false,
                redial: false,
                watch_replica: None,
                stop_at_failure: true,
            },
            &mut |_, _| {},
        );
        let view = deployment.cluster.cluster_config().view(Backend::Sim);
        let mut reader = TcpLightClient::connect(0x11_6874, deployment.addrs.clone(), view);
        let mut samples = Vec::with_capacity(LIGHT_READS);
        let mut failure = None;
        for chunk in 0..LIGHT_READS as u64 {
            let (read, seconds) = trace.timed_once("light_client.read_verify", || {
                reader.read_chunk(chunk * 1000, Duration::from_secs(5))
            });
            match read {
                Ok(_) => samples.push(seconds),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        reader.shutdown();
        drop(generator);
        deployment.shutdown();
        let outcome = outcome?;
        if outcome.failed > 0 {
            return Err(io::Error::other("light-client probe: a write failed"));
        }
        if let Some(e) = failure {
            return Err(io::Error::other(format!("light-client read failed: {e}")));
        }
        Ok(vec![(
            "light_client.read_verify_us",
            median(&samples) * 1e6,
        )])
    })
}
