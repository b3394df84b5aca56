//! Argument parsing and the benchmark's modes.
//!
//! * `--workload W [--seed N] [--seconds S] [--trace 0|1]` — one workload:
//!   fixed-work repetitions, one child process each, for `S` seconds; the
//!   last line of standard output is the result object the driver reads.
//! * `--pass FILE` — all four workloads, one child process each; the medians
//!   go to `FILE`.
//! * `--selfcheck` — two full passes on this binary, compared against the
//!   bounds.
//! * `--print-manifest` — the contents of `BENCHMARK.json`.

use crate::json::{num, object, string};
use crate::manifest::{self, MetricDecl, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{self, cores, Summary, Workload, RUN_SECONDS, WORKLOADS};
use crate::{procfs, traced};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A measured value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name, as declared in the manifest.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit, as declared in the manifest.
    pub unit: &'static str,
}

/// What one workload run reports to the driver.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every reply checked out and every validity guard held.
    pub correct: bool,
    /// Operations sent.
    pub attempted: u64,
    /// Operations without a correct reply quorum.
    pub failed: u64,
    /// The pass's metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.as_str(),
                object([("value", num(m.value)), ("unit", string(m.unit))]),
            )
        });
        object([
            ("correct", self.correct.to_string()),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", object(metrics)),
        ])
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--seconds` (default [`RUN_SECONDS`]): how long the end-to-end pass
    /// keeps starting repetitions. The work of one repetition is fixed.
    pub seconds: f64,
    /// `--trace 1`: the traced pass.
    pub trace: bool,
    /// `--quick`: one repetition, a tenth of the operations.
    pub quick: bool,
    /// `--strict`: a violated validity guard fails the run.
    pub strict: bool,
    /// `--storage-dir`: where the replicas keep logs and snapshots.
    pub storage_dir: Option<PathBuf>,
    /// `--out-dir`: traces and the disk probes' scratch (default
    /// `benchmark/out`, relative to the working directory).
    pub out_dir: PathBuf,
    /// `--repetition K` (internal): run repetition `K` alone in this process
    /// and print its summary; the end-to-end pass starts one such child per
    /// repetition.
    pub repetition: Option<usize>,
    /// `--pass FILE`.
    pub pass: Option<PathBuf>,
    /// `--selfcheck`.
    pub selfcheck: bool,
    /// `--print-manifest`.
    pub print_manifest: bool,
}

const USAGE: &str = "usage: run.sh --workload <spend_closed|spend_open|spend_ed25519|bigstate_ckpt>
              [--seed N] [--seconds S] [--trace 0|1] [--quick] [--strict]
              [--storage-dir DIR] [--out-dir DIR]
       run.sh --pass FILE [--trace 0|1] [--seed N] [--seconds S]
       run.sh --selfcheck [--seed N] [--seconds S]
       run.sh --print-manifest";

fn parse(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        strict: false,
        storage_dir: None,
        out_dir: PathBuf::from("benchmark/out"),
        repetition: None,
        pass: None,
        selfcheck: false,
        print_manifest: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("a name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => opts.quick = true,
            "--strict" => opts.strict = true,
            "--storage-dir" => opts.storage_dir = Some(PathBuf::from(value("a path")?)),
            "--out-dir" => opts.out_dir = PathBuf::from(value("a path")?),
            "--repetition" => {
                opts.repetition = Some(
                    value("an index")?
                        .parse()
                        .map_err(|_| "--repetition: not an index")?,
                );
            }
            "--pass" => opts.pass = Some(PathBuf::from(value("a file")?)),
            "--selfcheck" => opts.selfcheck = true,
            "--print-manifest" => opts.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// The directory the replicas store under, removed when dropped.
pub struct StorageRoot {
    /// The directory.
    pub path: PathBuf,
    /// Its filesystem type (`tmpfs`, `ext4`, …).
    pub medium: String,
}

impl StorageRoot {
    /// `--storage-dir` if given; else tmpfs (`/dev/shm`) when writable, so
    /// that the gated numbers do not depend on a shared virtual disk's fsync
    /// (see the README); else a directory under `out_dir`.
    fn create(opts: &Options) -> io::Result<StorageRoot> {
        let leaf = format!("smartchain-benchmark-{}", std::process::id());
        let candidates = match &opts.storage_dir {
            Some(dir) => vec![dir.join(&leaf)],
            None => vec![Path::new("/dev/shm").join(&leaf), opts.out_dir.join(&leaf)],
        };
        let mut last_err = None;
        for path in candidates {
            match std::fs::create_dir_all(&path) {
                Ok(()) => {
                    let medium = procfs::fs_type(&path);
                    return Ok(StorageRoot { path, medium });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one candidate"))
    }
}

impl Drop for StorageRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The share of a repetition's operations to run: all of them, or a tenth
/// with `--quick`.
pub fn scale(opts: &Options) -> f64 {
    if opts.quick {
        0.1
    } else {
        1.0
    }
}

pub fn print_repetition(label: &str, rep: &Summary) {
    println!(
        "  {label}: setup {:.3} s | {:.1} ops/s | {:.4} ms CPU/op | p50 {:.3} ms p99 {:.3} ms max {:.1} ms | peak RSS {:.1} MB | \
         generator {:.0} % of a core, {:.3} ms late at p99 | steal {:.1} % | \
         attempted {} completed {} failed {} retransmits {}",
        rep.setup_s,
        rep.throughput_ops_s,
        rep.cpu_ms_per_op,
        rep.latency_p50_ms,
        rep.latency_p99_ms,
        rep.latency_max_ms,
        rep.peak_rss_mb,
        rep.gen_cpu_share * 100.0,
        rep.gen_lateness_p99_ms,
        rep.steal_share * 100.0,
        rep.attempted,
        rep.completed,
        rep.failed,
        rep.retransmits,
    );
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn print_guards(violations: &[String]) {
    if violations.is_empty() {
        println!("guards: all hold");
    }
    for v in violations {
        println!("guard violated (fails the run with --strict): {v}");
    }
}

/// The arguments that make a child process measure the same thing as this
/// one: workload, seed, scale, directories.
fn child_command(workload: &str, opts: &Options) -> io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if let Some(dir) = &opts.storage_dir {
        cmd.arg("--storage-dir").arg(dir);
    }
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.strict {
        cmd.arg("--strict");
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    Ok(cmd)
}

/// `--repetition K`: one untraced repetition, alone in this process.
fn run_repetition_here(workload: &Workload, opts: &Options, index: usize) -> io::Result<i32> {
    let storage = StorageRoot::create(opts)?;
    let rep = workloads::run_repetition(
        workload,
        opts.seed,
        scale(opts),
        &storage.path,
        &format!("rep{index}"),
        None,
    )?;
    println!("{}", rep.summary().to_json());
    Ok(0)
}

/// Runs repetition `index` in a child process storing under `storage`.
pub fn spawn_repetition(
    workload: &Workload,
    opts: &Options,
    storage: &StorageRoot,
    index: usize,
) -> io::Result<Summary> {
    let output = child_command(workload.name, opts)?
        .args(["--repetition", &index.to_string()])
        .arg("--storage-dir")
        .arg(&storage.path)
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .filter(|_| output.status.success())
        .and_then(Summary::from_json)
        .ok_or_else(|| io::Error::other(format!("repetition {index} failed: {stdout}")))
}

/// A run always measures this many repetitions, however slow the machine.
const MIN_REPETITIONS: usize = 3;

/// The untraced pass of one workload: fresh clusters, each in a process of
/// its own, for `--seconds` seconds; every end-to-end metric is the median
/// over them. A repetition starts only if one as long as the longest so far
/// would still end inside the budget, so a slow machine gets fewer
/// repetitions, not a longer run. A repetition that met a failed operation
/// stopped there: it counts in the account and not in the medians.
fn end_to_end(workload: &Workload, opts: &Options, storage: &StorageRoot) -> io::Result<RunResult> {
    let started = Instant::now();
    let mut longest_s = 0.0f64;
    let mut reps: Vec<Summary> = Vec::new();
    loop {
        let rep_started = Instant::now();
        let rep = spawn_repetition(workload, opts, storage, reps.len())?;
        longest_s = longest_s.max(rep_started.elapsed().as_secs_f64());
        print_repetition(&format!("rep {}", reps.len() + 1), &rep);
        reps.push(rep);
        let out_of_time = started.elapsed().as_secs_f64() + longest_s > opts.seconds;
        if opts.quick || reps.len() >= MIN_REPETITIONS && out_of_time {
            break;
        }
    }
    let whole: Vec<&Summary> = reps.iter().filter(|r| r.failed == 0.0).collect();
    if whole.is_empty() {
        return Err(io::Error::other("every repetition met a failed operation"));
    }
    let column = |f: fn(&Summary) -> f64| median(&whole.iter().map(|r| f(r)).collect::<Vec<_>>());
    let values = [
        column(|r| r.throughput_ops_s),
        column(|r| r.peak_rss_mb),
        column(|r| r.setup_s),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(decl, value)| Metric {
            name: decl.name.to_string(),
            value,
            unit: decl.unit,
        })
        .collect();
    println!(
        "end-to-end (median of {} repetitions in {:.1} s; median latency over them {:.4} ms, {} samples, not gated):",
        whole.len(),
        started.elapsed().as_secs_f64(),
        column(|r| r.latency_p50_ms),
        whole.iter().map(|r| r.samples).sum::<f64>(),
    );
    print_metrics(&metrics);
    let violations = workloads::violations(workload, scale(opts), &reps);
    print_guards(&violations);
    Ok(RunResult {
        correct: reps.iter().all(|r| r.wrong == 0.0) && (!opts.strict || violations.is_empty()),
        attempted: reps.iter().map(|r| r.attempted).sum::<f64>() as u64,
        failed: reps.iter().map(|r| r.failed).sum::<f64>() as u64,
        metrics,
    })
}

/// One workload in this process. Returns the exit code.
fn run_workload(opts: &Options) -> io::Result<i32> {
    let name = opts.workload.as_deref().unwrap_or_default();
    let Some(workload) = workloads::find(name) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return Ok(2);
    };
    if let Some(index) = opts.repetition {
        return run_repetition_here(workload, opts, index);
    }
    let storage = StorageRoot::create(opts)?;
    let (warm, measured) = workload.per_client(scale(opts));
    println!(
        "workload {} | seed {} | {} | {} clients | per repetition {} warm-up + {} measured operations | storage {} ({}) | {} cores",
        workload.name,
        opts.seed,
        if opts.trace {
            "traced pass".to_string()
        } else {
            format!("end-to-end pass of {} s", opts.seconds)
        },
        workload.clients,
        warm * workload.clients as u64,
        measured * workload.clients as u64,
        storage.path.display(),
        storage.medium,
        cores(),
    );
    let result = if opts.trace {
        traced::run(workload, opts, &storage)?
    } else {
        end_to_end(workload, opts, &storage)?
    };
    drop(storage);
    println!(
        "attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    println!("{}", result.to_json());
    Ok(if result.correct { 0 } else { 1 })
}

/// Pulls `"<name>": {"value": <number>` out of a result line.
fn extract(line: &str, name: &str) -> Option<f64> {
    crate::json::number_after(line, &format!("{}: {{\"value\": ", string(name)))
}

/// One workload's metrics from a child process.
type Row = Vec<(MetricDecl, f64)>;

/// Runs every workload in a child process of its own and collects the
/// declared metrics from each result line.
fn full_pass(opts: &Options) -> io::Result<Option<Vec<(&'static str, Row)>>> {
    let decls: &[MetricDecl] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        let output = child_command(workload.name, opts)?
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        io::stdout().flush()?;
        if !output.status.success() {
            eprintln!("workload {} failed ({})", workload.name, output.status);
            return Ok(None);
        }
        let line = stdout.lines().last().unwrap_or_default();
        let row: Option<Row> = decls
            .iter()
            .map(|d| extract(line, d.name).map(|v| (*d, v)))
            .collect();
        let Some(row) = row else {
            eprintln!("workload {}: result line lacks a metric", workload.name);
            return Ok(None);
        };
        rows.push((workload.name, row));
    }
    Ok(Some(rows))
}

fn pass_json(opts: &Options, rows: &[(&'static str, Row)]) -> String {
    let workloads = rows.iter().map(|(name, row)| {
        format!(
            "    {}: {}",
            string(name),
            object(row.iter().map(|(d, v)| (d.name, num(*v))))
        )
    });
    format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"cores\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        opts.seed,
        num(opts.seconds),
        opts.trace,
        cores(),
        workloads.collect::<Vec<_>>().join(",\n"),
    )
}

/// Two full end-to-end passes on this binary; any metric whose two medians
/// differ by more than its bound fails the check.
fn selfcheck(opts: &Options) -> io::Result<i32> {
    let opts = Options {
        trace: false,
        strict: true,
        ..opts.clone()
    };
    let (Some(first), Some(second)) = (full_pass(&opts)?, full_pass(&opts)?) else {
        return Ok(1);
    };
    println!("selfcheck: two passes of the same binary");
    let mut worst = 0;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for ((decl, x), (_, y)) in a.iter().zip(b) {
            let diff = (x - y).abs() / x.min(*y);
            let ok = diff <= decl.bound;
            println!(
                "  {name:<14} {:<18} {x:>12.4} {y:>12.4} {:<4} differ {:>5.1} % (bound {:.0} %) {}",
                decl.name,
                decl.unit,
                diff * 100.0,
                decl.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" },
            );
            if !ok {
                worst = 1;
            }
        }
    }
    Ok(worst)
}

/// Runs the benchmark as `args` ask; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = if opts.print_manifest {
        print!("{}", manifest::benchmark_json());
        Ok(0)
    } else if opts.selfcheck {
        selfcheck(&opts)
    } else if let Some(file) = &opts.pass {
        full_pass(&opts).and_then(|rows| match rows {
            Some(rows) => std::fs::write(file, pass_json(&opts, &rows)).map(|()| 0),
            None => Ok(1),
        })
    } else if opts.workload.is_some() {
        run_workload(&opts)
    } else {
        eprintln!("{USAGE}");
        Ok(2)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_extract() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "throughput_ops_s".into(),
                    value: 1234.5678,
                    unit: "1/s",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.25,
                    unit: "s",
                },
            ],
        };
        let line = result.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(extract(&line, "throughput_ops_s"), Some(1234.5678));
        assert_eq!(extract(&line, "setup_s"), Some(0.25));
        assert_eq!(extract(&line, "absent"), None);
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let opts = parse(
            "--workload spend_open --seed 7 --seconds 12 --trace 1"
                .split(' ')
                .map(String::from)
                .collect(),
        )
        .unwrap();
        assert_eq!(opts.workload.as_deref(), Some("spend_open"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 12.0, true));
        assert!(parse(vec!["--trace".into(), "2".into()]).is_err());
        assert!(parse(vec!["--bogus".into()]).is_err());
    }
}
