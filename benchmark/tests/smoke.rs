//! Runs `smoke.sh`: the whole harness — build, four workloads at a tenth of
//! their size, reply checks, validity guards, result lines — in one test.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_script_passes() {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("smoke.sh");
    let output = Command::new("bash").arg(script).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke.sh failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    for line in results {
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for metric in ["throughput_ops_s", "peak_rss_mb", "setup_s"] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{line}"
            );
        }
    }
}
