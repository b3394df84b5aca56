//! `BENCHMARK.json` is generated (`run.sh --print-manifest > BENCHMARK.json`);
//! this keeps the committed file and the code's declarations equal.

use smartchain_benchmark::manifest;
use std::path::Path;

#[test]
fn benchmark_json_matches_the_declarations() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest::benchmark_json(),
        "regenerate with `benchmark/run.sh --print-manifest > BENCHMARK.json`"
    );
}
