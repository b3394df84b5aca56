//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through; see the README for the modes.

use smartchain_benchmark::cli;

fn main() {
    std::process::exit(cli::main(std::env::args().skip(1).collect()));
}
