//! Shared helpers for the Criterion benches that regenerate the paper's
//! figures.
//!
//! Each bench first prints the reproduced figure rows (reduced scale — use
//! the `dgmc-experiments` binaries for the full 20-graph sweeps), then
//! benchmarks the underlying simulation so `cargo bench` also tracks the
//! harness's own performance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dgmc_experiments::presets::{self, ExperimentSpec};
use dgmc_experiments::report;
use std::path::PathBuf;

/// Writes a self-timed bench's JSON report `BENCH_<name>.json`. A full run rewrites the committed file at the repository root;
/// a `DGMC_BENCH_SMOKE` run writes `results/BENCH_<name>.smoke.json`, so CI
/// smoke runs never overwrite the committed trajectory.
pub fn write_bench_json(name: &str, smoke: bool, json: &str) {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let path = if smoke {
        root.join(format!("results/BENCH_{name}.smoke.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Runs a reduced-scale sweep of `spec` and prints the figure table.
pub fn print_figure(spec: ExperimentSpec) {
    let quick = presets::quick(spec);
    let results = presets::run_experiment(&quick);
    println!();
    println!(
        "=== Reproduced rows (reduced scale: {} graphs/size) ===",
        quick.graphs_per_size
    );
    print!("{}", report::text_table(&results));
    println!("=== (full scale: cargo run --release -p dgmc-experiments --bin exp{{1,2,3}}) ===");
    println!();
}
