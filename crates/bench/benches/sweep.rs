//! PR4 sweep benchmark: parallel seed-sweep throughput versus serial,
//! self-timed and exported as `BENCH_pr4.json`.
//!
//! Two sweep shapes, both pure functions of their seeds:
//!
//! * **Explorer chaos sweep** — the seeded schedule explorer
//!   (`explore_run`) over a block of chaos-scenario seeds, serial
//!   (`jobs = 1`) versus the scoped-thread worker pool (`jobs =
//!   min(cores, 8)`).
//! * **Experiment sweep** — a small `run_experiment_jobs` preset (bursty
//!   workload), the unit the paper's figure sweeps are built from.
//!
//! Besides the throughput numbers, this bench *is* the determinism gate at
//! speed: each scenario asserts the parallel result is byte-identical to the
//! serial one before it records a single timing. The ≥2x speedup assertion
//! only applies on machines with at least 4 cores (a single-core container
//! can't speed anything up; the numbers are still recorded there).
//!
//! The vendored criterion shim has no data export, so this bench times with
//! `std::time::Instant` directly and writes its own JSON. Set
//! `DGMC_BENCH_SMOKE=1` for a reduced-size CI run, which writes
//! `results/BENCH_pr4.smoke.json` instead.

use dgmc_core::switch::DgmcConfig;
use dgmc_des::explorer::ExploreConfig;
use dgmc_des::par;
use dgmc_experiments::explore::{self, ExploreParams};
use dgmc_experiments::presets::{self, ExperimentSpec, WorkloadKind};
use dgmc_experiments::report;
use dgmc_experiments::workload::BurstParams;
use std::fmt::Write as _;
use std::time::Instant;

struct Scenario {
    name: &'static str,
    /// Independent seeds (or graph runs) in the sweep.
    tasks: u64,
    serial_nanos: u128,
    parallel_nanos: u128,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        if self.parallel_nanos == 0 {
            f64::INFINITY
        } else {
            self.serial_nanos as f64 / self.parallel_nanos as f64
        }
    }

    fn per_sec(&self, nanos: u128) -> f64 {
        if nanos == 0 {
            f64::INFINITY
        } else {
            self.tasks as f64 * 1e9 / nanos as f64
        }
    }
}

fn bench_explorer(seeds: u64, jobs: usize) -> Scenario {
    let params = ExploreParams {
        nodes: 12,
        ..ExploreParams::default()
    };
    let config = |jobs| ExploreConfig {
        start_seed: 0,
        seeds,
        fail_fast: false,
        jobs,
        ..ExploreConfig::default()
    };
    // Warm-up run (also JIT-free determinism check before timing anything).
    let serial_report = explore::explore_run(&config(1), &params);
    let parallel_report = explore::explore_run(&config(jobs), &params);
    assert_eq!(
        serial_report.to_json(),
        parallel_report.to_json(),
        "jobs={jobs} explorer report diverged from serial"
    );
    assert!(serial_report.passed(), "{}", serial_report.summary());

    let start = Instant::now();
    let timed_serial = explore::explore_run(&config(1), &params);
    let serial_nanos = start.elapsed().as_nanos();
    let start = Instant::now();
    let timed_parallel = explore::explore_run(&config(jobs), &params);
    let parallel_nanos = start.elapsed().as_nanos();
    assert_eq!(timed_serial.to_json(), timed_parallel.to_json());
    Scenario {
        name: "explorer_chaos_n12",
        tasks: seeds,
        serial_nanos,
        parallel_nanos,
    }
}

fn bench_experiment(graphs: usize, jobs: usize) -> Scenario {
    let spec = ExperimentSpec {
        name: "bench sweep",
        config: DgmcConfig::computation_dominated(),
        sizes: vec![20, 30],
        graphs_per_size: graphs,
        workload: WorkloadKind::Bursty(BurstParams {
            burst_events: 6,
            ..BurstParams::default()
        }),
        seed: 0x9664,
    };
    let serial = presets::run_experiment_jobs(&spec, 1);
    let parallel = presets::run_experiment_jobs(&spec, jobs);
    assert_eq!(
        report::metrics_snapshot(&serial.name, &serial.metrics),
        report::metrics_snapshot(&parallel.name, &parallel.metrics),
        "jobs={jobs} experiment metrics diverged from serial"
    );

    let start = Instant::now();
    let _ = presets::run_experiment_jobs(&spec, 1);
    let serial_nanos = start.elapsed().as_nanos();
    let start = Instant::now();
    let _ = presets::run_experiment_jobs(&spec, jobs);
    let parallel_nanos = start.elapsed().as_nanos();
    Scenario {
        name: "experiment_bursty_2sizes",
        tasks: (spec.sizes.len() * graphs) as u64,
        serial_nanos,
        parallel_nanos,
    }
}

fn write_json(scenarios: &[Scenario], jobs: usize, cores: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"pr4.parallel_sweep\",\n");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"tasks\": {}, \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"serial_per_sec\": {:.3}, \"parallel_per_sec\": {:.3}, \"speedup\": {:.3}}}{}",
            s.name,
            s.tasks,
            s.serial_nanos as f64 / 1e6,
            s.parallel_nanos as f64 / 1e6,
            s.per_sec(s.serial_nanos),
            s.per_sec(s.parallel_nanos),
            s.speedup(),
            sep
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::var_os("DGMC_BENCH_SMOKE").is_some();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = par::default_jobs();
    let (seeds, graphs) = if smoke { (12, 3) } else { (48, 8) };
    let scenarios = vec![bench_explorer(seeds, jobs), bench_experiment(graphs, jobs)];

    for s in &scenarios {
        println!(
            "{:<24} serial {:>9.2} ms ({:>7.2}/s)  parallel({} jobs) {:>9.2} ms ({:>7.2}/s)  speedup {:>5.2}x",
            s.name,
            s.serial_nanos as f64 / 1e6,
            s.per_sec(s.serial_nanos),
            jobs,
            s.parallel_nanos as f64 / 1e6,
            s.per_sec(s.parallel_nanos),
            s.speedup(),
        );
    }
    let json = write_json(&scenarios, jobs, cores);
    dgmc_bench::write_bench_json("pr4", smoke, &json);
    if cores >= 4 && !smoke {
        let explorer = &scenarios[0];
        assert!(
            explorer.speedup() >= 2.0,
            "explorer sweep speedup {:.2}x below the 2x acceptance bar on {cores} cores",
            explorer.speedup()
        );
    } else {
        println!(
            "speedup assertion skipped ({} core(s){}) — the ≥2x bar applies on ≥4 cores",
            cores,
            if smoke { ", smoke run" } else { "" }
        );
    }
}
