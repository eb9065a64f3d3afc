//! The repository benchmark.
//!
//! ```text
//! dgmc-perfbench --workload fig7_burst|fig8_sparse|link_churn|mesh_join \
//!     --seed N --seconds S --trace 0|1 --out DIR [--node-bin PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` re-runs the same seed with every layer call timed from the
//! outside and prints the per-layer metrics, writing the spans to
//! `DIR/<workload>-<seed>.trace.json` (Chrome trace-event JSON). The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` next to this crate.

mod calib;
mod des_bench;
mod mesh_bench;
mod metrics;
mod spans;
mod workloads;

use metrics::{Summary, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use workloads::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    node_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut node_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out: out.ok_or("--out is required")?,
        node_bin,
    })
}

/// Writes the spans as Chrome trace-event JSON after checking them with
/// `Trace::validate`; a malformed trace makes the run incorrect.
fn export_trace(summary: &mut Summary, rec: &Recorder, args: &Args) {
    let trace = rec.to_trace();
    if let Err(e) = trace.validate() {
        summary.problem(format!("span trace is malformed: {e}"));
        return;
    }
    let path = args
        .out
        .join(format!("{}-{}.trace.json", args.kind.name(), args.seed));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, dgmc_obs::chrome_trace_json(&trace)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            trace.len(),
            path.display()
        ),
        Err(e) => summary.problem(format!("cannot write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dgmc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let place = |args: &Args| mesh_bench::MeshPlace {
        node_bin: args.node_bin.clone().unwrap_or_default(),
        out_dir: args.out.clone(),
    };
    if args.kind == Kind::MeshJoin && args.node_bin.is_none() {
        eprintln!("dgmc-perfbench: mesh_join needs --node-bin");
        return ExitCode::from(2);
    }
    let (summary, table) = if args.trace {
        let rec = Rc::new(RefCell::new(Recorder::new()));
        let mut summary = match args.kind {
            Kind::Fig7Burst | Kind::Fig8Sparse => {
                des_bench::figure_traced(args.kind, args.seed, args.seconds, &rec)
            }
            Kind::LinkChurn => des_bench::churn_traced(args.seed, args.seconds, &rec),
            Kind::MeshJoin => mesh_bench::mesh_traced(args.seed, args.seconds, &place(&args), &rec),
        };
        export_trace(&mut summary, &rec.borrow(), &args);
        (summary, PER_LAYER)
    } else {
        let summary = match args.kind {
            Kind::Fig7Burst | Kind::Fig8Sparse => {
                des_bench::figure_e2e(args.kind, args.seed, args.seconds)
            }
            Kind::LinkChurn => des_bench::churn_e2e(args.seed, args.seconds),
            Kind::MeshJoin => mesh_bench::mesh_e2e(args.seed, args.seconds, &place(&args)),
        };
        (summary, END_TO_END)
    };
    print!("{}", summary.render(table));
    ExitCode::SUCCESS
}
