//! PR9 many-MC benchmark: the arena-backed event path versus the pre-arena
//! linear scan at thousands of resident connections, exported as
//! `BENCH_pr9.json`.
//!
//! The scaling axis that breaks naive D-GMC implementations is group count,
//! not graph size: one switch hosting 10k+ conference groups pays the old
//! `mcs_using_link` scan — O(resident MCs) — on *every* link event, even
//! when the event touches a handful of trees. Two kinds of scenario:
//!
//! * **Discovery** (`discovery_n*_k*`) — k resident MCs whose trees tile
//!   the network, so each probed link is used by only ~1% of them. Baseline
//!   is [`DgmcEngine::local_link_event_scan`] (the pre-arena path: full
//!   scan + serial processing); the measured path is `local_link_event`
//!   (inverted edge index, O(affected)). This is the ≥2× acceptance gate
//!   at k=10000.
//! * **Shard** (`shard_n*_k*`) — every resident MC uses the probed link, so
//!   discovery is free and the per-MC `EventHandler()` steps dominate; with
//!   `--jobs N` (N > 1) they run sharded across the `dgmc_des::par` pool.
//!   Gated on no-pessimization only: wall-clock gains depend on cores, but
//!   the path must never lose to the serial scan. Timing runs clamp `--jobs`
//!   to the host's available parallelism — on a single-core box sharding
//!   can only add thread overhead, so the timed path degrades to the serial
//!   arena path there (the identity checks below still force real threads).
//!
//! Every sample asserts the fast path's actions are byte-identical to the
//! baseline's, and the timing-free sidecar `results/bench_pr9.report.json`
//! (action checksums, affected counts) is compared byte-for-byte between
//! `--jobs 1` and `--jobs 4` by CI. Set `DGMC_BENCH_SMOKE=1` for a reduced
//! run (the gates still apply), which writes `results/BENCH_pr9.smoke.json`
//! instead.

use dgmc_core::{DgmcAction, DgmcEngine, McId, McSync, McTopology, McType, Role, Timestamp};
use dgmc_mctree::SphStrategy;
use dgmc_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

struct Scenario {
    name: String,
    samples: usize,
    /// Resident connections in the engine.
    mcs: usize,
    /// Link events fired per sample.
    events: usize,
    /// Total MC `EventHandler()` steps per sample (affected sum).
    affected: usize,
    scan_nanos: u128,
    arena_nanos: u128,
    min_scan_nanos: u128,
    min_arena_nanos: u128,
    /// Deterministic action digest — identical across paths and `--jobs`.
    checksum: u64,
}

impl Scenario {
    /// Speedup on per-sample minima: robust against one-sided timer noise.
    fn speedup(&self) -> f64 {
        if self.min_arena_nanos == 0 {
            f64::INFINITY
        } else {
            self.min_scan_nanos as f64 / self.min_arena_nanos as f64
        }
    }

    fn events_per_sec(&self) -> f64 {
        if self.arena_nanos == 0 {
            f64::INFINITY
        } else {
            (self.events * self.samples) as f64 / (self.arena_nanos as f64 / 1e9)
        }
    }

    fn no_pessimization(&self) -> bool {
        self.min_arena_nanos * 20 <= self.min_scan_nanos * 21
    }
}

/// Folds an action sequence into a deterministic digest.
fn fold_actions(mut h: u64, actions: &[DgmcAction]) -> u64 {
    for a in actions {
        let (tag, mc, extra) = match a {
            DgmcAction::Flood(lsa) => (1u64, u64::from(lsa.mc.0), lsa.stamp.total()),
            DgmcAction::StartComputation { mc } => (2, u64::from(mc.0), 0),
            DgmcAction::Installed { mc } => (3, u64::from(mc.0), 0),
            DgmcAction::Withdrawn { mc } => (4, u64::from(mc.0), 0),
        };
        h = h
            .rotate_left(7)
            .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(mc.wrapping_mul(0x0100_0000_01b3))
            .wrapping_add(extra);
    }
    h
}

/// Builds switch 0's engine with `k` resident MCs via database sync. MC `i`
/// gets a `tree_len`-node path tree starting at node `b = i mod (n -
/// tree_len + 1)`, so trees tile every link of the 0-1-…-(n-1) path;
/// `span_all` instead anchors every tree at node 0 so one link event on
/// (0, 1) touches all k.
fn engine_with_k_mcs(
    n: usize,
    k: usize,
    jobs: usize,
    tree_len: usize,
    span_all: bool,
) -> DgmcEngine {
    assert!((2..=n).contains(&tree_len));
    let mut engine = DgmcEngine::new(NodeId(0), n, Rc::new(SphStrategy::new()));
    engine.set_jobs(jobs);
    let snapshot: Vec<McSync> = (0..k)
        .map(|i| {
            let mc = McId(u32::try_from(i + 1).expect("bench MC count fits u32"));
            let b = if span_all { 0 } else { i % (n - tree_len + 1) };
            let path: Vec<NodeId> = (b..b + tree_len).map(|x| NodeId(x as u32)).collect();
            let mut members = BTreeMap::new();
            let mut r = Timestamp::zero(n);
            // Three members at the ends and middle of the path; the rest of
            // the tree is transit switches, like a real conference tree.
            for m in [path[0], path[tree_len / 2], path[tree_len - 1]] {
                members.insert(m, Role::SenderReceiver);
                r.incr(m);
            }
            let edges = path.windows(2).map(|w| (w[0], w[1]));
            let terminals: BTreeSet<NodeId> = members.keys().copied().collect();
            McSync {
                mc,
                mc_type: McType::Symmetric,
                epoch: 0,
                r: r.clone(),
                e: r.clone(),
                c: r.clone(),
                c_source: Some(path[0]),
                members,
                installed: Some(McTopology::from_edges(edges, terminals)),
            }
        })
        .collect();
    engine.import_sync(snapshot);
    assert_eq!(engine.mc_count(), k);
    engine
}

/// One timed pass: fires `events` link events down the path links and folds
/// every returned action into the digest.
fn drive(engine: &mut DgmcEngine, n: usize, events: usize, scan: bool) -> (u64, usize) {
    let mut checksum = 0u64;
    let mut affected = 0usize;
    for e in 0..events {
        let a = NodeId(((e * 7) % (n - 1)) as u32);
        let b = NodeId(a.0 + 1);
        affected += engine.mcs_using_link(a, b).len();
        let actions = if scan {
            engine.local_link_event_scan(a, b)
        } else {
            engine.local_link_event(a, b)
        };
        checksum = fold_actions(checksum, &actions);
    }
    (checksum, affected)
}

#[allow(clippy::too_many_arguments)]
fn bench_scenario(
    name: &str,
    n: usize,
    k: usize,
    events: usize,
    samples: usize,
    jobs: usize,
    tree_len: usize,
    span_all: bool,
) -> Scenario {
    let template = engine_with_k_mcs(n, k, jobs, tree_len, span_all);
    let mut scan_nanos = 0u128;
    let mut arena_nanos = 0u128;
    let mut min_scan_nanos = u128::MAX;
    let mut min_arena_nanos = u128::MAX;
    let mut checksum = 0u64;
    let mut affected = 0usize;
    for _ in 0..samples {
        let mut baseline = template.clone();
        let start = Instant::now();
        let (scan_sum, scan_affected) = drive(&mut baseline, n, events, true);
        let nanos = start.elapsed().as_nanos();
        scan_nanos += nanos;
        min_scan_nanos = min_scan_nanos.min(nanos);

        let mut fast = template.clone();
        let start = Instant::now();
        let (fast_sum, fast_affected) = drive(&mut fast, n, events, false);
        let nanos = start.elapsed().as_nanos();
        arena_nanos += nanos;
        min_arena_nanos = min_arena_nanos.min(nanos);

        assert_eq!(
            fast_sum, scan_sum,
            "{name}: arena path actions diverge from the scan path"
        );
        assert_eq!(
            fast_affected, scan_affected,
            "{name}: affected sets diverge"
        );
        checksum = fast_sum;
        affected = fast_affected;
    }
    Scenario {
        name: name.to_string(),
        samples,
        mcs: k,
        events,
        affected,
        scan_nanos,
        arena_nanos,
        min_scan_nanos,
        min_arena_nanos,
        checksum,
    }
}

/// The ≥2× acceptance gate applies to this scenario (see `main` for the
/// regime rationale).
fn gated(s: &Scenario) -> bool {
    s.name.starts_with("discovery_") && !s.name.contains("_n200_") && s.mcs >= 10_000
}

fn write_json(scenarios: &[Scenario], jobs: usize, timed_jobs: usize, hw: usize) -> String {
    let many_mc_gate_ok = scenarios
        .iter()
        .filter(|s| gated(s))
        .all(|s| s.speedup() >= 2.0);
    let no_pessimization = scenarios.iter().all(Scenario::no_pessimization);
    let mut out = format!(
        "{{\n  \"schema\": \"dgmc.bench/1\",\n  \"bench\": \"pr9_many_mc\",\n  \"jobs\": {jobs}, \"timed_jobs\": {timed_jobs}, \"hw_threads\": {hw},\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"mcs\": {}, \"events\": {}, \"affected\": {}, \"scan_ms\": {:.3}, \"arena_ms\": {:.3}, \"events_per_sec\": {:.1}, \"speedup\": {:.2}}}{}",
            s.name,
            s.samples,
            s.mcs,
            s.events,
            s.affected,
            s.scan_nanos as f64 / 1e6,
            s.arena_nanos as f64 / 1e6,
            s.events_per_sec(),
            s.speedup(),
            sep
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"many_mc_gate_ok\": {many_mc_gate_ok},\n  \"no_pessimization\": {no_pessimization}\n}}"
    );
    out
}

/// The timing-free sidecar: everything in it is deterministic, so CI can
/// `cmp` the `--jobs 1` and `--jobs 4` runs byte-for-byte.
fn write_report(scenarios: &[Scenario]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"dgmc.bench-report/1\",\n  \"bench\": \"pr9_many_mc\",\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"mcs\": {}, \"events\": {}, \"affected\": {}, \"checksum\": \"{:016x}\"}}{}",
            s.name, s.samples, s.mcs, s.events, s.affected, s.checksum, sep
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Single-state spot check outside the timed loop: the sharded and serial
/// paths leave byte-identical engine state, not just identical actions.
fn verify_state_identity(n: usize, k: usize, jobs: usize) {
    let template = engine_with_k_mcs(n, k, 1, 16.min(n), true);
    let mut serial = template.clone();
    let mut sharded = template.clone();
    sharded.set_jobs(jobs.max(2));
    serial.local_link_event(NodeId(0), NodeId(1));
    sharded.local_link_event(NodeId(0), NodeId(1));
    for mc in serial.mc_ids() {
        assert_eq!(
            serial.state(mc).cloned(),
            sharded.state(mc).cloned(),
            "sharded state diverges for {mc}"
        );
    }
}

fn main() {
    let smoke = std::env::var_os("DGMC_BENCH_SMOKE").is_some();
    let args: Vec<String> = std::env::args().collect();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Timing honesty: oversubscribing a small box measures thread churn,
    // not the sharded event path. Identity checks still use `jobs` as given.
    let timed_jobs = jobs.min(hw);
    if timed_jobs < jobs {
        println!("note: --jobs {jobs} clamped to {timed_jobs} for timing ({hw} hardware threads)");
    }

    // (n, k, events, samples, tree_len, span_all). The ≥2× gate applies to
    // discovery scenarios at k ≥ 10_000 with n ≥ 600: there a link event
    // touches ~2k/n ≈ tens of trees, so the baseline's O(k) scan dominates —
    // the regime the arena exists for. The n=200 row is reported ungated:
    // with k/100 MCs per link, per-MC protocol work (identical on both
    // paths) swamps discovery. Shard scenarios use 16-node conference trees
    // so per-MC handler work (tree clones into ComputationJob) dominates the
    // main-thread take/restore cost.
    // Four smoke samples: the gates work on per-sample minima, which need a
    // few tries to dodge noise spikes on a shared-CPU box.
    let configs: Vec<(usize, usize, usize, usize, usize, bool)> = if smoke {
        vec![(600, 10_000, 16, 4, 3, false), (600, 4_000, 2, 4, 16, true)]
    } else {
        vec![
            (200, 10_000, 64, 3, 3, false),
            (600, 10_000, 64, 3, 3, false),
            (1000, 10_000, 64, 3, 3, false),
            (1000, 20_000, 32, 3, 3, false),
            (200, 10_000, 4, 3, 16, true),
            (1000, 10_000, 4, 3, 16, true),
        ]
    };
    let mut scenarios = Vec::new();
    for (n, k, events, samples, tree_len, span_all) in configs {
        let kind = if span_all { "shard" } else { "discovery" };
        let name = format!("{kind}_n{n}_k{k}");
        scenarios.push(bench_scenario(
            &name, n, k, events, samples, timed_jobs, tree_len, span_all,
        ));
    }
    verify_state_identity(64, 512, jobs);

    for s in &scenarios {
        println!(
            "{:<24} scan {:>9.2} ms  arena {:>9.2} ms  speedup {:>6.2}x  {:>9.0} ev/s  ({} MCs, {} steps)",
            s.name,
            s.scan_nanos as f64 / 1e6,
            s.arena_nanos as f64 / 1e6,
            s.speedup(),
            s.events_per_sec(),
            s.mcs,
            s.affected
        );
    }

    let json = write_json(&scenarios, jobs, timed_jobs, hw);
    dgmc_bench::write_bench_json("pr9", smoke, &json);

    let report = write_report(&scenarios);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results/");
    let report_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/bench_pr9.report.json"
    );
    std::fs::write(report_path, &report).expect("write bench_pr9.report.json");
    println!("wrote {report_path}");

    // Gates, after the JSON so a failure leaves evidence on disk.
    for s in scenarios.iter().filter(|s| gated(s)) {
        assert!(
            s.speedup() >= 2.0,
            "{}: many-MC event path speedup {:.2}x below the 2x acceptance bar",
            s.name,
            s.speedup()
        );
    }
    for s in &scenarios {
        assert!(
            s.no_pessimization(),
            "{}: arena min {:.3} ms exceeds scan min {:.3} ms by more than 5%",
            s.name,
            s.min_arena_nanos as f64 / 1e6,
            s.min_scan_nanos as f64 / 1e6,
        );
    }
}
