//! PR8 incremental-SPF benchmark: repair-based cache versus from-scratch
//! recompute under the Fig. 7 WAN churn regime, exported as `BENCH_pr8.json`.
//!
//! Three kinds of scenario:
//!
//! * **Link churn** (`churn_n*`) — the regime that collapsed the PR-3 cache
//!   (fig7_smoke ran at 0.99×): every event rotates the image digest, so the
//!   old cache recomputed everything. With incremental repair a digest miss
//!   one delta away from a live generation is patched in place. Driven by
//!   [`dgmc_experiments::churn`], whose route checksum doubles as the
//!   cached-vs-uncached equivalence oracle.
//! * **Membership repair** (`membership_graft_prune`) — pruned-SPT
//!   maintenance by `graft_member`/`prune_member` versus from-scratch
//!   `pruned_spt` per join/leave.
//! * **Equivalence sweep** — additional small churn runs (parallelizable
//!   with `--jobs N` over disjoint seed chunks, merged in seed order) whose
//!   checksums land in the deterministic sidecar
//!   `results/bench_pr8.report.json`; CI compares the sidecar byte-for-byte
//!   between `--jobs 1` and `--jobs 4`.
//!
//! Gates (asserted in-process after the JSON is written, so failures leave
//! evidence): every churn scenario ≥ 1.5× on per-sample minima, and **no**
//! scenario's cached minimum may exceed its uncached minimum by more than 5%.
//! Set `DGMC_BENCH_SMOKE=1` for a reduced CI run (the gates still apply),
//! which writes `results/BENCH_pr8.smoke.json` instead.

use dgmc_experiments::churn::{churn_event_path, ChurnParams};
use dgmc_mctree::{algorithms, repair, McTopology};
use dgmc_topology::{generate, Network, NodeId, SpfCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

struct Scenario {
    name: String,
    samples: usize,
    /// Events per sample (link events or membership operations).
    events: usize,
    uncached_nanos: u128,
    cached_nanos: u128,
    min_uncached_nanos: u128,
    min_cached_nanos: u128,
    /// Deterministic payload digest — identical across modes and `--jobs`.
    checksum: u64,
    hits: u64,
    misses: u64,
    repairs: u64,
}

impl Scenario {
    /// Speedup on per-sample minima: robust against one-sided timer noise.
    fn speedup(&self) -> f64 {
        if self.min_cached_nanos == 0 {
            f64::INFINITY
        } else {
            self.min_uncached_nanos as f64 / self.min_cached_nanos as f64
        }
    }

    fn events_per_sec(&self) -> f64 {
        if self.cached_nanos == 0 {
            f64::INFINITY
        } else {
            (self.events * self.samples) as f64 / (self.cached_nanos as f64 / 1e9)
        }
    }

    fn no_pessimization(&self) -> bool {
        self.min_cached_nanos * 20 <= self.min_uncached_nanos * 21
    }
}

fn bench_churn(params: ChurnParams, samples: usize) -> (Scenario, usize) {
    let mut uncached_nanos = 0u128;
    let mut cached_nanos = 0u128;
    let mut min_uncached_nanos = u128::MAX;
    let mut min_cached_nanos = u128::MAX;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut repairs = 0u64;
    let mut checksum = 0u64;
    let mut equivalence_events = 0usize;
    for _ in 0..samples {
        let start = Instant::now();
        let base = churn_event_path(&params, &SpfCache::disabled());
        let nanos = start.elapsed().as_nanos();
        uncached_nanos += nanos;
        min_uncached_nanos = min_uncached_nanos.min(nanos);

        // Fresh cache per sample: cold misses are part of the cost.
        let cache = SpfCache::new();
        let start = Instant::now();
        let cached = churn_event_path(&params, &cache);
        let nanos = start.elapsed().as_nanos();
        cached_nanos += nanos;
        min_cached_nanos = min_cached_nanos.min(nanos);

        assert_eq!(
            cached.checksum, base.checksum,
            "churn n={} diverged: repaired routes != from-scratch routes",
            params.n
        );
        equivalence_events += params.events;
        checksum = cached.checksum;
        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;
        repairs += stats.repairs;
    }
    (
        Scenario {
            name: format!("churn_n{}", params.n),
            samples,
            events: params.events,
            uncached_nanos,
            cached_nanos,
            min_uncached_nanos,
            min_cached_nanos,
            checksum,
            hits,
            misses,
            repairs,
        },
        equivalence_events,
    )
}

/// A deterministic join/leave script over a fixed network: `true` joins the
/// node, `false` removes it.
fn membership_script(net: &Network, ops: usize, seed: u64) -> Vec<(NodeId, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.len() as u32;
    let mut members: BTreeSet<NodeId> = BTreeSet::new();
    let mut script = Vec::with_capacity(ops);
    for _ in 0..ops {
        let join = members.len() < 3 || rng.gen_range(0..3u32) > 0;
        if join {
            let node = loop {
                let c = NodeId(rng.gen_range(1..n));
                if !members.contains(&c) {
                    break c;
                }
            };
            members.insert(node);
            script.push((node, true));
        } else {
            let pick = rng.gen_range(0..members.len());
            let node = *members.iter().nth(pick).unwrap();
            members.remove(&node);
            script.push((node, false));
        }
    }
    script
}

fn fold(checksum: u64, tree: &McTopology) -> u64 {
    checksum
        .rotate_left(9)
        .wrapping_add((tree.edge_count() as u64).wrapping_mul(0x0100_0000_01b3))
}

fn bench_membership(n: usize, ops: usize, samples: usize) -> (Scenario, usize) {
    let mut rng = StdRng::seed_from_u64(0x1B8);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let root = NodeId(0);
    let script = membership_script(&net, ops, 0x5EED);

    // Untimed verification pass: repair must equal full recompute per op.
    {
        let cache = SpfCache::new();
        let mut members: BTreeSet<NodeId> = BTreeSet::new();
        let mut tree = algorithms::pruned_spt(&net, root, &members);
        for &(node, join) in &script {
            if join {
                tree = repair::graft_member(&net, root, &tree, node, &cache);
                members.insert(node);
            } else {
                tree = repair::prune_member(root, &tree, node);
                members.remove(&node);
            }
            assert_eq!(
                tree,
                algorithms::pruned_spt(&net, root, &members),
                "membership repair diverged at {node} (join={join})"
            );
        }
    }

    let mut uncached_nanos = 0u128;
    let mut cached_nanos = 0u128;
    let mut min_uncached_nanos = u128::MAX;
    let mut min_cached_nanos = u128::MAX;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut repairs = 0u64;
    let mut uncached_sum = 0u64;
    let mut cached_sum = 0u64;
    for _ in 0..samples {
        let start = Instant::now();
        let mut members: BTreeSet<NodeId> = BTreeSet::new();
        let mut checksum = 0u64;
        for &(node, join) in &script {
            if join {
                members.insert(node);
            } else {
                members.remove(&node);
            }
            checksum = fold(checksum, &algorithms::pruned_spt(&net, root, &members));
        }
        let nanos = start.elapsed().as_nanos();
        uncached_nanos += nanos;
        min_uncached_nanos = min_uncached_nanos.min(nanos);
        uncached_sum = checksum;

        let cache = SpfCache::new();
        let start = Instant::now();
        let mut tree = algorithms::pruned_spt(&net, root, &BTreeSet::new());
        let mut checksum = 0u64;
        for &(node, join) in &script {
            tree = if join {
                repair::graft_member(&net, root, &tree, node, &cache)
            } else {
                repair::prune_member(root, &tree, node)
            };
            checksum = fold(checksum, &tree);
        }
        let nanos = start.elapsed().as_nanos();
        cached_nanos += nanos;
        min_cached_nanos = min_cached_nanos.min(nanos);
        cached_sum = checksum;

        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;
        repairs += stats.repairs;
    }
    assert_eq!(cached_sum, uncached_sum, "membership checksum diverged");
    (
        Scenario {
            name: "membership_graft_prune".to_string(),
            samples,
            events: ops,
            uncached_nanos,
            cached_nanos,
            min_uncached_nanos,
            min_cached_nanos,
            checksum: cached_sum,
            hits,
            misses,
            repairs,
        },
        script.len(),
    )
}

/// Small churn runs verified cached-vs-uncached, fanned out over `jobs`
/// threads in disjoint seed chunks and merged back in seed order — the
/// `--jobs` byte-identity payload.
fn equivalence_sweep(seeds: &[u64], jobs: usize) -> Vec<(u64, u64, usize)> {
    let run = |seed: u64| {
        let params = ChurnParams {
            n: 50 + (seed as usize % 4) * 20,
            events: 16,
            seed,
            flap_every: 5,
            switches_per_event: 16,
        };
        let base = churn_event_path(&params, &SpfCache::disabled());
        let cached = churn_event_path(&params, &SpfCache::new());
        assert_eq!(cached.checksum, base.checksum, "sweep seed {seed} diverged");
        (seed, cached.checksum, params.events)
    };
    if jobs <= 1 {
        return seeds.iter().map(|&s| run(s)).collect();
    }
    let chunk = seeds.len().div_ceil(jobs);
    let mut merged = Vec::with_capacity(seeds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(|&s| run(s)).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            merged.extend(h.join().expect("sweep worker panicked"));
        }
    });
    merged
}

fn write_json(scenarios: &[Scenario], equivalence_events: usize) -> String {
    let churn_gate_ok = scenarios
        .iter()
        .filter(|s| s.name.starts_with("churn_"))
        .all(|s| s.speedup() >= 1.5);
    let no_pessimization = scenarios.iter().all(Scenario::no_pessimization);
    let mut out = String::from(
        "{\n  \"schema\": \"dgmc.bench/1\",\n  \"bench\": \"pr8_incremental_spf\",\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"events\": {}, \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, \"events_per_sec\": {:.1}, \"speedup\": {:.2}, \"hits\": {}, \"misses\": {}, \"repairs\": {}}}{}",
            s.name,
            s.samples,
            s.events,
            s.uncached_nanos as f64 / 1e6,
            s.cached_nanos as f64 / 1e6,
            s.events_per_sec(),
            s.speedup(),
            s.hits,
            s.misses,
            s.repairs,
            sep
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"churn_gate_ok\": {churn_gate_ok},\n  \"no_pessimization\": {no_pessimization},\n  \"equivalence_events\": {equivalence_events}\n}}"
    );
    out
}

/// The timing-free sidecar: everything in it is deterministic, so CI can
/// `cmp` the `--jobs 1` and `--jobs 4` runs byte-for-byte.
fn write_report(
    scenarios: &[Scenario],
    sweep: &[(u64, u64, usize)],
    equivalence_events: usize,
) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"dgmc.bench-report/1\",\n  \"bench\": \"pr8_incremental_spf\",\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"events\": {}, \"checksum\": \"{:016x}\", \"hits\": {}, \"misses\": {}, \"repairs\": {}}}{}",
            s.name, s.samples, s.events, s.checksum, s.hits, s.misses, s.repairs, sep
        );
    }
    out.push_str("  ],\n  \"sweep\": [\n");
    for (i, (seed, checksum, events)) in sweep.iter().enumerate() {
        let sep = if i + 1 == sweep.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"seed\": {seed}, \"events\": {events}, \"checksum\": \"{checksum:016x}\"}}{sep}"
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"equivalence_events\": {equivalence_events}\n}}"
    );
    out
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

    let churn_configs: Vec<(usize, usize, usize, usize)> = if smoke {
        // (n, events, switches_per_event, samples). Four samples: the
        // no-pessimization gate works on per-sample minima, which need a
        // few tries to dodge noise spikes on a shared-CPU box.
        vec![(120, 24, 32, 4), (200, 24, 32, 4)]
    } else {
        vec![(200, 48, 48, 3), (600, 48, 64, 3), (1000, 40, 64, 3)]
    };
    let mut scenarios = Vec::new();
    let mut equivalence_events = 0usize;
    for (n, events, spe, samples) in churn_configs {
        let params = ChurnParams {
            n,
            events,
            seed: 0xF167 + n as u64,
            flap_every: 6,
            switches_per_event: spe,
        };
        let (s, eq) = bench_churn(params, samples);
        equivalence_events += eq;
        scenarios.push(s);
    }
    let (n, ops, samples) = if smoke { (120, 32, 4) } else { (400, 64, 3) };
    let (s, eq) = bench_membership(n, ops, samples);
    equivalence_events += eq;
    scenarios.push(s);

    let seeds: Vec<u64> = (0..8).collect();
    let sweep = equivalence_sweep(&seeds, jobs);
    equivalence_events += sweep.iter().map(|&(_, _, e)| e).sum::<usize>();

    for s in &scenarios {
        println!(
            "{:<24} uncached {:>9.2} ms  cached {:>9.2} ms  speedup {:>6.2}x  {:>9.0} ev/s  ({} hits / {} misses / {} repairs)",
            s.name,
            s.uncached_nanos as f64 / 1e6,
            s.cached_nanos as f64 / 1e6,
            s.speedup(),
            s.events_per_sec(),
            s.hits,
            s.misses,
            s.repairs
        );
    }

    let json = write_json(&scenarios, equivalence_events);
    dgmc_bench::write_bench_json("pr8", smoke, &json);

    let report = write_report(&scenarios, &sweep, equivalence_events);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results/");
    let report_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/bench_pr8.report.json"
    );
    std::fs::write(report_path, &report).expect("write bench_pr8.report.json");
    println!("wrote {report_path}");

    // Gates, after the JSON so a failure leaves evidence on disk.
    for s in scenarios.iter().filter(|s| s.name.starts_with("churn_")) {
        assert!(
            s.speedup() >= 1.5,
            "{}: churn speedup {:.2}x below the 1.5x acceptance bar",
            s.name,
            s.speedup()
        );
        assert!(
            s.repairs > 0,
            "{}: no repairs under link churn — wiring broken",
            s.name
        );
    }
    for s in &scenarios {
        assert!(
            s.no_pessimization(),
            "{}: cached min {:.3} ms exceeds uncached min {:.3} ms by more than 5%",
            s.name,
            s.min_cached_nanos as f64 / 1e6,
            s.min_uncached_nanos as f64 / 1e6,
        );
    }
}
