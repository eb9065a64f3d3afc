//! PR3 cache benchmark: epoch-versioned SPF cache versus from-scratch
//! recompute, self-timed and exported as `BENCH_pr3.json`.
//!
//! Two kinds of measurement, both on the paper's evaluation scenarios:
//!
//! * **Event hot path** — the per-event work every switch performs after a
//!   membership event on a converged 100-node image: recompute the unicast
//!   routing table and the MC topology proposal. Uncached, each of the `n`
//!   switches runs its own Dijkstras; cached, the first switch's SPF runs
//!   serve all others (identical image ⇒ identical digest).
//! * **Full simulation** — end-to-end `fig6`/`fig7` runs (bursty workload,
//!   both timing regimes) with the shared cache on versus disabled, as a
//!   sanity check that the cache also pays for itself in the whole harness.
//!
//! The vendored criterion shim has no data export, so this bench times with
//! `std::time::Instant` directly and writes its own JSON. Set
//! `DGMC_BENCH_SMOKE=1` for a reduced-sample CI run, which writes
//! `results/BENCH_pr3.smoke.json` instead.

use dgmc_core::switch::DgmcConfig;
use dgmc_experiments::runner;
use dgmc_experiments::workload::{self, BurstParams};
use dgmc_lsr::RoutingTable;
use dgmc_mctree::{McAlgorithm, SphStrategy};
use dgmc_topology::{generate, Network, NodeId, SpfCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

struct Scenario {
    name: &'static str,
    samples: usize,
    uncached_nanos: u128,
    cached_nanos: u128,
    /// Fastest single sample per mode: the noise-resistant basis for the
    /// no-pessimization gate (interference only ever adds time).
    min_uncached_nanos: u128,
    min_cached_nanos: u128,
    hits: u64,
    misses: u64,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        if self.cached_nanos == 0 {
            f64::INFINITY
        } else {
            self.uncached_nanos as f64 / self.cached_nanos as f64
        }
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One converged event step: every switch recomputes its routing table and
/// its topology proposal for the same image and terminal set.
fn event_step(net: &Network, terminals: &BTreeSet<NodeId>, cache: &SpfCache) -> u64 {
    let strategy = SphStrategy::new();
    let mut acc = 0u64;
    for me in net.nodes() {
        let routes = RoutingTable::compute_with(net, me, cache);
        acc = acc.wrapping_add(routes.cost(NodeId(0)).unwrap_or(0));
        let tree = strategy.compute_with(net, terminals, None, cache);
        acc = acc.wrapping_add(tree.edge_count() as u64);
    }
    acc
}

fn bench_event_path(n: usize, k: usize, samples: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(0xE5E7);
    let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
    let terminals: BTreeSet<NodeId> = {
        let mut t = BTreeSet::new();
        while t.len() < k {
            t.insert(NodeId(rng.gen_range(0..n as u32)));
        }
        t
    };
    let mut uncached_nanos = 0u128;
    let mut cached_nanos = 0u128;
    let mut min_uncached_nanos = u128::MAX;
    let mut min_cached_nanos = u128::MAX;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut sink = 0u64;
    for _ in 0..samples {
        let start = Instant::now();
        let base = event_step(&net, &terminals, &SpfCache::disabled());
        let nanos = start.elapsed().as_nanos();
        uncached_nanos += nanos;
        min_uncached_nanos = min_uncached_nanos.min(nanos);

        // Fresh cache per sample: the cold misses are part of the cost.
        let cache = SpfCache::new();
        let start = Instant::now();
        let cached = event_step(&net, &terminals, &cache);
        let nanos = start.elapsed().as_nanos();
        cached_nanos += nanos;
        min_cached_nanos = min_cached_nanos.min(nanos);
        assert_eq!(cached, base, "cached event step diverged");
        sink = sink.wrapping_add(base).wrapping_add(cached);
        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    std::hint::black_box(sink);
    Scenario {
        name: if n >= 100 {
            "event_path_n100"
        } else {
            "event_path_smoke"
        },
        samples,
        uncached_nanos,
        cached_nanos,
        min_uncached_nanos,
        min_cached_nanos,
        hits,
        misses,
    }
}

fn bench_full_run(name: &'static str, n: usize, config: DgmcConfig, samples: usize) -> Scenario {
    let mut uncached_nanos = 0u128;
    let mut cached_nanos = 0u128;
    let mut min_uncached_nanos = u128::MAX;
    let mut min_cached_nanos = u128::MAX;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for seed in 1..=samples as u64 {
        let wl =
            |rng: &mut StdRng, net: &Network| workload::bursty(rng, net, &BurstParams::default());
        let start = Instant::now();
        let a = runner::run_seeded_with_cache(n, seed, config, wl, SpfCache::disabled())
            .expect("uncached run converges");
        let nanos = start.elapsed().as_nanos();
        uncached_nanos += nanos;
        min_uncached_nanos = min_uncached_nanos.min(nanos);

        let cache = SpfCache::new();
        let start = Instant::now();
        let b = runner::run_seeded_with_cache(n, seed, config, wl, cache.clone())
            .expect("cached run converges");
        let nanos = start.elapsed().as_nanos();
        cached_nanos += nanos;
        min_cached_nanos = min_cached_nanos.min(nanos);
        assert_eq!(a.computations, b.computations, "cache changed the protocol");
        assert_eq!(a.floodings, b.floodings, "cache changed the protocol");
        let stats = cache.stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    Scenario {
        name,
        samples,
        uncached_nanos,
        cached_nanos,
        min_uncached_nanos,
        min_cached_nanos,
        hits,
        misses,
    }
}

fn write_json(scenarios: &[Scenario]) -> String {
    let mut out = String::from(
        "{\n  \"schema\": \"dgmc.bench/1\",\n  \"bench\": \"pr3_spf_cache\",\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, \"speedup\": {:.2}, \"cache_hits\": {}, \"cache_misses\": {}, \"hit_rate\": {:.4}}}{}",
            s.name,
            s.samples,
            s.uncached_nanos as f64 / 1e6,
            s.cached_nanos as f64 / 1e6,
            s.speedup(),
            s.hits,
            s.misses,
            s.hit_rate(),
            sep
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::var_os("DGMC_BENCH_SMOKE").is_some();
    let (n, samples) = if smoke { (40, 1) } else { (100, 5) };
    let mut scenarios = vec![bench_event_path(n, 10, samples.max(3))];
    let (fig6, fig7) = if smoke {
        // Five samples even in smoke: the no-pessimization gate below works
        // on per-sample minima, and on a noisy shared-CPU box (wall-clock
        // swings of 2-4x between runs are routine) a pair of samples is not
        // enough for the min to land in a calm window for both modes. Each
        // sample is a ~10 ms sim run, so the extra cost is negligible.
        (
            bench_full_run("fig6_smoke", n, DgmcConfig::computation_dominated(), 5),
            bench_full_run("fig7_smoke", n, DgmcConfig::communication_dominated(), 5),
        )
    } else {
        (
            bench_full_run("fig6_n100", n, DgmcConfig::computation_dominated(), samples),
            bench_full_run(
                "fig7_n100",
                n,
                DgmcConfig::communication_dominated(),
                samples,
            ),
        )
    };
    scenarios.push(fig6);
    scenarios.push(fig7);

    for s in &scenarios {
        println!(
            "{:<18} uncached {:>9.2} ms  cached {:>9.2} ms  speedup {:>6.2}x  hit-rate {:.1}% ({} hits / {} misses)",
            s.name,
            s.uncached_nanos as f64 / 1e6,
            s.cached_nanos as f64 / 1e6,
            s.speedup(),
            s.hit_rate() * 100.0,
            s.hits,
            s.misses
        );
    }
    let json = write_json(&scenarios);
    dgmc_bench::write_bench_json("pr3", smoke, &json);
    // No-pessimization gate, every scenario, both modes: the cached path may
    // never be materially slower than recomputing from scratch. Compared on
    // per-sample minima with 5% tolerance (min_cached <= min_uncached * 1.05,
    // in integer arithmetic).
    for s in &scenarios {
        assert!(
            s.min_cached_nanos * 20 <= s.min_uncached_nanos * 21,
            "{}: cached min {:.3} ms exceeds uncached min {:.3} ms by more than 5%",
            s.name,
            s.min_cached_nanos as f64 / 1e6,
            s.min_uncached_nanos as f64 / 1e6,
        );
    }
    let event = &scenarios[0];
    assert!(
        event.hits > 0,
        "cache saw no hits on the event path — wiring broken"
    );
    if !smoke {
        assert!(
            event.speedup() >= 2.0,
            "event-path speedup {:.2}x below the 2x acceptance bar",
            event.speedup()
        );
    }
}
