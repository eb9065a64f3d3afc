//! The simulated workloads: `fig7_burst` and `fig8_sparse` (paper presets
//! run through `runner::run_dgmc_with_cache`) and `link_churn` (resident
//! connections under cut-then-repair link flaps).

use crate::calib::Calibrator;
use crate::metrics::{mean, median, peak_rss_mb, quantile, ratio, Summary};
use crate::spans::{Lane, Recorder, TimedAlgorithm};
use crate::workloads::{self, ChurnInput, GraphCase, Kind};
use dgmc_core::switch::{self, build_dgmc_sim_with_cache, counters, SwitchMsg};
use dgmc_core::{convergence, McType, Role};
use dgmc_des::{ActorId, RunOutcome, SimDuration, Simulation};
use dgmc_experiments::runner::{
    gauges, run_dgmc_traced, run_dgmc_with_cache, RunMetrics, TraceMode, EXPERIMENT_MC,
};
use dgmc_mctree::{McAlgorithm, SphStrategy};
use dgmc_obs::MetricsRegistry;
use dgmc_topology::{metrics as net_metrics, SpfCache, SpfCacheStats};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups per run whose median is `setup_s` (figure workloads; the other
/// workloads set up once per pass).
const SETUP_REPEATS: usize = 5;

/// The traced run of a figure workload takes every `SAMPLE_STRIDE`-th case
/// of the preset, so that a traced pass, which runs each case four ways,
/// takes about twice as long as an untraced one.
const SAMPLE_STRIDE: usize = 2;

/// Figure latency quantiles come from the cases of this many largest sizes:
/// over all sizes, p50 and p90 would fall on the jumps between size groups,
/// and the largest size alone gives too few cases for a p90.
const LATENCY_SIZES: usize = 5;

/// Warm-up joins of one connection are this far apart, as in the runner.
const SETTLE_MS: u64 = 200;

fn bare() -> Rc<dyn McAlgorithm> {
    Rc::new(SphStrategy::new())
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn nanos_ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The protocol counts of a measured phase; all deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    events: u64,
    computations: u64,
    floodings: u64,
    withdrawn: u64,
    installs: u64,
    disrupted_edges: u64,
    mc_lsas: u64,
    duplicates: u64,
    router_floods: u64,
}

impl Counts {
    fn of(registry: &MetricsRegistry, events: u64) -> Counts {
        Counts {
            events,
            computations: registry.counter_value(counters::COMPUTATIONS),
            floodings: registry.counter_value(counters::FLOODINGS),
            withdrawn: registry.counter_value(counters::WITHDRAWN),
            installs: registry.counter_value(counters::INSTALLS),
            disrupted_edges: registry.counter_value(counters::DISRUPTED_EDGES),
            mc_lsas: registry.counter_value(counters::MC_LSAS),
            duplicates: registry.counter_value(counters::DUPLICATES),
            router_floods: registry.counter_value(counters::ROUTER_FLOODS),
        }
    }

    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.computations += o.computations;
        self.floodings += o.floodings;
        self.withdrawn += o.withdrawn;
        self.installs += o.installs;
        self.disrupted_edges += o.disrupted_edges;
        self.mc_lsas += o.mc_lsas;
        self.duplicates += o.duplicates;
        self.router_floods += o.router_floods;
    }
}

/// Datagrams (flood packets, database syncs) a measured phase delivered:
/// every simulator event that was neither an injected input nor the one
/// computation timer each computation schedules.
fn datagrams(des_events: u64, injected: u64, c: &Counts) -> u64 {
    des_events - injected - c.computations
}

/// Deterministic SPF cache counters (everything but the wall time).
fn spf_counts(s: SpfCacheStats) -> (u64, u64, u64, u64) {
    (s.hits, s.misses, s.repairs, s.settled_nodes)
}

fn spf_delta(after: SpfCacheStats, before: SpfCacheStats) -> SpfCacheStats {
    SpfCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        repairs: after.repairs - before.repairs,
        invalidations: after.invalidations - before.invalidations,
        settled_nodes: after.settled_nodes - before.settled_nodes,
        miss_nanos: after.miss_nanos - before.miss_nanos,
    }
}

fn spf_add(into: &mut SpfCacheStats, s: SpfCacheStats) {
    *into = SpfCacheStats {
        hits: into.hits + s.hits,
        misses: into.misses + s.misses,
        repairs: into.repairs + s.repairs,
        invalidations: into.invalidations + s.invalidations,
        settled_nodes: into.settled_nodes + s.settled_nodes,
        miss_nanos: into.miss_nanos + s.miss_nanos,
    };
}

/// Sets the protocol-guard end-to-end metrics from one pass's counts.
fn set_protocol_metrics(
    summary: &mut Summary,
    c: &Counts,
    datagrams_per_event: f64,
    rounds: &[f64],
    costs: &[f64],
) {
    let events = c.events as f64;
    summary.set("proposals_per_event", ratio(c.computations as f64, events));
    summary.set("floodings_per_event", ratio(c.floodings as f64, events));
    summary.set("datagrams_per_event", datagrams_per_event);
    summary.set("convergence_rounds", mean(rounds));
    summary.set("tree_cost", mean(costs));
}

/// Per-layer values of one traced pass.
#[derive(Debug, Default)]
struct LayerPass {
    counts: Counts,
    spf: SpfCacheStats,
    mctree_calls: u64,
    mctree_nanos: u64,
    mctree_self_nanos: u64,
    /// Wall time of the untraced calls, the traced calls, the calls with
    /// the runner's metrics-mode tracing, and of the direct DES runs.
    untraced_nanos: u64,
    traced_nanos: u64,
    metrics_mode_nanos: u64,
    des_nanos: u64,
    des_events: u64,
}

/// Sets every per-layer metric from the traced passes: counts from the
/// first pass (every pass repeats them), times as medians over passes.
fn set_layer_metrics(summary: &mut Summary, passes: &[LayerPass], generate_ms: f64) {
    let first = &passes[0];
    let med = |f: &dyn Fn(&LayerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let c = &first.counts;
    summary.set("topology.generate_ms", generate_ms);
    summary.set("topology.spf.hits", first.spf.hits as f64);
    summary.set("topology.spf.misses", first.spf.misses as f64);
    summary.set("topology.spf.repairs", first.spf.repairs as f64);
    summary.set("topology.spf.settled_nodes", first.spf.settled_nodes as f64);
    summary.set(
        "topology.spf.hit_ratio",
        ratio(
            first.spf.hits as f64,
            (first.spf.hits + first.spf.misses) as f64,
        ),
    );
    summary.set("topology.spf.miss_ms", med(&|p| nanos_ms(p.spf.miss_nanos)));
    summary.set("mctree.calls", first.mctree_calls as f64);
    summary.set("mctree.ms", med(&|p| nanos_ms(p.mctree_nanos)));
    summary.set("mctree.self_ms", med(&|p| nanos_ms(p.mctree_self_nanos)));
    summary.set(
        "mctree.us_per_call",
        med(&|p| ratio(p.mctree_nanos as f64 / 1e3, p.mctree_calls as f64)),
    );
    summary.set("core.computations", c.computations as f64);
    summary.set("core.withdrawn", c.withdrawn as f64);
    summary.set(
        "core.withdrawn_ratio",
        ratio(c.withdrawn as f64, c.computations as f64),
    );
    summary.set("core.installs", c.installs as f64);
    summary.set("core.disrupted_edges", c.disrupted_edges as f64);
    summary.set(
        "core.switch_self_ms",
        med(&|p| {
            nanos_ms(
                p.traced_nanos
                    .saturating_sub(p.mctree_self_nanos)
                    .saturating_sub(p.spf.miss_nanos),
            )
        }),
    );
    summary.set("lsr.mc_lsas", c.mc_lsas as f64);
    summary.set("lsr.duplicates", c.duplicates as f64);
    summary.set(
        "lsr.dup_ratio",
        ratio(c.duplicates as f64, (c.duplicates + c.mc_lsas) as f64),
    );
    summary.set("lsr.router_floods", c.router_floods as f64);
    summary.set("des.events", first.des_events as f64);
    summary.set(
        "des.ns_per_event",
        med(&|p| ratio(p.des_nanos as f64, p.des_events as f64)),
    );
    summary.set(
        "obs.metrics_mode_ratio",
        med(&|p| ratio(p.metrics_mode_nanos as f64, p.untraced_nanos as f64)),
    );
    summary.set(
        "trace.overhead_ratio",
        med(&|p| ratio(p.traced_nanos as f64, p.untraced_nanos as f64)),
    );
    for name in [
        "node.spawn_ms",
        "node.ctl_rtt_ms",
        "node.polls_per_event",
        "node.tx_datagrams",
        "node.core_us",
        "node.encode_us",
        "node.decode_us",
        "node.frame_bytes",
        "node.max_frame_bytes",
        "node.io_ms",
    ] {
        // The simulated workloads never reach the node layer.
        summary.set(name, 0.0);
    }
}

// ---------------------------------------------------------------------
// fig7_burst / fig8_sparse
// ---------------------------------------------------------------------

/// What a direct DES run saw on one figure case.
struct DesOutcome {
    counts: Counts,
    tree_cost: Option<u64>,
    /// Simulator events of the whole run, warm-up included.
    events_processed: u64,
    /// Datagrams of the measured phase.
    datagrams: u64,
}

/// The runner's measured run, driven through a simulation built with
/// `build_dgmc_sim_with_cache` so that the simulator and the agreed tree
/// can be read: warm-up joins, consensus, the measured events, consensus.
fn des_case(
    case: &GraphCase,
    config: switch::DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
    cache: SpfCache,
) -> Result<DesOutcome, String> {
    let mut sim = build_dgmc_sim_with_cache(&case.net, config, algorithm, cache);
    sim.set_event_budget(200_000_000);
    let join = || SwitchMsg::HostJoin {
        mc: EXPERIMENT_MC,
        mc_type: McType::Symmetric,
        role: Role::SenderReceiver,
    };
    for (i, &m) in case.workload.initial_members.iter().enumerate() {
        sim.inject(
            ActorId(m.0),
            SimDuration::millis(SETTLE_MS * i as u64),
            join(),
        );
    }
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err("warm-up diverged".into());
    }
    convergence::check_consensus(&sim, EXPERIMENT_MC).map_err(|e| e.to_string())?;
    sim.reset_counters();
    let warm_up_events = sim.events_processed();
    for e in &case.workload.events {
        let msg = if e.join {
            join()
        } else {
            SwitchMsg::HostLeave { mc: EXPERIMENT_MC }
        };
        sim.inject(ActorId(e.node.0), e.at, msg);
    }
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err("measured phase diverged".into());
    }
    let consensus = convergence::check_consensus(&sim, EXPERIMENT_MC).map_err(|e| e.to_string())?;
    let tree_cost = consensus
        .topology
        .as_ref()
        .and_then(|t| dgmc_mctree::metrics::tree_cost(t, &case.net));
    let injected = case.workload.events.len() as u64;
    let counts = Counts::of(sim.metrics(), injected);
    Ok(DesOutcome {
        datagrams: datagrams(sim.events_processed() - warm_up_events, injected, &counts),
        counts,
        tree_cost,
        events_processed: sim.events_processed(),
    })
}

/// A figure case's counts and convergence rounds; `None` when it failed.
type CaseOutcome = Option<(Counts, Option<f64>)>;

fn run_counts(m: &RunMetrics) -> Counts {
    Counts::of(&m.registry, m.events)
}

/// Untraced run of a figure workload: the end-to-end metrics.
pub fn figure_e2e(kind: Kind, seed: u64, seconds: f64) -> Summary {
    let mut summary = Summary::new();
    let spec = workloads::preset(kind);
    let mut cal = Calibrator::new();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (made, ns) = cal.time(|| workloads::figure_cases(&spec, seed));
        cases = made;
        setup.push(ns / 1e9);
    }
    summary.set("setup_s", median(&setup));

    // Every case runs once per pass; a case's time is the median over the
    // passes, which are spread over the whole run, so a slow spell of the
    // machine moves few of them. Operations are counted on the first pass;
    // later passes must repeat its outcomes exactly.
    let started = Instant::now();
    let mut case_nanos: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut raw_nanos = 0.0;
    let mut first: Option<Vec<CaseOutcome>> = None;
    loop {
        let mut outcomes = Vec::with_capacity(cases.len());
        for (case, samples) in cases.iter().zip(&mut case_nanos) {
            let t = Instant::now();
            let (run, ns) = cal.time(|| {
                run_dgmc_with_cache(
                    &case.net,
                    spec.config,
                    &case.workload,
                    bare(),
                    SpfCache::new(),
                )
            });
            raw_nanos += t.elapsed().as_nanos() as f64;
            if first.is_none() {
                summary.op(run.is_ok());
            }
            match run {
                Ok(m) => {
                    samples.push(ns);
                    outcomes.push(Some((run_counts(&m), m.convergence_rounds)));
                }
                Err(e) => {
                    eprintln!("perfbench: {} run failed: {e}", kind.name());
                    outcomes.push(None);
                }
            }
        }
        match &first {
            None => first = Some(outcomes),
            Some(f) => summary.expect_eq("counts repeat across passes", f, &outcomes),
        }
        if secs(started) >= seconds {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let passes = case_nanos.iter().map(Vec::len).max().unwrap_or(0);
    let mut sizes = spec.sizes.clone();
    sizes.sort_unstable();
    let smallest_timed = sizes[sizes.len().saturating_sub(LATENCY_SIZES)];
    let mut events = 0;
    let mut nanos = 0.0;
    let mut event_ms = Vec::new();
    for ((run, samples), case) in first.iter().zip(&case_nanos).zip(&cases) {
        if let Some((counts, _)) = run {
            let ns = median(samples);
            events += counts.events;
            nanos += ns;
            if case.net.len() >= smallest_timed {
                event_ms.push(ratio(ns / 1e6, counts.events as f64));
            }
        }
    }
    summary.set("events_per_s", ratio(events as f64, nanos / 1e9));
    summary.set("event_ms.p50", quantile(&event_ms, 0.5));
    summary.set("event_ms.p90", quantile(&event_ms, 0.9));
    eprintln!(
        "perfbench: {passes} passes; unscaled {:.1} events/s; machine speed {:.3} of the reference",
        ratio((events * passes as u64) as f64, raw_nanos / 1e9),
        cal.speed()
    );

    let mut total = Counts::default();
    let mut rounds = Vec::new();
    for (counts, r) in first.iter().flatten() {
        total.add(counts);
        rounds.extend(*r);
    }
    // Untimed: every case once more as a direct DES run, for the agreed
    // trees and the datagram count (the runner's untraced result carries
    // neither) and as a cross-check of the runner's counts.
    let mut direct = Counts::default();
    let mut direct_datagrams = 0;
    let mut costs = Vec::new();
    for (case, run) in cases.iter().zip(&first) {
        let des = des_case(case, spec.config, bare(), SpfCache::new());
        summary.op(des.is_ok());
        let (Some((counts, _)), Ok(des)) = (run, des) else {
            continue;
        };
        summary.expect_eq("direct DES counts equal the runner's", counts, &des.counts);
        direct.add(counts);
        direct_datagrams += des.datagrams;
        costs.extend(des.tree_cost.map(|c| c as f64));
    }
    let datagrams_per_event = ratio(direct_datagrams as f64, direct.events as f64);
    set_protocol_metrics(&mut summary, &total, datagrams_per_event, &rounds, &costs);
    summary.set("peak_rss_mb", peak_rss_mb("self"));
    summary.set_success_ratio();
    summary
}

/// Traced run of a figure workload: the per-layer metrics.
pub fn figure_traced(kind: Kind, seed: u64, seconds: f64, rec: &Rc<RefCell<Recorder>>) -> Summary {
    let mut summary = Summary::new();
    let spec = workloads::preset(kind);
    let mut generate = Vec::with_capacity(SETUP_REPEATS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let id = rec.borrow_mut().open("setup", Lane::Bench);
        let (made, ns) = rec
            .borrow_mut()
            .time("topology.generate", Lane::Topology, || {
                workloads::figure_cases(&spec, seed)
            });
        cases = made;
        generate.push(nanos_ms(ns));
        rec.borrow_mut().close(id);
    }

    let started = Instant::now();
    let mut passes: Vec<LayerPass> = Vec::new();
    loop {
        let pass_id = rec.borrow_mut().open("pass", Lane::Bench);
        let mut pass = LayerPass::default();
        let count = passes.is_empty();
        for case in cases.iter().step_by(SAMPLE_STRIDE) {
            figure_case_traced(&mut summary, &spec, case, rec, &mut pass, count);
        }
        rec.borrow_mut().close(pass_id);
        if let Some(p0) = passes.first() {
            summary.expect_eq("traced counts repeat", p0.counts, pass.counts);
            summary.expect_eq(
                "traced SPF counts repeat",
                spf_counts(p0.spf),
                spf_counts(pass.spf),
            );
        }
        passes.push(pass);
        if secs(started) >= seconds {
            break;
        }
    }
    set_layer_metrics(&mut summary, &passes, median(&generate));
    summary
}

/// One case, four ways: untraced, with the timing wrapper, as a direct DES
/// run, and with the runner's metrics-mode tracing. Every deterministic
/// count must agree across the four. The four runs count as operations
/// when `count` is set (on the first pass).
fn figure_case_traced(
    summary: &mut Summary,
    spec: &dgmc_experiments::presets::ExperimentSpec,
    case: &GraphCase,
    rec: &Rc<RefCell<Recorder>>,
    pass: &mut LayerPass,
    count: bool,
) {
    let timed_call = |label, lane, f: &mut dyn FnMut()| {
        let id = rec.borrow_mut().open(label, lane);
        f();
        rec.borrow_mut().close(id)
    };

    let plain_cache = SpfCache::new();
    let mut plain = None;
    pass.untraced_nanos += timed_call("core.run_untraced", Lane::Core, &mut || {
        plain = Some(run_dgmc_with_cache(
            &case.net,
            spec.config,
            &case.workload,
            bare(),
            plain_cache.clone(),
        ));
    });

    let timed = Rc::new(TimedAlgorithm::new(SphStrategy::new(), rec.clone()));
    let cache = SpfCache::new();
    let mut traced = None;
    pass.traced_nanos += timed_call("core.run", Lane::Core, &mut || {
        traced = Some(run_dgmc_with_cache(
            &case.net,
            spec.config,
            &case.workload,
            timed.clone(),
            cache.clone(),
        ));
    });

    let mut des = None;
    pass.des_nanos += timed_call("des.run", Lane::Des, &mut || {
        des = Some(des_case(case, spec.config, bare(), SpfCache::new()));
    });

    let mut metrics_mode = None;
    pass.metrics_mode_nanos += timed_call("obs.run_metrics_mode", Lane::Obs, &mut || {
        metrics_mode = Some(run_dgmc_traced(
            &case.net,
            spec.config,
            &case.workload,
            bare(),
            SpfCache::new(),
            TraceMode::Metrics,
        ));
    });

    let (plain, traced, des, metrics_mode) = (
        plain.expect("ran"),
        traced.expect("ran"),
        des.expect("ran"),
        metrics_mode.expect("ran"),
    );
    if count {
        for ok in [
            plain.is_ok(),
            traced.is_ok(),
            des.is_ok(),
            metrics_mode.is_ok(),
        ] {
            summary.op(ok);
        }
    }
    let (Ok(plain), Ok(traced), Ok(des), Ok(metrics_mode)) = (plain, traced, des, metrics_mode)
    else {
        return;
    };
    let counts = run_counts(&plain);
    summary.expect_eq("traced counts", counts, run_counts(&traced));
    summary.expect_eq("direct DES counts", counts, des.counts);
    summary.expect_eq("metrics-mode counts", counts, run_counts(&metrics_mode));
    summary.expect_eq(
        "traced SPF counts",
        spf_counts(plain_cache.stats()),
        spf_counts(cache.stats()),
    );
    summary.expect_eq(
        "tree cost",
        des.tree_cost.unwrap_or(0),
        metrics_mode
            .registry
            .gauge_value(&gauges::tree_cost(EXPERIMENT_MC)),
    );
    let calls = timed.totals();
    pass.counts.add(&counts);
    spf_add(&mut pass.spf, cache.stats());
    pass.mctree_calls += calls.calls;
    pass.mctree_nanos += calls.nanos;
    pass.mctree_self_nanos += calls.self_nanos();
    pass.des_events += des.events_processed;
}

// ---------------------------------------------------------------------
// link_churn
// ---------------------------------------------------------------------

/// Builds the churn simulation and joins every resident connection, each
/// connection's members `SETTLE_MS` apart and the connections side by side.
fn churn_setup(
    input: &ChurnInput,
    algorithm: Rc<dyn McAlgorithm>,
    cache: SpfCache,
) -> Result<Simulation<SwitchMsg>, String> {
    let mut sim =
        build_dgmc_sim_with_cache(&input.net, workloads::churn_config(), algorithm, cache);
    sim.set_event_budget(200_000_000);
    for (mc, members) in &input.mcs {
        for (j, m) in members.iter().enumerate() {
            sim.inject(
                ActorId(m.0),
                SimDuration::millis(SETTLE_MS * j as u64),
                SwitchMsg::HostJoin {
                    mc: *mc,
                    mc_type: McType::Symmetric,
                    role: Role::SenderReceiver,
                },
            );
        }
    }
    if sim.run_to_quiescence() != RunOutcome::Quiescent {
        return Err("warm-up diverged".into());
    }
    for (mc, _) in &input.mcs {
        convergence::check_consensus(&sim, *mc).map_err(|e| format!("warm-up {mc:?}: {e}"))?;
    }
    sim.reset_counters();
    Ok(sim)
}

/// What churn passes measured.
#[derive(Debug, Default)]
struct ChurnPass {
    /// Wall time of each link event, from injection to quiescence.
    event_nanos: Vec<u64>,
    /// The same times scaled to the reference speed.
    scaled_nanos: Vec<f64>,
    /// Convergence of each link event that re-installed a tree, in rounds.
    rounds: Vec<f64>,
    counts: Counts,
    /// `(checks, failed checks)` of the per-cycle consensus checks.
    checks: (u64, u64),
    /// Final agreed tree cost per connection still in consensus.
    costs: Vec<f64>,
    des_events: u64,
}

impl ChurnPass {
    fn nanos(&self) -> u64 {
        self.event_nanos.iter().sum()
    }

    fn add(&mut self, o: ChurnPass) {
        self.event_nanos.extend(o.event_nanos);
        self.scaled_nanos.extend(o.scaled_nanos);
        self.rounds.extend(o.rounds);
        self.counts.add(&o.counts);
        self.checks.0 += o.checks.0;
        self.checks.1 += o.checks.1;
        self.costs.extend(o.costs);
        self.des_events += o.des_events;
    }

    /// Each link event injects one input at each endpoint.
    fn datagrams(&self) -> u64 {
        datagrams(self.des_events, 2 * self.counts.events, &self.counts)
    }
}

/// Runs every flap of `input` on a warmed-up simulation: cut, run to
/// quiescence, repair, run to quiescence, then check every connection.
fn churn_measure(
    sim: &mut Simulation<SwitchMsg>,
    input: &ChurnInput,
    cal: &mut Calibrator,
) -> ChurnPass {
    let config = workloads::churn_config();
    let round =
        config.per_hop * u64::from(net_metrics::flooding_diameter_hops(&input.net)) + config.tc;
    let events_before = sim.events_processed();
    let mut pass = ChurnPass::default();
    let mut events = 0u64;
    let mut split = 0;
    'flaps: for (i, &link) in input.flaps.iter().enumerate() {
        for up in [false, true] {
            let start = sim.now();
            let t = Instant::now();
            let (outcome, scaled) = cal.time(|| {
                switch::inject_link_event(sim, &input.net, link, up, SimDuration::ZERO);
                sim.run_to_quiescence()
            });
            pass.event_nanos
                .push(u64::try_from(t.elapsed().as_nanos()).expect("short event"));
            pass.scaled_nanos.push(scaled);
            events += 1;
            if outcome != RunOutcome::Quiescent {
                eprintln!("perfbench: link_churn diverged on {link:?}");
                pass.checks.0 += 1;
                pass.checks.1 += 1;
                break 'flaps;
            }
            let last = convergence::last_install_time(sim);
            if last >= start && !round.is_zero() {
                pass.rounds.push((last - start).ratio(round));
            }
        }
        let failed = input
            .mcs
            .iter()
            .filter(|(mc, _)| convergence::check_consensus(sim, *mc).is_err())
            .count() as u64;
        pass.checks.0 += input.mcs.len() as u64;
        pass.checks.1 += failed;
        if failed > split {
            let l = input.net.link(link).expect("flapped links exist");
            eprintln!(
                "perfbench: link_churn graph seed {} flap {i} of link {}-{} (degrees {}/{}) left {failed} of {} connections without consensus",
                input.seed,
                l.a,
                l.b,
                input.net.degree(l.a),
                input.net.degree(l.b),
                input.mcs.len()
            );
        }
        split = failed;
    }
    for (mc, _) in &input.mcs {
        if let Ok(c) = convergence::check_consensus(sim, *mc) {
            if let Some(cost) = c
                .topology
                .as_ref()
                .and_then(|t| dgmc_mctree::metrics::tree_cost(t, &input.net))
            {
                pass.costs.push(cost as f64);
            }
        }
    }
    pass.counts = Counts::of(sim.metrics(), events);
    pass.des_events = sim.events_processed() - events_before;
    pass
}

/// Set-up (generation and warm-up) and timed flaps of every churn graph;
/// returns the pass and its set-up time in seconds at the reference speed.
/// A failed set-up counts as one failed check.
fn churn_pass(seed: u64, cal: &mut Calibrator) -> (ChurnPass, f64) {
    let mut pass = ChurnPass::default();
    let (inputs, ns) = cal.time(|| workloads::link_churn(seed));
    let mut setup = ns / 1e9;
    for input in &inputs {
        let (sim, ns) = cal.time(|| churn_setup(input, bare(), SpfCache::new()));
        setup += ns / 1e9;
        match sim {
            Ok(mut sim) => pass.add(churn_measure(&mut sim, input, cal)),
            Err(e) => {
                eprintln!("perfbench: link_churn set-up failed: {e}");
                pass.checks.0 += 1;
                pass.checks.1 += 1;
            }
        }
    }
    (pass, setup)
}

/// Untraced `link_churn` run: the end-to-end metrics. Checks are counted
/// on the first pass; later passes must repeat its counts and outcomes.
pub fn churn_e2e(seed: u64, seconds: f64) -> Summary {
    let mut summary = Summary::new();
    let mut cal = Calibrator::new();
    let mut setup = Vec::new();
    // Per link event, its time in every pass: the event's time is the
    // median over the passes, as for the figure cases.
    let mut event_nanos: Vec<Vec<f64>> = Vec::new();
    let mut raw_nanos = 0;
    let mut first: Option<ChurnPass> = None;
    let started = Instant::now();
    while secs(started) < seconds {
        let (pass, setup_s) = churn_pass(seed, &mut cal);
        setup.push(setup_s);
        let nanos = pass.nanos();
        raw_nanos += nanos;
        event_nanos.resize(event_nanos.len().max(pass.scaled_nanos.len()), Vec::new());
        for (samples, &n) in event_nanos.iter_mut().zip(&pass.scaled_nanos) {
            samples.push(n);
        }
        match &first {
            None => {
                summary.attempted += pass.checks.0;
                summary.failed += pass.checks.1;
                first = Some(pass);
            }
            Some(f) => {
                summary.expect_eq("counts repeat across passes", f.counts, pass.counts);
                summary.expect_eq("checks repeat across passes", f.checks, pass.checks);
            }
        }
        if nanos == 0 {
            break;
        }
    }
    let event_ms: Vec<f64> = event_nanos.iter().map(|s| median(s) / 1e6).collect();
    summary.set("setup_s", median(&setup));
    summary.set(
        "events_per_s",
        ratio(event_ms.len() as f64, event_ms.iter().sum::<f64>() / 1e3),
    );
    summary.set("event_ms.p50", quantile(&event_ms, 0.5));
    summary.set("event_ms.p90", quantile(&event_ms, 0.9));
    let passes = setup.len();
    eprintln!(
        "perfbench: {passes} passes; unscaled {:.1} events/s; machine speed {:.3} of the reference",
        ratio((event_ms.len() * passes) as f64, raw_nanos as f64 / 1e9),
        cal.speed()
    );
    let first = first.unwrap_or_default();
    let datagrams_per_event = ratio(first.datagrams() as f64, first.counts.events as f64);
    set_protocol_metrics(
        &mut summary,
        &first.counts,
        datagrams_per_event,
        &first.rounds,
        &first.costs,
    );
    summary.set("peak_rss_mb", peak_rss_mb("self"));
    summary.set_success_ratio();
    summary
}

/// Traced `link_churn` run: each pass runs the flaps of the first graph
/// untraced, with the timing wrapper, and with the simulator's causal
/// tracing on.
pub fn churn_traced(seed: u64, seconds: f64, rec: &Rc<RefCell<Recorder>>) -> Summary {
    let mut summary = Summary::new();
    let mut generate = Vec::new();
    let mut passes: Vec<LayerPass> = Vec::new();
    let started = Instant::now();
    loop {
        let pass_id = rec.borrow_mut().open("pass", Lane::Bench);
        let setup_id = rec.borrow_mut().open("setup", Lane::Bench);
        let (inputs, ns) = rec
            .borrow_mut()
            .time("topology.generate", Lane::Topology, || {
                workloads::link_churn(seed)
            });
        generate.push(nanos_ms(ns));
        rec.borrow_mut().close(setup_id);
        let layer = churn_pass_traced(&mut summary, &inputs[0], rec, passes.is_empty());
        rec.borrow_mut().close(pass_id);
        let Some(layer) = layer else { break };
        if let Some(p0) = passes.first() {
            summary.expect_eq("traced counts repeat", p0.counts, layer.counts);
        }
        passes.push(layer);
        if secs(started) >= seconds {
            break;
        }
    }
    if passes.is_empty() {
        summary.problem("no traced churn pass completed".into());
        passes.push(LayerPass::default());
    }
    set_layer_metrics(&mut summary, &passes, median(&generate));
    summary
}

/// One traced pass over `input`; its checks count as operations when
/// `count` is set (on the first pass).
fn churn_pass_traced(
    summary: &mut Summary,
    input: &ChurnInput,
    rec: &Rc<RefCell<Recorder>>,
    count: bool,
) -> Option<LayerPass> {
    let mut cal = Calibrator::new();
    let setup = |alg: Rc<dyn McAlgorithm>, cache: SpfCache| {
        let id = rec.borrow_mut().open("core.warm_up", Lane::Core);
        let sim = churn_setup(input, alg, cache);
        rec.borrow_mut().close(id);
        if let Err(e) = &sim {
            eprintln!("perfbench: link_churn set-up failed: {e}");
        }
        sim.ok()
    };
    let mut measure = |sim: &mut Simulation<SwitchMsg>, label, lane| {
        let id = rec.borrow_mut().open(label, lane);
        let pass = churn_measure(sim, input, &mut cal);
        rec.borrow_mut().close(id);
        pass
    };

    let plain_cache = SpfCache::new();
    let mut sim = setup(bare(), plain_cache.clone())?;
    let plain_before = plain_cache.stats();
    let plain = measure(&mut sim, "core.run_untraced", Lane::Core);
    let plain_spf = spf_delta(plain_cache.stats(), plain_before);
    if count {
        summary.attempted += plain.checks.0;
        summary.failed += plain.checks.1;
    }

    let timed = Rc::new(TimedAlgorithm::new(SphStrategy::new(), rec.clone()));
    let cache = SpfCache::new();
    let mut sim = setup(timed.clone(), cache.clone())?;
    let (spf_before, calls_before) = (cache.stats(), timed.totals());
    let traced = measure(&mut sim, "core.run", Lane::Core);
    let spf = spf_delta(cache.stats(), spf_before);
    let calls = timed.totals();

    let mut sim = setup(bare(), SpfCache::new())?;
    sim.enable_causal_trace(switch::trace_label);
    sim.observer().attach(sim.causal_tracer().clone());
    let id = rec.borrow_mut().open("obs.run_causal_trace", Lane::Obs);
    let causal = churn_measure(&mut sim, input, &mut cal);
    sim.observer().detach();
    let trace = sim.take_causal_trace().unwrap_or_default();
    let paths = dgmc_obs::critical_paths(&trace);
    rec.borrow_mut().close(id);
    if let Err(e) = trace.validate() {
        summary.problem(format!("causal trace invalid: {e}"));
    }
    std::hint::black_box(paths);

    summary.expect_eq("traced counts", plain.counts, traced.counts);
    summary.expect_eq("causal-trace counts", plain.counts, causal.counts);
    summary.expect_eq("traced checks", plain.checks, traced.checks);
    summary.expect_eq("traced tree costs", &plain.costs, &traced.costs);
    summary.expect_eq("traced SPF counts", spf_counts(plain_spf), spf_counts(spf));
    let mctree_nanos = calls.nanos - calls_before.nanos;
    let mctree_self = calls.self_nanos() - calls_before.self_nanos();
    Some(LayerPass {
        counts: plain.counts,
        spf,
        mctree_calls: calls.calls - calls_before.calls,
        mctree_nanos,
        mctree_self_nanos: mctree_self,
        untraced_nanos: plain.nanos(),
        traced_nanos: traced.nanos(),
        metrics_mode_nanos: causal.nanos(),
        des_nanos: plain.nanos(),
        des_events: plain.des_events,
    })
}
