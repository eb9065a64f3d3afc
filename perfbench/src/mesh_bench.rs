//! The `mesh_join` workload: a ring of `dgmc-node` processes on loopback,
//! driven one membership event at a time through the control sockets (a
//! closed loop with one outstanding command), plus an in-process sans-IO
//! replay of the same events through one `NodeCore` per switch.

use crate::metrics::{mean, median, peak_rss_mb, quantile, ratio, Summary};
use crate::spans::{Lane, Recorder, TimedAlgorithm};
use crate::workloads::{self, MeshInput};
use dgmc_core::switch::counters;
use dgmc_core::{McType, Role};
use dgmc_experiments::scenario::Step;
use dgmc_mctree::{McAlgorithm, SphStrategy};
use dgmc_node::frame::{decode_datagram, encode_datagram, frame_is_sane};
use dgmc_node::launcher::{Mesh, MeshError, MeshOptions};
use dgmc_node::proto::{NodeCore, Output};
use dgmc_obs::{JsonValue, MetricsRegistry};
use dgmc_topology::{NodeId, SpfCacheStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Where the node processes live and write their artifacts.
#[derive(Debug, Clone)]
pub struct MeshPlace {
    pub node_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// `Tc` handed to every node (the launcher's default).
const TC_NANOS: u64 = 300_000;
/// Per-hop delay of the sans-IO replay (the DES ATM regime).
const REPLAY_HOP_NANOS: u64 = 10_000;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("short interval")
}

/// Protocol counters summed over every node, plus sent datagrams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MeshCounts {
    computations: u64,
    floodings: u64,
    withdrawn: u64,
    installs: u64,
    disrupted_edges: u64,
    mc_lsas: u64,
    duplicates: u64,
    router_floods: u64,
    tx: u64,
}

impl MeshCounts {
    fn add_registry(&mut self, r: &MetricsRegistry) {
        for name in [
            counters::COMPUTATIONS,
            counters::FLOODINGS,
            counters::WITHDRAWN,
            counters::INSTALLS,
            counters::DISRUPTED_EDGES,
            counters::MC_LSAS,
            counters::DUPLICATES,
            counters::ROUTER_FLOODS,
        ] {
            self.add_counter(name, r.counter_value(name));
        }
    }

    fn add_counter(&mut self, name: &str, v: u64) {
        let slot = match name {
            counters::COMPUTATIONS => &mut self.computations,
            counters::FLOODINGS => &mut self.floodings,
            counters::WITHDRAWN => &mut self.withdrawn,
            counters::INSTALLS => &mut self.installs,
            counters::DISRUPTED_EDGES => &mut self.disrupted_edges,
            counters::MC_LSAS => &mut self.mc_lsas,
            counters::DUPLICATES => &mut self.duplicates,
            counters::ROUTER_FLOODS => &mut self.router_floods,
            _ => return,
        };
        *slot += v;
    }

    fn minus(&self, before: &MeshCounts) -> MeshCounts {
        MeshCounts {
            computations: self.computations - before.computations,
            floodings: self.floodings - before.floodings,
            withdrawn: self.withdrawn - before.withdrawn,
            installs: self.installs - before.installs,
            disrupted_edges: self.disrupted_edges - before.disrupted_edges,
            mc_lsas: self.mc_lsas - before.mc_lsas,
            duplicates: self.duplicates - before.duplicates,
            router_floods: self.router_floods - before.router_floods,
            tx: self.tx - before.tx,
        }
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn bad(id: usize, what: &str, reply: &str) -> MeshError {
    MeshError {
        message: format!("node {id}: bad {what} reply {reply:?}"),
    }
}

/// Reads every node's `metrics` and `status` replies.
fn mesh_counts(mesh: &mut Mesh) -> Result<MeshCounts, MeshError> {
    let mut total = MeshCounts::default();
    for id in 0..mesh.len() {
        let reply = mesh.command(id, "metrics")?;
        let json = JsonValue::parse(&reply).map_err(|_| bad(id, "metrics", &reply))?;
        if let Some(JsonValue::Obj(pairs)) = json.get("counters") {
            for (name, value) in pairs {
                if let JsonValue::U64(v) = value {
                    total.add_counter(name, *v);
                }
            }
        }
        let status = mesh.command(id, "status")?;
        total.tx += status_field(&status, "tx").ok_or_else(|| bad(id, "status", &status))?;
    }
    Ok(total)
}

/// Peak RSS of this process's children (the node processes), in MB.
fn children_peak_rss_mb() -> f64 {
    let pid = std::process::id();
    let Ok(list) = std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children")) else {
        return 0.0;
    };
    list.split_whitespace().map(peak_rss_mb).sum()
}

/// Polls every node's `status` until the mesh is quiet: the rule of
/// `Mesh::await_quiescence`, with each poll timed. Returns the poll rounds.
fn traced_quiescence(
    mesh: &mut Mesh,
    rec: &Rc<RefCell<Recorder>>,
    rtts: &mut Vec<f64>,
) -> Result<u64, MeshError> {
    let start = Instant::now();
    let mut last: Option<(u64, u64)> = None;
    let mut rounds = 0;
    loop {
        if start.elapsed() > Duration::from_secs(30) {
            return Err(MeshError {
                message: "mesh not quiescent within 30s".into(),
            });
        }
        rounds += 1;
        let mut quiet = true;
        let mut traffic = (0, 0);
        for id in 0..mesh.len() {
            let span = rec.borrow_mut().open("node.status", Lane::Node);
            let status = mesh.command(id, "status")?;
            rtts.push(rec.borrow_mut().close(span) as f64 / 1e6);
            let field = |k| status_field(&status, k).ok_or_else(|| bad(id, "status", &status));
            quiet &= field("quiet")? == 1 && field("timers")? == 0;
            traffic.0 += field("rx")?;
            traffic.1 += field("tx")?;
        }
        if quiet && last == Some(traffic) {
            return Ok(rounds);
        }
        last = Some(traffic);
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What one mesh pass measured.
#[derive(Debug, Default)]
struct MeshPass {
    setup_s: f64,
    spawn_ms: f64,
    event_ms: Vec<f64>,
    counts: MeshCounts,
    tree_costs: BTreeMap<u64, u64>,
    rss_mb: f64,
    poll_rounds: Vec<f64>,
}

/// Spawns the ring, joins the warm-up members, runs the measured events and
/// collects the report. `rec` switches on the traced quiescence loop.
fn mesh_pass(
    summary: &mut Summary,
    input: &MeshInput,
    place: &MeshPlace,
    out: &Path,
    rec: Option<(&Rc<RefCell<Recorder>>, &mut Vec<f64>)>,
) -> Option<MeshPass> {
    let mut opts = MeshOptions::new(out);
    opts.binary = Some(place.node_bin.clone());
    opts.tc_nanos = TC_NANOS;
    let mut pass = MeshPass::default();
    let t = Instant::now();
    let mesh = Mesh::spawn(&input.scenario, &opts);
    pass.spawn_ms = t.elapsed().as_secs_f64() * 1e3;
    let result = (|| {
        let mut mesh = mesh?;
        for step in &input.warm_up {
            mesh.apply_step(&input.scenario, step)?;
            mesh.await_quiescence()?;
        }
        let before = mesh_counts(&mut mesh)?;
        pass.setup_s = t.elapsed().as_secs_f64();
        let mut rec = rec;
        for step in &input.events {
            let t = Instant::now();
            let outcome = match &mut rec {
                None => mesh
                    .apply_step(&input.scenario, step)
                    .and_then(|()| mesh.await_quiescence()),
                Some((rec, rtts)) => {
                    let span = rec.borrow_mut().open("node.event", Lane::Node);
                    let outcome = mesh.apply_step(&input.scenario, step).and_then(|()| {
                        let polls = rec.borrow_mut().open("node.quiescence", Lane::Node);
                        let rounds = traced_quiescence(&mut mesh, rec, rtts);
                        rec.borrow_mut().close(polls);
                        rounds.map(|r| pass.poll_rounds.push(r as f64))
                    });
                    rec.borrow_mut().close(span);
                    outcome
                }
            };
            summary.op(outcome.is_ok());
            outcome?;
            pass.event_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass.counts = mesh_counts(&mut mesh)?.minus(&before);
        pass.rss_mb = children_peak_rss_mb();
        mesh.collect()
    })();
    let _ = std::fs::remove_dir_all(out);
    match result {
        Ok(report) => {
            summary.op(report.violations.is_empty());
            for v in &report.violations {
                eprintln!("perfbench: mesh invariant violation: {v}");
            }
            pass.tree_costs = report.tree_costs;
            Some(pass)
        }
        Err(e) => {
            eprintln!("perfbench: mesh pass failed: {e}");
            summary.op(false);
            None
        }
    }
}

// ---------------------------------------------------------------------
// sans-IO replay
// ---------------------------------------------------------------------

enum Item {
    Frame { to: usize, bytes: Vec<u8> },
    Timer { node: usize, mc: dgmc_core::McId },
}

/// What the replay measured over the events (warm-up excluded).
#[derive(Debug, Default)]
struct ReplayOutcome {
    counts: MeshCounts,
    /// Convergence of each event in rounds of `Tf + Tc` (virtual time).
    rounds: Vec<f64>,
    tree_costs: BTreeMap<u64, u64>,
    items: u64,
    wall_nanos: u64,
    core_nanos: u64,
    encode_nanos: u64,
    decode_nanos: u64,
    frame_bytes: Vec<f64>,
    spf: SpfCacheStats,
    mctree_calls: u64,
    mctree_nanos: u64,
    mctree_self_nanos: u64,
}

/// Replays the mesh input through one `NodeCore` per switch, delivering
/// every datagram through `encode_datagram`/`decode_datagram` after a fixed
/// per-hop delay in virtual time. With a recorder, the core handlers run
/// under spans and the trees are computed by the timing wrapper.
struct Replay<'a> {
    cores: Vec<NodeCore>,
    queue: BTreeMap<(u64, u64), Item>,
    seq: u64,
    now: u64,
    last_install: u64,
    rec: Option<&'a Rc<RefCell<Recorder>>>,
    out: ReplayOutcome,
}

impl Replay<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let span = self
            .rec
            .map(|r| r.borrow_mut().open("node.core", Lane::Node));
        let t = Instant::now();
        let out = f(self);
        let dt = nanos(t.elapsed());
        if let (Some(r), Some(span)) = (self.rec, span) {
            r.borrow_mut().close(span);
        }
        (out, dt)
    }

    fn handle(&mut self, node: usize, f: impl FnOnce(&mut NodeCore, u64) -> Vec<Output>) {
        let installs = self.cores[node].metrics().counter_value(counters::INSTALLS);
        let now = self.now;
        let (outputs, dt) = self.timed(|r| f(&mut r.cores[node], now));
        self.out.core_nanos += dt;
        if self.cores[node].metrics().counter_value(counters::INSTALLS) > installs {
            self.last_install = now;
        }
        for output in outputs {
            self.seq += 1;
            match output {
                Output::Send { to, frame } => {
                    let t = Instant::now();
                    let bytes = encode_datagram(NodeId(node as u32), &frame);
                    self.out.encode_nanos += nanos(t.elapsed());
                    self.out.frame_bytes.push(bytes.len() as f64);
                    self.queue.insert(
                        (now + REPLAY_HOP_NANOS, self.seq),
                        Item::Frame {
                            to: to.index(),
                            bytes,
                        },
                    );
                }
                Output::StartTimer { mc, after_nanos } => {
                    self.queue
                        .insert((now + after_nanos, self.seq), Item::Timer { node, mc });
                }
            }
        }
    }

    fn drain(&mut self) -> Result<(), String> {
        while let Some(((at, _), item)) = self.queue.pop_first() {
            self.now = at;
            self.out.items += 1;
            match item {
                Item::Frame { to, bytes } => {
                    let t = Instant::now();
                    let decoded = decode_datagram(&bytes);
                    self.out.decode_nanos += nanos(t.elapsed());
                    let (from, frame) = decoded.map_err(|e| format!("decode: {e:?}"))?;
                    if !frame_is_sane(from, &frame, self.cores.len()) {
                        return Err(format!("insane frame from {from}"));
                    }
                    self.handle(to, |core, now| core.on_frame(now, from, frame));
                }
                Item::Timer { node, mc } => {
                    self.handle(node, |core, now| core.on_computation_done(now, mc));
                }
            }
        }
        Ok(())
    }

    fn step(&mut self, step: &Step) -> Result<(), String> {
        match *step {
            Step::Join { node, mc, .. } => self.handle(node.index(), |core, now| {
                core.on_join(now, mc, McType::Symmetric, Role::SenderReceiver)
            }),
            Step::Leave { node, mc, .. } => {
                self.handle(node.index(), |core, now| core.on_leave(now, mc));
            }
            _ => return Err("the mesh workload has membership events only".into()),
        }
        self.drain()
    }

    fn counts(&self) -> MeshCounts {
        let mut c = MeshCounts::default();
        for core in &self.cores {
            c.add_registry(core.metrics());
        }
        c
    }
}

fn replay(input: &MeshInput, rec: Option<&Rc<RefCell<Recorder>>>) -> Result<ReplayOutcome, String> {
    let net = &input.scenario.net;
    let mut timed = Vec::new();
    let cores = net
        .nodes()
        .map(|n| {
            let alg: Rc<dyn McAlgorithm> = match rec {
                Some(r) => {
                    let t = Rc::new(TimedAlgorithm::new(SphStrategy::new(), r.clone()));
                    timed.push(t.clone());
                    t
                }
                None => Rc::new(SphStrategy::new()),
            };
            NodeCore::new(n, net, TC_NANOS, alg)
        })
        .collect();
    let mut r = Replay {
        cores,
        queue: BTreeMap::new(),
        seq: 0,
        now: 0,
        last_install: 0,
        rec,
        out: ReplayOutcome::default(),
    };
    for step in &input.warm_up {
        r.step(step)?;
    }
    let before = r.counts();
    r.out = ReplayOutcome::default();
    let hops = u64::from(dgmc_topology::metrics::flooding_diameter_hops(net));
    let round = (REPLAY_HOP_NANOS * hops + TC_NANOS) as f64;
    let wall = Instant::now();
    for step in &input.events {
        let start = r.now;
        r.step(step)?;
        if r.last_install >= start {
            r.out.rounds.push((r.last_install - start) as f64 / round);
        }
    }
    r.out.wall_nanos = nanos(wall.elapsed());
    r.out.counts = r.counts().minus(&before);
    r.out.counts.tx = r.out.frame_bytes.len() as u64;
    for core in &r.cores[..1] {
        for mc in core.engine().mc_ids() {
            let installed = core.engine().state(mc).and_then(|s| s.installed.as_ref());
            if let Some(cost) = installed.and_then(|t| dgmc_mctree::metrics::tree_cost(t, net)) {
                r.out.tree_costs.insert(u64::from(mc.0), cost);
            }
        }
    }
    for t in &timed {
        if let Some(cache) = t.cache() {
            let s = cache.stats();
            let o = &mut r.out.spf;
            o.hits += s.hits;
            o.misses += s.misses;
            o.repairs += s.repairs;
            o.settled_nodes += s.settled_nodes;
            o.miss_nanos += s.miss_nanos;
        }
    }
    for t in &timed {
        let c = t.totals();
        r.out.mctree_calls += c.calls;
        r.out.mctree_nanos += c.nanos;
        r.out.mctree_self_nanos += c.self_nanos();
    }
    Ok(r.out)
}

/// Checks the live mesh against the replay of the same events.
fn check_against_replay(summary: &mut Summary, pass: &MeshPass, replay: &ReplayOutcome) {
    let (live, sim) = (&pass.counts, &replay.counts);
    summary.expect_eq(
        "mesh vs replay computations",
        live.computations,
        sim.computations,
    );
    summary.expect_eq("mesh vs replay floodings", live.floodings, sim.floodings);
    summary.expect_eq("mesh vs replay datagrams", live.tx, sim.tx);
    summary.expect_eq(
        "mesh vs replay tree costs",
        &pass.tree_costs,
        &replay.tree_costs,
    );
}

fn pass_dir(place: &MeshPlace, seed: u64, tag: &str, i: usize) -> PathBuf {
    place
        .out_dir
        .join(format!("mesh-{seed}-{tag}-{i}-{}", std::process::id()))
}

/// Untraced `mesh_join` run: the end-to-end metrics.
pub fn mesh_e2e(seed: u64, seconds: f64, place: &MeshPlace) -> Summary {
    let mut summary = Summary::new();
    let input = workloads::mesh_join(seed);
    let replayed = replay(&input, None);
    let replayed = match replayed {
        Ok(r) => r,
        Err(e) => {
            summary.problem(format!("replay failed: {e}"));
            ReplayOutcome::default()
        }
    };
    let mut passes: Vec<MeshPass> = Vec::new();
    let mut tries = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        tries += 1;
        let out = pass_dir(place, seed, "e2e", tries);
        let Some(pass) = mesh_pass(&mut summary, &input, place, &out, None) else {
            continue;
        };
        check_against_replay(&mut summary, &pass, &replayed);
        if let Some(p0) = passes.first() {
            summary.expect_eq("counts repeat across passes", p0.counts, pass.counts);
        }
        passes.push(pass);
    }
    if passes.is_empty() {
        summary.problem("no mesh pass completed".into());
        passes.push(MeshPass::default());
    }
    let first = &passes[0];
    let events = input.events.len() as f64;
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| {
            ratio(
                p.event_ms.len() as f64,
                p.event_ms.iter().sum::<f64>() / 1e3,
            )
        })
        .collect();
    let event_ms: Vec<f64> = passes.iter().flat_map(|p| p.event_ms.clone()).collect();
    let costs: Vec<f64> = first.tree_costs.values().map(|&c| c as f64).collect();
    summary.set("setup_s", median(&setup));
    summary.set("events_per_s", median(&rates));
    summary.set("event_ms.p50", quantile(&event_ms, 0.5));
    summary.set("event_ms.p90", quantile(&event_ms, 0.9));
    let c = &first.counts;
    summary.set("proposals_per_event", ratio(c.computations as f64, events));
    summary.set("floodings_per_event", ratio(c.floodings as f64, events));
    summary.set("convergence_rounds", mean(&replayed.rounds));
    summary.set("tree_cost", mean(&costs));
    summary.set("datagrams_per_event", ratio(c.tx as f64, events));
    summary.set(
        "peak_rss_mb",
        median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
    );
    summary.set_success_ratio();
    summary
}

/// Traced `mesh_join` run: an untraced pass, a traced pass with every
/// control command timed, and the traced sans-IO replay.
pub fn mesh_traced(
    seed: u64,
    seconds: f64,
    place: &MeshPlace,
    rec: &Rc<RefCell<Recorder>>,
) -> Summary {
    let mut summary = Summary::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut rtts = Vec::new();
    let mut generate = Vec::new();
    let mut replays = Vec::new();
    let started = Instant::now();
    for i in 1..=32 {
        let pass_id = rec.borrow_mut().open("pass", Lane::Bench);
        let (input, ns) = rec
            .borrow_mut()
            .time("topology.generate", Lane::Topology, || {
                workloads::mesh_join(seed)
            });
        generate.push(ns as f64 / 1e6);
        let id = rec.borrow_mut().open("node.pass_untraced", Lane::Node);
        let out = pass_dir(place, seed, "plain", i);
        let plain = mesh_pass(&mut summary, &input, place, &out, None);
        rec.borrow_mut().close(id);
        let id = rec.borrow_mut().open("node.pass", Lane::Node);
        let out = pass_dir(place, seed, "traced", i);
        let pass = mesh_pass(&mut summary, &input, place, &out, Some((rec, &mut rtts)));
        rec.borrow_mut().close(id);
        let id = rec.borrow_mut().open("node.replay", Lane::Node);
        let replayed = replay(&input, Some(rec));
        rec.borrow_mut().close(id);
        rec.borrow_mut().close(pass_id);
        match replayed {
            Ok(r) => replays.push(r),
            Err(e) => summary.problem(format!("replay failed: {e}")),
        }
        if let (Some(plain), Some(pass), Some(r)) = (plain, pass, replays.last()) {
            check_against_replay(&mut summary, &plain, r);
            summary.expect_eq("traced mesh counts", plain.counts, pass.counts);
            untraced.push(plain);
            traced.push(pass);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if untraced.is_empty() || replays.is_empty() {
        summary.problem("no traced mesh pass completed".into());
        untraced.push(MeshPass::default());
        traced.push(MeshPass::default());
        replays.push(ReplayOutcome::default());
    }
    let events = workloads::MESH_EVENTS as f64;
    let r = &replays[0];
    let med =
        |f: &dyn Fn(&ReplayOutcome) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let c = &r.counts;
    summary.set("topology.generate_ms", median(&generate));
    summary.set("topology.spf.hits", r.spf.hits as f64);
    summary.set("topology.spf.misses", r.spf.misses as f64);
    summary.set("topology.spf.repairs", r.spf.repairs as f64);
    summary.set("topology.spf.settled_nodes", r.spf.settled_nodes as f64);
    summary.set(
        "topology.spf.hit_ratio",
        ratio(r.spf.hits as f64, (r.spf.hits + r.spf.misses) as f64),
    );
    summary.set(
        "topology.spf.miss_ms",
        med(&|x| x.spf.miss_nanos as f64 / 1e6),
    );
    summary.set("mctree.calls", r.mctree_calls as f64);
    summary.set("mctree.ms", med(&|x| x.mctree_nanos as f64 / 1e6));
    summary.set("mctree.self_ms", med(&|x| x.mctree_self_nanos as f64 / 1e6));
    summary.set(
        "mctree.us_per_call",
        med(&|x| ratio(x.mctree_nanos as f64 / 1e3, x.mctree_calls as f64)),
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
        med(&|x| {
            x.core_nanos
                .saturating_sub(x.mctree_self_nanos)
                .saturating_sub(x.spf.miss_nanos) as f64
                / 1e6
        }),
    );
    summary.set("lsr.mc_lsas", c.mc_lsas as f64);
    summary.set("lsr.duplicates", c.duplicates as f64);
    summary.set(
        "lsr.dup_ratio",
        ratio(c.duplicates as f64, (c.duplicates + c.mc_lsas) as f64),
    );
    summary.set("lsr.router_floods", c.router_floods as f64);
    summary.set("des.events", r.items as f64);
    summary.set(
        "des.ns_per_event",
        med(&|x| ratio(x.wall_nanos as f64, x.items as f64)),
    );
    // The mesh runs no experiment runner, so it has no metrics mode.
    summary.set("obs.metrics_mode_ratio", 0.0);
    let latency =
        |passes: &[MeshPass]| median(&passes.iter().map(|p| mean(&p.event_ms)).collect::<Vec<_>>());
    summary.set(
        "trace.overhead_ratio",
        ratio(latency(&traced), latency(&untraced)),
    );
    summary.set(
        "node.spawn_ms",
        median(&untraced.iter().map(|p| p.spawn_ms).collect::<Vec<_>>()),
    );
    summary.set("node.ctl_rtt_ms", median(&rtts));
    summary.set(
        "node.polls_per_event",
        mean(
            &traced
                .iter()
                .flat_map(|p| p.poll_rounds.clone())
                .collect::<Vec<_>>(),
        ),
    );
    summary.set("node.tx_datagrams", untraced[0].counts.tx as f64);
    summary.set("node.core_us", med(&|x| x.core_nanos as f64 / 1e3 / events));
    summary.set(
        "node.encode_us",
        med(&|x| x.encode_nanos as f64 / 1e3 / events),
    );
    summary.set(
        "node.decode_us",
        med(&|x| x.decode_nanos as f64 / 1e3 / events),
    );
    summary.set("node.frame_bytes", mean(&r.frame_bytes));
    summary.set(
        "node.max_frame_bytes",
        r.frame_bytes.iter().copied().fold(0.0, f64::max),
    );
    summary.set(
        "node.io_ms",
        latency(&untraced) - med(&|x| x.wall_nanos as f64 / 1e6 / events),
    );
    summary
}
