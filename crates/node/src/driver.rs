//! The node's I/O loop: one UDP socket for protocol traffic, one
//! line-oriented TCP control socket for scripting.
//!
//! The driver owns everything impure — sockets, the monotonic clock, the
//! timer wheel, the loss shim — and funnels it all through the sans-IO
//! [`NodeCore`]. On startup it prints one handshake line to stdout:
//!
//! ```text
//! ready udp=127.0.0.1:PORT ctl=127.0.0.1:PORT
//! ```
//!
//! and then serves control commands until `quit`:
//!
//! | command | effect |
//! |---|---|
//! | `peers 0=ADDR;1=ADDR;…` | learn every node's UDP address |
//! | `join MC [TYPE] [ROLE]` | local host joins `MC` |
//! | `leave MC` | local host leaves `MC` |
//! | `link A B up\|down 0\|1` | incident link event (last field: detector) |
//! | `admin up\|down` | administrative node failure / revival |
//! | `send MC ID` | inject data packet `ID` into `MC` |
//! | `status` | `quiet=… timers=… rx=… tx=… log=… mcs=…` |
//! | `state` | one-line JSON engine snapshot |
//! | `metrics` | one-line JSON metrics registry |
//! | `quit` | write artifacts to `--out`, reply `bye`, exit |
//!
//! Every command gets exactly one reply line, so a scripting harness can
//! treat the control socket as synchronous request/response.

use crate::clock::{TickClock, Timer, Timers};
use crate::fault::SendShim;
use crate::frame::{decode_datagram, encode_datagram, frame_is_sane};
use crate::proto::{node_counters, NodeCore, Output};
use crate::snapshot::engine_snapshot;
use dgmc_core::McId;
use dgmc_des::net::FaultPlan;
use dgmc_mctree::{McType, Role, SphStrategy};
use dgmc_obs::{DecisionLogHandle, JsonValue};
use dgmc_topology::{NetworkBuilder, NodeId};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

/// Configuration of one node process.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// This node's switch id.
    pub id: u32,
    /// Network width (number of switches).
    pub nodes: u32,
    /// Ground-truth links as `(a, b, cost)`, in a fixed order shared by
    /// every process so `LinkId`s agree network-wide.
    pub links: Vec<(u32, u32, u64)>,
    /// `Tc` — the topology computation time, in nanoseconds of real time.
    pub tc_nanos: u64,
    /// Directory for end-of-run artifacts (decision log, metrics, state).
    pub out_dir: PathBuf,
    /// Loss shim plan (`None` = transparent).
    pub fault_plan: Option<FaultPlan>,
    /// Loss shim seed.
    pub seed: u64,
    /// Decision log capacity (events kept in memory).
    pub log_capacity: usize,
}

impl NodeOptions {
    /// Defaults for node `id` in an `nodes`-switch network: Tc = 300 µs (the
    /// DES computation-dominated regime), no faults, 64k log events.
    pub fn new(id: u32, nodes: u32, links: Vec<(u32, u32, u64)>) -> NodeOptions {
        NodeOptions {
            id,
            nodes,
            links,
            tc_nanos: 300_000,
            out_dir: PathBuf::from("."),
            fault_plan: None,
            seed: 0,
            log_capacity: 65_536,
        }
    }
}

/// How long one poll iteration blocks on the UDP socket at most. Keeps
/// control-socket latency bounded without spinning.
const POLL: Duration = Duration::from_millis(2);
/// Smallest read timeout we hand the kernel (zero would disable it).
const MIN_WAIT: Duration = Duration::from_micros(50);

struct ControlConn {
    stream: TcpStream,
    buf: Vec<u8>,
    alive: bool,
}

struct Driver {
    core: NodeCore,
    log: DecisionLogHandle,
    clock: TickClock,
    timers: Timers,
    shim: SendShim,
    udp: UdpSocket,
    peers: HashMap<u32, SocketAddr>,
    /// Shim-delayed datagrams waiting on a `Resend` timer.
    pending: HashMap<u64, (SocketAddr, Vec<u8>)>,
    next_resend: u64,
    tx: u64,
    out_dir: PathBuf,
    id: u32,
}

/// Runs a node to completion (until a `quit` control command).
///
/// # Errors
///
/// Propagates socket and filesystem errors; protocol-level junk (undecodable
/// datagrams, unknown control commands) and refused datagram sends are
/// counted and survived.
pub fn run_node(opts: NodeOptions) -> std::io::Result<()> {
    let mut builder = NetworkBuilder::new(opts.nodes as usize);
    for &(a, b, cost) in &opts.links {
        builder = builder.link(a, b, cost);
    }
    let net = builder.build();
    let core = NodeCore::new(
        NodeId(opts.id),
        &net,
        opts.tc_nanos,
        Rc::new(SphStrategy::new()),
    );
    let log = core.attach_log(opts.log_capacity);
    let udp = UdpSocket::bind("127.0.0.1:0")?;
    let ctl = TcpListener::bind("127.0.0.1:0")?;
    ctl.set_nonblocking(true)?;
    println!("ready udp={} ctl={}", udp.local_addr()?, ctl.local_addr()?);
    std::io::stdout().flush()?;

    let mut driver = Driver {
        shim: SendShim::new(
            opts.fault_plan.clone().unwrap_or_default(),
            opts.seed,
            opts.id,
        ),
        core,
        log,
        clock: TickClock::new(),
        timers: Timers::new(),
        udp,
        peers: HashMap::new(),
        pending: HashMap::new(),
        next_resend: 0,
        tx: 0,
        out_dir: opts.out_dir.clone(),
        id: opts.id,
    };
    let mut conns: Vec<ControlConn> = Vec::new();
    let mut buf = vec![0u8; 65_536];
    loop {
        driver.fire_due_timers();

        // New control connections.
        loop {
            match ctl.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    conns.push(ControlConn {
                        stream,
                        buf: Vec::new(),
                        alive: true,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }

        // Control commands.
        let mut quit = false;
        for conn in &mut conns {
            for line in read_lines(conn) {
                let (reply, done) = driver.handle_command(line.trim())?;
                // The harness may already be gone; a dead control pipe must
                // not kill the node mid-teardown.
                let _ = writeln!(conn.stream, "{reply}");
                quit |= done;
            }
        }
        conns.retain(|c| c.alive);
        if quit {
            return Ok(());
        }

        // Protocol datagrams, blocking until the next timer at most.
        let now = driver.clock.now_nanos();
        let wait = driver
            .timers
            .sleep_until_next(now)
            .unwrap_or(POLL)
            .clamp(MIN_WAIT, POLL);
        driver.udp.set_read_timeout(Some(wait))?;
        match driver.udp.recv_from(&mut buf) {
            Ok((len, _src)) => driver.on_datagram(&buf[..len]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Drains available bytes from a control connection and returns the
/// complete lines received.
fn read_lines(conn: &mut ControlConn) -> Vec<String> {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.alive = false;
                break;
            }
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.alive = false;
                break;
            }
        }
    }
    let mut lines = Vec::new();
    while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.buf.drain(..=pos).collect();
        lines.push(String::from_utf8_lossy(&line).into_owned());
    }
    lines
}

impl Driver {
    fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn fire_due_timers(&mut self) {
        let now = self.now();
        for timer in self.timers.pop_due(now) {
            match timer {
                Timer::Compute(mc) => {
                    let outs = self.core.on_computation_done(self.now(), mc);
                    self.apply(outs);
                }
                Timer::Resend(seq) => {
                    if let Some((addr, bytes)) = self.pending.remove(&seq) {
                        self.send_datagram(&bytes, addr);
                    }
                }
            }
        }
    }

    fn count(&mut self, name: &str) {
        *self.core.metrics_mut().counter_slot(name) += 1;
    }

    /// Puts one datagram on the socket. A refused send (e.g. `EMSGSIZE`)
    /// is counted under `node.send_errors`; it must not end the node.
    fn send_datagram(&mut self, bytes: &[u8], addr: SocketAddr) {
        match self.udp.send_to(bytes, addr) {
            Ok(_) => self.tx += 1,
            Err(_) => self.count(node_counters::SEND_ERRORS),
        }
    }

    fn on_datagram(&mut self, bytes: &[u8]) {
        self.count(node_counters::RX_DATAGRAMS);
        let Ok((from, frame)) = decode_datagram(bytes) else {
            self.count(node_counters::DECODE_ERRORS);
            return;
        };
        if !frame_is_sane(from, &frame, self.core.image().len()) {
            self.count(node_counters::INSANE_FRAMES);
            return;
        }
        let outs = self.core.on_frame(self.now(), from, frame);
        self.apply(outs);
    }

    fn apply(&mut self, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::StartTimer { mc, after_nanos } => {
                    self.timers
                        .arm(self.now() + after_nanos, Timer::Compute(mc));
                }
                Output::Send { to, frame } => {
                    let Some(&addr) = self.peers.get(&to.0) else {
                        continue;
                    };
                    let bytes = encode_datagram(NodeId(self.id), &frame);
                    let copies = self.shim.fate(to.0);
                    if copies.is_empty() {
                        self.count(node_counters::SHIM_DROPS);
                        continue;
                    }
                    for delay in copies {
                        if delay == 0 {
                            self.send_datagram(&bytes, addr);
                        } else {
                            self.count(node_counters::SHIM_RETRANSMITS);
                            let seq = self.next_resend;
                            self.next_resend += 1;
                            self.pending.insert(seq, (addr, bytes.clone()));
                            self.timers.arm(self.now() + delay, Timer::Resend(seq));
                        }
                    }
                    self.count(node_counters::TX_DATAGRAMS);
                }
            }
        }
    }

    fn state_json(&self) -> String {
        let delivered = self
            .core
            .deliveries()
            .iter()
            .map(|(&(mc, pid), &copies)| {
                JsonValue::Arr(vec![
                    JsonValue::U64(u64::from(mc.0)),
                    JsonValue::U64(pid),
                    JsonValue::U64(u64::from(copies)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("node", JsonValue::U64(u64::from(self.id))),
            (
                "engine",
                engine_snapshot(self.core.engine(), self.core.image()),
            ),
            ("delivered", JsonValue::Arr(delivered)),
        ])
        .to_json()
    }

    fn write_artifacts(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let id = self.id;
        std::fs::write(
            self.out_dir.join(format!("node{id}.log.jsonl")),
            self.log.borrow().to_jsonl(),
        )?;
        std::fs::write(
            self.out_dir.join(format!("node{id}.metrics.json")),
            self.core.metrics().to_json().to_json(),
        )?;
        std::fs::write(
            self.out_dir.join(format!("node{id}.state.json")),
            self.state_json(),
        )?;
        Ok(())
    }

    /// Executes one control command, returning `(reply, quit)`.
    fn handle_command(&mut self, line: &str) -> std::io::Result<(String, bool)> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let reply = match tokens.as_slice() {
            [] => "ok".to_owned(),
            ["peers", spec] => match parse_peers(spec) {
                Ok(peers) => {
                    self.peers = peers;
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["join", mc, rest @ ..] => match parse_join(mc, rest) {
                Ok((mc, mc_type, role)) => {
                    let outs = self.core.on_join(self.now(), mc, mc_type, role);
                    self.apply(outs);
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["leave", mc] => match parse_mc(mc) {
                Ok(mc) => {
                    let outs = self.core.on_leave(self.now(), mc);
                    self.apply(outs);
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["link", a, b, state, detector] => match parse_link(self.id, a, b, state, detector) {
                Ok((neighbor, up, detector)) => {
                    let outs = self.core.on_link_event(self.now(), neighbor, up, detector);
                    self.apply(outs);
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["admin", state] => match parse_up_down(state) {
                Ok(up) => {
                    let outs = self.core.on_admin(up);
                    self.apply(outs);
                    "ok".to_owned()
                }
                Err(e) => format!("err {e}"),
            },
            ["send", mc, pid] => match (parse_mc(mc), pid.parse::<u64>()) {
                (Ok(mc), Ok(pid)) => {
                    let outs = self.core.on_send_data(self.now(), mc, pid);
                    self.apply(outs);
                    "ok".to_owned()
                }
                _ => format!("err bad send arguments {mc:?} {pid:?}"),
            },
            ["status"] => format!(
                "quiet={} timers={} rx={} tx={} log={} mcs={}",
                u8::from(self.core.engine().is_quiet()),
                self.timers.len(),
                self.core
                    .metrics()
                    .counter_value(node_counters::RX_DATAGRAMS),
                self.tx,
                self.log.borrow().len(),
                self.core.engine().mc_count(),
            ),
            ["state"] => self.state_json(),
            ["metrics"] => self.core.metrics().to_json().to_json(),
            ["quit"] => {
                self.write_artifacts()?;
                return Ok(("bye".to_owned(), true));
            }
            other => format!("err unknown command {other:?}"),
        };
        Ok((reply, false))
    }
}

fn parse_peers(spec: &str) -> Result<HashMap<u32, SocketAddr>, String> {
    let mut peers = HashMap::new();
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (id, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("bad peer entry {part:?}"))?;
        let id: u32 = id.parse().map_err(|_| format!("bad peer id {id:?}"))?;
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| format!("bad peer addr {addr:?}"))?;
        peers.insert(id, addr);
    }
    Ok(peers)
}

fn parse_mc(tok: &str) -> Result<McId, String> {
    tok.parse::<u32>()
        .map(McId)
        .map_err(|_| format!("bad mc id {tok:?}"))
}

fn parse_join(mc: &str, rest: &[&str]) -> Result<(McId, McType, Role), String> {
    let mc = parse_mc(mc)?;
    let mc_type = match rest.first() {
        None | Some(&"symmetric") => McType::Symmetric,
        Some(&"receiver_only") => McType::ReceiverOnly,
        Some(&"asymmetric") => McType::Asymmetric,
        Some(other) => return Err(format!("bad mc type {other:?}")),
    };
    let role = match rest.get(1) {
        None | Some(&"sender_receiver") => Role::SenderReceiver,
        Some(&"sender") => Role::Sender,
        Some(&"receiver") => Role::Receiver,
        Some(other) => return Err(format!("bad role {other:?}")),
    };
    Ok((mc, mc_type, role))
}

fn parse_link(
    me: u32,
    a: &str,
    b: &str,
    state: &str,
    detector: &str,
) -> Result<(NodeId, bool, bool), String> {
    let a: u32 = a.parse().map_err(|_| format!("bad node id {a:?}"))?;
    let b: u32 = b.parse().map_err(|_| format!("bad node id {b:?}"))?;
    let neighbor = if a == me {
        b
    } else if b == me {
        a
    } else {
        return Err(format!("link {a}-{b} is not incident to node {me}"));
    };
    let up = parse_up_down(state)?;
    let detector = match detector {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad detector flag {other:?}")),
    };
    Ok((NodeId(neighbor), up, detector))
}

fn parse_up_down(tok: &str) -> Result<bool, String> {
    match tok {
        "up" => Ok(true),
        "down" => Ok(false),
        other => Err(format!("bad state {other:?} (up|down)")),
    }
}
