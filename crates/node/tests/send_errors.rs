//! A datagram the socket refuses must not kill the node: the send error is
//! counted under `node.send_errors` and the event loop keeps serving.

use dgmc_node::proto::node_counters;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Path length: the database exchange node 0 sends after a link-up event
/// carries one router LSA per switch, 48 bytes each on a path, so 2,000
/// switches make a ~96 kB datagram — above the 65,507-byte UDP limit.
const SWITCHES: u32 = 2_000;

/// Kills the node if the test fails before `quit`.
struct Node(Child);

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn command(ctl: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(ctl.get_mut(), "{line}").expect("write command");
    let mut reply = String::new();
    ctl.read_line(&mut reply).expect("read reply");
    reply.trim_end().to_owned()
}

fn send_errors(ctl: &mut BufReader<TcpStream>) -> u64 {
    let metrics = command(ctl, "metrics");
    let key = format!("\"{}\":", node_counters::SEND_ERRORS);
    metrics.split_once(&key).map_or(0, |(_, rest)| {
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("counter value")
    })
}

#[test]
fn oversized_datagram_is_counted_and_the_node_keeps_running() {
    let links = (1..SWITCHES)
        .map(|b| format!("{}-{b}:1", b - 1))
        .collect::<Vec<_>>()
        .join(",");
    let out_dir = std::env::temp_dir().join(format!("dgmc-send-errors-{}", std::process::id()));
    let mut node = Node(
        Command::new(env!("CARGO_BIN_EXE_dgmc-node"))
            .args([
                "--id",
                "0",
                "--nodes",
                &SWITCHES.to_string(),
                "--links",
                &links,
            ])
            .arg("--out")
            .arg(&out_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dgmc-node"),
    );
    let mut handshake = String::new();
    BufReader::new(node.0.stdout.take().expect("stdout"))
        .read_line(&mut handshake)
        .expect("read handshake");
    let ctl_addr = handshake
        .split_whitespace()
        .find_map(|field| field.strip_prefix("ctl="))
        .unwrap_or_else(|| panic!("bad handshake {handshake:?}"));
    let mut ctl = BufReader::new(TcpStream::connect(ctl_addr).expect("connect control"));

    // Switch 1 is a local socket standing in for the neighbour.
    let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("peer timeout");
    let peers = format!("peers 1={}", peer.local_addr().expect("peer addr"));
    assert_eq!(command(&mut ctl, &peers), "ok");
    assert_eq!(send_errors(&mut ctl), 0);

    // Link up, not the detector: only the oversized database exchange.
    assert_eq!(command(&mut ctl, "link 0 1 up 0"), "ok");
    assert_eq!(send_errors(&mut ctl), 1);
    assert!(command(&mut ctl, "status").starts_with("quiet="));

    // Link up as detector: another oversized exchange, then the router LSA
    // flood, which still reaches the neighbour.
    assert_eq!(command(&mut ctl, "link 0 1 up 1"), "ok");
    assert_eq!(send_errors(&mut ctl), 2);
    let mut buf = [0u8; 2048];
    let (len, _) = peer
        .recv_from(&mut buf)
        .expect("router LSA reaches the peer");
    assert!(len > 0);

    assert_eq!(command(&mut ctl, "quit"), "bye");
    let _ = std::fs::remove_dir_all(&out_dir);
}
