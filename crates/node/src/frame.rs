//! Outer UDP datagram framing and semantic validation.
//!
//! One datagram carries exactly one [`Frame`], the core's unit of
//! switch-to-switch traffic:
//!
//! ```text
//! Datagram := magic:u8(0xD6) version:u8(0x01) from:u32 kind:u8 body
//! kind     := 0x01 flood (FloodPacket) | 0x02 db-sync | 0x03 data
//! ```
//!
//! The inner encodings come from [`dgmc_core::codec`] — byte-identical to
//! what the DES size-accounting uses — so the node speaks exactly the wire
//! format the paper's packet-size numbers assume.
//!
//! Decoding is total (any byte soup yields a clean [`CodecError`]), but
//! totality is not enough: the protocol engine *asserts* structural
//! invariants such as "vector timestamps have one component per switch".
//! [`frame_is_sane`] therefore checks every decoded frame against the
//! network width before it may touch the engine; the driver drops and
//! counts frames that fail.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dgmc_core::codec::{
    decode_data_msg, decode_db_sync, decode_flood_packet, encode_data_msg, encode_db_sync,
    encode_flood_packet,
};
pub use dgmc_core::switch::Frame;
use dgmc_core::switch::{DataKind, DgmcPayload};
use dgmc_core::{McSync, Timestamp};
use dgmc_lsr::codec::CodecError;
use dgmc_lsr::lsa::RouterLsa;
use dgmc_mctree::McTopology;
use dgmc_topology::NodeId;

/// First byte of every D-GMC datagram.
pub const MAGIC: u8 = 0xD6;
/// Wire format version.
pub const VERSION: u8 = 0x01;

/// Encodes `frame` as one datagram from node `from`.
pub fn encode_datagram(from: NodeId, frame: &Frame) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32(from.0);
    match frame {
        Frame::Flood(packet) => {
            out.put_u8(0x01);
            encode_flood_packet(packet, &mut out);
        }
        Frame::DbSync {
            router_lsas,
            mc_states,
        } => {
            out.put_u8(0x02);
            encode_db_sync(router_lsas, mc_states, &mut out);
        }
        Frame::Data(data) => {
            out.put_u8(0x03);
            encode_data_msg(data, &mut out);
        }
    }
    out.to_vec()
}

/// Decodes one datagram into `(sender, frame)`.
///
/// # Errors
///
/// [`CodecError::BadTag`] on a wrong magic/version/kind byte,
/// [`CodecError::Truncated`] on short input, and whatever the inner codecs
/// report. Trailing bytes after the frame are rejected as [`CodecError::BadTag`]
/// so torn reassembly is caught rather than silently ignored.
pub fn decode_datagram(bytes: &[u8]) -> Result<(NodeId, Frame), CodecError> {
    let mut buf = Bytes::from(bytes);
    if buf.remaining() < 7 {
        return Err(CodecError::Truncated);
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(CodecError::BadTag(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::BadTag(version));
    }
    let from = NodeId(buf.get_u32());
    let frame = match buf.get_u8() {
        0x01 => Frame::Flood(decode_flood_packet(&mut buf)?),
        0x02 => {
            let (router_lsas, mc_states) = decode_db_sync(&mut buf)?;
            Frame::DbSync {
                router_lsas,
                mc_states,
            }
        }
        0x03 => Frame::Data(decode_data_msg(&mut buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    if buf.remaining() > 0 {
        return Err(CodecError::BadTag(0xFF));
    }
    Ok((from, frame))
}

fn node_ok(node: NodeId, n: usize) -> bool {
    (node.0 as usize) < n
}

fn stamp_ok(stamp: &Timestamp, n: usize) -> bool {
    stamp.len() == n
}

fn topology_ok(t: &McTopology, n: usize) -> bool {
    t.terminals().iter().all(|&term| node_ok(term, n))
        && t.edges().all(|(a, b)| node_ok(a, n) && node_ok(b, n))
}

fn router_lsa_ok(lsa: &RouterLsa, n: usize) -> bool {
    node_ok(lsa.origin, n) && lsa.links.iter().all(|adv| node_ok(adv.neighbor, n))
}

fn mc_sync_ok(sync: &McSync, n: usize) -> bool {
    stamp_ok(&sync.r, n)
        && stamp_ok(&sync.e, n)
        && stamp_ok(&sync.c, n)
        && sync.c_source.is_none_or(|s| node_ok(s, n))
        && sync.members.keys().all(|&m| node_ok(m, n))
        && sync.installed.as_ref().is_none_or(|t| topology_ok(t, n))
}

/// Checks a decoded frame against the `n`-switch network: every node id in
/// range, every vector timestamp exactly `n` wide.
///
/// A frame that decodes but fails this check is *structurally* valid yet
/// *semantically* poisonous — e.g. a timestamp of the wrong width trips the
/// engine's `assert_eq!` on merge. The driver must drop such frames.
pub fn frame_is_sane(from: NodeId, frame: &Frame, n: usize) -> bool {
    if !node_ok(from, n) {
        return false;
    }
    match frame {
        Frame::Flood(packet) => {
            node_ok(packet.id.origin, n)
                && match &packet.payload {
                    DgmcPayload::Router(lsa) => router_lsa_ok(lsa, n),
                    DgmcPayload::Mc(lsa) => {
                        node_ok(lsa.source, n)
                            && stamp_ok(&lsa.stamp, n)
                            && lsa.proposal.as_ref().is_none_or(|t| topology_ok(t, n))
                    }
                }
        }
        Frame::DbSync {
            router_lsas,
            mc_states,
        } => {
            router_lsas.iter().all(|lsa| router_lsa_ok(lsa, n))
                && mc_states.iter().all(|sync| mc_sync_ok(sync, n))
        }
        Frame::Data(data) => match data.kind {
            DataKind::TreeFlood { .. } => true,
            DataKind::UnicastToContact { contact } => node_ok(contact, n),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_core::{McEventKind, McId, McLsa};
    use dgmc_lsr::lsa::{FloodId, FloodPacket};

    fn mc_frame(width: usize) -> Frame {
        Frame::Flood(FloodPacket {
            id: FloodId {
                origin: NodeId(0),
                seq: 1,
            },
            payload: DgmcPayload::Mc(McLsa {
                source: NodeId(0),
                event: McEventKind::Leave,
                mc: McId(1),
                mc_type: dgmc_mctree::McType::Symmetric,
                epoch: 0,
                proposal: None,
                stamp: Timestamp::zero(width),
            }),
        })
    }

    #[test]
    fn datagram_round_trip() {
        let frame = mc_frame(4);
        let bytes = encode_datagram(NodeId(2), &frame);
        let (from, back) = decode_datagram(&bytes).unwrap();
        assert_eq!(from, NodeId(2));
        assert!(matches!(back, Frame::Flood(_)));
        assert!(frame_is_sane(from, &back, 4));
    }

    #[test]
    fn wrong_width_stamp_is_insane_not_a_panic() {
        let frame = mc_frame(9);
        let bytes = encode_datagram(NodeId(2), &frame);
        let (from, back) = decode_datagram(&bytes).unwrap();
        assert!(!frame_is_sane(from, &back, 4), "width 9 in a 4-node net");
    }

    #[test]
    fn bad_magic_and_trailing_bytes_rejected() {
        let mut bytes = encode_datagram(NodeId(0), &mc_frame(4));
        let mut corrupt = bytes.clone();
        corrupt[0] = 0x00;
        assert!(decode_datagram(&corrupt).is_err());
        bytes.push(0xAB);
        assert!(decode_datagram(&bytes).is_err(), "trailing byte");
    }
}
