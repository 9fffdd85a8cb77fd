//! Wire layouts for the P4Update headers.
//!
//! The P4 prototype defines custom headers parsed/deparsed by the switch
//! pipeline; this module fixes equivalent byte layouts. Nothing in the
//! library calls it: the simulator and the plan linter pass typed
//! `Message`s, which is all a simulated switch acts on. All multi-byte
//! fields are big-endian (network order). Layouts:
//!
//! ```text
//! common   : msg_type:u8  flow_id:u32
//! DATA     : common  seq:u32  ttl:u8  tag:u32                       (14 B)
//! FRM      : common  ingress:u32  egress:u32                        (13 B)
//! UIM      : common  version:u32 new_distance:u32 flow_size:f64
//!            next_hop:u32 upstream:u32 kind:u8                      (30 B)
//! UNM      : common  v_new:u32 v_old:u32 d_new:u32 d_old:u32
//!            counter:u32 kind:u8 layer:u8                           (27 B)
//! UFM      : common  version:u32 status:u8 reason:u8 reporter:u32   (15 B)
//! CLEANUP  : common  version:u32                                     (9 B)
//! ```
//!
//! `next_hop`/`upstream` encode `None` as `u32::MAX` (no node id reaches
//! that value in any evaluated topology).
//!
//! Buffers are plain `Vec<u8>`/`&[u8]` — the codec has no external
//! dependencies so the workspace builds offline.

use crate::types::{
    Cleanup, DataPacket, Frm, Message, RejectReason, Ufm, UfmStatus, Uim, Unm, UnmLayer, UpdateKind,
};
use p4update_net::{FlowId, NodeId, Version};

/// Message-type discriminants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireType {
    /// A data packet.
    Data = 0x01,
    /// Flow report.
    Frm = 0x02,
    /// Update indication.
    Uim = 0x03,
    /// Update notification.
    Unm = 0x04,
    /// Update feedback.
    Ufm = 0x05,
    /// Rule cleanup (§11).
    Cleanup = 0x06,
}

/// Decoding failure: the buffer is not a valid P4Update header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header length for its type.
    Truncated,
    /// Unknown `msg_type` byte.
    UnknownType(u8),
    /// A field held an out-of-range discriminant.
    BadField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated header"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::BadField(name) => write!(f, "invalid field {name}"),
        }
    }
}

impl std::error::Error for WireError {}

const NONE_NODE: u32 = u32::MAX;

// ---------- encode helpers ----------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_opt_node(buf: &mut Vec<u8>, n: Option<NodeId>) {
    put_u32(buf, n.map_or(NONE_NODE, |n| n.0));
}

// ---------- decode helpers ----------

/// Bounds-checked big-endian reader over a wire buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(f64::from_be_bytes(raw))
    }

    fn get_opt_node(&mut self) -> Result<Option<NodeId>, WireError> {
        let raw = self.get_u32()?;
        Ok((raw != NONE_NODE).then_some(NodeId(raw)))
    }
}

fn kind_to_u8(k: UpdateKind) -> u8 {
    match k {
        UpdateKind::Single => 0,
        UpdateKind::Dual => 1,
    }
}

fn kind_from_u8(b: u8) -> Result<UpdateKind, WireError> {
    match b {
        0 => Ok(UpdateKind::Single),
        1 => Ok(UpdateKind::Dual),
        _ => Err(WireError::BadField("kind")),
    }
}

fn reason_to_u8(r: RejectReason) -> u8 {
    match r {
        RejectReason::DistanceMismatch => 0,
        RejectReason::OutdatedVersion => 1,
        RejectReason::DualAfterDual => 3,
        RejectReason::FlowSizeChanged => 4,
        RejectReason::UnexpectedSender => 6,
    }
}

fn reason_from_u8(b: u8) -> Result<RejectReason, WireError> {
    Ok(match b {
        0 => RejectReason::DistanceMismatch,
        1 => RejectReason::OutdatedVersion,
        3 => RejectReason::DualAfterDual,
        4 => RejectReason::FlowSizeChanged,
        6 => RejectReason::UnexpectedSender,
        _ => return Err(WireError::BadField("reason")),
    })
}

/// Encode a message into its wire representation. Baseline messages
/// (`Central`, `Ez`) have no P4 header format — the paper's baselines run on
/// OpenFlow-style control channels — and are rejected here.
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(32);
    match msg {
        Message::Data(p) => {
            buf.push(WireType::Data as u8);
            put_u32(&mut buf, p.flow.0);
            put_u32(&mut buf, p.seq);
            buf.push(p.ttl);
            put_u32(&mut buf, p.tag.map_or(u32::MAX, |v| v.0));
        }
        Message::Frm(m) => {
            buf.push(WireType::Frm as u8);
            put_u32(&mut buf, m.flow.0);
            put_u32(&mut buf, m.ingress.0);
            put_u32(&mut buf, m.egress.0);
        }
        Message::Uim(m) => {
            buf.push(WireType::Uim as u8);
            put_u32(&mut buf, m.flow.0);
            put_u32(&mut buf, m.version.0);
            put_u32(&mut buf, m.new_distance);
            put_f64(&mut buf, m.flow_size);
            put_opt_node(&mut buf, m.next_hop);
            put_opt_node(&mut buf, m.upstream);
            buf.push(kind_to_u8(m.kind));
        }
        Message::Unm(m) => {
            buf.push(WireType::Unm as u8);
            put_u32(&mut buf, m.flow.0);
            put_u32(&mut buf, m.v_new.0);
            put_u32(&mut buf, m.v_old.0);
            put_u32(&mut buf, m.d_new);
            put_u32(&mut buf, m.d_old);
            put_u32(&mut buf, m.counter);
            buf.push(kind_to_u8(m.kind));
            buf.push(match m.layer {
                UnmLayer::Inter => 0,
                UnmLayer::Intra => 1,
            });
        }
        Message::Ufm(m) => {
            buf.push(WireType::Ufm as u8);
            put_u32(&mut buf, m.flow.0);
            put_u32(&mut buf, m.version.0);
            match m.status {
                UfmStatus::Success => {
                    buf.push(0);
                    buf.push(0);
                }
                UfmStatus::Alarm(r) => {
                    buf.push(1);
                    buf.push(reason_to_u8(r));
                }
            }
            put_u32(&mut buf, m.reporter.0);
        }
        Message::Cleanup(m) => {
            buf.push(WireType::Cleanup as u8);
            put_u32(&mut buf, m.flow.0);
            put_u32(&mut buf, m.version.0);
        }
        Message::Central(_) | Message::Ez(_) => {
            return Err(WireError::BadField("baseline messages have no wire format"));
        }
    }
    Ok(buf)
}

/// Decode a wire buffer back into a message.
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(buf);
    let ty = r.get_u8()?;
    let flow = FlowId(r.get_u32()?);
    match ty {
        t if t == WireType::Data as u8 => {
            let seq = r.get_u32()?;
            let ttl = r.get_u8()?;
            let raw_tag = r.get_u32()?;
            Ok(Message::Data(DataPacket {
                flow,
                seq,
                ttl,
                tag: (raw_tag != u32::MAX).then_some(Version(raw_tag)),
            }))
        }
        t if t == WireType::Frm as u8 => Ok(Message::Frm(Frm {
            flow,
            ingress: NodeId(r.get_u32()?),
            egress: NodeId(r.get_u32()?),
        })),
        t if t == WireType::Uim as u8 => {
            let version = Version(r.get_u32()?);
            let new_distance = r.get_u32()?;
            let flow_size = r.get_f64()?;
            let next_hop = r.get_opt_node()?;
            let upstream = r.get_opt_node()?;
            let kind = kind_from_u8(r.get_u8()?)?;
            Ok(Message::Uim(Uim {
                flow,
                version,
                new_distance,
                flow_size,
                next_hop,
                upstream,
                kind,
            }))
        }
        t if t == WireType::Unm as u8 => {
            let v_new = Version(r.get_u32()?);
            let v_old = Version(r.get_u32()?);
            let d_new = r.get_u32()?;
            let d_old = r.get_u32()?;
            let counter = r.get_u32()?;
            let kind = kind_from_u8(r.get_u8()?)?;
            let layer = match r.get_u8()? {
                0 => UnmLayer::Inter,
                1 => UnmLayer::Intra,
                _ => return Err(WireError::BadField("layer")),
            };
            Ok(Message::Unm(Unm {
                flow,
                v_new,
                v_old,
                d_new,
                d_old,
                counter,
                kind,
                layer,
            }))
        }
        t if t == WireType::Ufm as u8 => {
            let version = Version(r.get_u32()?);
            let status_byte = r.get_u8()?;
            let reason_byte = r.get_u8()?;
            let status = match status_byte {
                0 => UfmStatus::Success,
                1 => UfmStatus::Alarm(reason_from_u8(reason_byte)?),
                _ => return Err(WireError::BadField("status")),
            };
            Ok(Message::Ufm(Ufm {
                flow,
                version,
                status,
                reporter: NodeId(r.get_u32()?),
            }))
        }
        t if t == WireType::Cleanup as u8 => Ok(Message::Cleanup(Cleanup {
            flow,
            version: Version(r.get_u32()?),
        })),
        other => Err(WireError::UnknownType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let wire = encode(&msg).expect("encodable");
        let back = decode(&wire).expect("decodable");
        assert_eq!(back, msg);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Message::Data(DataPacket {
            flow: FlowId(7),
            seq: 123456,
            ttl: 64,
            tag: None,
        }));
    }

    #[test]
    fn frm_roundtrip() {
        roundtrip(Message::Frm(Frm {
            flow: FlowId(0xDEAD),
            ingress: NodeId(3),
            egress: NodeId(11),
        }));
    }

    #[test]
    fn uim_roundtrip_with_and_without_options() {
        roundtrip(Message::Uim(Uim {
            flow: FlowId(2),
            version: Version(9),
            new_distance: 5,
            flow_size: 2.75,
            next_hop: Some(NodeId(4)),
            upstream: None,
            kind: UpdateKind::Dual,
        }));
        roundtrip(Message::Uim(Uim {
            flow: FlowId(2),
            version: Version(1),
            new_distance: 0,
            flow_size: 0.0,
            next_hop: None,
            upstream: Some(NodeId(1)),
            kind: UpdateKind::Single,
        }));
    }

    #[test]
    fn unm_roundtrip_both_layers() {
        for layer in [UnmLayer::Inter, UnmLayer::Intra] {
            roundtrip(Message::Unm(Unm {
                flow: FlowId(1),
                v_new: Version(4),
                v_old: Version(3),
                d_new: 2,
                d_old: 6,
                counter: 17,
                kind: UpdateKind::Dual,
                layer,
            }));
        }
    }

    #[test]
    fn ufm_roundtrip_all_statuses() {
        roundtrip(Message::Ufm(Ufm {
            flow: FlowId(5),
            version: Version(2),
            status: UfmStatus::Success,
            reporter: NodeId(0),
        }));
        for r in [
            RejectReason::DistanceMismatch,
            RejectReason::OutdatedVersion,
            RejectReason::DualAfterDual,
            RejectReason::FlowSizeChanged,
            RejectReason::UnexpectedSender,
        ] {
            roundtrip(Message::Ufm(Ufm {
                flow: FlowId(5),
                version: Version(2),
                status: UfmStatus::Alarm(r),
                reporter: NodeId(9),
            }));
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let msg = Message::Uim(Uim {
            flow: FlowId(2),
            version: Version(9),
            new_distance: 5,
            flow_size: 2.75,
            next_hop: Some(NodeId(4)),
            upstream: None,
            kind: UpdateKind::Single,
        });
        let wire = encode(&msg).unwrap();
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn unknown_type_errors() {
        let buf = [0x7Fu8, 0, 0, 0, 0];
        assert_eq!(decode(&buf), Err(WireError::UnknownType(0x7F)));
    }

    #[test]
    fn bad_discriminants_error() {
        // Corrupt the kind byte of a UIM.
        let msg = Message::Uim(Uim {
            flow: FlowId(2),
            version: Version(9),
            new_distance: 5,
            flow_size: 1.0,
            next_hop: None,
            upstream: None,
            kind: UpdateKind::Single,
        });
        let mut raw = encode(&msg).unwrap();
        let last = raw.len() - 1;
        raw[last] = 9;
        assert_eq!(decode(&raw), Err(WireError::BadField("kind")));

        // Corrupt the reason byte of an alarm UFM: 2 and 5 are retired
        // codes, 7 was never assigned.
        let msg = Message::Ufm(Ufm {
            flow: FlowId(5),
            version: Version(2),
            status: UfmStatus::Alarm(RejectReason::DistanceMismatch),
            reporter: NodeId(9),
        });
        let mut raw = encode(&msg).unwrap();
        let reason = raw.len() - 5;
        for b in [2, 5, 7] {
            raw[reason] = b;
            assert_eq!(decode(&raw), Err(WireError::BadField("reason")));
        }
    }

    #[test]
    fn baseline_messages_have_no_wire_format() {
        let msg = Message::Ez(crate::types::EzMsg::Done { flow: FlowId(1) });
        assert!(encode(&msg).is_err());
    }

    #[test]
    fn header_sizes_match_documentation() {
        let data = encode(&Message::Data(DataPacket {
            flow: FlowId(0),
            seq: 0,
            ttl: 0,
            tag: None,
        }))
        .unwrap();
        assert_eq!(data.len(), 14);
        let frm = encode(&Message::Frm(Frm {
            flow: FlowId(0),
            ingress: NodeId(0),
            egress: NodeId(0),
        }))
        .unwrap();
        assert_eq!(frm.len(), 13);
        let uim = encode(&Message::Uim(Uim {
            flow: FlowId(0),
            version: Version(0),
            new_distance: 0,
            flow_size: 0.0,
            next_hop: None,
            upstream: None,
            kind: UpdateKind::Single,
        }))
        .unwrap();
        assert_eq!(uim.len(), 30);
        let unm = encode(&Message::Unm(Unm {
            flow: FlowId(0),
            v_new: Version(0),
            v_old: Version(0),
            d_new: 0,
            d_old: 0,
            counter: 0,
            kind: UpdateKind::Single,
            layer: UnmLayer::Intra,
        }))
        .unwrap();
        assert_eq!(unm.len(), 27);
        let ufm = encode(&Message::Ufm(Ufm {
            flow: FlowId(0),
            version: Version(0),
            status: UfmStatus::Success,
            reporter: NodeId(0),
        }))
        .unwrap();
        assert_eq!(ufm.len(), 15);
    }
}
