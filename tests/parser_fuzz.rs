//! Mutation fuzzing of the parsers the explorer and the linter trust: the
//! choice-trace text format (`Trace::parse`, which reads every
//! `expect-violation` line through `Violation::parse`) and the wire format
//! (`p4update::messages::decode`).
//!
//! Every input must come back `Ok` or `Err`, never as a panic. A trace
//! that parses must round-trip through `to_text`; a frame that decodes
//! must re-encode, and the re-encoding must decode and encode to the same
//! bytes. The inputs are byte mutations of every committed
//! `tests/corpus/*.trace`, random frames, and mutations of valid frames.
//! `PROPCHECK_SCALE=16` multiplies the case counts.

use p4update::des::propcheck::{cases, forall};
use p4update::des::SimRng;
use p4update::explore::Trace;
use p4update::messages::{
    decode, encode, Cleanup, DataPacket, Frm, Message, RejectReason, Ufm, UfmStatus, Uim, Unm,
    UnmLayer, UpdateKind,
};
use p4update::net::{FlowId, NodeId, Version};
use std::cell::Cell;
use std::path::Path;

/// Apply one to eight random byte edits to `bytes`: flip a bit, overwrite,
/// insert or delete a byte, duplicate a span, or truncate. Inserted bytes
/// come half the time from `bytes` itself, so a mutant stays close to the
/// grammar (digits, separators, keywords) instead of drowning in noise.
fn mutate(rng: &mut SimRng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.uniform_usize(8) {
        let len = bytes.len();
        let byte = if len > 0 && rng.chance(0.5) {
            bytes[rng.uniform_usize(len)]
        } else {
            rng.next_u32() as u8
        };
        match rng.uniform_usize(6) {
            0 if len > 0 => bytes[rng.uniform_usize(len)] ^= 1 << rng.uniform_usize(8),
            1 if len > 0 => bytes[rng.uniform_usize(len)] = byte,
            2 => bytes.insert(rng.uniform_usize(len + 1), byte),
            3 if len > 0 => {
                bytes.remove(rng.uniform_usize(len));
            }
            4 if len > 0 => {
                let start = rng.uniform_usize(len);
                let end = start + 1 + rng.uniform_usize((len - start).min(16));
                let span = bytes[start..end].to_vec();
                let at = rng.uniform_usize(len + 1);
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(rng.uniform_usize(len + 1)),
        }
    }
}

fn corpus() -> Vec<Vec<u8>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no trace in {}", dir.display());
    files
        .iter()
        .map(|p| std::fs::read(p).expect("readable trace"))
        .collect()
}

/// Mutated corpus traces parse to `Ok` or `Err`, and an `Ok` trace's text
/// is a fixed point of `parse` then `to_text`.
#[test]
fn mutated_traces_parse_or_fail_cleanly() {
    let corpus = corpus();
    let parsed = Cell::new(0u32);
    forall("mutated_traces_parse_or_fail_cleanly", cases(256), |rng| {
        for original in &corpus {
            let mut bytes = original.clone();
            mutate(rng, &mut bytes);
            let text = String::from_utf8_lossy(&bytes);
            let Ok(trace) = Trace::parse(&text) else {
                continue;
            };
            parsed.set(parsed.get() + 1);
            let canonical = trace.to_text();
            let again = Trace::parse(&canonical)
                .unwrap_or_else(|e| panic!("{text:?} parsed, its text {canonical:?} not: {e}"));
            assert_eq!(again.to_text(), canonical, "from {text:?}");
        }
    });
    // A mutator that broke every trace would leave the round trip untested.
    assert!(parsed.get() > 0, "no mutant parsed");
}

/// One valid frame of a random message type with random fields.
fn valid_frame(rng: &mut SimRng) -> Vec<u8> {
    let flow = FlowId(rng.next_u32());
    let version = Version(rng.next_u32());
    let node = |rng: &mut SimRng| NodeId(rng.next_u32() >> 1);
    let kind = if rng.chance(0.5) {
        UpdateKind::Single
    } else {
        UpdateKind::Dual
    };
    let msg = match rng.uniform_usize(6) {
        0 => Message::Data(DataPacket {
            flow,
            seq: rng.next_u32(),
            ttl: rng.next_u32() as u8,
            tag: rng.chance(0.5).then_some(version),
        }),
        1 => Message::Frm(Frm {
            flow,
            ingress: node(rng),
            egress: node(rng),
        }),
        2 => Message::Uim(Uim {
            flow,
            version,
            new_distance: rng.next_u32(),
            flow_size: rng.uniform_range(0.0, 1e6),
            next_hop: rng.chance(0.5).then(|| node(rng)),
            upstream: rng.chance(0.5).then(|| node(rng)),
            kind,
        }),
        3 => Message::Unm(Unm {
            flow,
            v_new: version,
            v_old: Version(rng.next_u32()),
            d_new: rng.next_u32(),
            d_old: rng.next_u32(),
            counter: rng.next_u32(),
            kind,
            layer: if rng.chance(0.5) {
                UnmLayer::Inter
            } else {
                UnmLayer::Intra
            },
        }),
        4 => Message::Cleanup(Cleanup { flow, version }),
        _ => Message::Ufm(Ufm {
            flow,
            version,
            status: UfmStatus::Alarm(RejectReason::OutdatedVersion),
            reporter: node(rng),
        }),
    };
    encode(&msg).expect("a data-plane message encodes")
}

/// Decoding `frame` returns `Ok` or `Err`; an `Ok` message re-encodes,
/// and its encoding is a fixed point of `decode` then `encode` (bytes,
/// not values: a decoded `flow_size` may be NaN).
fn decode_cleanly(frame: &[u8]) {
    let Ok(msg) = decode(frame) else {
        return;
    };
    let bytes =
        encode(&msg).unwrap_or_else(|e| panic!("{frame:?} decoded, re-encoding failed: {e}"));
    let again =
        decode(&bytes).unwrap_or_else(|e| panic!("{bytes:?} encoded, decoding failed: {e}"));
    assert_eq!(encode(&again), Ok(bytes), "from {frame:?}");
}

/// Random frames: any length up to 64, the type byte valid half the time.
#[test]
fn random_frames_decode_or_fail_cleanly() {
    forall("random_frames_decode_or_fail_cleanly", cases(4096), |rng| {
        let mut frame: Vec<u8> = (0..rng.uniform_usize(65))
            .map(|_| rng.next_u32() as u8)
            .collect();
        if !frame.is_empty() && rng.chance(0.5) {
            frame[0] = 1 + rng.uniform_usize(6) as u8;
        }
        decode_cleanly(&frame);
    });
}

/// Mutated valid frames decode to `Ok` or `Err`.
#[test]
fn mutated_frames_decode_or_fail_cleanly() {
    forall(
        "mutated_frames_decode_or_fail_cleanly",
        cases(4096),
        |rng| {
            let mut frame = valid_frame(rng);
            decode_cleanly(&frame);
            mutate(rng, &mut frame);
            decode_cleanly(&frame);
        },
    );
}
