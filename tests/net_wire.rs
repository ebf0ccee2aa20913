//! Property-based tests for the `specsync-net` frame codec: every
//! [`WireMessage`] variant round-trips bit-exactly, every single-byte
//! corruption of a frame is rejected, and a stream cut mid-frame is a
//! truncation error rather than a bogus message or a silent close. The
//! bulk f32 paths (dense `Push`, `RelayPush`, `PullReply`) carry every
//! float bit pattern exactly.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use proptest::prelude::*;
use specsync::net::frame::encode_relay_push;
use specsync::net::{
    decode_frame, encode_frame, read_frame, FrameError, FrameReadError, ReadOutcome,
};
use specsync::net::{FailoverControl, WireMessage};
use specsync::ps::PushPayload;
use specsync::simnet::WorkerId;
use specsync::tensor::SparseGrad;

fn arb_worker() -> impl Strategy<Value = WorkerId> {
    (0usize..10_000).prop_map(WorkerId::new)
}

/// Arbitrary f32 bit patterns (including NaNs and infinities): the codec
/// promises bit-exact float transport, so the strategy must not shy away
/// from the weird quadrants of the space.
fn arb_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn arb_params() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_f32(), 0..48)
}

/// The float classes a careless bulk conversion would mangle: NaNs with
/// payload bits (quiet and signaling, either sign), `-0.0`, subnormals,
/// and infinities — mixed with arbitrary bit patterns.
fn arb_special_f32() -> impl Strategy<Value = f32> {
    let sign = |neg: bool| if neg { 0x8000_0000u32 } else { 0 };
    prop_oneof![
        (any::<bool>(), 1u32..0x0080_0000)
            .prop_map(move |(neg, payload)| f32::from_bits(sign(neg) | 0x7f80_0000 | payload)),
        Just(-0.0f32),
        (any::<bool>(), 1u32..0x0080_0000)
            .prop_map(move |(neg, mantissa)| f32::from_bits(sign(neg) | mantissa)),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        arb_f32(),
    ]
}

/// Long enough to cross several of the checksum's 32-byte blocks.
fn arb_special_params() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_special_f32(), 0..300)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The f32 slice a dense-carrying message holds, as raw bits.
fn dense_bits(msg: &WireMessage) -> Option<Vec<u32>> {
    match msg {
        WireMessage::PullReply { params, .. } => Some(bits(params)),
        WireMessage::Push {
            payload: PushPayload::Dense(grad),
            ..
        }
        | WireMessage::RelayPush {
            payload: PushPayload::Dense(grad),
            ..
        } => Some(bits(grad)),
        _ => None,
    }
}

fn arb_dense_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        (any::<u64>(), arb_special_params()).prop_map(|(version, params)| {
            WireMessage::PullReply {
                version,
                params: Arc::from(params.as_slice()),
            }
        }),
        (arb_worker(), arb_special_params()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Dense(grad),
        }),
        (
            any::<u64>(),
            arb_worker(),
            arb_special_f32(),
            arb_special_params()
        )
            .prop_map(|(seq, worker, lr, grad)| WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Dense(grad),
            }),
    ]
}

/// A valid sparse gradient: raw (index, value) pairs folded mod `dim`
/// into sorted unique entries, which is the shape `SparseGrad` encodes.
fn arb_sparse() -> impl Strategy<Value = SparseGrad> {
    (
        1usize..64,
        proptest::collection::vec((0usize..64, arb_f32()), 0..16),
    )
        .prop_map(|(dim, raw)| {
            let entries: BTreeMap<usize, f32> =
                raw.into_iter().map(|(i, v)| (i % dim, v)).collect();
            let mut grad = SparseGrad::new();
            grad.reset(dim);
            for (index, value) in entries {
                grad.add(index, value);
            }
            grad.finish();
            grad
        })
}

fn arb_addr() -> impl Strategy<Value = String> {
    (0u32..65_536).prop_map(|port| format!("127.0.0.1:{port}"))
}

fn arb_failover() -> impl Strategy<Value = FailoverControl> {
    prop_oneof![
        any::<u64>().prop_map(|server| FailoverControl::Crash { server }),
        any::<u64>().prop_map(|server| FailoverControl::Promote { server }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(server, version, replayed)| {
            FailoverControl::Promoted {
                server,
                version,
                replayed,
            }
        }),
        any::<u64>().prop_map(|server| FailoverControl::Recover { server }),
        any::<u64>().prop_map(|server| FailoverControl::Ack { server }),
        (any::<u64>(), any::<bool>(), arb_addr()).prop_map(|(server, backup, addr)| {
            FailoverControl::Register {
                server,
                backup,
                addr,
            }
        }),
        Just(FailoverControl::QueryPrimary),
        (arb_addr(), any::<u64>())
            .prop_map(|(addr, epoch)| FailoverControl::Primary { addr, epoch }),
    ]
}

/// Every `WireMessage` variant (and every `FailoverControl` sub-variant)
/// is reachable from this strategy.
fn arb_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        arb_worker().prop_map(|worker| WireMessage::Pull { worker }),
        (any::<u64>(), arb_params()).prop_map(|(version, params)| WireMessage::PullReply {
            version,
            params: Arc::from(params.as_slice()),
        }),
        (arb_worker(), arb_params()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Dense(grad),
        }),
        (arb_worker(), arb_sparse()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Sparse(grad),
        }),
        (any::<u64>(), arb_worker(), arb_f32(), arb_params()).prop_map(
            |(seq, worker, lr, grad)| WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Dense(grad),
            }
        ),
        (any::<u64>(), arb_worker(), arb_f32(), arb_sparse()).prop_map(
            |(seq, worker, lr, grad)| WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Sparse(grad),
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(version, pushes_by_worker)| {
            WireMessage::PushAck {
                version,
                pushes_by_worker,
            }
        }),
        (arb_worker(), any::<u64>())
            .prop_map(|(worker, pushes)| WireMessage::Notify { worker, pushes }),
        arb_worker().prop_map(|worker| WireMessage::Check { worker }),
        arb_worker().prop_map(|worker| WireMessage::Abort { worker }),
        arb_worker().prop_map(|worker| WireMessage::Heartbeat { worker }),
        arb_failover().prop_map(WireMessage::Failover),
        Just(WireMessage::Shutdown),
    ]
}

proptest! {
    /// decode(encode(m)) re-encodes to the identical bytes — bit-exact
    /// round trip even for NaN payloads, where `PartialEq` on the message
    /// would be too weak an oracle.
    #[test]
    fn every_message_round_trips_bit_exactly(msg in arb_message()) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        let decoded = decode_frame(&bytes).expect("own encoding must decode");
        prop_assert_eq!(encode_frame(&decoded).expect("decoded re-encodes"), bytes);
    }

    /// The bulk f32 paths carry NaN payload bits, `-0.0`, subnormals and
    /// infinities exactly, element for element; a relay frame encoded
    /// from a borrowed payload is byte-identical to the owned encoding.
    #[test]
    fn dense_bulk_paths_are_bit_exact(msg in arb_dense_message()) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        let decoded = decode_frame(&bytes).expect("own encoding must decode");
        prop_assert_eq!(dense_bits(&decoded), dense_bits(&msg));
        prop_assert!(dense_bits(&msg).is_some());
        if let WireMessage::RelayPush { seq, worker, lr, payload } = &decoded {
            prop_assert_eq!(lr.to_bits(), match &msg {
                WireMessage::RelayPush { lr, .. } => lr.to_bits(),
                _ => unreachable!("decoded the variant that was encoded"),
            });
            let borrowed = encode_relay_push(*seq, *worker, *lr, payload)
                .expect("sample messages fit a frame");
            prop_assert_eq!(borrowed, bytes);
        }
    }

    /// Flipping any single byte of a frame makes it undecodable: the
    /// magic, format, length and checksum cover the header; the checksum
    /// covers the payload.
    #[test]
    fn every_single_byte_flip_is_rejected(
        msg in arb_message(),
        flip in (1u32..256).prop_map(|b| b as u8),
    ) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            prop_assert!(
                decode_frame(&corrupt).is_err(),
                "flipping byte {} with {:#04x} decoded anyway", i, flip
            );
        }
    }

    /// Any strict prefix of a frame is rejected by the buffer decoder,
    /// and a stream cut mid-frame is a `Truncated` error from the stream
    /// reader — never a message, never a clean `Closed`.
    #[test]
    fn truncated_frames_and_streams_are_rejected(msg in arb_message()) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "prefix {}", cut);
        }
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(bytes[..cut].to_vec());
            prop_assert!(
                matches!(
                    read_frame(&mut cursor),
                    Err(FrameReadError::Frame(FrameError::Truncated))
                ),
                "stream cut at {}", cut
            );
        }
        // Zero bytes is the one clean close.
        let mut empty = io::Cursor::new(Vec::new());
        prop_assert!(matches!(read_frame(&mut empty).unwrap(), ReadOutcome::Closed));
    }

    /// A multi-message stream yields every frame in order and then a
    /// clean close, regardless of message mix.
    #[test]
    fn message_streams_round_trip(msgs in proptest::collection::vec(arb_message(), 1..8)) {
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for msg in &msgs {
            expect.push(encode_frame(msg).expect("sample messages fit a frame"));
            buf.extend_from_slice(expect.last().expect("just pushed"));
        }
        let mut cursor = io::Cursor::new(buf);
        for (i, bytes) in expect.iter().enumerate() {
            match read_frame(&mut cursor).expect("valid stream") {
                ReadOutcome::Frame(got, n) => {
                    prop_assert_eq!(&encode_frame(&got).expect("decoded re-encodes"), bytes, "frame {}", i);
                    prop_assert_eq!(n, bytes.len());
                }
                ReadOutcome::Closed => return Err(TestCaseError::fail("closed early")),
            }
        }
        prop_assert!(matches!(read_frame(&mut cursor).unwrap(), ReadOutcome::Closed));
    }
}
