//! Criterion bench: the byte-proportional stages of the wire frame codec
//! — `encode_frame`, `decode_frame` and the `fnv1a` checksum — on dense
//! `PullReply` frames at 11,200 params (a small model's pull),
//! 1,048,576 params (a 4 MB frame) and 4,194,304 params (paper-scale MF, a
//! 16.8 MB pull). Encode and decode each include one checksum pass.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use specsync_net::frame::{decode_frame, encode_frame, fnv1a, HEADER_LEN};
use specsync_net::WireMessage;

const SIZES: [usize; 3] = [11_200, 1_048_576, 4_194_304];

fn pull_reply(n: usize) -> WireMessage {
    let params: Vec<f32> = (0..n).map(|i| (i as f32 * 1e-3).sin()).collect();
    WireMessage::PullReply {
        version: 7,
        params: Arc::from(params.as_slice()),
    }
}

fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    group.sample_size(20);
    for n in SIZES {
        let msg = pull_reply(n);
        let bytes = encode_frame(&msg).expect("bench frames fit the payload limit");
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_function(BenchmarkId::new("encode_frame", n), |b| {
            b.iter(|| encode_frame(std::hint::black_box(&msg)))
        });
        group.bench_function(BenchmarkId::new("decode_frame", n), |b| {
            b.iter(|| decode_frame(std::hint::black_box(&bytes)))
        });
        group.bench_function(BenchmarkId::new("fnv1a", n), |b| {
            b.iter(|| fnv1a(std::hint::black_box(&bytes[HEADER_LEN..])))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frame_codec);
criterion_main!(benches);
