//! Telemetry guarantees the rest of the stack is allowed to rely on:
//! same-seed runs serialize to byte-identical JSONL traces, the trace
//! round-trips through the parser, and the cheap `MetricsSink` aggregates
//! agree exactly with the driver's own `RunReport` accounting.

use std::sync::Arc;

use specsync::telemetry::parse_trace_line;
use specsync::{
    ClusterSpec, Event, EventSink, InstanceType, JsonlSink, MetricsSink, RunReport, SchemeKind,
    Trainer, VirtualTime, Workload,
};

fn trainer(scheme: SchemeKind, seed: u64) -> Trainer {
    Trainer::new(Workload::tiny_test(), scheme)
        .cluster(ClusterSpec::homogeneous(5, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(90))
        .seed(seed)
}

/// Runs one simulation with an in-memory [`JsonlSink`] and returns the raw
/// trace bytes alongside the report.
fn run_traced(scheme: SchemeKind, seed: u64) -> (Vec<u8>, RunReport) {
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let report = trainer(scheme, seed)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink<VirtualTime>>)
        .run();
    let bytes = Arc::try_unwrap(sink)
        .expect("driver dropped its sink handles")
        .finish()
        .expect("in-memory writes cannot fail");
    (bytes, report)
}

/// Byte-wise FNV-1a over a byte slice, pinning whole traces. Deliberately
/// not the wire codec's word-wise checksum (`specsync_ps::fnv1a`): the
/// pinned hashes below were taken with this function and must not move
/// when a codec's checksum does.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The golden traces, pinned to the exact bytes the seed (pre-wire)
/// driver emitted. The `Transport`/`ShardHost` extraction must not move
/// a single byte of any virtual-time trace: the in-process paths are the
/// default, and their behavior is the contract.
#[test]
fn golden_traces_stay_byte_identical_to_seed() {
    let cases: [(SchemeKind, u64, usize, u64); 3] = [
        (
            SchemeKind::specsync_adaptive(),
            31,
            134_528,
            0x928c_0096_7a6a_f20f,
        ),
        (SchemeKind::Asp, 5, 95_035, 0x8127_d1e0_4b90_0ed7),
        (
            SchemeKind::specsync_adaptive(),
            7,
            74_887,
            0x2b41_f99e_da09_7628,
        ),
    ];
    for (scheme, seed, want_len, want_hash) in cases {
        let (bytes, _) = run_traced(scheme, seed);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (want_len, want_hash),
            "golden trace drifted for {} seed {seed}",
            scheme.label(),
        );
    }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let scheme = SchemeKind::specsync_adaptive();
    let (a, ra) = run_traced(scheme, 31);
    let (b, rb) = run_traced(scheme, 31);
    assert!(!a.is_empty(), "an adaptive run must emit events");
    assert_eq!(ra.total_iterations, rb.total_iterations);
    assert_eq!(a, b, "two same-seed traces must be byte-identical");
}

#[test]
fn different_seeds_produce_different_traces() {
    let (a, _) = run_traced(SchemeKind::Asp, 1);
    let (b, _) = run_traced(SchemeKind::Asp, 2);
    assert_ne!(a, b, "seed must perturb the event stream");
}

#[test]
fn trace_round_trips_through_the_parser() {
    let (bytes, report) = run_traced(SchemeKind::specsync_adaptive(), 7);
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let mut pushes = 0u64;
    let mut resyncs = 0u64;
    let mut last_t = 0u64;
    for line in text.lines() {
        let rec = parse_trace_line(line).expect("every emitted line parses");
        assert!(rec.micros >= last_t, "timestamps must be monotone");
        last_t = rec.micros;
        match rec.event {
            Event::Push { .. } => pushes += 1,
            Event::Resync { .. } => resyncs += 1,
            _ => {}
        }
    }
    assert_eq!(pushes, report.total_iterations);
    assert_eq!(resyncs, report.total_aborts);
}

#[test]
fn metrics_sink_agrees_exactly_with_the_run_report() {
    let sink = Arc::new(MetricsSink::new());
    let report = trainer(SchemeKind::specsync_adaptive(), 13)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink<VirtualTime>>)
        .run();
    let snap = sink.snapshot();

    assert_eq!(snap.total_pushes(), report.total_iterations);
    assert_eq!(snap.total_resyncs(), report.total_aborts);
    assert_eq!(snap.per_worker.len(), report.num_workers);
    for (w, counters) in snap.per_worker.iter().enumerate() {
        assert_eq!(
            counters.pushes, report.iterations_per_worker[w],
            "worker {w} push count"
        );
    }
    // The sink accumulates staleness in the same order the driver does, so
    // the mean is not merely close — it is the same f64.
    let mean = snap.mean_staleness().expect("run had pulls");
    assert_eq!(
        mean.to_bits(),
        report.mean_staleness.to_bits(),
        "mean staleness must match bit-for-bit: {mean} vs {}",
        report.mean_staleness
    );
}

#[test]
fn asp_runs_emit_no_scheduler_events() {
    let (bytes, _) = run_traced(SchemeKind::Asp, 5);
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    for line in text.lines() {
        let rec = parse_trace_line(line).expect("parses");
        assert!(
            !matches!(rec.event, Event::AbortIssued { .. } | Event::Resync { .. }),
            "ASP must never abort: {line}"
        );
    }
}
