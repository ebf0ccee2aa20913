//! The SpecSync benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <train-mf-wire|wire-1m|sim-fig8-mf|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run prints one line per metric (name, value, unit, sample count)
//! and, as its last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs untraced and then traced, and reports the per-layer
//! metrics plus the tracing overhead. The exit code is non-zero when an
//! output check fails.

mod replay;
mod roles;
mod sim;
mod train;
mod util;
mod wire;

use util::{arg_value, emit, json_number, Report};

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pushes_per_s", "1/s"),
    ("pull_p50_ms", "ms"),
    ("push_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (zero where
/// the workload does not measure one).
const PER_LAYER: &[(&str, &str)] = &[
    ("client.pull_p90_ms", "ms"),
    ("client.pull_p99_ms", "ms"),
    ("client.pull_max_ms", "ms"),
    ("client.push_p90_ms", "ms"),
    ("client.push_p99_ms", "ms"),
    ("client.push_max_ms", "ms"),
    ("net.encode_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.checksum_ms", "ms"),
    ("net.bytes_per_push", "B"),
    ("net.pull_cache_hit_ratio", "ratio"),
    ("net.relay_rtt_ms", "ms"),
    ("net.wait_ms", "ms"),
    ("net.control_frames_per_push", "ratio"),
    ("net.conn_retries", "count"),
    ("net.conn_resets", "count"),
    ("net.retries_exhausted", "count"),
    ("ps.apply_dense_ms", "ms"),
    ("ps.journal_syncs", "count"),
    ("ps.journal_sync_ms", "ms"),
    ("ps.journal_peak_mb", "MB"),
    ("ps.apply_sparse_us", "us"),
    ("ps.pull_us", "us"),
    ("core.on_pull_us", "us"),
    ("core.on_notify_us", "us"),
    ("core.on_check_us", "us"),
    ("core.tune_ms", "ms"),
    ("core.aborts_issued", "count"),
    ("core.aborts_honored", "count"),
    ("core.abort_useful_ratio", "ratio"),
    ("core.resync_ratio", "ratio"),
    ("core.wasted_compute_s", "s"),
    ("ml.gradient_ms", "ms"),
    ("ml.sparse_gradient_us", "us"),
    ("ml.eval_us", "us"),
    ("runtime.iteration_ms", "ms"),
    ("runtime.pad_overshoot_ms", "ms"),
    ("sim.events", "count"),
    ("sim.iterations", "count"),
    ("sim.driver_self_s", "s"),
    ("sim.time_to_target_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// How long the traced (and its paired untraced) `train-mf-wire` run
/// trains before stopping.
const TRAIN_TRACE_WINDOW: std::time::Duration = std::time::Duration::from_secs(30);

const WORKLOADS: &[&str] = &["train-mf-wire", "wire-1m", "sim-fig8-mf"];

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool, windowed: bool) -> Report {
    match name {
        "train-mf-wire" => train::run(seed, trace, windowed.then_some(TRAIN_TRACE_WINDOW)),
        "wire-1m" => wire::run(seed, seconds, trace),
        "sim-fig8-mf" => sim::run(seed, trace),
        other => unreachable!("unknown workload {other}"),
    }
}

/// One workload, untraced or (with `trace`) untraced then traced.
fn measure(name: &str, seed: u64, seconds: u64, trace: bool) -> Report {
    let plain = run_workload(name, seed, seconds, false, trace);
    plain.print_table(name);
    if !trace {
        return plain;
    }
    let mut traced = run_workload(name, seed, seconds, true, true);
    // Latency tails as measured with tracing off.
    for (metric, m) in &plain.metrics {
        if metric.starts_with("client.") {
            traced.metrics.insert(metric.clone(), m.clone());
        }
    }
    // Overhead as time per push, so a windowed run compares like with like.
    let rate = |r: &Report| r.metrics["pushes_per_s"].value;
    traced.put_note(
        "trace.overhead_pct",
        (rate(&plain) / rate(&traced) - 1.0) * 100.0,
        "%",
        2,
        "time per push, traced over untraced, minus 1",
    );
    for (name, unit) in PER_LAYER {
        if !traced.metrics.contains_key(*name) {
            traced.put_note(name, 0.0, unit, 0, "not measured on this workload");
        }
    }
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.failures.extend(plain.failures);
    traced.print_table(name);
    traced
}

/// Reports a bad argument and exits with code 2, printing no result.
fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    std::process::exit(2);
}

/// The parsed value of `flag`, `default` when absent; exits on a value
/// that does not parse.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match arg_value(args, name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} {v:?} is not valid"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("role") {
        roles::run_role(&args);
        return;
    }
    let workload = arg_value(&args, "--workload").unwrap_or_default();
    let seed: u64 = flag(&args, "--seed", 1);
    let seconds: u64 = flag(&args, "--seconds", 10);
    let trace = match flag(&args, "--trace", 0u8) {
        0 => false,
        1 => true,
        other => usage(&format!("--trace {other}: want 0 or 1")),
    };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        other => usage(&format!(
            "unknown --workload {other:?}: want one of {WORKLOADS:?} or all"
        )),
    };
    let keys = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut combined = Vec::new();
    let mut last = String::new();
    for name in &names {
        let mut report = measure(name, seed, seconds, trace);
        last = report.json(keys);
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
        emit(&format!("{name} {last}"));
        combined.extend(keys.iter().map(|(metric, unit)| {
            let value = report.metrics.get(*metric).map_or(0.0, |m| m.value);
            format!(
                "\"{name}.{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        }));
    }
    if names.len() > 1 {
        last = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            combined.join(", ")
        );
    }
    emit(&last);
    if !correct {
        std::process::exit(1);
    }
}
