//! The system under test as separate OS processes: this binary re-invoked
//! as `perfbench role scheduler ...` or `perfbench role shard ...`, each
//! printing `LISTENING <addr>` once bound and a `STATS k=v ...` line on
//! exit.

use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use specsync_ml::Workload;
use specsync_net::{NetConfig, SchedulerConfig, SchedulerServer, ShardHost, ShardServer};
use specsync_ps::{ParameterStore, ReplicatedStore};
use specsync_sync::SchemeKind;
use specsync_telemetry::{MetricsSink, WorkerCounters};

use crate::util::{arg_value, emit, own_peak_rss_mb};

/// Workers in the training workload (the box has two cores).
pub const WORKERS: usize = 2;
/// Parameters of the `wire-1m` dense model (4 MB frames).
pub const WIRE_PARAMS: usize = 1 << 20;
/// Shards per parameter store (the store's internal layout).
const STORE_SHARDS: usize = 8;

/// Wire knobs shared by every role: fast liveness on loopback, I/O
/// timeouts long enough for a journal-wrap stall on 4 MB frames.
pub fn net_config() -> NetConfig {
    NetConfig::builder()
        .heartbeat_interval(Duration::from_millis(25))
        .heartbeat_timeout(Duration::from_secs(2))
        .io_timeout(Duration::from_secs(30))
        .try_build()
        .expect("valid benchmark net configuration")
}

/// Which parameter block a shard serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardModel {
    /// The MF workload's initial parameters, momentum and LR schedule.
    Mf,
    /// A seeded 1,048,576-param dense block, plain SGD at the frame
    /// path's default rate.
    Dense1m,
}

impl ShardModel {
    pub fn flag(self) -> &'static str {
        match self {
            ShardModel::Mf => "mf",
            ShardModel::Dense1m => "dense1m",
        }
    }
}

/// Deterministic pseudo-random `f32`s in [-0.5, 0.5) (splitmix64).
pub fn seeded_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// The shard host a role serves, built identically in every process (and
/// in the benchmark's own mirror replays).
pub fn shard_host(model: ShardModel, seed: u64) -> ShardHost {
    match model {
        ShardModel::Mf => {
            let workload = Workload::matrix_factorization();
            let bundle = workload.build(WORKERS, seed);
            let initial = bundle.workers[0].params().to_vec();
            let store = ParameterStore::new(initial, STORE_SHARDS).with_momentum(workload.momentum);
            let lr = workload.lr.clone();
            ShardHost::new(ReplicatedStore::from_store(
                store,
                ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
            ))
            .with_lr_fn(move |epoch| lr.lr_at(epoch) as f32)
            .with_workers(WORKERS)
        }
        ShardModel::Dense1m => {
            let store = ParameterStore::new(seeded_vec(WIRE_PARAMS, seed), STORE_SHARDS);
            ShardHost::new(ReplicatedStore::from_store(
                store,
                ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
            ))
            .with_workers(WORKERS)
        }
    }
}

/// Entry point for `perfbench role ...`.
pub fn run_role(args: &[String]) {
    match args.get(2).map(String::as_str) {
        Some("scheduler") => run_scheduler(args),
        Some("shard") => run_shard(args),
        other => {
            eprintln!("perfbench: unknown role {other:?}");
            std::process::exit(2);
        }
    }
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing or bad {flag}"))
}

/// Blocks until the parent closes this process's stdin: the parent stops
/// a role that way, so no role outlives the benchmark that started it.
fn wait_for_stdin_close() {
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
}

/// The scheduler process. It serves until its duration budget, or until
/// the parent closes its stdin: `SchedulerServer` has no stop handle, so
/// a stop request ends the process with the counts its sink saw instead
/// of the server's own run stats.
fn run_scheduler(args: &[String]) {
    let workers: usize = required(args, "--workers");
    let max_secs: u64 = required(args, "--max-secs");
    let sink = Arc::new(MetricsSink::new());
    let server = SchedulerServer::bind(
        "127.0.0.1:0",
        SchedulerConfig {
            scheme: SchemeKind::specsync_adaptive(),
            workers,
            net: net_config(),
            stop_after_pushes: None,
            max_duration: Duration::from_secs(max_secs),
        },
    )
    .expect("bind scheduler")
    .with_sink(sink.clone());
    emit(&format!("LISTENING {}", server.local_addr()));

    let (done_tx, done_rx) = channel();
    {
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(Some(server.run()));
        });
    }
    std::thread::spawn(move || {
        wait_for_stdin_close();
        let _ = done_tx.send(None);
    });
    let ended = done_rx.recv().ok().flatten();
    if ended.is_none() {
        // The parent closes the workers' sockets before this stdin; give
        // the reader threads a moment to hand their last frames over.
        std::thread::sleep(Duration::from_millis(200));
    }
    // Pushes the scheduler saw and aborts it issued: its own run stats
    // when its run ended, else what its sink recorded.
    let (pushes, aborts) = match ended {
        Some(Ok(stats)) => (stats.total_pushes, stats.aborts_issued),
        _ => {
            let snap = sink.snapshot();
            let count = |f: fn(&WorkerCounters) -> u64| snap.per_worker.iter().map(f).sum::<u64>();
            (count(|w| w.notifies), count(|w| w.aborts_issued))
        }
    };
    let line = format!(
        "STATS total_pushes={pushes} aborts={aborts} rss_mb={:.3}",
        own_peak_rss_mb()
    );
    emit(&line);
    std::process::exit(0);
}

/// A shard process: primary (optionally relaying to a backup) or warm
/// backup, optionally registered with a scheduler.
fn run_shard(args: &[String]) {
    let id: u64 = required(args, "--id");
    let seed: u64 = required(args, "--seed");
    let model = match arg_value(args, "--model").as_deref() {
        Some("mf") => ShardModel::Mf,
        Some("dense1m") => ShardModel::Dense1m,
        other => panic!("unknown --model {other:?}"),
    };
    let host = shard_host(model, seed);
    let mut server = ShardServer::bind(id, "127.0.0.1:0", host, net_config()).expect("bind shard");
    if args.iter().any(|a| a == "--backup") {
        server = server.as_backup();
    }
    if let Some(addr) = arg_value(args, "--relay") {
        server = server.with_backup_relay(&addr);
    }
    if let Some(addr) = arg_value(args, "--sched") {
        server = server.with_scheduler(&addr);
    }
    emit(&format!("LISTENING {}", server.local_addr()));
    let stop = server.stop_handle();
    std::thread::spawn(move || {
        wait_for_stdin_close();
        stop.store(true, Ordering::SeqCst);
    });
    let stats = server.run().expect("shard run");
    emit(&format!(
        "STATS version={} rss_mb={:.3}",
        stats.version,
        own_peak_rss_mb()
    ));
    std::process::exit(0);
}
