//! `wire-1m`: the data plane alone. Two closed-loop clients, one
//! `FrameConn` each, alternate `Pull` and a dense 1,048,576-param `Push`
//! (4 MB frames) against a primary shard process that write-ahead relays
//! every push to a warm-backup shard process. No scheduler, no model
//! compute: the byte-proportional stages (encode, checksum, socket
//! transfer, decode, relay, journal copy, dense apply) do the work.

use std::time::{Duration, Instant};

use specsync_net::{ConnSeq, ConnTarget, FrameConn, WireMessage};
use specsync_ps::{PushPayload, ReplicatedStore};
use specsync_simnet::WorkerId;

use crate::replay;
use crate::roles::{net_config, seeded_vec, ShardModel, WIRE_PARAMS, WORKERS};
use crate::util::{median, ms, own_peak_rss_mb, put_latencies, stat, Report, Role};

/// Pushes per measured unit. Above the 256-entry journal, so every unit
/// crosses the journal wrap on both shards (`ps.journal_syncs` >= 1).
const PUSHES_PER_UNIT: usize = 288;
/// Set-ups measured per run (the last one carries the measured work).
const SETUPS: usize = 9;
/// Pull replies the traced run keeps for the codec replay.
const KEPT_PULLS: usize = 8;

/// What one client saw.
#[derive(Default)]
struct Client {
    pull_ms: Vec<f64>,
    push_ms: Vec<f64>,
    versions: Vec<u64>,
    acked: u64,
    attempts: u64,
    errors: u64,
    monotone: bool,
    push_bytes: u64,
    pulls_kept: Vec<WireMessage>,
}

fn set_up(seed: u64) -> (Role, Role, Vec<FrameConn>, Vec<WireMessage>) {
    let shard_args = |id: u64| -> Vec<String> {
        vec![
            "shard".into(),
            "--id".into(),
            id.to_string(),
            "--model".into(),
            ShardModel::Dense1m.flag().into(),
            "--seed".into(),
            seed.to_string(),
        ]
    };
    let mut backup_args = shard_args(1);
    backup_args.push("--backup".into());
    let mut backup = Role::spawn("backup", &backup_args);
    let backup_addr = backup.listening_addr();
    let mut primary_args = shard_args(0);
    primary_args.extend(["--relay".to_string(), backup_addr]);
    let mut primary = Role::spawn("primary", &primary_args);
    let primary_addr = primary.listening_addr();
    let seq = ConnSeq::new();
    let conns = (0..WORKERS)
        .map(|i| {
            FrameConn::connect_with_retries(
                &primary_addr,
                &net_config(),
                &ConnTarget::new("client", &seq, i as u64),
                |_| {},
            )
            .expect("client connect")
        })
        .collect();
    // Small gradients keep the seeded parameters finite over many units.
    let pushes = (0..WORKERS)
        .map(|i| WireMessage::Push {
            worker: WorkerId::new(i),
            payload: PushPayload::Dense(
                seeded_vec(WIRE_PARAMS, seed ^ (0xC11E_0000 + i as u64))
                    .into_iter()
                    .map(|g| g * 1e-3)
                    .collect(),
            ),
        })
        .collect();
    (primary, backup, conns, pushes)
}

fn client_loop(
    conn: &mut FrameConn,
    worker: WorkerId,
    push: &WireMessage,
    quota: usize,
    trace: bool,
) -> Client {
    let mut c = Client {
        monotone: true,
        ..Client::default()
    };
    let pull = WireMessage::Pull { worker };
    let mut last_version = 0u64;
    while (c.acked as usize) < quota {
        c.attempts += 1;
        let t = Instant::now();
        match conn.exchange(&pull) {
            Ok((WireMessage::PullReply { version, params }, _, _)) => {
                c.pull_ms.push(ms(t.elapsed()));
                c.monotone &= version >= last_version;
                last_version = version;
                c.versions.push(version);
                if trace && c.pulls_kept.len() < KEPT_PULLS / WORKERS {
                    c.pulls_kept
                        .push(WireMessage::PullReply { version, params });
                }
            }
            _ => {
                c.errors += 1;
                break;
            }
        }
        c.attempts += 1;
        let t = Instant::now();
        match conn.exchange(push) {
            Ok((WireMessage::PushAck { version, .. }, sent, _)) => {
                c.push_ms.push(ms(t.elapsed()));
                c.acked += 1;
                c.push_bytes += sent as u64;
                c.monotone &= version > last_version;
                last_version = version;
            }
            _ => {
                c.errors += 1;
                break;
            }
        }
    }
    c
}

/// Runs one `wire-1m` measurement: whole units of `PUSHES_PER_UNIT`
/// pushes until at least `seconds` have been measured.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let c = set_up(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            let (primary, backup, conns, _) = c;
            drop(conns);
            primary.kill();
            backup.kill();
        } else {
            cluster = Some(c);
        }
    }
    let (primary, backup, mut conns, pushes) = cluster.expect("at least one set-up");

    let mut clients: Vec<Client> = Vec::new();
    let mut unit_wall = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let results: Vec<(FrameConn, Client)> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .drain(..)
                .enumerate()
                .map(|(i, conn)| {
                    let push = &pushes[i];
                    s.spawn(move || {
                        // The connection comes back for the next unit.
                        let mut conn = conn;
                        let worker = WorkerId::new(i);
                        let quota = PUSHES_PER_UNIT / WORKERS;
                        let client = client_loop(&mut conn, worker, push, quota, trace);
                        (conn, client)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        unit_wall.push(t.elapsed().as_secs_f64());
        let mut failed = false;
        for (i, (conn, client)) in results.into_iter().enumerate() {
            failed |= client.errors > 0;
            conns.push(conn);
            if clients.len() <= i {
                clients.push(client);
            } else {
                merge(&mut clients[i], client);
            }
        }
        if failed || started.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    drop(conns);

    let deadline = Instant::now() + Duration::from_secs(30);
    let primary_stats = primary.finish(deadline);
    let backup_stats = backup.finish(deadline);

    let pull_ms: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.pull_ms.iter().copied())
        .collect();
    let push_ms: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.push_ms.iter().copied())
        .collect();
    let acked: u64 = clients.iter().map(|c| c.acked).sum();
    let wall: f64 = unit_wall.iter().sum();
    report.attempted = clients.iter().map(|c| c.attempts).sum();
    report.failed = clients.iter().map(|c| c.errors).sum();
    report.put("setup_s", median(&setup_s), "s", setup_s.len());
    report.put_note(
        "wall_s",
        median(&unit_wall),
        "s",
        unit_wall.len(),
        "one unit of 288 pushes + 288 pulls",
    );
    report.put("pushes_per_s", acked as f64 / wall, "1/s", acked as usize);
    put_latencies(&mut report, &pull_ms, &push_ms);
    report.put(
        "peak_rss_mb",
        own_peak_rss_mb() + stat(&primary_stats, "rss_mb") + stat(&backup_stats, "rss_mb"),
        "MB",
        3,
    );

    let pv = stat(&primary_stats, "version") as u64;
    let bv = stat(&backup_stats, "version") as u64;
    report.check(
        !primary_stats.is_empty() && pv == acked,
        format!("primary version {pv} != {acked} acked pushes"),
    );
    report.check(
        bv == pv,
        format!("backup version {bv} != primary version {pv}"),
    );
    report.check(
        clients.iter().all(|c| c.monotone),
        "a client saw pulled versions go backwards",
    );
    report.check(
        acked as usize > ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        format!("{acked} pushes never wrapped the shards' journals"),
    );

    if trace {
        let pulls: Vec<WireMessage> = clients
            .iter_mut()
            .flat_map(|c| c.pulls_kept.drain(..))
            .collect();
        // Two push frames and a handful of pull replies: replay each a
        // few times so the p50s rest on more than a couple of samples.
        let push_frames: Vec<WireMessage> = pushes.iter().cycle().take(16).cloned().collect();
        let pull_frames: Vec<WireMessage> = pulls.iter().cycle().take(16).cloned().collect();
        let codec = replay::codec(&push_frames, &pull_frames);
        drop(pull_frames);
        drop(pulls);
        codec.put(&mut report);
        let relay_frames: Vec<WireMessage> = pushes.iter().cycle().take(32).cloned().collect();
        let relay = replay::relay_rtt(ShardModel::Dense1m, seed, &relay_frames);
        drop(relay_frames);
        report.put("net.relay_rtt_ms", median(&relay), "ms", relay.len());
        let apply = replay::apply_dense(ShardModel::Dense1m, seed, &pushes, acked as usize);
        report.put(
            "ps.apply_dense_ms",
            median(&apply.apply_ms),
            "ms",
            apply.apply_ms.len(),
        );
        apply.put_journal(&mut report);
        let self_ms = codec.push_self_ms() + median(&relay) + median(&apply.apply_ms);
        report.put_note(
            "net.wait_ms",
            (median(&push_ms) - self_ms).max(0.0),
            "ms",
            push_ms.len(),
            "push p50 round trip minus replayed self time",
        );
        let bytes: u64 = clients.iter().map(|c| c.push_bytes).sum();
        report.put(
            "net.bytes_per_push",
            bytes as f64 / acked.max(1) as f64,
            "B",
            acked as usize,
        );
        let mut versions: Vec<u64> = clients
            .iter()
            .flat_map(|c| c.versions.iter().copied())
            .collect();
        let n = versions.len();
        versions.sort_unstable();
        versions.dedup();
        report.put(
            "net.pull_cache_hit_ratio",
            (n - versions.len()) as f64 / n.max(1) as f64,
            "ratio",
            n,
        );
        report.put("net.control_frames_per_push", 0.0, "ratio", acked as usize);
        for name in [
            "net.conn_retries",
            "net.conn_resets",
            "net.retries_exhausted",
        ] {
            report.put(name, 0.0, "count", 1);
        }
    }
    report
}

/// Folds a later unit's observations into a client's running totals.
fn merge(into: &mut Client, from: Client) {
    into.pull_ms.extend(from.pull_ms);
    into.push_ms.extend(from.push_ms);
    into.versions.extend(from.versions);
    into.acked += from.acked;
    into.attempts += from.attempts;
    into.errors += from.errors;
    into.monotone &= from.monotone;
    into.push_bytes += from.push_bytes;
    into.pulls_kept.extend(from.pulls_kept);
}
