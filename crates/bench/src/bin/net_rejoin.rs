//! Supervised successive-failover soak: self-healing redundancy over the
//! real TCP wire.
//!
//! The `net_smoke` topology (one scheduler, a primary + warm-backup shard
//! pair, four workers over loopback sockets) runs under a
//! [`specsync_bench::supervise::Supervisor`]. The orchestrator SIGKILLs
//! the serving primary three successive times; after each kill:
//!
//! 1. the scheduler notices the dead connection and promotes the warm
//!    backup (`EVENT shard_failover` on its stdout),
//! 2. the supervisor spends one unit of its restart budget, waits out a
//!    jittered backoff, and spawns a *fresh* shard process that joins
//!    the new primary over the wire (`--join`): snapshot chunks, journal
//!    tail, live write-ahead relays,
//! 3. the joiner reaches parity, registers as the armed warm backup, and
//!    the scheduler confirms (`EVENT catchup_complete`) — only then does
//!    the next kill fire, so every promotion targets a rejoined backup.
//!
//! The run completes at the push target with exactly three promotions,
//! three restarts, three completed catch-ups, and zero lost pushes: the
//! final primary *and* the final (rejoined) backup both hold every push
//! the scheduler was notified of, across a replica chain in which every
//! process but the scheduler was either killed or started mid-run.
//!
//! * `net_rejoin`                        — full soak, prints the table
//! * `net_rejoin --json`                 — full soak, writes `BENCH_PR10.json`
//! * `net_rejoin --quick`                — smaller push target (CI scale)
//! * `net_rejoin --check BENCH_PR10.json`— runs the soak, then fails
//!   (exit 1) unless the checked-in invariants reproduce: same kill
//!   count, same promotion/restart/catch-up counts, all passing.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use specsync_bench::supervise::{RestartPolicy, Supervisor};
use specsync_ml::Workload;
use specsync_net::{
    NetConfig, SchedulerConfig, SchedulerServer, ShardHost, ShardServer, TcpTransport,
};
use specsync_ps::{ParameterStore, ReplicatedStore};
use specsync_runtime::{ClockSource, WallClock, WorkerHarness};
use specsync_simnet::WorkerId;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, NullSink};

/// Worker processes.
const WORKERS: usize = 4;
/// Successive primary kills (and therefore expected promotions).
const KILLS: u32 = 3;
/// Total notified pushes at which the scheduler declares the soak done.
/// Large enough that three kill/rejoin cycles finish first.
const PUSH_TARGET: u64 = 6_000;
/// Reduced target for `--quick` (CI scale).
const QUICK_PUSH_TARGET: u64 = 2_500;
/// Deterministic workload seed shared by every process.
const SEED: u64 = 31;
/// Hard budget for the whole soak.
const SOAK_BUDGET: Duration = Duration::from_secs(120);
/// Per-step budget for one expected scheduler event (a promotion or a
/// completed catch-up).
const STEP_BUDGET: Duration = Duration::from_secs(20);
/// After the scheduler exits, how long stragglers get to drain and print
/// their STATS line before being killed.
const DRAIN_GRACE: Duration = Duration::from_secs(15);

/// Wire knobs: fast failure detection plus the self-healing knobs — a
/// small join chunk size so every snapshot transfer crosses several
/// frames, and an explicit restart budget the supervisor draws down.
fn net_config() -> NetConfig {
    NetConfig::builder()
        .heartbeat_interval(Duration::from_millis(25))
        .heartbeat_timeout(Duration::from_millis(400))
        .io_timeout(Duration::from_secs(1))
        .connect_retries(10)
        .retry_backoff(Duration::from_millis(20))
        .op_retry_budget(8)
        .breaker_threshold(4)
        .breaker_cooldown(Duration::from_millis(100))
        .join_chunk_bytes(4096)
        .restart_budget(KILLS + 2)
        .try_build()
        .expect("valid rejoin net configuration")
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], flag: &str) -> String {
    arg_value(args, flag).unwrap_or_else(|| panic!("missing required flag {flag}"))
}

/// Prints a line and flushes immediately: the orchestrator reads child
/// stdout line-by-line for coordination, so buffering would hang it.
fn emit(line: &str) {
    println!("{line}");
    std::io::stdout().flush().ok();
}

/// Forwards the failover-plane events the orchestrator sequences on as
/// flushed `EVENT <tag> ...` stdout lines. Everything else (pushes,
/// notifies, tuning) stays off the coordination channel.
#[derive(Debug)]
struct EventLines;

impl EventSink<Duration> for EventLines {
    fn record(&self, _at: Duration, event: &Event) {
        let line = match event {
            Event::ShardFailover { shard, .. } => format!("EVENT shard_failover shard={shard}"),
            Event::BackupJoined { shard, .. } => format!("EVENT backup_joined shard={shard}"),
            Event::CatchUpComplete {
                shard,
                version,
                replayed,
            } => format!(
                "EVENT catchup_complete shard={shard} version={version} replayed={replayed}"
            ),
            Event::ProcessRestarted { shard, attempt } => {
                format!("EVENT process_restarted shard={shard} attempt={attempt}")
            }
            _ => return,
        };
        emit(&line);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match arg_value(&args, "--role").as_deref() {
        None => orchestrate(&args),
        Some("scheduler") => run_scheduler(&args),
        Some("shard") => run_shard(&args),
        Some("worker") => run_worker(&args),
        Some(other) => panic!("unknown role {other:?}"),
    }
}

// ------------------------------------------------------------ scheduler

fn run_scheduler(args: &[String]) {
    let workers: usize = required(args, "--workers").parse().expect("--workers");
    let pushes: u64 = required(args, "--pushes").parse().expect("--pushes");
    let server = SchedulerServer::bind(
        "127.0.0.1:0",
        SchedulerConfig {
            scheme: SchemeKind::specsync_adaptive(),
            workers,
            net: net_config(),
            stop_after_pushes: Some(pushes),
            max_duration: Duration::from_secs(90),
        },
    )
    .expect("bind scheduler")
    .with_sink(Arc::new(EventLines));
    emit(&format!("LISTENING {}", server.local_addr()));
    let stats = server.run().expect("scheduler run");
    emit(&format!(
        "STATS promotions={} completed={} total_pushes={} aborts={} dead_workers={}",
        stats.promotions,
        stats.completed,
        stats.total_pushes,
        stats.aborts_issued,
        stats.workers_marked_dead,
    ));
}

// ---------------------------------------------------------------- shard

fn run_shard(args: &[String]) {
    let id: u64 = required(args, "--id").parse().expect("--id");
    let sched = required(args, "--sched");
    let backup = args.iter().any(|a| a == "--backup");
    let relay = arg_value(args, "--relay");
    let join = arg_value(args, "--join");

    let workload = Workload::tiny_test();
    let bundle = workload.build(WORKERS, SEED);
    let initial = bundle.workers[0].params().to_vec();
    let host = ShardHost::new(ReplicatedStore::from_store(
        ParameterStore::new(initial, 8),
        ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
    ))
    .with_workers(WORKERS);

    let mut server = ShardServer::bind(id, "127.0.0.1:0", host, net_config()).expect("bind shard");
    if backup {
        server = server.as_backup();
    }
    if let Some(addr) = &relay {
        server = server.with_backup_relay(addr);
    }
    if let Some(addr) = &join {
        server = server.join_via(addr);
    }
    server = server.with_scheduler(&sched);
    emit(&format!("LISTENING {}", server.local_addr()));
    let stats = server.run().expect("shard run");
    emit(&format!(
        "STATS shard={} pulls={} pushes={} relayed={} serving={} version={}",
        id, stats.pulls_served, stats.pushes_applied, stats.relayed, stats.serving, stats.version,
    ));
}

// --------------------------------------------------------------- worker

fn run_worker(args: &[String]) {
    let id: usize = required(args, "--id").parse().expect("--id");
    let workers: usize = required(args, "--workers").parse().expect("--workers");
    let shard = required(args, "--shard");
    let sched = required(args, "--sched");

    let workload = Workload::tiny_test();
    let mut bundle = workload.build(workers, SEED);
    let model = bundle.workers.swap_remove(id);
    let sampler = workload.sampler_for(model.as_ref(), id, SEED ^ 0x5EED);

    let worker = WorkerId::new(id);
    let sink = Arc::new(NullSink);
    let mut transport = TcpTransport::connect(worker, &shard, &sched, net_config(), sink.clone())
        .expect("worker connect");
    let clock: Arc<dyn ClockSource> = Arc::new(WallClock::new());
    let harness = WorkerHarness {
        worker,
        model,
        sampler,
        compute_pad: Duration::from_millis(5),
        abort_poll: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(25),
        mute_after: None,
        drop_notify_every: None,
        clock: Arc::clone(&clock),
        sink,
        run_start: clock.now(),
        stop: Arc::new(AtomicBool::new(false)),
    };
    let outcome = harness.run(&mut transport);
    let stats = transport.stats();
    emit(&format!(
        "STATS worker={} pushes={} aborts={} conn_retries={} conn_resets={} retries_exhausted={}",
        id,
        outcome.pushes,
        outcome.aborts,
        stats.conn_retries,
        stats.conn_resets,
        stats.retries_exhausted,
    ));
}

// ---------------------------------------------------------- orchestrator

struct Role {
    name: String,
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Role {
    fn spawn(name: &str, extra: &[String]) -> Role {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Role {
            name: name.to_string(),
            child,
            stdout,
        }
    }

    /// Reads the child's `LISTENING <addr>` coordination line.
    fn listening_addr(&mut self) -> String {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("read {} stdout: {e}", self.name));
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("{} printed {line:?}, want LISTENING", self.name))
            .to_string();
        eprintln!("[net_rejoin] {} listening on {addr}", self.name);
        addr
    }

    /// SIGKILLs the child and reaps it.
    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Waits until exit or `deadline`, then SIGKILLs. Returns remaining
    /// stdout lines.
    fn finish(mut self, deadline: Instant) -> Vec<String> {
        if Supervisor::reap(&mut self.child, deadline, Duration::from_millis(20)).is_none() {
            eprintln!("[net_rejoin] {} overran its budget; killing", self.name);
            self.child.kill().ok();
            self.child.wait().ok();
        }
        self.stdout.lines().map_while(Result::ok).collect()
    }
}

/// The scheduler role with its stdout pumped through a channel, so the
/// orchestrator can sequence the kill/rejoin cycles on live `EVENT`
/// lines instead of sleeping and hoping.
struct SchedRole {
    child: Child,
    rx: Receiver<String>,
    lines: Vec<String>,
}

impl SchedRole {
    fn spawn(extra: &[String]) -> (SchedRole, String) {
        let mut role = Role::spawn("scheduler", extra);
        let addr = role.listening_addr();
        let (tx, rx) = channel();
        let stdout = role.stdout;
        std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        (
            SchedRole {
                child: role.child,
                rx,
                lines: Vec::new(),
            },
            addr,
        )
    }

    /// Blocks until a line starting with `prefix` arrives (retaining
    /// every line seen), or gives up at `deadline`.
    fn wait_for(&mut self, prefix: &str, deadline: Instant) -> bool {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            match self.rx.recv_timeout(left) {
                Ok(line) => {
                    let hit = line.starts_with(prefix);
                    self.lines.push(line);
                    if hit {
                        return true;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// Drains the channel and reaps the process.
    fn finish(mut self, deadline: Instant) -> Vec<String> {
        if Supervisor::reap(&mut self.child, deadline, Duration::from_millis(20)).is_none() {
            eprintln!("[net_rejoin] scheduler overran its budget; killing");
            self.child.kill().ok();
            self.child.wait().ok();
        }
        while let Ok(line) = self.rx.try_recv() {
            self.lines.push(line);
        }
        self.lines
    }
}

/// Pulls `key=value` strings out of `STATS`/`EVENT` lines.
fn stat(lines: &[String], key: &str) -> Option<String> {
    lines
        .iter()
        .filter(|l| l.starts_with("STATS"))
        .flat_map(|l| l.split_whitespace())
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")).map(str::to_string))
}

fn stat_u64(lines: &[String], key: &str) -> u64 {
    stat(lines, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Everything the finished soak reports.
struct Outcome {
    kills: u32,
    promotions: u64,
    restarts: u32,
    catchups: u32,
    completed: bool,
    total_pushes: u64,
    final_primary_version: u64,
    final_backup_version: u64,
    final_primary_serving: bool,
    final_backup_serving: bool,
    worker_pushes: u64,
    workers_reporting: usize,
    elapsed_ms: u64,
    violations: Vec<String>,
}

impl Outcome {
    fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn violations(o: &Outcome, push_target: u64) -> Vec<String> {
    let mut v = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            v.push(msg);
        }
    };
    check(
        o.completed,
        "the run must reach its push target despite the kills".to_string(),
    );
    check(
        o.promotions == u64::from(o.kills),
        format!(
            "{} kills must produce exactly {} promotions, saw {}",
            o.kills, o.kills, o.promotions
        ),
    );
    check(
        o.restarts == o.kills,
        format!(
            "the supervisor must authorize exactly {} restarts, saw {}",
            o.kills, o.restarts
        ),
    );
    check(
        o.catchups == o.kills,
        format!(
            "every restarted shard must complete its catch-up, saw {}/{}",
            o.catchups, o.kills
        ),
    );
    check(
        o.total_pushes >= push_target,
        format!(
            "scheduler saw {} pushes, want >= {push_target}",
            o.total_pushes
        ),
    );
    check(
        o.final_primary_serving,
        "the last-promoted shard must end the run serving".to_string(),
    );
    check(
        !o.final_backup_serving,
        "the last rejoiner must end the run as a warm backup".to_string(),
    );
    // Zero lost pushes: every push the scheduler was notified of is in
    // the final primary's history — and in the rejoined backup's, via
    // snapshot + catch-up + write-ahead relay.
    check(
        o.final_primary_version >= o.total_pushes,
        format!(
            "final primary holds {} pushes, scheduler was notified of {} — pushes were lost",
            o.final_primary_version, o.total_pushes
        ),
    );
    check(
        o.final_backup_version >= o.total_pushes,
        format!(
            "final backup holds {} pushes, scheduler was notified of {} — the rejoin lost pushes",
            o.final_backup_version, o.total_pushes
        ),
    );
    check(
        o.workers_reporting == WORKERS,
        format!(
            "every worker must survive the soak and report, only {}/{WORKERS} did",
            o.workers_reporting
        ),
    );
    v
}

fn shard_args(id: u64, sched: &str, extra: &[(&str, &str)], flags: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--role".to_string(),
        "shard".to_string(),
        "--id".to_string(),
        id.to_string(),
        "--sched".to_string(),
        sched.to_string(),
    ];
    for (k, v) in extra {
        args.push((*k).to_string());
        args.push((*v).to_string());
    }
    for f in flags {
        args.push((*f).to_string());
    }
    args
}

fn run_soak(push_target: u64) -> Outcome {
    let started = Instant::now();
    let soak_deadline = started + SOAK_BUDGET;
    let config = net_config();
    let mut supervisor =
        Supervisor::new(RestartPolicy::from_net(&config, SEED), Arc::new(EventLines));

    let (mut sched, sched_addr) = SchedRole::spawn(&[
        "--role".to_string(),
        "scheduler".to_string(),
        "--workers".to_string(),
        WORKERS.to_string(),
        "--pushes".to_string(),
        push_target.to_string(),
    ]);

    // Backup first (the primary's relay target must exist), then primary.
    let mut backup_role = Role::spawn("shard-1", &shard_args(1, &sched_addr, &[], &["--backup"]));
    let backup_addr = backup_role.listening_addr();
    let mut primary_role = Role::spawn(
        "shard-0",
        &shard_args(0, &sched_addr, &[("--relay", &backup_addr)], &[]),
    );
    let primary_addr = primary_role.listening_addr();

    let worker_roles: Vec<Role> = (0..WORKERS)
        .map(|i| {
            Role::spawn(
                &format!("worker-{i}"),
                &[
                    "--role".to_string(),
                    "worker".to_string(),
                    "--id".to_string(),
                    i.to_string(),
                    "--workers".to_string(),
                    WORKERS.to_string(),
                    "--shard".to_string(),
                    primary_addr.clone(),
                    "--sched".to_string(),
                    sched_addr.clone(),
                ],
            )
        })
        .collect();

    // The supervised kill/rejoin cycles. State: who serves, who is the
    // armed warm backup. Kill #k's replacement is fresh shard id k + 1.
    let mut primary = (primary_role, 0u64);
    let mut backup = (backup_role, 1u64, backup_addr);
    let mut catchups = 0u32;
    let mut cycle_violations: Vec<String> = Vec::new();

    for kill in 1..=KILLS {
        // Let pushes flow briefly so every cycle kills a primary that is
        // actively serving, not one that is still settling.
        std::thread::sleep(Duration::from_millis(300));

        eprintln!(
            "[net_rejoin] kill #{kill}: SIGKILL shard {} (serving primary)",
            primary.1
        );
        primary.0.kill();

        let Some(attempt) = supervisor.authorize_restart(primary.1) else {
            cycle_violations.push(format!("restart budget exhausted at kill #{kill}"));
            break;
        };

        // The scheduler must promote the armed backup...
        if !sched.wait_for(
            &format!("EVENT shard_failover shard={}", backup.1),
            Instant::now() + STEP_BUDGET,
        ) {
            cycle_violations.push(format!(
                "kill #{kill}: no promotion of shard {} within {STEP_BUDGET:?}",
                backup.1
            ));
            break;
        }
        let (new_primary_role, new_primary_id, new_primary_addr) = backup;
        primary = (new_primary_role, new_primary_id);

        // ...and the supervisor's replacement process re-provisions
        // itself from the new primary over the wire.
        let id = u64::from(kill) + 1;
        eprintln!(
            "[net_rejoin] restart attempt {attempt}: shard {id} joining via {new_primary_addr}"
        );
        let mut rejoiner = Role::spawn(
            &format!("shard-{id}"),
            &shard_args(
                id,
                &sched_addr,
                &[("--join", &new_primary_addr)],
                &["--backup"],
            ),
        );
        let rejoiner_addr = rejoiner.listening_addr();
        if !sched.wait_for(
            &format!("EVENT catchup_complete shard={id}"),
            Instant::now() + STEP_BUDGET,
        ) {
            cycle_violations.push(format!(
                "kill #{kill}: shard {id} never completed its catch-up within {STEP_BUDGET:?}"
            ));
            backup = (rejoiner, id, rejoiner_addr);
            break;
        }
        catchups += 1;
        backup = (rejoiner, id, rejoiner_addr);
    }

    // The scheduler owns run completion; everyone else gets a short
    // drain window after it exits.
    if !sched.wait_for("STATS", soak_deadline) {
        cycle_violations.push("scheduler never completed the run".to_string());
    }
    let sched_lines = sched.finish(Instant::now() + Duration::from_secs(5));
    let drain = Instant::now() + DRAIN_GRACE;
    let primary_lines = primary.0.finish(drain);
    let backup_lines = backup.0.finish(drain);
    let mut worker_pushes = 0u64;
    let mut workers_reporting = 0usize;
    for role in worker_roles {
        let lines = role.finish(drain);
        if stat(&lines, "worker").is_some() {
            workers_reporting += 1;
        }
        worker_pushes += stat_u64(&lines, "pushes");
    }

    let mut outcome = Outcome {
        kills: KILLS,
        promotions: stat_u64(&sched_lines, "promotions"),
        restarts: supervisor.restarts(),
        catchups,
        completed: stat(&sched_lines, "completed").as_deref() == Some("true"),
        total_pushes: stat_u64(&sched_lines, "total_pushes"),
        final_primary_version: stat_u64(&primary_lines, "version"),
        final_backup_version: stat_u64(&backup_lines, "version"),
        final_primary_serving: stat(&primary_lines, "serving").as_deref() == Some("true"),
        final_backup_serving: stat(&backup_lines, "serving").as_deref() == Some("true"),
        worker_pushes,
        workers_reporting,
        elapsed_ms: started.elapsed().as_millis() as u64,
        violations: Vec::new(),
    };
    outcome.violations = violations(&outcome, push_target);
    outcome.violations.extend(cycle_violations);
    outcome
}

// ----------------------------------------------------------- reporting

fn write_json(path: &Path, o: &Outcome, push_target: u64) {
    let mut s = String::from("{\n");
    s.push_str("  \"generated_by\": \"net_rejoin --json\",\n");
    s.push_str(&format!("  \"workers\": {WORKERS},\n"));
    s.push_str(&format!("  \"push_target\": {push_target},\n"));
    s.push_str(&format!("  \"kills\": {},\n", o.kills));
    s.push_str(&format!("  \"promotions\": {},\n", o.promotions));
    s.push_str(&format!("  \"restarts\": {},\n", o.restarts));
    s.push_str(&format!("  \"catchups\": {},\n", o.catchups));
    s.push_str(&format!("  \"completed\": {},\n", o.completed));
    s.push_str(&format!("  \"total_pushes\": {},\n", o.total_pushes));
    s.push_str(&format!("  \"worker_pushes\": {},\n", o.worker_pushes));
    s.push_str(&format!(
        "  \"final_primary_version\": {},\n",
        o.final_primary_version
    ));
    s.push_str(&format!(
        "  \"final_backup_version\": {},\n",
        o.final_backup_version
    ));
    s.push_str(&format!(
        "  \"workers_reporting\": {},\n",
        o.workers_reporting
    ));
    s.push_str(&format!("  \"elapsed_ms\": {},\n", o.elapsed_ms));
    s.push_str(&format!("  \"passed\": {}\n", o.passed()));
    s.push_str("}\n");
    std::fs::write(path, s).expect("write BENCH_PR10.json");
    eprintln!("[net_rejoin] wrote {}", path.display());
}

/// Pulls the deterministic invariants out of a checked-in report.
/// Hand-rolled on purpose: the workspace has no JSON dependency and the
/// format is our own fixed emitter above.
fn parse_baseline(text: &str) -> Option<(u64, u64, u64, u64, bool)> {
    let mut kills = None;
    let mut promotions = None;
    let mut restarts = None;
    let mut catchups = None;
    let mut passed = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(v) = line.strip_prefix("\"kills\": ") {
            kills = v.parse().ok();
        } else if let Some(v) = line.strip_prefix("\"promotions\": ") {
            promotions = v.parse().ok();
        } else if let Some(v) = line.strip_prefix("\"restarts\": ") {
            restarts = v.parse().ok();
        } else if let Some(v) = line.strip_prefix("\"catchups\": ") {
            catchups = v.parse().ok();
        } else if let Some(v) = line.strip_prefix("\"passed\": ") {
            passed = Some(v == "true");
        }
    }
    Some((kills?, promotions?, restarts?, catchups?, passed?))
}

/// `--check`: the current run must reproduce the checked-in invariants.
/// Timing-dependent counters (pushes, versions, elapsed) are deliberately
/// not compared across machines.
fn check_baseline(path: &str, o: &Outcome) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let (kills, promotions, restarts, catchups, passed) = parse_baseline(&text)
        .unwrap_or_else(|| panic!("baseline {path} is missing invariant fields"));
    assert!(passed, "baseline {path} records the soak as failing");
    assert_eq!(
        u64::from(o.kills),
        kills,
        "kill count {} != baseline {kills}",
        o.kills
    );
    assert_eq!(
        o.promotions, promotions,
        "promotions {} != baseline {promotions}",
        o.promotions
    );
    assert_eq!(
        u64::from(o.restarts),
        restarts,
        "restarts {} != baseline {restarts}",
        o.restarts
    );
    assert_eq!(
        u64::from(o.catchups),
        catchups,
        "catchups {} != baseline {catchups}",
        o.catchups
    );
    eprintln!("[net_rejoin] baseline check OK");
}

fn orchestrate(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let check = arg_value(args, "--check");
    let push_target = if quick {
        QUICK_PUSH_TARGET
    } else {
        PUSH_TARGET
    };

    let o = run_soak(push_target);

    println!();
    println!(
        "{:<6} {:>6} {:>8} {:>8} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "kills", "promo", "restart", "catchup", "pushes", "prim_ver", "back_ver", "elapsed", "pass"
    );
    println!(
        "{:<6} {:>6} {:>8} {:>8} {:>10} {:>9} {:>9} {:>7}ms {:>6}",
        o.kills,
        o.promotions,
        o.restarts,
        o.catchups,
        o.total_pushes,
        o.final_primary_version,
        o.final_backup_version,
        o.elapsed_ms,
        if o.passed() { "ok" } else { "FAIL" },
    );
    for v in &o.violations {
        eprintln!("[net_rejoin]   violation: {v}");
    }

    if json {
        write_json(Path::new("BENCH_PR10.json"), &o, push_target);
    }
    if let Some(path) = &check {
        check_baseline(path, &o);
    }
    assert!(o.passed(), "soak failed: {:?}", o.violations);
    println!("net_rejoin: OK ({} supervised failovers)", o.kills);
}
