//! `train-mf-wire`: SpecSync-Adaptive training of the MF workload over
//! loopback TCP until held-out loss stays at or below the target for five
//! consecutive evaluations (the paper's rule).
//!
//! Roles: a scheduler process, a primary shard process relaying to a
//! warm-backup shard process, and two `WorkerHarness` workers on
//! `TcpTransport` in this process (closed loop: each worker sends its next
//! request only after the previous reply).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use specsync_ml::{BatchSampler, ConvergenceDetector, EvalSet, Model, SparseGrad, Workload};
use specsync_net::{Endpoint, NetError, TcpTransport, Transport, TransportStats, WireMessage};
use specsync_runtime::{ClockSource, WallClock, WorkerHarness, WorkerOutcome};
use specsync_simnet::WorkerId;
use specsync_telemetry::{EventSink, MetricsSink, NullSink};

use crate::replay::{self, SchedCall};
use crate::roles::{net_config, ShardModel, WORKERS};
use crate::util::{median, ms, put_latencies, stat, Report, Role};

/// The MF problem instance every run trains (the Fig. 8 seed). The
/// benchmark seed varies the workers' sampler streams only: time to
/// target moves by more than any usable bound across problem instances.
const MF_SEED: u64 = 42;
/// Artificial compute span per iteration (the abortable window).
const COMPUTE_PAD: Duration = Duration::from_millis(2);
/// Abort poll granularity inside the compute span.
const ABORT_POLL: Duration = Duration::from_millis(1);
/// Hard budget for the training phase; missing the target inside it is
/// a failed run.
const TRAIN_BUDGET: Duration = Duration::from_secs(150);
/// Set-ups measured per run (the last one carries the measured work).
const SETUPS: usize = 9;
/// Pushes whose frames the traced run keeps for replay.
const REPLAY_FRAMES: usize = 256;

/// What the probe around worker `i`'s transport saw.
#[derive(Default)]
struct Probe {
    pull_ms: Vec<f64>,
    push_ms: Vec<f64>,
    versions: Vec<u64>,
    sends: u64,
    errors: u64,
    // Traced run only.
    sched_sends: u64,
    control_frames: u64,
    poll_us: Vec<f64>,
    notify_ms: Vec<f64>,
    iteration_ms: Vec<f64>,
    overshoot_ms: Vec<f64>,
    sched_calls: Vec<SchedCall>,
    push_frames: Vec<WireMessage>,
    pull_frames: Vec<WireMessage>,
    stats: TransportStats,
}

/// Loss evaluation on worker 0's pulled parameters.
struct Evaluator {
    eval: EvalSet,
    detector: ConvergenceDetector,
    reached: Arc<AtomicU64>,
    origin: Instant,
    evals: u64,
    eval_us: Vec<f64>,
    last_loss: f64,
}

/// Shared between the probe transport and the timing model of one worker
/// (traced run): when the last gradient finished, relative to `origin`.
#[derive(Default)]
struct ComputeMarks {
    gradient_end_ns: AtomicU64,
}

/// A `Transport` that times every call into the wrapped `TcpTransport`.
struct ProbeTransport {
    inner: TcpTransport,
    probe: Probe,
    eval: Option<Evaluator>,
    trace: bool,
    origin: Instant,
    marks: Arc<ComputeMarks>,
    iteration_start: Option<Instant>,
}

impl ProbeTransport {
    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }
}

impl Transport for ProbeTransport {
    fn send(&mut self, to: Endpoint, msg: WireMessage) -> Result<Option<WireMessage>, NetError> {
        let verb = match (&to, &msg) {
            (Endpoint::Shard, WireMessage::Pull { .. }) => Some(true),
            (Endpoint::Shard, WireMessage::Push { .. }) => Some(false),
            _ => None,
        };
        let keep_push =
            self.trace && verb == Some(false) && self.probe.push_frames.len() < REPLAY_FRAMES;
        let kept = keep_push.then(|| msg.clone());
        let sched_call = match (&to, &msg) {
            (Endpoint::Scheduler, WireMessage::Pull { worker }) => Some((*worker, None)),
            (Endpoint::Scheduler, WireMessage::Notify { worker, pushes }) => {
                Some((*worker, Some(*pushes)))
            }
            _ => None,
        };
        let start = Instant::now();
        if self.trace && verb == Some(true) && self.iteration_start.is_none() {
            self.iteration_start = Some(start);
        }
        if self.trace && verb == Some(false) {
            // The compute window the worker actually realized: from the
            // end of its last gradient to the push leaving.
            let end = self.marks.gradient_end_ns.load(Ordering::Relaxed);
            let now = self.since_origin(start);
            if end > 0 && now >= end {
                let window = Duration::from_nanos(now - end);
                self.probe.overshoot_ms.push(ms(window) - ms(COMPUTE_PAD));
            }
        }
        let result = self.inner.send(to, msg);
        let took = start.elapsed();
        self.probe.sends += 1;
        if result.is_err() {
            self.probe.errors += 1;
        }
        match verb {
            Some(true) => self.probe.pull_ms.push(ms(took)),
            Some(false) => {
                self.probe.push_ms.push(ms(took));
                if let Some(begin) = self.iteration_start.take() {
                    self.probe.iteration_ms.push(ms(begin.elapsed()));
                }
            }
            None => {}
        }
        if self.trace {
            if to == Endpoint::Scheduler {
                self.probe.sched_sends += 1;
            }
            if let Some(frame) = kept {
                self.probe.push_frames.push(frame);
            }
            if let Some((worker, pushes)) = sched_call {
                let at = self.since_origin(start);
                self.probe.sched_calls.push(SchedCall {
                    at_us: at / 1_000,
                    worker,
                    notify_pushes: pushes,
                });
                if pushes.is_some() {
                    self.probe.notify_ms.push(ms(took));
                }
            }
        }
        if let (Some(true), Ok(Some(WireMessage::PullReply { version, params }))) = (verb, &result)
        {
            self.probe.versions.push(*version);
            if self.trace && self.probe.pull_frames.len() < REPLAY_FRAMES / 8 {
                self.probe.pull_frames.push(WireMessage::PullReply {
                    version: *version,
                    params: Arc::clone(params),
                });
            }
            if let Some(ev) = self.eval.as_mut() {
                let t = Instant::now();
                let loss = ev.eval.loss_of(params);
                ev.eval_us.push(t.elapsed().as_secs_f64() * 1e6);
                ev.evals += 1;
                ev.last_loss = loss;
                if ev.detector.observe(loss) && ev.reached.load(Ordering::SeqCst) == 0 {
                    let at = ev.origin.elapsed().as_nanos().max(1) as u64;
                    ev.reached.store(at, Ordering::SeqCst);
                }
            }
        }
        result
    }

    fn poll_control(&mut self) -> Option<WireMessage> {
        if !self.trace {
            return self.inner.poll_control();
        }
        let start = Instant::now();
        let frame = self.inner.poll_control();
        self.probe.poll_us.push(start.elapsed().as_secs_f64() * 1e6);
        if frame.is_some() {
            self.probe.control_frames += 1;
        }
        frame
    }
}

/// A `Model` that times `gradient` and `set_params` (traced run).
struct TimedModel {
    inner: Box<dyn Model>,
    origin: Instant,
    marks: Arc<ComputeMarks>,
    times: Arc<Mutex<ModelTimes>>,
}

#[derive(Default)]
struct ModelTimes {
    gradient_ms: Vec<f64>,
    set_params_ms: Vec<f64>,
}

impl Model for TimedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }
    fn params(&self) -> &[f32] {
        self.inner.params()
    }
    fn set_params(&mut self, params: &[f32]) {
        let t = Instant::now();
        self.inner.set_params(params);
        self.times
            .lock()
            .expect("model times")
            .set_params_ms
            .push(ms(t.elapsed()));
    }
    fn loss(&self, indices: &[usize]) -> f64 {
        self.inner.loss(indices)
    }
    fn gradient(&self, indices: &[usize], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.gradient(indices, out);
        let end = Instant::now();
        self.times
            .lock()
            .expect("model times")
            .gradient_ms
            .push(ms(end - t));
        self.marks.gradient_end_ns.store(
            end.duration_since(self.origin).as_nanos() as u64,
            Ordering::Relaxed,
        );
    }
    fn sparse_gradient(&self, indices: &[usize], out: &mut SparseGrad) -> bool {
        self.inner.sparse_gradient(indices, out)
    }
}

/// The processes and connections one set-up produced.
struct Cluster {
    scheduler: Role,
    primary: Role,
    backup: Role,
    transports: Vec<TcpTransport>,
    models: Vec<Box<dyn Model>>,
    samplers: Vec<BatchSampler>,
    eval: EvalSet,
}

fn set_up(seed: u64, sink: &Arc<dyn EventSink<Duration>>) -> Cluster {
    let mut scheduler = Role::spawn(
        "scheduler",
        &[
            "scheduler".into(),
            "--workers".into(),
            WORKERS.to_string(),
            "--max-secs".into(),
            (TRAIN_BUDGET.as_secs() + 20).to_string(),
        ],
    );
    let sched = scheduler.listening_addr();
    let shard_args = |id: u64| -> Vec<String> {
        vec![
            "shard".into(),
            "--id".into(),
            id.to_string(),
            "--model".into(),
            ShardModel::Mf.flag().into(),
            "--seed".into(),
            MF_SEED.to_string(),
            "--sched".into(),
            sched.clone(),
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

    let workload = Workload::matrix_factorization();
    let bundle = workload.build(WORKERS, MF_SEED);
    let mut models = Vec::new();
    let mut samplers = Vec::new();
    let mut transports = Vec::new();
    for (i, model) in bundle.workers.into_iter().enumerate() {
        samplers.push(workload.sampler_for(model.as_ref(), i, seed ^ 0xBA7C));
        models.push(model);
        transports.push(
            TcpTransport::connect(
                WorkerId::new(i),
                &primary_addr,
                &sched,
                net_config(),
                Arc::clone(sink),
            )
            .expect("worker connect"),
        );
    }
    Cluster {
        scheduler,
        primary,
        backup,
        transports,
        models,
        samplers,
        eval: bundle.eval,
    }
}

/// Runs one `train-mf-wire` measurement; `trace` adds the per-layer
/// spans, sinks and replays. With a `window` the training stops after
/// that long instead of at the target: the untraced/traced pair behind
/// the per-layer numbers then takes about as long as one training.
pub fn run(seed: u64, trace: bool, window: Option<Duration>) -> Report {
    let mut report = Report::default();
    let metrics_sink = Arc::new(MetricsSink::new());
    let sink: Arc<dyn EventSink<Duration>> = if trace {
        metrics_sink.clone()
    } else {
        Arc::new(NullSink)
    };

    // Set-up: spawn and bind roles, build datasets, connect. Repeated so
    // the reported set-up time is a median; only the last one trains.
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let c = set_up(seed, &sink);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(c.transports);
            c.scheduler.kill();
            c.primary.kill();
            c.backup.kill();
        } else {
            cluster = Some(c);
        }
    }
    let Cluster {
        mut scheduler,
        primary,
        backup,
        transports,
        models,
        samplers,
        eval,
    } = cluster.expect("at least one set-up");

    let workload = Workload::matrix_factorization();
    let origin = Instant::now();
    let reached = Arc::new(AtomicU64::new(0));
    let stops: Vec<Arc<AtomicBool>> = (0..WORKERS)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let model_times = Arc::new(Mutex::new(ModelTimes::default()));
    let clock: Arc<dyn ClockSource> = Arc::new(WallClock::new());
    let mut eval = Some(eval);
    let mut handles = Vec::new();
    for (i, ((transport, model), sampler)) in
        transports.into_iter().zip(models).zip(samplers).enumerate()
    {
        let marks = Arc::new(ComputeMarks::default());
        let model: Box<dyn Model> = if trace {
            Box::new(TimedModel {
                inner: model,
                origin,
                marks: Arc::clone(&marks),
                times: Arc::clone(&model_times),
            })
        } else {
            model
        };
        let evaluator = if i == 0 {
            eval.take().map(|eval| Evaluator {
                eval,
                detector: workload.convergence_detector(),
                reached: Arc::clone(&reached),
                origin,
                evals: 0,
                eval_us: Vec::new(),
                last_loss: f64::NAN,
            })
        } else {
            None
        };
        let mut probe = ProbeTransport {
            inner: transport,
            probe: Probe::default(),
            eval: evaluator,
            trace,
            origin,
            marks,
            iteration_start: None,
        };
        let harness = WorkerHarness {
            worker: WorkerId::new(i),
            model,
            sampler,
            compute_pad: COMPUTE_PAD,
            abort_poll: ABORT_POLL,
            heartbeat_interval: Duration::from_millis(25),
            mute_after: None,
            drop_notify_every: None,
            clock: Arc::clone(&clock),
            sink: Arc::clone(&sink),
            run_start: clock.now(),
            stop: Arc::clone(&stops[i]),
        };
        let stop = Arc::clone(&stops[i]);
        handles.push(std::thread::spawn(move || {
            let outcome = harness.run(&mut probe);
            // A worker that returns while its stop flag is clear left on
            // its own (dead transport or a Shutdown frame).
            let early = !stop.load(Ordering::SeqCst);
            probe.probe.stats = probe.inner.stats();
            // Dropping the transport closes its sockets, so every frame
            // it sent reaches the scheduler before the scheduler stops.
            let ProbeTransport { probe, eval, .. } = probe;
            (outcome, probe, eval, early)
        }));
    }

    // The benchmark owns shutdown: wait for the target, the scheduler
    // ending its run, or the budget; then stop every worker, then reap
    // every role.
    loop {
        if reached.load(Ordering::SeqCst) != 0
            || scheduler.has_exited()
            || origin.elapsed() >= window.unwrap_or(TRAIN_BUDGET)
            || handles.iter().all(|h| h.is_finished())
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall = origin.elapsed();
    for stop in &stops {
        stop.store(true, Ordering::SeqCst);
    }
    let results: Vec<(WorkerOutcome, Probe, Option<Evaluator>, bool)> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let sched = scheduler.finish(deadline);
    let primary_stats = primary.finish(deadline);
    let backup_stats = backup.finish(deadline);

    // ---- end-to-end numbers
    let reached_ns = reached.load(Ordering::SeqCst);
    let time_to_target = Duration::from_nanos(reached_ns);
    let pushes: u64 = results.iter().map(|(o, ..)| o.pushes).sum();
    let honored: u64 = results.iter().map(|(o, ..)| o.aborts).sum();
    let mut pull_ms = Vec::new();
    let mut push_ms = Vec::new();
    let mut sends = 0;
    let mut errors = 0;
    let mut retries = 0;
    let mut resets = 0;
    let mut exhausted = 0;
    let mut early_exits = 0;
    for (_, p, _, early) in &results {
        pull_ms.extend_from_slice(&p.pull_ms);
        push_ms.extend_from_slice(&p.push_ms);
        sends += p.sends;
        errors += p.errors;
        retries += p.stats.conn_retries;
        resets += p.stats.conn_resets;
        exhausted += p.stats.retries_exhausted;
        early_exits += u64::from(*early);
    }
    let rss = crate::util::own_peak_rss_mb()
        + stat(&sched, "rss_mb")
        + stat(&primary_stats, "rss_mb")
        + stat(&backup_stats, "rss_mb");

    let missed = window.is_none() && reached_ns == 0;
    report.attempted = sends + WORKERS as u64 + 1;
    report.failed = errors + retries + resets + early_exits + u64::from(missed);

    let (target_wall, note) = match (window, reached_ns) {
        (Some(_), _) => (wall, "training window; the target is not required"),
        (None, 0) => (wall, "target missed: the whole budget"),
        (None, _) => (
            time_to_target,
            "time to held-out loss <= 0.05, 5 consecutive evaluations",
        ),
    };
    report.put("setup_s", median(&setup_s), "s", setup_s.len());
    report.put_note("wall_s", target_wall.as_secs_f64(), "s", 1, note);
    report.put(
        "pushes_per_s",
        pushes as f64 / wall.as_secs_f64(),
        "1/s",
        pushes as usize,
    );
    report.put("peak_rss_mb", rss, "MB", 4);
    put_latencies(&mut report, &pull_ms, &push_ms);

    // ---- output checks
    let evaluator = results[0].2.as_ref().expect("worker 0 evaluates");
    report.check(
        !missed,
        format!(
            "target loss {} not reached within {:?} (last loss {:.4} after {} evaluations)",
            workload.target_loss, TRAIN_BUDGET, evaluator.last_loss, evaluator.evals
        ),
    );
    let sched_pushes = stat(&sched, "total_pushes") as u64;
    report.check(
        sched_pushes == pushes,
        format!("scheduler counted {sched_pushes} pushes, workers made {pushes}"),
    );
    let pv = primary_stats.get("version").cloned().unwrap_or_default();
    let bv = backup_stats.get("version").cloned().unwrap_or_default();
    report.check(
        !pv.is_empty() && pv == bv,
        format!("primary ended at version {pv:?}, backup at {bv:?}"),
    );
    report.check(
        stat(&primary_stats, "version") as u64 == pushes,
        format!("primary version {pv} != {pushes} acked pushes"),
    );

    if trace {
        let times = model_times.lock().expect("model times");
        let probes: Vec<&Probe> = results.iter().map(|(_, p, ..)| p).collect();
        let snapshot = metrics_sink.snapshot();
        trace_metrics(
            &mut report,
            &probes,
            &times,
            &snapshot,
            evaluator,
            pushes,
            honored,
            stat(&sched, "aborts") as u64,
            (retries, resets, exhausted),
        );
        // The same MF training in virtual time: the simulator's layers,
        // after every role is reaped so they do not share the machine.
        crate::sim::layers(&mut report, seed);
    } else {
        report.put("core.aborts_issued", stat(&sched, "aborts"), "count", 1);
        report.put("core.aborts_honored", honored as f64, "count", 1);
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn trace_metrics(
    report: &mut Report,
    probes: &[&Probe],
    times: &ModelTimes,
    snapshot: &specsync_telemetry::MetricsSnapshot,
    evaluator: &Evaluator,
    pushes: u64,
    honored: u64,
    issued: u64,
    (retries, resets, exhausted): (u64, u64, u64),
) {
    let all = |f: fn(&Probe) -> &Vec<f64>| -> Vec<f64> {
        probes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let push_ms = all(|p| &p.push_ms);
    let push_frames: Vec<WireMessage> = probes
        .iter()
        .flat_map(|p| p.push_frames.iter().cloned())
        .collect();
    let pull_frames: Vec<WireMessage> = probes
        .iter()
        .flat_map(|p| p.pull_frames.iter().cloned())
        .collect();

    // net: codec stages on the run's own frames.
    let codec = replay::codec(&push_frames, &pull_frames);
    codec.put(report);
    let relay = replay::relay_rtt(ShardModel::Mf, MF_SEED, &push_frames);
    report.put("net.relay_rtt_ms", median(&relay), "ms", relay.len());
    let apply = replay::apply_dense(ShardModel::Mf, MF_SEED, &push_frames, pushes as usize);
    report.put(
        "ps.apply_dense_ms",
        median(&apply.apply_ms),
        "ms",
        apply.apply_ms.len(),
    );
    apply.put_journal(report);
    // Self time of a push round trip: encode + decode of the push and of
    // its ack, relay, and apply. The rest is sockets, queues, hand-offs.
    let self_ms = codec.push_self_ms() + median(&relay) + median(&apply.apply_ms);
    report.put_note(
        "net.wait_ms",
        (median(&push_ms) - self_ms).max(0.0),
        "ms",
        push_ms.len(),
        "push p50 round trip minus replayed self time",
    );
    let sched_frames: u64 = probes
        .iter()
        .map(|p| p.sched_sends + p.control_frames)
        .sum();
    report.put(
        "net.control_frames_per_push",
        sched_frames as f64 / pushes.max(1) as f64,
        "ratio",
        pushes as usize,
    );
    let bytes: u64 = snapshot.per_worker.iter().map(|w| w.bytes_sent).sum();
    report.put_note(
        "net.bytes_per_push",
        bytes as f64 / pushes.max(1) as f64,
        "B",
        pushes as usize,
        "all worker bytes sent / pushes",
    );
    let mut versions: Vec<u64> = probes
        .iter()
        .flat_map(|p| p.versions.iter().copied())
        .collect();
    let pulls = versions.len();
    versions.sort_unstable();
    versions.dedup();
    report.put(
        "net.pull_cache_hit_ratio",
        (pulls - versions.len()) as f64 / pulls.max(1) as f64,
        "ratio",
        pulls,
    );
    report.put("net.conn_retries", retries as f64, "count", 1);
    report.put("net.conn_resets", resets as f64, "count", 1);
    report.put("net.retries_exhausted", exhausted as f64, "count", 1);
    let poll = all(|p| &p.poll_us);
    report.put("net.poll_control_us", median(&poll), "us", poll.len());
    let notify = all(|p| &p.notify_ms);
    report.put("net.notify_ms", median(&notify), "ms", notify.len());

    // core: the run's scheduler calls replayed through a fresh Scheduler.
    let mut calls: Vec<SchedCall> = probes
        .iter()
        .flat_map(|p| p.sched_calls.iter().cloned())
        .collect();
    calls.sort_by_key(|c| c.at_us);
    let core = replay::scheduler(&calls, WORKERS);
    core.put(report);
    report.put("core.aborts_issued", issued as f64, "count", 1);
    report.put("core.aborts_honored", honored as f64, "count", 1);
    report.put(
        "core.abort_useful_ratio",
        honored as f64 / issued.max(1) as f64,
        "ratio",
        issued as usize,
    );
    report.put(
        "core.resync_ratio",
        honored as f64 / pushes.max(1) as f64,
        "ratio",
        pushes as usize,
    );
    report.put(
        "core.wasted_compute_s",
        snapshot.total_wasted_micros() as f64 / 1e6,
        "s",
        snapshot.total_resyncs() as usize,
    );

    // ml and runtime.
    report.put(
        "ml.gradient_ms",
        median(&times.gradient_ms),
        "ms",
        times.gradient_ms.len(),
    );
    report.put(
        "ml.set_params_ms",
        median(&times.set_params_ms),
        "ms",
        times.set_params_ms.len(),
    );
    report.put(
        "ml.eval_us",
        median(&evaluator.eval_us),
        "us",
        evaluator.eval_us.len(),
    );
    let iteration = all(|p| &p.iteration_ms);
    report.put(
        "runtime.iteration_ms",
        median(&iteration),
        "ms",
        iteration.len(),
    );
    let overshoot = all(|p| &p.overshoot_ms);
    report.put(
        "runtime.pad_overshoot_ms",
        median(&overshoot),
        "ms",
        overshoot.len(),
    );
}
