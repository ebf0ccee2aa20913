//! Server-side and simulator-internal stages, replayed through the
//! layers' public functions on a run's own frames, events and batches.
//! Only traced runs call these.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use specsync_core::Scheduler;
use specsync_net::frame::fnv1a;
use specsync_net::{
    decode_frame, encode_frame, ConnSeq, ConnTarget, FrameConn, ShardServer, WireMessage,
};
use specsync_ps::{PushPayload, ReplicatedStore};
use specsync_simnet::{VirtualTime, WorkerId};
use specsync_sync::{SchemeKind, TuningMode};

use crate::roles::{net_config, shard_host, ShardModel};
use crate::util::{median, ms, Report};

/// Bytes before a frame's payload (magic, format, length, checksum).
const HEADER_LEN: usize = 20;
/// Relay frames exchanged against the standalone backup.
const RELAY_SAMPLE: usize = 64;

/// p50 timings of the frame codec over one set of frames.
pub struct Codec {
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub checksum_ms: Vec<f64>,
    push_encode_ms: Vec<f64>,
    push_decode_ms: Vec<f64>,
    ack_ms: Vec<f64>,
}

impl Codec {
    /// Encode + decode of a push and of its ack: the codec part of a push
    /// round trip (each side's checksum is inside its call).
    pub fn push_self_ms(&self) -> f64 {
        median(&self.push_encode_ms) + median(&self.push_decode_ms) + median(&self.ack_ms)
    }

    pub fn put(&self, report: &mut Report) {
        report.put_note(
            "net.encode_ms",
            median(&self.encode_ms),
            "ms",
            self.encode_ms.len(),
            "encode_frame p50, PullReply + Push frames, includes one fnv1a",
        );
        report.put_note(
            "net.decode_ms",
            median(&self.decode_ms),
            "ms",
            self.decode_ms.len(),
            "decode_frame p50, includes one fnv1a",
        );
        report.put(
            "net.checksum_ms",
            median(&self.checksum_ms),
            "ms",
            self.checksum_ms.len(),
        );
    }
}

/// Times `encode_frame`, `fnv1a` over the payload, and `decode_frame` on
/// every frame given.
pub fn codec(push_frames: &[WireMessage], pull_frames: &[WireMessage]) -> Codec {
    let mut c = Codec {
        encode_ms: Vec::new(),
        decode_ms: Vec::new(),
        checksum_ms: Vec::new(),
        push_encode_ms: Vec::new(),
        push_decode_ms: Vec::new(),
        ack_ms: Vec::new(),
    };
    let ack = WireMessage::PushAck {
        version: 1,
        pushes_by_worker: 1,
    };
    for (i, frame) in push_frames.iter().chain(pull_frames).enumerate() {
        let t = Instant::now();
        let bytes = encode_frame(frame).expect("replayed frame encodes");
        let enc = ms(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(fnv1a(&bytes[HEADER_LEN..]));
        let sum = ms(t.elapsed());
        let t = Instant::now();
        let back = decode_frame(&bytes).expect("replayed frame decodes");
        let dec = ms(t.elapsed());
        std::hint::black_box(back);
        c.encode_ms.push(enc);
        c.decode_ms.push(dec);
        c.checksum_ms.push(sum);
        if i < push_frames.len() {
            c.push_encode_ms.push(enc);
            c.push_decode_ms.push(dec);
            let t = Instant::now();
            let bytes = encode_frame(&ack).expect("ack encodes");
            std::hint::black_box(decode_frame(&bytes).expect("ack decodes"));
            c.ack_ms.push(ms(t.elapsed()));
        }
    }
    c
}

/// `RelayPush` frames for the given pushes, tagged by a mirror host
/// exactly as the primary's apply thread tags them.
fn relay_frames(model: ShardModel, seed: u64, pushes: &[WireMessage]) -> Vec<WireMessage> {
    let mut mirror = shard_host(model, seed);
    pushes
        .iter()
        .take(RELAY_SAMPLE)
        .map(|push| {
            let relay = mirror.tag_relay(push).expect("push frames tag");
            mirror.handle(push.clone()).expect("mirror applies");
            relay
        })
        .collect()
}

/// `FrameConn::exchange` round trips of the run's `RelayPush` frames
/// against a standalone warm backup (a `ShardServer` on loopback).
pub fn relay_rtt(model: ShardModel, seed: u64, pushes: &[WireMessage]) -> Vec<f64> {
    let frames = relay_frames(model, seed, pushes);
    let server = ShardServer::bind(9, "127.0.0.1:0", shard_host(model, seed), net_config())
        .expect("bind standalone backup")
        .as_backup();
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());
    let seq = ConnSeq::new();
    let mut conn = FrameConn::connect_with_retries(
        &addr,
        &net_config(),
        &ConnTarget::new("relay-replay", &seq, 9),
        |_| {},
    )
    .expect("connect standalone backup");
    let mut rtt = Vec::new();
    for frame in &frames {
        let t = Instant::now();
        if conn.exchange(frame).is_ok() {
            rtt.push(ms(t.elapsed()));
        }
    }
    drop(conn);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = handle.join();
    rtt
}

/// Store-side replay: dense applies through `ShardHost::handle(Push)` on
/// a mirror host, with the journal's forced catch-up timed on its own.
pub struct Apply {
    pub apply_ms: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub peak_entries: usize,
    pub entry_bytes: usize,
}

impl Apply {
    pub fn put_journal(&self, report: &mut Report) {
        report.put(
            "ps.journal_syncs",
            self.sync_ms.len() as f64,
            "count",
            self.apply_ms.len(),
        );
        let worst = self.sync_ms.iter().copied().fold(0.0, f64::max);
        report.put_note(
            "ps.journal_sync_ms",
            worst,
            "ms",
            self.sync_ms.len(),
            "longest ReplicatedStore::sync_backup",
        );
        report.put(
            "ps.journal_peak_mb",
            (self.peak_entries * self.entry_bytes) as f64 / (1u64 << 20) as f64,
            "MB",
            self.apply_ms.len(),
        );
    }
}

/// Applies `count` pushes (cycling through `pushes`) to a mirror host.
/// A full journal is drained with an explicit `sync_backup` before the
/// push that would have forced it, so the stall is timed by itself.
pub fn apply_dense(model: ShardModel, seed: u64, pushes: &[WireMessage], count: usize) -> Apply {
    let mut host = shard_host(model, seed);
    let mut out = Apply {
        apply_ms: Vec::new(),
        sync_ms: Vec::new(),
        peak_entries: 0,
        entry_bytes: 0,
    };
    for push in pushes.iter().cycle().take(count) {
        if let WireMessage::Push {
            payload: PushPayload::Dense(g),
            ..
        } = push
        {
            out.entry_bytes = g.len() * 4;
        }
        if host.replica().journal_lag() >= ReplicatedStore::DEFAULT_JOURNAL_CAPACITY {
            let t = Instant::now();
            host.replica_mut().sync_backup();
            out.sync_ms.push(ms(t.elapsed()));
        }
        let frame = push.clone();
        let t = Instant::now();
        host.handle(frame).expect("mirror applies");
        out.apply_ms.push(ms(t.elapsed()));
        out.peak_entries = out.peak_entries.max(host.replica().journal_lag());
    }
    out
}

/// One scheduler-bound call a worker made: a pull notice, or a notify
/// carrying the worker's cumulative push count.
#[derive(Debug, Clone)]
pub struct SchedCall {
    pub at_us: u64,
    pub worker: WorkerId,
    pub notify_pushes: Option<u64>,
}

/// Per-call timings of a fresh `Scheduler` fed a run's calls.
pub struct Core {
    pub on_pull_us: Vec<f64>,
    pub on_notify_us: Vec<f64>,
    pub on_check_us: Vec<f64>,
    pub tune_ms: Vec<f64>,
}

impl Core {
    pub fn total_s(&self) -> f64 {
        let us: f64 = self.on_pull_us.iter().sum::<f64>()
            + self.on_notify_us.iter().sum::<f64>()
            + self.on_check_us.iter().sum::<f64>();
        us / 1e6 + self.tune_ms.iter().sum::<f64>() / 1e3
    }

    pub fn put(&self, report: &mut Report) {
        report.put(
            "core.on_pull_us",
            median(&self.on_pull_us),
            "us",
            self.on_pull_us.len(),
        );
        report.put(
            "core.on_notify_us",
            median(&self.on_notify_us),
            "us",
            self.on_notify_us.len(),
        );
        report.put(
            "core.on_check_us",
            median(&self.on_check_us),
            "us",
            self.on_check_us.len(),
        );
        report.put(
            "core.tune_ms",
            median(&self.tune_ms),
            "ms",
            self.tune_ms.len(),
        );
    }
}

/// Replays `calls` (sorted by time) through a fresh SpecSync-Adaptive
/// scheduler the way the wire scheduler drives it: notifies arm
/// speculation-window timers, timers fire as checks, and each completed
/// epoch retunes.
pub fn scheduler(calls: &[SchedCall], m: usize) -> Core {
    let SchemeKind::SpecSync { tuning, .. } = SchemeKind::specsync_adaptive() else {
        unreachable!("specsync_adaptive is a SpecSync scheme")
    };
    debug_assert!(matches!(tuning, TuningMode::Adaptive));
    let mut core = Scheduler::new(m, tuning);
    let mut out = Core {
        on_pull_us: Vec::new(),
        on_notify_us: Vec::new(),
        on_check_us: Vec::new(),
        tune_ms: Vec::new(),
    };
    let mut timers: BinaryHeap<Reverse<(VirtualTime, usize)>> = BinaryHeap::new();
    let mut per_worker = vec![0u64; m];
    let mut epochs = 0u64;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for call in calls {
        let now = VirtualTime::from_micros(call.at_us);
        while let Some(Reverse((deadline, w))) = timers.peek().copied() {
            if deadline > now {
                break;
            }
            timers.pop();
            let t = Instant::now();
            std::hint::black_box(core.on_check(WorkerId::new(w), deadline));
            out.on_check_us.push(us(t));
        }
        let w = call.worker.index();
        if w >= m {
            continue;
        }
        match call.notify_pushes {
            None => {
                let t = Instant::now();
                core.on_pull(call.worker, now);
                out.on_pull_us.push(us(t));
            }
            Some(pushes) => {
                let t = Instant::now();
                let deadline = core.try_on_notify_reconciled(call.worker, pushes, now);
                out.on_notify_us.push(us(t));
                if let Ok(Some(deadline)) = deadline {
                    timers.push(Reverse((deadline, w)));
                }
                per_worker[w] = per_worker[w].max(pushes);
                let min = per_worker.iter().copied().min().unwrap_or(0);
                while min > epochs {
                    epochs += 1;
                    let t = Instant::now();
                    core.on_epoch_complete(now);
                    out.tune_ms.push(us(t) / 1e3);
                }
            }
        }
    }
    out
}
