//! The process-level hosts: a TCP shard server fronting a [`ShardHost`]
//! and a TCP scheduler server fronting the core SpecSync [`Scheduler`] —
//! together they let the roles of the paper's Fig. 7 run as separate OS
//! processes on one host.
//!
//! # Shard server
//!
//! A blocking accept loop hands each connection to its own thread.
//! Pulls are served from the host's per-version encoded-frame cache
//! (serialize once, share the bytes across every concurrent client);
//! pushes funnel through a **single apply thread**, which write-ahead
//! relays each push to the warm-backup process *before* applying it
//! locally — one thread doing both means relay order equals apply
//! order, so the backup replays the primary's exact sequence. The relay
//! carries [`WireMessage::RelayPush`] frames tagged with the store
//! version each push produces, so delivery can stay at-least-once while
//! the backup applies exactly once (redeliveries are acked without
//! re-applying).
//!
//! The apply thread also owns **backup (re)provisioning**: a fresh
//! process connects, sends `JoinAsBackup`, and the apply thread streams
//! it a `StoreCheckpoint` in bounded `SnapshotChunk` frames plus the
//! journal tail as `RelayPush` replays. Because live pushes queue behind
//! the join command on the same channel, the snapshot is a clean cut of
//! the push order — everything after parity reaches the new backup as a
//! live relay down the very same connection.
//!
//! # Scheduler server
//!
//! One central loop owns every connection's writer and all protocol
//! state, exactly like the threaded runtime's scheduler thread — frames
//! arrive over a channel from per-connection reader threads, and timer
//! deadlines re-enter through [`WireMessage::Check`] so a speculation
//! window fires through the same handler whether a socket or a clock woke
//! it. The loop detects a dead primary shard two ways (its connection
//! closing, or heartbeat silence past the timeout) and promotes the warm
//! backup by sending `Failover(Promote)` down the backup's registered
//! connection; the backup's `Promoted` reply flips the advertised primary
//! address and bumps the promotion epoch that reconnecting workers see.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use specsync_core::Scheduler;
use specsync_ps::{JournalEntry, ParameterStore, ReplicatedStore, StoreCheckpoint};
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_sync::{SchemeKind, TuningMode};
use specsync_telemetry::{Event, EventSink, NullSink};

use crate::chaos::{ChaosListener, ChaosStream, ConnSeq};
use crate::config::NetConfig;
use crate::error::NetError;
use crate::frame::{read_frame, write_frame, ReadOutcome};
use crate::host::ShardHost;
use crate::transport::WallElapsed;
use crate::transport::{ConnTarget, FrameConn};
use crate::wire::{FailoverControl, WireMessage};

// ---------------------------------------------------------------- shard

/// Counters a [`ShardServer`] accumulates; cheap atomics shared across
/// connection threads.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pulls_served: AtomicU64,
    pushes_applied: AtomicU64,
    relayed: AtomicU64,
    /// Pushes absorbed via the write-ahead relay while still a backup —
    /// reported as `replayed` in the `Promoted` frame.
    absorbed: AtomicU64,
}

/// What a [`ShardServer::run`] did, reported when the server stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Pull requests answered.
    pub pulls_served: u64,
    /// Pushes applied to the local store.
    pub pushes_applied: u64,
    /// Pushes write-ahead relayed to the warm backup.
    pub relayed: u64,
    /// Whether this process ended the run as the serving primary.
    pub serving: bool,
    /// Final store version.
    pub version: u64,
}

/// A parameter-server shard as an OS process: a [`ShardHost`] behind a
/// TCP listener. See the module docs for the threading model.
pub struct ShardServer {
    shard_id: u64,
    listener: TcpListener,
    local_addr: String,
    host: Arc<Mutex<ShardHost>>,
    config: NetConfig,
    /// Whether this process currently serves workers (primaries start
    /// `true`, warm backups `false` until promoted).
    serving: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    counters: Arc<ShardCounters>,
    backup_addr: Option<String>,
    sched_addr: Option<String>,
    join_addr: Option<String>,
}

/// What the single apply thread consumes: push-class frames in arrival
/// order, interleaved with join requests from re-provisioning backups.
enum ApplyCmd {
    /// A push to relay-then-apply, with the accepting connection thread's
    /// reply channel.
    Frame(WireMessage, Sender<WireMessage>),
    /// A joining backup's connection: stream it a snapshot plus the
    /// journal tail, then adopt it as the write-ahead relay target.
    Join(FrameConn),
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("shard_id", &self.shard_id)
            .field("addr", &self.local_addr)
            .field("serving", &self.serving.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ShardServer {
    /// Binds a shard listener (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or an invalid configuration — a
    /// degenerate heartbeat ordering is refused here, before the process
    /// joins a cluster it would destabilize.
    pub fn bind(
        shard_id: u64,
        addr: &str,
        host: ShardHost,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        config.try_validate().map_err(NetError::Config)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?.to_string();
        Ok(ShardServer {
            shard_id,
            listener,
            local_addr,
            host: Arc::new(Mutex::new(host)),
            config,
            serving: Arc::new(AtomicBool::new(true)),
            stop: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(ShardCounters::default()),
            backup_addr: None,
            sched_addr: None,
            join_addr: None,
        })
    }

    /// The address the shard actually listens on.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Starts as the warm backup: refuse worker pulls, absorb relayed
    /// pushes, and wait for the scheduler's `Promote`.
    pub fn as_backup(self) -> Self {
        self.serving.store(false, Ordering::SeqCst);
        self
    }

    /// Write-ahead relay target: the warm-backup process's address. Set
    /// on the primary.
    pub fn with_backup_relay(mut self, addr: &str) -> Self {
        self.backup_addr = Some(addr.to_string());
        self
    }

    /// Registers with a scheduler: the shard connects, announces its
    /// address and role, heartbeats, and obeys `Promote`/`Shutdown` sent
    /// back down the same connection.
    pub fn with_scheduler(mut self, addr: &str) -> Self {
        self.sched_addr = Some(addr.to_string());
        self
    }

    /// Re-provisions this shard from the live primary at `addr` before
    /// serving: stream its checkpoint, replay the journal tail to parity,
    /// and stay on the connection as the primary's new write-ahead relay
    /// target. Implies backup duty; combine with [`Self::as_backup`].
    pub fn join_via(mut self, addr: &str) -> Self {
        self.join_addr = Some(addr.to_string());
        self
    }

    /// A handle that flips this server's stop flag (for embedding in
    /// tests; shard processes normally stop on the scheduler's
    /// `Shutdown`).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The live counters, observable while the server runs (tests use
    /// this to wait for a rejoin handshake to finish before stopping).
    #[cfg(test)]
    pub(crate) fn counters_handle(&self) -> Arc<ShardCounters> {
        Arc::clone(&self.counters)
    }

    /// Serves until shutdown. Blocking; returns the run's counters.
    ///
    /// # Errors
    ///
    /// Connection errors reaching the scheduler or the backup relay at
    /// startup. Per-connection errors after startup drop the connection,
    /// never the server.
    pub fn run(self) -> Result<ShardStats, NetError> {
        let ShardServer {
            shard_id,
            listener,
            local_addr,
            host,
            config,
            serving,
            stop,
            counters,
            backup_addr,
            sched_addr,
            join_addr,
        } = self;

        // Per-process outbound connection sequence: chaos scripts advance
        // per label, so reconnects draw fresh fault streams.
        let seq = ConnSeq::new();

        // Write-ahead relay to the warm backup, handed to the apply
        // thread (relay-then-apply in one thread keeps the orders equal).
        let relay = match &backup_addr {
            Some(addr) => Some(FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("relay", &seq, shard_id),
                |_| {},
            )?),
            None => None,
        };

        // Single apply thread: every push (from any connection) funnels
        // through here in channel order, as do join requests — so a
        // snapshot handed to a joiner is a clean cut of the push order.
        let (apply_tx, apply_rx) = unbounded::<ApplyCmd>();
        {
            let host = Arc::clone(&host);
            let counters = Arc::clone(&counters);
            let serving = Arc::clone(&serving);
            let chunk_bytes = config.join_chunk_bytes;
            let mut relay = relay;
            std::thread::spawn(move || {
                while let Ok(cmd) = apply_rx.recv() {
                    match cmd {
                        ApplyCmd::Frame(frame, reply_tx) => {
                            if let Some(conn) = relay.as_mut() {
                                // Tag the relayed push with the version it
                                // will produce so the backup can ack a
                                // redelivery without re-applying it.
                                let tagged = {
                                    let locked = host.lock();
                                    locked.encode_relay(&frame)
                                };
                                if let Some(relay_bytes) = tagged {
                                    // Write-ahead: the backup holds the push
                                    // before the primary applies it. A dead
                                    // relay degrades to unreplicated serving
                                    // rather than stalling the run.
                                    let relayed = relay_bytes.and_then(|bytes| {
                                        conn.write_encoded(&bytes)?;
                                        conn.recv()
                                    });
                                    if relayed.is_err() {
                                        relay = None;
                                    } else {
                                        counters.relayed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            let applied = {
                                let mut locked = host.lock();
                                locked.handle(frame)
                            };
                            if let Ok(Some(ack)) = applied {
                                counters.pushes_applied.fetch_add(1, Ordering::Relaxed);
                                if !serving.load(Ordering::SeqCst) {
                                    counters.absorbed.fetch_add(1, Ordering::Relaxed);
                                }
                                let _ = reply_tx.send(ack);
                            }
                        }
                        ApplyCmd::Join(mut conn) => {
                            let (checkpoint, tail) = {
                                let mut locked = host.lock();
                                locked.replica_mut().rejoin_snapshot()
                            };
                            if stream_rejoin(&mut conn, &checkpoint, &tail, chunk_bytes).is_ok() {
                                counters
                                    .relayed
                                    .fetch_add(tail.len() as u64, Ordering::Relaxed);
                                // The joiner confirmed parity: it replaces
                                // whatever relay target this process had.
                                relay = Some(conn);
                            }
                        }
                    }
                }
            });
        }

        // A rejoining backup provisions itself from the live primary
        // before talking to the scheduler, so it is only ever armed for
        // promotion at parity.
        let mut joined: Option<(u64, u64)> = None;
        if let Some(addr) = &join_addr {
            let mut conn = FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("join", &seq, shard_id),
                |_| {},
            )?;
            let (version, replayed) = join_cluster(&mut conn, shard_id, &local_addr, &host)?;
            counters
                .pushes_applied
                .fetch_add(replayed, Ordering::Relaxed);
            counters.absorbed.fetch_add(replayed, Ordering::Relaxed);
            joined = Some((version, replayed));
            // The same connection now carries the primary's write-ahead
            // relay: serve it like any accepted data connection. Clear
            // the outbound io timeout first — relays arrive only when
            // workers push, and an idle stretch is not a dead peer.
            conn.set_read_timeout(None).ok();
            let host = Arc::clone(&host);
            let serving = Arc::clone(&serving);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let apply_tx = apply_tx.clone();
            std::thread::spawn(move || {
                serve_shard_conn(conn, &host, &serving, &stop, &counters, &apply_tx);
            });
        }

        // Scheduler link: register, heartbeat, obey control frames.
        if let Some(addr) = &sched_addr {
            let conn = FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("sched", &seq, shard_id),
                |_| {},
            )?;
            let mut writer = conn.into_stream();
            let mut reader = writer.try_clone()?;
            reader.set_read_timeout(None).ok();
            write_frame(
                &mut writer,
                &WireMessage::Failover(FailoverControl::Register {
                    server: shard_id,
                    backup: !serving.load(Ordering::SeqCst),
                    addr: local_addr.clone(),
                }),
            )?;
            if let Some((version, replayed)) = joined {
                // Tell the scheduler the catch-up finished and where it
                // landed, so the rejoin is visible in the event stream.
                write_frame(
                    &mut writer,
                    &WireMessage::Failover(FailoverControl::BackupReady {
                        server: shard_id,
                        version,
                        replayed,
                    }),
                )?;
            }
            // Outbound frames (heartbeats + control replies) leave through
            // one writer thread, so no lock ever spans a socket write.
            let (out_tx, out_rx) = unbounded::<WireMessage>();
            {
                let stop = Arc::clone(&stop);
                let interval = config.heartbeat_interval;
                let beat = WireMessage::Heartbeat {
                    worker: WorkerId::new(shard_id as usize),
                };
                std::thread::spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let frame = match out_rx.recv_timeout(interval) {
                        Ok(frame) => frame,
                        Err(RecvTimeoutError::Timeout) => beat.clone(),
                        Err(RecvTimeoutError::Disconnected) => break,
                    };
                    if write_frame(&mut writer, &frame).is_err() {
                        break;
                    }
                });
            }
            {
                let stop = Arc::clone(&stop);
                let serving = Arc::clone(&serving);
                let host = Arc::clone(&host);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || loop {
                    match read_frame(&mut reader) {
                        Ok(ReadOutcome::Frame(WireMessage::Failover(fc), _)) => match fc {
                            FailoverControl::Promote { server } => {
                                serving.store(true, Ordering::SeqCst);
                                let version = {
                                    let locked = host.lock();
                                    locked.replica().version()
                                };
                                let _ =
                                    out_tx.send(WireMessage::Failover(FailoverControl::Promoted {
                                        server,
                                        version,
                                        replayed: counters.absorbed.load(Ordering::Relaxed),
                                    }));
                            }
                            FailoverControl::Crash { server } => {
                                serving.store(false, Ordering::SeqCst);
                                let _ = out_tx
                                    .send(WireMessage::Failover(FailoverControl::Ack { server }));
                            }
                            FailoverControl::Recover { server } => {
                                serving.store(true, Ordering::SeqCst);
                                let _ = out_tx
                                    .send(WireMessage::Failover(FailoverControl::Ack { server }));
                            }
                            // Replies and worker-plane queries carry no
                            // instruction for a shard, and the rejoin
                            // handshake runs on the data plane, not here.
                            FailoverControl::Promoted { .. }
                            | FailoverControl::Ack { .. }
                            | FailoverControl::Register { .. }
                            | FailoverControl::QueryPrimary
                            | FailoverControl::Primary { .. }
                            | FailoverControl::JoinAsBackup { .. }
                            | FailoverControl::SnapshotChunk { .. }
                            | FailoverControl::CatchUp { .. }
                            | FailoverControl::BackupReady { .. } => {}
                        },
                        Ok(ReadOutcome::Frame(WireMessage::Shutdown, _))
                        | Ok(ReadOutcome::Closed)
                        | Err(_) => {
                            // Scheduler gone or told us to stop: either
                            // way the run is over for this process.
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                        Ok(ReadOutcome::Frame(_, _)) => {}
                    }
                });
            }
        }

        // Accept loop: non-blocking accept so the stop flag is honored.
        // Accepted streams run this process's chaos script (pass-through
        // when chaos is disabled).
        listener.set_nonblocking(true)?;
        let listener = ChaosListener::new(listener, config.chaos.clone(), "shard-accept");
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nodelay(true).ok();
                    stream.set_nonblocking(false).ok();
                    let host = Arc::clone(&host);
                    let serving = Arc::clone(&serving);
                    let stop = Arc::clone(&stop);
                    let counters = Arc::clone(&counters);
                    let apply_tx = apply_tx.clone();
                    let peer = peer.to_string();
                    std::thread::spawn(move || {
                        serve_shard_conn(
                            FrameConn::from_chaos_stream(stream, peer),
                            &host,
                            &serving,
                            &stop,
                            &counters,
                            &apply_tx,
                        );
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.tick);
                }
                Err(_) => break,
            }
        }
        stop.store(true, Ordering::SeqCst);

        let mut host = host.lock();
        Ok(ShardStats {
            pulls_served: counters.pulls_served.load(Ordering::Relaxed),
            pushes_applied: counters.pushes_applied.load(Ordering::Relaxed),
            relayed: counters.relayed.load(Ordering::Relaxed),
            serving: serving.load(Ordering::SeqCst),
            version: host.replica_mut().version(),
        })
    }
}

/// One worker (or relay) connection to a shard: blocking frame loop, one
/// thread. Returning drops the connection; the server survives.
fn serve_shard_conn(
    mut conn: FrameConn,
    host: &Arc<Mutex<ShardHost>>,
    serving: &AtomicBool,
    stop: &AtomicBool,
    counters: &ShardCounters,
    apply_tx: &Sender<ApplyCmd>,
) {
    loop {
        let frame = match conn.recv() {
            Ok((frame, _)) => frame,
            Err(_) => return,
        };
        match frame {
            WireMessage::Pull { worker } => {
                // A backup refuses worker pulls: dropping the connection
                // sends the worker back to the scheduler's QueryPrimary.
                if !serving.load(Ordering::SeqCst) {
                    return;
                }
                let encoded = {
                    let mut locked = host.lock();
                    locked.encoded_pull_reply(worker)
                };
                let Ok((bytes, _staleness)) = encoded else {
                    return;
                };
                // The serialized reply is written outside the host lock;
                // concurrent pullers of the same version share `bytes`.
                if conn.write_encoded(&bytes).is_err() {
                    return;
                }
                counters.pulls_served.fetch_add(1, Ordering::Relaxed);
            }
            frame @ (WireMessage::Push { .. } | WireMessage::RelayPush { .. }) => {
                let (reply_tx, reply_rx) = bounded(1);
                if apply_tx.send(ApplyCmd::Frame(frame, reply_tx)).is_err() {
                    return;
                }
                let Ok(ack) = reply_rx.recv() else {
                    return;
                };
                if conn.write(&ack).is_err() {
                    return;
                }
            }
            WireMessage::Failover(FailoverControl::JoinAsBackup { .. }) => {
                // Only a serving primary can provision a joiner. Hand the
                // whole connection to the apply thread so the snapshot it
                // streams is a clean cut of the push order.
                if serving.load(Ordering::SeqCst) {
                    let _ = apply_tx.send(ApplyCmd::Join(conn));
                }
                return;
            }
            WireMessage::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                return;
            }
            // Tolerated no-ops on a data connection.
            WireMessage::Heartbeat { .. } => {}
            // Process-level failover is driven over the scheduler link;
            // a data connection carrying control frames is a protocol
            // error, as are reply/scheduler-plane frames.
            WireMessage::Failover(_)
            | WireMessage::PullReply { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Notify { .. }
            | WireMessage::Check { .. }
            | WireMessage::Abort { .. } => return,
        }
    }
}

/// Primary side of the rejoin protocol: stream the checkpoint in bounded
/// chunks, announce the journal tail, replay it, and wait for the joiner
/// to confirm parity. `Ok` means the connection sits at the primary's
/// exact version and is safe to adopt as the write-ahead relay.
fn stream_rejoin(
    conn: &mut FrameConn,
    checkpoint: &StoreCheckpoint,
    tail: &[JournalEntry],
    chunk_bytes: usize,
) -> Result<(), NetError> {
    let bytes = checkpoint.encode();
    // An encoded checkpoint is never empty (magic + header), so there is
    // always at least one chunk and every index stays below `total`.
    let total = bytes.chunks(chunk_bytes).count() as u64;
    for (index, data) in bytes.chunks(chunk_bytes).enumerate() {
        conn.write(&WireMessage::Failover(FailoverControl::SnapshotChunk {
            index: index as u64,
            total,
            data: data.to_vec(),
        }))?;
    }
    let through = checkpoint.version() + tail.len() as u64;
    conn.write(&WireMessage::Failover(FailoverControl::CatchUp {
        entries: tail.len() as u64,
        through,
    }))?;
    for entry in tail {
        conn.write(&WireMessage::RelayPush {
            seq: entry.seq,
            worker: entry.worker,
            lr: entry.lr,
            payload: entry.payload.clone(),
        })?;
    }
    let (reply, _) = conn.recv()?;
    let WireMessage::Failover(FailoverControl::BackupReady { version, .. }) = reply else {
        return Err(NetError::UnexpectedReply {
            want: "BackupReady",
        });
    };
    if version != through {
        return Err(NetError::Unhandled {
            what: "joining backup confirmed the wrong version",
        });
    }
    Ok(())
}

/// Joiner side of the rejoin protocol, driven before the shard registers
/// with the scheduler: announce intent, install the streamed checkpoint,
/// replay the journal tail, and confirm parity. Returns the `(version,
/// replayed)` pair confirmed to the primary.
fn join_cluster(
    conn: &mut FrameConn,
    shard_id: u64,
    local_addr: &str,
    host: &Arc<Mutex<ShardHost>>,
) -> Result<(u64, u64), NetError> {
    conn.write(&WireMessage::Failover(FailoverControl::JoinAsBackup {
        server: shard_id,
        addr: local_addr.to_string(),
    }))?;
    let mut bytes = Vec::new();
    let mut next = 0u64;
    loop {
        let (frame, _) = conn.recv()?;
        let WireMessage::Failover(FailoverControl::SnapshotChunk { index, total, data }) = frame
        else {
            return Err(NetError::UnexpectedReply {
                want: "SnapshotChunk",
            });
        };
        if index != next {
            return Err(NetError::Unhandled {
                what: "snapshot chunk out of order",
            });
        }
        bytes.extend_from_slice(&data);
        next += 1;
        if next == total {
            break;
        }
    }
    let checkpoint = StoreCheckpoint::decode(&bytes).map_err(|_| NetError::Unhandled {
        what: "streamed checkpoint failed to decode",
    })?;
    let store = ParameterStore::restore(checkpoint).map_err(|_| NetError::Unhandled {
        what: "streamed checkpoint failed to restore",
    })?;
    {
        let mut locked = host.lock();
        locked.install_store(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
    }
    let (frame, _) = conn.recv()?;
    let WireMessage::Failover(FailoverControl::CatchUp { entries, through }) = frame else {
        return Err(NetError::UnexpectedReply { want: "CatchUp" });
    };
    for _ in 0..entries {
        let (frame, _) = conn.recv()?;
        if !matches!(frame, WireMessage::RelayPush { .. }) {
            return Err(NetError::UnexpectedReply { want: "RelayPush" });
        }
        let mut locked = host.lock();
        locked.handle(frame)?;
    }
    let version = {
        let locked = host.lock();
        locked.replica().version()
    };
    if version != through {
        return Err(NetError::Unhandled {
            what: "catch-up left the joiner short of parity",
        });
    }
    conn.write(&WireMessage::Failover(FailoverControl::BackupReady {
        server: shard_id,
        version,
        replayed: entries,
    }))?;
    Ok((version, entries))
}

// ------------------------------------------------------------ scheduler

/// What drives a [`SchedulerServer`] besides the wire config.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Synchronization scheme (`Asp`, or `SpecSync` for speculation).
    pub scheme: SchemeKind,
    /// Expected worker count `m`.
    pub workers: usize,
    /// Wire-level knobs (tick, heartbeat interval/timeout, I/O timeouts).
    pub net: NetConfig,
    /// Stop once this many total pushes have been notified (`None`: run
    /// until `max_duration`).
    pub stop_after_pushes: Option<u64>,
    /// Hard wall-clock budget for the run.
    pub max_duration: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            scheme: SchemeKind::specsync_adaptive(),
            workers: 4,
            net: NetConfig::default(),
            stop_after_pushes: None,
            max_duration: Duration::from_secs(60),
        }
    }
}

/// What a [`SchedulerServer::run`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerRunStats {
    /// Aborts (re-sync instructions) issued to workers.
    pub aborts_issued: u64,
    /// Warm-backup promotions completed.
    pub promotions: u64,
    /// Total pushes notified across workers.
    pub total_pushes: u64,
    /// Workers declared dead by heartbeat silence.
    pub workers_marked_dead: u64,
    /// Whether the push target was reached (vs the duration budget).
    pub completed: bool,
}

/// Which kind of peer a scheduler connection turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Peer {
    Worker(WorkerId),
    Shard {
        server: u64,
        backup: bool,
        addr: String,
    },
}

enum ConnEvent {
    Opened { id: usize, writer: ChaosStream },
    Frame { id: usize, frame: WireMessage },
    Closed { id: usize },
}

/// The SpecSync scheduler as an OS process: the core [`Scheduler`] behind
/// a TCP listener. See the module docs for the event flow.
pub struct SchedulerServer {
    listener: TcpListener,
    local_addr: String,
    cfg: SchedulerConfig,
    sink: Arc<dyn EventSink<Duration>>,
}

impl std::fmt::Debug for SchedulerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.cfg.workers)
            .finish_non_exhaustive()
    }
}

impl SchedulerServer {
    /// Binds the scheduler listener (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or an invalid configuration.
    pub fn bind(addr: &str, cfg: SchedulerConfig) -> Result<Self, NetError> {
        cfg.net.try_validate().map_err(NetError::Config)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?.to_string();
        Ok(SchedulerServer {
            listener,
            local_addr,
            cfg,
            sink: Arc::new(NullSink),
        })
    }

    /// Routes protocol events (aborts, failovers, crashes) to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink<Duration>>) -> Self {
        self.sink = sink;
        self
    }

    /// The address the scheduler actually listens on.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Serves until the push target or the duration budget is reached,
    /// then broadcasts `Shutdown` to every connection. Blocking.
    ///
    /// # Errors
    ///
    /// Listener I/O errors at startup.
    pub fn run(self) -> Result<SchedulerRunStats, NetError> {
        let SchedulerServer {
            listener,
            local_addr: _,
            cfg,
            sink,
        } = self;
        let clock = WallElapsed::start();
        let (events_tx, events_rx) = unbounded::<ConnEvent>();
        let stop = Arc::new(AtomicBool::new(false));

        // Accept thread: one reader thread per connection, all frames
        // funneled into the central loop's channel.
        {
            let events_tx = events_tx.clone();
            let stop = Arc::clone(&stop);
            let tick = cfg.net.tick;
            listener.set_nonblocking(true)?;
            let listener = ChaosListener::new(listener, cfg.net.chaos.clone(), "sched-accept");
            std::thread::spawn(move || {
                let mut next_id = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true).ok();
                            stream.set_nonblocking(false).ok();
                            let id = next_id;
                            next_id += 1;
                            let Ok(writer) = stream.try_clone() else {
                                continue;
                            };
                            if events_tx.send(ConnEvent::Opened { id, writer }).is_err() {
                                return;
                            }
                            let events_tx = events_tx.clone();
                            let mut reader = stream;
                            std::thread::spawn(move || loop {
                                match read_frame(&mut reader) {
                                    Ok(ReadOutcome::Frame(frame, _)) => {
                                        if events_tx.send(ConnEvent::Frame { id, frame }).is_err() {
                                            return;
                                        }
                                    }
                                    Ok(ReadOutcome::Closed) | Err(_) => {
                                        let _ = events_tx.send(ConnEvent::Closed { id });
                                        return;
                                    }
                                }
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(tick);
                        }
                        Err(_) => return,
                    }
                }
            });
        }

        let stats = central_loop(&cfg, &clock, &sink, &events_rx);
        stop.store(true, Ordering::SeqCst);
        Ok(stats)
    }
}

/// All scheduler state, owned by the one central loop — including every
/// connection's writer, so no socket write ever happens under a lock.
struct Central<'a> {
    cfg: &'a SchedulerConfig,
    clock: &'a WallElapsed,
    sink: &'a Arc<dyn EventSink<Duration>>,
    core: Scheduler,
    writers: BTreeMap<usize, ChaosStream>,
    peers: BTreeMap<usize, Peer>,
    worker_conn: BTreeMap<usize, usize>,
    /// Registered shards by id.
    shards: BTreeMap<u64, (usize, bool, String)>,
    primary: Option<u64>,
    epoch: u64,
    /// The shard a `Promote` is in flight to, until its `Promoted` reply
    /// lands (or its connection dies — either clears the latch).
    promotion_pending: Option<u64>,
    /// Set when the advertised primary is detected dead (socket closed or
    /// heartbeats silent) and cleared when a promotion lands. While set,
    /// a backup that registers is promoted at once: a death detected
    /// before any backup was armed must not be forgotten.
    primary_lost: bool,
    /// Connections that asked `QueryPrimary` before any primary had
    /// registered; answered as soon as one does.
    primary_waiters: Vec<usize>,
    timers: Vec<(VirtualTime, WorkerId)>,
    per_worker: Vec<u64>,
    epochs: u64,
    /// `None` until the worker's first frame: a worker that has never
    /// spoken is still starting up (multi-process spawns are slow), and
    /// the silence timeout only applies after first contact.
    last_worker_beat: Vec<Option<VirtualTime>>,
    worker_dead: Vec<bool>,
    last_shard_beat: BTreeMap<u64, VirtualTime>,
    stats: SchedulerRunStats,
}

impl Central<'_> {
    fn now_vt(&self) -> VirtualTime {
        VirtualTime::from_micros(self.clock.elapsed().as_micros().min(u64::MAX as u128) as u64)
    }

    fn write_to(&mut self, conn: usize, frame: &WireMessage) {
        if let Some(stream) = self.writers.get_mut(&conn) {
            if write_frame(stream, frame).is_err() {
                self.writers.remove(&conn);
            }
        }
    }

    fn write_to_worker(&mut self, worker: WorkerId, frame: &WireMessage) {
        if let Some(&conn) = self.worker_conn.get(&worker.index()) {
            self.write_to(conn, frame);
        }
    }

    /// The shared decision path for a speculation-window check, entered
    /// by timer firings (routed through `WireMessage::Check`) and by any
    /// future wire-delivered `Check`.
    fn on_check_frame(&mut self, worker: WorkerId, deadline: VirtualTime) {
        if self.core.on_check(worker, deadline) {
            self.stats.aborts_issued += 1;
            self.sink
                .record(self.clock.elapsed(), &Event::AbortIssued { worker });
            self.write_to_worker(worker, &WireMessage::Abort { worker });
        }
    }

    fn worker_beat(&mut self, worker: WorkerId, now: VirtualTime) {
        let w = worker.index();
        if w >= self.last_worker_beat.len() {
            return;
        }
        self.last_worker_beat[w] = Some(now);
        if self.worker_dead[w] && matches!(self.core.try_mark_alive(worker, now), Ok(true)) {
            self.worker_dead[w] = false;
            self.sink.record(
                self.clock.elapsed(),
                &Event::WorkerRecovered { worker, epoch: 0 },
            );
        }
    }

    /// Starts warm-backup promotion (at most one in flight): tell the
    /// registered backup to take over.
    fn initiate_promotion(&mut self) {
        if self.promotion_pending.is_some() {
            return;
        }
        let backup = self
            .shards
            .iter()
            .find(|(id, (_, is_backup, _))| *is_backup && Some(**id) != self.primary)
            .map(|(id, (conn, _, _))| (*id, *conn));
        if let Some((server, conn)) = backup {
            self.promotion_pending = Some(server);
            self.write_to(
                conn,
                &WireMessage::Failover(FailoverControl::Promote { server }),
            );
        }
    }

    /// Tells `conn` where the primary is. Returns `false` (nothing
    /// written) while no primary has registered.
    fn answer_query_primary(&mut self, conn: usize) -> bool {
        let answer = self
            .primary
            .and_then(|id| self.shards.get(&id))
            .map(|(_, _, addr)| addr.clone());
        let Some(addr) = answer else {
            return false;
        };
        let epoch = self.epoch;
        self.write_to(
            conn,
            &WireMessage::Failover(FailoverControl::Primary { addr, epoch }),
        );
        true
    }

    fn handle_frame(&mut self, conn: usize, frame: WireMessage) {
        let now = self.now_vt();
        // Bind an unidentified connection to the worker its first frame
        // names (shard connections identify themselves via Register).
        if let std::collections::btree_map::Entry::Vacant(entry) = self.peers.entry(conn) {
            if let Some(worker) = frame.worker() {
                entry.insert(Peer::Worker(worker));
                self.worker_conn.insert(worker.index(), conn);
            }
        }
        let from_shard = matches!(self.peers.get(&conn), Some(Peer::Shard { .. }));
        match frame {
            WireMessage::Failover(fc) => match fc {
                FailoverControl::Register {
                    server,
                    backup,
                    addr,
                } => {
                    self.peers.insert(
                        conn,
                        Peer::Shard {
                            server,
                            backup,
                            addr: addr.clone(),
                        },
                    );
                    self.shards.insert(server, (conn, backup, addr));
                    self.last_shard_beat.insert(server, now);
                    if backup {
                        // A (re)joined warm backup is armed: the next
                        // promotion can target it — this one, if the
                        // primary is already gone.
                        self.sink.record(
                            self.clock.elapsed(),
                            &Event::BackupJoined {
                                shard: server,
                                epoch: self.epoch,
                            },
                        );
                        if self.primary_lost {
                            self.initiate_promotion();
                        }
                    } else {
                        self.primary = Some(server);
                        self.primary_lost = false;
                        for waiter in std::mem::take(&mut self.primary_waiters) {
                            self.answer_query_primary(waiter);
                        }
                    }
                }
                FailoverControl::Promoted {
                    server,
                    version,
                    replayed,
                } => {
                    if let Some((_, backup_flag, _)) = self.shards.get_mut(&server) {
                        *backup_flag = false;
                    }
                    self.primary = Some(server);
                    self.epoch += 1;
                    self.promotion_pending = None;
                    self.primary_lost = false;
                    self.stats.promotions += 1;
                    self.sink.record(
                        self.clock.elapsed(),
                        &Event::ShardFailover {
                            shard: server,
                            version,
                            replayed,
                        },
                    );
                }
                FailoverControl::QueryPrimary => {
                    if !self.answer_query_primary(conn) && !self.primary_waiters.contains(&conn) {
                        self.primary_waiters.push(conn);
                    }
                }
                FailoverControl::BackupReady {
                    server,
                    version,
                    replayed,
                } => {
                    // The rejoin handshake itself ran shard-to-shard; this
                    // is the joiner reporting where the catch-up landed.
                    self.sink.record(
                        self.clock.elapsed(),
                        &Event::CatchUpComplete {
                            shard: server,
                            version,
                            replayed,
                        },
                    );
                }
                // Acks, verbs the scheduler sends rather than receives,
                // and the data-plane rejoin frames.
                FailoverControl::Ack { .. }
                | FailoverControl::Crash { .. }
                | FailoverControl::Promote { .. }
                | FailoverControl::Recover { .. }
                | FailoverControl::Primary { .. }
                | FailoverControl::JoinAsBackup { .. }
                | FailoverControl::SnapshotChunk { .. }
                | FailoverControl::CatchUp { .. } => {}
            },
            WireMessage::Heartbeat { worker } => {
                if from_shard {
                    if let Some(Peer::Shard { server, .. }) = self.peers.get(&conn) {
                        self.last_shard_beat.insert(*server, now);
                    }
                } else {
                    self.worker_beat(worker, now);
                }
            }
            WireMessage::Pull { worker } => {
                self.worker_beat(worker, now);
                self.core.on_pull(worker, now);
            }
            WireMessage::Notify { worker, pushes } => {
                self.worker_beat(worker, now);
                self.sink
                    .record(self.clock.elapsed(), &Event::Notify { worker });
                let w = worker.index();
                if w < self.per_worker.len() {
                    let missing = pushes.saturating_sub(self.per_worker[w] + 1);
                    if missing > 0 {
                        self.sink
                            .record(self.clock.elapsed(), &Event::NotifyLoss { worker, missing });
                    }
                    if let Ok(Some(deadline)) =
                        self.core.try_on_notify_reconciled(worker, pushes, now)
                    {
                        self.timers.push((deadline, worker));
                    }
                    self.per_worker[w] = self.per_worker[w].max(pushes);
                    let min = self.per_worker.iter().min().copied().unwrap_or(0);
                    while min > self.epochs {
                        self.epochs += 1;
                        let tuned = self.core.on_epoch_complete(now);
                        let hyper = self.core.hyperparams();
                        self.sink.record(
                            self.clock.elapsed(),
                            &Event::EpochTuned {
                                epoch: self.epochs,
                                abort_time: hyper.abort_time(),
                                abort_rate: hyper.abort_rate(),
                                estimated_gain: tuned.as_ref().map(|o| o.estimated_improvement),
                            },
                        );
                    }
                }
            }
            WireMessage::Check { worker } => self.on_check_frame(worker, now),
            // Data-plane and reply frames have no scheduler-side meaning;
            // tolerate them rather than dropping the connection.
            WireMessage::Push { .. }
            | WireMessage::RelayPush { .. }
            | WireMessage::PullReply { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Abort { .. }
            | WireMessage::Shutdown => {}
        }
    }

    fn handle_closed(&mut self, conn: usize) {
        self.writers.remove(&conn);
        match self.peers.remove(&conn) {
            Some(Peer::Worker(worker)) => {
                self.worker_conn.remove(&worker.index());
                let now = self.now_vt();
                let w = worker.index();
                if w < self.worker_dead.len()
                    && !self.worker_dead[w]
                    && matches!(self.core.try_mark_dead(worker, now), Ok(true))
                {
                    self.worker_dead[w] = true;
                    self.stats.workers_marked_dead += 1;
                    self.sink
                        .record(self.clock.elapsed(), &Event::WorkerCrashed { worker });
                }
            }
            Some(Peer::Shard { server, .. }) => {
                self.last_shard_beat.remove(&server);
                let was_backup = self
                    .shards
                    .get(&server)
                    .map(|(_, backup, _)| *backup)
                    .unwrap_or(false);
                if self.primary == Some(server) {
                    // A dying primary's socket closing is the fast
                    // detection path (kill -9 sends RST on the open
                    // connection). Its registration is kept so workers can
                    // still resolve *some* address until the successor's
                    // `Promoted` flips the advertised primary.
                    self.primary_lost = true;
                    self.initiate_promotion();
                } else if self.promotion_pending == Some(server) {
                    // The promotion target died between `Promote` and
                    // `Promoted`: release the latch and retarget, or a
                    // healthy backup could never be promoted again.
                    self.shards.remove(&server);
                    self.promotion_pending = None;
                    self.initiate_promotion();
                } else if was_backup {
                    // A dead warm backup must not be a future promotion
                    // target.
                    self.shards.remove(&server);
                }
            }
            None => {}
        }
    }

    fn sweep_liveness(&mut self) {
        let now = self.now_vt();
        let timeout = SimDuration::from_micros(
            self.cfg
                .net
                .heartbeat_timeout
                .as_micros()
                .min(u64::MAX as u128) as u64,
        );
        for w in 0..self.cfg.workers {
            let Some(beat) = self.last_worker_beat[w] else {
                continue;
            };
            if !self.worker_dead[w] && now.saturating_since(beat) > timeout {
                let worker = WorkerId::new(w);
                if matches!(self.core.try_mark_dead(worker, now), Ok(true)) {
                    self.worker_dead[w] = true;
                    self.stats.workers_marked_dead += 1;
                    self.sink
                        .record(self.clock.elapsed(), &Event::WorkerCrashed { worker });
                }
            }
        }
        // Heartbeat-silence fallback for a primary whose socket did not
        // close visibly.
        if let Some(primary) = self.primary {
            if let Some(&beat) = self.last_shard_beat.get(&primary) {
                if now.saturating_since(beat) > timeout {
                    self.last_shard_beat.remove(&primary);
                    self.primary_lost = true;
                    self.initiate_promotion();
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = self.now_vt();
        let mut i = 0;
        while i < self.timers.len() {
            if self.timers[i].0 <= now {
                let (deadline, worker) = self.timers.swap_remove(i);
                // Timer deadlines re-enter through the frame vocabulary.
                let _ = deadline;
                self.handle_frame_local(WireMessage::Check { worker }, deadline);
            } else {
                i += 1;
            }
        }
    }

    /// Frame dispatch for locally-generated frames (timer firings): same
    /// handler, no connection.
    fn handle_frame_local(&mut self, frame: WireMessage, deadline: VirtualTime) {
        if let WireMessage::Check { worker } = frame {
            self.on_check_frame(worker, deadline);
        }
    }

    fn total_pushes(&self) -> u64 {
        self.per_worker.iter().sum()
    }

    fn broadcast_shutdown(&mut self) {
        let conns: Vec<usize> = self.writers.keys().copied().collect();
        for conn in conns {
            self.write_to(conn, &WireMessage::Shutdown);
        }
    }
}

fn central_loop(
    cfg: &SchedulerConfig,
    clock: &WallElapsed,
    sink: &Arc<dyn EventSink<Duration>>,
    events_rx: &Receiver<ConnEvent>,
) -> SchedulerRunStats {
    let tuning = match cfg.scheme {
        SchemeKind::SpecSync { tuning, .. } => tuning,
        // Any non-SpecSync scheme keeps the scheduler as a pure history
        // recorder: speculation disabled.
        _ => TuningMode::Fixed {
            abort_time: SimDuration::ZERO,
            abort_rate: f64::MAX,
        },
    };
    let m = cfg.workers;
    let mut central = Central {
        cfg,
        clock,
        sink,
        core: Scheduler::new(m, tuning),
        writers: BTreeMap::new(),
        peers: BTreeMap::new(),
        worker_conn: BTreeMap::new(),
        shards: BTreeMap::new(),
        primary: None,
        epoch: 0,
        promotion_pending: None,
        primary_lost: false,
        primary_waiters: Vec::new(),
        timers: Vec::new(),
        per_worker: vec![0; m],
        epochs: 0,
        last_worker_beat: vec![None; m],
        worker_dead: vec![false; m],
        last_shard_beat: BTreeMap::new(),
        stats: SchedulerRunStats {
            aborts_issued: 0,
            promotions: 0,
            total_pushes: 0,
            workers_marked_dead: 0,
            completed: false,
        },
    };

    loop {
        central.fire_timers();
        central.sweep_liveness();
        if clock.elapsed() >= cfg.max_duration {
            break;
        }
        if let Some(target) = cfg.stop_after_pushes {
            if central.total_pushes() >= target {
                central.stats.completed = true;
                break;
            }
        }
        match events_rx.recv_timeout(cfg.net.tick) {
            Ok(ConnEvent::Opened { id, writer }) => {
                central.writers.insert(id, writer);
            }
            Ok(ConnEvent::Frame { id, frame }) => central.handle_frame(id, frame),
            Ok(ConnEvent::Closed { id }) => central.handle_closed(id),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    central.stats.total_pushes = central.total_pushes();
    central.broadcast_shutdown();
    central.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MessageSizes;
    use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore};
    use specsync_telemetry::InMemorySink;

    fn shard(id: u64, dim: usize) -> ShardServer {
        let store = ParameterStore::new(vec![0.0; dim], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
        ShardServer::bind(id, "127.0.0.1:0", host, NetConfig::default()).unwrap()
    }

    fn connect(addr: &str, cfg: &NetConfig) -> FrameConn {
        let seq = ConnSeq::new();
        FrameConn::connect_with_retries(addr, cfg, &ConnTarget::new("test", &seq, 0), |_| {})
            .unwrap()
    }

    #[test]
    fn shard_serves_pull_and_push_over_tcp() {
        let server = shard(0, 8);
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&addr, &cfg);
        let w = WorkerId::new(0);
        let (reply, _, _) = conn
            .exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 8]),
            })
            .unwrap();
        assert_eq!(
            reply,
            WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            }
        );
        let (reply, _, _) = conn.exchange(&WireMessage::Pull { worker: w }).unwrap();
        let WireMessage::PullReply { version, params } = reply else {
            panic!("want PullReply, got {reply:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(params.len(), 8);
        drop(conn);

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.pulls_served, 1);
        assert_eq!(stats.pushes_applied, 1);
        assert_eq!(stats.version, 1);
        assert!(stats.serving);
    }

    #[test]
    fn primary_relays_pushes_to_backup_before_applying() {
        let backup = shard(1, 4).as_backup();
        let backup_addr = backup.local_addr().to_string();
        let backup_stop = backup.stop_handle();
        let backup_handle = std::thread::spawn(move || backup.run().unwrap());

        let primary = shard(0, 4).with_backup_relay(&backup_addr);
        let primary_addr = primary.local_addr().to_string();
        let primary_stop = primary.stop_handle();
        let primary_handle = std::thread::spawn(move || primary.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&primary_addr, &cfg);
        let w = WorkerId::new(0);
        for i in 1..=3u64 {
            let (reply, _, _) = conn
                .exchange(&WireMessage::Push {
                    worker: w,
                    payload: PushPayload::Dense(vec![1.0; 4]),
                })
                .unwrap();
            assert_eq!(
                reply,
                WireMessage::PushAck {
                    version: i,
                    pushes_by_worker: i
                }
            );
        }
        // A pull against the backup is refused while it is not serving:
        // the connection just closes.
        let mut bconn = connect(&backup_addr, &cfg);
        bconn.write(&WireMessage::Pull { worker: w }).unwrap();
        assert!(bconn.recv().is_err());
        drop(conn);

        primary_stop.store(true, Ordering::SeqCst);
        backup_stop.store(true, Ordering::SeqCst);
        let pstats = primary_handle.join().unwrap();
        let bstats = backup_handle.join().unwrap();
        assert_eq!(pstats.relayed, 3);
        assert_eq!(pstats.version, 3);
        // The backup absorbed the same three pushes, in order.
        assert_eq!(bstats.pushes_applied, 3);
        assert_eq!(bstats.version, 3);
        assert!(!bstats.serving);
    }

    /// A scripted shard on the scheduler link. It registers, then
    /// heartbeats at the interval and sends every frame through one
    /// writer thread, as a real [`ShardServer`]'s link does — so
    /// heartbeat silence never stands in for a crash the test did not
    /// script.
    struct FakeShard {
        reader: FrameConn,
        out: Sender<WireMessage>,
        writer: std::thread::JoinHandle<()>,
    }

    impl FakeShard {
        fn register(sched_addr: &str, server: u64, backup: bool) -> Self {
            let conn = connect(sched_addr, &NetConfig::default());
            let addr = conn.addr().to_string();
            let stream = conn.into_stream();
            let mut writer = stream.try_clone().unwrap();
            let (out, out_rx) = unbounded::<WireMessage>();
            out.send(WireMessage::Failover(FailoverControl::Register {
                server,
                backup,
                addr: shard_addr(server),
            }))
            .unwrap();
            let beat = WireMessage::Heartbeat {
                worker: WorkerId::new(server as usize),
            };
            let writer = std::thread::spawn(move || loop {
                let frame = match out_rx.recv_timeout(HEARTBEAT_INTERVAL) {
                    Ok(frame) => frame,
                    Err(RecvTimeoutError::Timeout) => beat.clone(),
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
            });
            FakeShard {
                reader: FrameConn::from_chaos_stream(stream, addr),
                out,
                writer,
            }
        }

        fn send(&self, frame: WireMessage) {
            self.out.send(frame).unwrap();
        }

        fn recv(&mut self) -> WireMessage {
            self.reader.recv().unwrap().0
        }

        /// Crashes the shard: heartbeats stop and the connection closes.
        fn kill(self) {
            drop(self.out);
            self.writer.join().unwrap();
        }
    }

    const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

    fn shard_addr(server: u64) -> String {
        format!("127.0.0.1:{}", 7000 + server)
    }

    /// A one-worker scheduler with a 100 ms heartbeat timeout that stops
    /// after one notified push, recording its events.
    fn scheduler() -> (
        String,
        Arc<InMemorySink<Duration>>,
        std::thread::JoinHandle<SchedulerRunStats>,
    ) {
        let sink = Arc::new(InMemorySink::new());
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 1,
                stop_after_pushes: Some(1),
                max_duration: Duration::from_secs(20),
                net: NetConfig::builder()
                    .heartbeat_interval(HEARTBEAT_INTERVAL)
                    .heartbeat_timeout(Duration::from_millis(100))
                    .try_build()
                    .unwrap(),
                ..SchedulerConfig::default()
            },
        )
        .unwrap()
        .with_sink(Arc::clone(&sink) as Arc<dyn EventSink<Duration>>);
        let addr = sched.local_addr().to_string();
        let handle = std::thread::spawn(move || sched.run().unwrap());
        (addr, sink, handle)
    }

    /// Blocks until the scheduler has recorded an event matching `pred`.
    /// Frames on different connections reach the central loop in no
    /// fixed order, so a test that needs one processed first waits for
    /// its event.
    fn await_event(sink: &InMemorySink<Duration>, what: &str, pred: impl Fn(&Event) -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !sink.events().iter().any(|(_, e)| pred(e)) {
            assert!(
                std::time::Instant::now() < deadline,
                "scheduler never recorded {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn promoted(shard: u64) -> impl Fn(&Event) -> bool {
        move |e| matches!(e, Event::ShardFailover { shard: s, .. } if *s == shard)
    }

    fn armed(shard: u64) -> impl Fn(&Event) -> bool {
        move |e| matches!(e, Event::BackupJoined { shard: s, .. } if *s == shard)
    }

    /// Reaches the stop target with one notified push; the central loop
    /// then broadcasts `Shutdown` and returns its stats.
    fn finish(
        sched_addr: &str,
        handle: std::thread::JoinHandle<SchedulerRunStats>,
    ) -> SchedulerRunStats {
        let mut closer = connect(sched_addr, &NetConfig::default());
        closer
            .write(&WireMessage::Notify {
                worker: WorkerId::new(0),
                pushes: 1,
            })
            .unwrap();
        handle.join().unwrap()
    }

    fn query_primary(worker: &mut FrameConn) -> WireMessage {
        worker
            .write(&WireMessage::Failover(FailoverControl::QueryPrimary))
            .unwrap();
        worker.recv().unwrap().0
    }

    fn primary_at(server: u64, epoch: u64) -> WireMessage {
        WireMessage::Failover(FailoverControl::Primary {
            addr: shard_addr(server),
            epoch,
        })
    }

    fn promote(server: u64) -> WireMessage {
        WireMessage::Failover(FailoverControl::Promote { server })
    }

    #[test]
    fn scheduler_answers_query_primary_and_promotes_on_close() {
        let (sched_addr, sink, handle) = scheduler();
        let primary = FakeShard::register(&sched_addr, 0, false);
        let mut backup = FakeShard::register(&sched_addr, 1, true);

        // A worker asks where the primary is; a query that overtakes the
        // primary's registration is answered once it lands.
        let mut worker = connect(&sched_addr, &NetConfig::default());
        assert_eq!(query_primary(&mut worker), primary_at(0, 0));

        // The primary dies: its connection closes, the scheduler sends
        // Promote to the backup (at once, or when the backup's own
        // registration lands), the backup answers Promoted.
        primary.kill();
        assert_eq!(backup.recv(), promote(1));
        backup.send(WireMessage::Failover(FailoverControl::Promoted {
            server: 1,
            version: 42,
            replayed: 5,
        }));

        // The worker re-queries and sees the new primary at epoch 1.
        await_event(&sink, "the promotion", promoted(1));
        assert_eq!(query_primary(&mut worker), primary_at(1, 1));

        backup.kill();
        drop(worker);
        let stats = finish(&sched_addr, handle);
        assert_eq!(stats.promotions, 1);
        assert!(stats.completed);
    }

    #[test]
    fn primary_lost_before_any_backup_registers_is_not_forgotten() {
        let (sched_addr, sink, handle) = scheduler();
        let primary = FakeShard::register(&sched_addr, 0, false);
        let mut worker = connect(&sched_addr, &NetConfig::default());
        assert_eq!(query_primary(&mut worker), primary_at(0, 0));

        // The primary dies with no warm backup armed: nothing to promote
        // yet. A backup that registers afterwards is promoted at once.
        primary.kill();
        let mut backup = FakeShard::register(&sched_addr, 1, true);
        assert_eq!(backup.recv(), promote(1));
        backup.send(WireMessage::Failover(FailoverControl::Promoted {
            server: 1,
            version: 3,
            replayed: 3,
        }));
        await_event(&sink, "the promotion", promoted(1));
        assert_eq!(query_primary(&mut worker), primary_at(1, 1));

        backup.kill();
        drop(worker);
        let stats = finish(&sched_addr, handle);
        assert_eq!(stats.promotions, 1);
        assert!(stats.completed);
    }

    #[test]
    fn fresh_shard_rejoins_over_the_wire_and_relays_live_pushes() {
        // A tiny chunk size forces the snapshot across several
        // SnapshotChunk frames.
        let store = ParameterStore::new(vec![0.0; 16], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
        let pcfg = NetConfig::builder()
            .join_chunk_bytes(16)
            .try_build()
            .unwrap();
        let primary = ShardServer::bind(0, "127.0.0.1:0", host, pcfg).unwrap();
        let primary_addr = primary.local_addr().to_string();
        let primary_stop = primary.stop_handle();
        let primary_counters = primary.counters_handle();
        let primary_handle = std::thread::spawn(move || primary.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&primary_addr, &cfg);
        let w = WorkerId::new(0);
        for _ in 0..5 {
            conn.exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 16]),
            })
            .unwrap();
        }

        // A fresh process provisions itself from the live primary.
        let store = ParameterStore::new(vec![0.0; 16], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
        let joiner = ShardServer::bind(2, "127.0.0.1:0", host, NetConfig::default())
            .unwrap()
            .as_backup()
            .join_via(&primary_addr);
        let joiner_stop = joiner.stop_handle();
        let joiner_handle = std::thread::spawn(move || joiner.run().unwrap());

        // Wait for the primary to adopt the joiner as its relay: the
        // journal tail (the 5 pushes above) is counted as relayed the
        // moment the handshake completes.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while primary_counters.relayed.load(Ordering::Relaxed) < 5 {
            assert!(
                std::time::Instant::now() < deadline,
                "rejoin handshake never completed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        // Post-join pushes travel as live write-ahead relays down the
        // join connection before they are applied or acked, so each ack
        // below implies the backup already holds the push.
        for _ in 0..3 {
            conn.exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 16]),
            })
            .unwrap();
        }
        drop(conn);

        primary_stop.store(true, Ordering::SeqCst);
        joiner_stop.store(true, Ordering::SeqCst);
        let pstats = primary_handle.join().unwrap();
        let bstats = joiner_handle.join().unwrap();
        assert_eq!(pstats.version, 8);
        assert_eq!(
            bstats.version, 8,
            "the joiner must end at the primary's exact version"
        );
        assert!(!bstats.serving);
    }

    #[test]
    fn promotion_retargets_when_the_chosen_backup_dies_mid_promotion() {
        let (sched_addr, sink, handle) = scheduler();
        let primary = FakeShard::register(&sched_addr, 0, false);
        let mut first = FakeShard::register(&sched_addr, 1, true);
        let mut second = FakeShard::register(&sched_addr, 2, true);
        // Both backups are armed before the crash.
        await_event(&sink, "backup 1 armed", armed(1));
        await_event(&sink, "backup 2 armed", armed(2));

        // The primary dies; the scheduler targets the first backup.
        primary.kill();
        assert_eq!(first.recv(), promote(1));

        // The chosen backup dies *without* replying Promoted — exactly
        // the window that used to leave the pending latch stuck forever.
        first.kill();
        assert_eq!(second.recv(), promote(2));
        second.send(WireMessage::Failover(FailoverControl::Promoted {
            server: 2,
            version: 7,
            replayed: 0,
        }));
        await_event(&sink, "the promotion", promoted(2));
        second.kill();

        let stats = finish(&sched_addr, handle);
        assert_eq!(stats.promotions, 1);
        assert!(stats.completed);
    }

    #[test]
    fn rejoined_backup_is_armed_for_the_next_promotion() {
        let (sched_addr, sink, handle) = scheduler();
        let primary = FakeShard::register(&sched_addr, 0, false);
        let mut first = FakeShard::register(&sched_addr, 1, true);
        await_event(&sink, "backup 1 armed", armed(1));

        // First crash: the original backup takes over.
        primary.kill();
        assert_eq!(first.recv(), promote(1));
        first.send(WireMessage::Failover(FailoverControl::Promoted {
            server: 1,
            version: 5,
            replayed: 5,
        }));
        await_event(&sink, "the first promotion", promoted(1));

        // A re-provisioned shard registers as the new warm backup and
        // reports its catch-up, re-arming the scheduler.
        let mut rejoiner = FakeShard::register(&sched_addr, 2, true);
        rejoiner.send(WireMessage::Failover(FailoverControl::BackupReady {
            server: 2,
            version: 5,
            replayed: 0,
        }));
        await_event(&sink, "the rejoined backup's catch-up", |e| {
            matches!(e, Event::CatchUpComplete { shard: 2, .. })
        });

        // Second crash: the *rejoined* backup is promoted.
        first.kill();
        assert_eq!(rejoiner.recv(), promote(2));
        rejoiner.send(WireMessage::Failover(FailoverControl::Promoted {
            server: 2,
            version: 9,
            replayed: 4,
        }));
        await_event(&sink, "the second promotion", promoted(2));
        rejoiner.kill();

        let stats = finish(&sched_addr, handle);
        assert_eq!(stats.promotions, 2);
        assert!(stats.completed);
    }

    #[test]
    fn message_sizes_reexport_is_reachable() {
        // Guard the consolidated location: transfer accounting now lives
        // beside the wire vocabulary.
        let sizes = MessageSizes::for_model(1_000);
        assert_eq!(sizes.pull_bytes, 4_000);
    }
}
