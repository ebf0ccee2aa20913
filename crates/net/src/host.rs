//! The shard-side protocol handler: one [`ShardHost`] owns the
//! [`ReplicatedStore`] and answers every [`WireMessage`] a shard can
//! receive.
//!
//! Both deployments route through it:
//!
//! - the virtual-time **simulator driver** calls the typed verbs
//!   ([`pull`](ShardHost::pull), [`push_dense`](ShardHost::push_dense),
//!   [`push_sparse`](ShardHost::push_sparse),
//!   [`failover`](ShardHost::failover)) directly — borrowed gradients, no
//!   frame encode on the hot path, store-call order identical to the
//!   pre-wire seed so golden traces stay byte-identical;
//! - the **TCP shard server** (and any in-process frame loop) routes
//!   decoded frames through [`handle`](ShardHost::handle), which calls the
//!   same verbs.
//!
//! Pull serving is read-mostly: the host serializes each store version's
//! `PullReply` frame **once** and shares the encoded bytes (`Arc<Vec<u8>>`)
//! across every concurrent client until the next push bumps the version —
//! the wire-side twin of [`ParameterStore`]'s `Arc<[f32]>` snapshot cache.
//!
//! [`ParameterStore`]: specsync_ps::ParameterStore

use std::fmt;
use std::sync::Arc;

use specsync_ps::{ParamSnapshot, PushPayload, ReplicaError, ReplicatedStore};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::error::NetError;
use crate::frame::{encode_frame, encode_relay_push};
use crate::wire::{FailoverControl, WireMessage};

/// Learning rate the frame path uses when no schedule is installed (the
/// driver's verb path always supplies its own per-push rate).
pub const DEFAULT_FRAME_LR: f32 = 0.05;

/// A served pull: the snapshot plus the staleness the request observed.
#[derive(Debug, Clone)]
pub struct PullGrant {
    /// The parameter snapshot (shared block + version).
    pub snapshot: ParamSnapshot,
    /// Versions the puller was behind at request time.
    pub staleness: u64,
}

/// An applied push: what the shard acknowledges back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReceipt {
    /// Store version after the apply.
    pub version: u64,
    /// Cumulative applied pushes by the pushing worker.
    pub pushes_by_worker: u64,
}

type LrFn = Box<dyn Fn(u64) -> f32 + Send>;

/// The shard protocol handler. See the module docs.
pub struct ShardHost {
    store: ReplicatedStore,
    lr_fn: Option<LrFn>,
    /// Applied pushes per worker index, for the frame path's epoch
    /// estimate (an epoch completes when every tracked worker has one
    /// more push — same rule as the threaded runtime's server thread).
    per_worker: Vec<u64>,
    epochs: u64,
    /// Encoded `PullReply` frame for `(version, bytes)` — rebuilt once
    /// per store version, shared across clients.
    encoded: Option<(u64, Arc<Vec<u8>>)>,
}

impl fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardHost")
            .field("version", &self.store.version())
            .field("available", &self.store.is_available())
            .field("epochs", &self.epochs)
            .field("has_lr_fn", &self.lr_fn.is_some())
            .finish()
    }
}

impl ShardHost {
    /// Wraps a replicated store.
    pub fn new(store: ReplicatedStore) -> Self {
        ShardHost {
            store,
            lr_fn: None,
            per_worker: Vec::new(),
            epochs: 0,
            encoded: None,
        }
    }

    /// Installs the learning-rate schedule the *frame* path applies
    /// (epochs → rate). Without one, frame pushes use
    /// [`DEFAULT_FRAME_LR`]; the verb path is unaffected either way.
    pub fn with_lr_fn(mut self, lr_fn: impl Fn(u64) -> f32 + Send + 'static) -> Self {
        self.lr_fn = Some(Box::new(lr_fn));
        self
    }

    /// Pre-registers `m` workers so the epoch estimate counts silent ones
    /// from the start (otherwise workers are tracked on first push).
    pub fn with_workers(mut self, m: usize) -> Self {
        self.per_worker = vec![0; m];
        self
    }

    /// The wrapped store, for reads the protocol does not cover
    /// (evaluation, checkpointing).
    pub fn replica(&self) -> &ReplicatedStore {
        &self.store
    }

    /// Mutable access to the wrapped store.
    pub fn replica_mut(&mut self) -> &mut ReplicatedStore {
        &mut self.store
    }

    /// Whether the serving replica is up.
    pub fn is_available(&self) -> bool {
        self.store.is_available()
    }

    /// Epochs completed under the frame path's estimate.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Serves a pull: staleness is observed first, then the pull is
    /// registered — the exact store-call order of the seed driver.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::ServerDown`] while the shard is failing over.
    pub fn pull(&mut self, worker: WorkerId) -> Result<PullGrant, ReplicaError> {
        let staleness = self.store.staleness_of(worker);
        let snapshot = self.store.try_pull(worker)?;
        Ok(PullGrant {
            snapshot,
            staleness,
        })
    }

    /// Applies a dense push.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::ServerDown`] while the shard is failing over.
    pub fn push_dense(
        &mut self,
        worker: WorkerId,
        grad: &[f32],
        lr: f32,
    ) -> Result<PushReceipt, ReplicaError> {
        let version = self.store.try_apply_push(worker, grad, lr)?;
        Ok(self.receipt(worker, version))
    }

    /// Applies a sparse push.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::ServerDown`] while the shard is failing over.
    pub fn push_sparse(
        &mut self,
        worker: WorkerId,
        grad: &SparseGrad,
        lr: f32,
    ) -> Result<PushReceipt, ReplicaError> {
        let version = self.store.try_apply_push_sparse(worker, grad, lr)?;
        Ok(self.receipt(worker, version))
    }

    fn receipt(&mut self, worker: WorkerId, version: u64) -> PushReceipt {
        let pushes_by_worker = self.store.pushes_by(worker);
        let idx = worker.index();
        if idx >= self.per_worker.len() {
            self.per_worker.resize(idx + 1, 0);
        }
        self.per_worker[idx] = self.per_worker[idx].max(pushes_by_worker);
        let min = self.per_worker.iter().min().copied().unwrap_or(0);
        if min > self.epochs {
            self.epochs = min;
        }
        PushReceipt {
            version,
            pushes_by_worker,
        }
    }

    /// Executes a failover control verb against the replica pair.
    ///
    /// # Errors
    ///
    /// [`NetError::Replica`] when the store refuses (unknown server,
    /// wrong state); [`NetError::Unhandled`] for reply-only or
    /// scheduler-plane verbs.
    pub fn failover(&mut self, control: &FailoverControl) -> Result<FailoverControl, NetError> {
        match control {
            FailoverControl::Crash { server } => {
                self.store.crash_server(*server as usize)?;
                Ok(FailoverControl::Ack { server: *server })
            }
            FailoverControl::Promote { server } => {
                let replayed = self.store.promote(*server as usize)?;
                Ok(FailoverControl::Promoted {
                    server: *server,
                    version: self.store.version(),
                    replayed,
                })
            }
            FailoverControl::Recover { server } => {
                self.store.recover_server(*server as usize)?;
                Ok(FailoverControl::Ack { server: *server })
            }
            FailoverControl::Promoted { .. } | FailoverControl::Ack { .. } => {
                Err(NetError::Unhandled {
                    what: "failover reply sent to a shard host",
                })
            }
            FailoverControl::Register { .. }
            | FailoverControl::QueryPrimary
            | FailoverControl::Primary { .. } => Err(NetError::Unhandled {
                what: "scheduler-plane failover verb sent to a shard host",
            }),
            // The rejoin handshake is connection-plane: the server's apply
            // thread drives the snapshot/catch-up stream itself, because
            // the protocol owns a socket, not just the store.
            FailoverControl::JoinAsBackup { .. }
            | FailoverControl::SnapshotChunk { .. }
            | FailoverControl::CatchUp { .. }
            | FailoverControl::BackupReady { .. } => Err(NetError::Unhandled {
                what: "rejoin-protocol verb routed past the server connection layer",
            }),
        }
    }

    /// Tags an incoming `Push` frame as the [`WireMessage::RelayPush`] the
    /// write-ahead relay forwards: the sequence number is the version this
    /// push will produce, and the learning rate is the one this host will
    /// apply — so the backup replays bit-identical arithmetic and can drop
    /// re-deliveries by sequence. Returns `None` for any other frame.
    pub fn tag_relay(&self, frame: &WireMessage) -> Option<WireMessage> {
        let WireMessage::Push { worker, payload } = frame else {
            return None;
        };
        let (seq, lr) = self.relay_tag();
        Some(WireMessage::RelayPush {
            seq,
            worker: *worker,
            lr,
            payload: payload.clone(),
        })
    }

    /// The encoded frame of [`tag_relay`](Self::tag_relay)'s message,
    /// written straight from the borrowed push: the write-ahead relay
    /// puts these bytes on the wire without copying the gradient first.
    /// Returns `None` for any frame but a `Push`.
    pub fn encode_relay(&self, frame: &WireMessage) -> Option<Result<Vec<u8>, NetError>> {
        let WireMessage::Push { worker, payload } = frame else {
            return None;
        };
        let (seq, lr) = self.relay_tag();
        Some(encode_relay_push(seq, *worker, lr, payload).map_err(NetError::from))
    }

    /// The sequence number (the version the next push will produce) and
    /// learning rate (the one this host will apply) a relayed push
    /// carries.
    fn relay_tag(&self) -> (u64, f32) {
        let lr = match &self.lr_fn {
            Some(f) => f(self.epochs),
            None => DEFAULT_FRAME_LR,
        };
        (self.store.version() + 1, lr)
    }

    /// Replaces the wrapped store with one rebuilt from a rejoin snapshot
    /// (checkpoint restore + tail replay happen at the caller); the
    /// encoded-reply cache is dropped so no pre-join bytes can be served.
    pub fn install_store(&mut self, store: ReplicatedStore) {
        self.store = store;
        self.encoded = None;
    }

    /// Handles one decoded frame, returning the reply frame (if the verb
    /// has one). This is the uniform entry the socket servers use; it
    /// calls the same verbs the simulator driver calls directly.
    ///
    /// # Errors
    ///
    /// [`NetError::Replica`] when the store refuses;
    /// [`NetError::Unhandled`] for frames a shard never receives.
    pub fn handle(&mut self, frame: WireMessage) -> Result<Option<WireMessage>, NetError> {
        match frame {
            WireMessage::Pull { worker } => {
                let grant = self.pull(worker)?;
                Ok(Some(WireMessage::PullReply {
                    version: grant.snapshot.version(),
                    params: grant.snapshot.into_shared(),
                }))
            }
            WireMessage::Push { worker, payload } => {
                let lr = match &self.lr_fn {
                    Some(f) => f(self.epochs),
                    None => DEFAULT_FRAME_LR,
                };
                let receipt = match &payload {
                    PushPayload::Dense(grad) => self.push_dense(worker, grad, lr)?,
                    PushPayload::Sparse(grad) => self.push_sparse(worker, grad, lr)?,
                };
                Ok(Some(WireMessage::PushAck {
                    version: receipt.version,
                    pushes_by_worker: receipt.pushes_by_worker,
                }))
            }
            WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload,
            } => {
                let version = self.store.version();
                if seq <= version {
                    // At-least-once re-delivery (or a rejoin tail that
                    // overlaps live relays): this sequence is already in
                    // the store, so ack without touching it — applying
                    // twice would double the gradient.
                    return Ok(Some(WireMessage::PushAck {
                        version,
                        pushes_by_worker: self.store.pushes_by(worker),
                    }));
                }
                if seq != version + 1 {
                    return Err(NetError::Unhandled {
                        what: "relay push sequence gap",
                    });
                }
                let receipt = match &payload {
                    PushPayload::Dense(grad) => self.push_dense(worker, grad, lr)?,
                    PushPayload::Sparse(grad) => self.push_sparse(worker, grad, lr)?,
                };
                Ok(Some(WireMessage::PushAck {
                    version: receipt.version,
                    pushes_by_worker: receipt.pushes_by_worker,
                }))
            }
            WireMessage::Failover(control) => {
                Ok(Some(WireMessage::Failover(self.failover(&control)?)))
            }
            WireMessage::Shutdown => Ok(None),
            WireMessage::PullReply { .. } | WireMessage::PushAck { .. } => {
                Err(NetError::Unhandled {
                    what: "reply frame sent to a shard host",
                })
            }
            WireMessage::Notify { .. }
            | WireMessage::Check { .. }
            | WireMessage::Abort { .. }
            | WireMessage::Heartbeat { .. } => Err(NetError::Unhandled {
                what: "scheduler-plane frame sent to a shard host",
            }),
        }
    }

    /// Serves a pull as pre-encoded frame bytes: the `PullReply` frame for
    /// the current version is serialized once and shared (`Arc`) across
    /// every concurrent client until a push bumps the version. Returns the
    /// bytes and the observed staleness.
    ///
    /// # Errors
    ///
    /// [`NetError::Replica`] wrapping [`ReplicaError::ServerDown`] while
    /// the shard is failing over; [`NetError::Frame`] when the model
    /// dimension exceeds the frame payload limit (deterministic on the
    /// first pull, at store-construction dimension — never mid-run).
    pub fn encoded_pull_reply(
        &mut self,
        worker: WorkerId,
    ) -> Result<(Arc<Vec<u8>>, u64), NetError> {
        let grant = self.pull(worker)?;
        let version = grant.snapshot.version();
        if let Some((cached_version, bytes)) = &self.encoded {
            if *cached_version == version {
                return Ok((Arc::clone(bytes), grant.staleness));
            }
        }
        let bytes = Arc::new(encode_frame(&WireMessage::PullReply {
            version,
            params: grant.snapshot.into_shared(),
        })?);
        self.encoded = Some((version, Arc::clone(&bytes)));
        Ok((bytes, grant.staleness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_frame;
    use specsync_ps::ParameterStore;

    fn host() -> ShardHost {
        let store = ParameterStore::new(vec![0.0; 8], 2);
        ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ))
        .with_workers(2)
    }

    #[test]
    fn pull_after_push_sees_new_version() {
        let mut h = host();
        let w = WorkerId::new(0);
        let r = h.push_dense(w, &[1.0; 8], 0.1).unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(r.pushes_by_worker, 1);
        let grant = h.pull(w).unwrap();
        assert_eq!(grant.snapshot.version(), 1);
    }

    #[test]
    fn frame_path_matches_verb_path() {
        let mut h = host();
        let w = WorkerId::new(1);
        let reply = h
            .handle(WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![0.5; 8]),
            })
            .unwrap();
        assert_eq!(
            reply,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        let reply = h.handle(WireMessage::Pull { worker: w }).unwrap();
        let Some(WireMessage::PullReply { version, params }) = reply else {
            panic!("want PullReply, got {reply:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(params.len(), 8);
    }

    #[test]
    fn encoded_reply_is_shared_until_version_bumps() {
        let mut h = host();
        let w0 = WorkerId::new(0);
        let w1 = WorkerId::new(1);
        h.push_dense(w0, &[1.0; 8], 0.1).unwrap();
        let (a, _) = h.encoded_pull_reply(w0).unwrap();
        let (b, _) = h.encoded_pull_reply(w1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same version must share bytes");
        let decoded = decode_frame(&a).unwrap();
        assert!(matches!(decoded, WireMessage::PullReply { version: 1, .. }));
        h.push_dense(w1, &[1.0; 8], 0.1).unwrap();
        let (c, _) = h.encoded_pull_reply(w0).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "new version must re-serialize");
    }

    /// The server's serving idiom — lock the host, grab the encoded
    /// reply, write outside the lock — under concurrent pullers while a
    /// pusher bumps versions and a crash/promote cycle runs mid-stream:
    /// no puller may ever decode a version older than one it already saw
    /// (a stale cached frame surviving the promotion would do exactly
    /// that), and after promotion the cache must serve the store's real
    /// version, not the pre-crash bytes.
    #[test]
    fn concurrent_pullers_never_decode_a_stale_cached_reply_across_promotion() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = Arc::new(parking_lot::Mutex::new(host()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut pullers = Vec::new();
        for t in 0..4usize {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            pullers.push(std::thread::spawn(move || {
                let w = WorkerId::new(t % 2);
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // ServerDown mid-failover is expected; keep pulling.
                    let Ok((bytes, _)) = h.lock().encoded_pull_reply(w) else {
                        continue;
                    };
                    let WireMessage::PullReply { version, .. } = decode_frame(&bytes).unwrap()
                    else {
                        panic!("cache served a non-PullReply frame");
                    };
                    assert!(version >= last, "stale cached reply: {version} < {last}");
                    last = version;
                }
            }));
        }
        let w0 = WorkerId::new(0);
        let w1 = WorkerId::new(1);
        for _ in 0..10 {
            h.lock().push_dense(w0, &[1.0; 8], 0.1).unwrap();
            h.lock().push_dense(w1, &[1.0; 8], 0.1).unwrap();
            std::thread::yield_now();
        }
        let pre_crash = h.lock().encoded_pull_reply(w0).unwrap().0;
        {
            let mut locked = h.lock();
            locked
                .failover(&FailoverControl::Crash { server: 0 })
                .unwrap();
            locked
                .failover(&FailoverControl::Promote { server: 0 })
                .unwrap();
        }
        for _ in 0..10 {
            h.lock().push_dense(w0, &[1.0; 8], 0.1).unwrap();
            h.lock().push_dense(w1, &[1.0; 8], 0.1).unwrap();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for p in pullers {
            p.join().unwrap();
        }
        let mut locked = h.lock();
        let store_version = locked.replica().version();
        let (bytes, _) = locked.encoded_pull_reply(w0).unwrap();
        let WireMessage::PullReply { version, .. } = decode_frame(&bytes).unwrap() else {
            panic!("cache served a non-PullReply frame");
        };
        assert_eq!(version, store_version, "cache must track the live store");
        assert!(
            !Arc::ptr_eq(&pre_crash, &bytes),
            "post-promotion pulls must not reuse pre-crash bytes"
        );
    }

    #[test]
    fn staleness_observed_before_pull_registers() {
        let mut h = host();
        let w = WorkerId::new(0);
        h.pull(w).unwrap();
        h.push_dense(WorkerId::new(1), &[1.0; 8], 0.1).unwrap();
        let grant = h.pull(w).unwrap();
        assert_eq!(grant.staleness, 1, "one version behind at request time");
    }

    #[test]
    fn failover_round_trip() {
        let mut h = host();
        let w = WorkerId::new(0);
        h.push_dense(w, &[1.0; 8], 0.1).unwrap();
        let ack = h.failover(&FailoverControl::Crash { server: 0 }).unwrap();
        assert_eq!(ack, FailoverControl::Ack { server: 0 });
        assert!(!h.is_available());
        assert!(matches!(h.pull(w), Err(ReplicaError::ServerDown { .. })));
        let promoted = h.failover(&FailoverControl::Promote { server: 0 }).unwrap();
        let FailoverControl::Promoted {
            version, replayed, ..
        } = promoted
        else {
            panic!("want Promoted, got {promoted:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(replayed, 1, "promotion replays the journaled push");
        assert!(h.is_available());
    }

    #[test]
    fn relay_push_redelivery_is_idempotent() {
        let mut h = host();
        let w = WorkerId::new(0);
        let relay = WireMessage::RelayPush {
            seq: 1,
            worker: w,
            lr: 0.1,
            payload: PushPayload::Dense(vec![1.0; 8]),
        };
        let ack = h.handle(relay.clone()).unwrap();
        assert_eq!(
            ack,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        let params_once: Vec<f32> = h.replica_mut().params().to_vec();

        // The at-least-once relay re-delivers the same sequence (e.g. the
        // primary retried after a dropped ack): the backup must ack
        // without re-applying.
        let ack = h.handle(relay).unwrap();
        assert_eq!(
            ack,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        assert_eq!(
            h.replica_mut().params(),
            params_once.as_slice(),
            "a re-delivered relay must not double-apply"
        );

        // A sequence gap is a protocol break, not silently absorbed.
        let err = h
            .handle(WireMessage::RelayPush {
                seq: 5,
                worker: w,
                lr: 0.1,
                payload: PushPayload::Dense(vec![1.0; 8]),
            })
            .unwrap_err();
        assert!(matches!(err, NetError::Unhandled { .. }));
    }

    #[test]
    fn tag_relay_carries_seq_and_lr() {
        let mut h = host().with_lr_fn(|_| 0.25);
        let w = WorkerId::new(1);
        h.push_dense(w, &[1.0; 8], 0.25).unwrap();
        let push = WireMessage::Push {
            worker: w,
            payload: PushPayload::Dense(vec![0.5; 8]),
        };
        let tagged = h.tag_relay(&push).unwrap();
        let WireMessage::RelayPush {
            seq,
            worker,
            lr,
            payload,
        } = tagged
        else {
            panic!("tag_relay must produce RelayPush");
        };
        assert_eq!(seq, 2, "seq is the version this push will produce");
        assert_eq!(worker, w);
        assert_eq!(lr, 0.25);
        assert_eq!(payload, PushPayload::Dense(vec![0.5; 8]));
        assert_eq!(
            h.tag_relay(&WireMessage::Shutdown),
            None,
            "only pushes relay"
        );
    }

    #[test]
    fn scheduler_plane_frames_are_refused() {
        let mut h = host();
        let err = h
            .handle(WireMessage::Notify {
                worker: WorkerId::new(0),
                pushes: 1,
            })
            .unwrap_err();
        assert!(matches!(err, NetError::Unhandled { .. }));
    }
}
