//! The worker's training loop, written once against the [`Transport`]
//! trait — the same pull/compute/push/notify cycle drives an
//! [`InProcTransport`] inside the threaded runtime and a `TcpTransport`
//! in a separate worker process.
//!
//! [`InProcTransport`]: specsync_net::InProcTransport

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use specsync_ml::{BatchSampler, Model};
use specsync_net::{Endpoint, Transport, WireMessage};
use specsync_ps::PushPayload;
use specsync_simnet::{SimDuration, WorkerId};
use specsync_telemetry::{Event, EventSink, WorkerPhase};

use crate::clock::ClockSource;

/// Everything one worker needs to train: its model shard, data sampler,
/// pacing knobs, chaos knobs, and the shared run plumbing. The transport
/// is the one thing deliberately *not* in here — it is passed to
/// [`run`](WorkerHarness::run) so the identical harness drives either
/// wire.
pub struct WorkerHarness {
    /// This worker's identity on every frame it sends.
    pub worker: WorkerId,
    /// The worker's model, restricted to its data partition.
    pub model: Box<dyn Model>,
    /// Mini-batch sampler over the worker's partition.
    pub sampler: BatchSampler,
    /// Artificial compute span per iteration (the abortable window).
    pub compute_pad: Duration,
    /// How often the compute span polls for an abort.
    pub abort_poll: Duration,
    /// Heartbeat pacing.
    pub heartbeat_interval: Duration,
    /// Chaos: elapsed run time after which this worker's scheduler link
    /// goes silent (`None`: never).
    pub mute_after: Option<Duration>,
    /// Chaos: drop every n-th notify (`None`: deliver all).
    pub drop_notify_every: Option<u64>,
    /// The injected clock shared by every role.
    pub clock: Arc<dyn ClockSource>,
    /// The shared telemetry sink.
    pub sink: Arc<dyn EventSink<Duration>>,
    /// Elapsed-time origin for event stamps.
    pub run_start: Duration,
    /// Cooperative stop flag (converged, budget exhausted, or the host
    /// shutting down).
    pub stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for WorkerHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHarness")
            .field("worker", &self.worker)
            .field("compute_pad", &self.compute_pad)
            .finish_non_exhaustive()
    }
}

/// What one worker did, tallied by [`WorkerHarness::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Gradient pushes delivered to the shard.
    pub pushes: u64,
    /// Speculation aborts honored (each one re-pulled and recomputed).
    pub aborts: u64,
    /// Notifies eaten by the chaos knob.
    pub dropped_notifies: u64,
}

impl WorkerHarness {
    /// Runs the training loop until the stop flag, a `Shutdown` control
    /// frame, or a dead transport ends it.
    pub fn run(mut self, transport: &mut dyn Transport) -> WorkerOutcome {
        let mut outcome = WorkerOutcome::default();
        let mut grad = vec![0.0f32; self.model.num_params()];
        let mut notify_seq = 0u64;
        let mut last_beat = self.clock.now();
        let worker = self.worker;

        let state = |sink: &Arc<dyn EventSink<Duration>>,
                     clock: &Arc<dyn ClockSource>,
                     run_start: Duration,
                     phase: WorkerPhase| {
            sink.record(
                clock.now().saturating_sub(run_start),
                &Event::WorkerState {
                    worker,
                    state: phase,
                },
            );
        };

        'training: while !self.stop.load(Ordering::SeqCst) {
            self.beat(transport, &mut last_beat);
            // Pull.
            state(
                &self.sink,
                &self.clock,
                self.run_start,
                WorkerPhase::Pulling,
            );
            let Some(params) = self.pull(transport) else {
                break;
            };
            // Discard any stale re-sync from a previous iteration, but
            // obey a shutdown that arrived meanwhile.
            while let Some(control) = transport.poll_control() {
                if matches!(control, WireMessage::Shutdown) {
                    break 'training;
                }
            }

            // Compute (abortable during the padded span).
            state(
                &self.sink,
                &self.clock,
                self.run_start,
                WorkerPhase::Computing,
            );
            self.model.set_params(&params);
            let batch = self.sampler.next_batch();
            self.model.gradient(&batch, &mut grad);
            let mut compute_start = self.clock.now();
            loop {
                if self.clock.now().saturating_sub(compute_start) >= self.compute_pad {
                    break;
                }
                // specsync-allow(virtual-time): real-threaded compute pacing; progress is still measured on the injected clock
                thread::sleep(self.abort_poll.min(self.compute_pad));
                self.beat(transport, &mut last_beat);
                if self.stop.load(Ordering::SeqCst) {
                    break 'training;
                }
                match transport.poll_control() {
                    Some(WireMessage::Abort { .. }) => {
                        // Abort: re-pull fresh parameters and restart.
                        outcome.aborts += 1;
                        let wasted = self.clock.now().saturating_sub(compute_start);
                        self.sink.record(
                            self.clock.now().saturating_sub(self.run_start),
                            &Event::Resync {
                                worker,
                                wasted: SimDuration::from_micros(
                                    wasted.as_micros().min(u64::MAX as u128) as u64,
                                ),
                            },
                        );
                        state(
                            &self.sink,
                            &self.clock,
                            self.run_start,
                            WorkerPhase::Pulling,
                        );
                        let Some(fresh) = self.pull(transport) else {
                            break 'training;
                        };
                        state(
                            &self.sink,
                            &self.clock,
                            self.run_start,
                            WorkerPhase::Computing,
                        );
                        self.model.set_params(&fresh);
                        let batch = self.sampler.next_batch();
                        self.model.gradient(&batch, &mut grad);
                        compute_start = self.clock.now();
                    }
                    Some(WireMessage::Shutdown) => break 'training,
                    // No other control frame reaches a worker.
                    Some(_) | None => {}
                }
            }

            // Push + notify (the notify carries the push counter for
            // loss reconciliation; the chaos knob may eat it).
            state(
                &self.sink,
                &self.clock,
                self.run_start,
                WorkerPhase::Pushing,
            );
            let push = WireMessage::Push {
                worker,
                payload: PushPayload::Dense(grad.clone()),
            };
            // In-process the push is fire-and-forget (`Ok(None)`); over
            // TCP the shard answers `PushAck`, which doubles as flow
            // control. Either way a dead shard link ends the worker.
            if transport.send(Endpoint::Shard, push).is_err() {
                break;
            }
            outcome.pushes += 1;
            notify_seq += 1;
            let dropped = self
                .drop_notify_every
                .is_some_and(|n| notify_seq.is_multiple_of(n));
            if dropped {
                outcome.dropped_notifies += 1;
            } else if !self.muted() {
                let _ = transport.send(
                    Endpoint::Scheduler,
                    WireMessage::Notify {
                        worker,
                        pushes: outcome.pushes,
                    },
                );
            }
        }
        outcome
    }

    /// The chaos partition: past the configured elapsed time this
    /// worker's entire scheduler link goes silent (heartbeats, pull
    /// notices, notifies), so the scheduler's liveness detector fires and
    /// the detection sticks.
    fn muted(&self) -> bool {
        self.mute_after
            .is_some_and(|after| self.clock.now().saturating_sub(self.run_start) >= after)
    }

    /// Heartbeat, paced by the interval.
    fn beat(&self, transport: &mut dyn Transport, last: &mut Duration) {
        let now = self.clock.now();
        if now.saturating_sub(*last) < self.heartbeat_interval {
            return;
        }
        *last = now;
        if !self.muted() {
            let _ = transport.send(
                Endpoint::Scheduler,
                WireMessage::Heartbeat {
                    worker: self.worker,
                },
            );
        }
    }

    /// Pulls fresh parameters from the shard and (unless muted) tells the
    /// scheduler about the pull. `None` means the shard link is dead and
    /// the worker should exit.
    fn pull(&self, transport: &mut dyn Transport) -> Option<Arc<[f32]>> {
        let reply = transport
            .send(
                Endpoint::Shard,
                WireMessage::Pull {
                    worker: self.worker,
                },
            )
            .ok()?;
        let Some(WireMessage::PullReply { params, .. }) = reply else {
            return None;
        };
        if !self.muted() {
            let _ = transport.send(
                Endpoint::Scheduler,
                WireMessage::Pull {
                    worker: self.worker,
                },
            );
        }
        Some(params)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU64;

    use specsync_net::NetError;
    use specsync_telemetry::NullSink;

    use super::*;
    use crate::clock::ManualClock;

    /// A two-parameter model that counts its gradient computations.
    struct CountingModel {
        params: Vec<f32>,
        gradients: Arc<AtomicU64>,
    }

    impl Model for CountingModel {
        fn num_params(&self) -> usize {
            self.params.len()
        }

        fn num_samples(&self) -> usize {
            4
        }

        fn params(&self) -> &[f32] {
            &self.params
        }

        fn set_params(&mut self, params: &[f32]) {
            self.params.copy_from_slice(params);
        }

        fn loss(&self, _indices: &[usize]) -> f64 {
            0.0
        }

        fn gradient(&self, _indices: &[usize], out: &mut [f32]) {
            self.gradients.fetch_add(1, Ordering::SeqCst);
            out.fill(0.5);
        }
    }

    /// A shard and scheduler on a script: the n-th pull reply is followed
    /// by the n-th scripted control frame (if any), and the shard link
    /// dies once the script runs out.
    struct ScriptedTransport {
        after_pull: VecDeque<Option<WireMessage>>,
        control: VecDeque<WireMessage>,
    }

    impl Transport for ScriptedTransport {
        fn send(
            &mut self,
            to: Endpoint,
            msg: WireMessage,
        ) -> Result<Option<WireMessage>, NetError> {
            match (to, msg) {
                (Endpoint::Shard, WireMessage::Pull { .. }) => {
                    let Some(control) = self.after_pull.pop_front() else {
                        return Err(NetError::Disconnected);
                    };
                    self.control.extend(control);
                    Ok(Some(WireMessage::PullReply {
                        version: 0,
                        params: Arc::from(vec![0.0f32; 2].as_slice()),
                    }))
                }
                (Endpoint::Shard, WireMessage::Push { .. }) => Ok(Some(WireMessage::PushAck {
                    version: 1,
                    pushes_by_worker: 1,
                })),
                _ => Ok(None),
            }
        }

        fn poll_control(&mut self) -> Option<WireMessage> {
            self.control.pop_front()
        }
    }

    /// Runs one worker against `after_pull`; returns what it did and how
    /// many gradients it computed.
    fn run_script(after_pull: Vec<Option<WireMessage>>) -> (WorkerOutcome, u64) {
        let gradients = Arc::new(AtomicU64::new(0));
        let harness = WorkerHarness {
            worker: WorkerId::new(0),
            model: Box::new(CountingModel {
                params: vec![0.0; 2],
                gradients: Arc::clone(&gradients),
            }),
            sampler: BatchSampler::new(4, 2, 7),
            compute_pad: Duration::ZERO,
            abort_poll: Duration::from_millis(1),
            heartbeat_interval: Duration::from_secs(3600),
            mute_after: None,
            drop_notify_every: None,
            clock: Arc::new(ManualClock::new()),
            sink: Arc::new(NullSink),
            run_start: Duration::ZERO,
            stop: Arc::new(AtomicBool::new(false)),
        };
        let mut transport = ScriptedTransport {
            after_pull: after_pull.into(),
            control: VecDeque::new(),
        };
        let outcome = harness.run(&mut transport);
        (outcome, gradients.load(Ordering::SeqCst))
    }

    #[test]
    fn shutdown_right_after_a_pull_reply_ends_training() {
        let (outcome, gradients) = run_script(vec![Some(WireMessage::Shutdown), None]);
        assert_eq!(gradients, 0, "no gradient may follow a Shutdown");
        assert_eq!(outcome.pushes, 0);
    }

    #[test]
    fn stale_abort_after_a_pull_reply_is_discarded() {
        let (outcome, gradients) = run_script(vec![Some(WireMessage::Abort {
            worker: WorkerId::new(0),
        })]);
        assert_eq!(gradients, 1);
        assert_eq!(outcome.pushes, 1);
        assert_eq!(outcome.aborts, 0, "a stale abort is not honored");
    }
}
