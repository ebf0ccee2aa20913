//! Supervised child processes: crash detection, jittered-backoff
//! restarts, and a hard restart budget.
//!
//! The `net_rejoin` soak runs the multi-process wire topology under a
//! [`Supervisor`]: when a shard process dies (or is killed), the
//! supervisor waits out a deterministic jittered backoff (reusing
//! [`specsync_core::Backoff`], the same schedule the wire retries use),
//! spends one unit of its restart budget, records the restart to the
//! telemetry stream, and authorizes a replacement process. The budget is
//! hard: once spent, the supervisor refuses further restarts and the
//! orchestrator must treat the topology as lost.

use std::process::{Child, ExitStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

use specsync_core::Backoff;
use specsync_net::NetConfig;
use specsync_telemetry::{Event, EventSink};

/// When and how often a supervisor restarts crashed children.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Delay schedule between a detected crash and the respawn. The
    /// schedule indexes by restart count, so repeated crashes back off
    /// exponentially (capped by [`Backoff::MAX_DELAY`]).
    pub backoff: Backoff,
    /// Total restarts the supervisor will ever authorize.
    pub budget: u32,
    /// Jitter seed: restart delays are deterministic per seed.
    pub seed: u64,
}

impl RestartPolicy {
    /// Derives the policy from the wire config: the restart budget is
    /// `NetConfig::restart_budget` (validated positive) and the backoff
    /// base is the config's retry backoff, so process-level healing
    /// paces itself like connection-level healing.
    pub fn from_net(config: &NetConfig, seed: u64) -> Self {
        RestartPolicy {
            backoff: Backoff::new(config.retry_backoff, config.restart_budget),
            budget: config.restart_budget,
            seed,
        }
    }
}

/// Watches children die and decides whether (and when) they come back.
#[derive(Debug)]
pub struct Supervisor {
    policy: RestartPolicy,
    sink: Arc<dyn EventSink<Duration>>,
    started: Instant,
    restarts: u32,
}

impl Supervisor {
    /// A supervisor with a fresh budget. Restarts are recorded to `sink`
    /// as [`Event::ProcessRestarted`].
    pub fn new(policy: RestartPolicy, sink: Arc<dyn EventSink<Duration>>) -> Self {
        Supervisor {
            policy,
            sink,
            started: Instant::now(),
            restarts: 0,
        }
    }

    /// Restarts authorized so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Restarts left in the budget.
    pub fn budget_remaining(&self) -> u32 {
        self.policy.budget.saturating_sub(self.restarts)
    }

    /// Blocks until `child` exits, polling at `tick`, or returns `None`
    /// at `deadline` with the child still running. This is the watch
    /// half: the supervisor does not care whether the exit was a crash,
    /// a kill, or a clean shutdown — the caller decides what to do.
    pub fn reap(child: &mut Child, deadline: Instant, tick: Duration) -> Option<ExitStatus> {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() >= deadline => return None,
                Ok(None) => std::thread::sleep(tick),
                Err(_) => return None,
            }
        }
    }

    /// One child of the supervised topology died: waits out the jittered
    /// backoff delay for this restart, spends one unit of budget, and
    /// records the restart. Returns the 1-based restart attempt to tag
    /// the replacement with, or `None` when the budget is exhausted (the
    /// supervisor never sleeps on a refusal).
    pub fn authorize_restart(&mut self, shard: u64) -> Option<u32> {
        let delay = self
            .policy
            .backoff
            .jittered(self.restarts, self.policy.seed)?;
        std::thread::sleep(delay);
        self.restarts += 1;
        self.sink.record(
            self.started.elapsed(),
            &Event::ProcessRestarted {
                shard,
                attempt: self.restarts,
            },
        );
        Some(self.restarts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_telemetry::InMemorySink;
    use std::process::Command;

    fn policy(budget: u32) -> RestartPolicy {
        RestartPolicy {
            backoff: Backoff::new(Duration::from_millis(1), budget),
            budget,
            seed: 7,
        }
    }

    #[test]
    fn budget_is_hard_and_restarts_are_recorded() {
        let sink = Arc::new(InMemorySink::new());
        let mut sup = Supervisor::new(policy(2), sink.clone());
        assert_eq!(sup.budget_remaining(), 2);
        assert_eq!(sup.authorize_restart(3), Some(1));
        assert_eq!(sup.authorize_restart(3), Some(2));
        assert_eq!(sup.authorize_restart(3), None, "budget must be hard");
        assert_eq!(sup.restarts(), 2);
        assert_eq!(sup.budget_remaining(), 0);

        let events = sink.events();
        let attempts: Vec<u32> = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::ProcessRestarted { shard: 3, attempt } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(attempts, vec![1, 2], "each restart is recorded once");
    }

    #[test]
    fn policy_from_net_mirrors_the_wire_knobs() {
        let config = NetConfig::builder()
            .retry_backoff(Duration::from_millis(5))
            .restart_budget(3)
            .try_build()
            .unwrap();
        let p = RestartPolicy::from_net(&config, 11);
        assert_eq!(p.budget, 3);
        assert_eq!(p.backoff.base, Duration::from_millis(5));
        assert_eq!(p.backoff.max_retries, 3);
    }

    #[test]
    fn reap_sees_a_real_child_exit() {
        let mut child = Command::new("true").spawn().expect("spawn /bin/true");
        let status = Supervisor::reap(
            &mut child,
            Instant::now() + Duration::from_secs(10),
            Duration::from_millis(5),
        )
        .expect("child exits well within the deadline");
        assert!(status.success());
    }
}
