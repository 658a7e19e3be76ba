//! A per-die circuit breaker layered over the PR 6 remap path.
//!
//! The remap path already replaces a die that fails under a request —
//! but a die that fails *persistently* (armed faults past the limit,
//! chaos injection, genuinely bad silicon) would otherwise burn a full
//! device-level attempt + remap on every request. The breaker tracks a
//! consecutive-failure health score per die **id** (surviving remaps,
//! which is the point: the id keeps failing across generations) and,
//! once tripped, rejects requests up front with a `503` until a
//! deterministic half-open probe readmits the id.
//!
//! State machine:
//!
//! ```text
//! Closed --[trip consecutive failures]--> Open(open_after)
//! Open   --[open_after rejections]------> HalfOpen
//! HalfOpen --[probe succeeds]-----------> Closed   (breaker_closes +1)
//! HalfOpen --[probe fails]--------------> Open(open_after)
//! any    --[mark-bad]-------------------> Closed   (operator reset)
//! ```
//!
//! Everything advances on the die's own request sequence — rejections
//! consume a seq and are WAL-logged like any other response — so the
//! breaker is replay-deterministic: recovery replays the same request
//! stream and lands every breaker in the same phase. No wall-clock
//! cool-down, deliberately: time-based reopening would make recovery
//! depend on timing, which is exactly what the replay contract forbids.

/// Trip/reopen thresholds, pinned in the WAL fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive die-level failures that trip the breaker.
    pub trip: u32,
    /// Requests rejected while open before the next one probes.
    pub open: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip: 3, open: 4 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    Open { remaining: u32 },
    HalfOpen,
}

/// What [`Breaker::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: execute normally.
    Pass,
    /// Breaker half-open: execute as the probe that decides readmission.
    Probe,
    /// Breaker open: reject with `503` without touching the die.
    Reject,
}

/// One die id's breaker state.
#[derive(Debug, Clone, Copy)]
pub struct Breaker {
    cfg: BreakerConfig,
    phase: Phase,
    score: u32,
}

impl Breaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            phase: Phase::Closed,
            score: 0,
        }
    }

    /// Gate for the next request on this die. An `Open` breaker counts
    /// the rejection down toward its half-open probe.
    pub fn admit(&mut self) -> Admission {
        match self.phase {
            Phase::Closed => Admission::Pass,
            Phase::HalfOpen => Admission::Probe,
            Phase::Open { remaining } => {
                if remaining <= 1 {
                    self.phase = Phase::HalfOpen;
                } else {
                    self.phase = Phase::Open {
                        remaining: remaining - 1,
                    };
                }
                Admission::Reject
            }
        }
    }

    /// Notes a die-level failure on an admitted request. Returns `true`
    /// when this failure trips the breaker open (counted as
    /// `breaker_trips`).
    pub fn record_failure(&mut self) -> bool {
        match self.phase {
            Phase::Closed => {
                self.score += 1;
                if self.score >= self.cfg.trip.max(1) {
                    self.phase = Phase::Open {
                        remaining: self.cfg.open.max(1),
                    };
                    self.score = 0;
                    return true;
                }
                false
            }
            Phase::HalfOpen => {
                // The probe failed: back to fully open.
                self.phase = Phase::Open {
                    remaining: self.cfg.open.max(1),
                };
                true
            }
            Phase::Open { .. } => false,
        }
    }

    /// Notes a successful admitted request. Returns `true` when this
    /// was the probe that re-closed the breaker (counted as
    /// `breaker_closes`).
    pub fn record_success(&mut self) -> bool {
        match self.phase {
            Phase::HalfOpen => {
                self.phase = Phase::Closed;
                self.score = 0;
                true
            }
            _ => {
                self.score = 0;
                false
            }
        }
    }

    /// Operator reset (`mark-bad` replaces the silicon outright, so the
    /// replacement starts with a clean bill of health).
    pub fn reset(&mut self) {
        self.phase = Phase::Closed;
        self.score = 0;
    }

    /// Phase name for `status` reporting.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Closed => "closed",
            Phase::Open { .. } => "open",
            Phase::HalfOpen => "half-open",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = Breaker::new(BreakerConfig { trip: 3, open: 2 });
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(
            !b.record_success(),
            "success in Closed is not a close event"
        );
        // The success reset the score: two more failures still closed.
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert_eq!(b.admit(), Admission::Reject);
    }

    #[test]
    fn open_counts_down_to_a_probe() {
        let mut b = Breaker::new(BreakerConfig { trip: 1, open: 3 });
        assert!(b.record_failure());
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(
            b.admit(),
            Admission::Probe,
            "open_after rejections, then probe"
        );
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let cfg = BreakerConfig { trip: 1, open: 1 };
        let mut b = Breaker::new(cfg);
        b.record_failure();
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Probe);
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Probe);
        assert!(b.record_success(), "successful probe closes");
        assert_eq!(b.admit(), Admission::Pass);
    }

    #[test]
    fn reset_reopens_traffic() {
        let mut b = Breaker::new(BreakerConfig { trip: 1, open: 8 });
        b.record_failure();
        assert_eq!(b.admit(), Admission::Reject);
        b.reset();
        assert_eq!(b.admit(), Admission::Pass);
        assert_eq!(b.phase_name(), "closed");
    }
}
