//! Seeded chaos injection for the daemon, in the house style of
//! [`fracdram_model::faults`]: a [`ChaosPlan`] is a **pure function of
//! `(seed, ChaosConfig)`** with zero stored state — every injection
//! decision is a hash of the plan seed and the event's coordinates, so
//! two plans built from the same inputs inject the *identical* event
//! stream no matter the thread count, wall-clock timing, or `--jobs`
//! level of the harness driving them.
//!
//! Coordinates are chosen so chaos composes with the replay contract:
//!
//! * **die failures** key on `(die, seq)` — the per-die request ordinal
//!   — so recovery replay of a WAL re-injects exactly the failures the
//!   live run saw, and the recovered breaker/remap state matches;
//! * **connection drops** key on `(connection ordinal, request index)`
//!   and are applied *before* the request is forwarded to a shard, so a
//!   dropped request was never executed and the client's resend
//!   executes exactly once;
//! * **shard stalls** key on `(shard, drain ordinal)` and only add
//!   latency, never reorder a shard's arrival-order drain;
//! * **kill points** key on a request ordinal, marking where a chaos
//!   harness hard-stops the process.
//!
//! Membership uses the nested-threshold trick from `FaultPlan`
//! (`uniform(coords) < density`): raising a density strictly grows the
//! injected set, which is what makes breaker/chaos counters **monotone
//! in chaos density** — the invariant `chaos_sweep` asserts.

use fracdram_stats::rng::mix;

/// Domain separator so chaos decisions never correlate with the fault
/// model or the pool seed derivation.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5FD7_11AD_0E55;

const SALT_DIE_FAIL: u64 = 1;
const SALT_DROP: u64 = 2;
const SALT_STALL: u64 = 3;
const SALT_KILL: u64 = 4;

/// Densities (and magnitudes) of the injected failure classes. All
/// densities are probabilities in `[0, 1]`; `0` disables the class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a given `(die, seq)` execution fails at the device
    /// level (surfaces as a die error → remap → breaker failure).
    pub die_fail: f64,
    /// Probability a given `(connection, request index)` is dropped
    /// before forwarding (the connection is closed under the client).
    pub drop: f64,
    /// Probability a given `(shard, drain)` stalls before executing.
    pub stall: f64,
    /// How long a stalled drain sleeps.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// Everything disabled — the plan injects nothing.
    pub fn none() -> ChaosConfig {
        ChaosConfig {
            die_fail: 0.0,
            drop: 0.0,
            stall: 0.0,
            stall_ms: 5,
        }
    }

    /// Whether any class can fire.
    pub fn enabled(&self) -> bool {
        self.die_fail > 0.0 || self.drop > 0.0 || self.stall > 0.0
    }
}

/// `(seed, config)` pair carried in [`crate::ServeConfig`]; the WAL
/// fingerprint pins it so recovery replays under the same plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Plan seed.
    pub seed: u64,
    /// Injection densities.
    pub config: ChaosConfig,
}

impl ChaosSpec {
    /// Builds the (stateless) plan for this spec.
    pub fn plan(&self) -> ChaosPlan {
        ChaosPlan::new(self.seed, self.config)
    }
}

/// The deterministic injection oracle. Copy-cheap and lock-free: every
/// query hashes its coordinates against the seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    seed: u64,
    config: ChaosConfig,
}

impl ChaosPlan {
    /// A plan over `config`, keyed by `seed`.
    pub fn new(seed: u64, config: ChaosConfig) -> ChaosPlan {
        ChaosPlan {
            seed: mix(seed ^ CHAOS_SEED_SALT, &[]),
            config,
        }
    }

    /// Uniform in `[0, 1)` from the event coordinates; the same
    /// coordinates always draw the same number, so a higher density is
    /// a strict superset of a lower one (nested membership).
    fn uniform(&self, salt: u64, coords: &[u64]) -> f64 {
        let mut parts = Vec::with_capacity(coords.len() + 1);
        parts.push(salt);
        parts.extend_from_slice(coords);
        (mix(self.seed, &parts) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether execution `seq` on `die` fails at the device level.
    pub fn die_fails(&self, die: usize, seq: u64) -> bool {
        self.config.die_fail > 0.0
            && self.uniform(SALT_DIE_FAIL, &[die as u64, seq]) < self.config.die_fail
    }

    /// Whether request `index` on connection `conn` is dropped before
    /// it is forwarded to a shard.
    pub fn drop_before(&self, conn: u64, index: u64) -> bool {
        self.config.drop > 0.0 && self.uniform(SALT_DROP, &[conn, index]) < self.config.drop
    }

    /// Whether drain `drain` of `shard` stalls, and for how long.
    pub fn stall_before(&self, shard: usize, drain: u64) -> Option<u64> {
        (self.config.stall > 0.0
            && self.uniform(SALT_STALL, &[shard as u64, drain]) < self.config.stall)
            .then_some(self.config.stall_ms)
    }

    /// The request ordinal (within `total`) at which a chaos harness
    /// kills the process, if any. Deterministic in the seed alone so
    /// the uninterrupted reference run of the same workload knows the
    /// kill point without ever crashing.
    pub fn kill_point(&self, total: usize) -> Option<usize> {
        if total < 2 {
            return None;
        }
        // Land strictly inside the run: never before the first request
        // (nothing to recover) and never after the last (no crash).
        Some(1 + (mix(self.seed, &[SALT_KILL]) % (total as u64 - 1)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(d: f64) -> ChaosConfig {
        ChaosConfig {
            die_fail: d,
            drop: d / 2.0,
            stall: d / 4.0,
            stall_ms: 5,
        }
    }

    #[test]
    fn same_inputs_same_plan() {
        let a = ChaosPlan::new(7, dense(0.1));
        let b = ChaosPlan::new(7, dense(0.1));
        for die in 0..4 {
            for seq in 0..64 {
                assert_eq!(a.die_fails(die, seq), b.die_fails(die, seq));
                assert_eq!(
                    a.drop_before(die as u64, seq),
                    b.drop_before(die as u64, seq)
                );
                assert_eq!(a.stall_before(die, seq), b.stall_before(die, seq));
            }
        }
        assert_eq!(a.kill_point(48), b.kill_point(48));
    }

    #[test]
    fn densities_nest() {
        // The defining property: every event injected at a lower
        // density is also injected at any higher one.
        let low = ChaosPlan::new(11, dense(0.05));
        let high = ChaosPlan::new(11, dense(0.25));
        let mut low_count = 0;
        let mut high_count = 0;
        for die in 0..8 {
            for seq in 0..256 {
                if low.die_fails(die, seq) {
                    low_count += 1;
                    assert!(high.die_fails(die, seq), "nested membership violated");
                }
                high_count += usize::from(high.die_fails(die, seq));
            }
        }
        assert!(low_count > 0, "0.05 over 2048 draws should fire");
        assert!(high_count > low_count);
    }

    #[test]
    fn zero_density_injects_nothing() {
        let plan = ChaosPlan::new(3, ChaosConfig::none());
        for die in 0..8 {
            for seq in 0..128 {
                assert!(!plan.die_fails(die, seq));
                assert!(!plan.drop_before(die as u64, seq));
                assert!(plan.stall_before(die, seq).is_none());
            }
        }
        assert!(!ChaosConfig::none().enabled());
    }

    #[test]
    fn kill_point_lands_strictly_inside() {
        for seed in 0..64 {
            let plan = ChaosPlan::new(seed, dense(0.1));
            let k = plan.kill_point(48).unwrap();
            assert!((1..48).contains(&k), "seed {seed}: kill at {k}");
        }
        assert_eq!(ChaosPlan::new(0, dense(0.1)).kill_point(1), None);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::new(1, dense(0.1));
        let b = ChaosPlan::new(2, dense(0.1));
        let differs = (0..256).any(|seq| a.die_fails(0, seq) != b.die_fails(0, seq));
        assert!(differs);
    }
}
