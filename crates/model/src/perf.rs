//! Kernel-level performance counters.
//!
//! [`ModelPerf`] counts what the sub-array event kernels actually did —
//! events fired, columns processed, exponentials evaluated, materialize-
//! cache traffic, and wall time spent inside each kernel. The counters
//! are pure observability: they are surfaced on experiment **stderr**
//! summaries and in `--json` dumps, never on stdout, so figure output
//! stays byte-identical while the kernels get faster underneath.

/// Counters for the sub-array analog kernels of one chip (or, after
/// [`ModelPerf::accumulate`], of a whole module / fleet run).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ModelPerf {
    /// Charge-share events fired (`fire_share`).
    pub share_events: u64,
    /// Sense-amplifier events fired (`fire_sense`).
    pub sense_events: u64,
    /// Word-line-close events fired (`fire_close`).
    pub close_events: u64,
    /// Leakage passes that did real work (past the sub-µs and
    /// zero-charge skips).
    pub leak_events: u64,
    /// Activations whose pending share and sense a full-row write
    /// superseded, so neither fired (`Subarray::write`).
    pub superseded_activations: u64,
    /// Total columns processed across all kernel invocations.
    pub columns: u64,
    /// `exp()` evaluations in the leakage kernel.
    pub exp_calls: u64,
    /// Materialize-cache lookups that found a built buffer.
    pub cache_hits: u64,
    /// Materialize-cache lookups that had to build the buffer.
    pub cache_misses: u64,
    /// Wall nanoseconds spent in the share kernel.
    pub share_ns: u64,
    /// Wall nanoseconds spent in the sense kernel.
    pub sense_ns: u64,
    /// Wall nanoseconds spent in the close kernel.
    pub close_ns: u64,
    /// Wall nanoseconds spent in the leakage kernel.
    pub leak_ns: u64,
    /// Counter-keyed temporal-noise draws (normals and uniforms).
    pub noise_draws: u64,
    /// Batch noise fills (one per noise-consuming kernel event).
    pub noise_fills: u64,
    /// Wall nanoseconds spent filling noise buffers.
    pub noise_ns: u64,
    /// TRNG refill prefixes served from a captured snapshot.
    pub snapshot_hits: u64,
    /// TRNG refill prefixes executed live (and captured for later
    /// restores).
    pub snapshot_misses: u64,
    /// Bytes of sub-array state captured into snapshots.
    pub snapshot_bytes: u64,
    /// Always 0. Kept with [`ModelPerf::exp_memo_misses`] so per-layer
    /// reports that name them (the benchmark harness's
    /// `model.exp_memo_hit_ratio`) still compile and read; the leakage
    /// kernel calls `exp` directly, with no memo in front of it.
    pub exp_memo_hits: u64,
    /// Always 0; see [`ModelPerf::exp_memo_hits`].
    pub exp_memo_misses: u64,
    /// Injected sense-amplifier comparison flips.
    pub fault_sense_flips: u64,
    /// Stuck-at cells re-pinned to their rail after a kernel event.
    pub fault_stuck_pins: u64,
    /// Implicit glitch rows dropped from a multi-row activation.
    pub fault_decoder_drops: u64,
    /// Commands executed under an environment-excursion window.
    pub fault_env_commands: u64,
    /// Leakage passes skipped entirely by the lazy early-outs
    /// (no elapsed time, sub-µs gap, or never-charged row).
    pub leak_row_skips: u64,
    /// Cold decay-factor vector fills (decay-vector cache misses).
    pub exp_batch_calls: u64,
    /// Columns evaluated across all cold decay-factor vector fills, one
    /// `exp` per column.
    pub exp_batch_lanes: u64,
    /// Decay-factor vectors served from the per-(row, dt) cache.
    pub decay_vec_hits: u64,
    /// Materialize buffers adopted warm from a previous task or shard
    /// generation (fleet/serve cache sharing).
    pub cache_share_hits: u64,
    /// Always 0. Kept so per-layer reports that name the counter (the
    /// benchmark harness's `softmc.sched_merges`) still compile and
    /// read; programs run strictly one after another, so nothing
    /// merges.
    pub sched_merges: u64,
}

impl ModelPerf {
    /// Adds another counter set into this one (module/fleet roll-up).
    pub fn accumulate(&mut self, other: &ModelPerf) {
        self.share_events += other.share_events;
        self.sense_events += other.sense_events;
        self.close_events += other.close_events;
        self.leak_events += other.leak_events;
        self.superseded_activations += other.superseded_activations;
        self.columns += other.columns;
        self.exp_calls += other.exp_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.share_ns += other.share_ns;
        self.sense_ns += other.sense_ns;
        self.close_ns += other.close_ns;
        self.leak_ns += other.leak_ns;
        self.noise_draws += other.noise_draws;
        self.noise_fills += other.noise_fills;
        self.noise_ns += other.noise_ns;
        self.snapshot_hits += other.snapshot_hits;
        self.snapshot_misses += other.snapshot_misses;
        self.snapshot_bytes += other.snapshot_bytes;
        self.exp_memo_hits += other.exp_memo_hits;
        self.exp_memo_misses += other.exp_memo_misses;
        self.fault_sense_flips += other.fault_sense_flips;
        self.fault_stuck_pins += other.fault_stuck_pins;
        self.fault_decoder_drops += other.fault_decoder_drops;
        self.fault_env_commands += other.fault_env_commands;
        self.leak_row_skips += other.leak_row_skips;
        self.exp_batch_calls += other.exp_batch_calls;
        self.exp_batch_lanes += other.exp_batch_lanes;
        self.decay_vec_hits += other.decay_vec_hits;
        self.cache_share_hits += other.cache_share_hits;
        self.sched_merges += other.sched_merges;
    }

    /// Total injected-fault events observed (all classes).
    pub fn fault_events(&self) -> u64 {
        self.fault_sense_flips
            + self.fault_stuck_pins
            + self.fault_decoder_drops
            + self.fault_env_commands
    }

    /// Total kernel events fired.
    pub fn events(&self) -> u64 {
        self.share_events + self.sense_events + self.close_events + self.leak_events
    }

    /// Total wall nanoseconds spent inside the kernels.
    pub fn kernel_ns(&self) -> u64 {
        self.share_ns + self.sense_ns + self.close_ns + self.leak_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_every_field() {
        let a = ModelPerf {
            share_events: 1,
            sense_events: 2,
            close_events: 3,
            leak_events: 4,
            columns: 5,
            exp_calls: 6,
            cache_hits: 7,
            cache_misses: 8,
            share_ns: 9,
            sense_ns: 10,
            close_ns: 11,
            leak_ns: 12,
            noise_draws: 13,
            noise_fills: 14,
            noise_ns: 15,
            snapshot_hits: 16,
            snapshot_misses: 17,
            snapshot_bytes: 18,
            exp_memo_hits: 19,
            exp_memo_misses: 20,
            fault_sense_flips: 21,
            fault_stuck_pins: 22,
            fault_decoder_drops: 23,
            fault_env_commands: 24,
            leak_row_skips: 25,
            exp_batch_calls: 26,
            exp_batch_lanes: 27,
            decay_vec_hits: 28,
            cache_share_hits: 29,
            sched_merges: 30,
            superseded_activations: 31,
        };
        let mut total = a;
        total.accumulate(&a);
        assert_eq!(total.share_events, 2);
        assert_eq!(total.leak_ns, 24);
        assert_eq!(total.noise_draws, 26);
        assert_eq!(total.noise_fills, 28);
        assert_eq!(total.noise_ns, 30);
        assert_eq!(total.snapshot_hits, 32);
        assert_eq!(total.snapshot_misses, 34);
        assert_eq!(total.snapshot_bytes, 36);
        assert_eq!(total.exp_memo_hits, 38);
        assert_eq!(total.exp_memo_misses, 40);
        assert_eq!(total.fault_sense_flips, 42);
        assert_eq!(total.fault_stuck_pins, 44);
        assert_eq!(total.fault_decoder_drops, 46);
        assert_eq!(total.fault_env_commands, 48);
        assert_eq!(total.leak_row_skips, 50);
        assert_eq!(total.exp_batch_calls, 52);
        assert_eq!(total.exp_batch_lanes, 54);
        assert_eq!(total.decay_vec_hits, 56);
        assert_eq!(total.cache_share_hits, 58);
        assert_eq!(total.sched_merges, 60);
        assert_eq!(total.superseded_activations, 62);
        assert_eq!(total.fault_events(), 2 * (21 + 22 + 23 + 24));
        assert_eq!(total.events(), 2 * (1 + 2 + 3 + 4));
        assert_eq!(total.kernel_ns(), 2 * (9 + 10 + 11 + 12));
    }

    #[test]
    fn default_is_zero() {
        let p = ModelPerf::default();
        assert_eq!(p.events(), 0);
        assert_eq!(p.kernel_ns(), 0);
        assert_eq!(p, ModelPerf::default());
    }
}
