//! Deterministic fault injection: seed-keyed defect maps and transient
//! fault processes.
//!
//! The paper's headline results are *reliability curves* — Frac and F-MAJ
//! success rates below 100% (Figs. 6–9) and a PUF whose usefulness rests
//! on stability under environmental stress (Fig. 12). Reproducing how
//! those curves degrade requires injecting the defect classes real DRAM
//! exhibits, and injecting them *mechanistically*: a stuck cell must pin
//! its capacitor before charge sharing (so it perturbs every row it
//! shares with), a weak cell must have less capacitance and a shorter
//! leakage time constant (so Frac and retention see it differently), a
//! flaky sense amplifier must flip its comparison (so restore writes the
//! wrong rail back), and an excursion must move the whole module's
//! operating point mid-run.
//!
//! Everything here is a pure function of `(die seed, FaultConfig)` — the
//! same discipline as [`crate::variation`]: identical inputs produce an
//! identical [`FaultPlan`], which is what makes fault sweeps reproducible
//! across job counts and machines. Densities are *nested*: because a cell
//! is faulty when `uniform(coords) < density`, the stuck set at density
//! 0.01 is a subset of the stuck set at 0.05, so sweeping density up can
//! only add defects — success-rate curves degrade monotonically by
//! construction.

use crate::env::Environment;
use crate::variation::{hash_coords, ParamId, ParamLanes, VariationSampler};

/// Salt mixed into the die seed so the fault sampler never aliases the
/// process-variation sampler even for identical `(param, coords)`.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0001_C0DE;

/// Densities and rates of every injected fault class. All fields default
/// to zero / empty — [`FaultConfig::none`] — which must be byte-for-byte
/// indistinguishable from a build without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fraction of cells permanently stuck at one rail.
    pub stuck_density: f64,
    /// Fraction of cells that are "weak": reduced capacitance and a
    /// shortened leakage time constant.
    pub weak_density: f64,
    /// Capacitance multiplier applied to weak cells (< 1).
    pub weak_cap_factor: f64,
    /// Leakage-tau multiplier applied to weak cells (< 1).
    pub weak_tau_factor: f64,
    /// Mean probability that a sense-amp comparison flips. Each column
    /// gets its own rate: a static per-column multiplier (uniform in
    /// `[0, 2)`) times this mean, so some amplifiers are flaky and some
    /// are solid, like real silicon.
    pub sense_flip_rate: f64,
    /// Probability that an *implicit* row of a decoder glitch (roles
    /// ≥ 2, i.e. neither R1 nor R2) drops out of the multi-row
    /// activation.
    pub decoder_dropout: f64,
    /// Number of mid-run environment excursion windows.
    pub excursions: usize,
    /// Length of each excursion window, in cycles.
    pub excursion_cycles: u64,
    /// Span of cycles (from the controller's start clock) over which
    /// excursion windows are placed.
    pub excursion_span: u64,
    /// Magnitude of the temperature excursion in °C (sign is drawn per
    /// window).
    pub excursion_temp_delta: f64,
    /// Magnitude of the supply-voltage excursion in volts (sign is
    /// drawn per window).
    pub excursion_vdd_delta: f64,
}

impl FaultConfig {
    /// A configuration that injects nothing.
    pub fn none() -> Self {
        FaultConfig {
            stuck_density: 0.0,
            weak_density: 0.0,
            weak_cap_factor: 0.5,
            weak_tau_factor: 0.1,
            sense_flip_rate: 0.0,
            decoder_dropout: 0.0,
            excursions: 0,
            excursion_cycles: 0,
            excursion_span: 0,
            excursion_temp_delta: 0.0,
            excursion_vdd_delta: 0.0,
        }
    }

    /// Whether any fault class is active.
    pub fn enabled(&self) -> bool {
        self.stuck_density > 0.0
            || self.weak_density > 0.0
            || self.sense_flip_rate > 0.0
            || self.decoder_dropout > 0.0
            || self.excursions > 0
    }

    /// Whether any *cell* fault class (stuck or weak) is active —
    /// the classes that change materialized row statics.
    pub fn cell_faults(&self) -> bool {
        self.stuck_density > 0.0 || self.weak_density > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// One mid-run environment excursion: for `start <= t < end` the module
/// operates at the base environment shifted by the deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvWindow {
    /// First cycle (inclusive) the excursion is active.
    pub start: u64,
    /// First cycle after the excursion ends.
    pub end: u64,
    /// Signed temperature shift in °C.
    pub temp_delta: f64,
    /// Signed supply-voltage shift in volts.
    pub vdd_delta: f64,
}

impl EnvWindow {
    /// Whether cycle `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether the window overlaps the half-open cycle range `[a, b)`.
    pub fn overlaps(&self, a: u64, b: u64) -> bool {
        self.start < b && a < self.end
    }
}

/// The complete, deterministic fault map of one die.
///
/// A `FaultPlan` owns no per-cell storage: stuck/weak/flip decisions are
/// hashed on demand from `(die seed ⊕ salt, param, coordinates)`, the
/// same zero-storage discipline as [`VariationSampler`]. Only the
/// excursion windows (a handful of entries) are precomputed, sorted by
/// start cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    sampler: VariationSampler,
    config: FaultConfig,
    windows: Vec<EnvWindow>,
}

impl FaultPlan {
    /// Derives the plan for the die identified by `die_seed`.
    pub fn new(die_seed: u64, config: FaultConfig) -> Self {
        let sampler = VariationSampler::new(hash_coords(&[die_seed, FAULT_SEED_SALT]));
        let mut windows = Vec::with_capacity(config.excursions);
        if config.excursions > 0 && config.excursion_cycles > 0 && config.excursion_span > 0 {
            let slack = config
                .excursion_span
                .saturating_sub(config.excursion_cycles);
            for i in 0..config.excursions {
                let i = i as u64;
                let start = (self_uniform(&sampler, &[i, 0]) * slack as f64) as u64;
                let temp_sign = if sampler.bernoulli(ParamId::FaultExcursion, &[i, 1], 0.5) {
                    1.0
                } else {
                    -1.0
                };
                let vdd_sign = if sampler.bernoulli(ParamId::FaultExcursion, &[i, 2], 0.5) {
                    1.0
                } else {
                    -1.0
                };
                windows.push(EnvWindow {
                    start,
                    end: start + config.excursion_cycles,
                    temp_delta: temp_sign * config.excursion_temp_delta,
                    vdd_delta: vdd_sign * config.excursion_vdd_delta,
                });
            }
            windows.sort_by_key(|w| (w.start, w.end));
        }
        FaultPlan {
            sampler,
            config,
            windows,
        }
    }

    /// The configuration the plan was derived from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The excursion windows, sorted by start cycle.
    pub fn windows(&self) -> &[EnvWindow] {
        &self.windows
    }

    /// Whether this plan injects anything at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// The cell-fault membership of one row, its coordinates hashed once
    /// per fault class — how a materialized row samples its stuck and
    /// weak cells.
    pub fn row(&self, bank: usize, sub: usize, row: usize) -> RowFaults<'_> {
        let prefix = [bank as u64, sub as u64, row as u64];
        RowFaults {
            config: &self.config,
            stuck: self.sampler.lanes(ParamId::FaultStuckCell, &prefix),
            stuck_value: self.sampler.lanes(ParamId::FaultStuckValue, &prefix),
            weak: self.sampler.lanes(ParamId::FaultWeakCell, &prefix),
        }
    }

    /// The rail a cell is stuck at, or `None` for a healthy cell.
    pub fn stuck_at(&self, bank: usize, sub: usize, row: usize, col: usize) -> Option<bool> {
        self.row(bank, sub, row).stuck_at(col)
    }

    /// Whether a cell is weak (reduced capacitance, fast leakage).
    pub fn is_weak(&self, bank: usize, sub: usize, row: usize, col: usize) -> bool {
        self.row(bank, sub, row).is_weak(col)
    }

    /// The transient flip probability of one column's sense amplifier:
    /// the configured mean rate scaled by a static per-column factor in
    /// `[0, 2)`, clamped to a probability.
    pub fn sense_flip_rate(&self, bank: usize, sub: usize, col: usize) -> f64 {
        if self.config.sense_flip_rate <= 0.0 {
            return 0.0;
        }
        let factor = 2.0
            * self.sampler.uniform(
                ParamId::FaultSenseFlip,
                &[bank as u64, sub as u64, col as u64],
            );
        (self.config.sense_flip_rate * factor).min(1.0)
    }

    /// Whether an implicit row of the decoder glitch on `(r1, r2)` drops
    /// out of the multi-row activation. Static per `(pair, row)`, so the
    /// same glitch misbehaves the same way every time.
    pub fn decoder_drop(&self, bank: usize, sub: usize, r1: usize, r2: usize, row: usize) -> bool {
        self.config.decoder_dropout > 0.0
            && self.sampler.bernoulli(
                ParamId::FaultDecoderDrop,
                &[bank as u64, sub as u64, r1 as u64, r2 as u64, row as u64],
                self.config.decoder_dropout,
            )
    }

    /// The excursion window active at cycle `t`, if any.
    pub fn excursion_at(&self, t: u64) -> Option<&EnvWindow> {
        self.windows.iter().find(|w| w.contains(t))
    }

    /// The environment the module sees at cycle `t`, given its base
    /// environment.
    pub fn environment_at(&self, base: Environment, t: u64) -> Environment {
        match self.excursion_at(t) {
            Some(w) => base
                .with_temperature(base.temperature_c + w.temp_delta)
                .with_vdd(crate::units::Volts(base.vdd.value() + w.vdd_delta)),
            None => base,
        }
    }

    /// Whether any excursion window overlaps the cycle range `[a, b)`.
    /// The TRNG refill snapshot uses this to refuse both capture and
    /// restore across a fault window, falling back to a live replay.
    pub fn excursion_overlaps(&self, a: u64, b: u64) -> bool {
        self.windows.iter().any(|w| w.overlaps(a, b))
    }
}

/// One row's cell-fault membership ([`FaultPlan::row`]).
#[derive(Debug, Clone, Copy)]
pub struct RowFaults<'a> {
    config: &'a FaultConfig,
    stuck: ParamLanes,
    stuck_value: ParamLanes,
    weak: ParamLanes,
}

impl RowFaults<'_> {
    /// The configuration of the plan the row belongs to.
    pub fn config(&self) -> &FaultConfig {
        self.config
    }

    /// The rail the cell in column `col` is stuck at, or `None`.
    ///
    /// Membership uses `uniform < density`, so raising the density only
    /// grows the stuck set (never moves it).
    pub fn stuck_at(&self, col: usize) -> Option<bool> {
        if self.config.stuck_density <= 0.0 {
            return None;
        }
        let lane = col as u64;
        if self.stuck.uniform(lane) < self.config.stuck_density {
            Some(self.stuck_value.bernoulli(lane, 0.5))
        } else {
            None
        }
    }

    /// Whether the cell in column `col` is weak.
    pub fn is_weak(&self, col: usize) -> bool {
        self.config.weak_density > 0.0 && self.weak.uniform(col as u64) < self.config.weak_density
    }
}

/// Window-placement uniform, kept out of the public sampler surface so
/// the coordinate convention stays in one place.
fn self_uniform(sampler: &VariationSampler, coords: &[u64]) -> f64 {
    sampler.uniform(ParamId::FaultExcursion, coords)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_config() -> FaultConfig {
        FaultConfig {
            stuck_density: 0.05,
            weak_density: 0.1,
            sense_flip_rate: 0.02,
            decoder_dropout: 0.2,
            excursions: 3,
            excursion_cycles: 10_000,
            excursion_span: 1_000_000,
            excursion_temp_delta: 30.0,
            excursion_vdd_delta: 0.1,
            ..FaultConfig::none()
        }
    }

    #[test]
    fn none_config_is_disabled() {
        let c = FaultConfig::none();
        assert!(!c.enabled());
        assert!(!c.cell_faults());
        let plan = FaultPlan::new(7, c);
        assert!(!plan.enabled());
        assert!(plan.windows().is_empty());
        assert_eq!(plan.stuck_at(0, 0, 0, 0), None);
        assert!(!plan.is_weak(0, 0, 0, 0));
        assert_eq!(plan.sense_flip_rate(0, 0, 0), 0.0);
        assert!(!plan.decoder_drop(0, 0, 1, 2, 3));
        assert!(!plan.excursion_overlaps(0, u64::MAX));
    }

    #[test]
    fn identical_inputs_produce_identical_plans() {
        let a = FaultPlan::new(42, dense_config());
        let b = FaultPlan::new(42, dense_config());
        assert_eq!(a, b);
        for col in 0..256 {
            assert_eq!(a.stuck_at(1, 2, 3, col), b.stuck_at(1, 2, 3, col));
            assert_eq!(a.sense_flip_rate(1, 2, col), b.sense_flip_rate(1, 2, col));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, dense_config());
        let b = FaultPlan::new(2, dense_config());
        let stuck_a: Vec<_> = (0..512).map(|c| a.stuck_at(0, 0, 0, c)).collect();
        let stuck_b: Vec<_> = (0..512).map(|c| b.stuck_at(0, 0, 0, c)).collect();
        assert_ne!(stuck_a, stuck_b);
        assert_ne!(a.windows(), b.windows());
    }

    #[test]
    fn densities_nest() {
        // The stuck set at a low density is a subset of the set at a
        // higher density — the property that makes sweep curves
        // monotone by construction.
        let lo = FaultPlan::new(
            9,
            FaultConfig {
                stuck_density: 0.02,
                ..FaultConfig::none()
            },
        );
        let hi = FaultPlan::new(
            9,
            FaultConfig {
                stuck_density: 0.2,
                ..FaultConfig::none()
            },
        );
        let mut lo_count = 0;
        for row in 0..8 {
            for col in 0..512 {
                if let Some(v) = lo.stuck_at(0, 0, row, col) {
                    lo_count += 1;
                    assert_eq!(hi.stuck_at(0, 0, row, col), Some(v), "row {row} col {col}");
                }
            }
        }
        assert!(lo_count > 0, "density 0.02 over 4096 cells found nothing");
    }

    #[test]
    fn row_lanes_draw_at_the_full_coordinates() {
        let plan = FaultPlan::new(17, dense_config());
        let row = plan.row(1, 0, 6);
        let mut stuck = 0;
        for col in 0..512usize {
            let coords = [1, 0, 6, col as u64];
            let expect =
                (plan.sampler.uniform(ParamId::FaultStuckCell, &coords) < 0.05).then(|| {
                    plan.sampler
                        .bernoulli(ParamId::FaultStuckValue, &coords, 0.5)
                });
            stuck += usize::from(expect.is_some());
            assert_eq!(row.stuck_at(col), expect, "col {col}");
            assert_eq!(
                row.is_weak(col),
                plan.sampler.uniform(ParamId::FaultWeakCell, &coords) < 0.1,
                "col {col}"
            );
        }
        assert!(stuck > 0, "no stuck cell in 512 at density 0.05");
    }

    #[test]
    fn stuck_density_is_respected() {
        let plan = FaultPlan::new(3, dense_config());
        let n = 40_000usize;
        let stuck = (0..n)
            .filter(|&i| plan.stuck_at(0, 0, i / 512, i % 512).is_some())
            .count();
        let p = stuck as f64 / n as f64;
        assert!((p - 0.05).abs() < 0.01, "stuck fraction = {p}");
    }

    #[test]
    fn sense_flip_rate_mean_matches_config() {
        let plan = FaultPlan::new(5, dense_config());
        let n = 20_000usize;
        let mean: f64 = (0..n).map(|c| plan.sense_flip_rate(0, 0, c)).sum::<f64>() / n as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean flip rate = {mean}");
    }

    #[test]
    fn excursion_windows_are_sorted_and_sized() {
        let cfg = dense_config();
        let plan = FaultPlan::new(11, cfg);
        assert_eq!(plan.windows().len(), 3);
        let mut prev = 0;
        for w in plan.windows() {
            assert!(w.start >= prev);
            assert_eq!(w.end - w.start, cfg.excursion_cycles);
            assert!(w.end <= cfg.excursion_span);
            assert_eq!(w.temp_delta.abs(), cfg.excursion_temp_delta);
            assert_eq!(w.vdd_delta.abs(), cfg.excursion_vdd_delta);
            prev = w.start;
        }
    }

    #[test]
    fn environment_at_shifts_inside_windows_only() {
        let plan = FaultPlan::new(11, dense_config());
        let base = Environment::nominal();
        let w = plan.windows()[0];
        let inside = plan.environment_at(base, w.start);
        assert_eq!(inside.temperature_c, base.temperature_c + w.temp_delta);
        assert_eq!(inside.vdd.value(), base.vdd.value() + w.vdd_delta);
        // One past the end is back to base (unless another window covers
        // it, which these sparse windows do not).
        if plan.excursion_at(w.end).is_none() {
            assert_eq!(plan.environment_at(base, w.end), base);
        }
    }

    #[test]
    fn overlap_detection_matches_windows() {
        let plan = FaultPlan::new(13, dense_config());
        let w = plan.windows()[0];
        assert!(plan.excursion_overlaps(w.start, w.end));
        assert!(plan.excursion_overlaps(w.start.saturating_sub(5), w.start + 1));
        assert!(plan.excursion_overlaps(w.end - 1, w.end + 100));
        assert!(!plan.excursion_overlaps(w.end, w.end));
        // An empty range never overlaps.
        assert!(!plan.excursion_overlaps(w.start, w.start));
    }
}
