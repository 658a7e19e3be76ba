//! Materialized silicon statics: contiguous per-row / per-column buffers
//! of the pure-hash parameters the event kernels consume.
//!
//! Every static parameter in [`Silicon`] is a pure function of
//! `(chip seed, parameter id, coordinates)` — see
//! [`crate::variation`]. The kernels used to re-derive some of them
//! (notably the per-cell charge-injection offset, a full hash +
//! Box–Muller per column) on **every** event. This cache builds each
//! buffer exactly once per (chip, coordinate) and hands the kernels
//! plain slices:
//!
//! - [`RowStatics`] per (bank, sub-array, row): cell capacitance,
//!   charge-injection offset and stuck cells, plus the leakage tau at
//!   20 °C and the VRT column list;
//! - [`ColStatics`] per (bank, sub-array): sense-amplifier offset,
//!   anti-cell polarity, plus the offset's temperature coefficient and
//!   the Half-m closure asymmetry;
//! - per-slot multi-row share weights.
//!
//! **Determinism argument.** Caching cannot change any simulated value:
//! the buffers hold the same `f64`/`f32` bit patterns the direct
//! [`Silicon`] calls return (the builders walk the very samplers those
//! calls wrap), and the stateful temporal-noise RNG is never involved.
//! The cache is keyed off the silicon seed — asking it about a chip with
//! a different seed drops every buffer and rebuilds, so stale statics
//! can never leak across chips. Experiment stdout is byte-identical with
//! or without the cache; only wall time changes.
//!
//! **First touch.** Each parameter buffer is built by the first event
//! that reads it, not with the rest of its struct; [`RowStatics`] and
//! [`ColStatics`] name the `ensure_*` that fills each field. Deferring a
//! build cannot change a value: each buffer is a pure function of (die
//! seed, parameter, coordinates, fault plan), so only the moment it is
//! computed moves. A threshold built at exactly 20 °C skips the
//! temperature coefficients: there `coeff × 0.0` is ±0, and adding ±0 to
//! the non-zero `half + offset` leaves the threshold's bits unchanged. A
//! build walks one of the silicon's lane-hoisted samplers
//! ([`Silicon::row_sampler`], [`Silicon::col_sampler`],
//! [`Silicon::slot_sampler`]), so a column costs one hash round per
//! parameter and nothing is allocated but the buffer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::chip::ChipConfig;
use crate::env::Environment;
use crate::perf::ModelPerf;
use crate::silicon::Silicon;

/// Cached decay-factor vectors are evicted wholesale past this count;
/// each entry is one row's worth of `f64`s for one `(dt, scale)` pair.
const DECAY_VEC_CAP: usize = 512;

/// Multiply-rotate hasher for the cache's small integer-tuple keys.
///
/// Each word is folded in with one multiply by the 64-bit golden ratio
/// and a rotate that brings the well-mixed high product bits down to
/// the low bits the table indexes by. SipHash's flooding resistance buys
/// nothing for coordinates the simulator generates itself, and nothing
/// iterates these maps, so their order cannot reach any output.
#[derive(Debug, Clone, Copy, Default)]
struct CoordHasher(u64);

impl Hasher for CoordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by cache coordinates, hashed with [`CoordHasher`].
type CoordMap<K, V> = HashMap<K, V, BuildHasherDefault<CoordHasher>>;

/// Materialized sense thresholds of one sub-array, tagged with the
/// environment they were computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseThresholds {
    temp_bits: u64,
    vdd_bits: u64,
    /// Final per-column comparison threshold (anti-cell mirror already
    /// applied).
    pub th: Box<[f64]>,
}

/// Static per-cell parameters of one row, as contiguous buffers.
///
/// [`MaterializeCache::ensure_row`] fills `cap`, `inject` and `stuck`;
/// `tau20` and `vrt` stay empty until
/// [`MaterializeCache::ensure_leak_statics`] fills them on the first
/// leakage pass over a charged row (an empty `tau20` marks them unbuilt,
/// since every row has columns).
#[derive(Debug, Clone, PartialEq)]
pub struct RowStatics {
    /// Cell capacitance (fF), one entry per column.
    pub cap: Box<[f32]>,
    /// Leakage time constant at 20 °C (seconds), one entry per column.
    pub tau20: Box<[f32]>,
    /// Charge-injection offset (volts), one entry per column.
    pub inject: Box<[f64]>,
    /// Columns whose cell is VRT (sparse, ascending).
    pub vrt: Box<[u32]>,
    /// Stuck-at cells (sparse, ascending), encoded `col << 1 | rail`.
    /// Empty unless a fault plan with a stuck density is installed.
    pub stuck: Box<[u32]>,
}

/// Static per-column parameters of one sub-array, as contiguous buffers.
///
/// [`MaterializeCache::ensure_cols`] fills `offset` and `anti`;
/// `temp_coeff` stays empty until [`MaterializeCache::ensure_temp_coeffs`]
/// (a refresh, or a threshold build away from 20 °C) and `halfm_asym`
/// until [`MaterializeCache::ensure_halfm`] (a multi-row close).
#[derive(Debug, Clone, PartialEq)]
pub struct ColStatics {
    /// Sense-amplifier input-referred offset (volts).
    pub offset: Box<[f64]>,
    /// Temperature coefficient of the sense offset (V per °C).
    pub temp_coeff: Box<[f64]>,
    /// Whether the column is wired as anti-cells.
    pub anti: Box<[bool]>,
    /// Raw Half-m closure asymmetry (volts), before the metastability
    /// roll-off applied at close time.
    pub halfm_asym: Box<[f64]>,
}

/// Key of one cached decay-factor vector: `(bank, sub, row, dt bits,
/// scale bits)`.
type DecayKey = (usize, usize, usize, u64, u64);

/// Lazy, seed-keyed cache of materialized silicon statics for one chip.
#[derive(Debug, Clone, Default)]
pub struct MaterializeCache {
    seed: u64,
    cols: CoordMap<(usize, usize), Box<ColStatics>>,
    weights: CoordMap<(usize, usize, usize), Box<[f32]>>,
    rows: CoordMap<(usize, usize, usize), Box<RowStatics>>,
    /// Final sense thresholds per sub-array, tagged by environment.
    sense_th: CoordMap<(usize, usize), Box<SenseThresholds>>,
    /// Per-column sense-flip fault rates per sub-array.
    flip_rates: CoordMap<(usize, usize), Box<[f64]>>,
    /// Decay-factor vectors: `exp(-dt / (tau20[col] * scale))` per
    /// column.
    decay: CoordMap<DecayKey, Box<[f64]>>,
    /// Full identity of the chip that donated this cache (stamped by
    /// `Chip::take_cache`). The buffers are pure in the *whole* chip
    /// configuration — group profile, analog parameters, and geometry,
    /// not just the die seed — so adoption across chips must compare
    /// all of it. `None` for a cache that never left its chip.
    donor: Option<ChipConfig>,
}

impl MaterializeCache {
    /// An empty cache keyed to `seed` (normally the owning chip's die
    /// seed).
    pub fn new(seed: u64) -> Self {
        MaterializeCache {
            seed,
            ..MaterializeCache::default()
        }
    }

    /// The seed the cached buffers were built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-keys the cache to `seed`, keeping any still-valid buffers.
    /// Returns the number of materialized buffers retained — nonzero
    /// only when the new owner shares the previous owner's die seed, in
    /// which case every buffer is reusable as-is (they are pure in the
    /// seed). This is the fleet/serve cache-sharing entry point: callers
    /// credit the return value to [`ModelPerf::cache_share_hits`].
    pub fn adopt(&mut self, seed: u64) -> u64 {
        if seed != self.seed {
            self.seed = seed;
            self.clear_buffers();
            return 0;
        }
        (self.cols.len()
            + self.weights.len()
            + self.rows.len()
            + self.sense_th.len()
            + self.flip_rates.len()
            + self.decay.len()) as u64
    }

    /// Stamps the donating chip's full configuration; donations are
    /// only adopted wholesale by a chip with an identical one.
    pub(crate) fn stamp_donor(&mut self, config: ChipConfig) {
        self.donor = Some(config);
    }

    /// Whether this cache was donated by a chip configured exactly as
    /// `config` (same group, seed, geometry, and analog parameters).
    pub(crate) fn donor_is(&self, config: &ChipConfig) -> bool {
        self.donor.as_ref() == Some(config)
    }

    /// Drops every materialized buffer. Used when a donated cache
    /// crosses a boundary the seed key alone cannot express — a chip
    /// with a fault plan armed, whose stuck/weak-cell statics fold the
    /// plan into the materialized buffers.
    pub fn clear_buffers(&mut self) {
        self.cols.clear();
        self.weights.clear();
        self.rows.clear();
        self.sense_th.clear();
        self.flip_rates.clear();
        self.decay.clear();
    }

    /// Drops every stale buffer if `silicon` belongs to a different die
    /// than the cached one.
    fn sync_seed(&mut self, silicon: &Silicon) {
        let seed = silicon.sampler().seed();
        if seed != self.seed {
            self.adopt(seed);
        }
    }

    /// Builds (on miss) the sense offsets and polarities of one
    /// sub-array; the other [`ColStatics`] buffers stay empty until
    /// their own `ensure_*` runs.
    pub fn ensure_cols(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.cols.contains_key(&(bank, sub)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let mut offset = Vec::with_capacity(cols);
        let mut anti = Vec::with_capacity(cols);
        let sampler = silicon.col_sampler(bank, sub);
        for col in 0..cols {
            offset.push(sampler.sense_offset(col).value());
            anti.push(sampler.is_anti_column(col));
        }
        self.cols.insert(
            (bank, sub),
            Box::new(ColStatics {
                offset: offset.into(),
                temp_coeff: Box::default(),
                anti: anti.into(),
                halfm_asym: Box::default(),
            }),
        );
    }

    /// [`MaterializeCache::ensure_cols`], then fills (on first call) the
    /// sense-offset temperature coefficients of the sub-array.
    pub fn ensure_temp_coeffs(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.ensure_cols(silicon, perf, bank, sub, cols);
        let statics = self.cols.get_mut(&(bank, sub)).expect("cols just ensured");
        if statics.temp_coeff.is_empty() {
            let sampler = silicon.col_sampler(bank, sub);
            statics.temp_coeff = (0..cols).map(|col| sampler.sense_temp_coeff(col)).collect();
        }
    }

    /// [`MaterializeCache::ensure_cols`], then fills (on first call) the
    /// raw Half-m closure asymmetries of the sub-array.
    pub fn ensure_halfm(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.ensure_cols(silicon, perf, bank, sub, cols);
        let statics = self.cols.get_mut(&(bank, sub)).expect("cols just ensured");
        if statics.halfm_asym.is_empty() {
            let sampler = silicon.col_sampler(bank, sub);
            statics.halfm_asym = (0..cols)
                .map(|col| sampler.halfm_asymmetry(col).value())
                .collect();
        }
    }

    /// The per-column statics of a sub-array; call
    /// [`MaterializeCache::ensure_cols`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn cols(&self, bank: usize, sub: usize) -> &ColStatics {
        self.cols
            .get(&(bank, sub))
            .expect("ensure_cols before cols")
    }

    /// Builds (on miss) the share weights of one activation-role slot.
    pub fn ensure_weights(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        slot: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.weights.contains_key(&(bank, sub, slot)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let sampler = silicon.slot_sampler(bank, sub, slot);
        let w: Vec<f32> = (0..cols)
            .map(|col| sampler.share_weight(col) as f32)
            .collect();
        self.weights.insert((bank, sub, slot), w.into());
    }

    /// The share weights of one slot; call
    /// [`MaterializeCache::ensure_weights`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn weights(&self, bank: usize, sub: usize, slot: usize) -> &[f32] {
        self.weights
            .get(&(bank, sub, slot))
            .expect("ensure_weights before weights")
    }

    /// Builds (on miss) the capacitances, injection offsets and stuck
    /// cells of one row; `tau20` and `vrt` stay empty until
    /// [`MaterializeCache::ensure_leak_statics`] runs.
    pub fn ensure_row(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        row: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.rows.contains_key(&(bank, sub, row)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let mut cap = Vec::with_capacity(cols);
        let mut inject = Vec::with_capacity(cols);
        let mut stuck = Vec::new();
        let cells = silicon.row_sampler(bank, sub, row);
        for col in 0..cols {
            cap.push(cells.cell_capacitance(col).value() as f32);
            inject.push(cells.cell_inject(col).value());
            if let Some(rail) = cells.stuck_at(col) {
                stuck.push((col as u32) << 1 | rail as u32);
            }
        }
        self.rows.insert(
            (bank, sub, row),
            Box::new(RowStatics {
                cap: cap.into(),
                tau20: Box::default(),
                inject: inject.into(),
                vrt: Box::default(),
                stuck: stuck.into(),
            }),
        );
    }

    /// [`MaterializeCache::ensure_row`], then fills (on first call) the
    /// row's leakage taus at 20 °C and its VRT column list.
    pub fn ensure_leak_statics(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        row: usize,
        cols: usize,
    ) {
        self.ensure_row(silicon, perf, bank, sub, row, cols);
        let statics = self
            .rows
            .get_mut(&(bank, sub, row))
            .expect("row just ensured");
        if !statics.tau20.is_empty() {
            return;
        }
        let mut tau20 = Vec::with_capacity(cols);
        let mut vrt = Vec::new();
        let cells = silicon.row_sampler(bank, sub, row);
        for col in 0..cols {
            tau20.push(cells.leak_tau(col).value() as f32);
            if cells.is_vrt(col) {
                vrt.push(col as u32);
            }
        }
        statics.tau20 = tau20.into();
        statics.vrt = vrt.into();
    }

    /// The per-cell statics of a row; call
    /// [`MaterializeCache::ensure_row`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn row(&self, bank: usize, sub: usize, row: usize) -> &RowStatics {
        self.rows
            .get(&(bank, sub, row))
            .expect("ensure_row before row")
    }

    /// Builds (on miss or environment change) the final per-column sense
    /// comparison thresholds of one sub-array.
    ///
    /// The threshold folds the per-column offset, its temperature
    /// coefficient, the supply coupling, and the anti-cell mirror into
    /// one value, using exactly the expression (and evaluation order)
    /// the sense kernel used per column — so the cached value is
    /// bit-identical to computing it at sense time. The buffer is tagged
    /// with the `(temperature, vdd)` bits it was built under and rebuilt
    /// when either moves (environment-excursion windows), which costs no
    /// more than the per-event evaluation it replaces.
    pub fn ensure_sense_thresholds(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
        env: &Environment,
    ) {
        let temp_delta = env.temperature_c - 20.0;
        // At exactly 20 °C every `coeff * temp_delta` is ±0, which leaves
        // the non-zero `half + offset` bit-identical: the coefficients
        // are not needed, so they are not sampled.
        if temp_delta == 0.0 {
            self.ensure_cols(silicon, perf, bank, sub, cols);
        } else {
            self.ensure_temp_coeffs(silicon, perf, bank, sub, cols);
        }
        let temp_bits = env.temperature_c.to_bits();
        let vdd_bits = env.vdd.value().to_bits();
        if let Some(t) = self.sense_th.get(&(bank, sub)) {
            if t.temp_bits == temp_bits && t.vdd_bits == vdd_bits {
                perf.cache_hits += 1;
                return;
            }
        }
        perf.cache_misses += 1;
        let params = silicon.params();
        let statics = self.cols.get(&(bank, sub)).expect("cols just ensured");
        let vdd = env.vdd.value();
        let half = params.half_vdd(env.vdd).value();
        let vdd_shift = params.sense_vdd_coupling * (vdd - params.vdd_nominal.value());
        let mut th = Vec::with_capacity(cols);
        for col in 0..cols {
            let mut true_th = half + statics.offset[col];
            if temp_delta != 0.0 {
                true_th += statics.temp_coeff[col] * temp_delta;
            }
            true_th += vdd_shift;
            th.push(if statics.anti[col] {
                vdd - true_th
            } else {
                true_th
            });
        }
        self.sense_th.insert(
            (bank, sub),
            Box::new(SenseThresholds {
                temp_bits,
                vdd_bits,
                th: th.into(),
            }),
        );
    }

    /// The final sense thresholds of a sub-array; call
    /// [`MaterializeCache::ensure_sense_thresholds`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn sense_thresholds(&self, bank: usize, sub: usize) -> &[f64] {
        &self
            .sense_th
            .get(&(bank, sub))
            .expect("ensure_sense_thresholds before sense_thresholds")
            .th
    }

    /// Builds (on miss) the per-column sense-flip fault rates of one
    /// sub-array. Only meaningful while a fault plan with a positive
    /// flip rate is installed; fault-config changes rebuild the whole
    /// cache, so stale rates cannot survive a plan swap.
    pub fn ensure_flip_rates(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        cols: usize,
    ) {
        self.sync_seed(silicon);
        if self.flip_rates.contains_key(&(bank, sub)) {
            perf.cache_hits += 1;
            return;
        }
        perf.cache_misses += 1;
        let plan = silicon.faults().expect("flip rates need a fault plan");
        let rates: Vec<f64> = (0..cols)
            .map(|col| plan.sense_flip_rate(bank, sub, col))
            .collect();
        self.flip_rates.insert((bank, sub), rates.into());
    }

    /// The per-column sense-flip rates of a sub-array; call
    /// [`MaterializeCache::ensure_flip_rates`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn flip_rates(&self, bank: usize, sub: usize) -> &[f64] {
        self.flip_rates
            .get(&(bank, sub))
            .expect("ensure_flip_rates before flip_rates")
    }

    /// Builds (on miss) the decay-factor vector of one row for one
    /// `(dt, scale)` pair: `factor[col] = exp(-dt / (tau20[col] * scale))`,
    /// evaluated with the exact per-column argument expression the
    /// leakage kernel used inline — so `v * factor[col]` is bit-identical
    /// to the stepped form. Event cadences repeat the same `dt` across
    /// trials, which turns a row's whole leakage pass into one
    /// cached-vector multiply.
    #[allow(clippy::too_many_arguments)]
    pub fn ensure_decay_factors(
        &mut self,
        silicon: &Silicon,
        perf: &mut ModelPerf,
        bank: usize,
        sub: usize,
        row: usize,
        cols: usize,
        dt: f64,
        scale: f64,
    ) {
        self.ensure_leak_statics(silicon, perf, bank, sub, row, cols);
        let key = (bank, sub, row, dt.to_bits(), scale.to_bits());
        if self.decay.contains_key(&key) {
            perf.decay_vec_hits += 1;
            return;
        }
        if self.decay.len() >= DECAY_VEC_CAP {
            self.decay.clear();
        }
        let tau20 = &self
            .rows
            .get(&(bank, sub, row))
            .expect("row just ensured")
            .tau20;
        // Same argument shape as the stepped leakage kernel: the tau
        // product must stay in exactly this form — hoisting a reciprocal
        // changes the rounding and breaks stdout byte-identity.
        let factors: Box<[f64]> = tau20[..cols]
            .iter()
            .map(|&tau| (-dt / (tau as f64 * scale)).exp())
            .collect();
        perf.exp_batch_calls += 1;
        perf.exp_batch_lanes += cols as u64;
        self.decay.insert(key, factors);
    }

    /// The decay-factor vector of a row for one `(dt, scale)` pair; call
    /// [`MaterializeCache::ensure_decay_factors`] first.
    ///
    /// # Panics
    ///
    /// Panics when the buffer has not been ensured.
    pub fn decay_factors(
        &self,
        bank: usize,
        sub: usize,
        row: usize,
        dt: f64,
        scale: f64,
    ) -> &[f64] {
        self.decay
            .get(&(bank, sub, row, dt.to_bits(), scale.to_bits()))
            .expect("ensure_decay_factors before decay_factors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DeviceParams;
    use crate::vendor::GroupId;

    fn silicon(seed: u64) -> Silicon {
        Silicon::new(seed, DeviceParams::default(), GroupId::B.profile())
    }

    const COLS: usize = 128;

    #[test]
    fn same_seed_rebuilds_identical_buffers() {
        let s = silicon(42);
        let mut perf = ModelPerf::default();
        let mut a = MaterializeCache::new(42);
        let mut b = MaterializeCache::new(42);
        a.ensure_row(&s, &mut perf, 0, 1, 7, COLS);
        b.ensure_row(&s, &mut perf, 0, 1, 7, COLS);
        assert_eq!(a.row(0, 1, 7), b.row(0, 1, 7));
        a.ensure_cols(&s, &mut perf, 0, 1, COLS);
        b.ensure_cols(&s, &mut perf, 0, 1, COLS);
        assert_eq!(a.cols(0, 1), b.cols(0, 1));
        a.ensure_weights(&s, &mut perf, 0, 1, 2, COLS);
        b.ensure_weights(&s, &mut perf, 0, 1, 2, COLS);
        assert_eq!(a.weights(0, 1, 2), b.weights(0, 1, 2));
    }

    #[test]
    fn buffers_match_direct_silicon_calls() {
        let s = silicon(9);
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(9);
        cache.ensure_leak_statics(&s, &mut perf, 2, 0, 5, COLS);
        cache.ensure_halfm(&s, &mut perf, 2, 0, COLS);
        cache.ensure_temp_coeffs(&s, &mut perf, 2, 0, COLS);
        let row = cache.row(2, 0, 5);
        let cols = cache.cols(2, 0);
        for col in 0..COLS {
            assert_eq!(row.inject[col], s.cell_inject(2, 0, 5, col).value());
            assert_eq!(
                row.cap[col],
                s.cell_capacitance(2, 0, 5, col).value() as f32
            );
            assert_eq!(row.tau20[col], s.leak_tau(2, 0, 5, col).value() as f32);
            assert_eq!(cols.offset[col], s.sense_offset(2, 0, col).value());
            assert_eq!(cols.temp_coeff[col], s.sense_temp_coeff(2, 0, col));
            assert_eq!(cols.anti[col], s.is_anti_column(2, 0, col));
            assert_eq!(cols.halfm_asym[col], s.halfm_asymmetry(2, 0, col).value());
        }
        assert_eq!(
            row.vrt.iter().map(|&c| c as usize).collect::<Vec<_>>(),
            (0..COLS)
                .filter(|&c| s.is_vrt(2, 0, 5, c))
                .collect::<Vec<_>>()
        );
    }

    /// One kernel-level first touch of a sub-array's statics, as the
    /// event that performs it reaches the cache.
    #[derive(Debug, Clone, Copy)]
    enum Touch {
        /// `fire_share`: the open row and the multi-row weights.
        Share,
        /// `leak_row` over a charged row.
        Leak,
        /// A multi-row `fire_close`.
        Close,
        /// `fire_sense` at this temperature (°C).
        Threshold(f64),
        /// `refresh_row`.
        Refresh,
    }

    fn touch(cache: &mut MaterializeCache, s: &Silicon, at: (usize, usize, usize), step: Touch) {
        let (bank, sub, row) = at;
        let mut perf = ModelPerf::default();
        match step {
            Touch::Share => {
                cache.ensure_row(s, &mut perf, bank, sub, row, COLS);
                cache.ensure_weights(s, &mut perf, bank, sub, 1, COLS);
            }
            Touch::Leak => {
                cache.ensure_decay_factors(s, &mut perf, bank, sub, row, COLS, 3.2e-3, 1.0);
            }
            Touch::Close => cache.ensure_halfm(s, &mut perf, bank, sub, COLS),
            Touch::Threshold(temp) => {
                let env = Environment::nominal().with_temperature(temp);
                cache.ensure_sense_thresholds(s, &mut perf, bank, sub, COLS, &env);
                let th = cache.sense_thresholds(bank, sub);
                for (col, &got) in th.iter().enumerate() {
                    let mut want = crate::sense_amp::threshold(
                        s.params(),
                        &env,
                        s.sense_offset(bank, sub, col),
                        s.sense_temp_coeff(bank, sub, col),
                    );
                    if s.is_anti_column(bank, sub, col) {
                        want = crate::sense_amp::mirror_for_anti(want, &env);
                    }
                    assert_eq!(got.to_bits(), want.value().to_bits(), "{temp} °C col {col}");
                }
            }
            Touch::Refresh => {
                cache.ensure_temp_coeffs(s, &mut perf, bank, sub, COLS);
                cache.ensure_row(s, &mut perf, bank, sub, row, COLS);
            }
        }
    }

    #[test]
    fn lazy_buffers_are_touch_order_independent() {
        use crate::faults::{FaultConfig, FaultPlan};
        use Touch::*;
        let orders: [&[Touch]; 3] = [
            &[
                Share,
                Leak,
                Close,
                Threshold(20.0),
                Threshold(60.0),
                Threshold(20.0),
                Refresh,
            ],
            &[
                Leak,
                Share,
                Threshold(20.0),
                Threshold(60.0),
                Threshold(20.0),
                Close,
                Refresh,
            ],
            &[
                Refresh,
                Threshold(60.0),
                Close,
                Threshold(20.0),
                Leak,
                Share,
            ],
        ];
        let faulty = FaultConfig {
            stuck_density: 0.05,
            weak_density: 0.1,
            ..FaultConfig::none()
        };
        for seed in [9u64, 1, 0xFEED] {
            for group in [GroupId::B, GroupId::C, GroupId::D] {
                for faults in [None, Some(faulty)] {
                    let mut s = Silicon::new(seed, DeviceParams::default(), group.profile());
                    s.set_faults(faults.map(|cfg| FaultPlan::new(seed, cfg)));
                    for order in orders {
                        let mut cache = MaterializeCache::new(seed);
                        for at in [(2, 0, 5), (0, 1, 7)] {
                            for &step in order {
                                touch(&mut cache, &s, at, step);
                            }
                        }
                        for (bank, sub, r) in [(2, 0, 5), (0, 1, 7)] {
                            let row = cache.row(bank, sub, r);
                            let cols = cache.cols(bank, sub);
                            let weights = cache.weights(bank, sub, 1);
                            #[allow(clippy::needless_range_loop)]
                            for col in 0..COLS {
                                let cap = s.cell_capacitance(bank, sub, r, col).value() as f32;
                                let tau = s.leak_tau(bank, sub, r, col).value() as f32;
                                let inject = s.cell_inject(bank, sub, r, col).value();
                                let offset = s.sense_offset(bank, sub, col).value();
                                let coeff = s.sense_temp_coeff(bank, sub, col);
                                let halfm = s.halfm_asymmetry(bank, sub, col).value();
                                let weight = s.share_weight(bank, sub, 1, col) as f32;
                                assert_eq!(row.cap[col].to_bits(), cap.to_bits());
                                assert_eq!(row.tau20[col].to_bits(), tau.to_bits());
                                assert_eq!(row.inject[col].to_bits(), inject.to_bits());
                                assert_eq!(cols.offset[col].to_bits(), offset.to_bits());
                                assert_eq!(cols.temp_coeff[col].to_bits(), coeff.to_bits());
                                assert_eq!(cols.halfm_asym[col].to_bits(), halfm.to_bits());
                                assert_eq!(cols.anti[col], s.is_anti_column(bank, sub, col));
                                assert_eq!(weights[col].to_bits(), weight.to_bits());
                            }
                            let vrt: Vec<u32> = (0..COLS)
                                .filter(|&c| s.is_vrt(bank, sub, r, c))
                                .map(|c| c as u32)
                                .collect();
                            let stuck: Vec<u32> = (0..COLS)
                                .filter_map(|c| {
                                    s.stuck_at(bank, sub, r, c)
                                        .map(|rail| (c as u32) << 1 | rail as u32)
                                })
                                .collect();
                            assert_eq!(row.vrt.as_ref(), vrt.as_slice());
                            assert_eq!(row.stuck.as_ref(), stuck.as_slice());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frac_puf_evaluation_leaves_halfm_and_tau_unbuilt() {
        use crate::chip::Chip;
        use crate::geometry::{Geometry, RowAddr};
        let geometry = Geometry::tiny();
        for seed in [3u64, 11] {
            let mut chip = Chip::new(ChipConfig::new(GroupId::B, seed, geometry));
            // One challenge of the Frac-PUF (§VI-B): physical ones, ten
            // Frac operations, a sensed read-out.
            let addr = RowAddr::new(1, 33);
            let (sub, local) = geometry.split_row(addr.row);
            let ones: Vec<bool> = chip.anti_columns(1, sub).iter().map(|&a| !a).collect();
            // The challenge is evaluated twice, the second time after a
            // 0.1 s idle gap: the write's ACT would leak the charged row
            // over that gap, but the full-row write supersedes its share.
            let mut t = 1_000;
            for _ in 0..2 {
                chip.activate(addr, t).unwrap();
                chip.write(1, 0, &ones, t + 10).unwrap();
                chip.precharge(1, t + 20).unwrap();
                t += 30;
                for _ in 0..10 {
                    chip.activate(addr, t).unwrap();
                    chip.precharge(1, t + 1).unwrap();
                    t += 7;
                }
                chip.activate(addr, t).unwrap();
                let response = chip.read(1, t + 10).unwrap();
                chip.precharge(1, t + 20).unwrap();
                assert_eq!(response.len(), geometry.columns);
                t += 40_000_000;
            }
            let perf = chip.model_perf();
            assert_eq!(perf.superseded_activations, 2);
            assert_eq!(
                (perf.exp_batch_lanes, perf.exp_calls),
                (0, 0),
                "leakage ran"
            );

            let cache = chip.take_cache();
            let row = cache.row(1, sub, local);
            let cols = cache.cols(1, sub);
            assert!(!row.cap.is_empty() && !cols.offset.is_empty());
            assert!(row.tau20.is_empty() && row.vrt.is_empty(), "tau built");
            assert!(cols.halfm_asym.is_empty(), "Half-m asymmetry built");
            assert!(cols.temp_coeff.is_empty(), "temperature coefficients built");
        }
    }

    #[test]
    fn different_seeds_produce_different_buffers() {
        let mut perf = ModelPerf::default();
        let mut a = MaterializeCache::new(1);
        let mut b = MaterializeCache::new(2);
        a.ensure_leak_statics(&silicon(1), &mut perf, 0, 0, 0, COLS);
        b.ensure_leak_statics(&silicon(2), &mut perf, 0, 0, 0, COLS);
        assert_ne!(a.row(0, 0, 0).inject, b.row(0, 0, 0).inject);
        assert_ne!(a.row(0, 0, 0).tau20, b.row(0, 0, 0).tau20);
    }

    #[test]
    fn hit_and_miss_counters_increment() {
        let s = silicon(7);
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(7);
        cache.ensure_row(&s, &mut perf, 0, 0, 3, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (1, 0));
        cache.ensure_row(&s, &mut perf, 0, 0, 3, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (1, 1));
        cache.ensure_row(&s, &mut perf, 0, 0, 4, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (2, 1));
        cache.ensure_cols(&s, &mut perf, 0, 0, COLS);
        cache.ensure_cols(&s, &mut perf, 0, 0, COLS);
        assert_eq!((perf.cache_misses, perf.cache_hits), (3, 2));
    }

    #[test]
    fn stuck_list_matches_fault_plan() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mut s = silicon(31);
        let plan = FaultPlan::new(
            31,
            FaultConfig {
                stuck_density: 0.1,
                ..FaultConfig::none()
            },
        );
        s.set_faults(Some(plan.clone()));
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(31);
        cache.ensure_row(&s, &mut perf, 0, 0, 2, COLS);
        let row = cache.row(0, 0, 2);
        let expected: Vec<u32> = (0..COLS)
            .filter_map(|c| {
                plan.stuck_at(0, 0, 2, c)
                    .map(|rail| (c as u32) << 1 | rail as u32)
            })
            .collect();
        assert!(!expected.is_empty(), "no stuck cell at density 0.1");
        assert_eq!(row.stuck.as_ref(), expected.as_slice());
    }

    #[test]
    fn fault_free_rows_have_empty_stuck_list() {
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(7);
        cache.ensure_row(&silicon(7), &mut perf, 0, 0, 3, COLS);
        assert!(cache.row(0, 0, 3).stuck.is_empty());
    }

    #[test]
    fn seed_mismatch_drops_stale_buffers() {
        let mut perf = ModelPerf::default();
        let mut cache = MaterializeCache::new(1);
        cache.ensure_row(&silicon(1), &mut perf, 0, 0, 0, COLS);
        let old = cache.row(0, 0, 0).clone();
        // A different die asks the same cache: stale buffers must go.
        cache.ensure_row(&silicon(2), &mut perf, 0, 0, 0, COLS);
        assert_eq!(cache.seed(), 2);
        assert_ne!(*cache.row(0, 0, 0), old);
        assert_eq!(perf.cache_misses, 2);
    }
}
