//! Deterministic process-variation sampling and temporal noise.
//!
//! Every *static* physical parameter of the simulated silicon (a cell's
//! capacitance, leakage time constant, a column's sense-amplifier offset,
//! a row's charge-sharing weight, ...) is a pure function of its
//! coordinates: it is obtained by hashing
//! `(chip seed, parameter id, coordinates...)` through SplitMix64 and
//! shaping the resulting uniform bits into the desired distribution.
//!
//! This gives the model three properties the paper's experiments rely on:
//!
//! 1. **Reproducibility** — re-creating a chip from the same seed yields an
//!    identical piece of "silicon"; a PUF response is stable across reads.
//! 2. **Uniqueness** — chips built from different seeds differ in every
//!    parameter, exactly like manufacturing variation (Fig. 11 inter-HD).
//! 3. **Zero storage** — no per-cell parameter tables; a 65536-column row
//!    costs nothing until touched.
//!
//! *Temporal* noise (thermal noise on a bit-line, sense-amp sampling
//! noise) must differ between repeated evaluations of the same cell, but
//! it is **not** drawn from a stateful stream: every draw of the
//! [`NoiseEngine`] is a pure function of
//! `(die seed, purpose, event fire time, coordinates, column)`. The
//! absolute cycle timestamp of the internal event is the draw's
//! "counter" — the clock only moves forward, so repeated evaluations of
//! the same cell see fresh noise, while replaying the same command
//! sequence from the same clock reproduces it bit-exactly. Because draw
//! values never depend on draw *order*, snapshot restore is exact with
//! zero stream bookkeeping and chips can be simulated in parallel.

/// SplitMix64 finalizer; a strong 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starting accumulator of [`hash_coords`].
const HASH_INIT: u64 = 0x51C6_4372_11E5_BEEF;

/// Folds `words` into a running [`hash_coords`] accumulator, one
/// SplitMix round per word. The fold is sequential, so the accumulator
/// after a shared prefix can be kept and extended word by word.
#[inline]
fn fold(mut acc: u64, words: &[u64]) -> u64 {
    for &w in words {
        acc = splitmix64(acc ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    acc
}

/// Hashes a slice of coordinate words into a single well-mixed 64-bit value.
pub fn hash_coords(words: &[u64]) -> u64 {
    splitmix64(fold(HASH_INIT, words))
}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)`.
#[inline]
fn to_unit_f64(bits: u64) -> f64 {
    // Use the top 53 bits for a uniformly distributed mantissa.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Shapes 64 random bits into a standard normal: Box–Muller on the bits
/// and a SplitMix re-mix of them.
#[inline]
fn box_muller(bits: u64) -> f64 {
    let u1 = to_unit_f64(bits).max(1e-300);
    let u2 = to_unit_f64(splitmix64(bits ^ 0xA5A5_A5A5_5A5A_5A5A));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Identifiers for the distinct static parameters sampled per coordinate.
///
/// Using an explicit id (rather than ad-hoc salt constants scattered around
/// the codebase) guarantees two different parameters of the same cell never
/// collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum ParamId {
    /// Cell capacitance variation.
    CellCapacitance = 1,
    /// Cell leakage time constant.
    LeakageTau = 2,
    /// Whether the cell exhibits variable retention time (VRT).
    VrtFlag = 3,
    /// Secondary leakage time constant used by VRT cells.
    VrtAltTau = 4,
    /// Sense-amplifier input-referred offset of a column.
    SenseOffset = 5,
    /// Temperature coefficient of a column's sense offset.
    SenseTempCoeff = 6,
    /// Charge-sharing weight of a row slot during multi-row activation.
    RowShareWeight = 7,
    /// Whether a given (R1, R2) address pair triggers the decoder glitch.
    GlitchPairGate = 8,
    /// Cell polarity (true-cell vs anti-cell) region selector.
    Polarity = 9,
    /// Phase selector for VRT cells (which tau is active in an epoch).
    VrtPhase = 10,
    /// Residual per-cell asymmetry of the Half-m fractional value.
    HalfmAsymmetry = 11,
    /// Per-cell charge-injection offset during sharing.
    CellInject = 12,
    /// Whether a cell is stuck-at (fault injection).
    FaultStuckCell = 13,
    /// The rail a stuck-at cell is pinned to.
    FaultStuckValue = 14,
    /// Whether a cell is weak (reduced capacitance, fast leakage).
    FaultWeakCell = 15,
    /// Per-column multiplier on the transient sense-amp flip rate.
    FaultSenseFlip = 16,
    /// Whether a decoder-glitch implicit row drops out of activation.
    FaultDecoderDrop = 17,
    /// Placement and polarity of mid-run environment excursions.
    FaultExcursion = 18,
}

/// Deterministic sampler for static (manufacturing-time) parameters.
///
/// A `VariationSampler` is cheap to copy; it only holds the chip seed.
///
/// # Examples
///
/// ```
/// use fracdram_model::variation::{ParamId, VariationSampler};
///
/// let a = VariationSampler::new(1);
/// let b = VariationSampler::new(2);
/// // Same chip, same coordinates: identical silicon.
/// assert_eq!(
///     a.normal(ParamId::SenseOffset, &[0, 3, 17], 0.0, 1.0),
///     a.normal(ParamId::SenseOffset, &[0, 3, 17], 0.0, 1.0),
/// );
/// // Different chips differ.
/// assert_ne!(
///     a.normal(ParamId::SenseOffset, &[0, 3, 17], 0.0, 1.0),
///     b.normal(ParamId::SenseOffset, &[0, 3, 17], 0.0, 1.0),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariationSampler {
    seed: u64,
}

impl VariationSampler {
    /// Creates a sampler for the chip identified by `seed`.
    pub fn new(seed: u64) -> Self {
        VariationSampler { seed }
    }

    /// The chip seed this sampler was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Anchors `param` along its last coordinate: `prefix` (every
    /// coordinate but the last) is folded into the hash once, and each
    /// lane of the returned [`ParamLanes`] costs one more round. Lane `l`
    /// draws exactly what the methods below draw at `[prefix.., l]`;
    /// this is how whole rows and columns of statics are sampled.
    pub fn lanes(&self, param: ParamId, prefix: &[u64]) -> ParamLanes {
        ParamLanes {
            acc: fold(fold(HASH_INIT, &[self.seed, param as u64]), prefix),
        }
    }

    /// Raw 64 mixed bits for a parameter at some coordinates: the
    /// [`hash_coords`] of `[seed, param, coords..]`, folded without
    /// building the word list.
    pub fn bits(&self, param: ParamId, coords: &[u64]) -> u64 {
        splitmix64(self.lanes(param, coords).acc)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&self, param: ParamId, coords: &[u64]) -> f64 {
        to_unit_f64(self.bits(param, coords))
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn bernoulli(&self, param: ParamId, coords: &[u64], p: f64) -> bool {
        self.uniform(param, coords) < p
    }

    /// Standard normal sample (Box–Muller on two derived uniforms).
    pub fn standard_normal(&self, param: ParamId, coords: &[u64]) -> f64 {
        box_muller(self.bits(param, coords))
    }

    /// Normal sample with mean `mu` and standard deviation `sigma`.
    pub fn normal(&self, param: ParamId, coords: &[u64], mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.standard_normal(param, coords)
    }

    /// Log-normal sample parameterized by its median and the standard
    /// deviation of the underlying normal (`sigma_ln`).
    pub fn lognormal(&self, param: ParamId, coords: &[u64], median: f64, sigma_ln: f64) -> f64 {
        median * (sigma_ln * self.standard_normal(param, coords)).exp()
    }
}

/// One static parameter with every coordinate but the last already
/// hashed ([`VariationSampler::lanes`]): each lane, usually a column,
/// finishes the fold with one SplitMix round and the final mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamLanes {
    acc: u64,
}

impl ParamLanes {
    /// Raw 64 mixed bits of `lane`.
    #[inline]
    pub fn bits(&self, lane: u64) -> u64 {
        splitmix64(fold(self.acc, &[lane]))
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&self, lane: u64) -> f64 {
        to_unit_f64(self.bits(lane))
    }

    /// Bernoulli sample with probability `p` of `true`.
    #[inline]
    pub fn bernoulli(&self, lane: u64, p: f64) -> bool {
        self.uniform(lane) < p
    }

    /// Normal sample with mean `mu` and standard deviation `sigma`.
    #[inline]
    pub fn normal(&self, lane: u64, mu: f64, sigma: f64) -> f64 {
        mu + sigma * box_muller(self.bits(lane))
    }

    /// Log-normal sample parameterized by its median and the standard
    /// deviation of the underlying normal (`sigma_ln`).
    #[inline]
    pub fn lognormal(&self, lane: u64, median: f64, sigma_ln: f64) -> f64 {
        median * (sigma_ln * box_muller(self.bits(lane))).exp()
    }
}

/// The distinct temporal-noise draw purposes.
///
/// Part of every noise key, so two different draws made for the same
/// event (say the sense normal and the fault-flip uniform of the same
/// column) can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum NoisePurpose {
    /// Bit-line equalization noise during charge sharing.
    ShareEq = 1,
    /// Per-slot decoder-timing jitter on multi-row share weights.
    ShareWeight = 2,
    /// Sense-amplifier sampling noise at sense enable.
    Sense = 3,
    /// Transient sense-amp fault-flip uniform at sense enable.
    SenseFlip = 4,
    /// Sense-amplifier sampling noise during an internal refresh.
    Refresh = 5,
    /// Transient sense-amp fault-flip uniform during a refresh.
    RefreshFlip = 6,
}

/// Stateless counter-keyed temporal-noise source.
///
/// Each draw is a pure function of
/// `(die seed, purpose, event fire time, coordinates, lane)` hashed
/// through SplitMix64 and shaped by the ziggurat normal sampler — no
/// sequential state, no draw-order dependence. The event's absolute
/// cycle timestamp acts as the counter: the simulated clock is strictly
/// monotone across commands, so re-evaluating the same cell later sees
/// fresh noise, while replaying identical commands from an identical
/// clock reproduces identical noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseEngine {
    seed: u64,
}

impl NoiseEngine {
    /// Creates a noise source; `seed` is mixed so that low-entropy seeds
    /// (0, 1, 2...) still produce well-distributed streams.
    pub fn new(seed: u64) -> Self {
        NoiseEngine {
            seed: splitmix64(seed ^ 0xDEAD_BEEF_CAFE_F00D),
        }
    }

    /// Anchors a per-event noise stream. `coords` identify the physical
    /// location (bank, sub-array, and row where several same-purpose
    /// events can share a fire time, as refresh does).
    ///
    /// The key folding replicates [`hash_coords`] over
    /// `[seed, purpose, t, coords...]` without building a slice.
    #[inline]
    pub fn event(&self, purpose: NoisePurpose, t: u64, coords: &[u64]) -> NoiseEvent {
        let acc = fold(HASH_INIT, &[self.seed, purpose as u64, t]);
        NoiseEvent {
            base: splitmix64(fold(acc, coords)),
        }
    }
}

/// One internal event's anchored noise stream: a cheap `Copy` key from
/// which any lane (usually a column) derives its draw independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseEvent {
    base: u64,
}

impl NoiseEvent {
    /// First keyed word of `lane`'s stream.
    #[inline]
    fn word0(&self, lane: u64) -> u64 {
        fracdram_stats::ziggurat::keyed_word0(self.base, lane)
    }

    /// Standard normal draw for `lane` (ziggurat; extra words for the
    /// rare wedge/tail path are derived from the first, counter-style).
    #[inline]
    pub fn standard_normal(&self, lane: u64) -> f64 {
        fracdram_stats::ziggurat::keyed_normal(self.base, lane)
    }

    /// Normal draw for `lane` with mean `mu` and standard deviation
    /// `sigma`. A `sigma` of zero short-circuits to `mu`; noise-free
    /// configurations remain fully deterministic.
    #[inline]
    pub fn normal(&self, lane: u64, mu: f64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return mu;
        }
        mu + sigma * self.standard_normal(lane)
    }

    /// Uniform draw in `[0, 1)` for `lane`.
    #[inline]
    pub fn uniform(&self, lane: u64) -> f64 {
        to_unit_f64(self.word0(lane))
    }

    /// Batch pass: fills `out[lane]` with `sigma`-scaled zero-mean
    /// normals for every lane, returning the number of draws made (zero
    /// when `sigma == 0`, which fills zeros).
    ///
    /// Delegates to the chunked batch kernel in `fracdram-stats`, handing
    /// it the same word derivation [`NoiseEvent::standard_normal`] uses —
    /// the filled values are bit-identical to the per-lane form, just
    /// evaluated in slice passes the optimizer can pipeline.
    pub fn fill_normal(&self, sigma: f64, out: &mut [f64]) -> u64 {
        if sigma == 0.0 {
            out.fill(0.0);
            return 0;
        }
        fracdram_stats::ziggurat::ziggurat_normal_fill_keyed(out, sigma, self.base);
        out.len() as u64
    }

    /// Batch pass: fills `out[lane]` with every lane's uniform `[0, 1)`
    /// draw, returning the number of draws made — bit-identical to
    /// calling [`NoiseEvent::uniform`] per lane. This is the shape of
    /// per-column fault checks (one uniform per column per event).
    pub fn fill_uniform(&self, out: &mut [f64]) -> u64 {
        fracdram_stats::ziggurat::keyed_unit_fill(out, self.base);
        out.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_mixes_neighboring_inputs() {
        // Avalanche sanity check: consecutive inputs produce outputs that
        // differ in roughly half of their 64 bits.
        for i in 0..64u64 {
            let d = (splitmix64(i) ^ splitmix64(i + 1)).count_ones();
            assert!((16..=48).contains(&d), "poor mixing at {i}: {d} bits");
        }
    }

    #[test]
    fn hash_coords_varies_with_every_word() {
        let base = hash_coords(&[1, 2, 3]);
        assert_ne!(base, hash_coords(&[1, 2, 4]));
        assert_ne!(base, hash_coords(&[1, 3, 3]));
        assert_ne!(base, hash_coords(&[2, 2, 3]));
        assert_ne!(base, hash_coords(&[1, 2]));
        assert_ne!(base, hash_coords(&[1, 2, 3, 0]));
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let s = VariationSampler::new(42);
        let v1 = s.lognormal(ParamId::LeakageTau, &[0, 1, 2, 3], 10.0, 1.5);
        let v2 = s.lognormal(ParamId::LeakageTau, &[0, 1, 2, 3], 10.0, 1.5);
        assert_eq!(v1, v2);
        assert!(v1 > 0.0);
    }

    #[test]
    fn lanes_reproduce_the_full_coordinate_hash() {
        // Hoisting the prefix must not move a single bit: every lane
        // ends on the hash of the whole `[seed, param, coords..]` list.
        let s = VariationSampler::new(0xC0FFEE);
        let param = ParamId::CellInject;
        let prefixes: [&[u64]; 3] = [&[], &[3], &[1, 2, 7]];
        for prefix in prefixes {
            let lanes = s.lanes(param, prefix);
            for lane in [0u64, 1, 63, 8191] {
                let coords = [prefix, &[lane]].concat();
                let words = [&[0xC0FFEE, param as u64][..], &coords].concat();
                assert_eq!(lanes.bits(lane), hash_coords(&words));
                assert_eq!(s.bits(param, &coords), hash_coords(&words));
                assert_eq!(lanes.bernoulli(lane, 0.3), s.bernoulli(param, &coords, 0.3));
                assert_eq!(
                    lanes.normal(lane, 0.5, 2.0).to_bits(),
                    s.normal(param, &coords, 0.5, 2.0).to_bits()
                );
                assert_eq!(
                    lanes.lognormal(lane, 20.0, 1.8).to_bits(),
                    s.lognormal(param, &coords, 20.0, 1.8).to_bits()
                );
            }
        }
    }

    #[test]
    fn params_do_not_collide() {
        let s = VariationSampler::new(7);
        let a = s.uniform(ParamId::CellCapacitance, &[5, 5]);
        let b = s.uniform(ParamId::LeakageTau, &[5, 5]);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let s = VariationSampler::new(99);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|i| s.uniform(ParamId::SenseOffset, &[i]))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let s = VariationSampler::new(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|i| s.standard_normal(ParamId::SenseOffset, &[i]))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn lognormal_median_is_respected() {
        let s = VariationSampler::new(5);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n)
            .map(|i| s.lognormal(ParamId::LeakageTau, &[i], 20.0, 1.8))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n as usize / 2];
        assert!(
            (median / 20.0).ln().abs() < 0.1,
            "median = {median}, expected ~20"
        );
    }

    #[test]
    fn bernoulli_probability() {
        let s = VariationSampler::new(77);
        let n = 50_000;
        let hits = (0..n)
            .filter(|&i| s.bernoulli(ParamId::VrtFlag, &[i], 0.3))
            .count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn noise_fresh_across_event_times() {
        let engine = NoiseEngine::new(3);
        let a = engine.event(NoisePurpose::Sense, 100, &[0, 0]).uniform(0);
        let b = engine.event(NoisePurpose::Sense, 101, &[0, 0]).uniform(0);
        assert_ne!(a, b, "the event clock is the freshness counter");
    }

    #[test]
    fn noise_is_a_pure_function_of_its_key() {
        let a = NoiseEngine::new(11);
        let b = NoiseEngine::new(11);
        for t in 0..100 {
            let ea = a.event(NoisePurpose::ShareEq, t, &[1, 2]);
            let eb = b.event(NoisePurpose::ShareEq, t, &[1, 2]);
            for lane in 0..4 {
                assert_eq!(
                    ea.standard_normal(lane).to_bits(),
                    eb.standard_normal(lane).to_bits()
                );
            }
        }
        // Every key component matters.
        let base = a.event(NoisePurpose::Sense, 5, &[1, 2]).uniform(0);
        assert_ne!(
            base,
            a.event(NoisePurpose::SenseFlip, 5, &[1, 2]).uniform(0)
        );
        assert_ne!(base, a.event(NoisePurpose::Sense, 6, &[1, 2]).uniform(0));
        assert_ne!(base, a.event(NoisePurpose::Sense, 5, &[1, 3]).uniform(0));
        assert_ne!(base, a.event(NoisePurpose::Sense, 5, &[1, 2]).uniform(1));
        assert_ne!(
            base,
            NoiseEngine::new(12)
                .event(NoisePurpose::Sense, 5, &[1, 2])
                .uniform(0)
        );
    }

    #[test]
    fn noise_normal_zero_sigma_is_exact() {
        let event = NoiseEngine::new(1).event(NoisePurpose::Sense, 7, &[0]);
        assert_eq!(event.normal(0, 0.75, 0.0), 0.75);
    }

    #[test]
    fn noise_fill_matches_lane_draws_and_counts() {
        let event = NoiseEngine::new(9).event(NoisePurpose::ShareEq, 42, &[0, 1]);
        let mut buf = vec![0.0; 33];
        assert_eq!(event.fill_normal(0.5, &mut buf), 33);
        for (lane, &v) in buf.iter().enumerate() {
            assert_eq!(v.to_bits(), event.normal(lane as u64, 0.0, 0.5).to_bits());
        }
        // Zero sigma fills zeros and draws nothing.
        assert_eq!(event.fill_normal(0.0, &mut buf), 0);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn noise_normal_moments() {
        let engine = NoiseEngine::new(2024);
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n)
            .map(|t| {
                engine
                    .event(NoisePurpose::Sense, t, &[0])
                    .normal(0, 1.0, 0.5)
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean = {mean}");
        assert!((var - 0.25).abs() < 0.02, "var = {var}");
    }
}
