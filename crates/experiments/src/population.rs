//! Population-scale streaming study: per-die fingerprint extraction,
//! online accumulators, Frac-PUF uniqueness, and a vendor/origin
//! classifier.
//!
//! Every die is one tiny simulated module ([`fracdram_model::Geometry::tiny`])
//! whose seed derives from its global index ([`crate::fleet::item_seed`]).
//! [`simulate_die`] extracts a 48-byte fingerprint record:
//!
//! - two bank-disjoint Frac-PUF challenges (one 64-bit response each →
//!   a 128-bit fingerprint) on frac-capable groups A–I;
//! - two full-`Vdd` retention probes (fail fraction after 4 h and 12 h,
//!   where the per-group `leak_tau_scale` makes the decay curve a
//!   vendor tell);
//! - four f32 features: PUF Hamming weight, cross-challenge HD, and the
//!   two retention fail fractions.
//!
//! Timing-guarded groups J–L reject fractional commands, so their
//! records carry the two retention read-outs as the fingerprint with
//! [`crate::store::FLAG_PUF_VALID`] cleared — they still classify, but
//! are excluded from PUF uniqueness statistics.
//!
//! The streaming accumulator ([`PopAccum`]) is O(1) in the die count:
//! per-group Welford moments, one fixed-bin histogram, a seed-keyed
//! reservoir of fingerprints, and integer counters. Chunk accumulators
//! merge in ascending chunk order (see [`crate::fleet::run_stream`]),
//! so every aggregate is byte-identical at any `--jobs N`.

use fracdram::puf::{evaluate_set, Challenge};
use fracdram_model::{GroupId, ModelPerf, RowAddr, Seconds};
use fracdram_softmc::{CycleStats, RunMetrics};
use fracdram_stats::bits::BitVec;
use fracdram_stats::rng::mix;
use fracdram_stats::stream::{FixedHistogram, Moments, Reservoir};

use crate::store::{DieRecord, FLAG_PUF_VALID};

/// Number of vendor groups (A–L).
pub const GROUPS: usize = 12;

/// Feature vector labels, in record order.
pub const FEATURES: [&str; 4] = ["puf-hw", "cross-hd", "fail@4h", "fail@12h"];

/// Fingerprint width in bits.
pub const FINGERPRINT_BITS: u32 = 128;

/// The group a die index is simulated as: round-robin over A–L, so
/// every chunk holds every group and per-group counts differ by at
/// most one across the population.
pub fn group_of(index: u64) -> GroupId {
    GroupId::ALL[(index % GROUPS as u64) as usize]
}

/// Deterministic train/test split for the classifier: a pure function
/// of `(base_seed, index)`, independent of chunking and job count.
/// Roughly half the dies train the centroids; the rest are scored.
pub fn is_train(base_seed: u64, index: u64) -> bool {
    mix(base_seed, &[0x7261_494E, index]) & 1 == 0
}

fn pack_bitvec(bits: &BitVec, out: &mut [u8]) {
    for (i, bit) in bits.iter().enumerate().take(out.len() * 8) {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

fn pack_bools(bits: &[bool], out: &mut [u8]) {
    for (i, &bit) in bits.iter().enumerate().take(out.len() * 8) {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

fn mismatch_fraction(read: &[bool], wrote: &[bool]) -> f32 {
    let fails = read.iter().zip(wrote).filter(|(r, w)| r != w).count();
    fails as f32 / wrote.len().max(1) as f32
}

/// Normalized Hamming distance between two 128-bit fingerprints.
pub fn fingerprint_hd(a: &[u8; 16], b: &[u8; 16]) -> f64 {
    let differing: u32 = a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum();
    f64::from(differing) / f64::from(FINGERPRINT_BITS)
}

/// Simulates one die and extracts its fingerprint record.
///
/// The die body rides the fleet fast paths: the controller adopts any
/// pooled [`fracdram_model::MaterializeCache`] buffers, the PUF pair
/// runs as one program per challenge ([`evaluate_set`]), and the two
/// retention waits are closed-form leakage evaluations, not stepped
/// time.
///
/// # Panics
///
/// Panics on controller errors (surfaces as a chunk failure in the
/// stream).
pub fn simulate_die(group: GroupId, die_seed: u64) -> (DieRecord, RunMetrics) {
    let geometry = fracdram_model::Geometry::tiny();
    let mut mc = crate::setup::controller(group, geometry, die_seed);
    let mut features = [0f32; 4];
    let mut fingerprint = [0u8; 16];
    let mut flags = 0u8;

    if group.profile().supports_frac() {
        // Two challenges on different banks: the two 64-bit responses
        // concatenate into the 128-bit fingerprint.
        let challenges = [Challenge::new(0, 10), Challenge::new(1, 33)];
        let responses = evaluate_set(&mut mc, &challenges).expect("frac-capable PUF");
        pack_bitvec(&responses[0], &mut fingerprint[0..8]);
        pack_bitvec(&responses[1], &mut fingerprint[8..16]);
        features[0] =
            ((responses[0].hamming_weight() + responses[1].hamming_weight()) / 2.0) as f32;
        features[1] =
            fracdram_stats::hamming::normalized_distance(&responses[0], &responses[1]) as f32;
        flags = FLAG_PUF_VALID;
    }

    // Retention probes: full Vdd, closed-form decay, read-out. The 4 h /
    // 12 h delays straddle the per-group tau medians, so the fail
    // fractions spread the groups apart.
    let row = RowAddr::new(0, 50);
    let pattern = fracdram::frac::physical_pattern(&mut mc, row, true);
    mc.write_row(row, &pattern).expect("retention write");
    mc.wait_seconds(Seconds::from_hours(4.0));
    let read4 = mc.read_row(row).expect("retention read @4h");
    features[2] = mismatch_fraction(&read4, &pattern);
    mc.write_row(row, &pattern).expect("retention rewrite");
    mc.wait_seconds(Seconds::from_hours(12.0));
    let read12 = mc.read_row(row).expect("retention read @12h");
    features[3] = mismatch_fraction(&read12, &pattern);

    if flags & FLAG_PUF_VALID == 0 {
        // Guarded groups: the two retention read-outs are still a
        // die-specific pattern, so store them as the fingerprint.
        pack_bools(&read4, &mut fingerprint[0..8]);
        pack_bools(&read12, &mut fingerprint[8..16]);
    }

    let metrics = mc.metrics();
    crate::setup::reclaim_caches(&mut mc);
    (
        DieRecord {
            seed: die_seed,
            group,
            flags,
            features,
            fingerprint,
        },
        metrics,
    )
}

/// Per-group streaming state: die count and per-feature moments, plus
/// the train-split moments the classifier centroids come from.
#[derive(Debug, Clone)]
pub struct GroupAccum {
    /// Dies of this group seen so far.
    pub count: u64,
    /// Moments of each feature over all dies of the group.
    pub features: [Moments; 4],
    /// Moments of each feature over the train split only.
    pub train: [Moments; 4],
}

impl GroupAccum {
    fn new() -> Self {
        GroupAccum {
            count: 0,
            features: [Moments::new(); 4],
            train: [Moments::new(); 4],
        }
    }

    fn merge(&mut self, other: &GroupAccum) {
        self.count += other.count;
        for i in 0..4 {
            self.features[i].merge(&other.features[i]);
            self.train[i].merge(&other.train[i]);
        }
    }
}

/// The streaming population accumulator — everything the aggregate
/// report needs, in O(1) memory: no per-die state except the bounded
/// `records` buffer the reducer drains into the store after every
/// chunk merge.
#[derive(Debug, Clone)]
pub struct PopAccum {
    /// Dies folded so far.
    pub dies: u64,
    /// Dies with a valid Frac-PUF fingerprint.
    pub puf_valid: u64,
    /// Train-split dies.
    pub train_dies: u64,
    /// Per-group accumulators, indexed like [`GroupId::ALL`].
    pub groups: Vec<GroupAccum>,
    /// Global per-feature moments (the classifier's z-scale).
    pub global: [Moments; 4],
    /// Histogram of PUF Hamming weight over frac-capable dies.
    pub hw_hist: FixedHistogram,
    /// Seed-keyed reservoir of PUF fingerprints (frac-capable dies).
    pub reservoir: Reservoir<[u8; 16]>,
    /// Aggregated controller command counters.
    pub stats: CycleStats,
    /// Aggregated kernel performance counters.
    pub perf: ModelPerf,
    /// Records pending a store write — filled by the chunk fold,
    /// drained (in chunk order) by the reducer. Never grows past one
    /// chunk per pending accumulator.
    pub records: Vec<DieRecord>,
}

impl PopAccum {
    /// An empty accumulator for a run with the given base seed and
    /// reservoir capacity.
    pub fn new(base_seed: u64, sample: usize) -> Self {
        PopAccum {
            dies: 0,
            puf_valid: 0,
            train_dies: 0,
            groups: (0..GROUPS).map(|_| GroupAccum::new()).collect(),
            global: [Moments::new(); 4],
            hw_hist: FixedHistogram::new(0.0, 1.0, 20),
            reservoir: Reservoir::new(base_seed, sample),
            stats: CycleStats::default(),
            perf: ModelPerf::default(),
            records: Vec::new(),
        }
    }

    /// Folds one die into the accumulator. `base_seed` keys the
    /// train/test split; `index` is the die's global index.
    pub fn push(&mut self, base_seed: u64, index: u64, record: &DieRecord) {
        self.dies += 1;
        let train = is_train(base_seed, index);
        if train {
            self.train_dies += 1;
        }
        let group = &mut self.groups[record.group as usize];
        group.count += 1;
        for (i, &f) in record.features.iter().enumerate() {
            let f = f64::from(f);
            group.features[i].push(f);
            self.global[i].push(f);
            if train {
                group.train[i].push(f);
            }
        }
        if record.puf_valid() {
            self.puf_valid += 1;
            self.hw_hist.record(f64::from(record.features[0]));
            self.reservoir.offer(index, record.fingerprint);
        }
        self.records.push(*record);
    }

    /// Merges another chunk's accumulator (everything except
    /// `records`, which the reducer drains into the store itself).
    pub fn merge(&mut self, other: &PopAccum) {
        self.dies += other.dies;
        self.puf_valid += other.puf_valid;
        self.train_dies += other.train_dies;
        for (a, b) in self.groups.iter_mut().zip(&other.groups) {
            a.merge(b);
        }
        for i in 0..4 {
            self.global[i].merge(&other.global[i]);
        }
        self.hw_hist.merge(&other.hw_hist);
        self.reservoir.merge(other.reservoir.clone());
        self.stats.accumulate(&other.stats);
        self.perf.accumulate(&other.perf);
    }
}

/// Nearest-centroid classifier state: per-group feature means from the
/// train split, z-scaled by the global per-feature spread.
#[derive(Debug, Clone)]
pub struct Centroids {
    /// Per-group centroid in feature space ([`GroupId::ALL`] order).
    pub mean: [[f64; 4]; GROUPS],
    /// Per-feature scale (global std, floored to avoid division by a
    /// degenerate spread).
    pub scale: [f64; 4],
    /// Whether the group had any train dies (untrained groups never
    /// win).
    pub trained: [bool; GROUPS],
}

impl Centroids {
    /// Builds the classifier from a finished population accumulator.
    pub fn from_accum(acc: &PopAccum) -> Self {
        let mut mean = [[0.0; 4]; GROUPS];
        let mut trained = [false; GROUPS];
        for (g, group) in acc.groups.iter().enumerate() {
            trained[g] = group.train[0].count() > 0;
            for (m, t) in mean[g].iter_mut().zip(&group.train) {
                *m = t.mean();
            }
        }
        let mut scale = [0.0; 4];
        for (s, global) in scale.iter_mut().zip(&acc.global) {
            *s = global.std_dev().max(1e-9);
        }
        Centroids {
            mean,
            scale,
            trained,
        }
    }

    /// Classifies a feature vector: index (into [`GroupId::ALL`]) of
    /// the nearest trained centroid in z-scaled Euclidean distance,
    /// ties broken toward the lower group index.
    pub fn classify(&self, features: &[f32; 4]) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for g in 0..GROUPS {
            if !self.trained[g] {
                continue;
            }
            let mut d = 0.0;
            for ((&f, m), s) in features.iter().zip(&self.mean[g]).zip(&self.scale) {
                let z = (f64::from(f) - m) / s;
                d += z * z;
            }
            if d < best_d {
                best_d = d;
                best = g;
            }
        }
        best
    }
}

/// A confusion matrix over the 12 groups (rows = true, cols =
/// predicted) accumulated over the test split.
#[derive(Debug, Clone, Default)]
pub struct Confusion {
    /// counts[true][predicted].
    pub counts: [[u64; GROUPS]; GROUPS],
}

impl Confusion {
    /// Records one classified test die.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        self.counts[truth][predicted] += 1;
    }

    /// Total test dies recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Correctly classified dies.
    pub fn correct(&self) -> u64 {
        (0..GROUPS).map(|g| self.counts[g][g]).sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    /// Accuracy restricted to a subset of true groups.
    pub fn accuracy_over(&self, groups: impl Iterator<Item = usize>) -> f64 {
        let mut total = 0u64;
        let mut correct = 0u64;
        for g in groups {
            total += self.counts[g].iter().sum::<u64>();
            correct += self.counts[g][g];
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// Pairwise uniqueness statistics over the sampled fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Uniqueness {
    /// Fingerprints sampled.
    pub sampled: usize,
    /// Pairs compared (`sampled·(sampled−1)/2`).
    pub pairs: u64,
    /// Mean pairwise normalized inter-HD (ideal 0.5).
    pub mean_hd: f64,
    /// Standard deviation of the pairwise inter-HD.
    pub std_hd: f64,
    /// Smallest pairwise inter-HD observed in the sample.
    pub min_hd: f64,
    /// Largest pairwise inter-HD observed in the sample.
    pub max_hd: f64,
    /// Estimated probability two random dies produce the *same*
    /// 128-bit fingerprint: mean over sampled pairs of
    /// `(1 − d)^128` under an independent-bit model.
    pub p_match: f64,
}

/// Computes pairwise uniqueness over a reservoir's fingerprints.
/// Returns `None` below two samples.
pub fn uniqueness(reservoir: &Reservoir<[u8; 16]>) -> Option<Uniqueness> {
    let prints: Vec<&[u8; 16]> = reservoir.items().map(|(_, fp)| fp).collect();
    if prints.len() < 2 {
        return None;
    }
    let mut hd = Moments::new();
    let mut min_hd = 1.0f64;
    let mut max_hd = 0.0f64;
    let mut p_match = Moments::new();
    for i in 0..prints.len() {
        for j in i + 1..prints.len() {
            let d = fingerprint_hd(prints[i], prints[j]);
            hd.push(d);
            min_hd = min_hd.min(d);
            max_hd = max_hd.max(d);
            p_match.push((1.0 - d).powi(FINGERPRINT_BITS as i32));
        }
    }
    Some(Uniqueness {
        sampled: prints.len(),
        pairs: hd.count(),
        mean_hd: hd.mean(),
        std_hd: hd.std_dev(),
        min_hd,
        max_hd,
        p_match: p_match.mean(),
    })
}

/// Birthday-bound collision probability for a population of `n`
/// enrolled dies with per-pair match probability `p_match`:
/// `1 − exp(−n(n−1)/2 · p)`.
pub fn collision_probability(n: u64, p_match: f64) -> f64 {
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    -(-pairs * p_match).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_assignment_is_round_robin() {
        assert_eq!(group_of(0), GroupId::A);
        assert_eq!(group_of(11), GroupId::L);
        assert_eq!(group_of(12), GroupId::A);
    }

    #[test]
    fn train_split_is_index_pure_and_roughly_even() {
        let train = (0..1000).filter(|&i| is_train(5, i)).count();
        assert!((400..600).contains(&train), "train split {train}/1000");
        assert_eq!(is_train(5, 17), is_train(5, 17));
        // Different base seeds draw different splits.
        assert!((0..1000).any(|i| is_train(5, i) != is_train(6, i)));
    }

    #[test]
    fn simulated_die_is_seed_deterministic_and_group_flagged() {
        let (a, _) = simulate_die(GroupId::B, 77);
        let (b, _) = simulate_die(GroupId::B, 77);
        assert_eq!(a, b, "same (group, seed) must reproduce the record");
        assert!(a.puf_valid());
        assert!(a.features[0] > 0.0 && a.features[0] < 1.0);
        let (c, _) = simulate_die(GroupId::B, 78);
        assert_ne!(a.fingerprint, c.fingerprint, "different dies differ");
        // Timing-guarded group: no PUF, retention fingerprint instead.
        let (guarded, _) = simulate_die(GroupId::K, 77);
        assert!(!guarded.puf_valid());
        assert_eq!(guarded.features[0], 0.0);
        assert_eq!(guarded.features[1], 0.0);
    }

    #[test]
    fn retention_features_spread_with_delay() {
        let (r, _) = simulate_die(GroupId::A, 3);
        assert!(
            r.features[3] >= r.features[2],
            "12h fails {} must be >= 4h fails {}",
            r.features[3],
            r.features[2]
        );
        assert!(r.features[3] > 0.0, "12h probe must see some decay");
    }

    #[test]
    fn accum_chunked_merge_matches_sequential_fold() {
        // Pure-accumulator property (no simulation): folding synthetic
        // records in two chunks and merging equals one sequential fold,
        // bit for bit.
        let record = |i: u64| DieRecord {
            seed: i,
            group: group_of(i),
            flags: u8::from(i % 12 < 9),
            features: [
                (i % 7) as f32 / 7.0,
                (i % 5) as f32 / 5.0,
                (i % 3) as f32 / 3.0,
                (i % 11) as f32 / 11.0,
            ],
            fingerprint: [(i % 251) as u8; 16],
        };
        let mut sequential = PopAccum::new(9, 8);
        for i in 0..100 {
            sequential.push(9, i, &record(i));
        }
        let mut left = PopAccum::new(9, 8);
        for i in 0..37 {
            left.push(9, i, &record(i));
        }
        let mut right = PopAccum::new(9, 8);
        for i in 37..100 {
            right.push(9, i, &record(i));
        }
        left.merge(&right);
        assert_eq!(left.dies, sequential.dies);
        assert_eq!(left.puf_valid, sequential.puf_valid);
        assert_eq!(left.train_dies, sequential.train_dies);
        // Integer-state aggregates are exact under any grouping.
        assert_eq!(left.hw_hist, sequential.hw_hist);
        assert_eq!(left.reservoir, sequential.reservoir);
        // Float moments: a chunked merge is a *different* expression
        // tree than a sequential fold, so equality here is only
        // within tolerance — which is exactly why the fleet fixes the
        // chunk structure and merge order: the SAME tree is
        // bit-identical, asserted below.
        for i in 0..4 {
            let (a, b) = (left.global[i].mean(), sequential.global[i].mean());
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            let (a, b) = (left.global[i].variance(), sequential.global[i].variance());
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
        // Re-fold with the identical chunk structure: bit-identical.
        let mut left2 = PopAccum::new(9, 8);
        for i in 0..37 {
            left2.push(9, i, &record(i));
        }
        let mut right2 = PopAccum::new(9, 8);
        for i in 37..100 {
            right2.push(9, i, &record(i));
        }
        left2.merge(&right2);
        for i in 0..4 {
            assert_eq!(
                left.global[i].mean().to_bits(),
                left2.global[i].mean().to_bits(),
                "identical chunk structure must merge bit-identically"
            );
            assert_eq!(
                left.global[i].variance().to_bits(),
                left2.global[i].variance().to_bits()
            );
        }
    }

    #[test]
    fn classifier_separates_synthetic_clusters() {
        let mut acc = PopAccum::new(1, 8);
        // Two synthetic groups with well-separated features.
        for i in 0..200u64 {
            let group = if i % 2 == 0 { GroupId::A } else { GroupId::B };
            let base = if i % 2 == 0 { 0.2f32 } else { 0.8f32 };
            let jitter = (i % 13) as f32 / 130.0;
            let record = DieRecord {
                seed: i,
                group,
                flags: FLAG_PUF_VALID,
                features: [base + jitter, base, base - jitter.min(base), base],
                fingerprint: [0; 16],
            };
            acc.push(1, i, &record);
        }
        let centroids = Centroids::from_accum(&acc);
        assert_eq!(centroids.classify(&[0.2, 0.2, 0.2, 0.2]), 0);
        assert_eq!(centroids.classify(&[0.8, 0.8, 0.8, 0.8]), 1);
    }

    #[test]
    fn confusion_matrix_counts_and_accuracy() {
        let mut c = Confusion::default();
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 1);
        c.record(9, 9);
        assert_eq!(c.total(), 4);
        assert_eq!(c.correct(), 3);
        assert!((c.accuracy() - 0.75).abs() < 1e-12);
        assert!((c.accuracy_over([0usize].into_iter()) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.accuracy_over([9usize].into_iter()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniqueness_and_birthday_bound() {
        let mut reservoir = Reservoir::new(3, 16);
        // Random-ish distinct fingerprints.
        for i in 0..16u64 {
            let mut fp = [0u8; 16];
            for (b, byte) in fp.iter_mut().enumerate() {
                *byte = mix(99, &[i, b as u64]) as u8;
            }
            reservoir.offer(i, fp);
        }
        let u = uniqueness(&reservoir).unwrap();
        assert_eq!(u.sampled, 16);
        assert_eq!(u.pairs, 120);
        assert!((u.mean_hd - 0.5).abs() < 0.1, "mean HD {}", u.mean_hd);
        assert!(u.min_hd > 0.2 && u.max_hd < 0.8);
        assert!(u.p_match < 1e-20, "random 128-bit prints never match");
        // Birthday bound sanity: monotone in n, ~0 for tiny p, ~1 when
        // pairs * p is large.
        assert_eq!(collision_probability(1, 0.5), 0.0);
        assert!(collision_probability(1_000_000, u.p_match) < 1e-6);
        assert!(collision_probability(10, 0.9) > 0.99);
        assert!(collision_probability(1000, 1e-5) > collision_probability(100, 1e-5));
    }

    #[test]
    fn fingerprint_hd_counts_bits() {
        let a = [0u8; 16];
        let mut b = [0u8; 16];
        b[0] = 0b1111;
        assert_eq!(fingerprint_hd(&a, &a), 0.0);
        assert!((fingerprint_hd(&a, &b) - 4.0 / 128.0).abs() < 1e-12);
        let c = [0xFFu8; 16];
        assert_eq!(fingerprint_hd(&a, &c), 1.0);
    }
}
