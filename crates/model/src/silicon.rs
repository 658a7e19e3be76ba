//! Per-coordinate static silicon parameters.
//!
//! [`Silicon`] combines a chip's [`VariationSampler`] with the group-wide
//! [`DeviceParams`] and [`VendorProfile`] to answer questions like "what
//! is the leakage time constant of cell (bank 3, sub-array 1, row 40,
//! column 17)?". Every answer is a pure function of the chip seed and the
//! coordinates — identical across calls, distinct across chips.
//!
//! Whole buffers are sampled through the lane-hoisted samplers
//! ([`Silicon::row_sampler`], [`Silicon::col_sampler`],
//! [`Silicon::slot_sampler`]), which hash each parameter's leading
//! coordinates once, so a column costs one hash round per parameter.
//! The per-coordinate methods wrap the same samplers, so every parameter
//! is shaped in one place.

use crate::faults::{FaultPlan, RowFaults};
use crate::params::DeviceParams;
use crate::units::{Femtofarads, Seconds, Volts};
use crate::variation::{ParamId, ParamLanes, VariationSampler};
use crate::vendor::VendorProfile;

/// Static parameter oracle for one chip.
#[derive(Debug, Clone)]
pub struct Silicon {
    sampler: VariationSampler,
    params: DeviceParams,
    profile: VendorProfile,
    faults: Option<FaultPlan>,
}

impl Silicon {
    /// Creates the oracle for a chip with the given seed, parameters, and
    /// vendor profile.
    pub fn new(seed: u64, params: DeviceParams, profile: VendorProfile) -> Self {
        Silicon {
            sampler: VariationSampler::new(seed),
            params,
            profile,
            faults: None,
        }
    }

    /// Installs (or removes) a fault plan. Weak-cell factors fold into
    /// the capacitance/leakage oracles below; the kernels query the plan
    /// directly for stuck cells, sense flips, and decoder dropouts.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.filter(|p| p.enabled());
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether any *cell*-level fault class (stuck or weak) is active —
    /// the hot-path gate for the kernels' pinning hooks.
    pub fn cell_faults_enabled(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|p| p.config().cell_faults())
    }

    /// The rail a cell is pinned to by a stuck-at fault, or `None`.
    pub fn stuck_at(&self, bank: usize, sub: usize, row: usize, col: usize) -> Option<bool> {
        self.faults.as_ref()?.stuck_at(bank, sub, row, col)
    }

    /// The chip-level variation sampler (used by the decoder gate).
    pub fn sampler(&self) -> &VariationSampler {
        &self.sampler
    }

    /// Device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Vendor profile.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The per-cell statics of one row, each parameter's
    /// `(bank, sub-array, row)` prefix hashed once.
    pub fn row_sampler(&self, bank: usize, sub: usize, row: usize) -> RowSampler<'_> {
        let prefix = [bank as u64, sub as u64, row as u64];
        RowSampler {
            silicon: self,
            cap: self.sampler.lanes(ParamId::CellCapacitance, &prefix),
            tau: self.sampler.lanes(ParamId::LeakageTau, &prefix),
            inject: self.sampler.lanes(ParamId::CellInject, &prefix),
            vrt: self.sampler.lanes(ParamId::VrtFlag, &prefix),
            faults: self.faults.as_ref().map(|p| p.row(bank, sub, row)),
        }
    }

    /// The per-column statics of one sub-array, each parameter's
    /// `(bank, sub-array)` prefix hashed once.
    pub fn col_sampler(&self, bank: usize, sub: usize) -> ColSampler<'_> {
        let prefix = [bank as u64, sub as u64];
        ColSampler {
            silicon: self,
            offset: self.sampler.lanes(ParamId::SenseOffset, &prefix),
            temp_coeff: self.sampler.lanes(ParamId::SenseTempCoeff, &prefix),
            polarity: self.sampler.lanes(ParamId::Polarity, &prefix),
            halfm: self.sampler.lanes(ParamId::HalfmAsymmetry, &prefix),
        }
    }

    /// The share weights of activation-role `slot` in one sub-array, the
    /// `(bank, sub-array, slot)` prefix hashed once.
    pub fn slot_sampler(&self, bank: usize, sub: usize, slot: usize) -> SlotSampler {
        SlotSampler {
            weight: self.sampler.lanes(
                ParamId::RowShareWeight,
                &[bank as u64, sub as u64, slot as u64],
            ),
            mean: self
                .profile
                .row_weight_means
                .get(slot)
                .copied()
                .unwrap_or(1.0),
            sigma: self.params.share_weight_sigma,
        }
    }

    /// Capacitance of one cell.
    pub fn cell_capacitance(&self, bank: usize, sub: usize, row: usize, col: usize) -> Femtofarads {
        self.row_sampler(bank, sub, row).cell_capacitance(col)
    }

    /// Leakage time constant of one cell at 20 °C (before environmental
    /// scaling), including the group's retention flavor.
    pub fn leak_tau(&self, bank: usize, sub: usize, row: usize, col: usize) -> Seconds {
        self.row_sampler(bank, sub, row).leak_tau(col)
    }

    /// Whether the cell exhibits variable retention time.
    pub fn is_vrt(&self, bank: usize, sub: usize, row: usize, col: usize) -> bool {
        self.row_sampler(bank, sub, row).is_vrt(col)
    }

    /// The leakage tau effective for a VRT cell during the epoch that
    /// contains `at`: randomly either the nominal tau or the much shorter
    /// alternate tau, re-drawn per epoch.
    pub fn vrt_effective_tau(
        &self,
        bank: usize,
        sub: usize,
        row: usize,
        col: usize,
        nominal: Seconds,
        at: Seconds,
    ) -> Seconds {
        let epoch = (at.value() / self.params.vrt_epoch.value()).floor() as u64;
        let fast = self.sampler.bernoulli(
            ParamId::VrtPhase,
            &[bank as u64, sub as u64, row as u64, col as u64, epoch],
            0.5,
        );
        if fast {
            Seconds(nominal.value() * self.params.vrt_tau_ratio)
        } else {
            nominal
        }
    }

    /// Static input-referred offset of a column's sense amplifier,
    /// including the group-wide bias that shapes the PUF Hamming weight.
    pub fn sense_offset(&self, bank: usize, sub: usize, col: usize) -> Volts {
        self.col_sampler(bank, sub).sense_offset(col)
    }

    /// Temperature coefficient of a column's sense offset (V per °C).
    pub fn sense_temp_coeff(&self, bank: usize, sub: usize, col: usize) -> f64 {
        self.col_sampler(bank, sub).sense_temp_coeff(col)
    }

    /// Charge-sharing weight of activation-role `slot` (0 = R1, 1 = R2,
    /// ...) for a column during multi-row activation. Values below 0.05
    /// are clamped; a word-line cannot contribute negative charge.
    pub fn share_weight(&self, bank: usize, sub: usize, slot: usize, col: usize) -> f64 {
        self.slot_sampler(bank, sub, slot).share_weight(col)
    }

    /// Static charge-injection offset of one cell (cell-level volts):
    /// access-transistor mismatch perturbs the charge the cell delivers
    /// to the bit-line. Per (bank, sub-array, row, column) — the
    /// row-dependent entropy of the Frac-PUF.
    pub fn cell_inject(&self, bank: usize, sub: usize, row: usize, col: usize) -> Volts {
        self.row_sampler(bank, sub, row).cell_inject(col)
    }

    /// Whether a column of a sub-array is wired as anti-cells (cells on
    /// the reference side of the sense amplifier; physical `Vdd` reads as
    /// logical zero).
    pub fn is_anti_column(&self, bank: usize, sub: usize, col: usize) -> bool {
        self.col_sampler(bank, sub).is_anti_column(col)
    }

    /// Residual per-cell asymmetry the Half-m operation leaves on the
    /// "Half" columns (most columns do not land exactly at `Vdd/2`; the
    /// paper finds only ~16 % produce a clean distinguishable Half value).
    pub fn halfm_asymmetry(&self, bank: usize, sub: usize, col: usize) -> Volts {
        self.col_sampler(bank, sub).halfm_asymmetry(col)
    }
}

/// The per-cell statics of one row ([`Silicon::row_sampler`]); each
/// method is the [`Silicon`] method of the same name at column `col`.
#[derive(Debug, Clone, Copy)]
pub struct RowSampler<'a> {
    silicon: &'a Silicon,
    cap: ParamLanes,
    tau: ParamLanes,
    inject: ParamLanes,
    vrt: ParamLanes,
    faults: Option<RowFaults<'a>>,
}

impl RowSampler<'_> {
    /// Capacitance of the cell in column `col`.
    pub fn cell_capacitance(&self, col: usize) -> Femtofarads {
        let params = &self.silicon.params;
        let rel = self.cap.normal(col as u64, 1.0, params.cell_cap_rel_sigma);
        // Clamp: capacitance cannot be negative or wildly off.
        let cap = params.cell_cap * rel.clamp(0.5, 1.5);
        match &self.faults {
            Some(f) if f.is_weak(col) => cap * f.config().weak_cap_factor,
            _ => cap,
        }
    }

    /// Leakage time constant at 20 °C of the cell in column `col`.
    pub fn leak_tau(&self, col: usize) -> Seconds {
        let params = &self.silicon.params;
        let tau = self.tau.lognormal(
            col as u64,
            params.leak_tau_median.value(),
            params.leak_tau_sigma_ln,
        );
        let scaled = tau * self.silicon.profile.leak_tau_scale;
        match &self.faults {
            Some(f) if f.is_weak(col) => Seconds(scaled * f.config().weak_tau_factor),
            _ => Seconds(scaled),
        }
    }

    /// Whether the cell in column `col` exhibits variable retention time.
    pub fn is_vrt(&self, col: usize) -> bool {
        self.vrt
            .bernoulli(col as u64, self.silicon.params.vrt_fraction)
    }

    /// Static charge-injection offset of the cell in column `col`.
    pub fn cell_inject(&self, col: usize) -> Volts {
        Volts(self.inject.normal(
            col as u64,
            0.0,
            self.silicon.params.cell_inject_sigma.value(),
        ))
    }

    /// The rail the cell in column `col` is stuck at, or `None`.
    pub fn stuck_at(&self, col: usize) -> Option<bool> {
        self.faults.as_ref()?.stuck_at(col)
    }
}

/// The per-column statics of one sub-array ([`Silicon::col_sampler`]);
/// each method is the [`Silicon`] method of the same name at column
/// `col`.
#[derive(Debug, Clone, Copy)]
pub struct ColSampler<'a> {
    silicon: &'a Silicon,
    offset: ParamLanes,
    temp_coeff: ParamLanes,
    polarity: ParamLanes,
    halfm: ParamLanes,
}

impl ColSampler<'_> {
    /// Static input-referred sense-amplifier offset of column `col`.
    pub fn sense_offset(&self, col: usize) -> Volts {
        Volts(self.offset.normal(
            col as u64,
            self.silicon.profile.sense_offset_mean.value(),
            self.silicon.params.sense_offset_sigma.value(),
        ))
    }

    /// Temperature coefficient of column `col`'s sense offset (V per °C).
    pub fn sense_temp_coeff(&self, col: usize) -> f64 {
        self.temp_coeff
            .normal(col as u64, 0.0, self.silicon.params.sense_temp_coeff_sigma)
    }

    /// Whether column `col` is wired as anti-cells.
    pub fn is_anti_column(&self, col: usize) -> bool {
        self.polarity
            .bernoulli(col as u64, self.silicon.params.anti_cell_fraction)
    }

    /// Raw Half-m closure asymmetry of column `col`.
    pub fn halfm_asymmetry(&self, col: usize) -> Volts {
        Volts(self.halfm.normal(
            col as u64,
            0.0,
            self.silicon.params.halfm_asym_sigma.value(),
        ))
    }
}

/// The share weights of one activation-role slot
/// ([`Silicon::slot_sampler`]).
#[derive(Debug, Clone, Copy)]
pub struct SlotSampler {
    weight: ParamLanes,
    mean: f64,
    sigma: f64,
}

impl SlotSampler {
    /// Charge-sharing weight of the slot's row in column `col`, clamped
    /// below at 0.05 like [`Silicon::share_weight`].
    pub fn share_weight(&self, col: usize) -> f64 {
        self.weight
            .normal(col as u64, self.mean, self.sigma)
            .max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::GroupId;

    fn silicon(seed: u64) -> Silicon {
        Silicon::new(seed, DeviceParams::default(), GroupId::B.profile())
    }

    #[test]
    fn parameters_are_stable_per_chip() {
        let s = silicon(1);
        assert_eq!(s.leak_tau(0, 0, 5, 9), s.leak_tau(0, 0, 5, 9));
        assert_eq!(s.sense_offset(1, 0, 3), s.sense_offset(1, 0, 3));
        assert_eq!(s.share_weight(0, 0, 1, 7), s.share_weight(0, 0, 1, 7));
    }

    #[test]
    fn different_chips_differ() {
        let a = silicon(1);
        let b = silicon(2);
        assert_ne!(a.sense_offset(0, 0, 0), b.sense_offset(0, 0, 0));
        assert_ne!(a.leak_tau(0, 0, 0, 0), b.leak_tau(0, 0, 0, 0));
    }

    #[test]
    fn cell_capacitance_is_clamped_positive() {
        let s = silicon(3);
        for col in 0..500 {
            let c = s.cell_capacitance(0, 0, 0, col);
            assert!(c.value() > 0.0);
            assert!(c.value() >= DeviceParams::default().cell_cap.value() * 0.5);
            assert!(c.value() <= DeviceParams::default().cell_cap.value() * 1.5);
        }
    }

    #[test]
    fn vrt_fraction_is_small() {
        let s = silicon(4);
        let n = 20_000;
        let vrt = (0..n).filter(|&c| s.is_vrt(0, 0, 0, c)).count();
        let frac = vrt as f64 / n as f64;
        assert!(frac < 0.02, "VRT fraction {frac} too large");
        assert!(frac > 0.0005, "VRT fraction {frac} suspiciously small");
    }

    #[test]
    fn vrt_tau_flips_between_epochs() {
        let s = silicon(5);
        // Find a VRT cell.
        let col = (0..50_000)
            .find(|&c| s.is_vrt(0, 0, 0, c))
            .expect("no VRT cell found");
        let nominal = s.leak_tau(0, 0, 0, col);
        let taus: Vec<Seconds> = (0..40)
            .map(|e| {
                s.vrt_effective_tau(
                    0,
                    0,
                    0,
                    col,
                    nominal,
                    Seconds(e as f64 * DeviceParams::default().vrt_epoch.value() + 1.0),
                )
            })
            .collect();
        assert!(taus.contains(&nominal), "never nominal");
        assert!(taus.iter().any(|&t| t != nominal), "never fast");
    }

    #[test]
    fn group_b_primary_slot_weight_is_heavier() {
        let s = silicon(6);
        let n = 3000;
        let mean_slot =
            |slot: usize| (0..n).map(|c| s.share_weight(0, 0, slot, c)).sum::<f64>() / n as f64;
        let w1 = mean_slot(1); // R2: group B primary
        let w2 = mean_slot(2);
        assert!(w1 > w2 + 0.3, "primary {w1} vs other {w2}");
    }

    #[test]
    fn share_weight_never_negative() {
        let s = silicon(7);
        for c in 0..2000 {
            assert!(s.share_weight(0, 0, 3, c) >= 0.05);
        }
    }

    #[test]
    fn anti_columns_about_half() {
        let s = silicon(8);
        let n = 10_000;
        let anti = (0..n).filter(|&c| s.is_anti_column(0, 0, c)).count();
        let frac = anti as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "anti fraction {frac}");
    }

    #[test]
    fn weak_cells_shrink_cap_and_tau() {
        use crate::faults::{FaultConfig, FaultPlan};
        let healthy = silicon(21);
        let mut faulty = silicon(21);
        faulty.set_faults(Some(FaultPlan::new(
            21,
            FaultConfig {
                weak_density: 0.2,
                weak_cap_factor: 0.5,
                weak_tau_factor: 0.1,
                ..FaultConfig::none()
            },
        )));
        let plan = faulty.faults().unwrap().clone();
        let mut weak_seen = 0;
        for col in 0..512 {
            let (c0, c1) = (
                healthy.cell_capacitance(0, 0, 3, col),
                faulty.cell_capacitance(0, 0, 3, col),
            );
            let (t0, t1) = (
                healthy.leak_tau(0, 0, 3, col),
                faulty.leak_tau(0, 0, 3, col),
            );
            if plan.is_weak(0, 0, 3, col) {
                weak_seen += 1;
                assert!((c1.value() - c0.value() * 0.5).abs() < 1e-9);
                assert!((t1.value() - t0.value() * 0.1).abs() < 1e-9);
            } else {
                assert_eq!(c0, c1);
                assert_eq!(t0, t1);
            }
        }
        assert!(weak_seen > 0, "no weak cell in 512 at density 0.2");
    }

    #[test]
    fn disabled_plan_is_dropped() {
        use crate::faults::{FaultConfig, FaultPlan};
        let mut s = silicon(22);
        s.set_faults(Some(FaultPlan::new(22, FaultConfig::none())));
        assert!(s.faults().is_none());
        assert!(!s.cell_faults_enabled());
        assert_eq!(s.stuck_at(0, 0, 0, 0), None);
    }

    #[test]
    fn group_a_offset_bias_is_positive() {
        let s = Silicon::new(11, DeviceParams::default(), GroupId::A.profile());
        let n = 5000;
        let mean: f64 = (0..n).map(|c| s.sense_offset(0, 0, c).value()).sum::<f64>() / n as f64;
        // Group A's profile biases the offset up, which makes most bits
        // read zero (Hamming weight ~0.21 in Fig. 11).
        assert!(mean > 0.01, "mean offset {mean}");
    }
}
