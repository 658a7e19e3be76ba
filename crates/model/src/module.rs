//! A DRAM module (DIMM rank): several chips operated in lock-step.
//!
//! The platform in the paper exercises DDR3 modules whose 64-bit data bus
//! is built from eight x8 chips; an 8 KB module row spreads across all of
//! them in byte lanes. Commands go to every chip simultaneously; data is
//! striped. A single-chip module is also supported (and is what most
//! experiments use — per-chip behavior is what the paper characterizes).

use crate::chip::{Chip, ChipConfig};
use crate::env::Environment;
use crate::error::Result;
use crate::geometry::{Geometry, RowAddr};
use crate::params::DeviceParams;
use crate::snapshot::ModuleRowsSnapshot;
use crate::units::Volts;
use crate::variation::hash_coords;
use crate::vendor::{GroupId, VendorProfile};

/// Width of one data lane in bits (x8 chips).
pub const LANE_BITS: usize = 8;

/// Configuration of a module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleConfig {
    /// Vendor group of all chips on the module.
    pub group: GroupId,
    /// Module seed; each chip derives its own die seed from it.
    pub seed: u64,
    /// Geometry of each chip.
    pub geometry: Geometry,
    /// Number of chips (1 for single-chip studies, 8 for a realistic
    /// 64-bit rank).
    pub chips: usize,
    /// Analog parameters shared by all chips.
    pub params: DeviceParams,
}

impl ModuleConfig {
    /// A single-chip module with default parameters.
    pub fn single_chip(group: GroupId, seed: u64, geometry: Geometry) -> Self {
        ModuleConfig {
            group,
            seed,
            geometry,
            chips: 1,
            params: DeviceParams::default(),
        }
    }

    /// A realistic eight-chip rank with default parameters.
    pub fn rank(group: GroupId, seed: u64, geometry: Geometry) -> Self {
        ModuleConfig {
            group,
            seed,
            geometry,
            chips: 8,
            params: DeviceParams::default(),
        }
    }
}

/// A simulated DRAM module.
#[derive(Debug, Clone)]
pub struct Module {
    config: ModuleConfig,
    chips: Vec<Chip>,
    /// Reused striping buffer of a multi-chip write (chip `i`'s payload
    /// is `stripe[i * columns..(i + 1) * columns]`) and, on a multi-chip
    /// read, the burst of the chip being de-striped.
    stripe: Vec<bool>,
}

impl Module {
    /// Builds a module; chip `i` receives die seed
    /// `hash(module_seed, i)`.
    pub fn new(config: ModuleConfig) -> Self {
        assert!(config.chips >= 1, "a module needs at least one chip");
        let chips = (0..config.chips)
            .map(|i| {
                Chip::new(ChipConfig {
                    group: config.group,
                    seed: hash_coords(&[config.seed, i as u64]),
                    geometry: config.geometry,
                    params: config.params.clone(),
                })
            })
            .collect();
        Module {
            config,
            chips,
            stripe: Vec::new(),
        }
    }

    /// The module configuration.
    pub fn config(&self) -> &ModuleConfig {
        &self.config
    }

    /// The vendor profile of the module's chips.
    pub fn profile(&self) -> VendorProfile {
        self.config.group.profile()
    }

    /// Per-chip geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// Total row width in bits across all chips.
    pub fn row_bits(&self) -> usize {
        self.config.geometry.columns * self.chips.len()
    }

    /// The chips of the module.
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// Mutable access to one chip (test-bench instrumentation).
    pub fn chip_mut(&mut self, index: usize) -> &mut Chip {
        &mut self.chips[index]
    }

    /// Detaches every chip's materialize cache, in chip order — the
    /// fleet/serve sharing hook. See [`Chip::take_cache`].
    pub fn take_caches(&mut self) -> Vec<crate::materialize::MaterializeCache> {
        self.chips.iter_mut().map(Chip::take_cache).collect()
    }

    /// Installs donated caches chip-by-chip (extra donations are
    /// dropped; chips past the donation keep their fresh cache). Each
    /// chip re-keys its donation to its own die seed, so a module
    /// simulating different dies just rebuilds — donated statics can
    /// never leak across dies. See [`Chip::install_cache`].
    pub fn install_caches(&mut self, caches: Vec<crate::materialize::MaterializeCache>) {
        for (chip, cache) in self.chips.iter_mut().zip(caches) {
            chip.install_cache(cache);
        }
    }

    /// Sets the operating environment of every chip.
    pub fn set_environment(&mut self, env: Environment) {
        for chip in &mut self.chips {
            chip.set_environment(env);
        }
    }

    /// Current environment (all chips share it).
    pub fn environment(&self) -> &Environment {
        self.chips[0].environment()
    }

    /// Installs a fault configuration on every chip; each die derives
    /// its own deterministic [`crate::faults::FaultPlan`] from its own
    /// seed. A disabled configuration removes any installed plans.
    pub fn set_fault_config(&mut self, config: &crate::faults::FaultConfig) {
        for chip in &mut self.chips {
            chip.set_fault_config(config);
        }
    }

    /// Whether no chip has an injected excursion window overlapping the
    /// cycle range `[a, b)` — precondition for the TRNG refill snapshot
    /// under fault injection.
    pub fn fault_windows_clear(&self, a: u64, b: u64) -> bool {
        self.chips.iter().all(|c| c.fault_windows_clear(a, b))
    }

    /// Whether any chip has an active fault plan installed.
    pub fn faults_enabled(&self) -> bool {
        self.chips.iter().any(|c| c.fault_plan().is_some())
    }

    /// Kernel performance counters summed across every chip.
    pub fn model_perf(&self) -> crate::perf::ModelPerf {
        let mut total = crate::perf::ModelPerf::default();
        for chip in &self.chips {
            total.accumulate(chip.model_perf());
        }
        total
    }

    /// Maps a module-level column to `(chip index, chip column)` using
    /// byte-lane striping.
    pub fn map_column(&self, col: usize) -> (usize, usize) {
        let n = self.chips.len();
        if n == 1 {
            // Lane math degenerates to the identity for one chip:
            // `(col / L) % 1 == 0` and `(col / L) * L + col % L == col`.
            return (0, col);
        }
        let lane = (col / LANE_BITS) % n;
        let chip_col = (col / (LANE_BITS * n)) * LANE_BITS + col % LANE_BITS;
        (lane, chip_col)
    }

    // ------------------------------------------------------------------
    // Broadcast command interface
    // ------------------------------------------------------------------

    /// ACTIVATE on every chip.
    ///
    /// # Errors
    ///
    /// Propagates address-range errors.
    pub fn activate(&mut self, addr: RowAddr, t: u64) -> Result<()> {
        for chip in &mut self.chips {
            chip.activate(addr, t)?;
        }
        Ok(())
    }

    /// PRECHARGE on every chip.
    ///
    /// # Errors
    ///
    /// Propagates address-range errors.
    pub fn precharge(&mut self, bank: usize, t: u64) -> Result<()> {
        for chip in &mut self.chips {
            chip.precharge(bank, t)?;
        }
        Ok(())
    }

    /// REFRESH a bank on every chip.
    ///
    /// # Errors
    ///
    /// Propagates address-range errors.
    pub fn refresh(&mut self, bank: usize, t: u64) -> Result<()> {
        for chip in &mut self.chips {
            chip.refresh(bank, t)?;
        }
        Ok(())
    }

    /// Reads the full module row (logical bits, byte-lane de-striped).
    ///
    /// # Errors
    ///
    /// Fails if any chip's bank has no sensed open row.
    pub fn read(&mut self, bank: usize, t: u64) -> Result<Vec<bool>> {
        let mut out = Vec::new();
        self.read_into(bank, t, &mut out)?;
        Ok(out)
    }

    /// [`Module::read`] into a caller-provided buffer (cleared and
    /// refilled). Single-chip modules — the serve pool and most
    /// experiments — fill it straight from the chip; multi-chip modules
    /// read each chip into the reused stripe buffer and de-stripe it
    /// into `out`. Neither path allocates once the buffers are warm.
    ///
    /// # Errors
    ///
    /// Fails if any chip's bank has no sensed open row.
    pub fn read_into(&mut self, bank: usize, t: u64, out: &mut Vec<bool>) -> Result<()> {
        if self.chips.len() == 1 {
            // One chip: the lane interleave is the identity, so the
            // chip's burst already is the module word.
            return self.chips[0].read_into(bank, t, out);
        }
        // Byte-lane de-striping (the inverse of `write`'s striping):
        // chip `i`'s lane `j` is lane `j * n + i` of the module word.
        let n = self.chips.len();
        out.clear();
        out.resize(self.row_bits(), false);
        for (i, chip) in self.chips.iter_mut().enumerate() {
            chip.read_into(bank, t, &mut self.stripe)?;
            for (j, lane) in self.stripe.chunks(LANE_BITS).enumerate() {
                let at = (j * n + i) * LANE_BITS;
                out[at..at + lane.len()].copy_from_slice(lane);
            }
        }
        Ok(())
    }

    /// Writes a full module row (logical bits).
    ///
    /// # Errors
    ///
    /// Fails if any chip's bank is closed or `bits` has the wrong width.
    pub fn write(&mut self, bank: usize, bits: &[bool], t: u64) -> Result<()> {
        let width = self.row_bits();
        if bits.len() != width {
            return Err(crate::error::ModelError::WidthMismatch {
                got: bits.len(),
                expected: width,
            });
        }
        if self.chips.len() == 1 {
            // One chip: the lane interleave is the identity (see
            // `read_into`), so the module word is the chip's burst.
            return self.chips[0].write(bank, 0, bits, t);
        }
        // Byte-lane striping (the inverse of `read_into`'s de-striping):
        // lane `k` of the module word is chip `k % n`'s lane `k / n`.
        let n = self.chips.len();
        let chip_cols = self.config.geometry.columns;
        self.stripe.resize(width, false);
        for (k, lane) in bits.chunks(LANE_BITS).enumerate() {
            let at = (k % n) * chip_cols + (k / n) * LANE_BITS;
            self.stripe[at..at + lane.len()].copy_from_slice(lane);
        }
        for (chip, data) in self
            .chips
            .iter_mut()
            .zip(self.stripe.chunks_exact(chip_cols))
        {
            chip.write(bank, 0, data, t)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Prefix snapshot support (the TRNG refill)
    // ------------------------------------------------------------------

    /// Whether a prefix program in sub-array `sub` of `bank` may be served
    /// from a snapshot: no command-timing guard (guarded groups resolve
    /// their own effective times, so their programs must run live) and,
    /// on every chip, [`Chip::write_fastpath_ready`] — the target
    /// sub-array free to drain anything pending (a live ACTIVATE would
    /// fire the same events at the same fire times, and noise is keyed
    /// on fire time), siblings at most waiting on word-line closes,
    /// which have no analog outcome.
    pub fn write_fastpath_eligible(&self, bank: usize, sub: usize) -> bool {
        !self.profile().timing_guard && self.chips.iter().all(|c| c.write_fastpath_ready(bank, sub))
    }

    /// Fires pending events up to `t` in `bank` on every chip — where the
    /// prefix's first ACTIVATE would have fired them lazily — before a
    /// snapshot is captured or restored.
    pub fn drain_bank(&mut self, bank: usize, t: u64) {
        for chip in &mut self.chips {
            chip.drain_bank(bank, t);
        }
    }

    /// Whether `bank` is fully idle on every chip: after
    /// [`Module::drain_bank`], the condition under which a prefix's
    /// post-state does not depend on what ran before it.
    pub fn bank_idle(&self, bank: usize) -> bool {
        self.chips.iter().all(|c| c.bank_idle(bank))
    }

    /// Captures the state of `(bank, sub)` for the row set `rows` on
    /// every chip, relative to `anchor` (the TRNG refill prefix touches
    /// its four seed rows plus the activation quad).
    pub fn capture_rows_snapshot(
        &mut self,
        bank: usize,
        sub: usize,
        rows: &[usize],
        anchor: u64,
    ) -> ModuleRowsSnapshot {
        let env = *self.environment();
        let states = self
            .chips
            .iter_mut()
            .map(|c| c.capture_subarray(bank, sub, rows, anchor))
            .collect();
        ModuleRowsSnapshot { states, env }
    }

    /// Reimposes a [`Module::capture_rows_snapshot`] at `anchor`
    /// verbatim — no rewrite step, for prefixes whose data is a
    /// constant of the capture (the TRNG's seed-row refill).
    pub fn restore_rows_snapshot(&mut self, snap: &ModuleRowsSnapshot, anchor: u64) {
        for (chip, state) in self.chips.iter_mut().zip(&snap.states) {
            chip.restore_subarray(state, anchor);
        }
    }

    /// Direct view of one cell's voltage (module column addressing).
    pub fn probe_cell_voltage(&mut self, addr: RowAddr, col: usize, t: u64) -> Volts {
        let (chip, chip_col) = self.map_column(col);
        self.chips[chip].probe_cell_voltage(addr, chip_col, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(chips: usize) -> Module {
        Module::new(ModuleConfig {
            group: GroupId::B,
            seed: 99,
            geometry: Geometry::tiny(),
            chips,
            params: DeviceParams::default(),
        })
    }

    #[test]
    fn column_mapping_is_a_bijection() {
        let m = module(8);
        let width = m.row_bits();
        let mut seen = vec![false; width];
        for col in 0..width {
            let (chip, chip_col) = m.map_column(col);
            let flat = chip * m.geometry().columns + chip_col;
            assert!(!seen[flat], "collision at module col {col}");
            seen[flat] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_chip_mapping_is_identity() {
        let m = module(1);
        for col in 0..m.row_bits() {
            assert_eq!(m.map_column(col), (0, col));
        }
    }

    #[test]
    fn module_roundtrip() {
        let mut m = module(8);
        let width = m.row_bits();
        let pattern: Vec<bool> = (0..width).map(|i| (i * 13) % 7 < 3).collect();
        let addr = RowAddr::new(0, 4);
        m.activate(addr, 100).unwrap();
        m.write(0, &pattern, 110).unwrap();
        m.precharge(0, 120).unwrap();
        m.activate(addr, 150).unwrap();
        let bits = m.read(0, 160).unwrap();
        m.precharge(0, 170).unwrap();
        assert_eq!(bits, pattern);
    }

    #[test]
    fn four_chip_write_matches_per_column_striping() {
        // The per-column striping `Module::write` and `Module::read_into`
        // once allocated per call: every module column through
        // `map_column` into its own vector. The chip-level reads pin the
        // write's striping, and `bits == pattern` on top of them pins the
        // read's de-striping.
        let mut m = module(4);
        let mut reference = module(4);
        let width = m.row_bits();
        let chip_cols = m.geometry().columns;
        let addr = RowAddr::new(0, 4);
        for (round, salt) in [3usize, 11, 5].into_iter().enumerate() {
            let t = 100 + 100 * round as u64;
            let pattern: Vec<bool> = (0..width).map(|i| (i * salt + round) % 7 < 3).collect();
            let mut per_chip = vec![vec![false; chip_cols]; 4];
            for (col, &bit) in pattern.iter().enumerate() {
                let (chip, chip_col) = m.map_column(col);
                per_chip[chip][chip_col] = bit;
            }
            m.activate(addr, t).unwrap();
            reference.activate(addr, t).unwrap();
            m.write(0, &pattern, t + 10).unwrap();
            for (chip, data) in reference.chips.iter_mut().zip(&per_chip) {
                chip.write(0, 0, data, t + 10).unwrap();
            }
            m.precharge(0, t + 20).unwrap();
            reference.precharge(0, t + 20).unwrap();
            m.activate(addr, t + 50).unwrap();
            reference.activate(addr, t + 50).unwrap();
            let bits = m.read(0, t + 60).unwrap();
            assert_eq!(bits, reference.read(0, t + 60).unwrap());
            assert_eq!(bits, pattern);
            for (chip, data) in m.chips.iter_mut().zip(&per_chip) {
                assert_eq!(&chip.read(0, t + 60).unwrap(), data);
            }
            m.precharge(0, t + 70).unwrap();
            reference.precharge(0, t + 70).unwrap();
        }
    }

    #[test]
    fn chips_on_same_module_are_distinct_dies() {
        let m = module(2);
        let a = m.chips()[0].silicon().sense_offset(0, 0, 0);
        let b = m.chips()[1].silicon().sense_offset(0, 0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn different_modules_are_distinct() {
        let m1 = Module::new(ModuleConfig::single_chip(GroupId::B, 1, Geometry::tiny()));
        let m2 = Module::new(ModuleConfig::single_chip(GroupId::B, 2, Geometry::tiny()));
        assert_ne!(
            m1.chips()[0].silicon().sense_offset(0, 0, 0),
            m2.chips()[0].silicon().sense_offset(0, 0, 0)
        );
    }

    #[test]
    fn write_width_checked() {
        let mut m = module(2);
        let addr = RowAddr::new(0, 0);
        m.activate(addr, 10).unwrap();
        assert!(m.write(0, &[true; 3], 20).is_err());
    }

    #[test]
    fn rank_config_has_eight_chips() {
        let m = Module::new(ModuleConfig::rank(GroupId::C, 5, Geometry::tiny()));
        assert_eq!(m.chips().len(), 8);
        assert_eq!(m.row_bits(), 8 * Geometry::tiny().columns);
    }
}
