//! One DRAM chip: banks of sub-arrays, the command-timing guard of
//! groups J/K/L, true-/anti-cell polarity handling, and refresh.
//!
//! The chip is the unit of process variation (one seed = one die). It
//! exposes a *physical* command interface (what the pins do) plus
//! logical/physical data conversion helpers: externally, data always
//! round-trips (write `b`, read `b`); internally, anti-cell columns store
//! the inverted voltage, which is what makes their leakage direction and
//! charge-sharing behavior differ (§II-C).

use crate::env::Environment;
use crate::error::{ModelError, Result};
use crate::faults::{FaultConfig, FaultPlan};
use crate::geometry::{Geometry, RowAddr};
use crate::materialize::MaterializeCache;
use crate::params::{DeviceParams, InternalTiming};
use crate::perf::ModelPerf;
use crate::silicon::Silicon;
use crate::snapshot::SubArrayState;
use crate::subarray::{Ctx, ProbeSample, Subarray};
use crate::units::Volts;
use crate::variation::NoiseEngine;
use crate::vendor::{GroupId, VendorProfile};

/// Per-bank bookkeeping.
#[derive(Debug, Clone)]
struct Bank {
    subarrays: Vec<Subarray>,
    /// Sub-array of the most recent ACTIVATE (where READ/WRITE go).
    active: Option<usize>,
    /// Timing-guard state: earliest cycle the next ACTIVATE may take
    /// effect.
    earliest_act: u64,
    /// Timing-guard state: earliest cycle the next PRECHARGE may take
    /// effect.
    earliest_pre: u64,
}

/// Full identity and configuration needed to (re)build a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Vendor group the chip belongs to.
    pub group: GroupId,
    /// Die seed: all process variation derives from it.
    pub seed: u64,
    /// Chip geometry.
    pub geometry: Geometry,
    /// Analog parameters (usually [`DeviceParams::default`]).
    pub params: DeviceParams,
}

impl ChipConfig {
    /// Convenience constructor with default parameters.
    pub fn new(group: GroupId, seed: u64, geometry: Geometry) -> Self {
        ChipConfig {
            group,
            seed,
            geometry,
            params: DeviceParams::default(),
        }
    }
}

/// A simulated DRAM die.
#[derive(Debug, Clone)]
pub struct Chip {
    config: ChipConfig,
    silicon: Silicon,
    profile: VendorProfile,
    timing: InternalTiming,
    env: Environment,
    noise: NoiseEngine,
    perf: ModelPerf,
    cache: MaterializeCache,
    banks: Vec<Bank>,
}

impl Chip {
    /// Builds a chip from its configuration.
    pub fn new(config: ChipConfig) -> Self {
        let profile = config.group.profile();
        let silicon = Silicon::new(config.seed, config.params.clone(), profile.clone());
        let noise = NoiseEngine::new(splitseed(config.seed, 0x6E01));
        let g = config.geometry;
        let banks = (0..g.banks)
            .map(|b| Bank {
                subarrays: (0..g.subarrays_per_bank)
                    .map(|s| Subarray::new(b, s, g.rows_per_subarray, g.columns))
                    .collect(),
                active: None,
                earliest_act: 0,
                earliest_pre: 0,
            })
            .collect();
        let cache = MaterializeCache::new(config.seed);
        Chip {
            config,
            silicon,
            profile,
            timing: InternalTiming::default(),
            env: Environment::nominal(),
            noise,
            perf: ModelPerf::default(),
            cache,
            banks,
        }
    }

    /// Kernel performance counters accumulated since construction.
    pub fn model_perf(&self) -> &ModelPerf {
        &self.perf
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Detaches the materialize cache for donation to another chip,
    /// leaving a fresh one behind. When a fault plan is armed the
    /// seed-keyed buffers are dropped first — they fold the plan's
    /// stuck/weak-cell statics, which the seed alone does not identify —
    /// so a donation only ever carries pure-seed buffers.
    pub fn take_cache(&mut self) -> MaterializeCache {
        let mut cache = std::mem::replace(&mut self.cache, MaterializeCache::new(self.config.seed));
        if self.silicon.faults().is_some() {
            cache.clear_buffers();
        }
        cache.stamp_donor(self.config.clone());
        cache
    }

    /// Installs a cache donated by [`Chip::take_cache`] on another chip.
    /// Materialized buffers survive only when the donor simulated this
    /// very die — identical full configuration (group, seed, geometry,
    /// analog parameters), since the buffers are pure in all of it — and
    /// no fault plan is armed here; the number of buffers retained is
    /// credited to [`ModelPerf::cache_share_hits`]. A donation from any
    /// other die arrives empty and this chip rebuilds on first touch.
    pub fn install_cache(&mut self, mut cache: MaterializeCache) {
        if self.silicon.faults().is_some() || !cache.donor_is(&self.config) {
            cache.clear_buffers();
        }
        self.perf.cache_share_hits += cache.adopt(self.config.seed);
        self.cache = cache;
    }

    /// The chip's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// The chip's vendor profile.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// Current operating environment.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Changes the operating environment (temperature / supply voltage).
    pub fn set_environment(&mut self, env: Environment) {
        self.env = env;
    }

    /// Installs a fault plan derived from this die's seed. A disabled
    /// configuration removes any installed plan. Cell faults change the
    /// materialized row statics (stuck lists, weak-cell capacitance and
    /// leakage), so the cache is rebuilt from scratch.
    pub fn set_fault_config(&mut self, config: &FaultConfig) {
        self.silicon
            .set_faults(Some(FaultPlan::new(self.config.seed, *config)));
        self.cache = MaterializeCache::new(self.config.seed);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.silicon.faults()
    }

    /// The environment in effect at cycle `t`: the base environment,
    /// shifted while an injected excursion window covers `t`. One
    /// command's whole internal event cascade runs under the environment
    /// at command-issue time.
    fn env_at(&self, t: u64) -> Environment {
        match self.silicon.faults() {
            Some(p) => p.environment_at(self.env, t),
            None => self.env,
        }
    }

    /// [`Chip::env_at`] plus the observability counter for commands that
    /// executed under an excursion.
    fn command_env(&mut self, t: u64) -> Environment {
        let env = self.env_at(t);
        if env != self.env {
            self.perf.fault_env_commands += 1;
        }
        env
    }

    /// Whether no injected excursion window overlaps the cycle range
    /// `[a, b)` — the snapshot fast path's precondition for both capture
    /// and restore.
    pub fn fault_windows_clear(&self, a: u64, b: u64) -> bool {
        self.silicon
            .faults()
            .is_none_or(|p| !p.excursion_overlaps(a, b))
    }

    /// Internal device latencies.
    pub fn internal_timing(&self) -> &InternalTiming {
        &self.timing
    }

    fn check_bank(&self, bank: usize) -> Result<()> {
        if bank >= self.banks.len() {
            return Err(ModelError::BankOutOfRange {
                bank,
                banks: self.banks.len(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Command interface (absolute cycle timestamps)
    // ------------------------------------------------------------------

    /// ACTIVATE: open a row.
    ///
    /// # Errors
    ///
    /// Returns an error when the address is out of range.
    pub fn activate(&mut self, addr: RowAddr, t: u64) -> Result<()> {
        self.check_bank(addr.bank)?;
        let g = self.config.geometry;
        if addr.row >= g.rows_per_bank() {
            return Err(ModelError::RowOutOfRange {
                row: addr.row,
                rows: g.rows_per_bank(),
            });
        }
        let guarded = self.profile.timing_guard;
        let t_eff = if guarded {
            t.max(self.banks[addr.bank].earliest_act)
        } else {
            t
        };
        let (sub, local) = g.split_row(addr.row);
        let env = self.command_env(t_eff);
        let bank = &mut self.banks[addr.bank];
        let mut ctx = Ctx {
            silicon: &self.silicon,
            env: &env,
            timing: &self.timing,
            noise: &self.noise,
            perf: &mut self.perf,
            cache: &mut self.cache,
        };
        bank.subarrays[sub].activate(&mut ctx, local, t_eff)?;
        bank.active = Some(sub);
        if guarded {
            bank.earliest_pre = t_eff + self.timing.restore_done;
        }
        Ok(())
    }

    /// PRECHARGE: close all open rows in a bank.
    ///
    /// # Errors
    ///
    /// Returns an error when `bank` is out of range.
    pub fn precharge(&mut self, bank: usize, t: u64) -> Result<()> {
        self.check_bank(bank)?;
        let guarded = self.profile.timing_guard;
        let t_eff = if guarded {
            t.max(self.banks[bank].earliest_pre)
        } else {
            t
        };
        let env = self.command_env(t_eff);
        let b = &mut self.banks[bank];
        for sub in &mut b.subarrays {
            if sub.is_idle() {
                continue;
            }
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            sub.precharge(&mut ctx, t_eff);
        }
        if guarded {
            b.earliest_act = t_eff + self.timing.precharge_done;
        }
        Ok(())
    }

    /// READ: the latched row buffer of the bank's active sub-array, as
    /// *logical* bits (anti-cell columns un-inverted).
    ///
    /// # Errors
    ///
    /// Fails if the bank has no sensed open row.
    pub fn read(&mut self, bank: usize, t: u64) -> Result<Vec<bool>> {
        let mut out = Vec::new();
        self.read_into(bank, t, &mut out)?;
        Ok(out)
    }

    /// [`Chip::read`] into a caller-provided buffer (cleared and
    /// refilled in place), the allocation-free shape arena-recycled
    /// read loops use.
    ///
    /// # Errors
    ///
    /// Fails if the bank has no sensed open row.
    pub fn read_into(&mut self, bank: usize, t: u64, out: &mut Vec<bool>) -> Result<()> {
        self.check_bank(bank)?;
        let env = self.command_env(t);
        let b = &mut self.banks[bank];
        let sub_idx = b.active.ok_or(ModelError::BankClosed { bank })?;
        let mut ctx = Ctx {
            silicon: &self.silicon,
            env: &env,
            timing: &self.timing,
            noise: &self.noise,
            perf: &mut self.perf,
            cache: &mut self.cache,
        };
        b.subarrays[sub_idx].read_into(&mut ctx, t, out)?;
        let anti = self.anti_columns(bank, sub_idx);
        for (bit, &a) in out.iter_mut().zip(anti) {
            *bit ^= a;
        }
        Ok(())
    }

    /// WRITE: drive *logical* bits through the sense amplifiers into the
    /// open row(s) of the bank's active sub-array, starting at
    /// `start_col`.
    ///
    /// # Errors
    ///
    /// Fails if the bank has no sensed open row or the range is invalid.
    pub fn write(&mut self, bank: usize, start_col: usize, bits: &[bool], t: u64) -> Result<()> {
        self.check_bank(bank)?;
        let env = self.command_env(t);
        let sub_idx = self.banks[bank]
            .active
            .ok_or(ModelError::BankClosed { bank })?;
        let anti = self.anti_columns(bank, sub_idx);
        let physical: Vec<bool> = bits
            .iter()
            .enumerate()
            .map(|(i, &bit)| bit ^ anti[start_col + i])
            .collect();
        let mut ctx = Ctx {
            silicon: &self.silicon,
            env: &env,
            timing: &self.timing,
            noise: &self.noise,
            perf: &mut self.perf,
            cache: &mut self.cache,
        };
        self.banks[bank].subarrays[sub_idx].write(&mut ctx, t, start_col, &physical)
    }

    /// REFRESH: internally activates and restores every materialized row
    /// of the bank, destroying any fractional values stored there.
    ///
    /// # Errors
    ///
    /// Returns an error when `bank` is out of range.
    pub fn refresh(&mut self, bank: usize, t: u64) -> Result<()> {
        self.check_bank(bank)?;
        let rows = self.config.geometry.rows_per_subarray;
        let env = self.command_env(t);
        let b = &mut self.banks[bank];
        for sub in &mut b.subarrays {
            for row in 0..rows {
                let mut ctx = Ctx {
                    silicon: &self.silicon,
                    env: &env,
                    timing: &self.timing,
                    noise: &self.noise,
                    perf: &mut self.perf,
                    cache: &mut self.cache,
                };
                sub.refresh_row(&mut ctx, row, t);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write-prefix snapshot support
    // ------------------------------------------------------------------

    /// Whether a full-row write to sub-array `sub` of `bank` may use the
    /// snapshot fast path: no probes anywhere in the bank, and every
    /// *sibling* sub-array at most waiting on a word-line close.
    ///
    /// A live write program only ever advances the *target* sub-array
    /// (its ACTIVATE fires that sub-array's pending events, in scheduled
    /// order, before opening the row), so [`Chip::drain_bank`] replays
    /// exactly those firings. Temporal noise is a pure function of each
    /// event's fire time and coordinates, so replayed events see the
    /// same noise no matter how many draws happened in between — the
    /// only remaining precondition is that the siblings have nothing
    /// pending with an analog outcome (word-line closes are digital).
    pub fn write_fastpath_ready(&self, bank: usize, sub: usize) -> bool {
        self.banks[bank]
            .subarrays
            .iter()
            .enumerate()
            .all(|(i, s)| !s.has_probes() && (i == sub || s.close_only()))
    }

    /// Whether every sub-array of `bank` is fully idle.
    pub fn bank_idle(&self, bank: usize) -> bool {
        self.banks[bank].subarrays.iter().all(Subarray::is_idle)
    }

    /// Fires every pending event with fire time ≤ `t` in every sub-array
    /// of `bank`.
    pub fn drain_bank(&mut self, bank: usize, t: u64) {
        let env = self.command_env(t);
        for sub in &mut self.banks[bank].subarrays {
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            sub.advance(&mut ctx, t);
        }
    }

    /// Captures the dynamic state of `(bank, sub)` for `rows`, relative
    /// to `anchor`, counting it as a snapshot miss (the live program ran
    /// and was captured for later restores).
    pub fn capture_subarray(
        &mut self,
        bank: usize,
        sub: usize,
        rows: &[usize],
        anchor: u64,
    ) -> SubArrayState {
        let state = self.banks[bank].subarrays[sub].snapshot(rows, anchor);
        self.perf.snapshot_misses += 1;
        self.perf.snapshot_bytes += state.bytes();
        state
    }

    /// Reimposes a capture at `anchor` and re-marks its sub-array as the
    /// bank's active one (what the captured program's ACTIVATE did).
    pub fn restore_subarray(&mut self, state: &SubArrayState, anchor: u64) {
        let bank = state.bank();
        self.banks[bank].subarrays[state.index()].restore(state, anchor);
        self.banks[bank].active = Some(state.index());
        self.perf.snapshot_hits += 1;
    }

    /// Overwrites a restored write prefix with a (possibly different)
    /// full-row *logical* pattern, exactly as [`Chip::write`] would have:
    /// anti-cell columns inverted, rails driven into the row buffer,
    /// bit-lines, and every open row at time `t_write`.
    pub fn rewrite_row(&mut self, bank: usize, sub: usize, bits: &[bool], t_write: u64) {
        let anti = self.anti_columns(bank, sub);
        let physical: Vec<bool> = bits
            .iter()
            .enumerate()
            .map(|(i, &bit)| bit ^ anti[i])
            .collect();
        let vdd = self.env.vdd.value();
        self.banks[bank].subarrays[sub].rewrite_rails(&physical, vdd, t_write);
        // The live write path pins stuck cells after driving the rails;
        // the restore path must do the same to stay bit-exact. (The fast
        // path never engages inside an excursion window, so the base
        // environment is the one in effect.)
        if self.silicon.cell_faults_enabled() {
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            self.banks[bank].subarrays[sub].pin_stuck_open(&mut ctx);
        }
    }

    // ------------------------------------------------------------------
    // Inspection (test bench instruments, not DRAM commands)
    // ------------------------------------------------------------------

    /// Rows currently open in a bank (bank-level numbering), role order.
    pub fn open_rows(&self, bank: usize) -> Vec<usize> {
        let g = &self.config.geometry;
        let Some(b) = self.banks.get(bank) else {
            return Vec::new();
        };
        let Some(sub_idx) = b.active else {
            return Vec::new();
        };
        b.subarrays[sub_idx]
            .open_rows()
            .iter()
            .map(|&local| g.join_row(sub_idx, local))
            .collect()
    }

    /// Direct (oscilloscope-style) view of one cell's voltage at cycle
    /// `t`, leakage applied. This is a simulation instrument; real
    /// hardware cannot do this, which is why the paper needs the
    /// retention / MAJ3 verification methods this crate also supports.
    pub fn probe_cell_voltage(&mut self, addr: RowAddr, col: usize, t: u64) -> Volts {
        let g = self.config.geometry;
        let (sub, local) = g.split_row(addr.row);
        let env = self.env_at(t);
        let mut ctx = Ctx {
            silicon: &self.silicon,
            env: &env,
            timing: &self.timing,
            noise: &self.noise,
            perf: &mut self.perf,
            cache: &mut self.cache,
        };
        self.banks[addr.bank].subarrays[sub].cell_voltage(&mut ctx, local, col, t)
    }

    /// Attaches a voltage probe that records the analog trajectory of a
    /// cell and its bit-line across subsequent commands (Fig. 3 / Fig. 4).
    pub fn attach_probe(&mut self, addr: RowAddr, col: usize) {
        let g = self.config.geometry;
        let (sub, local) = g.split_row(addr.row);
        self.banks[addr.bank].subarrays[sub].attach_probe(local, col);
    }

    /// Collects the samples from all probes in a sub-array.
    pub fn take_probe_samples(&mut self, bank: usize, subarray: usize) -> Vec<Vec<ProbeSample>> {
        self.banks[bank].subarrays[subarray].take_probe_samples()
    }

    /// Ground-truth polarity of a column (true = anti-cells). The paper
    /// reverse-engineers this with retention tests; the simulation exposes
    /// it for validation.
    pub fn is_anti_column(&mut self, bank: usize, subarray: usize, col: usize) -> bool {
        self.anti_columns(bank, subarray)[col]
    }

    /// Ground-truth polarity of every column of a sub-array
    /// (`true` = anti-cells), the buffer the read and write paths
    /// invert logical bits with.
    pub fn anti_columns(&mut self, bank: usize, subarray: usize) -> &[bool] {
        let cols = self.config.geometry.columns;
        self.cache
            .ensure_cols(&self.silicon, &mut self.perf, bank, subarray, cols);
        &self.cache.cols(bank, subarray).anti
    }

    /// The silicon parameter oracle (for experiment analysis).
    pub fn silicon(&self) -> &Silicon {
        &self.silicon
    }
}

fn splitseed(a: u64, b: u64) -> u64 {
    crate::variation::hash_coords(&[a, b])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip(group: GroupId) -> Chip {
        Chip::new(ChipConfig::new(group, 7, Geometry::tiny()))
    }

    /// Writes a row with legal timing starting at cycle `t`; returns the
    /// cycle after the operation.
    fn write_row(c: &mut Chip, addr: RowAddr, bits: &[bool], t: u64) -> u64 {
        c.activate(addr, t).unwrap();
        c.write(addr.bank, 0, bits, t + 10).unwrap();
        c.precharge(addr.bank, t + 20).unwrap();
        t + 30
    }

    fn read_row(c: &mut Chip, addr: RowAddr, t: u64) -> (Vec<bool>, u64) {
        c.activate(addr, t).unwrap();
        let bits = c.read(addr.bank, t + 10).unwrap();
        c.precharge(addr.bank, t + 20).unwrap();
        (bits, t + 30)
    }

    #[test]
    fn logical_roundtrip_through_anti_cells() {
        let mut c = chip(GroupId::B);
        let pattern: Vec<bool> = (0..64).map(|i| (i * 7) % 3 == 0).collect();
        let addr = RowAddr::new(1, 5);
        let t = write_row(&mut c, addr, &pattern, 100);
        let (bits, _) = read_row(&mut c, addr, t);
        assert_eq!(bits, pattern);
        // And the sub-array really does contain anti columns.
        let anti = (0..64).filter(|&col| c.is_anti_column(1, 0, col)).count();
        assert!(anti > 10 && anti < 54, "anti count {anti}");
    }

    #[test]
    fn frac_sequence_works_on_group_b_but_not_group_j() {
        for (group, expect_effect) in [(GroupId::B, true), (GroupId::J, false)] {
            let mut c = chip(group);
            let addr = RowAddr::new(0, 3);
            let ones = vec![true; 64];
            let mut t = write_row(&mut c, addr, &ones, 100);
            let v_before = c.probe_cell_voltage(addr, 0, t);
            // Frac: ACT - PRE back-to-back, then wait out the precharge.
            for _ in 0..3 {
                c.activate(addr, t).unwrap();
                c.precharge(addr.bank, t + 1).unwrap();
                t += 7;
            }
            // Force event resolution by probing later.
            let v_after = c.probe_cell_voltage(addr, 0, t + 100);
            if expect_effect {
                assert!(
                    v_after.value() < v_before.value() - 0.1,
                    "{group}: frac had no effect ({v_after} vs {v_before})"
                );
            } else {
                assert!(
                    (v_after.value() - v_before.value()).abs() < 0.01,
                    "{group}: timing guard failed ({v_after} vs {v_before})"
                );
            }
        }
    }

    #[test]
    fn bank_out_of_range() {
        let mut c = chip(GroupId::B);
        assert!(matches!(
            c.activate(RowAddr::new(99, 0), 0),
            Err(ModelError::BankOutOfRange { .. })
        ));
        assert!(matches!(
            c.precharge(99, 0),
            Err(ModelError::BankOutOfRange { .. })
        ));
    }

    #[test]
    fn row_out_of_range() {
        let mut c = chip(GroupId::B);
        let rows = c.geometry().rows_per_bank();
        assert!(matches!(
            c.activate(RowAddr::new(0, rows), 0),
            Err(ModelError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn read_closed_bank_fails() {
        let mut c = chip(GroupId::B);
        assert!(matches!(c.read(0, 10), Err(ModelError::BankClosed { .. })));
    }

    #[test]
    fn open_rows_reports_multi_row_activation() {
        let mut c = chip(GroupId::B);
        let t = 100;
        c.activate(RowAddr::new(0, 1), t).unwrap();
        c.precharge(0, t + 1).unwrap();
        c.activate(RowAddr::new(0, 2), t + 2).unwrap();
        // Force pending events.
        let _ = c.probe_cell_voltage(RowAddr::new(0, 0), 0, t + 3);
        let mut open = c.open_rows(0);
        open.sort_unstable();
        assert_eq!(open, vec![0, 1, 2]);
    }

    #[test]
    fn refresh_restores_leaky_cells() {
        let mut c = chip(GroupId::B);
        let addr = RowAddr::new(0, 2);
        let t = write_row(&mut c, addr, &[true; 64], 100);
        // Refresh well within retention: data intact afterwards.
        c.refresh(0, t).unwrap();
        let (bits, _) = read_row(&mut c, addr, t + 100);
        assert!(bits.iter().all(|&b| b));
    }

    #[test]
    fn environment_can_change_between_operations() {
        let mut c = chip(GroupId::B);
        assert_eq!(c.environment().vdd, Volts(1.5));
        c.set_environment(Environment::nominal().with_vdd(Volts(1.4)));
        assert_eq!(c.environment().vdd, Volts(1.4));
        // A write/read cycle still round-trips at 1.4 V.
        let addr = RowAddr::new(1, 1);
        let pattern: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let t = write_row(&mut c, addr, &pattern, 100);
        let (bits, _) = read_row(&mut c, addr, t);
        assert_eq!(bits, pattern);
    }

    #[test]
    fn identical_seeds_build_identical_chips() {
        let mut a = chip(GroupId::C);
        let mut b = chip(GroupId::C);
        assert_eq!(a.is_anti_column(0, 0, 5), b.is_anti_column(0, 0, 5));
        assert_eq!(
            a.silicon().sense_offset(0, 0, 9),
            b.silicon().sense_offset(0, 0, 9)
        );
    }
}
