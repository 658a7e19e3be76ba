//! High-level session facade with fractional-state bookkeeping.
//!
//! [`FracDram`] wraps a [`MemoryController`] and tracks which rows
//! currently hold fractional values so the §III-C refresh rule can be
//! enforced: *"whenever we have a fractional value stored in the DRAM
//! array, we need to prevent the issuing of the REFRESH command to rows
//! holding that fractional value"*. Refreshing through this facade
//! fails fast while fractional rows exist (unless explicitly forced),
//! and any operation that re-senses a fractional row clears its marker
//! — fractional values are destroyed by any row activation.
//!
//! [`TrialRunner`] is the repeated-trial harness: the paper's stability
//! and coverage measurements rewrite the same operand rows thousands of
//! times per cell before the one command sequence that varies; the
//! runner scopes those trials, leases them reusable row buffers, and
//! reports the fault events they observed.

use std::collections::BTreeSet;

use fracdram_model::{Cycles, Geometry, GroupId, ModelPerf, Module, RowAddr, Seconds};
use fracdram_softmc::MemoryController;
use fracdram_stats::bits::BitVec;

use crate::error::{FracDramError, Result};
use crate::fmaj::{fmaj, FmajConfig};
use crate::frac::frac_program;
use crate::maj3;
use crate::puf::{self, Challenge};
use crate::rowsets::{Quad, Triplet};

/// The refresh window of DDR3: a row must be refreshed every 64 ms.
/// Applications holding fractional state must complete within it.
pub const REFRESH_WINDOW: Seconds = Seconds(0.064);

/// A FracDRAM session: a memory controller plus fractional-row
/// bookkeeping.
#[derive(Debug)]
pub struct FracDram {
    mc: MemoryController,
    fractional: BTreeSet<(usize, usize)>,
    /// Clock value when the oldest still-tracked fractional value was
    /// created.
    oldest_fractional_at: Option<u64>,
}

impl FracDram {
    /// Takes control of a module.
    pub fn new(module: Module) -> Self {
        FracDram {
            mc: MemoryController::new(module),
            fractional: BTreeSet::new(),
            oldest_fractional_at: None,
        }
    }

    /// The module's DRAM group.
    pub fn group(&self) -> GroupId {
        self.mc.module().profile().group
    }

    /// The module geometry.
    pub fn geometry(&self) -> Geometry {
        *self.mc.module().geometry()
    }

    /// Borrows the underlying controller (programs, traces, stats).
    pub fn controller(&self) -> &MemoryController {
        &self.mc
    }

    /// Mutable access to the underlying controller.
    ///
    /// Out-of-band commands issued here bypass the fractional-row
    /// bookkeeping; prefer the typed methods.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// Releases the module.
    pub fn into_module(self) -> Module {
        self.mc.into_module()
    }

    /// Arms deterministic fault injection on every chip in the module
    /// ([`fracdram_model::FaultConfig`]). Pass
    /// [`fracdram_model::FaultConfig::none`] to disarm.
    pub fn inject_faults(&mut self, config: &fracdram_model::FaultConfig) {
        self.mc.module_mut().set_fault_config(config);
    }

    /// Total injected-fault events observed so far (all classes:
    /// sense flips, stuck-cell pins, decoder dropouts, excursion
    /// commands). Zero while injection is disarmed.
    pub fn fault_events(&self) -> u64 {
        self.mc.model_perf().fault_events()
    }

    /// Rows currently tracked as holding fractional values.
    pub fn fractional_rows(&self) -> Vec<RowAddr> {
        self.fractional
            .iter()
            .map(|&(bank, row)| RowAddr::new(bank, row))
            .collect()
    }

    /// Time elapsed since the oldest tracked fractional value was
    /// created — compare against [`REFRESH_WINDOW`].
    pub fn fractional_age(&self) -> Option<Seconds> {
        self.oldest_fractional_at
            .map(|t| Cycles(self.mc.clock().saturating_sub(t)).to_seconds())
    }

    /// Whether the oldest fractional value has outlived the 64 ms
    /// refresh window (the application budget of §III-C).
    pub fn fractional_overdue(&self) -> bool {
        self.fractional_age()
            .is_some_and(|age| age.value() > REFRESH_WINDOW.value())
    }

    fn mark_fractional(&mut self, row: RowAddr) {
        if self.fractional.insert((row.bank, row.row)) && self.oldest_fractional_at.is_none() {
            self.oldest_fractional_at = Some(self.mc.clock());
        }
    }

    fn clear_fractional(&mut self, row: RowAddr) {
        self.fractional.remove(&(row.bank, row.row));
        if self.fractional.is_empty() {
            self.oldest_fractional_at = None;
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Writes a full row (legal timing). Clears the row's fractional
    /// marker: a write re-senses and overwrites the cells.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn write_row(&mut self, row: RowAddr, bits: &[bool]) -> Result<()> {
        self.mc.write_row(row, bits)?;
        self.clear_fractional(row);
        Ok(())
    }

    /// Reads a full row (legal timing). Reading a fractional row
    /// resolves and destroys its state, so the marker is cleared.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn read_row(&mut self, row: RowAddr) -> Result<Vec<bool>> {
        let bits = self.mc.read_row(row)?;
        self.clear_fractional(row);
        Ok(bits)
    }

    /// Reads a full row into a caller-provided buffer (resized to the
    /// row width) — the allocation-free variant of
    /// [`FracDram::read_row`] for trial hot loops feeding a
    /// [`RowArena`]. Clears the row's fractional marker like any other
    /// read.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn read_row_into(&mut self, row: RowAddr, out: &mut Vec<bool>) -> Result<()> {
        self.mc.read_row_into(row, out)?;
        self.clear_fractional(row);
        Ok(())
    }

    /// Refreshes every bank, but only when no fractional state would be
    /// destroyed.
    ///
    /// # Errors
    ///
    /// Returns [`FracDramError::RefreshWouldDestroyFractional`] while
    /// fractional rows exist; use [`FracDram::refresh_forced`] to
    /// override.
    pub fn refresh(&mut self) -> Result<()> {
        if !self.fractional.is_empty() {
            return Err(FracDramError::RefreshWouldDestroyFractional {
                rows: self.fractional.len(),
            });
        }
        self.mc.refresh_all()?;
        Ok(())
    }

    /// Refreshes every bank unconditionally, destroying all fractional
    /// values (their markers are cleared).
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn refresh_forced(&mut self) -> Result<()> {
        self.mc.refresh_all()?;
        self.fractional.clear();
        self.oldest_fractional_at = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // FracDRAM primitives
    // ------------------------------------------------------------------

    /// Issues `count` Frac operations on `row` and marks it fractional.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::frac::frac`].
    pub fn frac(&mut self, row: RowAddr, count: usize) -> Result<()> {
        crate::frac::require_frac_support(&self.mc)?;
        self.mc.run(&frac_program(row, count))?;
        self.mark_fractional(row);
        Ok(())
    }

    /// Initializes a row and issues Frac operations
    /// ([`crate::frac::store_fractional`]), marking it fractional.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::frac::store_fractional`].
    pub fn store_fractional(&mut self, row: RowAddr, init_ones: bool, count: usize) -> Result<()> {
        crate::frac::store_fractional(&mut self.mc, row, init_ones, count)?;
        self.mark_fractional(row);
        Ok(())
    }

    /// In-memory majority-of-three on a triplet
    /// ([`crate::maj3::maj3`]); the triplet rows are clobbered with the
    /// result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::maj3::maj3`].
    pub fn maj3(&mut self, triplet: &Triplet, operands: [&[bool]; 3]) -> Result<Vec<bool>> {
        let result = maj3::maj3(&mut self.mc, triplet, operands)?;
        let geometry = self.geometry();
        for row in triplet.rows(&geometry) {
            self.clear_fractional(row);
        }
        Ok(result)
    }

    /// F-MAJ on a quad ([`crate::fmaj::fmaj`]): majority-of-three via
    /// four-row activation with a fractional helper row. All four rows
    /// end holding the (sensed, full-rail) result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::fmaj::fmaj`].
    pub fn fmaj(
        &mut self,
        quad: &Quad,
        config: &FmajConfig,
        operands: [&[bool]; 3],
    ) -> Result<Vec<bool>> {
        let result = fmaj(&mut self.mc, quad, config, operands)?;
        let geometry = self.geometry();
        for row in quad.rows(&geometry) {
            self.clear_fractional(row);
        }
        Ok(result)
    }

    /// Half-m with a column mask ([`crate::halfm::halfm_masked`]); the
    /// quad rows are marked fractional.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::halfm::halfm_masked`].
    pub fn halfm_masked(&mut self, quad: &Quad, data: &[bool], mask: &[bool]) -> Result<()> {
        crate::halfm::halfm_masked(&mut self.mc, quad, data, mask)?;
        let geometry = self.geometry();
        for row in quad.rows(&geometry) {
            self.mark_fractional(row);
        }
        Ok(())
    }

    /// Evaluates the Frac-PUF on a challenge ([`crate::puf::evaluate`]).
    /// The read-out destroys the fractional state, so nothing stays
    /// marked.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::puf::evaluate`].
    pub fn puf_response(&mut self, challenge: Challenge) -> Result<BitVec> {
        puf::evaluate(&mut self.mc, challenge)
    }
}

impl From<Module> for FracDram {
    fn from(module: Module) -> Self {
        FracDram::new(module)
    }
}

/// A pool of reusable full-width row buffers for trial hot loops.
///
/// Measurement bodies take buffers at the top of a trial and give them
/// (or buffers produced by the trial, like a consumed read-back row)
/// back at the bottom; after the first trial warms the pool, takes stop
/// allocating. Purely an allocation amortizer — buffer contents carry
/// nothing between trials (every take returns a zeroed row).
#[derive(Debug)]
pub struct RowArena {
    width: usize,
    free: Vec<Vec<bool>>,
}

/// Upper bound on pooled buffers; `give` beyond this drops the buffer
/// so a body returning more rows than it takes cannot grow the pool
/// unboundedly.
const ARENA_CAP: usize = 8;

impl RowArena {
    /// An empty pool of `width`-column row buffers.
    pub fn new(width: usize) -> RowArena {
        RowArena {
            width,
            free: Vec::new(),
        }
    }

    /// A zeroed row buffer — pooled when available, freshly allocated
    /// otherwise.
    pub fn take(&mut self) -> Vec<bool> {
        match self.free.pop() {
            Some(mut row) => {
                row.clear();
                row.resize(self.width, false);
                row
            }
            None => vec![false; self.width],
        }
    }

    /// Returns a buffer to the pool for a later [`RowArena::take`].
    /// Accepts rows of any length (they are re-sized on take) and drops
    /// the buffer once the pool holds [`ARENA_CAP`] rows.
    pub fn give(&mut self, row: Vec<bool>) {
        if self.free.len() < ARENA_CAP {
            self.free.push(row);
        }
    }
}

/// Scopes a repeated-trial measurement over one controller.
///
/// Each trial rewrites its operand rows (a live `write_row` apiece)
/// before the one command sequence that varies. The runner itself only
/// sequences the trials and deltas the fault counters, so a body
/// observes exactly the controller it would have been handed in a
/// hand-written loop.
#[derive(Debug)]
pub struct TrialRunner<'a> {
    mc: &'a mut MemoryController,
    baseline: ModelPerf,
}

impl<'a> TrialRunner<'a> {
    /// Starts a trial scope on `mc`.
    pub fn new(mc: &'a mut MemoryController) -> Self {
        let baseline = mc.model_perf();
        TrialRunner { mc, baseline }
    }

    /// Runs `trials` invocations of `body`, collecting the results in
    /// trial order.
    pub fn run<T>(
        &mut self,
        trials: usize,
        mut body: impl FnMut(&mut MemoryController, usize) -> T,
    ) -> Vec<T> {
        (0..trials).map(|i| body(self.mc, i)).collect()
    }

    /// Like [`TrialRunner::run`], but leases a [`RowArena`] sized to the
    /// module row to the body so trial hot loops recycle their row
    /// buffers instead of allocating per trial. The arena persists
    /// across all trials of the scope.
    pub fn run_arena<T>(
        &mut self,
        trials: usize,
        mut body: impl FnMut(&mut MemoryController, &mut RowArena, usize) -> T,
    ) -> Vec<T> {
        let mut arena = RowArena::new(self.mc.module().row_bits());
        (0..trials).map(|i| body(self.mc, &mut arena, i)).collect()
    }

    /// The controller under measurement.
    pub fn controller(&mut self) -> &mut MemoryController {
        self.mc
    }

    /// Injected-fault events observed since the scope opened — lets a
    /// measurement attribute instability to the fault plan rather than
    /// process variation.
    pub fn fault_events(&self) -> u64 {
        self.mc.model_perf().fault_events() - self.baseline.fault_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracdram_model::{Geometry, ModuleConfig, SubarrayAddr};

    fn session() -> FracDram {
        FracDram::new(Module::new(ModuleConfig::single_chip(
            GroupId::B,
            83,
            Geometry::tiny(),
        )))
    }

    #[test]
    fn refresh_guard_blocks_then_allows() {
        let mut s = session();
        let row = RowAddr::new(0, 6);
        s.store_fractional(row, true, 3).unwrap();
        assert_eq!(s.fractional_rows(), vec![row]);
        let err = s.refresh().unwrap_err();
        assert!(matches!(
            err,
            FracDramError::RefreshWouldDestroyFractional { rows: 1 }
        ));
        // Reading the row destroys (and unmarks) the fractional state.
        s.read_row(row).unwrap();
        assert!(s.fractional_rows().is_empty());
        s.refresh().unwrap();
    }

    #[test]
    fn read_row_into_matches_read_row_and_clears_marker() {
        let mut s = session();
        let mut t = session();
        let row = RowAddr::new(0, 6);
        s.store_fractional(row, true, 3).unwrap();
        t.store_fractional(row, true, 3).unwrap();
        let owned = s.read_row(row).unwrap();
        let mut borrowed = Vec::new();
        t.read_row_into(row, &mut borrowed).unwrap();
        assert_eq!(owned, borrowed);
        assert!(t.fractional_rows().is_empty());
        t.refresh().unwrap();
    }

    #[test]
    fn forced_refresh_clears_markers() {
        let mut s = session();
        s.store_fractional(RowAddr::new(0, 6), true, 2).unwrap();
        s.store_fractional(RowAddr::new(1, 9), false, 2).unwrap();
        assert_eq!(s.fractional_rows().len(), 2);
        s.refresh_forced().unwrap();
        assert!(s.fractional_rows().is_empty());
        assert!(s.fractional_age().is_none());
    }

    #[test]
    fn fractional_age_tracks_oldest() {
        let mut s = session();
        s.store_fractional(RowAddr::new(0, 3), true, 1).unwrap();
        assert!(!s.fractional_overdue());
        s.controller_mut().wait_seconds(Seconds(0.1));
        assert!(s.fractional_overdue(), "0.1 s > 64 ms window");
        let age = s.fractional_age().unwrap();
        assert!(age.value() > 0.09);
    }

    #[test]
    fn write_clears_marker() {
        let mut s = session();
        let row = RowAddr::new(0, 4);
        s.store_fractional(row, true, 2).unwrap();
        s.write_row(row, &[true; 64]).unwrap();
        assert!(s.fractional_rows().is_empty());
    }

    #[test]
    fn maj3_clears_triplet_markers() {
        let mut s = session();
        let t = Triplet::first(&s.geometry(), SubarrayAddr::new(0, 0));
        let geometry = s.geometry();
        s.store_fractional(t.rows(&geometry)[0], true, 2).unwrap();
        let ones = vec![true; 64];
        let zeros = vec![false; 64];
        s.maj3(&t, [&ones, &ones, &zeros]).unwrap();
        assert!(s.fractional_rows().is_empty());
    }

    #[test]
    fn halfm_marks_all_quad_rows() {
        let mut s = session();
        let q = Quad::canonical(&s.geometry(), SubarrayAddr::new(0, 0), GroupId::B).unwrap();
        s.halfm_masked(&q, &[false; 64], &[true; 64]).unwrap();
        assert_eq!(s.fractional_rows().len(), 4);
    }

    #[test]
    fn puf_leaves_no_fractional_state() {
        let mut s = session();
        let r = s.puf_response(Challenge::new(0, 11)).unwrap();
        assert_eq!(r.len(), 64);
        assert!(s.fractional_rows().is_empty());
        s.refresh().unwrap();
    }

    #[test]
    fn session_surfaces_fault_events() {
        let mut s = session();
        assert_eq!(s.fault_events(), 0, "injection disarmed by default");
        s.inject_faults(&fracdram_model::FaultConfig {
            stuck_density: 0.05,
            ..fracdram_model::FaultConfig::none()
        });
        let row = RowAddr::new(0, 2);
        s.write_row(row, &[true; 64]).unwrap();
        s.read_row(row).unwrap();
        assert!(s.fault_events() > 0, "stuck cells pin on every event");
        // A trial scope deltas the counter from its own baseline.
        let before = s.fault_events();
        let mut runner = TrialRunner::new(s.controller_mut());
        runner.run(2, |mc, _| {
            mc.write_row(row, &[false; 64]).unwrap();
            mc.read_row(row).unwrap()
        });
        let scoped = runner.fault_events();
        assert!(scoped > 0);
        assert_eq!(s.fault_events(), before + scoped);
    }

    #[test]
    fn session_from_module() {
        let m = Module::new(ModuleConfig::single_chip(GroupId::C, 1, Geometry::tiny()));
        let s = FracDram::from(m);
        assert_eq!(s.group(), GroupId::C);
    }
}
