//! The software-controlled memory controller.
//!
//! [`MemoryController`] mirrors the role SoftMC plays in the paper's
//! platform (Fig. 5): the host composes [`Program`]s — command sequences
//! with explicit cycle spacing — and the controller issues them to the
//! DRAM module cycle-accurately, *without* enforcing JEDEC timing. A
//! separate checker ([`MemoryController::check`]) reports which
//! constraints a program violates.
//!
//! It also provides conventional, legally timed data-movement helpers
//! ([`MemoryController::write_row`], [`MemoryController::read_row`]) so
//! higher layers only hand-roll programs for the out-of-spec primitives.

use std::collections::HashMap;
use std::sync::Arc;

use fracdram_model::{Cycles, ModelPerf, Module, RowAddr, Seconds};

use crate::command::{CommandKind, DramCommand};
use crate::compiled::{program_hash, CompiledInst, CompiledProgram};
use crate::error::{ControllerError, Result};
use crate::program::Program;
use crate::timing::{check_program, TimingParams, TimingViolation};
use crate::trace::{CommandTrace, CycleStats};

/// Read buffers the controller keeps for recycling (mirrors the trial
/// loops' `RowArena` cap).
const READ_POOL_CAP: usize = 8;

/// Combined observability snapshot of one controller: the command-bus
/// cycle counters and the device-model kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Command counters (ACT/PRE/RD/WR/REF issued).
    pub cycles: CycleStats,
    /// Sub-array kernel counters summed over every chip of the module.
    pub model: ModelPerf,
}

/// Result of executing one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// Data returned by each READ in the program, in issue order.
    pub reads: Vec<Vec<bool>>,
    /// Cycle at which the program started.
    pub start_cycle: u64,
    /// Cycle after the program's last instruction (including its idle
    /// gap) completed.
    pub end_cycle: u64,
    /// Injected-fault events (sense flips, stuck-cell re-pins, decoder
    /// dropouts, excursion-shifted commands) observed during this run.
    /// Zero whenever no fault plan is installed.
    pub fault_events: u64,
}

impl RunOutcome {
    /// Total cycles the program occupied the command bus.
    pub fn cycles(&self) -> Cycles {
        Cycles(self.end_cycle - self.start_cycle)
    }

    /// Consumes the outcome and returns the data of its single READ.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::MissingReadData`] when the program
    /// issued no READ — a structural bug that previously surfaced as a
    /// silently empty row treated by per-column loops as width-0
    /// success.
    pub fn single_read(self) -> Result<Vec<bool>> {
        let got = self.reads.len();
        self.reads
            .into_iter()
            .next()
            .ok_or(ControllerError::MissingReadData { expected: 1, got })
    }
}

/// A cycle-accurate, violation-capable memory controller driving one
/// simulated DRAM module.
#[derive(Debug, Clone)]
pub struct MemoryController {
    module: Module,
    clock: u64,
    timing: TimingParams,
    stats: CycleStats,
    trace: Option<CommandTrace>,
    compiled: HashMap<u64, Arc<CompiledProgram>>,
    anti_masks: HashMap<(usize, usize), Arc<[bool]>>,
    prefix_cache: bool,
    cycle_budget: Option<u64>,
    read_pool: Vec<Vec<bool>>,
}

impl MemoryController {
    /// Takes control of a module. The clock starts at a non-zero cycle so
    /// that "time zero" artifacts cannot hide bugs.
    pub fn new(module: Module) -> Self {
        MemoryController {
            module,
            clock: 1_000,
            timing: TimingParams::default(),
            stats: CycleStats::default(),
            trace: None,
            compiled: HashMap::new(),
            anti_masks: HashMap::new(),
            prefix_cache: true,
            cycle_budget: None,
            read_pool: Vec::new(),
        }
    }

    /// Whether the TRNG refill-prefix snapshot cache is enabled.
    pub fn prefix_caching(&self) -> bool {
        self.prefix_cache
    }

    /// The controlled module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Mutable access to the module (environment changes, probes).
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// The module-level anti-cell mask for every column of a
    /// `(bank, sub-array)` pair — `mask[col]` is true when the cell under
    /// logical column `col` is an anti-cell (stores inverted logic,
    /// §II-C). Polarity is a static, draw-free function of the die seed,
    /// so the mask is materialized once and shared by every pattern
    /// build (PUF init, Frac preparation, TRNG seeding, ...).
    pub fn anti_mask(&mut self, bank: usize, sub: usize) -> Arc<[bool]> {
        if let Some(mask) = self.anti_masks.get(&(bank, sub)) {
            return Arc::clone(mask);
        }
        let chips = self.module.chips().len();
        let mask: Arc<[bool]> = if chips == 1 {
            self.module.chip_mut(0).anti_columns(bank, sub).into()
        } else {
            let per_chip: Vec<Box<[bool]>> = (0..chips)
                .map(|chip| self.module.chip_mut(chip).anti_columns(bank, sub).into())
                .collect();
            (0..self.module.row_bits())
                .map(|col| {
                    let (chip, chip_col) = self.module.map_column(col);
                    per_chip[chip][chip_col]
                })
                .collect()
        };
        self.anti_masks.insert((bank, sub), Arc::clone(&mask));
        mask
    }

    /// Releases the module.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// Current cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The JEDEC timing table used for checking and for the safe helpers.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Always-on command counters.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// Kernel performance counters of the controlled module.
    pub fn model_perf(&self) -> ModelPerf {
        self.module.model_perf()
    }

    /// Snapshot of both counter families for experiment reports.
    pub fn metrics(&self) -> RunMetrics {
        RunMetrics {
            cycles: self.stats,
            model: self.module.model_perf(),
        }
    }

    /// Starts recording a full command trace.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(CommandTrace::new());
        }
    }

    /// Stops tracing and returns the recorded trace (if any).
    pub fn take_trace(&mut self) -> Option<CommandTrace> {
        self.trace.take()
    }

    /// Installs (or clears, with `None`) a per-run cycle budget. Any
    /// subsequent [`MemoryController::run`] / `run_compiled` whose bus
    /// occupancy exceeds the budget aborts mid-program with
    /// [`ControllerError::BudgetExceeded`] — a guardrail against
    /// runaway programs in fault-injection fleets.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.cycle_budget = budget;
    }

    /// The per-run cycle budget, if one is installed.
    pub fn cycle_budget(&self) -> Option<u64> {
        self.cycle_budget
    }

    /// Lets `cycles` pass with no commands on the bus.
    pub fn wait(&mut self, cycles: Cycles) {
        self.clock += cycles.value();
    }

    /// Lets wall-clock time pass (rounded up to whole cycles) — how
    /// retention experiments "stop sending any memory commands in order
    /// to let the charge leak out of the cell" (§V-A).
    pub fn wait_seconds(&mut self, s: Seconds) {
        self.clock += Cycles::from_seconds_ceil(s).value();
    }

    /// Checks a program against JEDEC timing without executing it.
    pub fn check(&self, program: &Program) -> Vec<TimingViolation> {
        check_program(&self.timing, program)
    }

    /// Executes a program with its exact specified timing, violations and
    /// all — the SoftMC contract.
    ///
    /// # Errors
    ///
    /// Fails only on *structural* problems (bad addresses, reads from a
    /// closed bank); timing violations execute with their (defined by the
    /// model, undefined by JEDEC) analog consequences.
    pub fn run(&mut self, program: &Program) -> Result<RunOutcome> {
        let compiled = self.compile_cached(program);
        self.run_compiled(&compiled)
    }

    /// Executes a program only if it is fully JEDEC-compliant.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::TimingViolations`] when the program is
    /// out-of-spec, otherwise behaves like [`MemoryController::run`].
    pub fn run_checked(&mut self, program: &Program) -> Result<RunOutcome> {
        let compiled = self.compile_cached(program);
        if !compiled.violations().is_empty() {
            return Err(ControllerError::TimingViolations(
                compiled.violations().to_vec(),
            ));
        }
        self.run_compiled(&compiled)
    }

    /// Accounts a program that was satisfied from a snapshot restore
    /// instead of live execution: replays its stats and trace records
    /// at their proper issue cycles from `t0` and advances the clock
    /// past its last idle gap — exactly the bookkeeping
    /// [`MemoryController::run`] would have done. The caller is
    /// responsible for having reimposed the equivalent module state
    /// (the TRNG refill-prefix cache uses this).
    pub fn account_restored_program(&mut self, program: &CompiledProgram, t0: u64) {
        let mut t = t0;
        for inst in program.insts() {
            self.stats.record_kind(inst.kind);
            if let Some(trace) = &mut self.trace {
                trace.record(t, inst.trace_op());
            }
            t += 1 + inst.idle_after;
        }
        self.clock = t;
    }

    /// Compiles a program, serving data-free programs from the
    /// hash-keyed compile cache (experiments rebuild the same Frac /
    /// Half-m programs thousands of times).
    fn compile_cached(&mut self, program: &Program) -> Arc<CompiledProgram> {
        let has_write = program
            .instructions()
            .iter()
            .any(|i| matches!(i.command, DramCommand::Write { .. }));
        if has_write {
            return Arc::new(CompiledProgram::compile(&self.timing, program));
        }
        let key = program_hash(program);
        if let Some(c) = self.compiled.get(&key) {
            if c.matches(program) {
                return Arc::clone(c);
            }
        }
        let c = Arc::new(CompiledProgram::compile(&self.timing, program));
        self.compiled.insert(key, Arc::clone(&c));
        c
    }

    /// The interpreter loop over a flattened program: no per-instruction
    /// allocation, and tracing records the compact op instead of cloning
    /// the command.
    fn run_compiled(&mut self, program: &CompiledProgram) -> Result<RunOutcome> {
        let start_cycle = self.clock;
        let faults_on = self.module.faults_enabled();
        let faults_before = if faults_on {
            self.module.model_perf().fault_events()
        } else {
            0
        };
        let mut reads = Vec::with_capacity(program.reads());
        for inst in program.insts() {
            self.step(inst, program.payload(inst), start_cycle, &mut reads)?;
        }
        Ok(RunOutcome {
            reads,
            start_cycle,
            end_cycle: self.clock,
            fault_events: if faults_on {
                self.module.model_perf().fault_events() - faults_before
            } else {
                0
            },
        })
    }

    /// Issues one instruction at the current clock — the interpreter's
    /// only command body: counts and traces it, dispatches it to the
    /// module (`payload` is a WRITE's data, pushing a READ's into
    /// `reads`), advances the clock past its idle gap, and aborts once
    /// the run begun at `start_cycle` overspends the cycle budget.
    fn step(
        &mut self,
        inst: &CompiledInst,
        payload: &[bool],
        start_cycle: u64,
        reads: &mut Vec<Vec<bool>>,
    ) -> Result<()> {
        let t = self.clock;
        self.stats.record_kind(inst.kind);
        if let Some(trace) = &mut self.trace {
            trace.record(t, inst.trace_op());
        }
        match inst.kind {
            CommandKind::Activate => self
                .module
                .activate(RowAddr::new(inst.bank as usize, inst.row as usize), t)?,
            CommandKind::Precharge => self.module.precharge(inst.bank as usize, t)?,
            CommandKind::Read => {
                let mut buf = self.read_pool.pop().unwrap_or_default();
                self.module.read_into(inst.bank as usize, t, &mut buf)?;
                reads.push(buf);
            }
            CommandKind::Write => {
                self.execute_write(inst.bank as usize, inst.start_col as usize, payload, t)?;
            }
            CommandKind::Refresh => self.module.refresh(inst.bank as usize, t)?,
            CommandKind::Nop => {}
        }
        self.clock = t + 1 + inst.idle_after;
        if let Some(budget) = self.cycle_budget {
            let spent = self.clock - start_cycle;
            if spent > budget {
                return Err(ControllerError::BudgetExceeded { budget, spent });
            }
        }
        Ok(())
    }

    fn execute_write(
        &mut self,
        bank: usize,
        start_col: usize,
        bits: &[bool],
        t: u64,
    ) -> Result<()> {
        if start_col == 0 && bits.len() == self.module.row_bits() {
            self.module.write(bank, bits, t)?;
            return Ok(());
        }
        if self.module.chips().len() == 1 {
            self.module.chip_mut(0).write(bank, start_col, bits, t)?;
            return Ok(());
        }
        Err(ControllerError::PartialWriteUnsupported {
            chips: self.module.chips().len(),
        })
    }

    // ------------------------------------------------------------------
    // Legally timed data movement
    // ------------------------------------------------------------------

    /// A JEDEC-compliant program that writes a full row.
    pub fn write_row_program(&self, addr: RowAddr, bits: &[bool]) -> Program {
        let t = &self.timing;
        Program::builder()
            .act(addr)
            .delay(t.t_rcd.value())
            .write(addr.bank, bits.to_vec())
            .delay(t.t_ras.value()) // generous: covers tWR and tRAS
            .pre(addr.bank)
            .delay(t.t_rp.value())
            .build()
    }

    /// A JEDEC-compliant program that reads a full row.
    pub fn read_row_program(&self, addr: RowAddr) -> Program {
        let t = &self.timing;
        Program::builder()
            .act(addr)
            .delay(t.t_rcd.value())
            .read(addr.bank)
            .delay(t.t_ras.value())
            .pre(addr.bank)
            .delay(t.t_rp.value())
            .build()
    }

    /// Enables or disables the TRNG refill-prefix snapshot cache (on by
    /// default). With it off every refill replays its live RowClone
    /// copies — the toggle lets tests prove that restore and replay are
    /// byte-identical.
    pub fn set_prefix_caching(&mut self, enabled: bool) {
        self.prefix_cache = enabled;
    }

    /// Writes a full row with legal timing: issues exactly the ACT, WRITE
    /// and PRE of [`MemoryController::write_row_program`] through the
    /// interpreter, with `bits` as the WRITE payload, without building or
    /// compiling a program (every trial loop in the paper's experiments
    /// rewrites its operand rows this way).
    ///
    /// # Errors
    ///
    /// Fails when the address is out of range or the data width does not
    /// match the module row.
    pub fn write_row(&mut self, addr: RowAddr, bits: &[bool]) -> Result<()> {
        let t = &self.timing;
        let op = |kind, idle_after| CompiledInst {
            kind,
            bank: addr.bank as u32,
            row: 0,
            start_col: 0,
            data_offset: 0,
            data_len: 0,
            idle_after,
        };
        let seq = [
            CompiledInst {
                row: addr.row as u32,
                ..op(CommandKind::Activate, t.t_rcd.value())
            },
            CompiledInst {
                data_len: bits.len() as u32,
                ..op(CommandKind::Write, t.t_ras.value())
            },
            op(CommandKind::Precharge, t.t_rp.value()),
        ];
        let start_cycle = self.clock;
        let mut no_reads = Vec::new();
        for inst in &seq {
            self.step(inst, bits, start_cycle, &mut no_reads)?;
        }
        Ok(())
    }

    /// Reads a full row with legal timing.
    ///
    /// # Errors
    ///
    /// Fails when the address is out of range, or with
    /// [`ControllerError::MissingReadData`] if the read program produced
    /// no data.
    pub fn read_row(&mut self, addr: RowAddr) -> Result<Vec<bool>> {
        let program = self.read_row_program(addr);
        debug_assert!(self.check(&program).is_empty());
        self.run(&program)?.single_read()
    }

    /// [`MemoryController::read_row`] into a caller-provided buffer:
    /// the read lands in `out` (cleared and refilled) and the buffer
    /// `out` previously held is recycled into the controller's read
    /// pool, so a steady-state trial loop performs no read allocations
    /// at all.
    ///
    /// # Errors
    ///
    /// Same contract as [`MemoryController::read_row`].
    pub fn read_row_into(&mut self, addr: RowAddr, out: &mut Vec<bool>) -> Result<()> {
        let program = self.read_row_program(addr);
        debug_assert!(self.check(&program).is_empty());
        let outcome = self.run(&program)?;
        let got = outcome.reads.len();
        let mut filled = outcome
            .reads
            .into_iter()
            .next()
            .ok_or(ControllerError::MissingReadData { expected: 1, got })?;
        std::mem::swap(out, &mut filled);
        self.recycle_read_buffer(filled);
        Ok(())
    }

    /// Hands a spent read buffer back for reuse by later reads (a
    /// bounded pool; excess buffers are simply dropped).
    pub fn recycle_read_buffer(&mut self, buf: Vec<bool>) {
        if self.read_pool.len() < READ_POOL_CAP {
            self.read_pool.push(buf);
        }
    }

    /// Refreshes every bank (destroying all fractional values).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn refresh_all(&mut self) -> Result<()> {
        let banks = self.module.geometry().banks;
        for bank in 0..banks {
            let p = Program::builder()
                .refresh(bank)
                .delay(self.timing.t_rfc.value())
                .build();
            self.run(&p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracdram_model::{Geometry, GroupId, ModuleConfig};

    fn controller(group: GroupId) -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::single_chip(
            group,
            77,
            Geometry::tiny(),
        )))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mc = controller(GroupId::B);
        let width = mc.module().row_bits();
        let pattern: Vec<bool> = (0..width).map(|i| i % 4 != 2).collect();
        let addr = RowAddr::new(0, 7);
        mc.write_row(addr, &pattern).unwrap();
        assert_eq!(mc.read_row(addr).unwrap(), pattern);
    }

    #[test]
    fn clock_advances_by_program_length() {
        let mut mc = controller(GroupId::B);
        let t0 = mc.clock();
        let p = Program::builder().nop().delay(9).build();
        let outcome = mc.run(&p).unwrap();
        assert_eq!(outcome.cycles(), Cycles(10));
        assert_eq!(mc.clock(), t0 + 10);
    }

    #[test]
    fn run_checked_rejects_frac() {
        let mut mc = controller(GroupId::B);
        let frac = Program::builder()
            .act(RowAddr::new(0, 1))
            .pre(0)
            .delay(5)
            .build();
        let err = mc.run_checked(&frac).unwrap_err();
        assert!(matches!(err, ControllerError::TimingViolations(_)));
        // But run() executes it.
        mc.run(&frac).unwrap();
    }

    #[test]
    fn safe_helpers_are_jedec_clean() {
        let mc = controller(GroupId::B);
        let w = mc.write_row_program(RowAddr::new(0, 1), &[true; 64]);
        let r = mc.read_row_program(RowAddr::new(0, 1));
        assert!(mc.check(&w).is_empty(), "{:?}", mc.check(&w));
        assert!(mc.check(&r).is_empty(), "{:?}", mc.check(&r));
    }

    #[test]
    fn frac_program_changes_stored_charge_on_group_b() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 3);
        mc.write_row(addr, &[true; 64]).unwrap();
        // Ten Frac operations.
        for _ in 0..10 {
            let frac = Program::builder().act(addr).pre(0).delay(5).build();
            mc.run(&frac).unwrap();
        }
        // The stored values are now fractional: a read returns a mixture
        // decided by per-column sense offsets, not all ones.
        let bits = mc.read_row(addr).unwrap();
        let ones = bits.iter().filter(|&&b| b).count();
        assert!(ones > 0 && ones < 64, "ones = {ones}");
    }

    #[test]
    fn stats_count_commands() {
        let mut mc = controller(GroupId::B);
        mc.write_row(RowAddr::new(0, 1), &[false; 64]).unwrap();
        let s = *mc.stats();
        assert_eq!(s.activates, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.precharges, 1);
    }

    #[test]
    fn trace_is_opt_in() {
        let mut mc = controller(GroupId::B);
        mc.write_row(RowAddr::new(0, 1), &[false; 64]).unwrap();
        assert!(mc.take_trace().is_none());
        mc.enable_trace();
        mc.read_row(RowAddr::new(0, 1)).unwrap();
        let trace = mc.take_trace().unwrap();
        assert_eq!(trace.len(), 3); // ACT, RD, PRE
    }

    #[test]
    fn wait_seconds_moves_clock() {
        let mut mc = controller(GroupId::B);
        let t0 = mc.clock();
        mc.wait_seconds(Seconds(1.0));
        assert_eq!(mc.clock() - t0, 400_000_000);
    }

    #[test]
    fn retention_experiment_shape() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 2);
        mc.write_row(addr, &[true; 64]).unwrap();
        mc.wait_seconds(Seconds::from_hours(60.0));
        let bits = mc.read_row(addr).unwrap();
        let kept = bits.iter().filter(|&&b| b).count();
        assert!(kept < 64, "no leakage after 60 h");
        assert!(kept > 0, "total loss after 60 h");
    }

    #[test]
    fn partial_write_single_chip_ok_multichip_err() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 1);
        mc.write_row(addr, &[true; 64]).unwrap();
        let p = Program::builder()
            .act(addr)
            .delay(6)
            .write_at(0, 8, vec![false; 8])
            .delay(15)
            .pre(0)
            .delay(6)
            .build();
        mc.run(&p).unwrap();
        let bits = mc.read_row(addr).unwrap();
        assert!(bits[0] && !bits[8] && bits[16]);

        let mut mc8 = MemoryController::new(Module::new(ModuleConfig::rank(
            GroupId::B,
            5,
            Geometry::tiny(),
        )));
        mc8.write_row(RowAddr::new(0, 1), &vec![true; 512]).unwrap();
        let p = Program::builder()
            .act(RowAddr::new(0, 1))
            .delay(6)
            .write_at(0, 8, vec![false; 8])
            .build();
        assert!(matches!(
            mc8.run(&p),
            Err(ControllerError::PartialWriteUnsupported { .. })
        ));
    }

    #[test]
    fn single_read_errors_on_readless_program() {
        let mut mc = controller(GroupId::B);
        let p = Program::builder()
            .act(RowAddr::new(0, 1))
            .delay(20)
            .pre(0)
            .delay(6)
            .build();
        let err = mc.run(&p).unwrap().single_read().unwrap_err();
        assert!(matches!(
            err,
            ControllerError::MissingReadData {
                expected: 1,
                got: 0
            }
        ));
    }

    #[test]
    fn single_read_returns_first_read() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 7);
        mc.write_row(addr, &[true; 64]).unwrap();
        let p = mc.read_row_program(addr);
        let outcome = mc.run(&p).unwrap();
        assert_eq!(outcome.single_read().unwrap(), vec![true; 64]);
    }

    #[test]
    fn compiled_programs_are_cached_by_hash() {
        let mut mc = controller(GroupId::B);
        let frac = Program::builder()
            .act(RowAddr::new(0, 1))
            .pre(0)
            .delay(5)
            .build();
        mc.run(&frac).unwrap();
        mc.run(&frac).unwrap();
        // Rebuilt-but-identical program shares the same compiled entry.
        let rebuilt = Program::builder()
            .act(RowAddr::new(0, 1))
            .pre(0)
            .delay(5)
            .build();
        mc.run(&rebuilt).unwrap();
        assert_eq!(mc.compiled.len(), 1);
        // A different program compiles to a second entry; `write_row`
        // compiles nothing.
        mc.read_row(RowAddr::new(0, 1)).unwrap();
        mc.write_row(RowAddr::new(0, 2), &[true; 64]).unwrap();
        assert_eq!(mc.compiled.len(), 2);
    }

    #[test]
    fn read_row_into_recycles_buffers() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 7);
        let width = mc.module().row_bits();
        let pattern: Vec<bool> = (0..width).map(|i| i % 4 != 2).collect();
        mc.write_row(addr, &pattern).unwrap();

        let mut plain = controller(GroupId::B);
        plain.write_row(addr, &pattern).unwrap();

        let mut buf = Vec::new();
        mc.read_row_into(addr, &mut buf).unwrap();
        assert_eq!(buf, plain.read_row(addr).unwrap());
        // Round-trip again: the recycled buffer serves the next read.
        mc.read_row_into(addr, &mut buf).unwrap();
        assert_eq!(buf, plain.read_row(addr).unwrap());
        assert_eq!(mc.clock(), plain.clock());
        assert_eq!(mc.stats(), plain.stats());
    }

    #[test]
    fn run_checked_uses_cached_violations() {
        let mut mc = controller(GroupId::B);
        let frac = Program::builder()
            .act(RowAddr::new(0, 1))
            .pre(0)
            .delay(5)
            .build();
        mc.run(&frac).unwrap(); // populates the compile cache
        let err = mc.run_checked(&frac).unwrap_err();
        assert!(matches!(err, ControllerError::TimingViolations(_)));
    }

    #[test]
    fn refresh_all_runs() {
        let mut mc = controller(GroupId::B);
        mc.write_row(RowAddr::new(1, 3), &[true; 64]).unwrap();
        mc.refresh_all().unwrap();
        assert_eq!(mc.read_row(RowAddr::new(1, 3)).unwrap(), vec![true; 64]);
    }

    #[test]
    fn cycle_budget_aborts_overlong_runs() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 1);
        // A short out-of-spec program fits in a small budget.
        mc.set_cycle_budget(Some(100));
        assert_eq!(mc.cycle_budget(), Some(100));
        let frac = Program::builder().act(addr).pre(0).delay(5).build();
        mc.run(&frac).unwrap();
        // A full write program does not fit in 10 cycles; the run aborts
        // mid-program with a typed error.
        mc.set_cycle_budget(Some(10));
        let err = mc.write_row(addr, &[true; 64]).unwrap_err();
        match err {
            ControllerError::BudgetExceeded { budget, spent } => {
                assert_eq!(budget, 10);
                assert!(spent > 10, "spent = {spent}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Clearing the budget restores normal operation.
        mc.set_cycle_budget(None);
        mc.write_row(addr, &[true; 64]).unwrap();
        assert_eq!(mc.read_row(addr).unwrap(), vec![true; 64]);
    }

    #[test]
    fn run_outcome_counts_fault_events() {
        use fracdram_model::FaultConfig;
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 1);
        mc.write_row(addr, &[true; 64]).unwrap();
        let p = mc.read_row_program(addr);
        // No plan installed: the counter stays zero.
        assert_eq!(mc.run(&p).unwrap().fault_events, 0);
        mc.module_mut().set_fault_config(&FaultConfig {
            sense_flip_rate: 0.2,
            ..FaultConfig::none()
        });
        // 64 columns at a ~0.2 mean flip rate: some flips are all but
        // certain, and they land in this run's outcome.
        let out = mc.run(&p).unwrap();
        assert!(out.fault_events > 0, "no fault events recorded");
        assert_eq!(mc.model_perf().fault_sense_flips, out.fault_events);
        // Back to a disabled config: the plan is dropped, counters stop.
        mc.module_mut().set_fault_config(&FaultConfig::none());
        assert_eq!(mc.run(&p).unwrap().fault_events, 0);
    }

    /// One equivalence case: a controller setup under which `write_row`
    /// and `run(&write_row_program(..))` must stay indistinguishable.
    struct WriteCase {
        name: &'static str,
        group: GroupId,
        chips: usize,
        faults: fracdram_model::FaultConfig,
        budget: Option<u64>,
        /// Temperature shift (°C) applied to the base environment after
        /// the first write.
        env_shift_c: f64,
    }

    fn write_case(name: &'static str, group: GroupId, chips: usize) -> WriteCase {
        WriteCase {
            name,
            group,
            chips,
            faults: fracdram_model::FaultConfig::none(),
            budget: None,
            env_shift_c: 0.0,
        }
    }

    /// `write_row` issues exactly what running its program does: for
    /// every case the direct path and `run(&write_row_program(..))` leave
    /// the same stats, trace, clock, errors and every cell voltage, bit
    /// for bit. The writes carry random bits and are interleaved with
    /// out-of-spec Fracs, reads, (on one chip) a partial write and a walk
    /// through every excursion window of the case's fault plan.
    fn assert_write_row_matches_program(cases: &[WriteCase]) {
        use fracdram_model::variation::splitmix64;

        let addr = RowAddr::new(0, 3);
        let mut seed = 0x5EED_u64;
        let mut random_bits = |n: usize| -> Vec<bool> {
            (0..n)
                .map(|_| {
                    seed = splitmix64(seed);
                    seed & 1 == 1
                })
                .collect()
        };
        for case in cases {
            let mut mcs: Vec<MemoryController> = (0..2)
                .map(|_| {
                    let mut mc = MemoryController::new(Module::new(ModuleConfig {
                        chips: case.chips,
                        ..ModuleConfig::single_chip(case.group, 77, Geometry::tiny())
                    }));
                    mc.module_mut().set_fault_config(&case.faults);
                    mc.set_cycle_budget(case.budget);
                    mc.enable_trace();
                    mc
                })
                .collect();
            let width = mcs[0].module().row_bits();
            let windows = mcs[0].module().chips()[0]
                .fault_plan()
                .map(|p| p.windows().to_vec())
                .unwrap_or_default();
            let patterns: Vec<Vec<bool>> = (0..4).map(|_| random_bits(width)).collect();
            let partial = random_bits(24);
            let frac = Program::builder().act(addr).pre(0).delay(5).build();

            let mut outcomes = Vec::new();
            for (via_program, mc) in [false, true].into_iter().zip(&mut mcs) {
                let write = |mc: &mut MemoryController, bits: &[bool]| {
                    if via_program {
                        let program = mc.write_row_program(addr, bits);
                        mc.run(&program).map(|_| ())
                    } else {
                        mc.write_row(addr, bits)
                    }
                };
                let mut log = vec![write(mc, &patterns[0]).map(|()| Vec::new())];
                if case.budget.is_some() {
                    // The abort leaves the same partial state on both
                    // sides; lift the budget and carry on from there.
                    mc.set_cycle_budget(None);
                }
                if case.env_shift_c != 0.0 {
                    let mut env = *mc.module().environment();
                    env.temperature_c += case.env_shift_c;
                    mc.module_mut().set_environment(env);
                }
                log.push(write(mc, &patterns[1]).map(|()| Vec::new()));
                if case.chips == 1 {
                    let t = *mc.timing();
                    let p = Program::builder()
                        .act(addr)
                        .delay(t.t_rcd.value())
                        .write_at(0, 21, partial.clone())
                        .delay(t.t_ras.value())
                        .pre(0)
                        .delay(t.t_rp.value())
                        .build();
                    mc.run(&p).unwrap();
                    let got = mc.read_row(addr).unwrap();
                    if !mc.module().faults_enabled() {
                        assert_eq!(got[21..45], partial[..], "{}", case.name);
                    }
                    log.push(Ok(got));
                }
                mc.run(&frac).unwrap();
                log.push(mc.read_row(addr));
                // March through every excursion window: a write inside
                // it, then one after it closes.
                for w in &windows {
                    let now = mc.clock();
                    mc.wait(Cycles(w.start.saturating_sub(now)));
                    log.push(write(mc, &patterns[2]).map(|()| Vec::new()));
                    mc.run(&frac).unwrap();
                    log.push(mc.read_row(addr));
                    let now = mc.clock();
                    mc.wait(Cycles(w.end.saturating_sub(now)));
                    log.push(write(mc, &patterns[3]).map(|()| Vec::new()));
                    log.push(mc.read_row(addr));
                }
                outcomes.push(log);
            }
            if case.budget.is_some() {
                assert!(
                    matches!(
                        outcomes[0][0],
                        Err(ControllerError::BudgetExceeded { budget: 10, .. })
                    ),
                    "{}: {:?}",
                    case.name,
                    outcomes[0][0]
                );
            }
            assert_eq!(outcomes[0], outcomes[1], "{}", case.name);
            let [direct, program] = &mut mcs[..] else {
                unreachable!()
            };
            assert_eq!(direct.clock(), program.clock(), "{}", case.name);
            assert_eq!(direct.stats(), program.stats(), "{}", case.name);
            let (ta, tb) = (direct.take_trace(), program.take_trace());
            assert_eq!(
                ta.as_ref().map(ToString::to_string),
                tb.as_ref().map(ToString::to_string),
                "{}",
                case.name
            );
            assert_eq!(ta, tb, "{}", case.name);
            let (a, b) = (direct.model_perf(), program.model_perf());
            assert_eq!(a.noise_draws, b.noise_draws, "{}", case.name);
            assert_eq!(a.fault_events(), b.fault_events(), "{}", case.name);
            let t = direct.clock() + 1_000;
            let rows = direct.module().geometry().rows_per_bank();
            for row in 0..rows {
                let cell = RowAddr::new(addr.bank, row);
                for col in 0..width {
                    let va = direct.module_mut().probe_cell_voltage(cell, col, t);
                    let vb = program.module_mut().probe_cell_voltage(cell, col, t);
                    assert_eq!(
                        va.value().to_bits(),
                        vb.value().to_bits(),
                        "{}: row {row} col {col}",
                        case.name
                    );
                }
            }
        }
    }

    /// The write prefix of a trial (operand writes before the one
    /// sequence that varies) is replayed live, never restored: on groups
    /// B and C and on a timing-guarded group, `write_row` matches running
    /// its program.
    #[test]
    fn write_prefix_restore_matches_replay() {
        assert_write_row_matches_program(&[
            write_case("group B", GroupId::B, 1),
            write_case("group C", GroupId::C, 1),
            write_case("timing-guarded group J", GroupId::J, 1),
        ]);
    }

    /// Command trace (and its rendering) and stats are identical between
    /// `write_row` and its program on a 4-chip module and when a cycle
    /// budget aborts the write mid-sequence.
    #[test]
    fn trace_and_stats_identical_across_restore_and_replay() {
        assert_write_row_matches_program(&[
            write_case("4-chip module", GroupId::B, 4),
            WriteCase {
                budget: Some(10),
                ..write_case("budget abort mid-sequence", GroupId::B, 1)
            },
        ]);
    }

    /// A write after the environment changes sees the new environment,
    /// exactly as running the write program does.
    #[test]
    fn write_prefix_cache_respects_environment_changes() {
        assert_write_row_matches_program(&[WriteCase {
            env_shift_c: 25.0,
            ..write_case("environment shifted by 25 °C", GroupId::B, 1)
        }]);
    }

    /// Writes inside an excursion window and after it closes match
    /// running the write program.
    #[test]
    fn write_prefix_cache_refuses_fault_windows() {
        use fracdram_model::FaultConfig;
        let faults = FaultConfig {
            excursions: 1,
            excursion_cycles: 5_000,
            excursion_span: 500_000,
            excursion_temp_delta: 25.0,
            ..FaultConfig::none()
        };
        // The case only means something if the plan places its window.
        let mut mc = controller(GroupId::B);
        mc.module_mut().set_fault_config(&faults);
        assert_eq!(
            mc.module().chips()[0].fault_plan().unwrap().windows().len(),
            1
        );
        assert_write_row_matches_program(&[WriteCase {
            faults,
            ..write_case("one excursion window", GroupId::B, 1)
        }]);
    }

    /// Under a full fault plan (stuck and weak cells, sense flips, two
    /// excursion windows) `write_row` and its program stay bit-identical.
    #[test]
    fn write_prefix_restore_matches_replay_under_faults() {
        use fracdram_model::FaultConfig;
        assert_write_row_matches_program(&[WriteCase {
            faults: FaultConfig {
                stuck_density: 0.02,
                weak_density: 0.05,
                sense_flip_rate: 0.01,
                excursions: 2,
                excursion_cycles: 3_000,
                excursion_span: 120_000,
                excursion_temp_delta: 20.0,
                excursion_vdd_delta: 0.05,
                ..FaultConfig::none()
            },
            ..write_case("fault plan with excursion windows", GroupId::B, 1)
        }]);
    }
}
