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

use fracdram_model::snapshot::ModuleWriteSnapshot;
use fracdram_model::{BroadcastOp, Cycles, ModelPerf, Module, RowAddr, Seconds};

use crate::command::{CommandKind, DramCommand};
use crate::compiled::{program_hash, CompiledProgram};
use crate::error::{ControllerError, Result};
use crate::program::Program;
use crate::sched::{self, ScheduleEntry};
use crate::timing::{check_program, TimingParams, TimingViolation};
use crate::trace::{CommandTrace, CycleStats, TraceOp};

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

/// One cached full-row write prefix: the module state the write program
/// left behind plus the command offsets needed to rebase its trace and
/// clock effects onto a later anchor cycle.
#[derive(Debug, Clone)]
struct WriteCacheEntry {
    snap: ModuleWriteSnapshot,
    /// WRITE issue offset from the program start (ACT issues at 0).
    write_off: u64,
    /// PRECHARGE issue offset from the program start.
    pre_off: u64,
    /// Total bus cycles the program occupies.
    total_cycles: u64,
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
    write_cache: HashMap<(usize, usize), WriteCacheEntry>,
    anti_masks: HashMap<(usize, usize), Arc<[bool]>>,
    prefix_cache: bool,
    cycle_budget: Option<u64>,
    intra_jobs: usize,
    sched: bool,
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
            write_cache: HashMap::new(),
            anti_masks: HashMap::new(),
            prefix_cache: true,
            cycle_budget: None,
            intra_jobs: 1,
            sched: true,
            read_pool: Vec::new(),
        }
    }

    /// Enables or disables the cross-bank scheduler (on by default).
    /// Disabled, [`MemoryController::run_scheduled`] degrades to a
    /// plain sequential `run` loop with no scheduler counters — the
    /// `--sched off` escape hatch. Execution is byte-identical either
    /// way (see `run_scheduled`); only the counters move.
    pub fn set_sched(&mut self, enabled: bool) {
        self.sched = enabled;
    }

    /// Whether the cross-bank scheduler is enabled.
    pub fn sched_enabled(&self) -> bool {
        self.sched
    }

    /// Whether prefix snapshot caching is enabled (shared toggle for
    /// the write-prefix cache and the TRNG refill-prefix cache).
    pub fn prefix_caching(&self) -> bool {
        self.prefix_cache
    }

    /// Sets the intra-module worker count. With more than one worker
    /// and a multi-chip module, compiled programs execute their chips
    /// on parallel scoped threads — byte-exact with sequential
    /// execution by construction (chips share no mutable state and
    /// temporal noise is keyed on event fire times).
    pub fn set_intra_jobs(&mut self, jobs: usize) {
        self.intra_jobs = jobs.max(1);
    }

    /// The configured intra-module worker count.
    pub fn intra_jobs(&self) -> usize {
        self.intra_jobs
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

    /// Executes a batch of independent programs through the cross-bank
    /// scheduler, demuxing one [`RunOutcome`] per program (input
    /// order).
    ///
    /// The scheduler ([`crate::sched::merge`]) interleaves the batch
    /// into one command stream — bank-disjoint programs fill each
    /// other's tRCD/tRP idle ticks — and audits it against the JEDEC
    /// table; `sched_merges` / `sched_overlapped_ticks` count the
    /// reclaimed bus occupancy. Device execution then proceeds
    /// per-bank: each program's commands run at their
    /// sequential-equivalent issue cycles, which is byte-identical to
    /// interleaved execution because banks share no state and every
    /// analog draw is a pure function of its own bank's command times
    /// (the same per-bank-independence argument `sched::audit`
    /// verifies; see DESIGN.md). That is also what makes `--sched off`
    /// and jobs-N replays byte-identical by construction.
    ///
    /// Falls back to a plain sequential loop (counting
    /// `sched_fallbacks`) when the batch shares a bank, has fewer than
    /// two programs, or the vendor profile has a command-timing guard
    /// (guarded groups resolve their own effective times, so bus-level
    /// overlap accounting would be fiction).
    ///
    /// # Errors
    ///
    /// Fails like [`MemoryController::run`] on the first structurally
    /// invalid program; earlier programs in the batch remain executed.
    pub fn run_scheduled(&mut self, programs: &[Program]) -> Result<Vec<RunOutcome>> {
        let compiled: Vec<Arc<CompiledProgram>> =
            programs.iter().map(|p| self.compile_cached(p)).collect();
        if self.sched && compiled.len() >= 2 {
            if self.module.profile().timing_guard {
                self.module.record_sched(0, 0, 1);
            } else {
                let entries: Vec<ScheduleEntry<'_>> = compiled
                    .iter()
                    .enumerate()
                    .map(|(i, c)| ScheduleEntry {
                        space: 0,
                        order: i as u64,
                        program: c,
                    })
                    .collect();
                match sched::merge(&entries) {
                    Some(schedule) => {
                        debug_assert!(
                            sched::audit(&self.timing, &entries, &schedule).is_empty(),
                            "scheduler produced a timing-violating interleave"
                        );
                        self.module.record_sched(1, schedule.overlapped_ticks(), 0);
                    }
                    None => self.module.record_sched(0, 0, 1),
                }
            }
        }
        compiled.iter().map(|c| self.run_compiled(c)).collect()
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
        if self.intra_jobs > 1 && self.module.chips().len() > 1 {
            if let Some((ops, times)) = self.plan_intra_ops(program, start_cycle) {
                return self.run_compiled_intra(
                    program,
                    &ops,
                    &times,
                    start_cycle,
                    faults_on,
                    faults_before,
                );
            }
        }
        let mut reads = Vec::with_capacity(program.reads());
        for inst in program.insts() {
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
                    let bits = program.payload(inst);
                    self.execute_write(inst.bank as usize, inst.start_col as usize, bits, t)?;
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

    /// Pre-times a compiled program for the chip-parallel path: one
    /// [`BroadcastOp`] and issue cycle per instruction (the clock
    /// evolution is payload-independent, so it can run ahead of
    /// execution). Returns `None` when the program must run
    /// sequentially instead: a write that is not a full module row, or
    /// a cycle budget the program would blow mid-run (the abort has to
    /// leave the same partially-executed state a sequential run does).
    fn plan_intra_ops(
        &self,
        program: &CompiledProgram,
        start: u64,
    ) -> Option<(Vec<BroadcastOp>, Vec<u64>)> {
        let width = self.module.row_bits();
        let mut ops = Vec::with_capacity(program.insts().len());
        let mut times = Vec::with_capacity(program.insts().len());
        let mut clock = start;
        for inst in program.insts() {
            let t = clock;
            times.push(t);
            let bank = inst.bank as usize;
            ops.push(match inst.kind {
                CommandKind::Activate => BroadcastOp::Activate {
                    addr: RowAddr::new(bank, inst.row as usize),
                    t,
                },
                CommandKind::Precharge => BroadcastOp::Precharge { bank, t },
                CommandKind::Read => BroadcastOp::Read { bank, t },
                CommandKind::Write => {
                    let bits = program.payload(inst);
                    if inst.start_col != 0 || bits.len() != width {
                        return None;
                    }
                    BroadcastOp::Write {
                        bank,
                        per_chip: self.module.stripe(bits),
                        t,
                    }
                }
                CommandKind::Refresh => BroadcastOp::Refresh { bank, t },
                CommandKind::Nop => BroadcastOp::Nop,
            });
            clock = t + 1 + inst.idle_after;
            if let Some(budget) = self.cycle_budget {
                if clock - start > budget {
                    return None;
                }
            }
        }
        Some((ops, times))
    }

    /// The chip-parallel twin of the interpreter loop: hands the
    /// pre-timed ops to [`Module::run_ops`], then records stats, trace,
    /// and clock exactly as the sequential loop would have — for the
    /// whole program on success, up to and including the failing
    /// instruction on error.
    fn run_compiled_intra(
        &mut self,
        program: &CompiledProgram,
        ops: &[BroadcastOp],
        times: &[u64],
        start_cycle: u64,
        faults_on: bool,
        faults_before: u64,
    ) -> Result<RunOutcome> {
        match self.module.run_ops(ops, self.intra_jobs) {
            Ok(reads) => {
                for (inst, &t) in program.insts().iter().zip(times) {
                    self.stats.record_kind(inst.kind);
                    if let Some(trace) = &mut self.trace {
                        trace.record(t, inst.trace_op());
                    }
                }
                self.clock = match program.insts().last() {
                    Some(last) => times[times.len() - 1] + 1 + last.idle_after,
                    None => start_cycle,
                };
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
            Err((op_idx, e)) => {
                for (inst, &t) in program.insts().iter().zip(times).take(op_idx + 1) {
                    self.stats.record_kind(inst.kind);
                    if let Some(trace) = &mut self.trace {
                        trace.record(t, inst.trace_op());
                    }
                }
                self.clock = times[op_idx];
                Err(e.into())
            }
        }
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

    /// Enables or disables the write-prefix snapshot cache (on by
    /// default). Disabling drops any captures, so every subsequent
    /// full-row write replays its complete program — the toggle lets
    /// tests prove that restore and replay are byte-identical.
    pub fn set_prefix_caching(&mut self, enabled: bool) {
        self.prefix_cache = enabled;
        if !enabled {
            self.write_cache.clear();
        }
    }

    /// Writes a full row with legal timing.
    ///
    /// Repeated full-row writes to the same (bank, row) are the shared
    /// prefix of every trial loop in the paper's experiments, so the
    /// controller caches the module state the write program leaves
    /// behind and restores it (rebased to the current clock, re-railed
    /// to the new pattern) instead of replaying the program. The fast
    /// path only engages when it is provably equivalent: no timing
    /// guard, the target bank fully idle once pending closes drain, no
    /// probes attached, and the environment unchanged since capture.
    ///
    /// # Errors
    ///
    /// Fails when the address is out of range or the data width does not
    /// match the module row.
    pub fn write_row(&mut self, addr: RowAddr, bits: &[bool]) -> Result<()> {
        let (sub, local) = self.module.geometry().split_row(addr.row);
        let write_off = 1 + self.timing.t_rcd.value();
        let pre_off = write_off + 1 + self.timing.t_ras.value();
        let total_cycles = pre_off + 1 + self.timing.t_rp.value();
        if self.prefix_cache
            && bits.len() == self.module.row_bits()
            && self.module.write_fastpath_eligible(addr.bank, sub)
            // Snapshots assume a static analog environment across the
            // whole program. An injected excursion window overlapping
            // [t0, t0 + total) would shift what a live replay does (a
            // capture would also bake excursion state under the base
            // environment key), so both capture and restore are
            // disabled inside one — fall through to a plain replay.
            && self
                .module
                .fault_windows_clear(self.clock, self.clock + total_cycles)
            // A budget the program cannot meet must surface as the same
            // mid-program abort the live replay produces.
            && self.cycle_budget.is_none_or(|b| total_cycles <= b)
        {
            let t0 = self.clock;
            // Fire the bank's pending events at t0 — exactly where the
            // write program's ACT would have fired them lazily.
            self.module.drain_bank(addr.bank, t0);
            if self.module.bank_idle(addr.bank) {
                let key = (addr.bank, addr.row);
                let hit = match self.write_cache.get(&key) {
                    Some(e) => e.snap.environment() == self.module.environment(),
                    None => false,
                };
                if hit {
                    let entry = &self.write_cache[&key];
                    let t_write = t0 + entry.write_off;
                    self.module
                        .restore_write_snapshot(&entry.snap, t0, bits, t_write)?;
                    self.stats.record_kind(CommandKind::Activate);
                    self.stats.record_kind(CommandKind::Write);
                    self.stats.record_kind(CommandKind::Precharge);
                    if let Some(trace) = &mut self.trace {
                        let bank = addr.bank as u32;
                        let mut op = TraceOp {
                            kind: CommandKind::Activate,
                            bank,
                            row: addr.row as u32,
                            start_col: 0,
                            len: 0,
                        };
                        trace.record(t0, op);
                        op.kind = CommandKind::Write;
                        op.row = 0;
                        op.len = bits.len() as u32;
                        trace.record(t_write, op);
                        op.kind = CommandKind::Precharge;
                        op.len = 0;
                        trace.record(t0 + entry.pre_off, op);
                    }
                    self.clock = t0 + entry.total_cycles;
                    return Ok(());
                }
                // Miss (or stale environment): replay live, then capture
                // the state the program left for the next write.
                let program = self.write_row_program(addr, bits);
                debug_assert!(self.check(&program).is_empty());
                self.run(&program)?;
                let snap = self
                    .module
                    .capture_write_snapshot(addr.bank, sub, local, t0);
                debug_assert_eq!(self.clock, t0 + total_cycles);
                self.write_cache.insert(
                    key,
                    WriteCacheEntry {
                        snap,
                        write_off,
                        pre_off,
                        total_cycles,
                    },
                );
                return Ok(());
            }
        }
        let program = self.write_row_program(addr, bits);
        debug_assert!(self.check(&program).is_empty());
        self.run(&program)?;
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
    fn intra_jobs_execution_is_byte_identical() {
        let rank = || {
            MemoryController::new(Module::new(ModuleConfig::rank(
                GroupId::B,
                5,
                Geometry::tiny(),
            )))
        };
        let mut seq = rank();
        let mut par = rank();
        par.set_intra_jobs(4);
        assert_eq!(par.intra_jobs(), 4);
        let addr = RowAddr::new(0, 3);
        let width = seq.module().row_bits();
        let pattern: Vec<bool> = (0..width).map(|i| i % 3 != 0).collect();
        let frac = Program::builder().act(addr).pre(0).delay(5).build();
        let mut reads = Vec::new();
        for mc in [&mut seq, &mut par] {
            mc.enable_trace();
            mc.write_row(addr, &pattern).unwrap();
            mc.run(&frac).unwrap();
            reads.push(mc.read_row(addr).unwrap());
            mc.refresh_all().unwrap();
            reads.push(mc.read_row(addr).unwrap());
        }
        assert_eq!(reads[0], reads[2]);
        assert_eq!(reads[1], reads[3]);
        assert_eq!(seq.clock(), par.clock());
        assert_eq!(seq.stats(), par.stats());
        // Event/draw counts must match exactly; wall-time counters
        // legitimately differ between runs.
        let strip_ns = |mut p: ModelPerf| {
            p.share_ns = 0;
            p.sense_ns = 0;
            p.close_ns = 0;
            p.leak_ns = 0;
            p.noise_ns = 0;
            p
        };
        assert_eq!(strip_ns(seq.model_perf()), strip_ns(par.model_perf()));
        assert_eq!(
            format!("{:?}", seq.take_trace().unwrap()),
            format!("{:?}", par.take_trace().unwrap())
        );
        for col in [0, 17, width - 1] {
            let t = seq.clock() + 1_000;
            assert_eq!(
                seq.module_mut().probe_cell_voltage(addr, col, t),
                par.module_mut().probe_cell_voltage(addr, col, t),
                "col {col}"
            );
        }
    }

    #[test]
    fn intra_jobs_budget_abort_matches_sequential() {
        let rank = || {
            let mut mc = MemoryController::new(Module::new(ModuleConfig::rank(
                GroupId::B,
                5,
                Geometry::tiny(),
            )));
            mc.set_cycle_budget(Some(10));
            mc
        };
        let mut seq = rank();
        let mut par = rank();
        par.set_intra_jobs(4);
        let p = Program::builder()
            .act(RowAddr::new(0, 1))
            .delay(6)
            .pre(0)
            .delay(20)
            .build();
        let a = seq.run(&p);
        let b = par.run(&p);
        assert!(matches!(a, Err(ControllerError::BudgetExceeded { .. })));
        assert!(matches!(b, Err(ControllerError::BudgetExceeded { .. })));
        assert_eq!(seq.clock(), par.clock());
        assert_eq!(seq.stats(), par.stats());
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
        // A different program compiles to a second entry; a write-bearing
        // program is compiled on the fly and never cached.
        mc.read_row(RowAddr::new(0, 1)).unwrap();
        mc.write_row(RowAddr::new(0, 2), &[true; 64]).unwrap();
        assert_eq!(mc.compiled.len(), 2);
    }

    /// The tentpole equivalence claim: a scheduled batch produces the
    /// same reads, clock, stats, and device state as running its
    /// programs back to back — with or without `--sched` — while the
    /// scheduler counters record the reclaimed bus occupancy.
    #[test]
    fn run_scheduled_matches_sequential_run() {
        let prep = |mc: &mut MemoryController| {
            mc.write_row(RowAddr::new(0, 1), &[true; 64]).unwrap();
            mc.write_row(RowAddr::new(1, 2), &[false; 64]).unwrap();
        };
        let batch = |mc: &MemoryController| {
            vec![
                mc.read_row_program(RowAddr::new(0, 1)),
                mc.read_row_program(RowAddr::new(1, 2)),
                Program::builder()
                    .act(RowAddr::new(0, 1))
                    .pre(0)
                    .delay(5)
                    .build(),
            ]
        };

        let mut scheduled = controller(GroupId::B);
        let mut sequential = controller(GroupId::B);
        let mut disabled = controller(GroupId::B);
        disabled.set_sched(false);
        assert!(!disabled.sched_enabled());
        for mc in [&mut scheduled, &mut sequential, &mut disabled] {
            prep(mc);
        }

        // Banks 0 and 1 are disjoint across the first two programs, but
        // program 3 shares bank 0 with program 1 → that batch must fall
        // back. Split so both paths are exercised.
        let programs = batch(&scheduled);
        let sched_out = scheduled.run_scheduled(&programs[..2]).unwrap();
        let sched_rest = scheduled.run_scheduled(&programs).unwrap();
        let mut seq_out = Vec::new();
        for p in &programs[..2] {
            seq_out.push(sequential.run(p).unwrap());
        }
        let mut seq_rest = Vec::new();
        for p in &programs {
            seq_rest.push(sequential.run(p).unwrap());
        }
        let dis_out = disabled.run_scheduled(&programs[..2]).unwrap();
        let dis_rest = disabled.run_scheduled(&programs).unwrap();

        assert_eq!(sched_out, seq_out);
        assert_eq!(sched_rest, seq_rest);
        assert_eq!(dis_out, seq_out);
        assert_eq!(dis_rest, seq_rest);
        assert_eq!(scheduled.clock(), sequential.clock());
        assert_eq!(scheduled.clock(), disabled.clock());
        assert_eq!(scheduled.stats(), sequential.stats());

        let p = scheduled.model_perf();
        assert_eq!(p.sched_merges, 1, "first batch merges");
        assert!(p.sched_overlapped_ticks > 0);
        assert_eq!(p.sched_fallbacks, 1, "second batch shares bank 0");
        let d = disabled.model_perf();
        assert_eq!((d.sched_merges, d.sched_fallbacks), (0, 0));
    }

    #[test]
    fn run_scheduled_falls_back_on_guarded_groups() {
        let mut mc = controller(GroupId::J);
        mc.write_row(RowAddr::new(0, 1), &[true; 64]).unwrap();
        mc.write_row(RowAddr::new(1, 1), &[true; 64]).unwrap();
        let programs = vec![
            mc.read_row_program(RowAddr::new(0, 1)),
            mc.read_row_program(RowAddr::new(1, 1)),
        ];
        mc.run_scheduled(&programs).unwrap();
        let p = mc.model_perf();
        assert_eq!(p.sched_merges, 0);
        assert_eq!(p.sched_fallbacks, 1);
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

    /// The central equivalence claim behind the write-prefix cache: a
    /// controller that restores snapshots and one that replays every
    /// write program produce byte-identical device state, clocks, stats,
    /// and RNG streams.
    #[test]
    fn write_prefix_restore_matches_replay() {
        let mut cached = controller(GroupId::B);
        let mut live = controller(GroupId::B);
        live.set_prefix_caching(false);

        let addr = RowAddr::new(0, 3);
        let width = cached.module().row_bits();
        let pat_a: Vec<bool> = (0..width).map(|i| i % 3 != 0).collect();
        let pat_b: Vec<bool> = (0..width).map(|i| i % 2 == 0).collect();
        let frac = Program::builder().act(addr).pre(0).delay(5).build();

        let mut reads = Vec::new();
        for mc in [&mut cached, &mut live] {
            // First write captures (or replays); later writes with
            // different data, interleaved with out-of-spec Fracs and
            // reads, exercise the restore path. (A write directly after
            // a Frac drains the bank's pending analog events at t0 —
            // exactly where the write program's ACT would fire them —
            // and then restores, so the orders stay aligned.)
            mc.write_row(addr, &pat_a).unwrap();
            mc.write_row(addr, &pat_b).unwrap();
            mc.run(&frac).unwrap();
            reads.push(mc.read_row(addr).unwrap());
            mc.write_row(addr, &pat_a).unwrap();
            mc.run(&frac).unwrap();
            reads.push(mc.read_row(addr).unwrap());
        }
        assert_eq!(reads[0], reads[2]);
        assert_eq!(reads[1], reads[3]);
        assert_eq!(cached.clock(), live.clock());
        assert_eq!(cached.stats(), live.stats());
        // The charge state itself is bit-identical, fractional cells
        // included.
        for col in [0, 7, 31, 63] {
            let a = cached.module_mut().probe_cell_voltage(addr, col, 50_000);
            let b = live.module_mut().probe_cell_voltage(addr, col, 50_000);
            assert_eq!(a, b, "col {col}");
        }
        let hits = cached.model_perf().snapshot_hits;
        assert!(hits >= 2, "expected restore hits, got {hits}");
        assert_eq!(live.model_perf().snapshot_hits, 0);
    }

    #[test]
    fn write_prefix_cache_respects_environment_changes() {
        let mut mc = controller(GroupId::B);
        let addr = RowAddr::new(0, 1);
        mc.write_row(addr, &[true; 64]).unwrap();
        let mut env = *mc.module().environment();
        env.temperature_c += 25.0;
        mc.module_mut().set_environment(env);
        mc.write_row(addr, &[false; 64]).unwrap();
        // The stale capture must not be restored under the new
        // environment.
        assert_eq!(mc.model_perf().snapshot_hits, 0);
        assert_eq!(mc.model_perf().snapshot_misses, 2);
        // And a third write under the stable environment hits again.
        mc.write_row(addr, &[true; 64]).unwrap();
        assert_eq!(mc.model_perf().snapshot_hits, 1);
    }

    #[test]
    fn trace_and_stats_identical_across_restore_and_replay() {
        let mut cached = controller(GroupId::B);
        let mut live = controller(GroupId::B);
        live.set_prefix_caching(false);
        let addr = RowAddr::new(1, 4);
        let mut traces = Vec::new();
        for mc in [&mut cached, &mut live] {
            mc.write_row(addr, &[true; 64]).unwrap();
            mc.enable_trace();
            mc.write_row(addr, &[false; 64]).unwrap();
            traces.push(mc.take_trace().unwrap());
        }
        assert!(cached.model_perf().snapshot_hits >= 1);
        assert_eq!(traces[0], traces[1]);
        assert_eq!(traces[0].to_string(), traces[1].to_string());
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

    /// A snapshot captured before an excursion window must not be
    /// restored inside it: the fast path falls back to a live replay
    /// whenever the write program overlaps a window.
    #[test]
    fn write_prefix_cache_refuses_fault_windows() {
        use fracdram_model::FaultConfig;
        let mut mc = controller(GroupId::B);
        mc.module_mut().set_fault_config(&FaultConfig {
            excursions: 1,
            excursion_cycles: 5_000,
            excursion_span: 500_000,
            excursion_temp_delta: 25.0,
            ..FaultConfig::none()
        });
        let w = mc.module().chips()[0].fault_plan().unwrap().windows()[0];
        let addr = RowAddr::new(0, 1);
        // Capture strictly before the window opens.
        assert!(
            w.start > mc.clock() + 100,
            "seed placed the window too early for this test: {w:?}"
        );
        mc.write_row(addr, &[true; 64]).unwrap();
        assert_eq!(mc.model_perf().snapshot_misses, 1);
        // Inside the window the cached prefix must not be used (and no
        // capture may happen either).
        let now = mc.clock();
        mc.wait(Cycles(w.start - now));
        mc.write_row(addr, &[false; 64]).unwrap();
        assert_eq!(mc.model_perf().snapshot_hits, 0);
        assert_eq!(mc.model_perf().snapshot_misses, 1);
        // Past the window, the pre-window capture is valid again.
        let now = mc.clock();
        mc.wait(Cycles(w.end.saturating_sub(now)));
        mc.write_row(addr, &[true; 64]).unwrap();
        assert_eq!(mc.model_perf().snapshot_hits, 1);
    }

    /// The PR-3 equivalence claim must survive fault injection: with an
    /// identical fault plan installed, a snapshot-restoring controller
    /// and a replay-everything controller stay byte-identical through
    /// writes, Fracs, excursion windows, and reads.
    #[test]
    fn write_prefix_restore_matches_replay_under_faults() {
        use fracdram_model::FaultConfig;
        let cfg = FaultConfig {
            stuck_density: 0.02,
            weak_density: 0.05,
            sense_flip_rate: 0.01,
            excursions: 2,
            excursion_cycles: 3_000,
            excursion_span: 120_000,
            excursion_temp_delta: 20.0,
            excursion_vdd_delta: 0.05,
            ..FaultConfig::none()
        };
        let mut cached = controller(GroupId::B);
        let mut live = controller(GroupId::B);
        cached.module_mut().set_fault_config(&cfg);
        live.module_mut().set_fault_config(&cfg);
        live.set_prefix_caching(false);

        let addr = RowAddr::new(0, 3);
        let width = cached.module().row_bits();
        let pat_a: Vec<bool> = (0..width).map(|i| i % 3 != 0).collect();
        let pat_b: Vec<bool> = (0..width).map(|i| i % 2 == 0).collect();
        let frac = Program::builder().act(addr).pre(0).delay(5).build();
        let windows: Vec<_> = cached.module().chips()[0]
            .fault_plan()
            .unwrap()
            .windows()
            .to_vec();

        let mut reads = Vec::new();
        for mc in [&mut cached, &mut live] {
            mc.write_row(addr, &pat_a).unwrap();
            mc.write_row(addr, &pat_b).unwrap();
            mc.run(&frac).unwrap();
            reads.push(mc.read_row(addr).unwrap());
            // March the clock through every excursion window, exercising
            // writes both inside (fast path refused) and after them.
            for w in &windows {
                let now = mc.clock();
                if w.start > now {
                    mc.wait(Cycles(w.start - now));
                }
                mc.write_row(addr, &pat_a).unwrap();
                mc.run(&frac).unwrap();
                reads.push(mc.read_row(addr).unwrap());
                let now = mc.clock();
                if w.end > now {
                    mc.wait(Cycles(w.end - now));
                }
                mc.write_row(addr, &pat_b).unwrap();
                reads.push(mc.read_row(addr).unwrap());
            }
        }
        let half = reads.len() / 2;
        for i in 0..half {
            assert_eq!(reads[i], reads[half + i], "read {i} diverged");
        }
        assert_eq!(cached.clock(), live.clock());
        assert_eq!(cached.stats(), live.stats());
        for col in [0, 7, 31, 63] {
            let t = cached.clock() + 1_000;
            let a = cached.module_mut().probe_cell_voltage(addr, col, t);
            let b = live.module_mut().probe_cell_voltage(addr, col, t);
            assert_eq!(a, b, "col {col}");
        }
        assert_eq!(live.model_perf().snapshot_hits, 0);
    }
}
