//! The sub-array state machine: word-lines, bit-lines, sense amplifiers,
//! and the out-of-spec interactions between ACTIVATE and PRECHARGE.
//!
//! This is where the paper's primitives physically happen:
//!
//! * a PRECHARGE landing between word-line raise and sense-amplifier
//!   enable disconnects the cells mid-charge-share, leaving a *fractional
//!   value* in them (**Frac**, Fig. 3);
//! * an ACTIVATE landing while a PRECHARGE is still in flight cancels the
//!   closure and glitches the row decoder into opening extra rows
//!   (**multi-row activation**, §II-D);
//! * a trailing PRECHARGE after a four-row activation freezes the shared
//!   charge into all four rows (**Half-m**, Fig. 4).
//!
//! Commands arrive with absolute cycle timestamps. Internal consequences
//! (word-line raise, charge share, sense enable, word-line close) are
//! *scheduled events* fired lazily, in fire-time order, before the next
//! command is processed — so the semantics depend only on command timing,
//! exactly like real silicon.

use std::time::Instant;

use crate::bitline::{self, SharingCell};
use crate::cell;
use crate::decoder::glitch_rows;
use crate::env::Environment;
use crate::error::{ModelError, Result};
use crate::materialize::{MaterializeCache, RowStatics};
use crate::params::InternalTiming;
use crate::perf::ModelPerf;
use crate::sense_amp;
use crate::silicon::Silicon;
use crate::snapshot::{RowCapture, SubArrayState};
use crate::units::{Femtofarads, Seconds, Volts, CYCLE_SECONDS};
use crate::variation::{NoiseEngine, NoisePurpose};

/// Mutable execution context threaded through command processing.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Static silicon parameter oracle of the owning chip.
    pub silicon: &'a Silicon,
    /// Ambient conditions during this command.
    pub env: &'a Environment,
    /// Internal device latencies.
    pub timing: &'a InternalTiming,
    /// Counter-keyed temporal noise source of the owning chip
    /// (stateless: shared borrows suffice).
    pub noise: &'a NoiseEngine,
    /// Kernel counters of the owning chip.
    pub perf: &'a mut ModelPerf,
    /// Materialized silicon statics of the owning chip.
    pub cache: &'a mut MaterializeCache,
}

/// Materialized *dynamic* state of one row; every static per-cell
/// parameter lives in the [`MaterializeCache`] instead.
#[derive(Debug, Clone)]
struct RowState {
    /// Cell voltages in volts.
    v: Vec<f64>,
    /// Cycle at which leakage was last applied.
    last: u64,
    /// Whether any kernel ever drove charge into the row. A row that was
    /// never driven holds exactly 0 V everywhere, and decay of zero is
    /// zero — `leak_row` skips it wholesale.
    charged: bool,
}

/// A voltage probe recording the analog trajectory of one cell and its
/// bit-line — how Fig. 3 and Fig. 4 of the paper are regenerated.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSample {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Cell voltage.
    pub cell_v: Volts,
    /// Bit-line voltage.
    pub bitline_v: Volts,
    /// Which internal event produced the sample.
    pub event: ProbeEvent,
}

/// Internal events visible to a voltage probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// Bit-lines equalized to `Vdd/2`.
    Precharged,
    /// Word-line raised; charge sharing completed.
    ChargeShared,
    /// Sense amplifier enabled; full-rail restore.
    Sensed,
    /// Word-lines dropped; cells disconnected.
    Closed,
}

#[derive(Debug, Clone)]
struct Probe {
    row: usize,
    col: usize,
    samples: Vec<ProbeSample>,
}

/// One sub-array: a grid of rows × columns sharing bit-lines and sense
/// amplifiers, plus the transient activation state.
#[derive(Debug, Clone)]
pub struct Subarray {
    bank: usize,
    index: usize,
    rows: usize,
    cols: usize,
    data: Vec<Option<Box<RowState>>>,
    /// Bit-line voltages (transient; meaningful between share and close).
    bl: Vec<f64>,
    /// Physical bits latched by the last sense.
    sensed_bits: Vec<bool>,
    /// Role-ordered open rows (index 0 = R1).
    open: Vec<usize>,
    sensed: bool,
    multi_row: bool,
    pending_share: Option<u64>,
    pending_sense: Option<u64>,
    pending_close: Option<u64>,
    /// Reusable per-column scratch buffer (Half-m closure asymmetry);
    /// kept on the struct so `fire_close` allocates nothing per event.
    scratch: Vec<f64>,
    /// Reusable per-column temporal-noise buffer: each kernel event
    /// batch-fills it from the counter-keyed engine before its column
    /// loop, so the hot loop reads contiguous precomputed noise.
    noise_buf: Vec<f64>,
    /// Reusable per-(slot, column) weight-jitter buffer for multi-row
    /// shares (stride = `cols`, one stripe per glitch slot).
    weight_noise: Vec<f64>,
    probes: Vec<Probe>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    // Variant order defines the tie-break at equal fire times: charge
    // sharing precedes sensing precedes closing.
    Share,
    Sense,
    Close,
}

impl Subarray {
    /// Creates an empty (never-written) sub-array.
    pub fn new(bank: usize, index: usize, rows: usize, cols: usize) -> Self {
        Subarray {
            bank,
            index,
            rows,
            cols,
            data: vec![None; rows],
            bl: vec![0.0; cols],
            sensed_bits: vec![false; cols],
            open: Vec::new(),
            sensed: false,
            multi_row: false,
            pending_share: None,
            pending_sense: None,
            pending_close: None,
            scratch: vec![0.0; cols],
            noise_buf: vec![0.0; cols],
            weight_noise: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the sub-array has neither open rows nor scheduled events.
    pub fn is_idle(&self) -> bool {
        self.open.is_empty()
            && self.pending_share.is_none()
            && self.pending_sense.is_none()
            && self.pending_close.is_none()
    }

    /// Currently open rows in activation-role order.
    pub fn open_rows(&self) -> &[usize] {
        &self.open
    }

    /// Whether the sense amplifiers latched for the current activation.
    pub fn is_sensed(&self) -> bool {
        self.sensed
    }

    /// Attaches a voltage probe to `(row, col)`; samples accumulate until
    /// taken with [`Subarray::take_probe_samples`].
    pub fn attach_probe(&mut self, row: usize, col: usize) {
        self.probes.push(Probe {
            row,
            col,
            samples: Vec::new(),
        });
    }

    /// Removes all probes and returns their samples (one vector per
    /// probe, in attachment order).
    pub fn take_probe_samples(&mut self) -> Vec<Vec<ProbeSample>> {
        std::mem::take(&mut self.probes)
            .into_iter()
            .map(|p| p.samples)
            .collect()
    }

    // ------------------------------------------------------------------
    // Command interface
    // ------------------------------------------------------------------

    /// Processes an ACTIVATE to `local_row` at absolute cycle `t`.
    pub fn activate(&mut self, ctx: &mut Ctx<'_>, local_row: usize, t: u64) -> Result<()> {
        if local_row >= self.rows {
            return Err(ModelError::RowOutOfRange {
                row: local_row,
                rows: self.rows,
            });
        }
        self.advance(ctx, t);

        let pre_in_flight = self.pending_close.is_some();
        if pre_in_flight && !self.open.is_empty() && !self.sensed {
            // ACT lands while a PRECHARGE is mid-close after an un-sensed
            // activation: the decoder glitch path (multi-row activation).
            self.pending_close = None;
            let r1 = self.open[0];
            let mut new_set = glitch_rows(
                ctx.silicon.profile().decoder,
                r1,
                local_row,
                self.rows,
                ctx.silicon.sampler(),
            );
            // Injected decoder dropouts: an *implicit* glitch row (role
            // ≥ 2 — neither R1 nor R2) whose word-line driver misfires
            // never joins the activation. Static per (pair, row), so the
            // same glitch misbehaves identically every trial.
            if let Some(plan) = ctx.silicon.faults() {
                if plan.config().decoder_dropout > 0.0 && new_set.len() > 2 {
                    let (bank, index) = (self.bank, self.index);
                    let before = new_set.len();
                    let mut role = 0;
                    new_set.retain(|&row| {
                        role += 1;
                        role <= 2 || !plan.decoder_drop(bank, index, r1, local_row, row)
                    });
                    ctx.perf.fault_decoder_drops += (before - new_set.len()) as u64;
                }
            }
            // Rows that were open but did not survive the glitch are
            // disconnected right here, keeping whatever partial charge
            // they hold (their state needs no action: cells store their
            // own voltage).
            self.open = new_set;
            self.multi_row = self.open.len() > 1;
            self.pending_share = Some(t + ctx.timing.wordline_raise);
            self.pending_sense = Some(t + ctx.timing.sense_enable);
            self.sensed = false;
        } else if pre_in_flight && self.sensed && !self.open.is_empty() {
            // ACT lands while a PRECHARGE is mid-close after a *sensed*
            // activation: the destination row connects to bit-lines still
            // driven by the sense amplifiers — RowClone-style copy.
            self.pending_close = None;
            if !self.open.contains(&local_row) {
                self.open.push(local_row);
            }
            self.drive_row_from_sense(ctx, local_row, t + ctx.timing.wordline_raise);
        } else if self.open.is_empty() {
            // Normal activation (an in-flight PRE with nothing to close is
            // superseded).
            self.pending_close = None;
            self.open.push(local_row);
            self.multi_row = false;
            self.sensed = false;
            // Bit-lines sit at the (current) precharge level.
            let half = ctx.silicon.params().half_vdd(ctx.env.vdd).value();
            self.bl.fill(half);
            self.record_probes(ctx, t, ProbeEvent::Precharged);
            self.pending_share = Some(t + ctx.timing.wordline_raise);
            self.pending_sense = Some(t + ctx.timing.sense_enable);
        }
        // ACT to an already-open, sensed bank without a PRE in flight is a
        // JEDEC violation real chips ignore; we do the same.
        Ok(())
    }

    /// Processes a PRECHARGE at absolute cycle `t`.
    pub fn precharge(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        if self.is_idle() {
            return;
        }
        self.advance(ctx, t);
        if self.open.is_empty() {
            return;
        }
        self.pending_close = Some(t + ctx.timing.precharge_close);
    }

    /// Reads the latched row buffer (physical bits).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BankClosed`] if no activation has been
    /// sensed.
    pub fn read(&mut self, ctx: &mut Ctx<'_>, t: u64) -> Result<Vec<bool>> {
        let mut out = Vec::new();
        self.read_into(ctx, t, &mut out)?;
        Ok(out)
    }

    /// [`Subarray::read`] into a caller-provided buffer (cleared and
    /// refilled), so arena-recycled trial loops never allocate per read.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BankClosed`] if no activation has been
    /// sensed.
    pub fn read_into(&mut self, ctx: &mut Ctx<'_>, t: u64, out: &mut Vec<bool>) -> Result<()> {
        self.advance(ctx, t);
        if !self.sensed {
            return Err(ModelError::BankClosed { bank: self.bank });
        }
        out.clear();
        out.extend_from_slice(&self.sensed_bits);
        Ok(())
    }

    /// Writes physical bits through the sense amplifiers into all open
    /// rows (full-rail overwrite), optionally restricted to a column
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BankClosed`] if no activation has been
    /// sensed, or [`ModelError::WidthMismatch`] if `bits` does not match
    /// the column range.
    pub fn write(
        &mut self,
        ctx: &mut Ctx<'_>,
        t: u64,
        start_col: usize,
        bits: &[bool],
    ) -> Result<()> {
        if self.write_supersedes_activation(ctx, t, start_col, bits.len()) {
            // Everything the pending share and sense would write — the
            // bit-lines, the row buffer and every open row's voltages,
            // leakage clock and charge flag — the rails below overwrite,
            // and their noise is keyed by fire time, so no later draw
            // moves. Dropping them unfired is exact.
            self.pending_share = None;
            self.pending_sense = None;
            self.sensed = true;
            ctx.perf.superseded_activations += 1;
        }
        self.advance(ctx, t);
        if !self.sensed {
            return Err(ModelError::BankClosed { bank: self.bank });
        }
        if start_col + bits.len() > self.cols {
            return Err(ModelError::WidthMismatch {
                got: start_col + bits.len(),
                expected: self.cols,
            });
        }
        let vdd = ctx.env.vdd.value();
        let cols = start_col..start_col + bits.len();
        self.sensed_bits[cols.clone()].copy_from_slice(bits);
        for (bl, &b) in self.bl[cols.clone()].iter_mut().zip(bits) {
            *bl = if b { vdd } else { 0.0 };
        }
        for i in 0..self.open.len() {
            let row = self.open[i];
            self.ensure_row(row);
            let rs = self.data[row].as_mut().unwrap();
            // Every open row takes the rails just driven onto the bit-lines.
            rs.v[cols.clone()].copy_from_slice(&self.bl[cols.clone()]);
            rs.last = t;
            rs.charged = true;
        }
        // A write cannot heal a stuck cell.
        self.pin_stuck_open(ctx);
        Ok(())
    }

    /// Whether a write at `t` to `len` columns from `start_col` overwrites
    /// every value the activation's pending share and sense would
    /// produce: a full-row write landing at or after both, with no close
    /// in flight, no probe to sample the dropped events, and no fault
    /// plan whose stuck pins and sense flips count as fault events.
    fn write_supersedes_activation(
        &self,
        ctx: &Ctx<'_>,
        t: u64,
        start_col: usize,
        len: usize,
    ) -> bool {
        start_col == 0
            && len == self.cols
            && self.pending_share.is_some_and(|ft| ft <= t)
            && self.pending_sense.is_some_and(|ft| ft <= t)
            && self.pending_close.is_none()
            && self.probes.is_empty()
            && ctx.silicon.faults().is_none()
    }

    /// Performs an internal refresh of one row: activate, sense, restore,
    /// close — destroying any fractional value it held (§III-C).
    pub fn refresh_row(&mut self, ctx: &mut Ctx<'_>, local_row: usize, t: u64) {
        self.advance(ctx, t);
        if self.data[local_row].is_none() {
            return; // never-written rows hold no charge worth refreshing
        }
        self.leak_row(ctx, local_row, t);
        ctx.cache.ensure_temp_coeffs(
            ctx.silicon,
            &mut *ctx.perf,
            self.bank,
            self.index,
            self.cols,
        );
        ctx.cache.ensure_row(
            ctx.silicon,
            &mut *ctx.perf,
            self.bank,
            self.index,
            local_row,
            self.cols,
        );
        let params = ctx.silicon.params();
        let half = params.half_vdd(ctx.env.vdd).value();
        let bl_cap = params.bitline_cap;
        let sigma = params.sense_noise_sigma.value();
        // Batch noise pass: one contiguous fill per event. Refresh is the
        // one purpose where several events share a fire time (the chip
        // refreshes every row of a sub-array at the same `t`), so the row
        // is part of the key.
        let coords = [self.bank as u64, self.index as u64, local_row as u64];
        let noise_started = Instant::now();
        let event = ctx.noise.event(NoisePurpose::Refresh, t, &coords);
        ctx.perf.noise_draws += event.fill_normal(sigma, &mut self.noise_buf);
        ctx.perf.noise_fills += 1;
        ctx.perf.noise_ns += noise_started.elapsed().as_nanos() as u64;
        let flip_event = ctx.noise.event(NoisePurpose::RefreshFlip, t, &coords);
        let statics = ctx.cache.cols(self.bank, self.index);
        let stat = ctx.cache.row(self.bank, self.index, local_row);
        let flip_plan = ctx
            .silicon
            .faults()
            .filter(|p| p.config().sense_flip_rate > 0.0);
        let mut flips = 0u64;
        let rs = self.data[local_row].as_mut().unwrap();
        for col in 0..self.cols {
            let shared = bitline::share(
                Volts(half),
                bl_cap,
                &[SharingCell {
                    v: Volts(rs.v[col] + stat.inject[col]),
                    cap: Femtofarads(stat.cap[col] as f64),
                    weight: 1.0,
                }],
            );
            let mut th = sense_amp::threshold(
                params,
                ctx.env,
                Volts(statics.offset[col]),
                statics.temp_coeff[col],
            );
            if statics.anti[col] {
                th = sense_amp::mirror_for_anti(th, ctx.env);
            }
            let noisy = shared + Volts(self.noise_buf[col]);
            let mut one = sense_amp::senses_one(noisy, th);
            if let Some(plan) = flip_plan {
                if flip_event.uniform(col as u64) < plan.sense_flip_rate(self.bank, self.index, col)
                {
                    one = !one;
                    flips += 1;
                }
            }
            rs.v[col] = sense_amp::restore_level(one, ctx.env).value();
        }
        rs.last = t;
        rs.charged = true;
        if flip_plan.is_some() {
            ctx.perf.noise_draws += self.cols as u64;
        }
        ctx.perf.fault_sense_flips += flips;
        if ctx.silicon.cell_faults_enabled() {
            self.pin_stuck_row(ctx, local_row);
        }
    }

    /// Non-destructively inspects the current voltage of a cell at cycle
    /// `t` (pending events fired, leakage applied).
    pub fn cell_voltage(&mut self, ctx: &mut Ctx<'_>, row: usize, col: usize, t: u64) -> Volts {
        self.advance(ctx, t);
        self.leak_row(ctx, row, t);
        match &self.data[row] {
            Some(rs) => Volts(rs.v[col]),
            None => Volts(0.0),
        }
    }

    // ------------------------------------------------------------------
    // Event engine
    // ------------------------------------------------------------------

    /// Fires every scheduled internal event with fire time ≤ `t`, in
    /// chronological order.
    pub fn advance(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        loop {
            let mut next: Option<(u64, EventKind)> = None;
            let mut consider = |time: Option<u64>, kind: EventKind| {
                if let Some(ft) = time {
                    if ft <= t && next.is_none_or(|(bt, bk)| (ft, kind) < (bt, bk)) {
                        next = Some((ft, kind));
                    }
                }
            };
            consider(self.pending_share, EventKind::Share);
            consider(self.pending_sense, EventKind::Sense);
            consider(self.pending_close, EventKind::Close);
            let Some((ft, kind)) = next else { break };
            match kind {
                EventKind::Share => {
                    self.pending_share = None;
                    self.fire_share(ctx, ft);
                }
                EventKind::Sense => {
                    self.pending_sense = None;
                    self.fire_sense(ctx, ft);
                }
                EventKind::Close => {
                    self.pending_close = None;
                    self.fire_close(ctx, ft);
                }
            }
        }
    }

    /// Charge sharing between the bit-lines and all open rows.
    ///
    /// Column-kernel form: per-cell statics come from the materialize
    /// cache as contiguous slices and the kernels walk plain buffers —
    /// no per-event allocation, no hashing, no map lookups.
    fn fire_share(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        if self.open.is_empty() {
            return;
        }
        for i in 0..self.open.len() {
            let row = self.open[i];
            self.ensure_row(row);
            self.leak_row(ctx, row, t);
        }
        // Stuck cells enter the share at their rail (covers rows that
        // were never written), so the defect perturbs the shared charge.
        self.pin_stuck_open(ctx);
        // Batch noise pass: one contiguous per-column fill (plus one per
        // glitch slot for multi-row weight jitter), keyed by this event's
        // fire time — done before the timed kernel body so `share_ns`
        // stays a pure kernel measure.
        {
            let params = ctx.silicon.params();
            let noise_sigma = params.bitline_noise_sigma.value();
            let temporal_sigma = params.share_temporal_sigma;
            let coords = [self.bank as u64, self.index as u64];
            let noise_started = Instant::now();
            let event = ctx.noise.event(NoisePurpose::ShareEq, t, &coords);
            ctx.perf.noise_draws += event.fill_normal(noise_sigma, &mut self.noise_buf);
            ctx.perf.noise_fills += 1;
            if self.multi_row {
                self.weight_noise.resize(4 * self.cols, 0.0);
                for slot in 0..self.open.len().min(4) {
                    let ev = ctx.noise.event(
                        NoisePurpose::ShareWeight,
                        t,
                        &[self.bank as u64, self.index as u64, slot as u64],
                    );
                    ctx.perf.noise_draws += ev.fill_normal(
                        temporal_sigma,
                        &mut self.weight_noise[slot * self.cols..(slot + 1) * self.cols],
                    );
                }
            }
            ctx.perf.noise_ns += noise_started.elapsed().as_nanos() as u64;
        }
        let params = ctx.silicon.params();
        let profile = ctx.silicon.profile();
        let bl_cap = params.bitline_cap;
        let multi = self.multi_row;
        let settle = if multi {
            params.multirow_settle
        } else {
            params.interrupted_settle
        };
        let bias = if multi {
            profile.multirow_bias.value()
        } else {
            0.0
        };
        let v_max = ctx.env.vdd.value() * 1.05;
        let n = self.open.len().min(16);
        for slot in 0..n {
            ctx.cache.ensure_row(
                ctx.silicon,
                &mut *ctx.perf,
                self.bank,
                self.index,
                self.open[slot],
                self.cols,
            );
        }
        if multi {
            for slot in 0..self.open.len().min(4) {
                ctx.cache.ensure_weights(
                    ctx.silicon,
                    &mut *ctx.perf,
                    self.bank,
                    self.index,
                    slot,
                    self.cols,
                );
            }
        }
        let mut stat: [Option<&RowStatics>; 16] = [None; 16];
        for (s, &row) in stat.iter_mut().zip(self.open.iter()) {
            *s = Some(ctx.cache.row(self.bank, self.index, row));
        }
        let mut weights: [&[f32]; 4] = [&[]; 4];
        if multi {
            for (slot, w) in weights.iter_mut().enumerate().take(self.open.len()) {
                *w = ctx.cache.weights(self.bank, self.index, slot);
            }
        }
        // Everything above (materializing, cache lookups, noise fills) is
        // setup; `share_ns` times only the kernel.
        let started = Instant::now();
        let open = &self.open[..n];
        if n == 1 && !multi {
            // The dominant shape (every plain activation and Frac step)
            // keeps its fused single-row loop.
            share_columns_single(
                &mut self.bl,
                self.data[open[0]]
                    .as_mut()
                    .expect("open row materialized above"),
                stat[0].unwrap(),
                bl_cap,
                settle,
                bias,
                &self.noise_buf,
                v_max,
                self.cols,
            );
        } else {
            // `scratch` carries the per-column denominator; no other event
            // reads it across a share.
            share_columns_slots(
                &mut self.bl,
                &mut self.scratch,
                &mut self.data,
                open,
                &stat[..n],
                &weights,
                multi,
                bl_cap,
                settle,
                bias,
                &self.noise_buf,
                &self.weight_noise,
                v_max,
            );
        }
        for &row in open {
            self.data[row].as_mut().unwrap().charged = true;
        }
        ctx.perf.share_events += 1;
        ctx.perf.columns += self.cols as u64;
        ctx.perf.share_ns += started.elapsed().as_nanos() as u64;
        // The share settled the stuck cells toward the bit-line; the
        // short immediately pulls them back.
        self.pin_stuck_open(ctx);
        self.record_probes(ctx, t, ProbeEvent::ChargeShared);
    }

    /// Sense-amplifier enable: latch, drive rails, restore all open rows.
    fn fire_sense(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        // The final comparison threshold per column (offset, temperature
        // coefficient, supply coupling, anti-cell mirror) is static per
        // (sub-array, environment): materialized once, bit-identical to
        // the per-event expression it replaces.
        ctx.cache.ensure_sense_thresholds(
            ctx.silicon,
            &mut *ctx.perf,
            self.bank,
            self.index,
            self.cols,
            ctx.env,
        );
        let params = ctx.silicon.params();
        let sigma = params.sense_noise_sigma.value();
        // Batch noise pass, keyed by this sense event's fire time — done
        // before the timed kernel body so `sense_ns` stays a pure kernel
        // measure. Transient sense-amp flips batch the same way: the
        // per-column flip uniforms are pure lane functions of the flip
        // event, and the per-column flip rates are static per fault
        // plan, so both become contiguous buffers and the rare-fault
        // check drops out of the hot loop entirely.
        let coords = [self.bank as u64, self.index as u64];
        let noise_started = Instant::now();
        let event = ctx.noise.event(NoisePurpose::Sense, t, &coords);
        ctx.perf.noise_draws += event.fill_normal(sigma, &mut self.noise_buf);
        ctx.perf.noise_fills += 1;
        let flip_armed = ctx
            .silicon
            .faults()
            .is_some_and(|p| p.config().sense_flip_rate > 0.0);
        if flip_armed {
            ctx.cache.ensure_flip_rates(
                ctx.silicon,
                &mut *ctx.perf,
                self.bank,
                self.index,
                self.cols,
            );
            let flip_event = ctx.noise.event(NoisePurpose::SenseFlip, t, &coords);
            ctx.perf.noise_draws += flip_event.fill_uniform(&mut self.scratch);
        }
        ctx.perf.noise_ns += noise_started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let th = ctx.cache.sense_thresholds(self.bank, self.index);
        let vdd = ctx.env.vdd.value();
        let mut flips = 0u64;
        if flip_armed {
            let rates = ctx.cache.flip_rates(self.bank, self.index);
            for col in 0..self.cols {
                let noisy = self.bl[col] + self.noise_buf[col];
                let mut one = noisy > th[col];
                if self.scratch[col] < rates[col] {
                    one = !one;
                    flips += 1;
                }
                self.sensed_bits[col] = one;
                self.bl[col] = if one { vdd } else { 0.0 };
            }
        } else {
            #[allow(clippy::needless_range_loop)]
            for col in 0..self.cols {
                let noisy = self.bl[col] + self.noise_buf[col];
                let one = noisy > th[col];
                self.sensed_bits[col] = one;
                self.bl[col] = if one { vdd } else { 0.0 };
            }
        }
        ctx.perf.fault_sense_flips += flips;
        for i in 0..self.open.len() {
            let row = self.open[i];
            // Leakage was applied at share time moments ago; just restore.
            let rs = self.data[row].as_mut().unwrap();
            rs.v.copy_from_slice(&self.bl);
            rs.last = t;
            rs.charged = true;
        }
        // Restore drove the stuck cells to the sensed rail; the short
        // wins again.
        self.pin_stuck_open(ctx);
        self.sensed = true;
        ctx.perf.sense_events += 1;
        ctx.perf.columns += self.cols as u64;
        ctx.perf.sense_ns += started.elapsed().as_nanos() as u64;
        self.record_probes(ctx, t, ProbeEvent::Sensed);
    }

    /// Word-line closure: disconnect cells (they keep whatever voltage
    /// they hold), cancel a not-yet-fired sense, equalize bit-lines.
    fn fire_close(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        // Interrupting a *multi-row* activation (Half-m) drops several
        // word-lines mid-share; the per-column asymmetry of that closure
        // leaves a static residue on the cells. This is why only some
        // columns produce a clean, distinguishable Half value (Fig. 8),
        // while Frac (single-row interruption) stays uniform.
        let started = Instant::now();
        if self.multi_row && !self.sensed && !self.open.is_empty() {
            ctx.cache.ensure_halfm(
                ctx.silicon,
                &mut *ctx.perf,
                self.bank,
                self.index,
                self.cols,
            );
            let statics = ctx.cache.cols(self.bank, self.index);
            let vdd = ctx.env.vdd.value();
            let half = vdd / 2.0;
            // The raw per-column asymmetry is scaled by how metastable
            // the column's bit-line ended up: a column parked near Vdd/2
            // amplifies the word-line-drop disturbance, a strongly
            // driven column shrugs it off (seventh-power roll-off).
            for col in 0..self.cols {
                let metastable = (1.0 - (self.bl[col] - half).abs() / half).clamp(0.0, 1.0);
                self.scratch[col] = statics.halfm_asym[col] * metastable.powi(7);
            }
            for i in 0..self.open.len() {
                let row = self.open[i];
                let Some(rs) = self.data[row].as_mut() else {
                    continue;
                };
                for (v, &a) in rs.v.iter_mut().zip(&self.scratch) {
                    *v = (*v + a).clamp(0.0, vdd);
                }
                rs.charged = true;
            }
            ctx.perf.columns += self.cols as u64;
            self.pin_stuck_open(ctx);
        }
        self.pending_sense = None;
        self.pending_share = None;
        ctx.perf.close_events += 1;
        ctx.perf.close_ns += started.elapsed().as_nanos() as u64;
        self.record_probes(ctx, t, ProbeEvent::Closed);
        self.open.clear();
        self.multi_row = false;
        self.sensed = false;
        let half = ctx.silicon.params().half_vdd(ctx.env.vdd).value();
        self.bl.fill(half);
        self.record_probes(ctx, t + 1, ProbeEvent::Precharged);
    }

    /// RowClone copy path: drive a freshly opened row directly from the
    /// latched sense amplifiers.
    fn drive_row_from_sense(&mut self, ctx: &mut Ctx<'_>, row: usize, t: u64) {
        self.ensure_row(row);
        let vdd = ctx.env.vdd.value();
        let bits = &self.sensed_bits;
        let rs = self.data[row].as_mut().unwrap();
        for (v, &bit) in rs.v.iter_mut().zip(bits) {
            *v = if bit { vdd } else { 0.0 };
        }
        rs.last = t;
        rs.charged = true;
        if ctx.silicon.cell_faults_enabled() {
            self.pin_stuck_row(ctx, row);
        }
    }

    // ------------------------------------------------------------------
    // Fault hooks
    // ------------------------------------------------------------------

    /// Re-pins every stuck-at cell of `row` to its rail. A stuck cell is
    /// a hard short: whatever voltage the last kernel event left in it
    /// snaps back to the rail, which is exactly how the defect perturbs
    /// the *next* charge-sharing event instead of being a post-hoc bit
    /// flip. Callers gate on [`Silicon::cell_faults_enabled`] so the
    /// healthy path pays one branch.
    fn pin_stuck_row(&mut self, ctx: &mut Ctx<'_>, row: usize) {
        ctx.cache.ensure_row(
            ctx.silicon,
            &mut *ctx.perf,
            self.bank,
            self.index,
            row,
            self.cols,
        );
        let stat = ctx.cache.row(self.bank, self.index, row);
        if stat.stuck.is_empty() {
            return;
        }
        self.ensure_row(row);
        let vdd = ctx.env.vdd.value();
        let rs = self.data[row].as_mut().unwrap();
        let mut pins = 0u64;
        let mut charged = false;
        for &enc in stat.stuck.iter() {
            let rail = if enc & 1 == 1 { vdd } else { 0.0 };
            rs.v[(enc >> 1) as usize] = rail;
            charged |= rail != 0.0;
            pins += 1;
        }
        if charged {
            rs.charged = true;
        }
        ctx.perf.fault_stuck_pins += pins;
    }

    /// Pins the stuck cells of every open row (no-op without cell
    /// faults) — called after each kernel event that rewrote open-row
    /// voltages.
    pub(crate) fn pin_stuck_open(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.silicon.cell_faults_enabled() {
            return;
        }
        for i in 0..self.open.len() {
            let row = self.open[i];
            self.pin_stuck_row(ctx, row);
        }
    }

    // ------------------------------------------------------------------
    // Lazy state
    // ------------------------------------------------------------------

    fn ensure_row(&mut self, row: usize) {
        if self.data[row].is_some() {
            return;
        }
        self.data[row] = Some(Box::new(RowState {
            v: vec![0.0; self.cols],
            last: 0,
            charged: false,
        }));
    }

    /// Applies leakage to a row up to cycle `t`.
    fn leak_row(&mut self, ctx: &mut Ctx<'_>, row: usize, t: u64) {
        let Some(rs) = self.data[row].as_mut() else {
            ctx.perf.leak_row_skips += 1;
            return;
        };
        if t <= rs.last {
            ctx.perf.leak_row_skips += 1;
            return;
        }
        let dt = Seconds((t - rs.last) as f64 * CYCLE_SECONDS);
        if dt.value() < 1e-6 {
            // Sub-microsecond gaps leak nothing measurable; skip the
            // exponentials but keep the clock honest.
            rs.last = t;
            ctx.perf.leak_row_skips += 1;
            return;
        }
        if !rs.charged {
            // A never-driven row holds exactly 0 V everywhere; decay of
            // zero is zero (including the VRT undo/redo pair), so the
            // whole pass is a no-op beyond advancing the clock.
            rs.last = t;
            ctx.perf.leak_row_skips += 1;
            return;
        }
        let started = Instant::now();
        let scale = ctx
            .env
            .leakage_tau_scale(ctx.silicon.params().leak_tau_halving_celsius);
        // Event cadences repeat the same `(dt, scale)` pair across rows
        // and trials, so the per-column decay factors — each the exact
        // `exp(-dt / (tau20[col] * scale))` the stepped kernel computed —
        // materialize once and the pass becomes a cached-vector multiply.
        ctx.cache.ensure_decay_factors(
            ctx.silicon,
            &mut *ctx.perf,
            self.bank,
            self.index,
            row,
            self.cols,
            dt.value(),
            scale,
        );
        let stat = ctx.cache.row(self.bank, self.index, row);
        let factors = ctx
            .cache
            .decay_factors(self.bank, self.index, row, dt.value(), scale);
        let at = Seconds(rs.last as f64 * CYCLE_SECONDS);
        let mut exp_calls = 0u64;
        #[allow(clippy::needless_range_loop)]
        for col in 0..self.cols {
            let v = rs.v[col];
            if v != 0.0 {
                exp_calls += 1;
                // Same expression as `cell::decay` for dt > 0, v != 0.
                rs.v[col] = v * factors[col];
            }
        }
        // VRT cells override with their epoch-dependent tau.
        for &col in stat.vrt.iter() {
            let col = col as usize;
            let nominal = Seconds(stat.tau20[col] as f64 * scale);
            let eff = ctx
                .silicon
                .vrt_effective_tau(self.bank, self.index, row, col, nominal, at);
            // Undo the nominal decay and re-apply with the effective tau.
            let v = rs.v[col] * (dt.value() / nominal.value()).exp();
            exp_calls += 1;
            if v != 0.0 {
                exp_calls += 1;
                rs.v[col] = v * (-dt.value() / eff.value()).exp();
            } else {
                rs.v[col] = v;
            }
        }
        rs.last = t;
        ctx.perf.leak_events += 1;
        ctx.perf.columns += self.cols as u64;
        ctx.perf.exp_calls += exp_calls;
        ctx.perf.leak_ns += started.elapsed().as_nanos() as u64;
        // Stuck cells do not leak: the short holds them at the rail.
        if ctx.silicon.cell_faults_enabled() {
            self.pin_stuck_row(ctx, row);
        }
    }

    /// Captures the dynamic state of this sub-array for the rows in
    /// `rows`, with every internal timestamp stored relative to `anchor`
    /// so a later [`Subarray::restore`] can rebase it onto a new clock.
    pub fn snapshot(&self, rows: &[usize], anchor: u64) -> SubArrayState {
        let captured = rows
            .iter()
            .filter_map(|&row| {
                let rs = self.data[row].as_ref()?;
                debug_assert!(rs.last >= anchor, "snapshot row older than anchor");
                Some(RowCapture {
                    row,
                    v: rs.v.clone().into_boxed_slice(),
                    last_off: rs.last.saturating_sub(anchor),
                    charged: rs.charged,
                })
            })
            .collect();
        let off = |t: Option<u64>| {
            t.map(|ft| {
                debug_assert!(ft >= anchor, "pending event older than anchor");
                ft.saturating_sub(anchor)
            })
        };
        SubArrayState {
            bank: self.bank,
            index: self.index,
            bl: self.bl.clone().into_boxed_slice(),
            sensed_bits: self.sensed_bits.clone().into_boxed_slice(),
            open: self.open.clone(),
            sensed: self.sensed,
            multi_row: self.multi_row,
            pending_share_off: off(self.pending_share),
            pending_sense_off: off(self.pending_sense),
            pending_close_off: off(self.pending_close),
            rows: captured,
        }
    }

    /// Reimposes a snapshot taken with [`Subarray::snapshot`], rebasing
    /// every stored time offset onto `anchor`. Rows not captured in the
    /// snapshot keep their current state.
    pub fn restore(&mut self, state: &SubArrayState, anchor: u64) {
        debug_assert_eq!((state.bank, state.index), (self.bank, self.index));
        self.bl.copy_from_slice(&state.bl);
        self.sensed_bits.copy_from_slice(&state.sensed_bits);
        self.open.clear();
        self.open.extend_from_slice(&state.open);
        self.sensed = state.sensed;
        self.multi_row = state.multi_row;
        self.pending_share = state.pending_share_off.map(|o| anchor + o);
        self.pending_sense = state.pending_sense_off.map(|o| anchor + o);
        self.pending_close = state.pending_close_off.map(|o| anchor + o);
        for rc in &state.rows {
            self.ensure_row(rc.row);
            let rs = self.data[rc.row].as_mut().unwrap();
            rs.v.copy_from_slice(&rc.v);
            rs.last = anchor + rc.last_off;
            rs.charged = rc.charged;
        }
    }

    /// Whether the only scheduled work (if any) is a word-line close —
    /// i.e. no charge share or sense is still in flight, so the analog
    /// outcome of the last activation is fully settled and a snapshot
    /// fast path may safely drain and overwrite the sub-array.
    pub fn close_only(&self) -> bool {
        self.pending_share.is_none() && self.pending_sense.is_none()
    }

    /// Whether any voltage probes are attached.
    pub fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }

    fn record_probes(&mut self, ctx: &mut Ctx<'_>, t: u64, event: ProbeEvent) {
        if self.probes.is_empty() {
            return;
        }
        let probes = std::mem::take(&mut self.probes);
        let mut filled = Vec::with_capacity(probes.len());
        for mut p in probes {
            self.leak_row(ctx, p.row, t);
            let cell_v = match &self.data[p.row] {
                Some(rs) => Volts(rs.v[p.col]),
                None => Volts(0.0),
            };
            p.samples.push(ProbeSample {
                cycle: t,
                cell_v,
                bitline_v: Volts(self.bl[p.col]),
                event,
            });
            filled.push(p);
        }
        self.probes = filled;
    }
}

/// The multi-row charge share, slot-major: every share that is not the
/// plain single-row shape (glitch/Half-m activations, and any share with
/// several open rows). Instead of gathering each column's participants,
/// it makes four passes over contiguous per-column buffers, so each pass
/// is a straight-line column loop the compiler can vectorize:
///
/// 1. `bl` ← the bit-line's charge `bl_cap * bl`, `den` ← `bl_cap`;
/// 2. per open row in role order, `bl += eff * (v + inject)` and
///    `den += eff`, with `eff = cap * weight`;
/// 3. `bl` ← the equalized level `bl / den + (bias + eq_noise)`, clamped
///    to `[0, v_max]`;
/// 4. per open row, the cell settles toward the new bit-line level.
///
/// Per column this is `bitline::share` followed by `cell::settle_toward`,
/// operation for operation and in the same order (the numerator and
/// denominator still accumulate slot by slot), so the bits match the
/// per-column form exactly. Temporal noise arrives pre-filled:
/// `eq_noise[col]` perturbs the equalized level and
/// `weight_noise[slot * cols + col]` jitters the first four slots'
/// glitch weights when `multi`. `den` is a caller-owned scratch column
/// buffer; its contents on return are unspecified.
#[allow(clippy::too_many_arguments)]
fn share_columns_slots(
    bl: &mut [f64],
    den: &mut [f64],
    data: &mut [Option<Box<RowState>>],
    open: &[usize],
    stat: &[Option<&RowStatics>],
    weights: &[&[f32]; 4],
    multi: bool,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    weight_noise: &[f64],
    v_max: f64,
) {
    // Column lanes are independent, so a vector clone of the same body
    // computes identical per-lane bits (no reassociation, division stays
    // division); the baseline build is scalar SSE2, which leaves the
    // whole kernel's throughput on the table.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: feature presence checked above.
        unsafe {
            return share_columns_slots_avx512(
                bl,
                den,
                data,
                open,
                stat,
                weights,
                multi,
                bl_cap,
                settle,
                bias,
                eq_noise,
                weight_noise,
                v_max,
            );
        }
    }
    share_columns_slots_body(
        bl,
        den,
        data,
        open,
        stat,
        weights,
        multi,
        bl_cap,
        settle,
        bias,
        eq_noise,
        weight_noise,
        v_max,
    );
}

/// [`share_columns_slots_body`] compiled for AVX-512: the auto-vectorizer
/// widens the independent column lanes while every lane still performs
/// the scalar op sequence, so results are bit-identical to the SSE2
/// build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[allow(clippy::too_many_arguments)]
unsafe fn share_columns_slots_avx512(
    bl: &mut [f64],
    den: &mut [f64],
    data: &mut [Option<Box<RowState>>],
    open: &[usize],
    stat: &[Option<&RowStatics>],
    weights: &[&[f32]; 4],
    multi: bool,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    weight_noise: &[f64],
    v_max: f64,
) {
    share_columns_slots_body(
        bl,
        den,
        data,
        open,
        stat,
        weights,
        multi,
        bl_cap,
        settle,
        bias,
        eq_noise,
        weight_noise,
        v_max,
    );
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn share_columns_slots_body(
    bl: &mut [f64],
    den: &mut [f64],
    data: &mut [Option<Box<RowState>>],
    open: &[usize],
    stat: &[Option<&RowStatics>],
    weights: &[&[f32]; 4],
    multi: bool,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    weight_noise: &[f64],
    v_max: f64,
) {
    let cols = bl.len();
    let blc = bl_cap.value();
    let den = &mut den[..cols];
    for (num, d) in bl.iter_mut().zip(den.iter_mut()) {
        *num *= blc;
        *d = blc;
    }
    for (slot, (&row, st)) in open.iter().zip(stat).enumerate() {
        let rs = data[row].as_ref().expect("open row materialized");
        let st = st.expect("open row statics looked up");
        let cells = rs.v[..cols]
            .iter()
            .zip(&st.inject[..cols])
            .zip(&st.cap[..cols]);
        if multi && slot < 4 {
            // Static per-(slot, column) weight plus the per-trial
            // decoder-timing jitter (§VI-A2 instability source).
            let jitter = weights[slot][..cols]
                .iter()
                .zip(&weight_noise[slot * cols..(slot + 1) * cols]);
            for (((num, d), ((&v, &inject), &cap)), (&w, &wn)) in
                bl.iter_mut().zip(den.iter_mut()).zip(cells).zip(jitter)
            {
                let weight = (w as f64 * (1.0 + wn)).max(0.01);
                let eff = cap as f64 * weight;
                *num += eff * (v + inject);
                *d += eff;
            }
        } else {
            for ((num, d), ((&v, &inject), &cap)) in bl.iter_mut().zip(den.iter_mut()).zip(cells) {
                // Weight 1.0: `cap * 1.0` is `cap` exactly.
                let eff = cap as f64;
                *num += eff * (v + inject);
                *d += eff;
            }
        }
    }
    for ((b, &d), &noise) in bl.iter_mut().zip(den.iter()).zip(&eq_noise[..cols]) {
        *b = (*b / d + (bias + noise)).clamp(0.0, v_max);
    }
    for &row in open {
        let rs = data[row].as_mut().expect("open row materialized");
        for (v, &b) in rs.v[..cols].iter_mut().zip(bl.iter()) {
            *v = cell::settle_toward(Volts(*v), Volts(b), settle).value();
        }
    }
}

/// The dominant share shape — one open row, no glitch weighting (every
/// plain activation and Frac step) — with the row references hoisted out
/// of the column loop. The body replays `bitline::share` with a single
/// weight-1.0 participant operation for operation, and reads the same
/// pre-filled `eq_noise` buffer, so the produced bits match
/// [`share_columns_slots`] on the same one-row share exactly.
#[allow(clippy::too_many_arguments)]
fn share_columns_single(
    bl: &mut [f64],
    rs: &mut RowState,
    st: &RowStatics,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    v_max: f64,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: feature presence checked above.
        unsafe {
            return share_columns_single_avx512(
                bl, rs, st, bl_cap, settle, bias, eq_noise, v_max, cols,
            );
        }
    }
    share_columns_single_body(bl, rs, st, bl_cap, settle, bias, eq_noise, v_max, cols);
}

/// [`share_columns_single_body`] compiled for AVX-512 — see
/// [`share_columns_slots_avx512`] for why the wide build is bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[allow(clippy::too_many_arguments)]
unsafe fn share_columns_single_avx512(
    bl: &mut [f64],
    rs: &mut RowState,
    st: &RowStatics,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    v_max: f64,
    cols: usize,
) {
    share_columns_single_body(bl, rs, st, bl_cap, settle, bias, eq_noise, v_max, cols);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn share_columns_single_body(
    bl: &mut [f64],
    rs: &mut RowState,
    st: &RowStatics,
    bl_cap: Femtofarads,
    settle: f64,
    bias: f64,
    eq_noise: &[f64],
    v_max: f64,
    cols: usize,
) {
    let blc = bl_cap.value();
    #[allow(clippy::needless_range_loop)]
    for col in 0..cols {
        // Inlined `bitline::share` with one participant of weight 1.0:
        // same operations in the same order as the slot-major kernel.
        let eff = st.cap[col] as f64 * 1.0;
        let v = rs.v[col] + st.inject[col];
        let mut num = blc * bl[col];
        let mut den = blc;
        num += eff * v;
        den += eff;
        let mut v_eq = num / den;
        v_eq += bias + eq_noise[col];
        v_eq = v_eq.clamp(0.0, v_max);
        bl[col] = v_eq;
        rs.v[col] = cell::settle_toward(Volts(rs.v[col]), Volts(v_eq), settle).value();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DeviceParams;
    use crate::vendor::GroupId;

    struct Bench {
        silicon: Silicon,
        env: Environment,
        timing: InternalTiming,
        noise: NoiseEngine,
        perf: ModelPerf,
        cache: MaterializeCache,
        sub: Subarray,
        now: u64,
    }

    impl Bench {
        fn new(group: GroupId) -> Self {
            Bench::with_params(group, DeviceParams::default())
        }

        fn with_params(group: GroupId, params: DeviceParams) -> Self {
            Bench {
                silicon: Silicon::new(0xBEEF, params, group.profile()),
                env: Environment::nominal(),
                timing: InternalTiming::default(),
                noise: NoiseEngine::new(42),
                perf: ModelPerf::default(),
                cache: MaterializeCache::new(0xBEEF),
                sub: Subarray::new(0, 0, 32, 32),
                now: 100,
            }
        }

        /// Default parameters with the silicon, noise and cache seeds all
        /// derived from `seed`.
        fn seeded(group: GroupId, seed: u64) -> Self {
            Bench {
                silicon: Silicon::new(seed, DeviceParams::default(), group.profile()),
                noise: NoiseEngine::new(seed ^ 0x5EED),
                cache: MaterializeCache::new(seed),
                ..Bench::new(group)
            }
        }

        /// Splits the bench into a command context and its sub-array.
        fn split(&mut self) -> (Ctx<'_>, &mut Subarray) {
            let ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            (ctx, &mut self.sub)
        }

        /// One write program: ACT `r1` (glitched into a multi-row ACT by a
        /// PRE and an ACT to `r2` when given), WRITE `bits` from
        /// `start_col` `delay` cycles after the last ACT, PRE. With `fire`
        /// the pending share and sense fire before the WRITE, so they
        /// really run. Returns the sub-array state right after the WRITE.
        fn write_program(
            &mut self,
            r1: usize,
            r2: Option<usize>,
            start_col: usize,
            bits: &[bool],
            delay: u64,
            fire: bool,
        ) -> SubArrayState {
            let t = self.now;
            let (mut ctx, sub) = self.split();
            sub.activate(&mut ctx, r1, t).unwrap();
            let mut last_act = t;
            if let Some(r2) = r2 {
                sub.precharge(&mut ctx, t + 1);
                sub.activate(&mut ctx, r2, t + 2).unwrap();
                last_act = t + 2;
            }
            let tw = last_act + delay;
            if fire {
                sub.advance(&mut ctx, tw);
            }
            sub.write(&mut ctx, tw, start_col, bits).unwrap();
            let state = sub.snapshot(&(0..sub.rows()).collect::<Vec<_>>(), 0);
            sub.precharge(&mut ctx, tw + 10);
            sub.advance(&mut ctx, tw + 20);
            self.now = tw + 20;
            state
        }

        fn quiet(group: GroupId) -> Self {
            // Noise-free, variation-light configuration for deterministic
            // semantic tests.
            let params = DeviceParams {
                sense_offset_sigma: Volts(0.0),
                sense_noise_sigma: Volts(0.0),
                bitline_noise_sigma: Volts(0.0),
                cell_inject_sigma: Volts(0.0),
                share_weight_sigma: 0.0,
                share_temporal_sigma: 0.0,
                halfm_asym_sigma: Volts(0.0),
                cell_cap_rel_sigma: 0.0,
                vrt_fraction: 0.0,
                ..DeviceParams::default()
            };
            Bench::with_params(group, params)
        }

        /// Issues commands at relative cycle offsets from `self.now`, then
        /// bumps the clock past the last command.
        fn write_row(&mut self, row: usize, bits: &[bool]) {
            let t = self.now;
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            self.sub.activate(&mut ctx, row, t).unwrap();
            self.sub.write(&mut ctx, t + 10, 0, bits).unwrap();
            self.sub.precharge(&mut ctx, t + 20);
            self.sub.advance(&mut ctx, t + 30);
            self.now = t + 30;
        }

        fn read_row(&mut self, row: usize) -> Vec<bool> {
            let t = self.now;
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            self.sub.activate(&mut ctx, row, t).unwrap();
            let bits = self.sub.read(&mut ctx, t + 10).unwrap();
            self.sub.precharge(&mut ctx, t + 20);
            self.sub.advance(&mut ctx, t + 30);
            self.now = t + 30;
            bits
        }

        fn frac(&mut self, row: usize) {
            let t = self.now;
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            self.sub.activate(&mut ctx, row, t).unwrap();
            self.sub.precharge(&mut ctx, t + 1);
            self.sub.advance(&mut ctx, t + 7);
            self.now = t + 7;
        }

        fn cell_v(&mut self, row: usize, col: usize) -> f64 {
            let t = self.now;
            let mut ctx = Ctx {
                silicon: &self.silicon,
                env: &self.env,
                timing: &self.timing,
                noise: &self.noise,
                perf: &mut self.perf,
                cache: &mut self.cache,
            };
            self.sub.cell_voltage(&mut ctx, row, col, t).value()
        }
    }

    /// Bit-exact image of a snapshot: every voltage as raw bits plus the
    /// digital state.
    fn snapshot_bits(s: &SubArrayState) -> Vec<u64> {
        let mut out: Vec<u64> = s.bl.iter().map(|v| v.to_bits()).collect();
        out.extend(s.sensed_bits.iter().map(|&b| b as u64));
        out.extend(s.open.iter().map(|&r| r as u64));
        out.extend([s.sensed as u64, s.multi_row as u64]);
        for off in [
            s.pending_share_off,
            s.pending_sense_off,
            s.pending_close_off,
        ] {
            out.push(off.unwrap_or(u64::MAX));
        }
        for rc in &s.rows {
            out.extend([rc.row as u64, rc.last_off, rc.charged as u64]);
            out.extend(rc.v.iter().map(|v| v.to_bits()));
        }
        out
    }

    /// Every cell voltage of the sub-array at the bench clock, as raw bits.
    fn voltage_bits(b: &mut Bench) -> Vec<u64> {
        let (rows, cols) = (b.sub.rows(), b.sub.columns());
        let mut out = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for col in 0..cols {
                out.push(b.cell_v(row, col).to_bits());
            }
        }
        out
    }

    fn ones(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn zeros(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut b = Bench::new(GroupId::B);
        let pattern: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        b.write_row(5, &pattern);
        assert_eq!(b.read_row(5), pattern);
        // And it survives a second read.
        assert_eq!(b.read_row(5), pattern);
    }

    #[test]
    fn read_without_activation_fails() {
        let mut b = Bench::new(GroupId::B);
        let mut sub = Subarray::new(0, 0, 8, 8);
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        assert_eq!(
            sub.read(&mut ctx, 10).unwrap_err(),
            ModelError::BankClosed { bank: 0 }
        );
    }

    #[test]
    fn activate_out_of_range_fails() {
        let mut b = Bench::new(GroupId::B);
        let mut sub = Subarray::new(0, 0, 8, 8);
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        assert!(matches!(
            sub.activate(&mut ctx, 99, 5),
            Err(ModelError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn frac_reduces_cell_voltage_monotonically() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(3, &ones(32));
        let mut prev = b.cell_v(3, 0);
        assert!((prev - 1.5).abs() < 1e-9, "full write = {prev}");
        for _ in 0..6 {
            b.frac(3);
            let v = b.cell_v(3, 0);
            assert!(v < prev, "frac must lower the voltage: {v} vs {prev}");
            assert!(v > 0.75, "frac cannot cross Vdd/2 from above: {v}");
            prev = v;
        }
    }

    #[test]
    fn frac_raises_voltage_from_zero() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(3, &zeros(32));
        let mut prev = b.cell_v(3, 0);
        assert_eq!(prev, 0.0);
        for _ in 0..6 {
            b.frac(3);
            let v = b.cell_v(3, 0);
            assert!(v > prev, "frac must raise the voltage from 0");
            assert!(v < 0.75, "frac cannot cross Vdd/2 from below");
            prev = v;
        }
    }

    #[test]
    fn frac_has_no_effect_on_timing_guarded_groups_via_chip_policy() {
        // The guard lives at chip level, but verify the subarray-level
        // mechanics: an uninterrupted activation restores full levels.
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(2, &ones(32));
        // Normal full activation cycle (PRE only after restore).
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 2, t).unwrap();
        b.sub.precharge(&mut ctx, t + 20);
        b.sub.advance(&mut ctx, t + 30);
        b.now = t + 30;
        assert!((b.cell_v(2, 0) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn glitch_opens_three_rows_on_group_b() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(0, &ones(32));
        b.write_row(1, &ones(32));
        b.write_row(2, &zeros(32));
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 1, t).unwrap();
        b.sub.precharge(&mut ctx, t + 1);
        b.sub.activate(&mut ctx, 2, t + 2).unwrap();
        b.sub.advance(&mut ctx, t + 3);
        assert_eq!(b.sub.open_rows(), &[1, 2, 0]);
        // Let the sense fire: majority (1,1,0 in every column... rows 0
        // and 1 hold ones, row 2 zeros) = 1.
        b.sub.advance(&mut ctx, t + 10);
        assert!(b.sub.is_sensed());
        let bits = b.sub.read(&mut ctx, t + 12).unwrap();
        assert!(bits.iter().all(|&x| x), "maj(1,1,0) must be 1");
        b.sub.precharge(&mut ctx, t + 20);
        b.sub.advance(&mut ctx, t + 30);
        b.now = t + 30;
        // The majority result is written back to all three rows.
        for row in 0..3 {
            assert!(
                (b.cell_v(row, 0) - 1.5).abs() < 1e-9,
                "row {row} not restored to result"
            );
        }
    }

    #[test]
    fn majority_of_three_zero_wins() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(0, &zeros(32));
        b.write_row(1, &zeros(32));
        b.write_row(2, &ones(32));
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 1, t).unwrap();
        b.sub.precharge(&mut ctx, t + 1);
        b.sub.activate(&mut ctx, 2, t + 2).unwrap();
        b.sub.advance(&mut ctx, t + 10);
        let bits = b.sub.read(&mut ctx, t + 12).unwrap();
        assert!(bits.iter().all(|&x| !x), "maj(0,0,1) must be 0");
    }

    #[test]
    fn interrupted_four_row_activation_is_halfm() {
        let mut b = Bench::quiet(GroupId::B);
        // Paper layout: R1=8, R2=1 -> opens {8,1,0,9}. Ones in 8 and 0,
        // zeros in 1 and 9 -> balanced -> Half value near Vdd/2.
        b.write_row(8, &ones(32));
        b.write_row(0, &ones(32));
        b.write_row(1, &zeros(32));
        b.write_row(9, &zeros(32));
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 8, t).unwrap();
        b.sub.precharge(&mut ctx, t + 1);
        b.sub.activate(&mut ctx, 1, t + 2).unwrap();
        b.sub.precharge(&mut ctx, t + 3); // trailing PRE beats the sense
        b.sub.advance(&mut ctx, t + 10);
        assert!(!b.sub.is_sensed(), "sense must have been interrupted");
        assert!(b.sub.open_rows().is_empty());
        b.now = t + 10;
        // All four cells hold a fractional value strictly between rails.
        for row in [8, 1, 0, 9] {
            let v = b.cell_v(row, 0);
            assert!(v > 0.1 && v < 1.4, "row {row} = {v}");
        }
        // Ones became "weak ones" (above Vdd/2), zeros "weak zeros".
        assert!(b.cell_v(8, 0) > 0.75);
        assert!(b.cell_v(1, 0) < 0.75);
    }

    #[test]
    fn single_only_decoder_closes_r1_with_partial_charge() {
        let mut b = Bench::quiet(GroupId::E);
        b.write_row(1, &ones(32));
        b.write_row(2, &zeros(32));
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 1, t).unwrap();
        b.sub.precharge(&mut ctx, t + 1);
        b.sub.activate(&mut ctx, 2, t + 2).unwrap();
        b.sub.advance(&mut ctx, t + 3);
        assert_eq!(b.sub.open_rows(), &[2]);
        b.sub.advance(&mut ctx, t + 10);
        b.sub.precharge(&mut ctx, t + 20);
        b.sub.advance(&mut ctx, t + 30);
        b.now = t + 30;
        // R1 was interrupted mid-share: it holds a fractional value.
        let v1 = b.cell_v(1, 0);
        assert!(v1 < 1.5 && v1 > 0.75, "r1 = {v1}");
        // R2 completed normally: full restore of its zeros.
        assert!(b.cell_v(2, 0) < 1e-9);
    }

    #[test]
    fn rowclone_copy_via_overlapped_precharge() {
        let mut b = Bench::quiet(GroupId::B);
        let pattern: Vec<bool> = (0..32).map(|i| i % 5 == 0).collect();
        b.write_row(4, &pattern);
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 4, t).unwrap();
        // Wait for full restore, then PRE and immediately ACT(dst).
        b.sub.precharge(&mut ctx, t + 15);
        b.sub.activate(&mut ctx, 7, t + 16).unwrap();
        b.sub.precharge(&mut ctx, t + 17 + 5);
        b.sub.advance(&mut ctx, t + 40);
        b.now = t + 40;
        assert_eq!(b.read_row(7), pattern, "copy destination");
        assert_eq!(b.read_row(4), pattern, "source preserved");
    }

    #[test]
    fn leakage_flips_written_ones_eventually() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(6, &ones(32));
        // Jump 100 hours into the future. (Quiet bench has no offset
        // variation; the threshold is exactly 0.75 V on every column.)
        let hundred_hours = (Seconds::from_hours(100.0).value() / CYCLE_SECONDS) as u64;
        b.now += hundred_hours;
        let bits = b.read_row(6);
        let survivors = bits.iter().filter(|&&x| x).count();
        // With tau median 250 h (group scale 1.25), retention median is
        // ~0.69 * 312 h = 216 h; some cells flip by 100 h, some survive.
        assert!(survivors > 0, "all cells flipped");
        assert!(survivors < 32, "no cell flipped in 100 h");
    }

    #[test]
    fn zeros_do_not_leak_upward() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(6, &zeros(32));
        let t = (Seconds::from_hours(200.0).value() / CYCLE_SECONDS) as u64;
        b.now += t;
        let bits = b.read_row(6);
        assert!(bits.iter().all(|&x| !x), "a physical zero leaked to one");
    }

    #[test]
    fn probe_records_frac_trajectory() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(3, &ones(32));
        b.sub.attach_probe(3, 0);
        b.frac(3);
        let samples = b.sub.take_probe_samples().remove(0);
        assert!(samples.len() >= 2);
        // The share sample shows cell above bitline equilibrium-pull.
        let shared = samples
            .iter()
            .find(|s| s.event == ProbeEvent::ChargeShared)
            .expect("no share sample");
        assert!(shared.bitline_v.value() > 0.75 && shared.bitline_v.value() < 1.5);
        let closed = samples
            .iter()
            .find(|s| s.event == ProbeEvent::Closed)
            .expect("no close sample");
        assert!(closed.cell_v.value() < 1.5);
    }

    #[test]
    fn masked_write_only_touches_range() {
        let mut b = Bench::new(GroupId::B);
        b.write_row(9, &ones(32));
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 9, t).unwrap();
        b.sub.write(&mut ctx, t + 10, 8, &zeros(8)).unwrap();
        b.sub.precharge(&mut ctx, t + 20);
        b.sub.advance(&mut ctx, t + 30);
        b.now = t + 30;
        let bits = b.read_row(9);
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(bit, !(8..16).contains(&i), "col {i}");
        }
    }

    #[test]
    fn refresh_destroys_fractional_value() {
        let mut b = Bench::quiet(GroupId::B);
        b.write_row(3, &ones(32));
        for _ in 0..3 {
            b.frac(3);
        }
        let v_frac = b.cell_v(3, 0);
        assert!(v_frac < 1.4);
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.refresh_row(&mut ctx, 3, t);
        b.now = t + 10;
        // The fractional value is destroyed: the sense amplifier resolves
        // it to whichever rail its threshold dictates (after three Frac
        // operations the level sits near the decision point, so either
        // rail is legitimate — but no fractional value may remain).
        let v = b.cell_v(3, 0);
        assert!(
            v.abs() < 1e-9 || (v - 1.5).abs() < 1e-9,
            "refresh must snap the fractional value to a rail, got {v}"
        );

        // A barely-disturbed row (one Frac, still near Vdd) must restore
        // to full Vdd.
        b.write_row(4, &ones(32));
        b.frac(4);
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.refresh_row(&mut ctx, 4, t);
        b.now = t + 10;
        assert!((b.cell_v(4, 0) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn superseding_write_matches_live_share_and_sense() {
        // 0.1 s of idle cycles: a share after it runs a real leakage pass.
        const GAP: u64 = 40_000_000;
        let sense = InternalTiming::default().sense_enable;
        // (ACT row, glitch partner, write delay after the last ACT, idle
        // gap before the program)
        let programs = [
            (3, None, sense, 0),
            (5, None, sense + 6, 0),
            (8, Some(1), sense, 0),
            (3, None, 1_000, GAP),
            (8, Some(1), sense + 3, GAP),
            (12, None, sense, GAP),
        ];
        for seed in [1u64, 7, 0xC0FFEE] {
            for group in [GroupId::B, GroupId::C, GroupId::J] {
                let mut elided = Bench::seeded(group, seed);
                let mut live = Bench::seeded(group, seed);
                for (i, &(r1, r2, delay, gap)) in programs.iter().enumerate() {
                    let bits: Vec<bool> = (0..32)
                        .map(|c| (c * 7 + i + seed as usize).is_multiple_of(3))
                        .collect();
                    elided.now += gap;
                    live.now += gap;
                    let a = elided.write_program(r1, r2, 0, &bits, delay, false);
                    let b = live.write_program(r1, r2, 0, &bits, delay, true);
                    let case = format!("seed {seed} group {group:?} program {i}");
                    assert_eq!(snapshot_bits(&a), snapshot_bits(&b), "{case}");
                    if r2.is_some() && group == GroupId::B {
                        assert!(a.open.len() > 1, "{case}: glitch opened one row");
                    }
                    assert_eq!(elided.perf.superseded_activations, i as u64 + 1, "{case}");
                    assert_eq!(live.perf.superseded_activations, 0, "{case}");
                    // A following Frac and sensed read see the same cells.
                    elided.frac(r1);
                    live.frac(r1);
                    assert_eq!(elided.read_row(r1), live.read_row(r1), "{case}");
                    assert_eq!(voltage_bits(&mut elided), voltage_bits(&mut live), "{case}");
                }
                let n = programs.len() as u64;
                assert_eq!(elided.perf.share_events + n, live.perf.share_events);
                assert_eq!(elided.perf.sense_events + n, live.perf.sense_events);
                assert!(elided.perf.leak_events < live.perf.leak_events);
            }
        }
    }

    #[test]
    fn probes_faults_and_partial_writes_do_not_supersede() {
        let sense = InternalTiming::default().sense_enable;
        for seed in [2u64, 9, 0xFACE] {
            // Partial writes leave columns only the sense defines.
            let mut elided = Bench::seeded(GroupId::B, seed);
            let mut live = Bench::seeded(GroupId::B, seed);
            for (start, len) in [(8, 8), (0, 31), (1, 31)] {
                let a = elided.write_program(4, None, start, &ones(len), sense, false);
                let b = live.write_program(4, None, start, &ones(len), sense, true);
                assert_eq!(snapshot_bits(&a), snapshot_bits(&b));
            }
            assert_eq!(elided.perf.superseded_activations, 0);
            assert_eq!(elided.perf.events(), live.perf.events());

            // A probe samples the share and the sense.
            let mut elided = Bench::seeded(GroupId::B, seed);
            let mut live = Bench::seeded(GroupId::B, seed);
            elided.sub.attach_probe(4, 0);
            live.sub.attach_probe(4, 0);
            let a = elided.write_program(4, None, 0, &ones(32), sense, false);
            let b = live.write_program(4, None, 0, &ones(32), sense, true);
            assert_eq!(snapshot_bits(&a), snapshot_bits(&b));
            assert_eq!(elided.perf.superseded_activations, 0);
            let samples = elided.sub.take_probe_samples();
            assert!(samples[0]
                .iter()
                .any(|s| s.event == ProbeEvent::ChargeShared));
            assert_eq!(samples, live.sub.take_probe_samples());

            // Stuck pins and sense flips are counted fault events.
            use crate::faults::{FaultConfig, FaultPlan};
            let plan = FaultPlan::new(
                seed,
                FaultConfig {
                    stuck_density: 0.05,
                    sense_flip_rate: 0.05,
                    ..FaultConfig::none()
                },
            );
            let mut elided = Bench::seeded(GroupId::B, seed);
            let mut live = Bench::seeded(GroupId::B, seed);
            elided.silicon.set_faults(Some(plan.clone()));
            live.silicon.set_faults(Some(plan));
            for row in [4, 5, 6] {
                let a = elided.write_program(row, None, 0, &ones(32), sense, false);
                let b = live.write_program(row, None, 0, &ones(32), sense, true);
                assert_eq!(snapshot_bits(&a), snapshot_bits(&b));
            }
            assert_eq!(elided.perf.superseded_activations, 0);
            assert!(elided.perf.fault_events() > 0);
            assert_eq!(elided.perf.fault_events(), live.perf.fault_events());
        }
    }

    #[test]
    fn writes_to_an_unsensed_bank_are_still_rejected() {
        let sense = InternalTiming::default().sense_enable;
        // A write before the sense cycle, and writes after a PRE that
        // closes the row before its sense (issued before or after the
        // share fired): all fail exactly as before, leaving the Frac
        // value the share produced.
        for pre in [None, Some(0), Some(1)] {
            let mut b = Bench::seeded(GroupId::B, 3);
            let mut twin = Bench::seeded(GroupId::B, 3);
            b.write_row(2, &ones(32));
            twin.write_row(2, &ones(32));
            let t = b.now;
            let tw = t + sense - u64::from(pre.is_none());
            for (bench, write) in [(&mut b, true), (&mut twin, false)] {
                let (mut ctx, sub) = bench.split();
                sub.activate(&mut ctx, 2, t).unwrap();
                if let Some(dt) = pre {
                    sub.precharge(&mut ctx, t + dt);
                }
                if write {
                    assert_eq!(
                        sub.write(&mut ctx, tw, 0, &zeros(32)).unwrap_err(),
                        ModelError::BankClosed { bank: 0 }
                    );
                } else {
                    sub.advance(&mut ctx, tw);
                }
            }
            let rows: Vec<usize> = (0..32).collect();
            assert_eq!(
                snapshot_bits(&b.sub.snapshot(&rows, 0)),
                snapshot_bits(&twin.sub.snapshot(&rows, 0))
            );
            assert_eq!(b.perf.superseded_activations, 1, "only the setup write");
        }
    }

    #[test]
    fn write_width_mismatch_is_rejected() {
        let mut b = Bench::new(GroupId::B);
        let t = b.now;
        let mut ctx = Ctx {
            silicon: &b.silicon,
            env: &b.env,
            timing: &b.timing,
            noise: &b.noise,
            perf: &mut b.perf,
            cache: &mut b.cache,
        };
        b.sub.activate(&mut ctx, 0, t).unwrap();
        let err = b.sub.write(&mut ctx, t + 10, 30, &ones(8)).unwrap_err();
        assert!(matches!(err, ModelError::WidthMismatch { .. }));
    }

    /// Seeded uniform draw in `[lo, hi)` for the kernel oracle below.
    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        *state = crate::variation::splitmix64(*state);
        lo + (hi - lo) * ((*state >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Inputs of one multi-row share, shaped like `fire_share` hands them
    /// to the kernel: `open` is a role-ordered set of rows out of `data`.
    struct ShareCase {
        data: Vec<Option<Box<RowState>>>,
        open: Vec<usize>,
        statics: Vec<RowStatics>,
        weights: Vec<Vec<f32>>,
        weight_noise: Vec<f64>,
        eq_noise: Vec<f64>,
        bl: Vec<f64>,
    }

    const ORACLE_COLS: usize = 67;
    const ORACLE_ROWS: usize = 24;
    const ORACLE_BL_CAP: Femtofarads = Femtofarads(88.0);
    const ORACLE_SETTLE: f64 = 0.3;
    const ORACLE_BIAS: f64 = 0.01;
    const ORACLE_V_MAX: f64 = 1.5 * 1.05;

    impl ShareCase {
        fn new(n: usize, seed: u64) -> Self {
            let cols = ORACLE_COLS;
            let mut rng = seed;
            let data = (0..ORACLE_ROWS)
                .map(|_| {
                    Some(Box::new(RowState {
                        v: (0..cols).map(|_| uniform(&mut rng, 0.0, 1.5)).collect(),
                        last: 0,
                        charged: true,
                    }))
                })
                .collect();
            // Distinct rows in a scrambled role order.
            let open = (0..n).map(|slot| (slot * 7 + 3) % ORACLE_ROWS).collect();
            let statics = (0..n)
                .map(|_| RowStatics {
                    cap: (0..cols)
                        .map(|_| uniform(&mut rng, 15.0, 30.0) as f32)
                        .collect(),
                    tau20: Box::new([]),
                    inject: (0..cols).map(|_| uniform(&mut rng, -0.02, 0.02)).collect(),
                    vrt: Box::new([]),
                    stuck: Box::new([]),
                })
                .collect();
            let weights = (0..4)
                .map(|_| {
                    (0..cols)
                        .map(|_| uniform(&mut rng, 0.5, 2.0) as f32)
                        .collect()
                })
                .collect();
            let mut weight_noise: Vec<f64> = (0..4 * cols)
                .map(|_| uniform(&mut rng, -0.4, 0.4))
                .collect();
            let mut eq_noise: Vec<f64> =
                (0..cols).map(|_| uniform(&mut rng, -0.05, 0.05)).collect();
            // Edges: jitter below -1 drives the weight under the 0.01
            // floor, and large equalization noise pins the bit-line to
            // each end of the clamp.
            for slot in 0..4 {
                weight_noise[slot * cols + 5 + slot] = -1.7;
            }
            eq_noise[11] = 9.0;
            eq_noise[12] = -9.0;
            let bl = (0..cols).map(|_| uniform(&mut rng, 0.0, 1.5)).collect();
            ShareCase {
                data,
                open,
                statics,
                weights,
                weight_noise,
                eq_noise,
                bl,
            }
        }

        fn stat(&self) -> Vec<Option<&RowStatics>> {
            self.statics.iter().map(Some).collect()
        }

        fn weights(&self) -> [&[f32]; 4] {
            [0, 1, 2, 3].map(|slot| self.weights[slot].as_slice())
        }

        /// The per-column form: gather each column's participants, share
        /// them with `bitline::share`, then settle every open cell.
        fn reference(&mut self, multi: bool) {
            let cols = ORACLE_COLS;
            for col in 0..cols {
                let cells: Vec<SharingCell> = self
                    .open
                    .iter()
                    .enumerate()
                    .map(|(slot, &row)| {
                        let st = &self.statics[slot];
                        let weight = if multi && slot < 4 {
                            let w = self.weights[slot][col] as f64;
                            (w * (1.0 + self.weight_noise[slot * cols + col])).max(0.01)
                        } else {
                            1.0
                        };
                        SharingCell {
                            v: Volts(self.data[row].as_ref().unwrap().v[col] + st.inject[col]),
                            cap: Femtofarads(st.cap[col] as f64),
                            weight,
                        }
                    })
                    .collect();
                let mut v_eq = bitline::share(Volts(self.bl[col]), ORACLE_BL_CAP, &cells).value();
                v_eq += ORACLE_BIAS + self.eq_noise[col];
                v_eq = v_eq.clamp(0.0, ORACLE_V_MAX);
                self.bl[col] = v_eq;
                for &row in &self.open {
                    let rs = self.data[row].as_mut().unwrap();
                    rs.v[col] =
                        cell::settle_toward(Volts(rs.v[col]), Volts(v_eq), ORACLE_SETTLE).value();
                }
            }
        }

        fn bits(&self) -> Vec<u64> {
            share_bits(&self.bl, &self.data)
        }
    }

    /// Every bit-line and cell voltage, as bits.
    fn share_bits(bl: &[f64], data: &[Option<Box<RowState>>]) -> Vec<u64> {
        let cells = data.iter().flat_map(|rs| rs.as_ref().unwrap().v.iter());
        bl.iter().chain(cells).map(|v| v.to_bits()).collect()
    }

    /// Runs `kernel` (one build of the slot-major share) on a fresh copy
    /// of `case` and returns the resulting voltages as bits.
    fn run_slots(
        case: &ShareCase,
        kernel: impl FnOnce(
            &mut [f64],
            &mut [f64],
            &mut [Option<Box<RowState>>],
            &[usize],
            &[Option<&RowStatics>],
            &[&[f32]; 4],
        ),
    ) -> Vec<u64> {
        let mut bl = case.bl.clone();
        let mut data = case.data.clone();
        // A stale denominator buffer must not leak into the result.
        let mut den = vec![f64::NAN; ORACLE_COLS];
        kernel(
            &mut bl,
            &mut den,
            &mut data,
            &case.open,
            &case.stat(),
            &case.weights(),
        );
        share_bits(&bl, &data)
    }

    #[test]
    fn slot_major_share_matches_per_column_reference() {
        let cols = ORACLE_COLS;
        for n in [1, 2, 3, 4, 5, 16] {
            for multi in [false, true] {
                let seed = 0xC0FFEE ^ (n as u64) << 8 ^ multi as u64;
                let case = ShareCase::new(n, seed);
                let mut expect = ShareCase::new(n, seed);
                expect.reference(multi);
                let what = format!("n = {n}, multi = {multi}");
                // The edges are really exercised.
                assert!(expect.bl.contains(&0.0), "{what}: no clamp at 0");
                assert!(
                    expect.bl.contains(&ORACLE_V_MAX),
                    "{what}: no clamp at v_max"
                );
                if multi {
                    let floored = (0..n.min(4)).any(|slot| {
                        (0..cols).any(|col| {
                            let w = case.weights[slot][col] as f64;
                            w * (1.0 + case.weight_noise[slot * cols + col]) < 0.01
                        })
                    });
                    assert!(floored, "{what}: weight floor never hit");
                }
                let eq = &case.eq_noise;
                let wn = &case.weight_noise;
                let body = run_slots(&case, |bl, den, data, open, stat, w| {
                    share_columns_slots_body(
                        bl,
                        den,
                        data,
                        open,
                        stat,
                        w,
                        multi,
                        ORACLE_BL_CAP,
                        ORACLE_SETTLE,
                        ORACLE_BIAS,
                        eq,
                        wn,
                        ORACLE_V_MAX,
                    )
                });
                assert_eq!(body, expect.bits(), "{what}: baseline body");
                let dispatched = run_slots(&case, |bl, den, data, open, stat, w| {
                    share_columns_slots(
                        bl,
                        den,
                        data,
                        open,
                        stat,
                        w,
                        multi,
                        ORACLE_BL_CAP,
                        ORACLE_SETTLE,
                        ORACLE_BIAS,
                        eq,
                        wn,
                        ORACLE_V_MAX,
                    )
                });
                assert_eq!(dispatched, body, "{what}: dispatched build");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                {
                    let wide = run_slots(&case, |bl, den, data, open, stat, w| {
                        // SAFETY: feature presence checked above.
                        unsafe {
                            share_columns_slots_avx512(
                                bl,
                                den,
                                data,
                                open,
                                stat,
                                w,
                                multi,
                                ORACLE_BL_CAP,
                                ORACLE_SETTLE,
                                ORACLE_BIAS,
                                eq,
                                wn,
                                ORACLE_V_MAX,
                            )
                        }
                    });
                    assert_eq!(wide, body, "{what}: AVX-512 build");
                }
                if n == 1 && !multi {
                    // The fused single-row kernel gives the same bits.
                    let mut bl = case.bl.clone();
                    let mut data = case.data.clone();
                    share_columns_single(
                        &mut bl,
                        data[case.open[0]].as_mut().unwrap(),
                        &case.statics[0],
                        ORACLE_BL_CAP,
                        ORACLE_SETTLE,
                        ORACLE_BIAS,
                        eq,
                        ORACLE_V_MAX,
                        cols,
                    );
                    assert_eq!(share_bits(&bl, &data), body, "{what}: single-row kernel");
                }
            }
        }
    }
}
