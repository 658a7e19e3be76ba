//! True random number generation from four-row activation — the
//! QUAC-TRNG direction the paper points at (§VII: *"QUAC-TRNG leveraged
//! the command sequence in ComputeDRAM to open four rows simultaneously
//! and explored different combinations of initial values in these four
//! rows to generate random numbers using the charge sharing among
//! them"*).
//!
//! Mechanism: a column whose four cells hold two ones and two zeros
//! charge-shares to ≈ `Vdd/2`; letting the sense amplifier **complete**
//! (no trailing PRECHARGE — the opposite of Half-m) forces a metastable
//! resolution. Columns whose static margin (weights, injection, offset)
//! is small resolve differently from trial to trial — true randomness
//! from decoder-timing jitter and thermal noise. Columns with a large
//! static margin are deterministic; the extractor removes them.
//!
//! Extraction pairs the *same column of two consecutive samples*
//! (Von Neumann on temporal pairs): conditioned on the column's static
//! margin the two trials are i.i.d., so emitted bits are unbiased and
//! deterministic columns simply never emit.

use fracdram_model::snapshot::ModuleRowsSnapshot;
use fracdram_model::{Cycles, Geometry, RowAddr, SubarrayAddr};
use fracdram_softmc::{CompiledProgram, MemoryController, Program};
use fracdram_stats::bits::BitVec;

use crate::error::{FracDramError, Result};
use crate::frac::physical_pattern;
use crate::multirow::glitch_program;
use crate::rowcopy::copy_program;
use crate::rowsets::Quad;

/// A DRAM true-random-number generator bound to one sub-array.
///
/// Every sample runs the same two-part program: a **refill prefix**
/// (four in-DRAM copies restoring the balanced pattern into the quad)
/// followed by the **fire tail** (the four-row activation, sense, read,
/// close). The refill is a pure function of the seed rows — every cell
/// it touches ends at a full rail — so its post-state is identical from
/// sample to sample. The generator therefore snapshots the post-refill
/// sub-array state once and restores it on later samples whenever that
/// is provably exact (see `run_refill`), skipping 4×22 of the
/// 105 command cycles' worth of kernel work per sample. The fire tail
/// always runs live: that is where the metastable resolution — the
/// entropy — happens.
#[derive(Debug)]
pub struct Trng {
    quad: Quad,
    sample_cycles: u64,
    /// The four seed→quad copies, prebuilt at bind.
    refill: Program,
    /// Compiled form of the refill, for stats/trace/clock accounting on
    /// a snapshot restore.
    refill_compiled: CompiledProgram,
    /// Glitch + sense-to-completion + read + close, prebuilt at bind.
    fire: Program,
    /// Local rows the refill touches: the four seed rows plus the quad.
    touched_rows: Vec<usize>,
    /// Post-refill sub-array capture, anchored to the refill start.
    snapshot: Option<ModuleRowsSnapshot>,
}

/// Throughput report of a TRNG session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrngReport {
    /// Extracted random bits produced.
    pub bits: usize,
    /// Raw samples drawn.
    pub samples: usize,
    /// Total DRAM command cycles consumed.
    pub cycles: Cycles,
    /// Extracted throughput in megabits per second of DRAM command time.
    pub mbit_per_s: f64,
}

impl Trng {
    /// Binds a TRNG to `subarray`. Requires four-row activation (groups
    /// B, C, D — and DDR4 modules in QUAC-TRNG's measurements).
    ///
    /// Reserves four seed rows (local rows 16–19) holding the balanced
    /// pattern and writes them once.
    ///
    /// # Errors
    ///
    /// Returns [`FracDramError::Unsupported`] without four-row support,
    /// or [`FracDramError::BadRowSet`] when the sub-array is too small.
    pub fn bind(mc: &mut MemoryController, subarray: SubarrayAddr) -> Result<Self> {
        let profile = mc.module().profile();
        if !profile.supports_four_row() {
            return Err(FracDramError::Unsupported {
                group: profile.group,
                operation: "four-row activation (TRNG)",
            });
        }
        let geometry: Geometry = *mc.module().geometry();
        if geometry.rows_per_subarray < 20 {
            return Err(FracDramError::BadRowSet {
                reason: "TRNG needs at least 20 rows per sub-array".into(),
            });
        }
        let quad = Quad::canonical(&geometry, subarray, profile.group)?;
        let seeds = [16, 17, 18, 19].map(|local| subarray.row(&geometry, local));
        // Balanced pattern: physical one in seed rows 0 and 2, zero in
        // 1 and 3 — per column, the quad receives two ones and two zeros.
        let balanced_one = [true, false, true, false];
        for (seed, one) in seeds.iter().zip(balanced_one) {
            let bits = physical_pattern(mc, *seed, one);
            mc.write_row(*seed, &bits)?;
        }
        let refill = Self::refill_program(&seeds, &quad, &geometry);
        let fire = Self::fire_program(&quad, &geometry);
        let refill_compiled = CompiledProgram::compile(mc.timing(), &refill);
        let mut touched_rows: Vec<usize> = quad.local_roles().to_vec();
        touched_rows.extend([16, 17, 18, 19]);
        touched_rows.sort_unstable();
        touched_rows.dedup();
        let sample_cycles = refill.total_cycles().value() + fire.total_cycles().value();
        Ok(Trng {
            quad,
            sample_cycles,
            refill,
            refill_compiled,
            fire,
            touched_rows,
            snapshot: None,
        })
    }

    /// The sample prefix: refill the quad from the seed rows (four
    /// in-DRAM copies).
    fn refill_program(seeds: &[RowAddr; 4], quad: &Quad, geometry: &Geometry) -> Program {
        let mut p = Program::new();
        for (seed, dst) in seeds.iter().zip(quad.rows(geometry)) {
            p.extend_from(&copy_program(*seed, dst));
        }
        p
    }

    /// The sample tail: run the four-row activation to completion, read
    /// the resolved bits, close.
    fn fire_program(quad: &Quad, geometry: &Geometry) -> Program {
        let mut p = Program::new();
        p.extend_from(&glitch_program(quad.r1(geometry), quad.r2(geometry)));
        p.extend_from(
            &Program::builder()
                .nop()
                .delay(6)
                .read(quad.r1(geometry).bank)
                .pre(quad.r1(geometry).bank)
                .delay(5)
                .build(),
        );
        p
    }

    /// Runs the refill prefix, restoring the cached post-refill snapshot
    /// when it is provably equivalent to a live replay: no timing guard
    /// or probe, the bank idle once drained, no excursion window and no
    /// budget abort inside the refill, and an unchanged environment (the
    /// refill's post-state is rail-exact, so it is independent of both
    /// the start clock and whatever the previous fire left in the quad).
    fn run_refill(&mut self, mc: &mut MemoryController) -> Result<()> {
        let sub = self.quad.subarray();
        let total = self.refill_compiled.total_cycles();
        if mc.prefix_caching()
            && mc.module().write_fastpath_eligible(sub.bank, sub.subarray)
            && mc
                .module()
                .fault_windows_clear(mc.clock(), mc.clock() + total)
            && mc.cycle_budget().is_none_or(|b| total <= b)
        {
            let t0 = mc.clock();
            mc.module_mut().drain_bank(sub.bank, t0);
            if mc.module().bank_idle(sub.bank) {
                if let Some(snap) = &self.snapshot {
                    if snap.environment() == mc.module().environment() {
                        mc.module_mut().restore_rows_snapshot(snap, t0);
                        mc.account_restored_program(&self.refill_compiled, t0);
                        return Ok(());
                    }
                }
                mc.run(&self.refill)?;
                self.snapshot = Some(mc.module_mut().capture_rows_snapshot(
                    sub.bank,
                    sub.subarray,
                    &self.touched_rows,
                    t0,
                ));
                return Ok(());
            }
        }
        mc.run(&self.refill)?;
        Ok(())
    }

    /// Cycles one raw sample costs.
    pub fn sample_cycles(&self) -> Cycles {
        Cycles(self.sample_cycles)
    }

    /// Draws one raw sample: every column resolves its metastable
    /// four-row share (biased and partially deterministic — extract
    /// before use).
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn raw_sample(&mut self, mc: &mut MemoryController) -> Result<BitVec> {
        self.run_refill(mc)?;
        let outcome = mc.run(&self.fire)?;
        Ok(BitVec::from_bools(&outcome.single_read()?))
    }

    /// Produces at least `n` extracted random bits, returning the bits
    /// and the throughput report.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn random_bits(
        &mut self,
        mc: &mut MemoryController,
        n: usize,
    ) -> Result<(BitVec, TrngReport)> {
        let mut out = BitVec::new();
        let mut samples = 0usize;
        let start = mc.clock();
        while out.len() < n {
            let a = self.raw_sample(mc)?;
            let b = self.raw_sample(mc)?;
            samples += 2;
            // Von Neumann on temporal pairs: emit only where the two
            // trials disagree.
            for col in 0..a.len().min(b.len()) {
                let (x, y) = (a.get(col).unwrap(), b.get(col).unwrap());
                if x != y {
                    out.push(x);
                }
            }
            if samples > 64 && out.is_empty() {
                return Err(FracDramError::BadRowSet {
                    reason: "no entropy columns: every column resolves deterministically".into(),
                });
            }
        }
        let cycles = Cycles(mc.clock() - start);
        let seconds = cycles.to_seconds().value();
        let report = TrngReport {
            bits: out.len(),
            samples,
            cycles,
            mbit_per_s: out.len() as f64 / seconds / 1e6,
        };
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracdram_model::{Geometry, GroupId, Module, ModuleConfig};
    use fracdram_stats::nist;

    fn controller(group: GroupId) -> MemoryController {
        let geometry = Geometry {
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 32,
            columns: 512,
        };
        MemoryController::new(Module::new(ModuleConfig::single_chip(group, 41, geometry)))
    }

    #[test]
    fn entropy_columns_flip_between_samples() {
        let mut mc = controller(GroupId::C);
        let mut trng = Trng::bind(&mut mc, SubarrayAddr::new(0, 0)).unwrap();
        let a = trng.raw_sample(&mut mc).unwrap();
        let b = trng.raw_sample(&mut mc).unwrap();
        let differing = a.hamming_distance(&b);
        assert!(differing > 0, "no column resolved differently");
        assert!(
            differing < a.len(),
            "every column flipped — margins cannot all be zero"
        );
    }

    #[test]
    fn extracted_bits_are_balanced_and_unpatterned() {
        let mut mc = controller(GroupId::B);
        let mut trng = Trng::bind(&mut mc, SubarrayAddr::new(0, 0)).unwrap();
        let (bits, report) = trng.random_bits(&mut mc, 4_000).unwrap();
        assert!(bits.len() >= 4_000);
        assert_eq!(report.bits, bits.len());
        assert!(report.mbit_per_s > 0.0);
        let stream = bits.slice(0, 4_000);
        assert!(
            nist::frequency(&stream).passed(),
            "{:?}",
            nist::frequency(&stream)
        );
        assert!(nist::runs(&stream).passed(), "{:?}", nist::runs(&stream));
        assert!(
            nist::cumulative_sums(&stream).passed(),
            "{:?}",
            nist::cumulative_sums(&stream)
        );
    }

    #[test]
    fn deterministic_columns_never_emit() {
        // With zero temporal noise every column is deterministic and the
        // generator must refuse rather than emit constants.
        let geometry = Geometry {
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 32,
            columns: 128,
        };
        let params = fracdram_model::DeviceParams {
            share_temporal_sigma: 0.0,
            sense_noise_sigma: fracdram_model::Volts(0.0),
            bitline_noise_sigma: fracdram_model::Volts(0.0),
            ..fracdram_model::DeviceParams::default()
        };
        let mut mc = MemoryController::new(Module::new(ModuleConfig {
            group: GroupId::B,
            seed: 41,
            geometry,
            chips: 1,
            params,
        }));
        let mut trng = Trng::bind(&mut mc, SubarrayAddr::new(0, 0)).unwrap();
        let err = trng.random_bits(&mut mc, 100).unwrap_err();
        assert!(matches!(err, FracDramError::BadRowSet { .. }));
    }

    #[test]
    fn unsupported_groups_are_rejected() {
        for group in [GroupId::A, GroupId::F, GroupId::K] {
            let mut mc = controller(group);
            assert!(
                Trng::bind(&mut mc, SubarrayAddr::new(0, 0)).is_err(),
                "{group}"
            );
        }
    }

    #[test]
    fn sample_cost_is_dominated_by_the_refill_copies() {
        let mut mc = controller(GroupId::B);
        let trng = Trng::bind(&mut mc, SubarrayAddr::new(0, 0)).unwrap();
        // 4 copies (22 each) + glitch (3) + sense/read/close tail (14).
        assert_eq!(trng.sample_cycles().value(), 4 * 22 + 3 + 14);
    }

    #[test]
    fn refill_snapshot_restore_matches_live_replay() {
        // Same silicon, same sample sequence; one controller restores
        // the cached post-refill snapshot, the other replays every
        // refill live. Metastable fires amplify any state difference,
        // so identical bit streams prove the restore is exact.
        let mut cached = controller(GroupId::B);
        let mut live = controller(GroupId::B);
        live.set_prefix_caching(false);
        let mut trng_cached = Trng::bind(&mut cached, SubarrayAddr::new(0, 0)).unwrap();
        let mut trng_live = Trng::bind(&mut live, SubarrayAddr::new(0, 0)).unwrap();
        for round in 0..6 {
            let a = trng_cached.raw_sample(&mut cached).unwrap();
            let b = trng_live.raw_sample(&mut live).unwrap();
            assert_eq!(a, b, "round {round}");
            assert_eq!(cached.clock(), live.clock(), "round {round}");
        }
        assert_eq!(cached.stats(), live.stats());
        assert!(
            cached.model_perf().snapshot_hits > 0,
            "fast path never engaged"
        );
        assert_eq!(live.model_perf().snapshot_hits, 0);
    }
}
