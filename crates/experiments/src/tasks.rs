//! Shared fleet task bodies.
//!
//! The stability/coverage loop bodies that used to be duplicated across
//! the figure binaries (`fig10_fmaj_stability`, `ablation`, …) live
//! here so every binary — serial or fleet-parallel — runs the exact
//! same measurement code.

use fracdram::fmaj::{FmajConfig, FmajPlan};
use fracdram::maj3::Maj3Plan;
use fracdram::rowsets::{Quad, Triplet};
use fracdram::session::TrialRunner;
use fracdram_softmc::MemoryController;
use fracdram_stats::rng::Rng;

/// Refills three full-width operand rows in place. The trial hot loops
/// reuse one set of buffers across all trials instead of allocating
/// three rows per trial; the draw order matches `gen_bools` exactly, so
/// measurements are unchanged.
pub fn fill_operands(rng: &mut Rng, operands: &mut [Vec<bool>; 3]) {
    for op in operands {
        rng.fill_bools(op);
    }
}

/// Per-column success rate of F-MAJ over `trials` random-input trials —
/// the Fig. 10b/c measurement body.
///
/// # Panics
///
/// Panics when the F-MAJ operation itself fails (unsupported group or
/// structural controller error).
pub fn stability_fmaj(
    mc: &mut MemoryController,
    quad: &Quad,
    config: &FmajConfig,
    trials: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    let width = mc.module().row_bits();
    let mut correct = vec![0usize; width];
    let plan = FmajPlan::new(mc, quad, config).expect("fmaj plan");
    let mut runner = TrialRunner::new(mc);
    runner.run_arena(trials, |mc, arena, _| {
        let mut operands = [arena.take(), arena.take(), arena.take()];
        fill_operands(rng, &mut operands);
        let [a, b, c] = &operands;
        let result = plan.run(mc, [a, b, c]).expect("fmaj");
        tally_majority(&mut correct, &result, [a, b, c]);
        arena.give(result);
        let [a, b, c] = operands;
        arena.give(a);
        arena.give(b);
        arena.give(c);
    });
    rates(correct, trials)
}

/// Per-column success rate of the baseline MAJ3 over `trials`
/// random-input trials.
///
/// # Panics
///
/// Panics when the MAJ3 operation itself fails.
pub fn stability_maj3(
    mc: &mut MemoryController,
    triplet: &Triplet,
    trials: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    let width = mc.module().row_bits();
    let mut correct = vec![0usize; width];
    let plan = Maj3Plan::new(mc, triplet).expect("maj3 plan");
    let mut runner = TrialRunner::new(mc);
    runner.run_arena(trials, |mc, arena, _| {
        let mut operands = [arena.take(), arena.take(), arena.take()];
        fill_operands(rng, &mut operands);
        let [a, b, c] = &operands;
        let result = plan.run(mc, [a, b, c]).expect("maj3");
        tally_majority(&mut correct, &result, [a, b, c]);
        arena.give(result);
        let [a, b, c] = operands;
        arena.give(a);
        arena.give(b);
        arena.give(c);
    });
    rates(correct, trials)
}

/// Adds one trial's per-column verdicts into the success counters.
fn tally_majority(correct: &mut [usize], result: &[bool], operands: [&Vec<bool>; 3]) {
    let [a, b, c] = operands;
    for col in 0..correct.len() {
        let expect = [a[col], b[col], c[col]].iter().filter(|&&x| x).count() >= 2;
        if result[col] == expect {
            correct[col] += 1;
        }
    }
}

fn rates(correct: Vec<usize>, trials: usize) -> Vec<f64> {
    correct
        .into_iter()
        .map(|c| c as f64 / trials as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use fracdram_model::{GroupId, SubarrayAddr};

    #[test]
    fn stability_bodies_agree_with_inline_loop() {
        let seed = 3;
        let trials = 4;
        let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
        let geometry = *mc.module().geometry();
        let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), GroupId::B).expect("quad");
        let config = FmajConfig::best_for(GroupId::B);
        let stab = stability_fmaj(&mut mc, &quad, &config, trials, &mut Rng::seed_from_u64(1));
        assert_eq!(stab.len(), mc.module().row_bits());
        assert!(stab.iter().all(|&s| (0.0..=1.0).contains(&s)));

        // Same seed, fresh controller: identical measurement.
        let mut mc2 = setup::controller(GroupId::B, setup::compute_geometry(), seed);
        let stab2 = stability_fmaj(&mut mc2, &quad, &config, trials, &mut Rng::seed_from_u64(1));
        assert_eq!(stab, stab2);
    }

    #[test]
    fn maj3_body_runs_on_group_b() {
        let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), 5);
        let geometry = *mc.module().geometry();
        let triplet = Triplet::first(&geometry, SubarrayAddr::new(0, 0));
        let stab = stability_maj3(&mut mc, &triplet, 3, &mut Rng::seed_from_u64(2));
        assert_eq!(stab.len(), mc.module().row_bits());
    }
}
