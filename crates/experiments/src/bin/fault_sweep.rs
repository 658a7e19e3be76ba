//! **Fault sweep**: success rate of the paper's primitives versus
//! injected fault density.
//!
//! The figure binaries measure the primitives on *healthy* dies; this
//! sweep measures how gracefully they degrade as deterministic fault
//! injection ([`fracdram_model::FaultConfig`]) dials in stuck cells,
//! weak cells, and flaky sense amplifiers. Because fault membership is
//! nested in density (a cell stuck at density 0.005 is still stuck at
//! 0.08), every curve degrades monotonically by construction — a
//! non-monotone curve is a bug, and the unit test below enforces it.
//!
//! Three curves per group:
//!
//! - **frac**: write→Frac-stress→read round-trip correctness of the
//!   Frac experiments' data path (per-column match rate);
//! - **fmaj**: mean per-column F-MAJ success rate
//!   ([`fracdram_experiments::tasks::stability_fmaj`]);
//! - **puf**: Frac-PUF stability, `1 −` mean intra-device normalized
//!   Hamming distance between repeated evaluations of one challenge.
//!
//! Every density point runs on the **same die** (same die seed), so the
//! curves isolate the fault density from process variation.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fault_sweep [-- --trials N --jobs N]
//! ```

use fracdram::fmaj::FmajConfig;
use fracdram::frac::frac;
use fracdram::puf::{evaluate, Challenge};
use fracdram::rowsets::Quad;
use fracdram_experiments::{fleet, render, setup, tasks, Args, Json, TaskKey};
use fracdram_model::{FaultConfig, GroupId, RowAddr, SubarrayAddr};
use fracdram_softmc::RunMetrics;
use fracdram_stats::hamming::normalized_distance;
use fracdram_stats::rng::Rng;

/// Stuck-cell density ladder; the other fault classes scale with it.
const DENSITIES: &[f64] = &[0.0, 0.005, 0.02, 0.08];

/// Groups swept (both support Frac, F-MAJ, and the PUF).
const GROUPS: &[GroupId] = &[GroupId::B, GroupId::C];

/// The fault configuration at one density point: stuck cells and sense
/// flips at the density itself, weak cells at twice it.
fn fault_config(density: f64) -> FaultConfig {
    FaultConfig {
        stuck_density: density,
        weak_density: 2.0 * density,
        sense_flip_rate: density,
        ..FaultConfig::none()
    }
}

/// One density point's success rates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepPoint {
    frac: f64,
    fmaj: f64,
    puf: f64,
}

/// Measures all three curves at one density on one die. `die_seed`
/// stays fixed across densities (nested fault maps need the same die);
/// `task_seed` drives only the trial randomness.
fn sweep_point(
    group: GroupId,
    die_seed: u64,
    task_seed: u64,
    density: f64,
    trials: usize,
    puf_repeats: usize,
) -> (SweepPoint, RunMetrics) {
    let mut mc = setup::controller(group, setup::compute_geometry(), die_seed);
    mc.module_mut().set_fault_config(&fault_config(density));
    let mut rng = Rng::seed_from_u64(task_seed);
    let geometry = *mc.module().geometry();
    let width = mc.module().row_bits();

    // 1. Frac-path round trip: write a random row, stress the bank with
    //    an out-of-spec Frac on a neighbor row, read the data back.
    let data = RowAddr::new(0, 3);
    let neighbor = RowAddr::new(0, 9);
    let mut matched = 0usize;
    for _ in 0..trials {
        let pattern = rng.gen_bools(width);
        mc.write_row(data, &pattern).expect("write");
        frac(&mut mc, neighbor, 1).expect("frac");
        let back = mc.read_row(data).expect("read");
        matched += back
            .iter()
            .zip(&pattern)
            .filter(|(got, want)| got == want)
            .count();
    }
    let frac_rate = matched as f64 / (trials * width) as f64;

    // 2. F-MAJ stability.
    let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), group).expect("quad");
    let config = FmajConfig::best_for(group);
    let stability = tasks::stability_fmaj(&mut mc, &quad, &config, trials, &mut rng);
    let fmaj_rate = stability.iter().sum::<f64>() / stability.len() as f64;

    // 3. PUF stability: repeated evaluations of fixed challenges.
    let challenges = [Challenge::new(1, 7), Challenge::new(0, 21)];
    let mut distance = 0.0;
    for challenge in challenges {
        for _ in 0..puf_repeats {
            let first = evaluate(&mut mc, challenge).expect("puf");
            let second = evaluate(&mut mc, challenge).expect("puf");
            distance += normalized_distance(&first, &second);
        }
    }
    let puf_rate = 1.0 - distance / (challenges.len() * puf_repeats) as f64;

    setup::reclaim_caches(&mut mc);
    (
        SweepPoint {
            frac: frac_rate,
            fmaj: fmaj_rate,
            puf: puf_rate,
        },
        mc.metrics(),
    )
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "fault_sweep",
        "success rate of Frac / F-MAJ / PUF primitives vs injected fault density",
        &[
            (
                "trials",
                "write-read and F-MAJ trials per point (default 8)",
            ),
            ("puf-repeats", "PUF evaluation pairs per point (default 4)"),
            ("seed", "die seed (default 21)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let trials = args.usize("trials", 8);
    let puf_repeats = args.usize("puf-repeats", 4);
    let seed = args.u64("seed", 21);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    let mut plan = Vec::new();
    for &group in GROUPS {
        for variant in 0..DENSITIES.len() {
            plan.push(TaskKey::new(group, 0, 0).with_variant(variant));
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, task_seed| {
        sweep_point(
            key.group,
            seed,
            task_seed,
            DENSITIES[key.variant],
            trials,
            puf_repeats,
        )
    });
    eprintln!("{}", run.summary());

    println!(
        "{}",
        render::header("fault sweep — success rate vs injected fault density")
    );
    println!(
        "(stuck density and sense-flip rate shown; weak density = 2x; \
         same die at every point)\n"
    );
    for &group in GROUPS {
        println!("group {group} ({}):", group.profile().vendor);
        println!(
            "  {:>8} {:>10} {:>10} {:>10}",
            "density", "frac", "fmaj", "puf"
        );
        for report in run.tasks.iter().filter(|t| t.key.group == group) {
            let density = DENSITIES[report.key.variant];
            match report.ok() {
                Some(p) => println!(
                    "  {:>8.3} {:>10.4} {:>10.4} {:>10.4}",
                    density, p.frac, p.fmaj, p.puf
                ),
                None => println!("  {density:>8.3} {:>10} {:>10} {:>10}", "-", "-", "-"),
            }
        }
        println!();
    }
    println!("(curves degrade monotonically: fault membership is nested in density)");

    if let Some(path) = args.json_path() {
        run.write_json("fault_sweep", path, |p| {
            Json::obj()
                .field("frac", p.frac)
                .field("fmaj", p.fmaj)
                .field("puf", p.puf)
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    if run.failed() > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance property: every curve degrades monotonically with
    /// density (up to a small statistical tolerance on the transient
    /// classes) and ends strictly below its fault-free value.
    #[test]
    fn curves_degrade_monotonically() {
        for &group in GROUPS {
            let points: Vec<SweepPoint> = DENSITIES
                .iter()
                .map(|&d| sweep_point(group, 21, 77, d, 4, 2).0)
                .collect();
            for pair in points.windows(2) {
                assert!(
                    pair[1].frac <= pair[0].frac + 0.01,
                    "group {group}: frac curve rose: {points:?}"
                );
                assert!(
                    pair[1].fmaj <= pair[0].fmaj + 0.01,
                    "group {group}: fmaj curve rose: {points:?}"
                );
                assert!(
                    pair[1].puf <= pair[0].puf + 0.01,
                    "group {group}: puf curve rose: {points:?}"
                );
            }
            let first = points.first().unwrap();
            let last = points.last().unwrap();
            assert!(
                last.frac < first.frac - 0.02,
                "group {group}: frac curve flat: {points:?}"
            );
            assert!(
                last.fmaj < first.fmaj - 0.02,
                "group {group}: fmaj curve flat: {points:?}"
            );
            assert!((0.0..=1.0).contains(&last.puf), "{points:?}");
        }
    }

    #[test]
    fn fault_free_point_is_healthy() {
        let (p, _) = sweep_point(GroupId::B, 21, 3, 0.0, 2, 1);
        assert_eq!(p.frac, 1.0, "fault-free write-read must be exact");
        assert!(p.fmaj > 0.9, "{p:?}");
        assert!(p.puf > 0.9, "{p:?}");
    }
}
