//! Integration test for the experiment fleet: the merged results of a
//! real measurement sweep must be bit-identical at any worker count.

use fracdram::fmaj::FmajConfig;
use fracdram::rowsets::Quad;
use fracdram_experiments::{fleet, setup, task_seed, tasks, FleetPolicy, TaskKey};
use fracdram_model::{GroupId, SubarrayAddr};
use fracdram_stats::rng::Rng;

/// The fig10-style measurement body used by the determinism checks.
fn stability_task(
    key: &TaskKey,
    seed: u64,
    trials: usize,
) -> (Vec<f64>, fracdram_softmc::RunMetrics) {
    let mut mc = setup::controller(key.group, setup::compute_geometry(), 77 + key.module as u64);
    let geometry = *mc.module().geometry();
    let sa = SubarrayAddr::new(key.subarray % geometry.banks, key.subarray / geometry.banks);
    let quad = Quad::canonical(&geometry, sa, key.group).expect("quad");
    let config = FmajConfig::best_for(key.group);
    let mut rng = Rng::seed_from_u64(seed);
    let value = tasks::stability_fmaj(&mut mc, &quad, &config, trials, &mut rng);
    (value, mc.metrics())
}

fn plan() -> Vec<TaskKey> {
    let mut plan = Vec::new();
    for group in [GroupId::B, GroupId::C] {
        for module in 0..2 {
            for subarray in 0..2 {
                plan.push(TaskKey::new(group, module, subarray));
            }
        }
    }
    plan
}

#[test]
fn real_measurement_identical_at_jobs_1_and_8() {
    let plan = plan();
    let trials = 3;
    let task = |key: &TaskKey, seed: u64| stability_task(key, seed, trials);
    let serial = fleet::run_with(&plan, 99, 1, FleetPolicy::default(), task);
    let parallel = fleet::run_with(&plan, 99, 8, FleetPolicy::default(), task);

    assert_eq!(serial.tasks.len(), parallel.tasks.len());
    for (a, b) in serial.tasks.iter().zip(&parallel.tasks) {
        assert_eq!(a.key, b.key, "merge order must match the plan");
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.value(), b.value(), "payload differs at {:?}", a.key);
    }
    assert_eq!(
        serial.total_stats().commands,
        parallel.total_stats().commands,
        "aggregated DRAM command counts must match"
    );
}

#[test]
fn task_seeds_depend_only_on_base_seed_and_key() {
    let plan = plan();
    let run = fleet::run_with(&plan, 5, 4, FleetPolicy::default(), |key, seed| {
        assert_eq!(seed, task_seed(5, key));
        ((), fracdram_softmc::RunMetrics::default())
    });
    assert_eq!(run.tasks.len(), plan.len());
    // Re-running with the same base seed reproduces every seed; a
    // different base seed changes all of them.
    for key in &plan {
        assert_eq!(task_seed(5, key), task_seed(5, key));
        assert_ne!(task_seed(5, key), task_seed(6, key));
    }
}
