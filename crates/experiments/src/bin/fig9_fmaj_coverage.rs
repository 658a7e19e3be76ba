//! **Figure 9**: F-MAJ coverage as a function of the number of Frac
//! operations, for every fractional-row placement and initial value, on
//! groups B, C, and D — with the baseline MAJ3 coverage for group B.
//!
//! The sweep fans out over the experiment fleet: one task per
//! (group, module, sub-array), each measuring every configuration on
//! its own controller, so `--jobs N` never changes the printed figure.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig9_fmaj_coverage [-- --modules N --jobs N]
//! ```

use fracdram::fmaj::{fmaj_coverage, FmajConfig};
use fracdram::maj3::maj3_coverage;
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::{GroupId, SubarrayAddr};
use fracdram_stats::Summary;

/// One task's measurements: the full config sweep on one sub-array,
/// plus the MAJ3 baseline where the group supports it.
struct Coverage {
    maj3: Option<f64>,
    per_config: Vec<f64>,
}

/// The swept configurations, in a fixed printable order.
fn configs(max_frac: usize) -> Vec<FmajConfig> {
    let mut all = Vec::new();
    for role in 0..4 {
        for init_ones in [true, false] {
            for frac_ops in 0..=max_frac {
                all.push(FmajConfig {
                    frac_role: role,
                    init_ones,
                    frac_ops,
                });
            }
        }
    }
    all
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig9_fmaj_coverage",
        "reproduce Fig. 9: F-MAJ coverage vs #Frac per configuration",
        &[
            ("modules", "modules per group (default 2; paper: all chips)"),
            ("subarrays", "sub-arrays per module (default 2; paper: all)"),
            ("maxfrac", "largest Frac count swept (default 5)"),
            ("seed", "base die seed (default 9)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let modules = args.usize("modules", 2);
    let subarrays = args.usize("subarrays", 2);
    let max_frac = args.usize("maxfrac", 5);
    let seed = args.u64("seed", 9);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    println!(
        "{}",
        render::header("Fig. 9 — F-MAJ coverage vs number of Frac operations")
    );
    println!("each line: mean coverage over modules x sub-arrays (95% CI half-width in parens)\n");

    let sweep = configs(max_frac);
    let mut plan = Vec::new();
    for group in [GroupId::B, GroupId::C, GroupId::D] {
        for m in 0..modules {
            for s in 0..subarrays {
                plan.push(TaskKey::new(group, m, s));
            }
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = setup::controller(
            key.group,
            setup::compute_geometry(),
            seed + key.module as u64,
        );
        let geometry = *mc.module().geometry();
        let sa = SubarrayAddr::new(key.subarray % geometry.banks, key.subarray / geometry.banks);
        let quad = Quad::canonical(&geometry, sa, key.group).expect("quad");
        let maj3 = (key.group == GroupId::B).then(|| {
            let triplet = Triplet::first(&geometry, sa);
            maj3_coverage(&mut mc, &triplet).expect("maj3")
        });
        let per_config = sweep
            .iter()
            .map(|config| fmaj_coverage(&mut mc, &quad, config).expect("fmaj"))
            .collect();
        setup::reclaim_caches(&mut mc);
        (Coverage { maj3, per_config }, mc.metrics())
    });
    eprintln!("{}", run.summary());

    for group in [GroupId::B, GroupId::C, GroupId::D] {
        println!(
            "group {group} — quad rows {:?}, best config per paper: {:?}",
            Quad::canonical(&setup::compute_geometry(), SubarrayAddr::new(0, 0), group)
                .expect("quad")
                .local_roles(),
            FmajConfig::best_for(group),
        );
        let reports: Vec<_> = run.tasks.iter().filter(|t| t.key.group == group).collect();
        if group == GroupId::B {
            let samples: Vec<f64> = reports.iter().filter_map(|t| t.value().maj3).collect();
            let sum = Summary::of(&samples);
            println!(
                "  baseline MAJ3 (dashed line): {} (±{:.1}pp)",
                render::pct(sum.mean),
                sum.ci95_half_width() * 100.0
            );
        }
        println!(
            "  {:<22} {}",
            "config",
            (0..=max_frac)
                .map(|n| format!("{n:>7}"))
                .collect::<String>()
        );
        for role in 0..4 {
            for init_ones in [true, false] {
                let mut line = String::new();
                for frac_ops in 0..=max_frac {
                    let index = (role * 2 + usize::from(!init_ones)) * (max_frac + 1) + frac_ops;
                    let samples: Vec<f64> = reports
                        .iter()
                        .map(|t| t.value().per_config[index])
                        .collect();
                    line.push_str(&format!("{:>7.3}", Summary::of(&samples).mean));
                }
                println!(
                    "  frac in R{} init {:<5} {line}",
                    role + 1,
                    if init_ones { "ones" } else { "zeros" }
                );
            }
        }
        println!();
    }

    if let Some(path) = args.json_path() {
        run.write_json("fig9_fmaj_coverage", path, |v| {
            let mut obj = Json::obj().field("per_config", v.per_config.clone());
            if let Some(maj3) = v.maj3 {
                obj = obj.field("maj3", maj3);
            }
            obj
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!("expected shapes: B peaks with frac in R2 (primary row), init ones,");
    println!("beating the baseline MAJ3; C favors R1 with a level above Vdd/2;");
    println!("D favors R4; all four-row-capable groups reach non-zero coverage.");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
