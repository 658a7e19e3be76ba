//! **Table I**: evaluated DRAM groups and their empirically probed
//! capabilities (Frac, three-row activation, four-row activation).
//!
//! Each group's module is surveyed by *issuing the command sequences and
//! observing behavior* — the capability columns are measured, not looked
//! up. Surveys fan out over the fleet with one task per (group, module).
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin table1 [-- --modules N --jobs N]
//! ```

use fracdram::multirow::survey;
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::GroupId;

fn main() {
    let args = Args::parse();
    if args.usage(
        "table1",
        "reproduce Table I: per-group capability matrix",
        &[
            ("modules", "modules surveyed per group (default 1)"),
            ("seed", "base die seed (default 1)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let modules = args.usize("modules", 1);
    let seed = args.u64("seed", 1);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    let mut plan = Vec::new();
    for group in GroupId::ALL {
        for m in 0..modules {
            plan.push(TaskKey::new(group, m, 0));
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = setup::controller(
            key.group,
            setup::compute_geometry(),
            seed + key.module as u64,
        );
        let caps = survey(&mut mc).expect("survey failed");
        setup::reclaim_caches(&mut mc);
        ((caps.frac, caps.three_row, caps.four_row), mc.metrics())
    });
    eprintln!("{}", run.summary());

    println!(
        "{}",
        render::header("Table I — DRAM groups and capabilities")
    );
    println!(
        "{:<6} {:<9} {:>9} {:>7}   {:>5} {:>10} {:>9}",
        "Group", "Vendor", "Freq(MHz)", "#Chips", "Frac", "Three-row", "Four-row"
    );
    let mark = |b: bool| if b { "yes" } else { "-" };
    for group in GroupId::ALL {
        let profile = group.profile();
        // A capability counts when every surveyed module of the group
        // exhibits it (they are homogeneous by construction, so this
        // also cross-checks determinism).
        let mut frac = true;
        let mut three = true;
        let mut four = true;
        for report in run.tasks.iter().filter(|t| t.key.group == group) {
            let (f, t, q) = report.value();
            frac &= f;
            three &= t;
            four &= q;
        }
        println!(
            "{:<6} {:<9} {:>9} {:>7}   {:>5} {:>10} {:>9}",
            group.to_string(),
            profile.vendor,
            profile.freq_mhz,
            profile.chips_evaluated,
            mark(frac),
            mark(three),
            mark(four),
        );
    }

    if let Some(path) = args.json_path() {
        run.write_json("table1", path, |&(frac, three, four)| {
            Json::obj()
                .field("frac", frac)
                .field("three_row", three)
                .field("four_row", four)
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    let total: u32 = GroupId::ALL
        .iter()
        .map(|g| g.profile().chips_evaluated)
        .sum();
    println!("\ntotal chips represented: {total} (paper: 528 evaluated, 582 incl. §I count)");
    println!("expected: Frac on A-I; three-row only on B; four-row on B, C, D");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
