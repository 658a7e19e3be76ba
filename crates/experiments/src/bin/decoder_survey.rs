//! **§VI-A1 decoder exploration**: "a thorough exploration using the
//! sequence ACT(R1)–PRE–ACT(R2) with all possible combinations of row
//! addresses" — reproducing the paper's three findings on groups C/D:
//!
//! 1. only `2^k` rows ever open simultaneously;
//! 2. every pair that opens `2^k` rows differs in exactly `k` address
//!    bits (the opened set is the span of the differing bits);
//! 3. **not** every pair with `k` differing bits opens `2^k` rows.
//!
//! Group B additionally opens *three* rows for ComputeDRAM pairs.
//!
//! The pair exploration fans out over the fleet with one task per
//! group; histogram and findings analysis happen at the merge.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin decoder_survey [-- --rows N --jobs N]
//! ```

use std::collections::BTreeMap;

use fracdram::multirow::explore_pairs;
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::{GroupId, SubarrayAddr};

fn main() {
    let args = Args::parse();
    if args.usage(
        "decoder_survey",
        "reproduce §VI-A1: opened-row counts over all (R1, R2) pairs",
        &[
            (
                "rows",
                "rows scanned per sub-array (default 16 -> 240 pairs)",
            ),
            ("seed", "die seed (default 16)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let rows = args.usize("rows", 16);
    let seed = args.u64("seed", 16);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    let plan: Vec<TaskKey> = [GroupId::B, GroupId::C, GroupId::D, GroupId::F]
        .into_iter()
        .map(|group| TaskKey::new(group, 0, 0))
        .collect();
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = setup::controller(key.group, setup::compute_geometry(), seed);
        let probes = explore_pairs(&mut mc, SubarrayAddr::new(0, 0), rows).expect("explore");
        setup::reclaim_caches(&mut mc);
        (probes, mc.metrics())
    });
    eprintln!("{}", run.summary());

    for report in &run.tasks {
        let group = report.key.group;
        let probes = report.value();

        println!(
            "{}",
            render::header(&format!(
                "group {group} ({}) — {} ordered pairs",
                group.profile().vendor,
                probes.len()
            ))
        );
        // Histogram of opened-row counts.
        let mut by_count: BTreeMap<usize, usize> = BTreeMap::new();
        for p in probes {
            *by_count.entry(p.opened).or_default() += 1;
        }
        print!("  opened-rows histogram:");
        for (count, pairs) in &by_count {
            print!("  {count} rows x {pairs}");
        }
        println!();

        // Finding 1: power-of-two counts only (3 allowed on group B).
        let bad: Vec<_> = probes
            .iter()
            .filter(|p| !(p.opened.is_power_of_two() || (group == GroupId::B && p.opened == 3)))
            .collect();
        println!(
            "  finding 1 (2^k counts{}) — violations: {}",
            if group == GroupId::B {
                " + triplets"
            } else {
                ""
            },
            bad.len()
        );

        // Finding 2: multi-row pairs differ in exactly k bits.
        let mut mismatches = 0;
        for p in probes {
            if p.opened > 1 && p.opened.is_power_of_two() {
                let k = (p.r1 ^ p.r2).count_ones();
                if 1usize << k != p.opened {
                    mismatches += 1;
                }
            }
        }
        println!("  finding 2 (count = 2^(bit difference)) — mismatches: {mismatches}");

        // Finding 3: per k, how many k-bit-differing pairs actually glitch.
        let mut glitched: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for p in probes {
            let k = (p.r1 ^ p.r2).count_ones();
            if k == 0 || group == GroupId::B && p.opened == 3 {
                continue;
            }
            let entry = glitched.entry(k).or_default();
            entry.1 += 1;
            if p.opened == 1usize << k {
                entry.0 += 1;
            }
        }
        print!("  finding 3 (k-bit pairs that glitch): ");
        for (k, (open, total)) in &glitched {
            print!(" k={k}: {open}/{total}");
        }
        println!("\n");
    }

    if let Some(path) = args.json_path() {
        run.write_json("decoder_survey", path, |probes| {
            let multi = probes.iter().filter(|p| p.opened > 1).count();
            Json::obj()
                .field("pairs", probes.len())
                .field("multi_row_pairs", multi)
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!("paper: \"only N rows can be opened where N is a power of two; all");
    println!("combinations that open 2^k rows have k bits in difference; however,");
    println!("not all combinations with k different bits can open 2^k rows.\"");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
