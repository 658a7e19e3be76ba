//! **Figure 6**: retention-time PDF versus the number of Frac
//! operations, per DRAM group, with the per-cell change-pattern
//! categories `[long retention, monotonic decrease, others]`.
//!
//! For each group, sampled rows are profiled with 0–5 Frac operations;
//! each heatmap column is the retention-bucket PDF at one Frac count.
//! Groups J/K/L are reported separately (Frac has no effect there).
//!
//! Profiling fans out over the fleet with one task per (group, sampled
//! row); the heatmap merge concatenates per-row buckets in plan order.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig6_retention [-- --rows N --jobs N]
//! ```

use fracdram::retention::{
    classify_cells, measure_row_voted, BucketCounts, CategoryShares, RetentionBucket,
};
use fracdram_experiments::{fleet, render, setup, Args, Json, TaskKey};
use fracdram_model::{GroupId, RowAddr};

const MAX_FRAC: usize = 5;

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig6_retention",
        "reproduce Fig. 6: retention PDF heatmap vs #Frac + cell categories",
        &[
            (
                "rows",
                "rows sampled per group (default 2; paper: 5 per bank)",
            ),
            (
                "votes",
                "profile repetitions per cell, median-voted (default 3)",
            ),
            ("seed", "base die seed (default 6)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing task (default 0)"),
            ("keep-going", "complete remaining tasks after a failure"),
            ("fail-fast", "stop claiming tasks after a failure (default)"),
            ("json", "write structured fleet results to PATH"),
        ],
    ) {
        return;
    }
    let rows = args.usize("rows", 2);
    let votes = args.usize("votes", 3);
    let seed = args.u64("seed", 6);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    args.reject_unknown();

    println!(
        "{}",
        render::header("Fig. 6 — retention-time PDF vs number of Frac operations")
    );
    println!("rows = buckets (top = longest); columns = 0..=5 Frac ops; darker = more cells\n");

    // One task per (group, sampled row): profile that row at every Frac
    // count on its own controller. The sub-array slot indexes the
    // sampled row (row 5 of each bank, then 21).
    let mut plan = Vec::new();
    for group in GroupId::ALL {
        for i in 0..rows {
            plan.push(TaskKey::new(group, 0, i));
        }
    }
    let run = fleet::run_with(&plan, seed, jobs, policy, |key, _seed| {
        let mut mc = setup::controller(key.group, setup::compute_geometry(), seed);
        let i = key.subarray;
        let row = RowAddr::new(i % 2, 5 + 16 * (i / 2));
        let per_count: Vec<Vec<RetentionBucket>> = (0..=MAX_FRAC)
            .map(|n| measure_row_voted(&mut mc, row, n, votes).expect("measure"))
            .collect();
        setup::reclaim_caches(&mut mc);
        (per_count, mc.metrics())
    });
    eprintln!("{}", run.summary());

    for group in GroupId::ALL {
        // per_count[n] = concatenated buckets of all sampled rows at n
        // ops, merged in plan (row-sample) order.
        let mut per_count: Vec<Vec<RetentionBucket>> = vec![Vec::new(); MAX_FRAC + 1];
        for report in run.tasks.iter().filter(|t| t.key.group == group) {
            for (n, acc) in per_count.iter_mut().enumerate() {
                acc.extend_from_slice(&report.value()[n]);
            }
        }
        let pdfs: Vec<[f64; 6]> = per_count
            .iter()
            .map(|b| BucketCounts::from_buckets(b).pdf())
            .collect();
        let categories = classify_cells(&per_count);
        let shares = CategoryShares::from_categories(&categories);

        if group.profile().timing_guard {
            // Groups J, K, L: Frac has no effect on the *profile*. The
            // comparison allows the repeat-to-repeat wobble any two
            // Frac-free measurements show (VRT cells, boundary noise).
            let total = per_count[0].len().max(1);
            let max_diff = per_count[1..]
                .iter()
                .map(|b| b.iter().zip(&per_count[0]).filter(|(x, y)| x != y).count())
                .max()
                .unwrap_or(0);
            println!(
                "group {group} ({}): Frac has no effect on the profile                  (max {}/{total} cells differ between repeats — {})",
                group.profile().vendor,
                max_diff,
                if max_diff * 50 <= total { "verified" } else { "UNEXPECTED drift!" },
            );
            continue;
        }

        println!(
            "group {group} ({:<8}) categories [long, monotonic, other] = [{}, {}, {}]",
            group.profile().vendor,
            render::pct(shares.long),
            render::pct(shares.monotonic),
            render::pct(shares.other),
        );
        for (rank, bucket) in RetentionBucket::ALL.iter().enumerate().rev() {
            let cells: String = pdfs
                .iter()
                .map(|pdf| format!(" {} ", render::shade(pdf[rank])))
                .collect();
            println!("  {:>9} |{cells}|", bucket.label());
        }
        let counts: String = (0..=MAX_FRAC).map(|n| format!(" {n} ")).collect();
        println!("  {:>9}  {counts}  (#Frac)\n", "");
    }

    if let Some(path) = args.json_path() {
        run.write_json("fig6_retention", path, |per_count| {
            Json::obj()
                .field("frac_counts", per_count.len())
                .field("cells_per_count", per_count.first().map_or(0, Vec::len))
        })
        .unwrap_or_else(|err| fracdram_experiments::exit_json_write_error(path, &err));
    }

    println!("paper: monotonic-decrease cells average ~55% across groups A-I, others < 1%.");

    if run.failed() > 0 {
        std::process::exit(1);
    }
}
