//! `fracbench` — run, trace and compare the FracDRAM benchmark.
//!
//! ```text
//! fracbench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--repeats R] [--out FILE]
//! fracbench trace   [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! fracbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! fracbench replica --workload NAME [--seed N] [--store FILE]
//! ```
//!
//! Run from the repository root after building the release binaries
//! (`fracbench/run.sh` does both). A single-workload run prints its
//! measurements and, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; it exits non-zero
//! when any operation or output check failed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fracdram_benchmark::report::{self, Outcome, RunOpts};
use fracdram_benchmark::spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use fracdram_benchmark::stats::{median, quantile};
use fracdram_benchmark::{batch, compare, proc, serve};
use fracdram_experiments::Json;

/// Scratch root for stores, WALs, traces and results.
const WORK: &str = ".bench_work";

/// Measurement budget when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  fracbench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeats R] [--out FILE]
  fracbench trace   [--workload NAME] [--seed N] [--seconds S] [--out FILE]
  fracbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
  fracbench replica --workload NAME [--seed N] [--store FILE]   (one batch replica; traced runs time it)
workloads: fig10-fmaj, fig11-puf, pop-stream, serve-open";

struct Cli {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    cli.flags.insert(key.to_string(), value);
                }
                None => cli.positional.push(arg),
            }
        }
        Ok(cli)
    }

    fn take<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.flags.remove(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
            None => Ok(default),
        }
    }

    fn finish(&self) -> Result<(), String> {
        match self.flags.keys().next() {
            Some(key) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let result = Cli::parse(args).and_then(|cli| match command.as_str() {
        "run" => run(cli, None),
        "trace" => run(cli, Some(true)),
        "compare" => compare_cmd(cli),
        "replica" => replica_cmd(cli),
        _ => Err(USAGE.to_string()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fracbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload: measure, report, store the result.
fn run_one(
    workload: Workload,
    trace: bool,
    seed: u64,
    seconds: f64,
    out_file: &Path,
) -> Result<Outcome, String> {
    let bin_dir = proc::release_dir();
    let binary = workload.batch().map_or("fracdram-serve", |b| b.binary);
    if !bin_dir.join(binary).is_file() {
        return Err(format!(
            "{} is missing: build the release binaries first (fracbench/run.sh does)",
            bin_dir.join(binary).display()
        ));
    }
    let work = Path::new(WORK).join(workload.name());
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let opts = RunOpts {
        seed,
        seconds,
        bin_dir,
        work: work.clone(),
    };
    let mut outcome = match (workload, trace) {
        (Workload::Serve, false) => serve::run(&opts),
        (Workload::Serve, true) => serve::trace_run(&opts),
        (w, false) => batch::run(w, &opts),
        (w, true) => batch::trace_run(w, &opts),
    }
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    if trace {
        let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("error_rate", rate);
    }

    println!(
        "== {} (seed {seed}, {seconds} s, {}) ==",
        workload.name(),
        if trace { "traced" } else { "untraced" }
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    let record = Json::obj()
        .field("workload", workload.name())
        .field("seed", seed)
        .field("seconds", seconds)
        .field("trace", trace)
        .field("correct", outcome.correct())
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", outcome.metrics.to_json())
        .field("provenance", report::provenance(&work, &outcome.provenance));
    append_line(out_file, &record.to_string())?;
    Ok(outcome)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(mut cli: Cli, force_trace: Option<bool>) -> Result<bool, String> {
    let workload = match cli.flags.remove("workload") {
        Some(name) => Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?),
        None => None,
    };
    let seed = cli.take("seed", DEFAULT_SEED)?;
    let seconds: f64 = cli.take("seconds", DEFAULT_SECONDS)?;
    let trace = match force_trace {
        Some(t) => t,
        None => match cli.take::<u8>("trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    let repeats: usize = cli.take("repeats", if workload.is_some() { 1 } else { 3 })?;
    let out_file = PathBuf::from(cli.take("out", format!("{WORK}/results.jsonl"))?);
    cli.finish()?;
    if !seconds.is_finite() || seconds <= 0.0 || repeats == 0 {
        return Err("--seconds and --repeats must be positive".to_string());
    }

    let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    if let [only] = workloads[..] {
        if repeats == 1 {
            let outcome = run_one(only, trace, seed, seconds, &out_file)?;
            println!("{}", outcome.result_line());
            return Ok(outcome.correct());
        }
    }

    let mut all_correct = true;
    let mut samples: BTreeMap<(&str, &str), (Vec<f64>, &str)> = BTreeMap::new();
    for &w in &workloads {
        for _ in 0..repeats {
            let outcome = run_one(w, trace, seed, seconds, &out_file)?;
            all_correct &= outcome.correct();
            for (name, value, unit) in outcome.metrics.iter() {
                samples
                    .entry((name, w.name()))
                    .or_insert_with(|| (Vec::new(), unit))
                    .0
                    .push(value);
            }
        }
    }
    let names = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "\n{:<26} {:<11} {:>14} {:>14} {:>14} {:>3}  unit",
        "metric", "workload", "median", "p10", "p90", "n"
    );
    for (name, _) in names {
        for w in &workloads {
            if let Some((values, unit)) = samples.get(&(name, w.name())) {
                println!(
                    "{name:<26} {:<11} {:>14.6} {:>14.6} {:>14.6} {:>3}  {unit}",
                    w.name(),
                    median(values),
                    quantile(values, 0.1),
                    quantile(values, 0.9),
                    values.len()
                );
            }
        }
    }
    println!("results appended to {}", out_file.display());
    Ok(all_correct)
}

fn compare_cmd(mut cli: Cli) -> Result<bool, String> {
    let benchmark = cli.take("benchmark", "BENCHMARK.json".to_string())?;
    cli.finish()?;
    let [parent, change] = &cli.positional[..] else {
        return Err(USAGE.to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rules = compare::rules(&read(&benchmark)?)?;
    let rows = compare::compare(&rules, &read(parent)?, &read(change)?);
    println!(
        "{:<14} {:<11} {:>11} {:>14} {:>14} {:>5} {:>5}",
        "metric", "workload", "verdict", "parent", "change", "pairs", "wins"
    );
    for r in &rows {
        println!(
            "{:<14} {:<11} {:>11} {:>14.6} {:>14.6} {:>5} {:>5.2}",
            r.metric, r.workload, r.verdict, r.parent, r.change, r.pairs, r.wins
        );
    }
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

/// Runs one batch replica in this process and prints its counts: the
/// fresh process a traced run times against the binary.
fn replica_cmd(mut cli: Cli) -> Result<bool, String> {
    let name: String = cli.take("workload", String::new())?;
    let workload = Workload::parse(&name)
        .filter(|w| w.batch().is_some())
        .ok_or(format!("no batch workload {name:?}"))?;
    let seed = cli.take("seed", DEFAULT_SEED)?;
    let store = PathBuf::from(cli.take("store", format!("{WORK}/replica-pop.bin"))?);
    cli.finish()?;
    let replica = batch::replay(workload, seed, &store);
    println!("{}", batch::replica_summary(&replica));
    Ok(true)
}
