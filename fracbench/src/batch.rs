//! The batch workloads (`fig10-fmaj`, `fig11-puf`, `pop-stream`): timed
//! invocations of the release binaries with their output checks, and
//! the traced runs that set each binary beside its in-process replica.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fracdram_experiments::fleet::item_seed;
use fracdram_experiments::population as pop;
use fracdram_experiments::store::{fnv1a64, StoreReader};
use fracdram_experiments::Json;

use crate::proc::{self, Finished};
use crate::report::{Outcome, RunOpts};
use crate::spec::{Metrics, Scale, Workload, DEFAULT_SEED, JOBS, SETUP_PROBES};
use crate::stats::median;
use crate::trace::{self, Breakdown, Replica};

/// Fewest measured invocations per run, whatever `--seconds` says.
const MIN_INVOCATIONS: usize = 3;

/// Fewest binary/replica pairs in a traced run.
const MIN_PAIRS: usize = 3;

/// Largest |replica wall / binary wall − 1| a traced run accepts.
pub const MAX_OVERHEAD: f64 = 0.15;

/// Dies re-simulated in-process to spot-check a population store.
const SPOT_CHECKS: u64 = 4;

fn invoke(
    w: Workload,
    scale: Scale,
    opts: &RunOpts,
    store: &Path,
    json: Option<&Path>,
) -> io::Result<Finished> {
    let batch = w.batch().expect("batch workload");
    let mut args = batch.args(scale, opts.seed);
    if w == Workload::Pop {
        args.extend(["--store".to_string(), store.display().to_string()]);
    }
    if let Some(path) = json {
        args.extend(["--json".to_string(), path.display().to_string()]);
    }
    proc::run(
        &opts.bin_dir.join(batch.binary),
        &args,
        &opts.work,
        scale != Scale::Setup,
    )
}

/// Numbers following `key` on a line, e.g. `"error"` → `0.4` from
/// `avg error   0.4%`; slash-separated lists split into several.
fn numbers_after(line: &str, key: &str) -> Vec<f64> {
    let mut tokens = line.split_whitespace().skip_while(|t| *t != key);
    tokens.next();
    tokens
        .next()
        .map(|t| {
            t.trim_end_matches('%')
                .split('/')
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Checks a measured invocation's output and returns the digest the
/// repeats of a run must share.
///
/// # Errors
///
/// A description of the first failed check.
pub fn check(w: Workload, run: &Finished, opts: &RunOpts, store: &Path) -> Result<u64, String> {
    if !run.status.success() {
        return Err(format!("exited with {}", run.status));
    }
    let stdout = String::from_utf8_lossy(&run.stdout);
    match w {
        Workload::Fig10 => {
            let rows: Vec<&str> = stdout
                .lines()
                .filter(|l| l.contains("always-correct") && l.contains("avg error"))
                .collect();
            if rows.len() != 3 {
                return Err(format!("expected 3 stability rows, found {}", rows.len()));
            }
            for row in rows {
                let always = numbers_after(row, "always-correct");
                let error = numbers_after(row, "error");
                let cdf = numbers_after(row, "stability");
                let sane = always.len() == 1
                    && (0.0..=100.0).contains(&always[0])
                    && error.len() == 1
                    && (0.0..50.0).contains(&error[0])
                    && cdf.len() == 3
                    && 0.0 <= cdf[0]
                    && cdf[0] <= cdf[1]
                    && cdf[1] <= cdf[2]
                    && cdf[2] <= 1.0;
                if !sane {
                    return Err(format!("implausible stability row: {row}"));
                }
            }
        }
        Workload::Fig11 => {
            if !stdout.contains("separation HOLDS") {
                return Err("PUF intra/inter-HD separation does not hold".to_string());
            }
        }
        Workload::Pop => check_store(&stdout, opts, store)?,
        Workload::Serve => unreachable!("serve-open is not a batch workload"),
    }
    let digest = fnv1a64(&run.stdout);
    let golden = w.batch().expect("batch workload").golden;
    if opts.seed == DEFAULT_SEED && digest != golden {
        return Err(format!(
            "stdout digest {digest:016x} differs from the pinned {golden:016x}"
        ));
    }
    Ok(digest)
}

/// The store a measured `population` run wrote must hold every die, in
/// order, with the digest its stdout reports, and a sample of its
/// records must equal dies re-simulated in-process.
fn check_store(stdout: &str, opts: &RunOpts, store: &Path) -> Result<(), String> {
    let values = crate::spec::POP.values(Scale::Measured);
    let (dies, chunk) = (values[0], values[1]);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("store: "))
        .ok_or("no store line on stdout")?;
    let printed = line.rsplit(' ').next().unwrap_or_default();
    let mut reader = StoreReader::open(store).map_err(|e| format!("store: {e}"))?;
    let header = *reader.header();
    if (header.dies, header.chunk, header.base_seed) != (dies, chunk, opts.seed) {
        return Err(format!("store header {header:?} does not match the run"));
    }
    let picks: Vec<u64> = (0..SPOT_CHECKS)
        .map(|k| k * (dies - 1) / (SPOT_CHECKS - 1))
        .collect();
    let mut index = 0;
    while let Some(record) = reader.next_record().map_err(|e| format!("store: {e}"))? {
        if picks.contains(&index) {
            let (expected, _) =
                pop::simulate_die(pop::group_of(index), item_seed(opts.seed, index));
            if record != expected {
                return Err(format!(
                    "store record {index} differs from a re-simulated die"
                ));
            }
        }
        index += 1;
    }
    let digest = format!("{:016x}", reader.digest());
    if reader.torn() || index != dies || digest != printed {
        return Err(format!(
            "store holds {index} record(s), digest {digest}; stdout reports {line:?}"
        ));
    }
    Ok(())
}

/// The untraced run of a batch workload: measured invocations until
/// `--seconds` have passed, each followed by [`SETUP_PROBES`] set-up
/// probes, so the set-up median samples the whole run as the others do.
///
/// # Errors
///
/// Spawn and file I/O failures.
pub fn run(w: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let batch = w.batch().expect("batch workload");
    let mut out = Outcome::default();
    let store = opts.work.join("pop.bin");
    let units = batch.units(Scale::Measured) as f64;
    let mut digest = None;
    // One untimed invocation first: the first run after a pause is
    // markedly slower (cold caches, idle CPU), and users of the figure
    // binaries run them back to back.
    measured(w, opts, &store, None, &mut digest, &mut out)?;
    let started = Instant::now();
    let (mut walls, mut rates, mut peaks, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while started.elapsed().as_secs_f64() < opts.seconds || walls.len() < MIN_INVOCATIONS {
        let run = measured(w, opts, &store, None, &mut digest, &mut out)?;
        let wall = run.wall.as_secs_f64();
        walls.push(wall);
        rates.push(units / wall);
        peaks.push(run.peak_rss_kb as f64 / 1024.0);
        for _ in 0..SETUP_PROBES {
            let probe = invoke(w, Scale::Setup, opts, &store, None)?;
            out.attempted += 1;
            if probe.status.success() {
                setup.push(probe.wall.as_secs_f64());
            } else {
                out.fail(format!("set-up probe exited with {}", probe.status));
            }
        }
    }
    std::fs::remove_file(&store).ok();

    out.note(format!(
        "{} invocation(s) of {} at {} unit(s) each: walls {:?} s",
        walls.len(),
        batch.binary,
        units,
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if let Some(d) = digest {
        out.note(format!("stdout digest {d:016x}"));
    }
    out.metrics.set("setup_s", median(&setup));
    out.metrics.set("throughput", median(&rates));
    out.metrics.set("latency_ms", median(&walls) * 1e3);
    out.metrics.set("peak_rss_mb", median(&peaks));
    Ok(out)
}

/// One measured invocation, checked; every invocation of a run must
/// print the same stdout digest.
fn measured(
    w: Workload,
    opts: &RunOpts,
    store: &Path,
    json: Option<&Path>,
    digest: &mut Option<u64>,
    out: &mut Outcome,
) -> io::Result<Finished> {
    let run = invoke(w, Scale::Measured, opts, store, json)?;
    out.attempted += 1;
    match check(w, &run, opts, store) {
        Ok(d) if *digest.get_or_insert(d) != d => {
            out.fail(format!("stdout digest {d:016x} differs between repeats"))
        }
        Ok(_) => {}
        Err(why) => out.fail(why),
    }
    Ok(run)
}

/// The counters a binary's own `--json` reports: `(commands, events)`.
fn binary_counts(w: Workload, json: &Path) -> Option<(u64, u64)> {
    let doc = Json::parse(&std::fs::read_to_string(json).ok()?).ok()?;
    let get = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_u64);
    match w {
        Workload::Pop => Some((get(&doc, "commands")?, 0)),
        _ => {
            let perf = doc.get("perf")?;
            let events = [
                "share_events",
                "sense_events",
                "close_events",
                "leak_events",
            ]
            .iter()
            .map(|k| get(perf, k))
            .sum::<Option<u64>>()?;
            Some((get(doc.get("stats")?, "commands")?, events))
        }
    }
}

/// Runs the in-process replica of batch workload `w` at the measured
/// scale; the population replica writes its store to `store`.
pub fn replay(w: Workload, seed: u64, store: &Path) -> Replica {
    let v = w.batch().expect("batch workload").values(Scale::Measured);
    let n = |i: usize| v[i] as usize;
    match w {
        Workload::Fig10 => trace::fig10(n(0), n(1), n(2), JOBS, seed),
        Workload::Fig11 => trace::fig11(n(0), n(1), JOBS, seed),
        _ => trace::population(v[0], v[1], JOBS, seed, store),
    }
}

/// The counts every replica of a run must repeat exactly: controller
/// commands, kernel events and, for the population, the store's record
/// count and digest. `fracbench replica` prints it as its one line.
pub fn replica_summary(r: &Replica) -> Json {
    let (records, digest) = r.store.unwrap_or_default();
    Json::obj()
        .field("commands", r.fleet_commands)
        .field("events", r.fleet_events)
        .field("records", records)
        .field("store_digest", digest)
}

/// Runs the replica in a child `fracbench replica` process, so it
/// starts as fresh as the binary it is timed against. Returns the
/// spawn-to-exit wall and the child's summary line (empty on failure).
fn replay_child(w: Workload, opts: &RunOpts, store: &Path) -> io::Result<(f64, String)> {
    let args: Vec<String> = [
        "replica",
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
        "--store",
        &store.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let run = proc::run(&std::env::current_exe()?, &args, &opts.work, false)?;
    let line = if run.status.success() {
        String::from_utf8_lossy(&run.stdout).trim().to_string()
    } else {
        String::new()
    };
    Ok((run.wall.as_secs_f64(), line))
}

/// The traced run of a batch workload: after an untimed warm-up, pairs
/// of the binary and its replica (each in a fresh process) at the
/// measured scale, in alternating order, until `--seconds` have passed
/// (at least [`MIN_PAIRS`]); then one more replica in this process,
/// whose spans give the per-layer metrics and the span file. The
/// tracing overhead is the median of the pairs' replica-over-binary
/// wall ratios, so drift in host speed between pairs cancels.
///
/// # Errors
///
/// Spawn and file I/O failures.
pub fn trace_run(w: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let mut out = Outcome {
        metrics: Metrics::per_layer(),
        ..Outcome::default()
    };
    let json = opts.work.join("binary.json");
    let binary_store = opts.work.join("binary-pop.bin");
    let replica_store: PathBuf = opts.work.join("replica-pop.bin");
    let mut digest = None;
    measured(w, opts, &binary_store, None, &mut digest, &mut out)?;
    let started = Instant::now();
    let (mut ratios, mut binary_counts_seen, mut replica_lines) =
        (Vec::new(), Vec::new(), Vec::new());
    while ratios.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < opts.seconds {
        let binary_first = ratios.len() % 2 == 0;
        let (mut binary_wall, mut replica_wall) = (0.0, 0.0);
        for binary_turn in [binary_first, !binary_first] {
            if binary_turn {
                let run = measured(w, opts, &binary_store, Some(&json), &mut digest, &mut out)?;
                binary_wall = run.wall.as_secs_f64();
                binary_counts_seen.push(binary_counts(w, &json));
            } else {
                let (wall, line) = replay_child(w, opts, &replica_store)?;
                replica_wall = wall;
                replica_lines.push(line);
            }
        }
        ratios.push(replica_wall / binary_wall);
    }
    let last = replay(w, opts.seed, &replica_store);
    let summary = replica_summary(&last).to_string();
    out.attempted += 2;
    if let Some(other) = replica_lines.iter().find(|l| **l != summary) {
        out.fail(format!(
            "replica counts differ between repeats: {other:?} vs {summary}"
        ));
    }
    let expected = if w == Workload::Pop {
        (last.fleet_commands, 0)
    } else {
        (last.fleet_commands, last.fleet_events)
    };
    if binary_counts_seen.iter().any(|c| *c != Some(expected)) {
        out.fail(format!(
            "binary counts {binary_counts_seen:?} differ from the replica's {expected:?}"
        ));
    }
    if w == Workload::Pop {
        out.attempted += 1;
        let binary = StoreReader::open(&binary_store).and_then(|mut r| {
            while r.next_record()?.is_some() {}
            Ok((r.records_read(), r.digest()))
        });
        if binary.ok() != last.store {
            out.fail("replica store differs from the binary's".to_string());
        }
        std::fs::remove_file(&binary_store).ok();
        std::fs::remove_file(&replica_store).ok();
    }

    let overhead = median(&ratios) - 1.0;
    out.note(format!(
        "replica/binary wall ratio per pair: {:?}",
        ratios
            .iter()
            .map(|r| (r * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.attempted += 1;
    if overhead.abs() > MAX_OVERHEAD {
        out.fail(format!(
            "replica/binary wall ratios {ratios:?}: overhead {overhead:+.3}"
        ));
    }
    let breakdown = Breakdown::of(&last.spans, JOBS, last.wall, &last.perf);
    layer_metrics(&mut out.metrics, w, &last, &breakdown, overhead);
    for (layer, secs) in &breakdown.layers {
        out.note(format!("{layer:<14} {:>9.4} s", secs));
    }
    out.note(format!(
        "idle {:.4} s, residual {:.4} s, capacity {} x {:.4} s",
        breakdown.idle_s, breakdown.residual_s, JOBS, last.wall
    ));
    trace::write_trace(
        &opts.work.join(format!("trace-{}.jsonl", w.name())),
        &last.spans,
        &breakdown.to_json(),
    )?;
    Ok(out)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Fills the per-layer metrics a batch replica measures.
pub fn layer_metrics(m: &mut Metrics, w: Workload, r: &Replica, b: &Breakdown, overhead: f64) {
    let spans = &r.spans;
    let p = &r.perf;
    let units = if w == Workload::Pop { "chunk" } else { "task" };
    m.set("fleet.busy_s", trace::total(spans, units));
    m.set("fleet.idle_frac", b.idle_s / b.capacity_s);
    let builds = trace::count(spans, "setup.build") as u64;
    m.set(
        "setup.build_ms",
        per(trace::total(spans, "setup.build"), builds) * 1e3,
    );
    m.set("setup.cache_share_hits", p.cache_share_hits as f64);
    m.set(
        "core.fmaj_trial_us",
        per(trace::total(spans, "core.fmaj"), r.fmaj_trials) * 1e6,
    );
    m.set(
        "core.maj3_trial_us",
        per(trace::total(spans, "core.maj3"), r.maj3_trials) * 1e6,
    );
    let puf = trace::total(spans, "core.puf") + trace::total(spans, "pop.puf");
    m.set("core.puf_eval_us", per(puf, r.puf_evals) * 1e6);
    m.set("softmc.self_s", b.layer("softmc.self"));
    m.set("softmc.commands", r.stats.commands as f64);
    m.set("softmc.sched_merges", p.sched_merges as f64);
    for kernel in ["share", "sense", "close", "leak", "noise"] {
        m.set(
            &format!("model.{kernel}_s"),
            b.layer(&format!("model.{kernel}")),
        );
    }
    m.set("model.events", p.events() as f64);
    m.set("model.columns", p.columns as f64);
    m.set("model.noise_draws", p.noise_draws as f64);
    m.set("model.cache_misses", p.cache_misses as f64);
    m.set("model.cache_hit_ratio", ratio(p.cache_hits, p.cache_misses));
    m.set(
        "model.snapshot_hit_ratio",
        ratio(p.snapshot_hits, p.snapshot_misses),
    );
    m.set("model.exp_calls", p.exp_calls as f64);
    m.set(
        "model.exp_memo_hit_ratio",
        ratio(p.exp_memo_hits, p.exp_memo_misses),
    );
    m.set("model.exp_batch_lanes", p.exp_batch_lanes as f64);
    m.set("model.decay_vec_hits", p.decay_vec_hits as f64);
    m.set("model.leak_row_skips", p.leak_row_skips as f64);
    if w == Workload::Pop {
        m.set("pop.build_s", trace::total(spans, "setup.build"));
        m.set("pop.puf_s", trace::total(spans, "pop.puf"));
        m.set("pop.retention_s", trace::total(spans, "pop.retention"));
        m.set("pop.fold_s", trace::total(spans, "pop.fold"));
        m.set("pop.store_s", trace::total(spans, "pop.store"));
        m.set("pop.peak_pending", r.peak_pending as f64);
    }
    m.set("trace.wall_s", r.wall);
    m.set("trace.residual_frac", b.residual_s / b.capacity_s);
    m.set("trace.overhead_frac", overhead);
}
