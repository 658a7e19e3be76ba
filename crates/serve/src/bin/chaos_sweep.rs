//! **Chaos sweep**: crash/recover invariants of `fracdram-serve` versus
//! injected chaos density.
//!
//! Each round of the sweep runs one complete kill→recover scenario at
//! one chaos density: start a WAL-backed daemon, drive a deterministic
//! lock-step workload through a real TCP client (reconnecting through
//! injected connection drops), hard-kill the process state at the
//! plan's kill point, damage the log's tail, recover — twice, to prove
//! recovery itself is deterministic — restart from the WAL, finish the
//! workload, and digest a full read-back + `verify` sweep. The asserted
//! invariants are the ISSUE-9 acceptance criteria:
//!
//! * **no acknowledged response is lost**: every response the client
//!   received before the kill is present verbatim in the recovered
//!   replay log (acknowledge-after-log);
//! * **recovery is exact**: two independent recoveries of the same WAL
//!   produce byte-identical logs, and the torn tail is discarded, not
//!   fatal;
//! * **determinism at any `--jobs`**: every table column is a pure
//!   function of `(chaos seed, density)` — the CI smoke diffs the
//!   stdout of `--jobs 1` against `--jobs 8`;
//! * **monotone chaos**: injected die failures (and the breaker
//!   activity they cause) never decrease as density rises, because
//!   `ChaosPlan` membership is nested (see `fracdram_serve::chaos`).
//!
//! Wall-clock timing (the `serve/recovery_ns` bench record) is emitted
//! only via `--json`, keeping stdout byte-reproducible.
//!
//! ```text
//! cargo run --release -p fracdram-serve --bin chaos_sweep -- \
//!     --chaos-seed 11 --jobs 8 --keep-going --json /tmp/chaos.json
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use fracdram_bench::{format_records, Record};
use fracdram_experiments::{fleet, render, Args, Json, TaskKey};
use fracdram_model::GroupId;
use fracdram_serve::{
    recover, start, wal, BreakerConfig, ChaosConfig, ChaosPlan, ChaosSpec, ServeConfig, StatusBoard,
};
use fracdram_softmc::RunMetrics;

/// Injected die-failure density ladder; drops and stalls scale with it.
const DENSITIES: &[f64] = &[0.0, 0.02, 0.08, 0.2];

/// Requests in the lock-step workload of every round.
const WORKLOAD: usize = 48;

/// Dies in each round's (deliberately small) pool.
const DIES: usize = 3;

/// The chaos densities at one ladder point.
fn chaos_config(density: f64) -> ChaosConfig {
    ChaosConfig {
        die_fail: density,
        drop: density / 2.0,
        stall: density / 4.0,
        stall_ms: 5,
    }
}

/// The served pool of one round: small and fast, with an aggressive
/// breaker so even the 48-request workload can trip, probe, and
/// re-close it.
fn round_config(chaos_seed: u64, density: f64, wal_dir: PathBuf) -> ServeConfig {
    let config = chaos_config(density);
    ServeConfig {
        dies: DIES,
        shards: 2,
        columns: 64,
        batch: 4,
        breaker: BreakerConfig { trip: 2, open: 3 },
        chaos: config.enabled().then_some(ChaosSpec {
            seed: chaos_seed,
            config,
        }),
        wal_dir: Some(wal_dir),
        ..ServeConfig::default()
    }
}

/// The i-th workload request. Pure in `index`, mixing every state class
/// the WAL must reconstruct: stored rows, the enrollment cache, TRNG
/// clock advancement, and read-backs.
fn request_line(index: usize, columns: usize) -> String {
    let die = index % DIES;
    // Storage stays on bank 1 so it never disturbs the TRNG quad.
    let doc = match index % 6 {
        0 => Json::obj()
            .field("op", "write")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 3 + index % 16)
            .field("fill", index.is_multiple_of(4))
            .field("frac", index % 3),
        1 => Json::obj()
            .field("op", "read")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 3 + index % 16),
        2 => Json::obj()
            .field("op", "enroll")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 44usize)
            .field("reps", 2usize),
        3 => Json::obj()
            .field("op", "verify")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 44usize),
        4 => Json::obj()
            .field("op", "copy")
            .field("die", die)
            .field("bank", 1usize)
            .field("src", 3 + index % 16)
            .field("dst", 20 + index % 4),
        _ => Json::obj()
            .field("op", "trng")
            .field("die", die)
            .field("bits", columns),
    };
    doc.to_string()
}

/// A lock-step client that rides through chaos connection drops by
/// reconnecting and resending — safe exactly because drops are injected
/// *before* the request reaches a shard, so a resent request executes
/// once.
struct Driver {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    resends: u64,
}

impl Driver {
    fn connect(addr: &str) -> Driver {
        let (writer, reader) = Driver::open(addr);
        Driver {
            addr: addr.to_string(),
            writer,
            reader,
            resends: 0,
        }
    }

    fn open(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect to round daemon");
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().expect("clone stream");
        (writer, BufReader::new(stream))
    }

    /// Sends one line and waits for its response, reconnecting through
    /// dropped connections. Panics after an implausible resend streak
    /// (the plan draws each drop independently per connection).
    fn send(&mut self, line: &str) -> String {
        for _ in 0..100 {
            let sent = self.writer.write_all(format!("{line}\n").as_bytes());
            let mut response = String::new();
            if sent.is_ok() {
                match self.reader.read_line(&mut response) {
                    Ok(n) if n > 0 => return response.trim_end().to_string(),
                    _ => {}
                }
            }
            self.resends += 1;
            let (writer, reader) = Driver::open(&self.addr);
            self.writer = writer;
            self.reader = reader;
        }
        panic!("request dropped 100 times in a row: {line}");
    }
}

/// Board counters a round accumulates across both incarnations.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    wal_entries: u64,
    injected: u64,
    trips: u64,
    rejections: u64,
    probes: u64,
    closes: u64,
    drops: u64,
    stalls: u64,
}

impl Counters {
    fn absorb(&mut self, board: &StatusBoard) {
        self.wal_entries += board.wal_entries.load(Ordering::Relaxed);
        self.injected += board.chaos_die_failures.load(Ordering::Relaxed);
        self.trips += board.breaker_trips.load(Ordering::Relaxed);
        self.rejections += board.breaker_rejections.load(Ordering::Relaxed);
        self.probes += board.breaker_probes.load(Ordering::Relaxed);
        self.closes += board.breaker_closes.load(Ordering::Relaxed);
        self.drops += board.chaos_drops.load(Ordering::Relaxed);
        self.stalls += board.chaos_stalls.load(Ordering::Relaxed);
    }
}

/// One round's deterministic report (plus the `--json`-only timing).
#[derive(Debug, Clone)]
struct RoundReport {
    kill_at: usize,
    acked: usize,
    recovered: usize,
    torn: usize,
    resends: u64,
    counters: Counters,
    digest: u64,
    recovery_ns: f64,
}

/// Runs one complete kill→recover scenario. Every field of the report
/// except `recovery_ns` is a pure function of `(chaos_seed, density)`.
fn chaos_round(chaos_seed: u64, density: f64, dir: &Path) -> RoundReport {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = round_config(chaos_seed, density, dir.to_path_buf());
    // The kill point comes from the same plan machinery even when the
    // round's chaos is otherwise disarmed (density 0 tests pure WAL
    // recovery).
    let kill_at = ChaosPlan::new(chaos_seed, chaos_config(density))
        .kill_point(WORKLOAD)
        .expect("workload is large enough for a kill point");

    // Phase 1: drive lock-step to the kill point, then die hard.
    let handle = start(cfg.clone()).expect("start round daemon");
    let addr = handle.addr().to_string();
    let mut driver = Driver::connect(&addr);
    let mut acked: Vec<String> = Vec::new();
    for index in 0..kill_at {
        acked.push(driver.send(&request_line(index, cfg.columns)));
    }
    let mut counters = Counters::default();
    counters.absorb(handle.board());
    // In-process stand-in for `kill -9`: threads exit without sealing
    // the WAL or flushing unacknowledged replies.
    handle.crash();

    // Damage the tail the way a mid-append kill would: a dangling
    // partial line recovery must discard without losing the prefix.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(wal::shard_path(dir, 0))
            .expect("open shard-0 WAL");
        file.write_all(b"E 9 9 12").expect("append torn tail");
    }

    // Recover twice: the logs must agree byte for byte, every
    // acknowledged die-routed response must be in them, and the torn
    // line must be discarded, not fatal.
    let started = Instant::now();
    let first = recover(&cfg, dir).expect("recovery");
    let recovery_ns = started.elapsed().as_nanos() as f64;
    let second = recover(&cfg, dir).expect("second recovery");
    let first_log = first.response_log();
    assert_eq!(
        first_log,
        second.response_log(),
        "two recoveries of one WAL diverged"
    );
    assert_eq!(first.request_log(), second.request_log());
    assert!(!first.sealed, "a crashed daemon must not leave a seal");
    assert!(first.torn >= 1, "the injected torn tail went unnoticed");
    let recovered_lines: std::collections::BTreeSet<&str> = first_log.lines().collect();
    for response in acked.iter().filter(|r| r.contains("\"seq\"")) {
        assert!(
            recovered_lines.contains(response.as_str()),
            "acknowledged response lost across kill->recover: {response}"
        );
    }
    let recovered = first.entry_count();

    // Phase 2: restart from the WAL (start() recovers and compacts),
    // finish the workload, and digest a read-back + verify sweep. The
    // per-die executed sequence of phase 1 + phase 2 equals the
    // uninterrupted run's, so the digest is also what an never-killed
    // daemon would produce — the kill_recover integration test pins
    // that equality via cmp.
    let handle = start(cfg.clone()).expect("restart round daemon");
    assert_eq!(
        handle.board().recovered.load(Ordering::Relaxed),
        recovered as u64,
        "restart replayed a different entry count than offline recovery"
    );
    let addr = handle.addr().to_string();
    let mut driver2 = Driver::connect(&addr);
    for index in kill_at..WORKLOAD {
        driver2.send(&request_line(index, cfg.columns));
    }
    let mut sweep = String::new();
    for die in 0..DIES {
        for row in (3usize..19).chain(20..24) {
            let line = Json::obj()
                .field("op", "read")
                .field("die", die)
                .field("bank", 1usize)
                .field("row", row)
                .to_string();
            sweep.push_str(&driver2.send(&line));
            sweep.push('\n');
        }
        let line = Json::obj()
            .field("op", "verify")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 44usize)
            .to_string();
        sweep.push_str(&driver2.send(&line));
        sweep.push('\n');
    }
    counters.absorb(handle.board());
    handle.join();
    let _ = std::fs::remove_dir_all(dir);

    RoundReport {
        kill_at,
        acked: acked.len(),
        recovered,
        torn: first.torn,
        resends: driver.resends + driver2.resends,
        counters,
        digest: wal::fnv1a64(sweep.as_bytes()),
        recovery_ns,
    }
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "chaos_sweep",
        "kill->recover invariants of fracdram-serve vs injected chaos density",
        &[
            ("chaos-seed", "chaos plan seed for every round (default 11)"),
            ("jobs", "fleet worker threads (default: all cores)"),
            ("retries", "extra attempts for a failing round (default 0)"),
            ("keep-going", "complete remaining rounds after a failure"),
            (
                "fail-fast",
                "stop claiming rounds after a failure (default)",
            ),
            ("json", "write the serve/recovery_ns bench record here"),
        ],
    ) {
        return;
    }
    let chaos_seed = args.u64("chaos-seed", 11);
    let jobs = args.jobs();
    let policy = args.failure_policy();
    let json_path = args.json_path().map(str::to_string);
    args.reject_unknown();

    let plan: Vec<TaskKey> = (0..DENSITIES.len())
        .map(|variant| TaskKey::new(GroupId::B, 0, 0).with_variant(variant))
        .collect();
    let base_dir = std::env::temp_dir().join(format!(
        "fracdram-chaos-{}-{chaos_seed}",
        std::process::id()
    ));
    let run = fleet::run_with(&plan, chaos_seed, jobs, policy, |key, _task_seed| {
        let dir = base_dir.join(format!("round-{}", key.variant));
        (
            chaos_round(chaos_seed, DENSITIES[key.variant], &dir),
            RunMetrics::default(),
        )
    });
    eprintln!("{}", run.summary());

    println!(
        "{}",
        render::header("chaos sweep — kill->recover invariants vs chaos density")
    );
    println!(
        "(chaos seed {chaos_seed}; {WORKLOAD} requests over {DIES} dies per round; \
         drop = die-fail/2, stall = die-fail/4)\n"
    );
    println!(
        "  {:>8} {:>5} {:>6} {:>5} {:>5} {:>7} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6}  digest",
        "die-fail",
        "kill",
        "acked",
        "wal",
        "torn",
        "resend",
        "inj",
        "trips",
        "rej",
        "probes",
        "closes",
        "drops"
    );
    let mut last_injected = 0u64;
    let mut monotone = true;
    for report in &run.tasks {
        let density = DENSITIES[report.key.variant];
        match report.ok() {
            Some(r) => {
                println!(
                    "  {:>8.3} {:>5} {:>6} {:>5} {:>5} {:>7} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6}  {:016x}",
                    density,
                    r.kill_at,
                    r.acked,
                    r.recovered,
                    r.torn,
                    r.resends,
                    r.counters.injected,
                    r.counters.trips,
                    r.counters.rejections,
                    r.counters.probes,
                    r.counters.closes,
                    r.counters.drops,
                    r.digest
                );
                monotone &= r.counters.injected >= last_injected;
                last_injected = r.counters.injected;
            }
            None => println!("  {density:>8.3} round failed"),
        }
    }
    println!(
        "\n(injected die failures are {} in density: plan membership is nested)",
        if monotone { "monotone" } else { "NOT MONOTONE" }
    );
    if !monotone {
        eprintln!("chaos_sweep: injected-event count decreased as density rose");
        std::process::exit(1);
    }

    if let Some(path) = json_path {
        let mut times: Vec<f64> = run
            .tasks
            .iter()
            .filter_map(|t| t.ok().map(|r| r.recovery_ns))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_ns = if times.is_empty() {
            0.0
        } else {
            times[times.len() / 2]
        };
        let records = [Record {
            bench: "serve/recovery_ns".to_string(),
            median_ns,
            iters: times.len() as u64,
        }];
        if let Err(e) = std::fs::write(&path, format_records(&records)) {
            fracdram_experiments::exit_json_write_error(&path, &e);
        }
        // Stderr, like every fleet summary line: stdout must stay
        // byte-identical whether or not --json is requested.
        eprintln!("chaos_sweep: wrote 1 bench record to {path}");
    }

    if run.failed() > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's acceptance property, sized down for CI: same seed +
    /// density ⇒ identical reports, and injected events are monotone
    /// in density.
    #[test]
    fn rounds_are_deterministic_and_monotone() {
        let dir = std::env::temp_dir().join(format!("fracdram-chaos-test-{}", std::process::id()));
        let a = chaos_round(11, 0.2, &dir.join("a"));
        let b = chaos_round(11, 0.2, &dir.join("b"));
        assert_eq!(a.kill_at, b.kill_at);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counters.injected, b.counters.injected);
        assert_eq!(a.counters.trips, b.counters.trips);
        assert_eq!(a.counters.rejections, b.counters.rejections);

        let calm = chaos_round(11, 0.02, &dir.join("calm"));
        assert!(
            a.counters.injected >= calm.counters.injected,
            "injected events must be monotone in density"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Density 0 still kills and recovers: pure WAL durability with no
    /// chaos in the mix.
    #[test]
    fn quiet_round_recovers_everything() {
        let dir =
            std::env::temp_dir().join(format!("fracdram-chaos-test-quiet-{}", std::process::id()));
        let r = chaos_round(7, 0.0, &dir);
        assert_eq!(r.acked, r.kill_at);
        assert_eq!(
            r.recovered, r.acked,
            "without chaos, recovered entries == acknowledged requests"
        );
        assert_eq!(r.counters.injected, 0);
        assert_eq!(r.counters.drops, 0);
        assert_eq!(r.resends, 0);
    }
}
