//! The FracDRAM service daemon.
//!
//! Serves TRNG / PUF / Frac-storage endpoints over line-delimited JSON
//! on a TCP socket (see `fracdram_serve::protocol`), or — with
//! `--replay` — re-executes a canonical request log offline and prints
//! the byte-reproducible response log. The write-ahead log is the only
//! journal: `--record-requests`/`--record-responses` and
//! `--recover-dump` all read the logs back from `--wal-dir`.
//!
//! ```text
//! cargo run --release -p fracdram-serve --bin fracdram-serve -- --port 4717 \
//!     --wal-dir wal --record-requests requests.log
//! cargo run --release -p fracdram-serve --bin fracdram-serve -- \
//!     --replay requests.log --out replay.log
//! ```

use std::path::PathBuf;
use std::time::Duration;

use fracdram_experiments::Args;
use fracdram_model::GroupId;
use fracdram_serve::{
    recover, run_replay, start_on, BreakerConfig, ChaosConfig, ChaosSpec, ServeConfig,
};

fn parse_group(name: &str) -> Option<GroupId> {
    Some(match name {
        "A" => GroupId::A,
        "B" => GroupId::B,
        "C" => GroupId::C,
        "D" => GroupId::D,
        "E" => GroupId::E,
        "F" => GroupId::F,
        "G" => GroupId::G,
        "H" => GroupId::H,
        "I" => GroupId::I,
        "J" => GroupId::J,
        "K" => GroupId::K,
        "L" => GroupId::L,
        _ => return None,
    })
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "fracdram-serve",
        "persistent daemon serving TRNG / PUF / Frac-storage endpoints over line-delimited JSON",
        &[
            (
                "port",
                "TCP port to listen on; 0 picks a free one (default 4717)",
            ),
            ("dies", "number of addressable dies (default 16)"),
            ("shards", "shard worker threads (default 4)"),
            (
                "queue-depth",
                "bounded per-shard queue; full sheds 503 (default 64)",
            ),
            (
                "batch",
                "max requests per shard drain (one WAL commit; default 8)",
            ),
            (
                "cols",
                "columns per sub-array / row width in bits (default 128)",
            ),
            (
                "seed",
                "pool seed; die d gen g is mix(seed, [d, g]) (default 4070704035)",
            ),
            ("group", "DRAM group letter A..L (default B)"),
            (
                "fault-limit",
                "fault events before a die is auto-remapped (default 2048)",
            ),
            (
                "record-requests",
                "on shutdown, write the canonical request log of the whole \
                 journaled history here (needs --wal-dir)",
            ),
            (
                "record-responses",
                "on shutdown, write the matching response log here (needs --wal-dir)",
            ),
            (
                "replay",
                "offline mode: re-execute this request log and exit",
            ),
            ("out", "replay output path, or - for stdout (default -)"),
            (
                "wal-dir",
                "journal every executed request here and recover from it at startup \
                 (default: off, nothing is journaled)",
            ),
            (
                "recover-dump",
                "offline mode: replay the WAL in this directory, print the recovered \
                 response log, and exit (read-only)",
            ),
            (
                "deadline-ms",
                "shed queued requests older than this with 503 (default 5000; 0 disables)",
            ),
            (
                "io-timeout-ms",
                "disconnect a client idle/stalled this long (default 30000)",
            ),
            (
                "breaker-trip",
                "consecutive die failures that trip its circuit breaker (default 3)",
            ),
            (
                "breaker-open",
                "rejections while open before a half-open probe (default 4)",
            ),
            (
                "chaos-seed",
                "chaos plan seed (default 0; plan is pure in seed+densities)",
            ),
            (
                "chaos-die-fail",
                "chaos: per-(die,seq) injected die-failure probability (default 0)",
            ),
            (
                "chaos-drop",
                "chaos: per-request connection-drop probability (default 0)",
            ),
            (
                "chaos-stall",
                "chaos: per-drain shard-stall probability (default 0)",
            ),
            ("chaos-stall-ms", "chaos: stall duration in ms (default 5)"),
        ],
    ) {
        return;
    }

    let defaults = ServeConfig::default();
    let group_name = args.str("group").unwrap_or("B").to_string();
    let Some(group) = parse_group(&group_name) else {
        eprintln!("error: unknown DRAM group {group_name:?} (expected a letter A..L)");
        std::process::exit(2);
    };
    let chaos_config = ChaosConfig {
        die_fail: args.f64("chaos-die-fail", 0.0),
        drop: args.f64("chaos-drop", 0.0),
        stall: args.f64("chaos-stall", 0.0),
        stall_ms: args.u64("chaos-stall-ms", 5),
    };
    let chaos = chaos_config.enabled().then(|| ChaosSpec {
        seed: args.u64("chaos-seed", 0),
        config: chaos_config,
    });
    if chaos.is_none() {
        // Consume the flag either way so --chaos-seed alone is not an
        // unknown-flag error (it is simply inert without a density).
        let _ = args.u64("chaos-seed", 0);
    }
    let cfg = ServeConfig {
        group,
        dies: args.usize("dies", defaults.dies),
        shards: args.usize("shards", defaults.shards),
        queue_depth: args.usize("queue-depth", defaults.queue_depth),
        batch: args.usize("batch", defaults.batch),
        columns: args.usize("cols", defaults.columns),
        seed: args.u64("seed", defaults.seed),
        fault_limit: args.u64("fault-limit", defaults.fault_limit),
        breaker: BreakerConfig {
            trip: args.u64("breaker-trip", defaults.breaker.trip as u64) as u32,
            open: args.u64("breaker-open", defaults.breaker.open as u64) as u32,
        },
        chaos,
        deadline_ms: args.u64("deadline-ms", defaults.deadline_ms),
        io_timeout_ms: args.u64("io-timeout-ms", defaults.io_timeout_ms),
        wal_dir: args.str("wal-dir").map(PathBuf::from),
    };
    if cfg.columns == 0 || !cfg.columns.is_multiple_of(4) {
        eprintln!("error: --cols must be a positive multiple of 4");
        std::process::exit(2);
    }

    let port = args.usize("port", 4717) as u16;
    let replay = args.str("replay").map(str::to_string);
    let recover_dump = args.str("recover-dump").map(PathBuf::from);
    let out = args.str("out").unwrap_or("-").to_string();
    let record_requests = args.str("record-requests").map(str::to_string);
    let record_responses = args.str("record-responses").map(str::to_string);
    args.reject_unknown();
    if (record_requests.is_some() || record_responses.is_some()) && cfg.wal_dir.is_none() {
        eprintln!(
            "error: --record-requests/--record-responses need --wal-dir \
             (the logs are read back from the journal)"
        );
        std::process::exit(2);
    }

    if let Some(dir) = recover_dump {
        if !dir.is_dir() {
            eprintln!("error: --recover-dump {} is not a directory", dir.display());
            std::process::exit(1);
        }
        let recovery = recover(&cfg, &dir).unwrap_or_else(|e| {
            eprintln!("error: recovery failed: {e}");
            std::process::exit(1);
        });
        let entries = recovery.entry_count();
        eprintln!(
            "fracdram-serve: recovered {} entr{} ({}, {} torn line(s))",
            entries,
            if entries == 1 { "y" } else { "ies" },
            if recovery.sealed {
                "sealed"
            } else {
                "unclean shutdown"
            },
            recovery.torn
        );
        write_output("out", &out, &recovery.response_log());
        return;
    }

    if let Some(path) = replay {
        let requests = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read --replay {path}: {e}");
            std::process::exit(1);
        });
        let responses = run_replay(&cfg, &requests).unwrap_or_else(|e| {
            eprintln!("error: replay failed: {e}");
            std::process::exit(1);
        });
        write_output("out", &out, &responses);
        return;
    }

    let handle = start_on(cfg.clone(), port).unwrap_or_else(|e| {
        eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "fracdram-serve: listening on {} ({} die(s), {} shard(s), group {}); \
         send {{\"op\":\"shutdown\"}} to stop",
        handle.addr(),
        cfg.dies,
        cfg.shards,
        cfg.group,
    );
    while !handle.is_stopped() {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = handle.join();
    eprintln!(
        "fracdram-serve: drained — {} request(s) served, {} shed",
        report.processed, report.shed
    );
    if record_requests.is_none() && record_responses.is_none() {
        return;
    }
    // join() sealed every shard's journal, so this reads back the whole
    // journaled history, earlier incarnations included: exactly what a
    // replay must start from to reproduce these dies.
    let dir = cfg.wal_dir.as_deref().expect("checked before binding");
    let recovery = recover(&cfg, dir).unwrap_or_else(|e| {
        eprintln!("error: cannot read the journal back for recording: {e}");
        std::process::exit(1);
    });
    if let Some(path) = record_requests {
        write_output("record-requests", &path, &recovery.request_log());
    }
    if let Some(path) = record_responses {
        write_output("record-responses", &path, &recovery.response_log());
    }
}

/// Writes `text` to `path`, or to stdout when `path` is `-`; exits 1
/// naming `--flag` when the file cannot be written.
fn write_output(flag: &str, path: &str, text: &str) {
    if path == "-" {
        print!("{text}");
    } else if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write --{flag} {path}: {e}");
        std::process::exit(1);
    }
}
