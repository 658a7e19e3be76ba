//! Load generator for `fracdram-serve`.
//!
//! Drives a mixed workload — TRNG draws, PUF evaluation, enrollment and
//! verification, Frac writes, row copies, and read-backs — from N
//! concurrent client threads, and reports p50/p99 per-request latency
//! and sustained req/s. By default it embeds the server in-process
//! (the daemon code path, loopback TCP and all); `--addr` points it at
//! an already-running daemon instead.
//!
//! `--fault-die K --fault-at R` makes client 0 mark die K bad after its
//! R-th request, exercising the drain-and-remap path under load; the
//! run still must not lose or fail a single request.
//!
//! ```text
//! cargo run --release -p fracdram-serve --bin serve_bench -- \
//!     --clients 4 --requests 60 --json /tmp/serve_bench.json
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use fracdram_bench::{format_records, Record};
use fracdram_experiments::{exit_json_write_error, Args, Json};
use fracdram_serve::{start, ServeConfig};
use fracdram_stats::summary::quantile;

/// One client's tally.
#[derive(Debug, Default, Clone)]
struct ClientTally {
    latencies_ns: Vec<f64>,
    ok: u64,
    failed: u64,
    shed: u64,
}

/// The i-th request of client `client`, as a wire line.
fn request_line(client: usize, index: usize, dies: usize) -> String {
    let die = client % dies;
    // Storage traffic stays on bank 1 so it never disturbs the TRNG's
    // seed rows and activation quad in bank 0.
    let doc = match index % 7 {
        0 => Json::obj()
            .field("op", "trng")
            .field("die", die)
            .field("bits", 64usize),
        1 => Json::obj()
            .field("op", "write")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 3 + index % 16)
            .field("fill", index.is_multiple_of(2))
            .field("frac", index % 3),
        2 => Json::obj()
            .field("op", "read")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 3 + index % 16),
        3 => Json::obj()
            .field("op", "puf")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 40 + index % 20),
        4 => Json::obj()
            .field("op", "copy")
            .field("die", die)
            .field("bank", 1usize)
            .field("src", 3 + index % 16)
            .field("dst", 20 + index % 4),
        5 => Json::obj()
            .field("op", "enroll")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 44usize)
            .field("reps", 3usize),
        _ => Json::obj()
            .field("op", "verify")
            .field("die", die)
            .field("bank", 1usize)
            .field("row", 44usize),
    };
    doc.to_string()
}

fn send_line(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut response = String::new();
    let n = reader
        .read_line(&mut response)
        .map_err(|e| format!("receive failed: {e}"))?;
    if n == 0 {
        return Err("server closed the connection".to_string());
    }
    Ok(response.trim_end().to_string())
}

fn tally_response(tally: &mut ClientTally, response: &str) {
    let doc = Json::parse(response).unwrap_or(Json::Null);
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        tally.ok += 1;
    } else if doc.get("code").and_then(Json::as_usize) == Some(503) {
        tally.shed += 1;
    } else {
        tally.failed += 1;
        eprintln!("serve_bench: request failed: {response}");
    }
}

#[allow(clippy::too_many_arguments)]
fn client_main(
    addr: String,
    client: usize,
    requests: usize,
    dies: usize,
    fault_die: usize,
    fault_at: usize,
) -> Result<ClientTally, String> {
    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // One-line requests with one-line answers: without TCP_NODELAY the
    // measured latency is mostly Nagle's delayed-ACK stall.
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut tally = ClientTally::default();
    for index in 0..requests {
        if client == 0 && fault_die != usize::MAX && index == fault_at {
            let line = Json::obj()
                .field("op", "mark-bad")
                .field("die", fault_die)
                .to_string();
            let response = send_line(&mut writer, &mut reader, &line)?;
            tally_response(&mut tally, &response);
        }
        let line = request_line(client, index, dies);
        let started = Instant::now();
        let response = send_line(&mut writer, &mut reader, &line)?;
        tally.latencies_ns.push(started.elapsed().as_nanos() as f64);
        tally_response(&mut tally, &response);
    }
    Ok(tally)
}

fn main() {
    let args = Args::parse();
    if args.usage(
        "serve_bench",
        "mixed-workload load generator for fracdram-serve: p50/p99 latency and req/s",
        &[
            (
                "addr",
                "host:port of a running daemon (default: embed one in-process)",
            ),
            ("clients", "concurrent client threads (default 4)"),
            ("requests", "requests per client (default 60)"),
            (
                "dies",
                "dies in the embedded pool / assumed on the daemon (default 8)",
            ),
            ("shards", "embedded pool shards (default 2)"),
            ("queue-depth", "embedded per-shard queue bound (default 64)"),
            ("cols", "embedded row width in bits (default 128)"),
            ("seed", "embedded pool seed (default 4070704035)"),
            (
                "fault-die",
                "die client 0 marks bad mid-run (default: none)",
            ),
            (
                "fault-at",
                "request index at which the die is marked bad (default requests/2)",
            ),
            (
                "wal-dir",
                "embedded mode: journal to (and recover from) this WAL directory; \
                 fracdram-serve --recover-dump reads its logs back",
            ),
            ("json", "write p50/p99/ns-per-req bench records here"),
            (
                "shutdown",
                "send a shutdown op when done (for --addr daemons)",
            ),
        ],
    ) {
        return;
    }

    let defaults = ServeConfig::default();
    let external = args.str("addr").map(str::to_string);
    let clients = args.usize("clients", 4).max(1);
    let requests = args.usize("requests", 60);
    let dies = args.usize("dies", 8).max(1);
    let cfg = ServeConfig {
        dies,
        shards: args.usize("shards", 2),
        queue_depth: args.usize("queue-depth", defaults.queue_depth),
        columns: args.usize("cols", defaults.columns),
        seed: args.u64("seed", defaults.seed),
        wal_dir: args.str("wal-dir").map(std::path::PathBuf::from),
        ..defaults
    };
    let fault_die = args.usize("fault-die", usize::MAX);
    let fault_at = args.usize("fault-at", requests / 2);
    let json_path = args.str("json").map(str::to_string);
    let send_shutdown = args.flag("shutdown");
    args.reject_unknown();

    if fault_die != usize::MAX && fault_die >= dies {
        eprintln!("error: --fault-die {fault_die} out of range (pool has {dies} dies)");
        std::process::exit(2);
    }

    let embedded = if external.is_none() {
        Some(start(cfg.clone()).unwrap_or_else(|e| {
            eprintln!("error: cannot start embedded server: {e}");
            std::process::exit(1);
        }))
    } else {
        None
    };
    let addr = external
        .clone()
        .unwrap_or_else(|| embedded.as_ref().unwrap().addr().to_string());
    println!(
        "serve_bench: {clients} client(s) x {requests} request(s) over {dies} die(s) @ {addr}{}",
        if fault_die == usize::MAX {
            String::new()
        } else {
            format!(", marking die {fault_die} bad at request {fault_at}")
        }
    );

    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                client_main(addr, client, requests, dies, fault_die, fault_at)
            })
        })
        .collect();
    let mut latencies_ns = Vec::with_capacity(clients * requests);
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    for worker in workers {
        match worker.join().expect("client thread panicked") {
            Ok(tally) => {
                latencies_ns.extend(tally.latencies_ns);
                ok += tally.ok;
                failed += tally.failed;
                shed += tally.shed;
            }
            Err(message) => {
                eprintln!("serve_bench: client error: {message}");
                failed += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    if send_shutdown || embedded.is_some() {
        // On an embedded server join() below also stops it; sending the
        // op keeps the daemon path honest for --addr runs.
        if let Ok(stream) = TcpStream::connect(&addr) {
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let _ = send_line(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
        }
    }

    let total = latencies_ns.len() as u64;
    let p50 = if latencies_ns.is_empty() {
        0.0
    } else {
        quantile(&latencies_ns, 0.50)
    };
    let p99 = if latencies_ns.is_empty() {
        0.0
    } else {
        quantile(&latencies_ns, 0.99)
    };
    let ns_per_req = if total == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / total as f64
    };
    let req_per_s = if elapsed.as_secs_f64() > 0.0 {
        total as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "serve_bench: p50 {:.3} ms  p99 {:.3} ms  {:.0} req/s  ({ok} ok, {failed} failed, {shed} shed)",
        p50 / 1e6,
        p99 / 1e6,
        req_per_s,
    );

    if let Some(handle) = embedded {
        use std::sync::atomic::Ordering;
        let board = handle.board();
        let hwms = board.queue_hwms();
        let hist = board.batch_histogram();
        let hist_str = hist
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(size, count)| format!("{size}x{count}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("serve_bench: queue hwm {hwms:?}  drains [{hist_str}]");
        println!(
            "serve_bench: wal {} entr{} / {} sync(s) / {} byte(s) ({} recovered)  \
             breaker {} trip(s) / {} rejection(s) / {} probe(s) / {} close(s)",
            board.wal_entries.load(Ordering::Relaxed),
            if board.wal_entries.load(Ordering::Relaxed) == 1 {
                "y"
            } else {
                "ies"
            },
            board.wal_syncs.load(Ordering::Relaxed),
            board.wal_bytes.load(Ordering::Relaxed),
            board.recovered.load(Ordering::Relaxed),
            board.breaker_trips.load(Ordering::Relaxed),
            board.breaker_rejections.load(Ordering::Relaxed),
            board.breaker_probes.load(Ordering::Relaxed),
            board.breaker_closes.load(Ordering::Relaxed),
        );
        let report = handle.join();
        println!(
            "serve_bench: server drained — {} processed, {} shed",
            report.processed, report.shed
        );
    }

    if let Some(path) = json_path {
        let records = [
            Record {
                bench: "serve/mixed_p50_ns".to_string(),
                median_ns: p50,
                iters: total,
            },
            Record {
                bench: "serve/mixed_p99_ns".to_string(),
                median_ns: p99,
                iters: total,
            },
            Record {
                bench: "serve/mixed_ns_per_req".to_string(),
                median_ns: ns_per_req,
                iters: total,
            },
        ];
        if let Err(e) = std::fs::write(&path, format_records(&records)) {
            exit_json_write_error(&path, &e);
        }
        println!("serve_bench: wrote 3 bench record(s) to {path}");
    }

    if failed > 0 {
        eprintln!("serve_bench: {failed} request(s) failed");
        std::process::exit(1);
    }
}
