//! End-to-end tests of the daemon over real loopback TCP: replay
//! determinism, concurrent-vs-serial equivalence, fault degradation,
//! and queue backpressure. Tests that check a run's canonical logs
//! journal to a fresh WAL directory and read the logs back with
//! [`recover`], the daemon's only journal.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use fracdram_experiments::Json;
use fracdram_serve::{
    recover, run_replay, start, BreakerConfig, ChaosConfig, ChaosSpec, Recovery, ServeConfig,
    ServerHandle,
};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Every response line this client received, in arrival order.
    received: Vec<String>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            received: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        assert!(!response.is_empty(), "server closed mid-request");
        let response = response.trim_end().to_string();
        self.received.push(response.clone());
        response
    }
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        dies: 4,
        shards: 2,
        ..ServeConfig::default()
    }
}

/// `cfg` journaling to a fresh, empty WAL directory named after `tag`.
fn with_fresh_wal(cfg: ServeConfig, tag: &str) -> ServeConfig {
    let dir = std::env::temp_dir().join(format!("fracdram-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServeConfig {
        wal_dir: Some(dir),
        ..cfg
    }
}

/// The die-routed lines among `received`, sorted into the journal's
/// canonical `(die, seq)` order, one per line. Front-end answers
/// (status, sheds, parse errors) carry no seq and are left out.
fn canonical_order(received: &[String]) -> String {
    let mut keyed: Vec<((usize, u64), &str)> = received
        .iter()
        .filter_map(|line| {
            let doc = Json::parse(line).ok()?;
            let key = (doc.get("die")?.as_usize()?, doc.get("seq")?.as_u64()?);
            Some((key, line.as_str()))
        })
        .collect();
    keyed.sort();
    keyed.iter().map(|(_, line)| format!("{line}\n")).collect()
}

/// Reads the joined daemon's canonical logs back from its WAL, checks
/// that the response log is exactly what the clients received and that
/// replaying the request log reproduces it, removes the WAL, and
/// returns the recovery.
fn check_journal(cfg: &ServeConfig, received: &[String]) -> Recovery {
    let dir = cfg.wal_dir.as_deref().expect("test runs with a WAL");
    let recovery = recover(cfg, dir).expect("recover the journal");
    assert!(recovery.sealed, "a joined daemon leaves a sealed journal");
    let response_log = recovery.response_log();
    assert_eq!(
        response_log,
        canonical_order(received),
        "the journal must hold exactly the responses sent on the sockets"
    );
    let replayed = run_replay(cfg, &recovery.request_log()).expect("replay");
    assert_eq!(
        replayed, response_log,
        "replayed response log must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(dir);
    recovery
}

/// The mixed per-client workload both halves of the equivalence tests
/// drive: TRNG, Frac writes, copies, reads, PUF evaluation, enrollment
/// and verification, all on the client's own die.
fn workload(die: usize, requests: usize) -> Vec<String> {
    (0..requests)
        .map(|i| match i % 7 {
            0 => format!(r#"{{"op":"trng","die":{die},"bits":32}}"#),
            1 => format!(
                r#"{{"op":"write","die":{die},"bank":1,"row":{},"fill":{},"frac":{}}}"#,
                3 + i % 16,
                i % 2 == 0,
                i % 3
            ),
            2 => format!(
                r#"{{"op":"read","die":{die},"bank":1,"row":{}}}"#,
                3 + i % 16
            ),
            3 => format!(
                r#"{{"op":"puf","die":{die},"bank":1,"row":{}}}"#,
                40 + i % 20
            ),
            4 => format!(
                r#"{{"op":"copy","die":{die},"bank":1,"src":{},"dst":{}}}"#,
                3 + i % 16,
                20 + i % 4
            ),
            5 => format!(r#"{{"op":"enroll","die":{die},"bank":1,"row":44,"reps":3}}"#),
            _ => format!(r#"{{"op":"verify","die":{die},"bank":1,"row":44}}"#),
        })
        .collect()
}

#[test]
fn replayed_request_log_reproduces_responses_byte_for_byte() {
    let cfg = with_fresh_wal(small_cfg(), "replay");
    let handle = start(cfg.clone()).expect("start server");
    // Three clients race on two dies, so live arrival order on each die
    // is genuinely nondeterministic; the canonical log pins it down.
    let workers: Vec<_> = (0..3)
        .map(|c| {
            let mut client = Client::connect(&handle);
            let lines = workload(c % 2, 21);
            std::thread::spawn(move || {
                for line in &lines {
                    let response = client.send(line);
                    assert!(response.contains("\"ok\":true"), "failed: {response}");
                }
                client.received
            })
        })
        .collect();
    let mut received = Vec::new();
    for worker in workers {
        received.extend(worker.join().expect("client panicked"));
    }
    handle.stop();
    let report = handle.join();
    assert_eq!(report.processed, 63);
    assert_eq!(report.shed, 0);

    let recovery = check_journal(&cfg, &received);
    assert_eq!(recovery.request_log().lines().count(), 63);
}

/// Serves `per_die` requests of the mixed workload on every die of
/// `cfg` from one client thread per die, joins the daemon, and returns
/// its journal, checked against the clients and the one-thread replay.
fn serve_every_die(cfg: &ServeConfig, per_die: usize) -> Recovery {
    let handle = start(cfg.clone()).expect("start server");
    let workers: Vec<_> = (0..cfg.dies)
        .map(|die| {
            let mut client = Client::connect(&handle);
            let lines = workload(die, per_die);
            std::thread::spawn(move || {
                for line in &lines {
                    client.send(line);
                }
                client.received
            })
        })
        .collect();
    let mut received = Vec::new();
    for worker in workers {
        received.extend(worker.join().expect("client panicked"));
    }
    handle.stop();
    handle.join();
    check_journal(cfg, &received)
}

#[test]
fn concurrent_clients_match_single_client_ground_truth() {
    let per_client = 14;

    // Ground truth: one client drains each die's workload serially.
    let serial_cfg = with_fresh_wal(small_cfg(), "serial");
    let serial = start(serial_cfg.clone()).expect("start serial server");
    let mut client = Client::connect(&serial);
    for die in 0..serial_cfg.dies {
        for line in workload(die, per_client) {
            client.send(&line);
        }
    }
    let serial_received = std::mem::take(&mut client.received);
    drop(client);
    serial.stop();
    serial.join();
    let serial_log = check_journal(&serial_cfg, &serial_received);

    // Same per-die request streams, now from racing client threads.
    let concurrent_cfg = with_fresh_wal(small_cfg(), "concurrent");
    let concurrent_log = serve_every_die(&concurrent_cfg, per_client);

    assert_eq!(concurrent_log.response_log(), serial_log.response_log());
    assert_eq!(concurrent_log.request_log(), serial_log.request_log());
}

#[test]
fn per_shard_recovery_matches_the_one_thread_replay_at_every_shard_count() {
    let per_die = 14;
    // 5 dies split unevenly over 2 and 3 shards; 3 dies over 4 shards
    // leave the last shard's journal empty.
    for (dies, shards) in [(5, 1), (5, 2), (5, 3), (3, 4)] {
        let cfg = with_fresh_wal(
            ServeConfig {
                dies,
                shards,
                ..ServeConfig::default()
            },
            &format!("oracle-{dies}x{shards}"),
        );
        let recovery = serve_every_die(&cfg, per_die);
        let per_shard: Vec<usize> = recovery.entries.iter().map(Vec::len).collect();
        let expected: Vec<usize> = (0..shards)
            .map(|shard| (0..dies).filter(|die| die % shards == shard).count() * per_die)
            .collect();
        assert_eq!(per_shard, expected, "{dies} dies over {shards} shards");
        assert_eq!(recovery.entry_count(), dies * per_die);
    }
}

#[test]
fn chaotic_per_shard_recovery_matches_the_one_thread_replay() {
    let cfg = with_fresh_wal(
        ServeConfig {
            dies: 5,
            shards: 3,
            breaker: BreakerConfig { trip: 1, open: 3 },
            chaos: Some(ChaosSpec {
                seed: 11,
                config: ChaosConfig {
                    die_fail: 0.2,
                    ..ChaosConfig::none()
                },
            }),
            ..ServeConfig::default()
        },
        "oracle-chaos",
    );
    let recovery = serve_every_die(&cfg, 21);
    assert!(
        recovery.response_log().contains("\"gen\":1"),
        "the chaos plan must remap dies during replay"
    );
}

#[test]
fn die_marked_bad_mid_stream_remaps_without_losing_requests() {
    let cfg = with_fresh_wal(
        ServeConfig {
            dies: 2,
            shards: 1,
            ..ServeConfig::default()
        },
        "remap",
    );
    let handle = start(cfg.clone()).expect("start server");
    let mut client = Client::connect(&handle);

    let enroll = r#"{"op":"enroll","die":0,"bank":1,"row":44,"reps":3}"#;
    let verify = r#"{"op":"verify","die":0,"bank":1,"row":44}"#;
    let doc = Json::parse(&client.send(enroll)).unwrap();
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(false));
    let doc = Json::parse(&client.send(verify)).unwrap();
    assert_eq!(doc.get("match").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("gen").unwrap().as_usize(), Some(0));

    // Degrade the die mid-stream while traffic continues.
    let mut responses = Vec::new();
    for i in 0..12 {
        if i == 4 {
            let doc = Json::parse(&client.send(r#"{"op":"mark-bad","die":0}"#)).unwrap();
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
            responses.push(doc);
        }
        let line = format!(
            r#"{{"op":"write","die":0,"bank":1,"row":{},"fill":true,"frac":1}}"#,
            3 + i
        );
        responses.push(Json::parse(&client.send(&line)).unwrap());
    }
    for doc in &responses {
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "lost: {doc}");
    }
    let last_gen = responses.last().unwrap().get("gen").unwrap().as_usize();
    assert_eq!(
        last_gen,
        Some(1),
        "traffic after mark-bad runs on fresh silicon"
    );

    // The remap cleared the enrollment cache: verify reports
    // un-enrolled (not an error), and re-enrolling works.
    let doc = Json::parse(&client.send(verify)).unwrap();
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("enrolled").unwrap().as_bool(), Some(false));
    let doc = Json::parse(&client.send(enroll)).unwrap();
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(false));
    let doc = Json::parse(&client.send(verify)).unwrap();
    assert_eq!(doc.get("match").unwrap().as_bool(), Some(true));

    // Status reports the remap.
    let status = Json::parse(&client.send(r#"{"op":"status"}"#)).unwrap();
    let Some(Json::Arr(remaps)) = status.get("remaps") else {
        panic!("status has no remaps array: {status}");
    };
    assert_eq!(remaps.len(), 1);
    assert_eq!(remaps[0].get("die").unwrap().as_usize(), Some(0));
    assert_eq!(remaps[0].get("gen").unwrap().as_usize(), Some(1));
    assert_eq!(status.get("remap_count").unwrap().as_usize(), Some(1));

    let received = std::mem::take(&mut client.received);
    drop(client);
    handle.stop();
    let report = handle.join();
    assert_eq!(report.shed, 0);
    // And the whole degraded run replays byte-for-byte.
    check_journal(&cfg, &received);
}

#[test]
fn shutdown_completes_while_a_client_sits_idle() {
    // Connection threads poll the shutdown flag on a short read
    // timeout, so a client that connects and then goes silent must not
    // block the drain. Without the polling loop this test hangs.
    let handle = start(small_cfg()).expect("start server");
    let mut busy = Client::connect(&handle);
    let _idle = Client::connect(&handle);

    let response = busy.send(r#"{"op":"read","die":0,"bank":1,"row":3}"#);
    assert!(response.contains("\"ok\":true"));
    let status = Json::parse(&busy.send(r#"{"op":"status"}"#)).unwrap();
    assert_eq!(
        status.get("io_timeout_ms").and_then(Json::as_usize),
        Some(30_000),
        "status must surface the connection I/O timeout"
    );
    assert_eq!(
        status.get("deadline_ms").and_then(Json::as_usize),
        Some(5_000),
        "status must surface the request deadline"
    );

    handle.stop();
    let start_join = std::time::Instant::now();
    let report = handle.join();
    assert!(
        start_join.elapsed() < std::time::Duration::from_secs(5),
        "idle connection stalled the drain for {:?}",
        start_join.elapsed()
    );
    // Only the die-routed read goes through a shard; status is answered
    // at the connection layer.
    assert_eq!(report.processed, 1);
}

#[test]
fn idle_connections_are_closed_after_the_io_timeout() {
    let cfg = ServeConfig {
        dies: 2,
        shards: 1,
        io_timeout_ms: 150,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start server");
    let mut client = Client::connect(&handle);
    let response = client.send(r#"{"op":"read","die":0,"bank":1,"row":3}"#);
    assert!(response.contains("\"ok\":true"));

    // Go silent past the timeout: the server must hang up on us.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let mut line = String::new();
    let got = client.reader.read_line(&mut line).expect("read after idle");
    assert_eq!(got, 0, "server must close an idle connection, got {line:?}");

    handle.stop();
    handle.join();
}

#[test]
fn deadline_zero_disables_deadline_shedding() {
    // --deadline-ms 0 means "no deadline", not "a 0 ms deadline": a
    // request that waits in a shard queue arbitrarily long must still
    // execute rather than shed with 503.
    let cfg = ServeConfig {
        dies: 1,
        shards: 1,
        deadline_ms: 0,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start server");

    // Occupy the only shard, then queue a read behind the stall so it
    // ages ~200 ms before its drain — far past any accidental 1 ms
    // floor.
    let stall_client = Client::connect(&handle);
    let staller = std::thread::spawn(move || {
        let mut client = stall_client;
        client.send(r#"{"op":"stall","die":0,"millis":300}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut client = Client::connect(&handle);
    let response = client.send(r#"{"op":"read","die":0,"bank":1,"row":3}"#);
    assert!(
        response.contains("\"ok\":true"),
        "aged request must execute with deadlines disabled: {response}"
    );
    assert!(staller.join().expect("staller").contains("\"ok\":true"));

    let status = Json::parse(&client.send(r#"{"op":"status"}"#)).unwrap();
    assert_eq!(status.get("deadline_ms").and_then(Json::as_usize), Some(0));
    assert_eq!(
        status.get("deadline_shed").and_then(Json::as_usize),
        Some(0)
    );

    handle.stop();
    let report = handle.join();
    assert_eq!(report.shed, 0);
}

#[test]
fn invalid_utf8_line_gets_400_not_disconnect() {
    // A request line that is not valid UTF-8 is a client error, not a
    // transport failure: the server answers 400 and keeps the
    // connection serving.
    let handle = start(small_cfg()).expect("start server");
    let mut client = Client::connect(&handle);
    client
        .writer
        .write_all(b"\xff\xfe\xfd{\"op\":\"status\"}\n")
        .expect("send invalid UTF-8");
    let mut response = String::new();
    client.reader.read_line(&mut response).expect("receive");
    let doc = Json::parse(response.trim_end()).expect("400 must still be JSON");
    assert_eq!(doc.get("code").and_then(Json::as_usize), Some(400));

    // A multi-byte sequence split across the server's 50 ms read
    // timeout must survive intact (bytes, not UTF-8 prefixes, carry
    // across timeouts) — the reassembled line parses as one request.
    client
        .writer
        .write_all("{\"op\":\"read\",\"die\":0,\"bank\":1,\"row\":3}".as_bytes())
        .expect("send first half");
    let split = "é".as_bytes(); // 2-byte UTF-8 sequence
    client
        .writer
        .write_all(&split[..1])
        .expect("send half char");
    std::thread::sleep(std::time::Duration::from_millis(120));
    client
        .writer
        .write_all(&split[1..])
        .expect("send other half");
    client.writer.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    client.reader.read_line(&mut response).expect("receive");
    assert!(
        response.contains("400"),
        "trailing é makes the JSON malformed, but the line must arrive \
         whole as one request: {response}"
    );

    // And the connection still works.
    let response = client.send(r#"{"op":"read","die":0,"bank":1,"row":3}"#);
    assert!(response.contains("\"ok\":true"), "{response}");

    handle.stop();
    handle.join();
}

#[test]
fn full_queue_sheds_with_503_instead_of_blocking() {
    let cfg = ServeConfig {
        dies: 1,
        shards: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("start server");

    // Occupy the only shard for a while...
    let stall_handleref = Client::connect(&handle);
    let staller = std::thread::spawn(move || {
        let mut client = stall_handleref;
        client.send(r#"{"op":"stall","die":0,"millis":400}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    // ...then flood it from ten connections at once. With a queue bound
    // of 1, most of them must be shed immediately with a 503.
    let floods: Vec<_> = (0..10)
        .map(|_| {
            let mut client = Client::connect(&handle);
            std::thread::spawn(move || client.send(r#"{"op":"read","die":0,"bank":0,"row":0}"#))
        })
        .collect();
    let mut shed = 0;
    let mut served = 0;
    for flood in floods {
        let response = flood.join().expect("flood client panicked");
        let doc = Json::parse(&response).unwrap();
        if doc.get("code").and_then(Json::as_usize) == Some(503) {
            shed += 1;
        } else {
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
            served += 1;
        }
    }
    assert!(shed >= 1, "queue bound 1 must shed under a 10-deep flood");
    assert!(served >= 1, "queued requests still drain");
    let stalled = staller.join().expect("staller panicked");
    assert!(stalled.contains("\"ok\":true"));

    handle.stop();
    let report = handle.join();
    assert_eq!(report.shed, shed);
}
