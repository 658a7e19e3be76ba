//! Kill→recover durability, end to end against the real daemon binary:
//! a mixed workload is driven over loopback TCP, the process is
//! hard-killed (SIGKILL — no drain, no WAL seal) mid-workload, a fresh
//! process is restarted on the same `--wal-dir`, and the remainder of
//! the workload plus a full read-back sweep must match an uninterrupted
//! control run byte-for-byte. Acknowledge-after-log is the invariant
//! under test: every response the client saw before the kill must be
//! reconstructed from the journal alone. A graceful restart must also
//! record the whole journaled history, so its logs replay exactly.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_fracdram-serve");
const DIES: usize = 3;
const WORKLOAD: usize = 60;

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns the real daemon binary and parses the listen address off
    /// its stderr banner. Remaining stderr drains in a background
    /// thread so a chatty shutdown can never fill the pipe.
    fn spawn(wal_dir: Option<&std::path::Path>) -> Daemon {
        Daemon::spawn_with(wal_dir, &[])
    }

    /// [`Daemon::spawn`] with extra command-line arguments.
    fn spawn_with(wal_dir: Option<&std::path::Path>, extra: &[&std::ffi::OsStr]) -> Daemon {
        let mut cmd = Command::new(SERVE_BIN);
        cmd.args([
            "--port", "0", "--dies", "3", "--shards", "2", "--cols", "64",
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        let mut child = cmd.spawn().expect("spawn fracdram-serve");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(stderr);
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).expect("read daemon stderr") > 0 {
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            line.clear();
        }
        let addr = addr.expect("daemon never printed its listen address");
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Daemon { child, addr }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// Hard stop: SIGKILL, no drain, no WAL seal.
    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Graceful stop via the shutdown op.
    fn shutdown(mut self) {
        let mut client = self.connect();
        let response = client.send(r#"{"op":"shutdown"}"#);
        assert!(
            response.contains("\"ok\":true"),
            "shutdown failed: {response}"
        );
        self.child.wait().expect("reap daemon");
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        assert!(!response.is_empty(), "server closed mid-request");
        response.trim_end().to_string()
    }
}

/// The mixed workload: writes, reads, copies, enrollment, verification
/// and TRNG draws interleaved across all three dies, so the journal
/// carries every state-mutating op class plus clock-advancing reads.
fn request_line(index: usize) -> String {
    let die = index % DIES;
    match (index / DIES) % 6 {
        0 => format!(
            r#"{{"op":"write","die":{die},"bank":1,"row":{},"fill":{},"frac":{}}}"#,
            3 + index % 16,
            index.is_multiple_of(2),
            index % 3
        ),
        1 => format!(
            r#"{{"op":"read","die":{die},"bank":1,"row":{}}}"#,
            3 + index % 16
        ),
        2 => format!(r#"{{"op":"enroll","die":{die},"bank":1,"row":44,"reps":2}}"#),
        3 => format!(r#"{{"op":"verify","die":{die},"bank":1,"row":44}}"#),
        4 => format!(
            r#"{{"op":"copy","die":{die},"bank":1,"src":{},"dst":{}}}"#,
            3 + index % 16,
            20 + index % 4
        ),
        _ => format!(r#"{{"op":"trng","die":{die},"bits":64}}"#),
    }
}

/// Reads back every row the workload touched plus the enrollment, on
/// every die. Byte-equality of two sweeps implies the die states (and
/// per-die clocks, via the `seq` field) are identical.
fn sweep(client: &mut Client) -> String {
    let mut out = String::new();
    for die in 0..DIES {
        for row in (3usize..19).chain(20..24) {
            let line = format!(r#"{{"op":"read","die":{die},"bank":1,"row":{row}}}"#);
            out.push_str(&client.send(&line));
            out.push('\n');
        }
        let line = format!(r#"{{"op":"verify","die":{die},"bank":1,"row":44}}"#);
        out.push_str(&client.send(&line));
        out.push('\n');
    }
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fracdram-kill-recover-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkilled_daemon_recovers_every_acked_request() {
    let wal_dir = temp_dir("wal");
    let kill_at = 23;

    // Phase 1: drive the first part of the workload, then SIGKILL the
    // process. Every request below was acknowledged, so by the
    // acknowledge-after-log contract every one is fsynced in the WAL.
    let daemon = Daemon::spawn(Some(&wal_dir));
    let mut acked = Vec::new();
    {
        let mut client = daemon.connect();
        for index in 0..kill_at {
            let response = client.send(&request_line(index));
            assert!(response.contains("\"ok\":true"), "failed: {response}");
            acked.push(response);
        }
    }
    daemon.kill();

    // The journal is unsealed; an offline recovery dump must be stable
    // across invocations and carry exactly the acked responses.
    let dump_a = recover_dump(&wal_dir);
    let dump_b = recover_dump(&wal_dir);
    assert_eq!(dump_a, dump_b, "recovery dump must be deterministic");
    let dumped: BTreeSet<&str> = dump_a.lines().collect();
    let acked_set: BTreeSet<&str> = acked.iter().map(String::as_str).collect();
    assert_eq!(
        dumped, acked_set,
        "recovered responses must be exactly the acknowledged ones"
    );

    // Phase 2: restart on the same WAL dir and finish the workload.
    let daemon = Daemon::spawn(Some(&wal_dir));
    let interrupted_sweep;
    {
        let mut client = daemon.connect();
        let status = client.send(r#"{"op":"status"}"#);
        assert!(
            status.contains(&format!("\"recovered\":{kill_at}")),
            "status must report {kill_at} recovered entries: {status}"
        );
        for index in kill_at..WORKLOAD {
            let response = client.send(&request_line(index));
            assert!(response.contains("\"ok\":true"), "failed: {response}");
        }
        interrupted_sweep = sweep(&mut client);
    }
    daemon.shutdown();

    // Control: the same workload, uninterrupted, in one process.
    let daemon = Daemon::spawn(None);
    let control_sweep;
    {
        let mut client = daemon.connect();
        for index in 0..WORKLOAD {
            let response = client.send(&request_line(index));
            assert!(response.contains("\"ok\":true"), "failed: {response}");
        }
        control_sweep = sweep(&mut client);
    }
    daemon.shutdown();

    assert_eq!(
        interrupted_sweep, control_sweep,
        "kill→recover run must end in the same state as the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Runs `fracdram-serve --recover-dump` offline and returns the
/// recovered response log.
fn recover_dump(wal_dir: &std::path::Path) -> String {
    offline("--recover-dump", wal_dir)
}

/// Runs `fracdram-serve --replay` offline on a request log and returns
/// the replayed response log.
fn replay(requests: &std::path::Path) -> String {
    offline("--replay", requests)
}

fn offline(mode: &str, path: &std::path::Path) -> String {
    let output = Command::new(SERVE_BIN)
        .args(["--dies", "3", "--shards", "2", "--cols", "64"])
        .arg(mode)
        .arg(path)
        .output()
        .unwrap_or_else(|e| panic!("run {mode}: {e}"));
    assert!(
        output.status.success(),
        "{mode} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn restarted_daemon_records_the_whole_journal() {
    // Two graceful incarnations on one WAL, each recording its logs on
    // shutdown. The second one's dies carry the first one's history, so
    // its logs are only replayable if they cover the whole journal.
    let wal_dir = temp_dir("restart");
    let logs = temp_dir("restart-logs");
    std::fs::create_dir_all(&logs).expect("create log dir");
    let mut received = Vec::new();
    let mut recorded = Vec::new();
    for incarnation in 0..2 {
        let requests = logs.join(format!("requests-{incarnation}.log"));
        let responses = logs.join(format!("responses-{incarnation}.log"));
        let daemon = Daemon::spawn_with(
            Some(&wal_dir),
            &[
                "--record-requests".as_ref(),
                requests.as_os_str(),
                "--record-responses".as_ref(),
                responses.as_os_str(),
            ],
        );
        {
            let mut client = daemon.connect();
            let half = WORKLOAD / 2;
            for index in incarnation * half..(incarnation + 1) * half {
                let response = client.send(&request_line(index));
                assert!(response.contains("\"ok\":true"), "failed: {response}");
                received.push(response);
            }
        }
        daemon.shutdown();
        let responses = std::fs::read_to_string(&responses).expect("read recorded responses");
        assert_eq!(
            replay(&requests),
            responses,
            "incarnation {incarnation}'s recorded request log must replay to its response log"
        );
        recorded.push(responses);
    }

    let whole = &recorded[1];
    assert_eq!(
        whole,
        &recover_dump(&wal_dir),
        "the record flags read the WAL"
    );
    assert_eq!(whole.lines().count(), WORKLOAD);
    let whole_set: BTreeSet<&str> = whole.lines().collect();
    for response in &received {
        assert!(
            whole_set.contains(response.as_str()),
            "a response from either incarnation is missing: {response}"
        );
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&logs);
}

#[test]
fn graceful_shutdown_seals_the_wal() {
    let wal_dir = temp_dir("sealed");
    let daemon = Daemon::spawn(Some(&wal_dir));
    {
        let mut client = daemon.connect();
        for index in 0..12 {
            let response = client.send(&request_line(index));
            assert!(response.contains("\"ok\":true"), "failed: {response}");
        }
    }
    daemon.shutdown();

    // Every shard journal must now carry a seal line.
    for shard in 0..2 {
        let path = wal_dir.join(format!("wal-shard-{shard}.log"));
        let text = std::fs::read_to_string(&path).expect("read sealed journal");
        let last = text.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("S "),
            "{} must end with a seal line, got {last:?}",
            path.display()
        );
    }
    // And a restart reports a clean (sealed) recovery of all 12 entries.
    let daemon = Daemon::spawn(Some(&wal_dir));
    {
        let mut client = daemon.connect();
        let status = client.send(r#"{"op":"status"}"#);
        assert!(
            status.contains("\"recovered\":12"),
            "sealed journal must recover all 12 entries: {status}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
