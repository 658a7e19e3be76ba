//! Child processes: timed runs of the release binaries with their peak
//! resident memory, and the long-lived service daemon.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fracdram_experiments::Json;

/// Interval between `/proc/<pid>/status` polls for the memory peak.
const RSS_POLL: Duration = Duration::from_millis(5);

/// How long a daemon may take to drain after `shutdown` before it is
/// killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// The finished run of one binary.
#[derive(Debug)]
pub struct Finished {
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Exit status.
    pub status: ExitStatus,
    /// Everything the binary wrote to stdout.
    pub stdout: Vec<u8>,
    /// Highest `VmHWM` seen while polling, in kB (0 when not polled).
    pub peak_rss_kb: u64,
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Runs `bin args…` to completion with stdout and stderr captured in
/// `stdout.txt` and `stderr.txt` under `dir` (stderr stays there for
/// inspection), timing it from spawn to exit. With `poll_rss` a
/// helper thread samples `VmHWM` until the process exits.
///
/// # Errors
///
/// Propagates spawn and capture-file I/O errors.
pub fn run(bin: &Path, args: &[String], dir: &Path, poll_rss: bool) -> io::Result<Finished> {
    let out_path = dir.join("stdout.txt");
    let err_path = dir.join("stderr.txt");
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("cannot run {}: {e}", bin.display())))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (status, wall, peak) = std::thread::scope(|scope| {
        let poller = poll_rss.then(|| {
            scope.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Relaxed) {
                    if let Some(kb) = vm_hwm_kb(pid) {
                        peak = peak.max(kb);
                    }
                    std::thread::sleep(RSS_POLL);
                }
                peak
            })
        });
        let status = child.wait();
        let wall = started.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak = poller.map_or(0, |p| p.join().expect("rss poller panicked"));
        (status, wall, peak)
    });
    let mut stdout = Vec::new();
    File::open(&out_path)?.read_to_end(&mut stdout)?;
    Ok(Finished {
        wall,
        status: status?,
        stdout,
        peak_rss_kb: peak,
    })
}

/// A running `fracdram-serve` daemon. Dropping it kills the process, so
/// no error path leaves one behind.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on a free port with its WAL in `wal_dir` and
    /// waits until it reports its listening address.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits before listening.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot run {}: {e}", bin.display())))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "daemon exited before listening: {seen}"
                )));
            }
            seen.push_str(&line);
            if let Some(rest) = line.split("listening on ").nth(1) {
                let token = rest.split_whitespace().next().unwrap_or_default();
                break token
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::other(format!("bad daemon address {token:?}: {e}")))?;
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one front-end request (`status`, `shutdown`) on a fresh
    /// connection and parses the one-line reply.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn ask(&self, op: &str) -> io::Result<Json> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        writeln!(stream, "{}", Json::obj().field("op", op))?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Json::parse(line.trim()).map_err(io::Error::other)
    }

    /// Asks the daemon to drain and waits for it to exit (killing it
    /// after a grace period), returning its exit status.
    ///
    /// # Errors
    ///
    /// A daemon that did not answer `shutdown` or had to be killed.
    pub fn shutdown(mut self) -> io::Result<ExitStatus> {
        let asked = self.ask("shutdown");
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("daemon did not drain; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        asked?;
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        Ok(status)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

/// The directory the release binaries live in: `$CARGO_TARGET_DIR/release`
/// when set, else the workspace's default `target/release`.
pub fn release_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("release")
}
