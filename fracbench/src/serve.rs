//! The `serve-open` workload: open-loop Poisson traffic against a
//! `fracdram-serve` daemon, the `--recover-dump` reply check, the
//! open-loop max-rate search, and the in-process serving replica.
//!
//! Each die is owned by one generator connection and each connection's
//! dies span both shards, so every die sees its requests in one fixed
//! order: replies are a pure function of the generated stream, which is
//! what lets the run check them against the journal and the replica.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fracdram_experiments::Json;
use fracdram_serve::{Request, ServeConfig, ShardState, StatusBoard, WalWriter};
use fracdram_stats::rng::{mix, Rng};

use crate::proc::{self, Daemon};
use crate::report::{Outcome, RunOpts};
use crate::spec::{self, serve::*, Metrics};
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer};

/// How long a step waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(2);

/// Pause between connecting and the first scheduled send, so the
/// daemon's accept loop has picked the connections up.
const SETTLE: Duration = Duration::from_millis(20);

/// The `index`-th request to `die`: the seven-op mix of `serve_bench`
/// (TRNG draw, Frac write, read-back, PUF, row copy, enroll, verify).
/// Storage stays on bank 1, clear of the TRNG's rows in bank 0, and a
/// die's `verify` always follows its `enroll`.
pub fn request_line(die: usize, index: usize) -> String {
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

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Send time, relative to the step start.
    pub at: Duration,
    /// Target die.
    pub die: usize,
    /// The wire line, newline included.
    pub line: String,
}

/// The request stream of one generator connection, seeded from the
/// run's seed: which of its dies each request goes to, and when.
#[derive(Debug)]
pub struct Traffic {
    dies: Vec<usize>,
    sent_to: BTreeMap<usize, usize>,
    rng: Rng,
}

impl Traffic {
    /// Connection `conn`'s stream: it owns the dies `d` with
    /// `(d / SHARDS) % JOBS == conn`, which cover every shard.
    pub fn new(conn: usize, seed: u64) -> Traffic {
        Traffic {
            dies: (0..DIES)
                .filter(|d| (d / SHARDS) % spec::JOBS == conn)
                .collect(),
            sent_to: BTreeMap::new(),
            rng: Rng::seed_from_u64(mix(seed, &[0x5e7e, conn as u64])),
        }
    }

    /// The next request: a uniformly chosen owned die and the next op of
    /// that die's mix.
    pub fn next_request(&mut self) -> (usize, String) {
        let die = self.dies[self.rng.gen_range(self.dies.len())];
        let index = self.sent_to.entry(die).or_insert(0);
        let line = request_line(die, *index);
        *index += 1;
        (die, line + "\n")
    }

    /// A Poisson schedule at `rate` req/s over `duration`.
    pub fn schedule(&mut self, rate: f64, duration: Duration) -> Vec<Planned> {
        let mut plan = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.gen_f64()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return plan;
            }
            let (die, line) = self.next_request();
            plan.push(Planned {
                at: Duration::from_secs_f64(t),
                die,
                line,
            });
        }
    }
}

/// Matches replies to requests on one connection. Requests to one die
/// are answered in order (a die lives on one shard, which executes its
/// queue in order), so replies match FIFO per die; replies to different
/// dies may interleave freely.
#[derive(Debug, Default)]
pub struct Matcher {
    pending: BTreeMap<usize, VecDeque<Instant>>,
    /// Requests sent.
    pub sent: u64,
    /// Replies matched to a request and answered `ok`.
    pub ok: u64,
    /// Latency of each `ok` reply from its request's due time, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each `ok` reply arrived.
    pub done_at: Vec<Instant>,
    /// `(die, seq, line)` of every matched reply.
    pub replies: Vec<(usize, u64, String)>,
    /// Replies that named no die (a shed or malformed-request answer),
    /// or a die with nothing outstanding.
    pub unmatched: u64,
}

impl Matcher {
    /// Notes a request to `die` that was due at `due`.
    pub fn sent(&mut self, die: usize, due: Instant) {
        self.sent += 1;
        self.pending.entry(die).or_default().push_back(due);
    }

    /// Matches one reply line received at `at`.
    pub fn reply(&mut self, line: &str, at: Instant) {
        let doc = Json::parse(line).unwrap_or(Json::Null);
        let die = doc.get("die").and_then(Json::as_usize);
        let Some(due) = die.and_then(|d| self.pending.get_mut(&d)?.pop_front()) else {
            self.unmatched += 1;
            return;
        };
        let seq = doc.get("seq").and_then(Json::as_u64).unwrap_or(u64::MAX);
        self.replies
            .push((die.unwrap_or_default(), seq, line.to_string()));
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            self.ok += 1;
            self.latencies_ms
                .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            self.done_at.push(at);
        }
    }

    /// Requests still waiting for a reply.
    pub fn outstanding(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }

    /// Requests that did not get an `ok` reply.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }
}

/// Waits until `stream` has bytes to read or `timeout` passes. A socket
/// read timeout is rounded up to the kernel tick (1–4 ms), far coarser
/// than the gaps between sends, so the wait uses `ppoll`, whose timeout
/// is exact.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the whole call and laid out as
    // Linux's `struct pollfd` and 64-bit `struct timespec` (`repr(C)`,
    // same field types); `nfds` is 1, the length of the one-entry
    // array; a null `sigmask` leaves the signal mask unchanged. The
    // kernel writes only `fd.revents`.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(rc > 0)
}

/// Reads whatever has arrived and hands each complete line to `each`.
fn read_lines(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    mut each: impl FnMut(&str),
) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    let n = stream.read(&mut buf)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    carry.extend_from_slice(&buf[..n]);
    while let Some(pos) = carry.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = carry.drain(..=pos).collect();
        each(String::from_utf8_lossy(&line).trim());
    }
    Ok(())
}

/// One connection's view of an open-loop step.
#[derive(Debug, Default)]
pub struct Sent {
    /// Reply matching.
    pub matcher: Matcher,
    /// How late each send left against its schedule, in ms.
    pub late_ms: Vec<f64>,
}

/// Sends `plan` on `stream` on schedule from `start`, regardless of
/// replies (open loop), then waits up to [`DRAIN`] for the rest.
fn drive_open(mut stream: TcpStream, plan: &[Planned], start: Instant) -> io::Result<Sent> {
    let mut out = Sent::default();
    let mut carry = Vec::new();
    let mut next = 0;
    let last = start + plan.last().map_or(Duration::ZERO, |p| p.at);
    loop {
        while let Some(p) = plan.get(next) {
            let due = start + p.at;
            if Instant::now() < due {
                break;
            }
            stream.write_all(p.line.as_bytes())?;
            out.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            out.matcher.sent(p.die, due);
            next += 1;
        }
        let until = match plan.get(next) {
            Some(p) => start + p.at,
            None if out.matcher.outstanding() == 0 => break,
            None => last + DRAIN,
        };
        let now = Instant::now();
        if now >= until {
            if next >= plan.len() {
                break; // drain timed out: the rest count as unanswered
            }
            continue;
        }
        if wait_readable(&stream, until - now)? {
            let at = Instant::now();
            read_lines(&mut stream, &mut carry, |line| out.matcher.reply(line, at))?;
        }
    }
    Ok(out)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Latency summary of one open-loop step.
#[derive(Debug, Default)]
pub struct Step {
    /// Step name (`low`, `mid`, `high`, or `probe` in the max-rate
    /// search).
    pub name: &'static str,
    /// Offered rate, req/s.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// `ok` replies that arrived in the step's last [`TAIL`].
    pub tail_ok: u64,
    /// Latency of every `ok` reply, ms.
    pub latencies_ms: Vec<f64>,
    /// Every send's lateness against its schedule, ms.
    pub late_ms: Vec<f64>,
}

impl Step {
    /// Median latency, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// 99th-percentile latency, ms.
    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.99)
    }

    /// Whether the daemon kept up: p99 within [`P99_LIMIT_MS`], every
    /// request answered `ok`, and no growing backlog — the last
    /// [`TAIL`] completed at least [`TAIL_SHARE`] of what was offered in
    /// that time.
    pub fn meets_limit(&self) -> bool {
        self.sent > 0
            && self.ok == self.sent
            && self.p99_ms() <= P99_LIMIT_MS
            && self.tail_ok as f64 >= TAIL_SHARE * self.rate * TAIL.as_secs_f64()
    }

    /// Pools a repeat of this step into it.
    fn absorb(&mut self, repeat: Step) {
        self.sent += repeat.sent;
        self.ok += repeat.ok;
        self.tail_ok += repeat.tail_ok;
        self.latencies_ms.extend(repeat.latencies_ms);
        self.late_ms.extend(repeat.late_ms);
    }
}

/// One open-loop step: the summary and each connection's matcher.
struct StepRun {
    step: Step,
    matchers: Vec<Matcher>,
}

/// One open-loop step, planned before it runs.
#[derive(Debug)]
pub struct PlannedStep {
    /// Step name (`warm`, `low`, `mid`, `high` or `probe`).
    pub name: &'static str,
    /// Offered rate, req/s, both connections together.
    pub rate: f64,
    /// How long the step sends.
    pub duration: Duration,
    /// Each connection's requests.
    pub plans: Vec<Vec<Planned>>,
}

impl PlannedStep {
    /// Plans `rate` req/s for `duration`, split evenly over the
    /// connections of `traffic`.
    fn new(traffic: &mut [Traffic], name: &'static str, rate: f64, duration: Duration) -> Self {
        PlannedStep {
            name,
            rate,
            duration,
            plans: traffic
                .iter_mut()
                .map(|t| t.schedule(rate / spec::JOBS as f64, duration))
                .collect(),
        }
    }
}

/// Sends `planned` to `addr` on fresh connections, one generator thread
/// per connection.
fn open_step(addr: SocketAddr, planned: &PlannedStep) -> io::Result<StepRun> {
    let PlannedStep {
        name,
        rate,
        duration,
        ref plans,
    } = *planned;
    let streams = plans
        .iter()
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    std::thread::sleep(SETTLE);
    let start = Instant::now();
    let sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(plans)
            .map(|(stream, plan)| scope.spawn(move || drive_open(stream, plan, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let tail = (start + duration.saturating_sub(TAIL))..=(start + duration);
    let mut step = Step {
        name,
        rate,
        ..Step::default()
    };
    let mut matchers = Vec::new();
    for s in sent {
        step.sent += s.matcher.sent;
        step.ok += s.matcher.ok;
        step.tail_ok += s
            .matcher
            .done_at
            .iter()
            .filter(|t| tail.contains(t))
            .count() as u64;
        step.latencies_ms.extend_from_slice(&s.matcher.latencies_ms);
        step.late_ms.extend_from_slice(&s.late_ms);
        matchers.push(s.matcher);
    }
    Ok(StepRun { step, matchers })
}

/// Name of the rate ladder's unreported first step.
const WARM: &str = "warm";

/// The rate ladder's steps for `seed`: a short unreported warm-up at
/// the first step's rate, which builds every die before the first
/// measured request, then the steps of [`LADDER`], each `step` long.
pub fn plan_ladder(seed: u64, step: Duration) -> Vec<PlannedStep> {
    let mut traffic: Vec<Traffic> = (0..spec::JOBS).map(|c| Traffic::new(c, seed)).collect();
    let warm = (WARM, LADDER[0].1, Duration::from_secs_f64(WARM_SECONDS));
    std::iter::once(warm)
        .chain(LADDER.iter().map(|&(name, rate)| (name, rate, step)))
        .map(|(name, rate, duration)| PlannedStep::new(&mut traffic, name, rate, duration))
        .collect()
}

/// Every request of `steps` run back to back, as `(time from the first
/// step's start, die, line)`.
pub fn requests(steps: &[PlannedStep]) -> Vec<(Duration, usize, String)> {
    let mut out = Vec::new();
    let mut offset = Duration::ZERO;
    for step in steps {
        for plan in &step.plans {
            out.extend(plan.iter().map(|p| (offset + p.at, p.die, p.line.clone())));
        }
        offset += step.duration;
    }
    out
}

/// Everything the rate ladder produced.
#[derive(Debug)]
pub struct Ladder {
    /// One summary per step name, its repeats pooled, in order of first
    /// appearance.
    pub steps: Vec<Step>,
    /// `(die, seq, line)` of every reply received.
    pub replies: Vec<(usize, u64, String)>,
    /// Requests sent.
    pub sent: u64,
    /// Requests without an `ok` reply (including die-less replies).
    pub failed: u64,
    /// The daemon's memory peak after the ladder, kB.
    pub peak_rss_kb: u64,
    /// The daemon's `status` reply after the ladder.
    pub status: Json,
}

fn daemon_args(wal: &Path) -> Vec<String> {
    [
        "--port",
        "0",
        "--dies",
        &DIES.to_string(),
        "--shards",
        &SHARDS.to_string(),
        "--queue-depth",
        &QUEUE_DEPTH.to_string(),
        "--wal-dir",
        &wal.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn fresh_dir(path: &Path) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    Ok(path.to_path_buf())
}

/// Runs the open-loop `steps` of [`plan_ladder`] on one daemon
/// journaling to `wal`, calling `between` after each reported step.
///
/// # Errors
///
/// Daemon start-up, connection and status failures, and those of
/// `between`.
pub fn ladder(
    bin: &Path,
    wal: &Path,
    steps: &[PlannedStep],
    mut between: impl FnMut() -> io::Result<()>,
) -> io::Result<Ladder> {
    let daemon = Daemon::spawn(bin, &daemon_args(&fresh_dir(wal)?))?;
    let mut out = Ladder {
        steps: Vec::new(),
        replies: Vec::new(),
        sent: 0,
        failed: 0,
        peak_rss_kb: 0,
        status: Json::Null,
    };
    for planned in steps {
        let run = open_step(daemon.addr(), planned)?;
        for matcher in run.matchers {
            out.failed += matcher.failed();
            out.replies.extend(matcher.replies);
        }
        out.sent += run.step.sent;
        if planned.name != WARM {
            match out.steps.iter_mut().find(|s| s.name == planned.name) {
                Some(step) => step.absorb(run.step),
                None => out.steps.push(run.step),
            }
            between()?;
        }
    }
    out.peak_rss_kb = proc::vm_hwm_kb(daemon.pid()).unwrap_or(0);
    out.status = daemon.ask("status")?;
    let status = daemon.shutdown()?;
    if !status.success() {
        out.failed += 1;
    }
    Ok(out)
}

/// The highest offered rate a fresh daemon sustains by
/// [`Step::meets_limit`], found by geometric bisection between
/// [`SEARCH`]'s bounds with [`PROBE_SECONDS`] probes, to
/// [`RESOLUTION`]. Returns the rate, every probe, and whether the daemon
/// exited cleanly. Probes above capacity shed by design, so their
/// failed requests are the search's signal, not errors of the run.
///
/// # Errors
///
/// Daemon start-up and connection failures.
pub fn max_rps(bin: &Path, wal: &Path, seed: u64) -> io::Result<(f64, Vec<Step>, bool)> {
    let daemon = Daemon::spawn(bin, &daemon_args(&fresh_dir(wal)?))?;
    let mut traffic: Vec<Traffic> = (0..spec::JOBS)
        .map(|c| Traffic::new(c, mix(seed, &[0x3a7])))
        .collect();
    let warm = Duration::from_secs_f64(WARM_SECONDS);
    open_step(
        daemon.addr(),
        &PlannedStep::new(&mut traffic, WARM, SEARCH.0, warm),
    )?;
    let (mut lo, mut hi) = SEARCH;
    let mut probes = Vec::new();
    while hi / lo > 1.0 + RESOLUTION {
        let rate = (lo * hi).sqrt();
        let probe = Duration::from_secs_f64(PROBE_SECONDS);
        let run = open_step(
            daemon.addr(),
            &PlannedStep::new(&mut traffic, "probe", rate, probe),
        )?;
        if run.step.meets_limit() {
            lo = rate;
        } else {
            hi = rate;
        }
        probes.push(run.step);
    }
    let status = daemon.shutdown()?;
    Ok((lo, probes, status.success()))
}

/// Checks every reply the clients received against the line the
/// journal replays to for its `(die, seq)`, returning the number of
/// mismatches (a reply absent from the journal counts as one).
pub fn check_replies(replies: &[(usize, u64, String)], dump: &str) -> u64 {
    let journal: BTreeMap<(usize, u64), &str> = dump
        .lines()
        .filter_map(|line| {
            let doc = Json::parse(line).ok()?;
            Some((
                (doc.get("die")?.as_usize()?, doc.get("seq")?.as_u64()?),
                line,
            ))
        })
        .collect();
    replies
        .iter()
        .filter(|(die, seq, line)| journal.get(&(*die, *seq)) != Some(&line.as_str()))
        .count() as u64
}

/// Timed `fracdram-serve --recover-dump` runs over journals of one
/// request stream, each of which must exit cleanly and print the same
/// bytes as the first.
struct Replays<'a> {
    bin: &'a Path,
    work: &'a Path,
    walls: Vec<f64>,
    first: Option<Vec<u8>>,
    ok: bool,
}

impl<'a> Replays<'a> {
    fn new(bin: &'a Path, work: &'a Path) -> Self {
        Replays {
            bin,
            work,
            walls: Vec::new(),
            first: None,
            ok: true,
        }
    }

    /// Dumps the journal in `wal` once.
    fn dump(&mut self, wal: &Path) -> io::Result<()> {
        let args: Vec<String> = [
            "--dies",
            &DIES.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--recover-dump",
            &wal.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let run = proc::run(self.bin, &args, self.work, false)?;
        self.walls.push(run.wall.as_secs_f64());
        self.ok &= run.status.success()
            && *self.first.get_or_insert_with(|| run.stdout.clone()) == run.stdout;
        Ok(())
    }

    /// Dumps the journal in `wal` at least once, and again until `slice`
    /// has passed.
    fn dump_for(&mut self, wal: &Path, slice: Duration) -> io::Result<()> {
        let until = Instant::now() + slice;
        self.dump(wal)?;
        while Instant::now() < until {
            self.dump(wal)?;
        }
        Ok(())
    }

    /// The journal check: every received reply compared to its dump
    /// line.
    fn finish(self, replies: &[(usize, u64, String)]) -> Dump {
        let dump = String::from_utf8_lossy(self.first.as_deref().unwrap_or_default()).into_owned();
        Dump {
            wall: median(&self.walls),
            runs: self.walls.len(),
            entries: dump.lines().count() as u64,
            mismatches: check_replies(replies, &dump),
            ok: self.ok,
        }
    }
}

/// What the journal replays showed.
struct Dump {
    /// Median wall time of the dumps, s.
    wall: f64,
    runs: usize,
    entries: u64,
    mismatches: u64,
    /// Every dump exited cleanly with the same bytes.
    ok: bool,
}

/// Times [`SETUP_SPAWNS`] daemon start-ups, each from spawn to the first
/// `status` reply, into `setup`.
fn setup_spawns(
    bin: &Path,
    work: &Path,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) -> io::Result<()> {
    let wal = work.join("wal-setup");
    for _ in 0..SETUP_SPAWNS {
        fresh_dir(&wal)?;
        let started = Instant::now();
        let daemon = Daemon::spawn(bin, &daemon_args(&wal))?;
        let status = daemon.ask("status")?;
        setup.push(started.elapsed().as_secs_f64());
        out.attempted += 1;
        let exit = daemon.shutdown()?;
        if status.get("ok").and_then(Json::as_bool) != Some(true) || !exit.success() {
            out.fail("set-up daemon: bad status or exit".to_string());
        }
    }
    Ok(())
}

fn step_duration(opts: &RunOpts) -> Duration {
    Duration::from_secs_f64(opts.seconds * STEP_SHARE)
}

/// The untraced `serve-open` run: set-up probes, the rate ladder, and
/// the journal check. The median replay rate of the journal is the
/// workload's throughput: recovery re-executes every journaled request
/// through the shards' execute path, single-threaded, so its rate
/// tracks per-request work without the 2-vCPU scheduling noise of the
/// max-rate search. The host's speed drifts over tens of seconds, so
/// both metrics sample the whole run: the `low` step recurs through the
/// ladder, and the replays run between its steps. They replay the
/// journal the ladder will leave, written in-process beforehand (the
/// replica's); the daemon's own journal, replayed once at the end, must
/// dump to the same bytes.
///
/// # Errors
///
/// Daemon or file I/O failures.
pub fn run(opts: &RunOpts) -> io::Result<Outcome> {
    let bin = opts.bin_dir.join("fracdram-serve");
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    setup_spawns(&bin, &opts.work, &mut setup, &mut out)?;
    let steps = plan_ladder(opts.seed, step_duration(opts));
    let reference = opts.work.join("wal-reference");
    replica(&requests(&steps), REFERENCE_DRAIN, &reference)?;
    let mut replays = Replays::new(&bin, &opts.work);
    let slice = Duration::from_secs_f64(opts.seconds * REPLAY_SHARE);
    let wal = opts.work.join("wal");
    let ladder = ladder(&bin, &wal, &steps, || replays.dump_for(&reference, slice))?;
    setup_spawns(&bin, &opts.work, &mut setup, &mut out)?;
    replays.dump(&wal)?;
    setup_spawns(&bin, &opts.work, &mut setup, &mut out)?;
    let dump = replays.finish(&ladder.replies);
    out.count_requests(ladder.sent, ladder.failed);
    out.check_journal(&dump, ladder.replies.len());

    for s in &ladder.steps {
        out.note(format!(
            "{:<5} {:>6.0} req/s offered: {} sent, {} ok, p50 {:.3} ms, p99 {:.3} ms, gen late p99 {:.3} ms",
            s.name,
            s.rate,
            s.sent,
            s.ok,
            s.p50_ms(),
            s.p99_ms(),
            quantile(&s.late_ms, 0.99)
        ));
    }
    let replay_rate = dump.entries as f64 / dump.wall;
    out.note(format!(
        "journal {} entries, recover-dump {:.3} s median of {} ({replay_rate:.0} entries/s)",
        dump.entries, dump.wall, dump.runs
    ));
    let latency = ladder
        .steps
        .iter()
        .find(|s| s.name == LATENCY_STEP)
        .map_or(f64::NAN, Step::p50_ms);
    out.metrics.set("setup_s", median(&setup));
    out.metrics.set("throughput", replay_rate);
    out.metrics.set("latency_ms", latency);
    out.metrics
        .set("peak_rss_mb", ladder.peak_rss_kb as f64 / 1024.0);
    out.provenance = Json::obj()
        .field("wal_fs", crate::report::fs_type(&wal))
        .field("gen_late_p99_ms", lateness_p99(&ladder));
    Ok(out)
}

fn lateness_p99(ladder: &Ladder) -> f64 {
    let late: Vec<f64> = ladder
        .steps
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    quantile(&late, 0.99)
}

impl Outcome {
    fn count_requests(&mut self, sent: u64, failed: u64) {
        self.attempted += sent;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {sent} request(s) without an ok reply"));
        }
    }

    fn check_journal(&mut self, dump: &Dump, replies: usize) {
        self.attempted += 1;
        if !dump.ok {
            self.fail(
                "recover-dump exited non-zero or its output differed between runs".to_string(),
            );
        }
        if dump.mismatches > 0 {
            self.failed += dump.mismatches;
            self.note(format!(
                "{} reply(ies) differ from the recovered journal",
                dump.mismatches
            ));
        }
        if dump.entries != replies as u64 {
            self.fail(format!(
                "journal replays {} entries but {replies} replies were received",
                dump.entries
            ));
        }
    }
}

/// The traced `serve-open` run: the rate ladder and journal check as
/// above, the max-rate search on a fresh daemon, then the
/// replica — the same generated stream pushed through
/// `Request::parse`, drains of the live run's mean size through
/// `ShardState::execute_batch`, and `WalWriter::log` + `commit` — whose
/// replies must equal the live ones for every `(die, seq)`.
///
/// # Errors
///
/// Daemon or file I/O failures.
pub fn trace_run(opts: &RunOpts) -> io::Result<Outcome> {
    let bin = opts.bin_dir.join("fracdram-serve");
    let mut out = Outcome {
        metrics: Metrics::per_layer(),
        ..Outcome::default()
    };
    let wal = opts.work.join("wal");
    let steps = plan_ladder(opts.seed, step_duration(opts));
    let ladder = ladder(&bin, &wal, &steps, || Ok(()))?;
    let mut replays = Replays::new(&bin, &opts.work);
    for _ in 0..RECOVER_RUNS {
        replays.dump(&wal)?;
    }
    let dump = replays.finish(&ladder.replies);
    out.count_requests(ladder.sent, ladder.failed);
    out.check_journal(&dump, ladder.replies.len());
    let (max_rps, probes, clean_exit) = max_rps(&bin, &opts.work.join("wal-search"), opts.seed)?;
    out.attempted += 1;
    if !clean_exit {
        out.fail("max-rate search daemon exited non-zero".to_string());
    }
    for p in &probes {
        out.note(format!(
            "probe {:>7.0} req/s: {} sent, {} ok, p99 {:.3} ms, last-second completions {} -> {}",
            p.rate,
            p.sent,
            p.ok,
            p.p99_ms(),
            p.tail_ok,
            if p.meets_limit() { "meets" } else { "misses" }
        ));
    }

    let hist: Vec<u64> = match ladder.status.get("batch_hist") {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
        _ => Vec::new(),
    };
    let drains: u64 = hist.iter().sum();
    let drained: u64 = hist.iter().enumerate().map(|(n, c)| n as u64 * c).sum();
    let drain_mean = drained as f64 / drains.max(1) as f64;
    let coalesced = hist.iter().skip(2).sum::<u64>() as f64 / drains.max(1) as f64;
    let status_u64 = |key: &str| ladder.status.get(key).and_then(Json::as_u64).unwrap_or(0);

    let replica = replica(
        &requests(&steps),
        drain_mean.round().max(1.0) as usize,
        &opts.work.join("replica-wal"),
    )?;
    let live: BTreeMap<(usize, u64), &str> = ladder
        .replies
        .iter()
        .map(|(d, s, l)| ((*d, *s), l.as_str()))
        .collect();
    let diverged = replica
        .replies
        .iter()
        .filter(|(d, s, l)| live.get(&(*d, *s)).is_some_and(|live| live != l))
        .count() as u64;
    let missing = live.len().saturating_sub(replica.replies.len()) as u64;
    out.attempted += 1;
    if diverged + missing > 0 {
        out.fail(format!(
            "replica: {diverged} reply(ies) differ from the live run, {missing} missing"
        ));
    }

    let spans = &replica.spans;
    let n = replica.replies.len().max(1) as f64;
    let parse_us = trace::total(spans, "serve.parse") / n * 1e6;
    let execute_us = trace::total(spans, "serve.execute") / n * 1e6;
    let commit_us =
        trace::total(spans, "serve.wal") / trace::count(spans, "serve.wal").max(1) as f64 * 1e6;
    let low_us = ladder.steps[0].p50_ms() * 1e3;
    let residual_us = low_us - parse_us - execute_us - commit_us;
    let replica_work = trace::total(spans, "serve.parse") + trace::total(spans, "serve.execute");
    let m = &mut out.metrics;
    m.set("serve.parse_us", parse_us);
    m.set("serve.execute_us", execute_us);
    m.set("serve.wal_commit_us", commit_us);
    m.set(
        "serve.wal_bytes_per_req",
        status_u64("wal_bytes") as f64 / status_u64("wal_entries").max(1) as f64,
    );
    m.set("serve.drain_mean", drain_mean);
    m.set("serve.coalesced_frac", coalesced);
    m.set("serve.residual_us", residual_us);
    m.set("serve.gen_late_p99_ms", lateness_p99(&ladder));
    m.set("serve.journal_entries", dump.entries as f64);
    m.set("serve.recover_s", dump.wall);
    m.set("serve.max_rps", max_rps);
    for s in &ladder.steps {
        m.set(&format!("serve.p50_ms.{}", s.name), s.p50_ms());
        m.set(&format!("serve.p99_ms.{}", s.name), s.p99_ms());
    }
    m.set("trace.wall_s", replica.wall);
    m.set("trace.residual_frac", residual_us / low_us);
    m.set("trace.overhead_frac", replica_work / dump.wall - 1.0);

    let breakdown = Json::obj()
        .field("p50_low_us", low_us)
        .field(
            "layers",
            Json::obj()
                .field("serve.parse", parse_us)
                .field("serve.execute", execute_us)
                .field("serve.wal_commit", commit_us),
        )
        .field("residual_us", residual_us);
    trace::write_trace(&opts.work.join("trace-serve-open.jsonl"), spans, &breakdown)?;
    out.provenance = Json::obj()
        .field("wal_fs", crate::report::fs_type(&wal))
        .field("gen_late_p99_ms", lateness_p99(&ladder));
    Ok(out)
}

/// What the serving replica produced.
#[derive(Debug)]
pub struct ServeReplica {
    /// Spans: `replica`, then `serve.parse`, `serve.execute` and
    /// `serve.wal` per drain.
    pub spans: Vec<trace::Span>,
    /// Replica wall time, s.
    pub wall: f64,
    /// `(die, seq, line)` of every reply.
    pub replies: Vec<(usize, u64, String)>,
}

/// Pushes `requests` (in send order) through the daemon's layers
/// in-process: each shard's share, in drains of `drain` requests,
/// through `Request::parse`, `ShardState::execute_batch`, and a
/// `WalWriter` in `wal`.
///
/// # Errors
///
/// WAL I/O failures.
pub fn replica(
    requests: &[(Duration, usize, String)],
    drain: usize,
    wal: &Path,
) -> io::Result<ServeReplica> {
    let wal = fresh_dir(wal)?;
    std::fs::create_dir_all(&wal)?;
    let cfg = ServeConfig {
        dies: DIES,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let mut ordered: Vec<&(Duration, usize, String)> = requests.iter().collect();
    ordered.sort_by_key(|(at, _, _)| *at);
    let tracer = Tracer::new();
    let mut replies = Vec::new();
    {
        let root = tracer.span("replica", None);
        for shard in 0..SHARDS {
            let mut state = ShardState::new(
                cfg.clone(),
                Arc::new(StatusBoard::for_shards(SHARDS)),
                false,
            );
            let mut writer = WalWriter::create(&wal, shard, &cfg, &[])?;
            let lines: Vec<&str> = ordered
                .iter()
                .filter(|(_, die, _)| cfg.shard_of(*die) == shard)
                .map(|(_, _, line)| line.trim())
                .collect();
            for batch in lines.chunks(drain) {
                let parsed: Vec<Request> = tracer.time("serve.parse", root.id(), || {
                    batch
                        .iter()
                        .map(|line| Request::parse(line).expect("generated request parses"))
                        .collect()
                });
                let done = tracer.time("serve.execute", root.id(), || state.execute_batch(&parsed));
                tracer.time("serve.wal", root.id(), || {
                    for (request, reply) in parsed.iter().zip(&done) {
                        writer.log(reply.die, reply.seq, &request.canonical());
                    }
                    writer.commit()
                })?;
                replies.extend(done.into_iter().map(|r| (r.die, r.seq, r.line)));
            }
        }
    }
    let spans = tracer.spans();
    Ok(ServeReplica {
        wall: trace::total(&spans, "replica"),
        spans,
        replies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_own_disjoint_dies_on_every_shard() {
        let a = Traffic::new(0, 1).dies;
        let b = Traffic::new(1, 1).dies;
        assert_eq!(a.len() + b.len(), DIES);
        assert!(a.iter().all(|d| !b.contains(d)));
        for dies in [&a, &b] {
            for shard in 0..SHARDS {
                assert!(dies.iter().any(|d| d % SHARDS == shard));
            }
        }
    }

    #[test]
    fn schedules_repeat_per_seed_and_track_the_rate() {
        let plan = |seed| Traffic::new(0, seed).schedule(1000.0, Duration::from_secs(2));
        let a = plan(7);
        let b = plan(7);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.line == y.line));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert_ne!(plan(8).len(), 0);
    }
}
