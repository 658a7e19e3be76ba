//! The TCP front-end: accept loop, connection threads, shard workers,
//! durability, and the offline replay path.
//!
//! Threading model:
//!
//! * one **accept thread** polls a non-blocking listener and spawns a
//!   thread per connection;
//! * each **connection thread** reads line-delimited requests (with a
//!   short read timeout so a silent client can neither pin the thread
//!   past [`ServeConfig::io_timeout_ms`](crate::ServeConfig::io_timeout_ms)
//!   nor block graceful shutdown), answers `status`/`shutdown`/malformed
//!   lines immediately, and forwards die-routed work to the owning
//!   shard through a *bounded* `sync_channel` — a full queue is
//!   answered with a `503` shed response instead of blocking the
//!   client;
//! * each **shard thread** drains its queue in arrival order (up to
//!   [`ServeConfig::batch`](crate::ServeConfig::batch) requests at a
//!   time), sheds requests that aged past their deadline, executes the
//!   rest one by one against its [`ShardState`],
//!   **journals every executed request to its write-ahead log and
//!   fsyncs once per drain**, and only then replies through the
//!   per-request back-channel — acknowledge-after-log, so a crash at
//!   any instant loses no acknowledged response.
//!
//! Shutdown: the `shutdown` op (or [`ServerHandle::stop`]) flips a
//! flag; the accept thread exits and drops the shard senders, each
//! shard drains what is already queued, **seals its WAL**, and exits,
//! and [`ServerHandle::join`] waits for all of it. The WAL is the only
//! journal: the canonical request/response logs of a run are what
//! [`recover`] reads back from it, sorted by `(die, seq)` so they are
//! byte-comparable with a replay.
//!
//! Recovery: [`start_on`] with a [`ServeConfig::wal_dir`] holding logs
//! from a previous incarnation replays them through [`recover`] — one
//! thread per shard, each through the same `ShardState::execute` path
//! as [`run_replay`]'s single thread — before accepting a
//! single connection, then compacts the logs (rewritten without the
//! seal via write-tmp → fsync → rename → fsync-dir, so a crash during
//! startup never truncates a durable log) and serves from the
//! reconstructed states. The replay contract
//! makes this exact: a die's state is a function of its request
//! sequence, and the WAL *is* that sequence.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fracdram_experiments::Json;

use crate::chaos::{ChaosPlan, ChaosSpec};
use crate::pool::{Reply, ServeConfig, ShardState, StatusBoard};
use crate::protocol::Request;
use crate::wal::{self, WalEntry, WalWriter};

struct Envelope {
    request: Request,
    /// The request's canonical line, rendered on the connection thread
    /// only when a WAL will journal it (`None` without `--wal-dir`).
    canonical: Option<String>,
    /// When the connection thread queued the request; the shard sheds
    /// it unexecuted if it is older than the deadline at drain time.
    enqueued: Instant,
    /// The connection's shared write half. The shard writes the
    /// response straight to the socket instead of bouncing it back
    /// through the connection thread — on a loaded (or single-core)
    /// host that removes a thread wake-up from every request's critical
    /// path. The mutex keeps each written line atomic against the
    /// connection thread's own front-end responses.
    reply_to: Arc<Mutex<TcpStream>>,
}

/// Everything [`ServerHandle::join`] returns after the daemon drains.
#[derive(Debug)]
pub struct ServerReport {
    /// Requests executed.
    pub processed: u64,
    /// Requests shed with `503`.
    pub shed: u64,
}

/// A running server. Dropping the handle does **not** stop the daemon;
/// call [`ServerHandle::stop`] (or send a `shutdown` request) and then
/// [`ServerHandle::join`] — or [`ServerHandle::crash`] to die the hard
/// way in durability tests.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
    board: Arc<StatusBoard>,
    accept_thread: JoinHandle<()>,
    shard_threads: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Connections>>,
}

/// Connection threads not yet joined, and whether one that was already
/// joined had panicked. The accept loop reaps finished threads on every
/// accept, so the list holds the live connections, not every connection
/// the daemon has ever accepted.
#[derive(Default)]
struct Connections {
    live: Vec<JoinHandle<()>>,
    panicked: bool,
}

impl Connections {
    /// Joins the threads that have already finished.
    fn reap(&mut self) {
        for handle in self.live.extract_if(.., |h| h.is_finished()) {
            self.panicked |= handle.join().is_err();
        }
    }

    /// Joins every remaining thread and reports whether any connection
    /// thread, reaped earlier or now, panicked.
    fn join_all(&mut self) -> bool {
        for handle in self.live.drain(..) {
            self.panicked |= handle.join().is_err();
        }
        self.panicked
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters this server publishes.
    pub fn board(&self) -> &StatusBoard {
        &self.board
    }

    /// Asks the server to stop accepting and drain, without waiting.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by [`ServerHandle::stop`]
    /// or a client's `shutdown` op).
    pub fn is_stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Simulated hard kill for durability tests: threads exit without
    /// draining gracefully — the WAL is **not** sealed, and replies
    /// that were journaled but not yet written to their sockets are
    /// dropped, exactly the window a real `SIGKILL` exposes. The only
    /// surviving state is whatever the WAL made durable.
    pub fn crash(self) {
        self.crashed.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.accept_thread.join();
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .join_all();
        for handle in self.shard_threads {
            let _ = handle.join();
        }
    }

    /// Stops the server (if still running) and waits for every thread
    /// to drain, then returns the final counters. The shards have
    /// sealed their WALs by the time this returns, so [`recover`] on
    /// the WAL directory reads the run's complete canonical logs.
    ///
    /// # Panics
    ///
    /// Panics when a server thread panicked.
    pub fn join(self) -> ServerReport {
        self.stop();
        self.accept_thread.join().expect("accept thread panicked");
        let panicked = self
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .join_all();
        assert!(!panicked, "connection thread panicked");
        for handle in self.shard_threads {
            handle.join().expect("shard thread panicked");
        }
        ServerReport {
            processed: self.board.processed.load(Ordering::Relaxed),
            shed: self.board.shed.load(Ordering::Relaxed),
        }
    }
}

/// What startup recovery reconstructed from a WAL directory.
pub struct Recovery {
    /// One replayed [`ShardState`] per shard, ready to serve (call
    /// [`ShardState::arm_live`] to point them at a live board).
    pub states: Vec<ShardState>,
    /// The journaled entries per shard, in append order — the compacted
    /// prefix the new incarnation's WAL starts from.
    pub entries: Vec<Vec<WalEntry>>,
    /// Whether every shard's log ended with a valid seal (the previous
    /// incarnation drained gracefully).
    pub sealed: bool,
    /// Damaged lines discarded across all shards (torn tails).
    pub torn: usize,
    /// The replayed reply of every entry, parallel to `entries`.
    replies: Vec<Vec<Reply>>,
}

impl Recovery {
    /// Journaled entries replayed, across all shards.
    pub fn entry_count(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Canonical request log of everything journaled, sorted by
    /// `(die, seq)`. Feeding it to [`run_replay`] reproduces
    /// [`Recovery::response_log`] byte for byte.
    pub fn request_log(&self) -> String {
        render(self.canonical().map(|(_, entry)| entry.request.as_str()))
    }

    /// Response log matching [`Recovery::request_log`] line for line.
    pub fn response_log(&self) -> String {
        render(self.canonical().map(|(reply, _)| reply.line.as_str()))
    }

    /// Every replayed reply with its journaled entry, in `(die, seq)`
    /// order.
    fn canonical(&self) -> impl Iterator<Item = (&Reply, &WalEntry)> {
        let mut order: Vec<(&Reply, &WalEntry)> = self
            .replies
            .iter()
            .zip(&self.entries)
            .flat_map(|(replies, entries)| replies.iter().zip(entries))
            .collect();
        order.sort_by_key(|(reply, _)| (reply.die, reply.seq));
        order.into_iter()
    }
}

/// Replays the WAL directory `dir` against a fresh pool, verifying that
/// every journaled `(die, seq)` reproduces exactly. Each shard's journal
/// replays on its own thread (shard 0 on the caller's), as the daemon
/// serves it: a die lives in exactly one shard and its replies depend
/// on its own request sequence alone, so the threads share nothing but
/// a board that only counts. Read-only: the log files are not modified (the daemon compacts them
/// separately when it goes live). [`run_replay`] is the one-thread
/// oracle the recovered logs are checked against.
///
/// # Errors
///
/// Returns a message when a log is unreadable, was written under a
/// different config fingerprint, or replays to a different `(die, seq)`
/// than it recorded — each means the WAL and the config disagree about
/// what silicon is being reconstructed. When several shards fail, the
/// lowest-numbered shard's error is returned.
///
/// # Panics
///
/// Re-raises, with its own payload, the panic of a shard's replay.
pub fn recover(cfg: &ServeConfig, dir: &Path) -> Result<Recovery, String> {
    let shards = cfg.shards.max(1);
    let fingerprint = wal::fingerprint(cfg);
    // Recovery replays on a throwaway board; the caller re-arms the
    // states for live serving.
    let board = Arc::new(StatusBoard::for_shards(shards));
    let replay = |shard| replay_shard(cfg, &wal::shard_path(dir, shard), &fingerprint, &board);
    let outcomes = std::thread::scope(|scope| {
        // Shard 0 replays on the calling thread: starting a thread costs
        // more than replaying a short journal (`chaos_sweep`'s rounds of
        // at most 48 requests recovered about 25 % slower with a thread
        // started for every shard).
        let threads: Vec<_> = (1..shards)
            .map(|shard| {
                std::thread::Builder::new()
                    .name(format!("fracdram-recover-{shard}"))
                    .spawn_scoped(scope, move || replay(shard))
                    .expect("spawn recovery thread")
            })
            .collect();
        // A panic in shard 0 unwinds out of the scope with its own
        // payload once the other shards finish. Otherwise the outcomes
        // are taken in shard order, so the first failure reported is
        // the one a shard-by-shard replay would have stopped at.
        let first = replay(0);
        std::iter::once(Ok(first))
            .chain(threads.into_iter().map(|thread| thread.join()))
            .collect::<Vec<_>>()
    });
    let mut recovery = Recovery {
        states: Vec::with_capacity(shards),
        entries: Vec::with_capacity(shards),
        sealed: true,
        torn: 0,
        replies: Vec::with_capacity(shards),
    };
    for outcome in outcomes {
        let (state, shard_log, replies) =
            outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
        recovery.sealed &= shard_log.sealed;
        recovery.torn += shard_log.torn;
        recovery.states.push(state);
        recovery.entries.push(shard_log.entries);
        recovery.replies.push(replies);
    }
    Ok(recovery)
}

/// Replays one shard's journal at `path` on a fresh [`ShardState`]
/// (stalls disabled: replaying a journaled `stall` must not sleep) and
/// returns the state, the journal and one reply per entry.
fn replay_shard(
    cfg: &ServeConfig,
    path: &Path,
    fingerprint: &str,
    board: &Arc<StatusBoard>,
) -> Result<(ShardState, wal::WalShard, Vec<Reply>), String> {
    let mut state = ShardState::new(cfg.clone(), Arc::clone(board), false);
    let shard_log = if path.exists() {
        wal::read_shard(path, fingerprint)?
    } else {
        // A shard that never journaled anything: empty and trivially
        // clean.
        wal::WalShard {
            sealed: true,
            ..wal::WalShard::default()
        }
    };
    let mut replies = Vec::with_capacity(shard_log.entries.len());
    for entry in &shard_log.entries {
        let request = Request::parse(&entry.request)
            .map_err(|e| format!("{}: journaled request unparsable: {e}", path.display()))?;
        let reply = state.execute(&request);
        if reply.die != entry.die || reply.seq != entry.seq {
            return Err(format!(
                "{}: replay diverged — journaled (die {}, seq {}), replayed (die {}, seq {})",
                path.display(),
                entry.die,
                entry.seq,
                reply.die,
                reply.seq
            ));
        }
        replies.push(reply);
    }
    Ok((state, shard_log, replies))
}

/// Starts the daemon on `127.0.0.1:port` (0 picks a free port).
///
/// # Errors
///
/// Propagates listener binding failures.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    start_on(cfg, 0)
}

/// [`start`] with an explicit port. When [`ServeConfig::wal_dir`] is
/// set, existing logs are recovered (and compacted) before the listener
/// accepts anything, and every shard journals from then on.
///
/// # Errors
///
/// Propagates listener binding failures, WAL I/O failures, and recovery
/// errors (fingerprint mismatch, replay divergence).
pub fn start_on(cfg: ServeConfig, port: u16) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let crashed = Arc::new(AtomicBool::new(false));
    let shards = cfg.shards.max(1);
    let board = Arc::new(StatusBoard::for_shards(shards));

    // Durability setup: recover any previous incarnation, then open a
    // compacted WAL per shard — all before the first accept, so no
    // client can observe a half-recovered pool.
    let mut states: Vec<ShardState> = Vec::with_capacity(shards);
    let mut writers: Vec<Option<WalWriter>> = Vec::with_capacity(shards);
    match &cfg.wal_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let existing = (0..shards).any(|s| wal::shard_path(dir, s).exists());
            let recovery = if existing {
                let recovery = recover(&cfg, dir).map_err(std::io::Error::other)?;
                let entries = recovery.entry_count();
                board.recovered.store(entries as u64, Ordering::Relaxed);
                if !recovery.sealed || recovery.torn > 0 {
                    eprintln!(
                        "fracdram-serve: recovered {} WAL entries from an unclean shutdown \
                         ({} torn line{} discarded)",
                        entries,
                        recovery.torn,
                        if recovery.torn == 1 { "" } else { "s" }
                    );
                }
                Some(recovery)
            } else {
                None
            };
            for shard in 0..shards {
                let entries: &[WalEntry] = match recovery {
                    Some(ref r) => &r.entries[shard],
                    None => &[],
                };
                writers.push(Some(WalWriter::create(dir, shard, &cfg, entries)?));
            }
            match recovery {
                Some(r) => {
                    for mut state in r.states {
                        state.arm_live(Arc::clone(&board));
                        states.push(state);
                    }
                }
                None => {
                    for _ in 0..shards {
                        states.push(ShardState::new(cfg.clone(), Arc::clone(&board), true));
                    }
                }
            }
        }
        None => {
            for _ in 0..shards {
                states.push(ShardState::new(cfg.clone(), Arc::clone(&board), true));
                writers.push(None);
            }
        }
    }

    let chaos: Option<ChaosPlan> = cfg.chaos.as_ref().map(ChaosSpec::plan);
    let mut senders: Vec<SyncSender<Envelope>> = Vec::with_capacity(shards);
    let mut shard_threads = Vec::with_capacity(shards);
    for (shard, (state, writer)) in states.into_iter().zip(writers).enumerate() {
        let (tx, rx) = mpsc::sync_channel::<Envelope>(cfg.queue_depth.max(1));
        senders.push(tx);
        let ctx = ShardCtx {
            shard,
            batch: cfg.batch.max(1),
            deadline: (cfg.deadline_ms > 0).then(|| Duration::from_millis(cfg.deadline_ms)),
            board: Arc::clone(&board),
            crashed: Arc::clone(&crashed),
            wal: writer,
            chaos,
        };
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("fracdram-shard-{shard}"))
                .spawn(move || shard_loop(state, rx, ctx))
                .expect("spawn shard thread"),
        );
    }

    let connections = Arc::new(Mutex::new(Connections::default()));
    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let board = Arc::clone(&board);
        let cfg = cfg.clone();
        let connections = Arc::clone(&connections);
        std::thread::Builder::new()
            .name("fracdram-accept".to_string())
            .spawn(move || {
                // Chaos connection drops key on this accept-order
                // ordinal; it restarts at 0 with the process, so a
                // recovered daemon redraws the same drop decisions for
                // the same connection sequence.
                let conn_ordinal = AtomicU64::new(0);
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Responses are small single lines; Nagle's
                            // algorithm would hold each one back waiting
                            // for an ACK and dominate request latency.
                            let _ = stream.set_nodelay(true);
                            let conn = conn_ordinal.fetch_add(1, Ordering::Relaxed);
                            let cfg = cfg.clone();
                            let senders = senders.clone();
                            let shutdown = Arc::clone(&shutdown);
                            let board = Arc::clone(&board);
                            let handle = std::thread::Builder::new()
                                .name("fracdram-conn".to_string())
                                .spawn(move || {
                                    connection_loop(stream, cfg, senders, shutdown, board, conn)
                                })
                                .expect("spawn connection thread");
                            let mut connections =
                                connections.lock().unwrap_or_else(PoisonError::into_inner);
                            connections.reap();
                            connections.live.push(handle);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // Poll fast: a client's very first request
                            // eats this whole interval, so a lazy poll
                            // here shows up directly in tail latency.
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(_) => break,
                    }
                }
                // Dropping `senders` here lets the shard threads drain
                // and exit once every connection thread is done too.
            })
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        crashed,
        board,
        accept_thread,
        shard_threads,
        connections,
    })
}

/// Everything a shard worker needs besides its state and queue.
struct ShardCtx {
    shard: usize,
    batch: usize,
    /// Queue-age budget; `None` (`deadline_ms == 0`) disables deadline
    /// shedding entirely.
    deadline: Option<Duration>,
    board: Arc<StatusBoard>,
    crashed: Arc<AtomicBool>,
    wal: Option<WalWriter>,
    chaos: Option<ChaosPlan>,
}

fn shard_loop(mut state: ShardState, rx: Receiver<Envelope>, mut ctx: ShardCtx) {
    let mut drains = 0u64;
    loop {
        if ctx.crashed.load(Ordering::SeqCst) {
            return; // hard kill: no seal, no further replies
        }
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(envelope) => envelope,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut envelopes = Vec::with_capacity(ctx.batch);
        envelopes.push(first);
        while envelopes.len() < ctx.batch {
            match rx.try_recv() {
                Ok(envelope) => envelopes.push(envelope),
                Err(_) => break,
            }
        }
        ctx.board.queue_pop(ctx.shard, envelopes.len() as u64);

        if let Some(plan) = &ctx.chaos {
            if let Some(millis) = plan.stall_before(ctx.shard, drains) {
                ctx.board.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        drains += 1;

        // Deadline shed before execution: a request that already aged
        // past its budget gets a `503` instead of a stale execution —
        // it never consumes a seq and never enters the WAL, exactly as
        // if the queue had been full when it arrived.
        let mut requests = Vec::with_capacity(envelopes.len());
        let mut metas = Vec::with_capacity(envelopes.len());
        for envelope in envelopes {
            if ctx
                .deadline
                .is_some_and(|deadline| envelope.enqueued.elapsed() > deadline)
            {
                ctx.board.deadline_shed.fetch_add(1, Ordering::Relaxed);
                let mut writer = envelope
                    .reply_to
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let line = top_level_error(503, "deadline exceeded, request shed");
                let _ = writer.write_all(format!("{line}\n").as_bytes());
            } else {
                // Move each envelope apart instead of cloning its
                // request; the drain is the hot path and payloads can
                // be whole-row hex.
                requests.push(envelope.request);
                metas.push((envelope.canonical, envelope.reply_to));
            }
        }
        if requests.is_empty() {
            continue;
        }
        let replies: Vec<Reply> = state.execute_batch(&requests);
        debug_assert_eq!(replies.len(), metas.len());

        // Acknowledge-after-log: journal + fsync the whole drain before
        // any response line leaves the process.
        if let Some(writer) = ctx.wal.as_mut() {
            for ((canonical, _), reply) in metas.iter().zip(&replies) {
                let canonical = canonical
                    .as_deref()
                    .expect("a WAL daemon renders every request");
                writer.log(reply.die, reply.seq, canonical);
            }
            match writer.commit() {
                Ok(bytes) => {
                    ctx.board
                        .wal_entries
                        .fetch_add(replies.len() as u64, Ordering::Relaxed);
                    ctx.board.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    ctx.board.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Err(e) => {
                    // Never acknowledge work the log did not keep.
                    eprintln!(
                        "fracdram-serve: shard {}: WAL append failed ({e}); shard stopping",
                        ctx.shard
                    );
                    return;
                }
            }
        }
        if ctx.crashed.load(Ordering::SeqCst) {
            // Killed between log and ack: the journaled-but-unacked
            // window durability tests care about.
            return;
        }
        for ((_, reply_to), reply) in metas.iter().zip(&replies) {
            // A client that hung up simply misses its response.
            let mut writer = reply_to.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writer.write_all(format!("{}\n", reply.line).as_bytes());
        }
    }
    // Graceful drain: seal so the next incarnation knows the log is
    // complete. (A crash returns above without ever reaching this.)
    if let Some(writer) = ctx.wal.take() {
        if let Err(e) = writer.seal() {
            eprintln!("fracdram-serve: shard {}: WAL seal failed ({e})", ctx.shard);
        }
    }
}

/// What the connection loop should do after one input line.
enum LineAction {
    /// Write this front-end response to the socket.
    Respond(String),
    /// Forwarded to a shard; the shard writes the response itself.
    Forwarded,
    /// Chaos dropped the request: close the connection immediately,
    /// *before* the request reaches any shard, so the client's retry
    /// executes exactly once.
    DropConnection,
}

fn connection_loop(
    stream: TcpStream,
    cfg: ServeConfig,
    senders: Vec<SyncSender<Envelope>>,
    shutdown: Arc<AtomicBool>,
    board: Arc<StatusBoard>,
    conn: u64,
) {
    // Short read timeout so the loop can observe shutdown and the idle
    // clock even when the client goes silent mid-line; the write
    // timeout bounds how long a stalled client can hold the shard's
    // direct-reply path.
    let io_timeout = Duration::from_millis(cfg.io_timeout_ms.max(1));
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
        || stream.set_write_timeout(Some(io_timeout)).is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let chaos = cfg.chaos.as_ref().map(ChaosSpec::plan);
    let mut reader = BufReader::new(stream);
    // Accumulate raw bytes, not a String: `read_line` only keeps
    // partial input across a read timeout when it happens to be valid
    // UTF-8, so a timeout landing inside a multi-byte sequence would
    // silently drop bytes and corrupt the in-flight line. Bytes carry
    // across timeouts unconditionally; UTF-8 is validated once per
    // complete line (an invalid line earns a 400, not a disconnect).
    let mut buf: Vec<u8> = Vec::new();
    let mut forwarded = 0u64;
    let mut last_activity = Instant::now();
    loop {
        let before = buf.len();
        let line = match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) => {
                let line = match std::str::from_utf8(&buf) {
                    Ok(text) => Some(text.trim().to_string()),
                    Err(_) => None,
                };
                buf.clear();
                last_activity = Instant::now();
                match line {
                    Some(line) => Some(line),
                    None => {
                        let response = top_level_error(400, "request line is not valid UTF-8");
                        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                        if w.write_all(format!("{response}\n").as_bytes()).is_err() {
                            break;
                        }
                        continue;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Partial bytes stay appended in `buf` and the next
                // pass continues the same line.
                if buf.len() > before {
                    last_activity = Instant::now();
                }
                None
            }
            Err(_) => break,
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Some(line) = line else {
            if last_activity.elapsed() > io_timeout {
                break; // idle client: free the thread
            }
            continue;
        };
        if line.is_empty() {
            continue;
        }
        // Front-end answers (status, shutdown, errors, sheds) are
        // written here; die-routed work is handed to a shard, which
        // writes the response to the socket itself.
        match handle_line(
            &line,
            &cfg,
            &senders,
            &shutdown,
            &board,
            &writer,
            chaos.as_ref(),
            conn,
            &mut forwarded,
        ) {
            LineAction::Respond(response) => {
                let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                if w.write_all(format!("{response}\n").as_bytes()).is_err() {
                    break;
                }
            }
            LineAction::Forwarded => {}
            LineAction::DropConnection => {
                board.chaos_drops.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_line(
    line: &str,
    cfg: &ServeConfig,
    senders: &[SyncSender<Envelope>],
    shutdown: &AtomicBool,
    board: &StatusBoard,
    writer: &Arc<Mutex<TcpStream>>,
    chaos: Option<&ChaosPlan>,
    conn: u64,
    forwarded: &mut u64,
) -> LineAction {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return LineAction::Respond(top_level_error(400, &message)),
    };
    match request.die() {
        None => match request {
            Request::Status => LineAction::Respond(status_response(cfg, board)),
            _ => {
                shutdown.store(true, Ordering::SeqCst);
                LineAction::Respond(
                    Json::obj()
                        .field("ok", true)
                        .field("op", "shutdown")
                        .to_string(),
                )
            }
        },
        Some(die) => {
            if die >= cfg.dies {
                return LineAction::Respond(top_level_error(
                    400,
                    &format!("die {die} out of range (pool has {})", cfg.dies),
                ));
            }
            // Chaos drop decision before the shard ever sees the
            // request: the index counts die-routed requests on this
            // connection, so the decision is a pure function of the
            // plan and the connection's request stream.
            let index = *forwarded;
            *forwarded += 1;
            if chaos.is_some_and(|plan| plan.drop_before(conn, index)) {
                return LineAction::DropConnection;
            }
            let envelope = Envelope {
                canonical: cfg.wal_dir.is_some().then(|| request.canonical()),
                request,
                enqueued: Instant::now(),
                reply_to: Arc::clone(writer),
            };
            let shard = cfg.shard_of(die);
            // Gauge before the send so the matching pop (which happens
            // strictly after the shard receives the envelope) can never
            // observe the increment missing.
            board.queue_push(shard);
            match senders[shard].try_send(envelope) {
                Ok(()) => LineAction::Forwarded,
                Err(TrySendError::Full(_)) => {
                    board.queue_pop(shard, 1);
                    board.shed.fetch_add(1, Ordering::Relaxed);
                    LineAction::Respond(top_level_error(503, "shard queue full, request shed"))
                }
                Err(TrySendError::Disconnected(_)) => {
                    board.queue_pop(shard, 1);
                    LineAction::Respond(top_level_error(503, "server shutting down"))
                }
            }
        }
    }
}

fn top_level_error(code: usize, message: &str) -> String {
    Json::obj()
        .field("ok", false)
        .field("code", code)
        .field("error", message)
        .to_string()
}

fn status_response(cfg: &ServeConfig, board: &StatusBoard) -> String {
    let remaps: Vec<Json> = board
        .remaps()
        .iter()
        .map(|r| {
            Json::obj()
                .field("die", r.die)
                .field("gen", r.generation as usize)
                .field("reason", r.reason.as_str())
        })
        .collect();
    Json::obj()
        .field("ok", true)
        .field("op", "status")
        .field("group", cfg.group.to_string().as_str())
        .field("dies", cfg.dies)
        .field("shards", cfg.shards)
        .field("queue_depth", cfg.queue_depth)
        .field("columns", cfg.columns)
        .field("processed", board.processed.load(Ordering::Relaxed))
        .field("shed", board.shed.load(Ordering::Relaxed))
        .field("deadline_ms", cfg.deadline_ms)
        .field("deadline_shed", board.deadline_shed.load(Ordering::Relaxed))
        .field("io_timeout_ms", cfg.io_timeout_ms)
        .field("wal", cfg.wal_dir.is_some())
        .field("wal_entries", board.wal_entries.load(Ordering::Relaxed))
        .field("wal_syncs", board.wal_syncs.load(Ordering::Relaxed))
        .field("wal_bytes", board.wal_bytes.load(Ordering::Relaxed))
        .field("recovered", board.recovered.load(Ordering::Relaxed))
        .field("breaker_trip", cfg.breaker.trip as usize)
        .field("breaker_open", cfg.breaker.open as usize)
        .field("breaker_trips", board.breaker_trips.load(Ordering::Relaxed))
        .field(
            "breaker_rejections",
            board.breaker_rejections.load(Ordering::Relaxed),
        )
        .field(
            "breaker_probes",
            board.breaker_probes.load(Ordering::Relaxed),
        )
        .field(
            "breaker_closes",
            board.breaker_closes.load(Ordering::Relaxed),
        )
        .field("chaos", cfg.chaos.is_some())
        .field(
            "chaos_die_failures",
            board.chaos_die_failures.load(Ordering::Relaxed),
        )
        .field("chaos_drops", board.chaos_drops.load(Ordering::Relaxed))
        .field("chaos_stalls", board.chaos_stalls.load(Ordering::Relaxed))
        .field(
            "queue_hwm",
            board
                .queue_hwms()
                .into_iter()
                .map(Json::from)
                .collect::<Vec<Json>>(),
        )
        .field(
            "batch_hist",
            board
                .batch_histogram()
                .into_iter()
                .map(Json::from)
                .collect::<Vec<Json>>(),
        )
        .field("remaps", remaps)
        .field("remap_count", board.remap_count.load(Ordering::Relaxed))
        .to_string()
}

/// Replays a canonical request log against a fresh pool and returns the
/// response log, sorted by `(die, seq)` — byte-identical to the
/// [`Recovery::response_log`] of the WAL that journaled that log. Runs
/// single-threaded, one request at a time, with stalls disabled; this
/// *is* the determinism claim, see DESIGN.md. A config with a chaos
/// spec re-injects the same `(die, seq)`-keyed die failures the live
/// run saw, so chaotic runs replay exactly too.
///
/// # Errors
///
/// Returns a message naming the first malformed or out-of-range line.
pub fn run_replay(cfg: &ServeConfig, requests: &str) -> Result<String, String> {
    let board = Arc::new(StatusBoard::default());
    let mut state = ShardState::new(cfg.clone(), board, false);
    let mut replies: Vec<Reply> = Vec::new();
    for (index, line) in requests.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let request =
            Request::parse(line).map_err(|e| format!("request line {}: {e}", index + 1))?;
        let Some(die) = request.die() else {
            continue; // status/shutdown are front-end ops; nothing to replay
        };
        if die >= cfg.dies {
            return Err(format!(
                "request line {}: die {die} out of range (pool has {})",
                index + 1,
                cfg.dies
            ));
        }
        replies.push(state.execute(&request));
    }
    replies.sort_by_key(|reply| (reply.die, reply.seq));
    Ok(render(replies.iter().map(|reply| reply.line.as_str())))
}

/// Joins `lines` into one text, each line `\n`-terminated.
fn render<'a>(lines: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::REMAP_LOG_CAP;

    fn live_connections(handle: &ServerHandle) -> usize {
        handle
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .len()
    }

    fn status_round_trip(stream: &TcpStream) {
        let mut writer = stream.try_clone().expect("clone stream");
        writer.write_all(b"{\"op\":\"status\"}\n").expect("send");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("receive");
        assert!(response.contains("\"ok\":true"), "{response}");
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let handle = start(ServeConfig {
            dies: 1,
            shards: 1,
            ..ServeConfig::default()
        })
        .expect("start server");
        for _ in 0..200 {
            status_round_trip(&TcpStream::connect(handle.addr()).expect("connect"));
        }
        // Every closed connection's thread exits on EOF; the next accept
        // joins it. Retry until the one open connection is all that is
        // left, which a list that only ever grows would never reach.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let live = TcpStream::connect(handle.addr()).expect("connect");
            status_round_trip(&live);
            let listed = live_connections(&handle);
            if listed == 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{listed} connection threads listed with one connection open"
            );
        }
        handle.join();
    }

    #[test]
    fn a_reaped_connection_thread_that_panicked_is_still_reported() {
        let mut connections = Connections::default();
        connections
            .live
            .push(std::thread::spawn(|| panic!("connection thread failure")));
        while !connections.live[0].is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        connections.reap();
        assert!(connections.live.is_empty());
        assert!(connections.join_all(), "the reaped panic must be reported");
    }

    #[test]
    fn status_lists_the_last_remaps_and_counts_them_all() {
        let cfg = ServeConfig {
            dies: 1,
            shards: 1,
            columns: 64,
            ..ServeConfig::default()
        };
        let board = Arc::new(StatusBoard::for_shards(1));
        let mut state = ShardState::new(cfg.clone(), Arc::clone(&board), false);
        let mark_bad = Request::parse(r#"{"op":"mark-bad","die":0}"#).unwrap();
        for _ in 0..70 {
            state.execute(&mark_bad);
        }
        let status = Json::parse(&status_response(&cfg, &board)).unwrap();
        let Some(Json::Arr(remaps)) = status.get("remaps") else {
            panic!("status has no remaps array: {status}");
        };
        assert_eq!(remaps.len(), REMAP_LOG_CAP);
        // Newest last: the 70th remap put generation 70 on die 0.
        assert_eq!(remaps[0].get("gen").and_then(Json::as_usize), Some(7));
        assert_eq!(
            remaps.last().unwrap().get("gen").and_then(Json::as_usize),
            Some(70)
        );
        assert_eq!(status.get("remap_count").and_then(Json::as_usize), Some(70));
    }

    /// A fresh, empty directory for one recovery test.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fracdram-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create WAL dir");
        dir
    }

    /// Writes shard `shard`'s log in `dir` under `cfg`'s fingerprint.
    fn write_shard(dir: &Path, shard: usize, cfg: &ServeConfig, entries: &[WalEntry]) {
        WalWriter::create(dir, shard, cfg, entries).expect("write shard log");
    }

    fn recovery_error(cfg: &ServeConfig, dir: &Path) -> String {
        let err = recover(cfg, dir).err().expect("recovery must fail");
        let _ = std::fs::remove_dir_all(dir);
        err
    }

    #[test]
    fn recovery_reports_the_first_failing_shard_in_shard_order() {
        let cfg = ServeConfig {
            dies: 4,
            shards: 2,
            ..ServeConfig::default()
        };
        let foreign = ServeConfig {
            seed: 2,
            ..cfg.clone()
        };
        // Die 0's first replayed seq is 0, never the journaled 3.
        let diverged = [WalEntry {
            die: 0,
            seq: 3,
            request: r#"{"op":"read","die":0,"bank":1,"row":3}"#.to_string(),
        }];

        let dir = scratch_dir("both-foreign");
        write_shard(&dir, 0, &foreign, &[]);
        write_shard(&dir, 1, &foreign, &[]);
        let err = recovery_error(&cfg, &dir);
        assert!(err.contains("wal-shard-0.log"), "{err}");
        assert!(err.contains("fingerprint"), "{err}");

        let dir = scratch_dir("diverged-then-foreign");
        write_shard(&dir, 0, &cfg, &diverged);
        write_shard(&dir, 1, &foreign, &[]);
        let err = recovery_error(&cfg, &dir);
        assert!(err.contains("wal-shard-0.log"), "{err}");
        assert!(err.contains("replay diverged"), "{err}");

        let dir = scratch_dir("shard-1-foreign");
        write_shard(&dir, 0, &cfg, &[]);
        write_shard(&dir, 1, &foreign, &[]);
        let err = recovery_error(&cfg, &dir);
        assert!(err.contains("wal-shard-1.log"), "{err}");
    }

    #[test]
    fn a_panicking_shard_replay_is_re_raised_with_its_payload() {
        let cfg = ServeConfig {
            dies: 2,
            shards: 2,
            ..ServeConfig::default()
        };
        // Shard 0 replays on the calling thread, shard 1 on its own.
        for bad in 0..2 {
            let dir = scratch_dir(&format!("panic-{bad}"));
            // `status` parses but is never die-routed: executing it
            // panics.
            let status = [WalEntry {
                die: bad,
                seq: 0,
                request: r#"{"op":"status"}"#.to_string(),
            }];
            write_shard(&dir, bad, &cfg, &status);
            write_shard(&dir, 1 - bad, &cfg, &[]);
            let payload = std::panic::catch_unwind(|| recover(&cfg, &dir))
                .err()
                .expect("the replay panic must reach the caller");
            let _ = std::fs::remove_dir_all(&dir);
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                message.contains("only die-routed requests"),
                "shard {bad}: {message:?}"
            );
        }
    }
}
