//! The die pool: per-shard execution state for the daemon.
//!
//! Each [`ShardState`] owns the simulated dies whose ids hash to its
//! shard (`die % shards`) and executes requests against them strictly
//! in arrival order. Because every die is a deterministic simulation
//! seeded from `(pool seed, die id, generation)` and the counter-keyed
//! noise engine makes all device randomness a function of simulated
//! time rather than host scheduling, the response to a request depends
//! only on the *per-die sequence of requests* — never on wall-clock
//! timing, thread interleaving across dies, or batching. That is the
//! invariant the replay golden test pins down.
//!
//! Degradation: when an operation fails at the device level, or a die's
//! accumulated fault events cross [`ServeConfig::fault_limit`], the die
//! is *remapped* — its generation bumps and a fresh die (new seed, no
//! fault config, empty enrollment cache) takes over the id. The failed
//! operation is retried once on the fresh die; clients observe the bump
//! through the `"gen"` response field, and the `"status"` endpoint
//! lists every remap.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use fracdram::frac::{frac_program, require_frac_support};
use fracdram::puf::{self, Challenge};
use fracdram::rowcopy::copy_program;
use fracdram::trng::Trng;
use fracdram::FracDramError;
use fracdram_experiments::Json;
use fracdram_model::{FaultConfig, Geometry, GroupId, Module, ModuleConfig, RowAddr, SubarrayAddr};
use fracdram_softmc::program::Program;
use fracdram_softmc::MemoryController;
use fracdram_stats::bits::BitVec;
use fracdram_stats::rng::mix;

use crate::breaker::{Admission, Breaker, BreakerConfig};
use crate::chaos::{ChaosPlan, ChaosSpec};
use crate::protocol::{bits_to_hex, hex_to_bits, Request, WritePayload};

/// Upper bound on `"bits"` for one TRNG request.
pub const MAX_TRNG_BITS: usize = 4096;
/// Upper bound on enrollment repetitions.
pub const MAX_ENROLL_REPS: usize = 15;

/// Static configuration of the served pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// DRAM group every die belongs to (must support Frac and four-row
    /// activation for the full endpoint set; group B does).
    pub group: GroupId,
    /// Number of die ids clients can address.
    pub dies: usize,
    /// Number of shard worker threads; die `d` belongs to shard
    /// `d % shards`.
    pub shards: usize,
    /// Bound of each shard's work queue; a full queue sheds with `503`.
    pub queue_depth: usize,
    /// Maximum requests a shard drains into one batch, coalescing
    /// consecutive same-die writes/copies into a single compiled
    /// program.
    pub batch: usize,
    /// Columns per sub-array (row width in bits for these single-chip
    /// dies). Must be a multiple of 4 so hex payloads are exact.
    pub columns: usize,
    /// Pool seed; die `d` at generation `g` simulates silicon seeded
    /// `mix(seed, [d, g])`.
    pub seed: u64,
    /// Fault events a die may accumulate before it is auto-remapped.
    pub fault_limit: u64,
    /// Per-die circuit breaker thresholds (part of the WAL fingerprint:
    /// rejections consume seqs, so the thresholds shape the response
    /// stream).
    pub breaker: BreakerConfig,
    /// Deterministic chaos injection; `None` disarms every class. Part
    /// of the WAL fingerprint — recovery must replay under the same
    /// plan to re-inject the die failures the live run saw.
    pub chaos: Option<ChaosSpec>,
    /// Budget from enqueue to drain; a request older than this when its
    /// shard picks it up is shed with `503 deadline exceeded` instead
    /// of executed (never enters the WAL or the replay log). `0`
    /// disables deadline shedding entirely.
    pub deadline_ms: u64,
    /// Per-connection socket read/write timeout; an idle or stalled
    /// client is disconnected after this long so it can neither pin a
    /// connection thread nor block graceful shutdown.
    pub io_timeout_ms: u64,
    /// Where the per-shard write-ahead logs live; `None` serves purely
    /// in memory (the pre-PR-9 behavior).
    pub wal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            group: GroupId::B,
            dies: 16,
            shards: 4,
            queue_depth: 64,
            batch: 8,
            columns: 128,
            seed: 0xF2AC_D7A3,
            fault_limit: 2048,
            breaker: BreakerConfig::default(),
            chaos: None,
            deadline_ms: 5000,
            io_timeout_ms: 30_000,
            wal_dir: None,
        }
    }
}

impl ServeConfig {
    /// Geometry of every die: 2 banks × 2 sub-arrays × 32 rows. Bank 0
    /// sub-array 0 hosts the TRNG (seed rows + activation quad); the
    /// rest is plain storage.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            banks: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 32,
            columns: self.columns,
        }
    }

    /// The shard that owns `die`.
    pub fn shard_of(&self, die: usize) -> usize {
        die % self.shards.max(1)
    }
}

/// One die remap, as reported by the `"status"` endpoint.
#[derive(Debug, Clone)]
pub struct RemapEvent {
    /// The die id that was remapped.
    pub die: usize,
    /// The generation now serving that id.
    pub generation: u32,
    /// Why the previous generation was retired.
    pub reason: String,
}

/// Live depth and high-water mark of one shard's work queue.
#[derive(Debug, Default)]
pub struct ShardGauge {
    depth: AtomicU64,
    hwm: AtomicU64,
}

/// Counters shared between shards and the status endpoint.
#[derive(Debug, Default)]
pub struct StatusBoard {
    /// Requests executed (excludes shed and malformed ones).
    pub processed: AtomicU64,
    /// Requests shed with `503` because a shard queue was full.
    pub shed: AtomicU64,
    /// Combined programs run on behalf of ≥ 2 coalesced requests.
    pub batched: AtomicU64,
    /// Requests shed with `503` because they aged past
    /// [`ServeConfig::deadline_ms`] in a shard queue.
    pub deadline_shed: AtomicU64,
    /// Breaker trips: a die's consecutive failures (or a failed
    /// half-open probe) swung its breaker open.
    pub breaker_trips: AtomicU64,
    /// Requests rejected up front (`503`) by an open breaker.
    pub breaker_rejections: AtomicU64,
    /// Half-open probe requests admitted to a tripped die.
    pub breaker_probes: AtomicU64,
    /// Breakers re-closed by a successful probe.
    pub breaker_closes: AtomicU64,
    /// Entries durably appended to the write-ahead log.
    pub wal_entries: AtomicU64,
    /// WAL fsync batches (one per shard drain that logged anything).
    pub wal_syncs: AtomicU64,
    /// Bytes durably appended to the WAL (headers included).
    pub wal_bytes: AtomicU64,
    /// Entries replayed from the WAL at startup recovery.
    pub recovered: AtomicU64,
    /// Chaos-injected die failures actually fired.
    pub chaos_die_failures: AtomicU64,
    /// Chaos-injected connection drops actually fired.
    pub chaos_drops: AtomicU64,
    /// Chaos-injected shard stalls actually fired.
    pub chaos_stalls: AtomicU64,
    /// Per-shard queue gauges (empty until [`StatusBoard::for_shards`]).
    gauges: Vec<ShardGauge>,
    /// Drain-size histogram: `hist[n]` counts drains of exactly `n`
    /// requests.
    batch_hist: Mutex<Vec<u64>>,
    /// Every remap since startup, oldest first.
    remaps: Mutex<Vec<RemapEvent>>,
}

impl StatusBoard {
    /// A board with one queue gauge per shard.
    pub fn for_shards(shards: usize) -> StatusBoard {
        StatusBoard {
            gauges: (0..shards).map(|_| ShardGauge::default()).collect(),
            ..StatusBoard::default()
        }
    }

    /// Notes a request entering `shard`'s queue, advancing the HWM.
    pub fn queue_push(&self, shard: usize) {
        if let Some(g) = self.gauges.get(shard) {
            let depth = g.depth.fetch_add(1, Ordering::Relaxed) + 1;
            g.hwm.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Notes `n` requests leaving `shard`'s queue.
    pub fn queue_pop(&self, shard: usize, n: u64) {
        if let Some(g) = self.gauges.get(shard) {
            g.depth.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Per-shard queue-depth high-water marks.
    pub fn queue_hwms(&self) -> Vec<u64> {
        self.gauges
            .iter()
            .map(|g| g.hwm.load(Ordering::Relaxed))
            .collect()
    }

    /// Notes one drained batch of `n` requests.
    pub fn record_drain(&self, n: usize) {
        // Poison recovery (fleet PR-4 policy): counters are plain data,
        // so a panicking peer must not wedge the status/stop paths.
        let mut hist = self
            .batch_hist
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if hist.len() <= n {
            hist.resize(n + 1, 0);
        }
        hist[n] += 1;
    }

    /// The drain-size histogram (`[n]` = drains of exactly `n`).
    pub fn batch_histogram(&self) -> Vec<u64> {
        self.batch_hist
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn record_remap(&self, event: RemapEvent) {
        self.remaps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// All remaps so far, oldest first.
    pub fn remaps(&self) -> Vec<RemapEvent> {
        self.remaps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// One executed request's response, tagged with its replay ordering key.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Die that served the request.
    pub die: usize,
    /// Per-die sequence number (assigned in processing order).
    pub seq: u64,
    /// The response line (no trailing newline).
    pub line: String,
}

#[derive(Debug)]
enum OpError {
    /// The request itself is invalid; respond 400, keep the die.
    Bad(String),
    /// The die failed; remap it and retry once.
    Die(String),
}

struct Die {
    mc: MemoryController,
    trng: Option<Trng>,
    enrolled: BTreeMap<(usize, usize), BitVec>,
    seq: u64,
    generation: u32,
    fault_baseline: u64,
}

impl Die {
    fn new(cfg: &ServeConfig, id: usize, generation: u32) -> Die {
        let seed = mix(cfg.seed, &[id as u64, generation as u64]);
        let module = Module::new(ModuleConfig::single_chip(cfg.group, seed, cfg.geometry()));
        Die {
            mc: MemoryController::new(module),
            trng: None,
            enrolled: BTreeMap::new(),
            seq: 0,
            generation,
            fault_baseline: 0,
        }
    }
}

/// Execution state for one shard (or, in replay mode, for the whole
/// pool). Dies materialize lazily on first touch.
pub struct ShardState {
    cfg: ServeConfig,
    board: Arc<StatusBoard>,
    dies: BTreeMap<usize, Die>,
    /// Per die **id** (not generation): the health score must survive
    /// remaps — an id that keeps failing across fresh silicon is
    /// exactly what the breaker exists to fence off.
    breakers: BTreeMap<usize, Breaker>,
    /// Deterministic failure-injection oracle, from
    /// [`ServeConfig::chaos`].
    chaos: Option<ChaosPlan>,
    /// Whether `"stall"` actually sleeps. Live shards sleep (the op
    /// exists to force backpressure in tests); replay never does.
    stall_enabled: bool,
}

impl ShardState {
    /// A fresh shard over `cfg`, publishing counters to `board`.
    pub fn new(cfg: ServeConfig, board: Arc<StatusBoard>, stall_enabled: bool) -> ShardState {
        let chaos = cfg.chaos.as_ref().map(ChaosSpec::plan);
        ShardState {
            cfg,
            board,
            dies: BTreeMap::new(),
            breakers: BTreeMap::new(),
            chaos,
            stall_enabled,
        }
    }

    /// Repoints a recovered shard at the live server's board and
    /// re-enables stalls: recovery replays against a throwaway board
    /// with stalls off (replay must not sleep), then the same states go
    /// live for serving.
    pub fn arm_live(&mut self, board: Arc<StatusBoard>) {
        self.board = board;
        self.stall_enabled = true;
    }

    /// Breaker phase per die id, for `status` reporting (only dies
    /// whose breaker ever advanced past a pristine closed state appear
    /// interesting, but all touched ids are listed).
    pub fn breaker_phases(&self) -> Vec<(usize, &'static str)> {
        self.breakers
            .iter()
            .map(|(&id, b)| (id, b.phase_name()))
            .collect()
    }

    fn ensure_die(&mut self, id: usize) {
        let cfg = &self.cfg;
        self.dies.entry(id).or_insert_with(|| Die::new(cfg, id, 0));
    }

    fn remap(&mut self, id: usize, reason: &str) -> u32 {
        let (next_gen, seq) = match self.dies.get(&id) {
            Some(die) => (die.generation + 1, die.seq),
            None => (1, 0),
        };
        let mut fresh = Die::new(&self.cfg, id, next_gen);
        fresh.seq = seq;
        self.dies.insert(id, fresh);
        self.board.record_remap(RemapEvent {
            die: id,
            generation: next_gen,
            reason: reason.to_string(),
        });
        next_gen
    }

    /// Executes one die-routed request, returning its response. Part of
    /// the replay contract: calling this for each request of a per-die
    /// ordered log yields exactly the responses the live (batching,
    /// multi-shard) server produced.
    ///
    /// # Panics
    ///
    /// Panics when `req` has no target die (`status` / `shutdown` are
    /// answered by the server front-end, never routed here).
    pub fn execute(&mut self, req: &Request) -> Reply {
        let id = req.die().expect("only die-routed requests reach a shard");
        self.ensure_die(id);
        let seq = {
            let die = self.dies.get_mut(&id).unwrap();
            let seq = die.seq;
            die.seq += 1;
            seq
        };
        self.board.processed.fetch_add(1, Ordering::Relaxed);

        if let Request::MarkBad { .. } = req {
            // Operator replacement: the fresh silicon starts with a
            // clean bill of health, whatever the breaker thought of its
            // predecessor.
            self.breaker(id).reset();
            let generation = self.remap(id, "marked bad");
            let line = ok_response(req, id, seq, generation)
                .field("remapped", true)
                .to_string();
            return Reply { die: id, seq, line };
        }

        match self.breaker(id).admit() {
            Admission::Pass => {}
            Admission::Probe => {
                self.board.breaker_probes.fetch_add(1, Ordering::Relaxed);
            }
            Admission::Reject => {
                // Rejections consume a seq and are journaled like any
                // response, so recovery replays the breaker's countdown
                // to the exact same phase.
                self.board
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                let generation = self.dies[&id].generation;
                let line = error_response(req, id, seq, generation, 503, "circuit breaker open")
                    .to_string();
                return Reply { die: id, seq, line };
            }
        }

        let mut die_failed = false;
        let mut succeeded = false;
        let line = match self.apply_with_chaos(id, seq, req) {
            Ok(extra) => {
                succeeded = true;
                let generation = self.dies[&id].generation;
                splice(ok_response(req, id, seq, generation), extra).to_string()
            }
            Err(OpError::Bad(msg)) => {
                let generation = self.dies[&id].generation;
                error_response(req, id, seq, generation, 400, &msg).to_string()
            }
            Err(OpError::Die(msg)) => {
                // The die failed underneath a valid request: retire it,
                // retry once on the replacement. (The retry is not
                // chaos-wrapped: the injection keyed on this seq already
                // fired, and re-injecting would double-count it.)
                die_failed = true;
                let generation = self.remap(id, &msg);
                match self.apply(id, req) {
                    Ok(extra) => splice(ok_response(req, id, seq, generation), extra).to_string(),
                    Err(OpError::Bad(msg)) | Err(OpError::Die(msg)) => {
                        error_response(req, id, seq, generation, 500, &msg).to_string()
                    }
                }
            }
        };
        if self.check_health(id) {
            die_failed = true;
        }
        // A die-level failure feeds the breaker even when the retry on
        // fresh silicon answered the client `ok` — the *id* misbehaved.
        // Validation errors (`Bad`) are the client's fault: neutral.
        if die_failed {
            if self.breaker(id).record_failure() {
                self.board.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        } else if succeeded && self.breaker(id).record_success() {
            self.board.breaker_closes.fetch_add(1, Ordering::Relaxed);
        }
        Reply { die: id, seq, line }
    }

    /// Executes a drained batch. The drain is partitioned by die first
    /// (stable within each die, which is the only order the replay
    /// contract fixes), and each die's combinable spans — consecutive
    /// *within the die*, not within the drain — coalesce into combined
    /// programs. Replies land back at their input positions. The result
    /// is bit-identical to per-request execution because the controller
    /// clock advances purely per-instruction — see DESIGN.md.
    pub fn execute_batch(&mut self, reqs: &[Request]) -> Vec<Reply> {
        self.board.record_drain(reqs.len());
        let mut by_die: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, req) in reqs.iter().enumerate() {
            let die = req.die().expect("only die-routed requests reach a shard");
            by_die.entry(die).or_default().push(i);
        }
        let mut slots: Vec<Option<Reply>> = reqs.iter().map(|_| None).collect();
        for idxs in by_die.values() {
            let mut k = 0;
            while k < idxs.len() {
                let mut run = Vec::new();
                for &i in &idxs[k..] {
                    match self.prepare_combinable(&reqs[i]) {
                        Some(prepared) => run.push((&reqs[i], prepared)),
                        None => break,
                    }
                }
                let m = k + run.len();
                if run.len() >= 2 {
                    for (slot, reply) in idxs[k..m].iter().zip(self.execute_run(run)) {
                        slots[*slot] = Some(reply);
                    }
                } else if m > k {
                    slots[idxs[k]] = Some(self.execute(&reqs[idxs[k]]));
                }
                // The request that ended the span runs alone, without a
                // second probe: any span members passed the die-state
                // checks on this same die, so it failed on its op or its
                // validation, which running the span cannot change.
                if let Some(&i) = idxs.get(m) {
                    slots[i] = Some(self.execute(&reqs[i]));
                }
                k = m + 1;
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every request produced a reply"))
            .collect()
    }

    /// The breaker for die id `id`, created closed on first touch.
    fn breaker(&mut self, id: usize) -> &mut Breaker {
        let cfg = self.cfg.breaker;
        self.breakers.entry(id).or_insert_with(|| Breaker::new(cfg))
    }

    /// [`ShardState::apply`] behind the chaos oracle: when the plan
    /// injects a failure for this `(die, seq)`, the die is failed
    /// *instead of* executing — surfacing through the ordinary
    /// die-error path (remap, retry, breaker failure), which is what
    /// makes the injection indistinguishable from real bad silicon and
    /// exactly reproducible during recovery replay of the same seqs.
    fn apply_with_chaos(&mut self, id: usize, seq: u64, req: &Request) -> Result<Json, OpError> {
        if let Some(plan) = &self.chaos {
            if plan.die_fails(id, seq) {
                self.board
                    .chaos_die_failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(OpError::Die("chaos: injected die failure".to_string()));
            }
        }
        self.apply(id, req)
    }

    /// The program and extra reply fields of `req` when it may join a
    /// coalesced run: a storage op whose program we can pre-validate, on
    /// a die without fault injection (an armed die may glitch
    /// mid-program, and a half-executed combined program could not be
    /// untangled per-request), whose breaker is closed (open/half-open
    /// dies go through the per-request gate), and with chaos die-failure
    /// injection disarmed (the oracle keys on individual seqs, which a
    /// combined program cannot honor).
    fn prepare_combinable(&mut self, req: &Request) -> Option<(Program, Json)> {
        if !matches!(req, Request::Write { .. } | Request::Copy { .. }) {
            return None;
        }
        if self.chaos.is_some_and(|plan| plan.config().die_fail > 0.0) {
            return None;
        }
        let id = req.die().expect("write/copy always carry a die");
        if !self.breaker(id).is_closed() {
            return None;
        }
        self.ensure_die(id);
        let die = &self.dies[&id];
        if die.mc.module().faults_enabled() {
            return None;
        }
        prepare_program(&die.mc, &self.cfg, req).ok()
    }

    /// Executes a coalesced run of one die's requests, each with the
    /// program [`ShardState::prepare_combinable`] built for it.
    fn execute_run(&mut self, run: Vec<(&Request, (Program, Json))>) -> Vec<Reply> {
        let id = run[0].0.die().expect("runs are die-routed");
        let members = run.len();
        let die = self
            .dies
            .get_mut(&id)
            .expect("prepared runs touched their die");
        let mut combined = Program::builder().build();
        let mut metas = Vec::with_capacity(members);
        for (req, (program, extra)) in run {
            combined.extend_from(&program);
            let seq = die.seq;
            die.seq += 1;
            metas.push((req, seq, extra));
        }
        let run = die.mc.run(&combined);
        let generation = die.generation;
        self.board
            .processed
            .fetch_add(members as u64, Ordering::Relaxed);
        self.board.batched.fetch_add(1, Ordering::Relaxed);
        let replies = match run {
            Ok(_) => {
                // Equivalent to a per-request `record_success` for each
                // run member: `prepare_combinable` guaranteed the breaker
                // was closed, where success only clears the score.
                self.breaker(id).record_success();
                metas
                    .into_iter()
                    .map(|(req, seq, extra)| Reply {
                        die: id,
                        seq,
                        line: splice(ok_response(req, id, seq, generation), extra).to_string(),
                    })
                    .collect()
            }
            Err(e) => {
                // Unreachable for validated storage programs on a
                // fault-free die; handled anyway so a model regression
                // degrades the die instead of wedging the shard.
                let msg = e.to_string();
                let generation = self.remap(id, &msg);
                if self.breaker(id).record_failure() {
                    self.board.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
                metas
                    .into_iter()
                    .map(|(req, seq, _)| Reply {
                        die: id,
                        seq,
                        line: error_response(req, id, seq, generation, 500, &msg).to_string(),
                    })
                    .collect()
            }
        };
        if self.check_health(id) && self.breaker(id).record_failure() {
            self.board.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
        replies
    }

    /// Auto-remap a die whose accumulated fault events crossed the
    /// configured limit. Returns whether the remap fired (a die-level
    /// failure as far as the breaker is concerned).
    fn check_health(&mut self, id: usize) -> bool {
        let over = {
            let die = &self.dies[&id];
            die.mc.module().faults_enabled()
                && die.mc.model_perf().fault_events() - die.fault_baseline > self.cfg.fault_limit
        };
        if over {
            self.remap(id, "fault limit exceeded");
        }
        over
    }

    fn apply(&mut self, id: usize, req: &Request) -> Result<Json, OpError> {
        let geometry = self.cfg.geometry();
        let die = self.dies.get_mut(&id).unwrap();
        match req {
            Request::Trng { bits, .. } => {
                if *bits == 0 || *bits > MAX_TRNG_BITS {
                    return Err(OpError::Bad(format!(
                        "\"bits\" must be 1..={MAX_TRNG_BITS}"
                    )));
                }
                if die.trng.is_none() {
                    // Any bind failure (including "no entropy columns"
                    // on pathological silicon) is a die problem: a
                    // remapped die rebinds from scratch.
                    let trng = Trng::bind(&mut die.mc, SubarrayAddr::new(0, 0))
                        .map_err(|e| OpError::Die(e.to_string()))?;
                    die.trng = Some(trng);
                }
                let (out, report) = die
                    .trng
                    .as_mut()
                    .unwrap()
                    .random_bits(&mut die.mc, *bits)
                    .map_err(|e| OpError::Die(e.to_string()))?;
                Ok(Json::obj()
                    .field("bits", bits_to_hex(&out))
                    .field("len", out.len())
                    .field("samples", report.samples))
            }
            Request::Puf { bank, row, .. } => {
                let challenge = checked_challenge(&geometry, *bank, *row)?;
                let response = puf::evaluate(&mut die.mc, challenge).map_err(map_op_err)?;
                Ok(Json::obj()
                    .field("bits", bits_to_hex(&response))
                    .field("len", response.len()))
            }
            Request::Enroll {
                bank, row, reps, ..
            } => {
                if *reps == 0 || *reps > MAX_ENROLL_REPS {
                    return Err(OpError::Bad(format!(
                        "\"reps\" must be 1..={MAX_ENROLL_REPS}"
                    )));
                }
                let challenge = checked_challenge(&geometry, *bank, *row)?;
                if let Some(signature) = die.enrolled.get(&(*bank, *row)) {
                    return Ok(Json::obj()
                        .field("signature", bits_to_hex(signature))
                        .field("len", signature.len())
                        .field("cached", true));
                }
                let mut ones = vec![0usize; geometry.columns];
                for _ in 0..*reps {
                    let response = puf::evaluate(&mut die.mc, challenge).map_err(map_op_err)?;
                    for (count, bit) in ones.iter_mut().zip(response.iter()) {
                        *count += bit as usize;
                    }
                }
                let signature =
                    BitVec::from_bools(&ones.iter().map(|&n| 2 * n > *reps).collect::<Vec<_>>());
                let line = Json::obj()
                    .field("signature", bits_to_hex(&signature))
                    .field("len", signature.len())
                    .field("cached", false);
                die.enrolled.insert((*bank, *row), signature);
                Ok(line)
            }
            Request::Verify {
                bank,
                row,
                threshold,
                ..
            } => {
                if !(0.0..=1.0).contains(threshold) {
                    return Err(OpError::Bad("\"threshold\" must be in [0, 1]".to_string()));
                }
                let challenge = checked_challenge(&geometry, *bank, *row)?;
                let Some(signature) = die.enrolled.get(&(*bank, *row)).cloned() else {
                    // Not an error: the die was never enrolled for this
                    // challenge (possibly because a remap cleared the
                    // cache) — report so the client can re-enroll.
                    return Ok(Json::obj().field("enrolled", false));
                };
                let fresh = puf::evaluate(&mut die.mc, challenge).map_err(map_op_err)?;
                let distance = signature.hamming_distance(&fresh) as f64 / fresh.len() as f64;
                Ok(Json::obj()
                    .field("enrolled", true)
                    .field("match", puf::authenticate(&signature, &fresh, *threshold))
                    .field("distance", distance))
            }
            Request::Write { .. } | Request::Copy { .. } => {
                let (program, extra) = prepare_program(&die.mc, &self.cfg, req)?;
                die.mc
                    .run(&program)
                    .map_err(|e| OpError::Die(e.to_string()))?;
                Ok(extra)
            }
            Request::Read { bank, row, .. } => {
                let addr = checked_row(&geometry, *bank, *row)?;
                let bits = die
                    .mc
                    .read_row(addr)
                    .map_err(|e| OpError::Die(e.to_string()))?;
                let bits = BitVec::from_bools(&bits);
                Ok(Json::obj()
                    .field("data", bits_to_hex(&bits))
                    .field("len", bits.len()))
            }
            Request::Fault { density, .. } => {
                if !(0.0..=0.2).contains(density) {
                    return Err(OpError::Bad("\"density\" must be in [0, 0.2]".to_string()));
                }
                let config = if *density > 0.0 {
                    FaultConfig {
                        stuck_density: *density,
                        weak_density: 2.0 * density,
                        sense_flip_rate: density / 2.0,
                        ..FaultConfig::none()
                    }
                } else {
                    FaultConfig::none()
                };
                die.fault_baseline = die.mc.model_perf().fault_events();
                die.mc.module_mut().set_fault_config(&config);
                Ok(Json::obj().field("armed", *density > 0.0))
            }
            Request::Stall { millis, .. } => {
                if self.stall_enabled {
                    std::thread::sleep(std::time::Duration::from_millis(*millis));
                }
                Ok(Json::obj().field("millis", *millis as usize))
            }
            Request::MarkBad { .. } | Request::Status | Request::Shutdown => {
                unreachable!("handled before apply")
            }
        }
    }
}

/// Builds the (pre-validated) program for a storage request, plus the
/// extra response fields it earns. Pure in the request and die
/// geometry/timing, so the batcher and the per-request path produce the
/// same program.
fn prepare_program(
    mc: &MemoryController,
    cfg: &ServeConfig,
    req: &Request,
) -> Result<(Program, Json), OpError> {
    let geometry = cfg.geometry();
    match req {
        Request::Write {
            bank,
            row,
            payload,
            frac,
            ..
        } => {
            let addr = checked_row(&geometry, *bank, *row)?;
            let row_bits = geometry.columns;
            let bits = match payload {
                WritePayload::Fill(bit) => vec![*bit; row_bits],
                WritePayload::Hex(hex) => {
                    let bits = hex_to_bits(hex).map_err(OpError::Bad)?;
                    if bits.len() != row_bits {
                        return Err(OpError::Bad(format!(
                            "\"data\" is {} bits, row is {row_bits}",
                            bits.len()
                        )));
                    }
                    bits
                }
            };
            let mut program = mc.write_row_program(addr, &bits);
            if *frac > 0 {
                require_frac_support(mc).map_err(map_op_err)?;
                program.extend_from(&frac_program(addr, *frac));
            }
            Ok((program, Json::obj().field("frac", *frac)))
        }
        Request::Copy { bank, src, dst, .. } => {
            let src = checked_row(&geometry, *bank, *src)?;
            let dst = checked_row(&geometry, *bank, *dst)?;
            let (ssub, _) = geometry.split_row(src.row);
            let (dsub, _) = geometry.split_row(dst.row);
            if ssub != dsub {
                return Err(OpError::Bad(format!(
                    "copy crosses sub-arrays ({ssub} -> {dsub})"
                )));
            }
            if src.row == dst.row {
                return Err(OpError::Bad("copy onto itself".to_string()));
            }
            Ok((copy_program(src, dst), Json::obj()))
        }
        _ => unreachable!("prepare_program is only called for write/copy"),
    }
}

fn checked_row(geometry: &Geometry, bank: usize, row: usize) -> Result<RowAddr, OpError> {
    if bank >= geometry.banks {
        return Err(OpError::Bad(format!(
            "bank {bank} out of range (dies have {} banks)",
            geometry.banks
        )));
    }
    if row >= geometry.rows_per_bank() {
        return Err(OpError::Bad(format!(
            "row {row} out of range (banks have {} rows)",
            geometry.rows_per_bank()
        )));
    }
    Ok(RowAddr::new(bank, row))
}

fn checked_challenge(geometry: &Geometry, bank: usize, row: usize) -> Result<Challenge, OpError> {
    checked_row(geometry, bank, row)?;
    Ok(Challenge::new(bank, row))
}

fn map_op_err(e: FracDramError) -> OpError {
    match e {
        FracDramError::Controller(_) => OpError::Die(e.to_string()),
        _ => OpError::Bad(e.to_string()),
    }
}

fn ok_response(req: &Request, die: usize, seq: u64, generation: u32) -> Json {
    Json::obj()
        .field("ok", true)
        .field("op", req.op())
        .field("die", die)
        .field("seq", seq)
        .field("gen", generation as usize)
}

fn error_response(
    req: &Request,
    die: usize,
    seq: u64,
    generation: u32,
    code: usize,
    message: &str,
) -> Json {
    Json::obj()
        .field("ok", false)
        .field("op", req.op())
        .field("die", die)
        .field("seq", seq)
        .field("gen", generation as usize)
        .field("code", code)
        .field("error", message)
}

fn splice(base: Json, extra: Json) -> Json {
    match (base, extra) {
        (Json::Obj(mut fields), Json::Obj(more)) => {
            fields.extend(more);
            Json::Obj(fields)
        }
        (base, _) => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            dies: 4,
            shards: 1,
            ..ServeConfig::default()
        }
    }

    fn shard(cfg: &ServeConfig) -> ShardState {
        ShardState::new(cfg.clone(), Arc::new(StatusBoard::default()), false)
    }

    fn parse(reply: &Reply) -> Json {
        Json::parse(&reply.line).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let cfg = tiny_cfg();
        let mut state = shard(&cfg);
        let hex = "a5".repeat(cfg.columns / 8);
        let write = Request::parse(&format!(
            r#"{{"op":"write","die":0,"bank":1,"row":3,"data":"{hex}"}}"#
        ))
        .unwrap();
        let read = Request::parse(r#"{"op":"read","die":0,"bank":1,"row":3}"#).unwrap();
        assert_eq!(
            parse(&state.execute(&write)).get("ok").unwrap().as_bool(),
            Some(true)
        );
        let doc = parse(&state.execute(&read));
        assert_eq!(doc.get("data").unwrap().as_str(), Some(hex.as_str()));
    }

    #[test]
    fn batched_run_matches_per_request_execution() {
        let cfg = tiny_cfg();
        let lines = [
            r#"{"op":"write","die":1,"bank":1,"row":4,"fill":true}"#,
            r#"{"op":"copy","die":1,"bank":1,"src":4,"dst":9}"#,
            r#"{"op":"write","die":1,"bank":1,"row":5,"fill":false,"frac":2}"#,
            r#"{"op":"read","die":1,"bank":1,"row":9}"#,
        ];
        let reqs: Vec<Request> = lines.iter().map(|l| Request::parse(l).unwrap()).collect();

        let mut batched = shard(&cfg);
        let batch_replies = batched.execute_batch(&reqs);
        let mut serial = shard(&cfg);
        let serial_replies: Vec<Reply> = reqs.iter().map(|r| serial.execute(r)).collect();

        let render = |rs: &[Reply]| {
            rs.iter()
                .map(|r| r.line.clone())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&batch_replies), render(&serial_replies));
        assert!(
            batched.board.batched.load(Ordering::Relaxed) >= 1,
            "first three requests should coalesce"
        );
    }

    #[test]
    fn cross_die_drain_matches_per_request_execution() {
        // A drain interleaving three dies: each die's requests regroup
        // and coalesce, yet every reply must be byte-identical to strict
        // per-request execution and come back at its input position.
        let cfg = tiny_cfg();
        let lines = [
            r#"{"op":"write","die":0,"bank":0,"row":40,"fill":true}"#,
            r#"{"op":"write","die":1,"bank":1,"row":4,"fill":true}"#,
            r#"{"op":"write","die":0,"bank":0,"row":41,"fill":false}"#,
            // Fails validation inside die 0's span: it ends the span and
            // answers 400 on its own.
            r#"{"op":"copy","die":0,"bank":0,"src":41,"dst":41}"#,
            r#"{"op":"copy","die":1,"bank":1,"src":4,"dst":9}"#,
            r#"{"op":"write","die":2,"bank":1,"row":7,"fill":true,"frac":3}"#,
            r#"{"op":"copy","die":0,"bank":0,"src":40,"dst":44}"#,
            r#"{"op":"write","die":0,"bank":0,"row":42,"fill":true}"#,
            r#"{"op":"read","die":1,"bank":1,"row":9}"#,
            r#"{"op":"read","die":0,"bank":0,"row":44}"#,
        ];
        let reqs: Vec<Request> = lines.iter().map(|l| Request::parse(l).unwrap()).collect();

        let mut batched = shard(&cfg);
        let batch_replies = batched.execute_batch(&reqs);
        let mut serial = shard(&cfg);
        let serial_replies: Vec<Reply> = reqs.iter().map(|r| serial.execute(r)).collect();

        let render = |rs: &[Reply]| {
            rs.iter()
                .map(|r| r.line.clone())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&batch_replies), render(&serial_replies));
        let invalid = parse(&batch_replies[3]);
        assert_eq!(invalid.get("code").unwrap().as_usize(), Some(400));
        assert_eq!(
            invalid.get("error").unwrap().as_str(),
            Some("copy onto itself")
        );
        // Regrouping coalesces die 0's write/write and copy/write on
        // either side of the invalid copy, and die 1's write/copy.
        assert_eq!(
            batched.board.batched.load(Ordering::Relaxed),
            3,
            "two combined programs for die 0, one for die 1"
        );
        assert_eq!(
            batched.board.batch_histogram(),
            {
                let mut h = vec![0u64; 11];
                h[10] = 1;
                h
            },
            "one drain of ten requests"
        );
    }

    #[test]
    fn mark_bad_remaps_and_changes_silicon() {
        let cfg = tiny_cfg();
        let mut state = shard(&cfg);
        let puf = Request::parse(r#"{"op":"puf","die":2,"bank":1,"row":40}"#).unwrap();
        let before = parse(&state.execute(&puf));
        let mark = Request::parse(r#"{"op":"mark-bad","die":2}"#).unwrap();
        let marked = parse(&state.execute(&mark));
        assert_eq!(
            marked.get("gen").unwrap().as_usize(),
            Some(1),
            "mark-bad reports the replacement generation"
        );
        assert_eq!(marked.get("remapped").unwrap().as_bool(), Some(true));
        let after = parse(&state.execute(&puf));
        assert_eq!(after.get("gen").unwrap().as_usize(), Some(1));
        assert_ne!(
            before.get("bits").unwrap().as_str(),
            after.get("bits").unwrap().as_str(),
            "a remapped die is fresh silicon; its PUF response must differ"
        );
        assert_eq!(state.board.remaps().len(), 1);
    }

    #[test]
    fn validation_failures_are_400_and_consume_a_seq() {
        let cfg = tiny_cfg();
        let mut state = shard(&cfg);
        let bad = Request::parse(r#"{"op":"read","die":0,"bank":7,"row":0}"#).unwrap();
        let doc = parse(&state.execute(&bad));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("code").unwrap().as_usize(), Some(400));
        let good = Request::parse(r#"{"op":"read","die":0,"bank":0,"row":0}"#).unwrap();
        let doc = parse(&state.execute(&good));
        assert_eq!(doc.get("seq").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn enroll_caches_and_verify_matches() {
        let cfg = tiny_cfg();
        let mut state = shard(&cfg);
        let enroll =
            Request::parse(r#"{"op":"enroll","die":0,"bank":1,"row":44,"reps":3}"#).unwrap();
        let first = parse(&state.execute(&enroll));
        assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
        let second = parse(&state.execute(&enroll));
        assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            first.get("signature").unwrap().as_str(),
            second.get("signature").unwrap().as_str()
        );
        let verify = Request::parse(r#"{"op":"verify","die":0,"bank":1,"row":44}"#).unwrap();
        let doc = parse(&state.execute(&verify));
        assert_eq!(doc.get("enrolled").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("match").unwrap().as_bool(), Some(true));
        // A different die was never enrolled.
        let other = Request::parse(r#"{"op":"verify","die":1,"bank":1,"row":44}"#).unwrap();
        let doc = parse(&state.execute(&other));
        assert_eq!(doc.get("enrolled").unwrap().as_bool(), Some(false));
    }
}
