//! A deterministic parallel experiment fleet.
//!
//! Every paper-figure binary sweeps groups × modules × sub-arrays ×
//! configurations; each cell of that sweep is self-contained (one
//! [`fracdram_softmc::MemoryController`] owning one simulated
//! [`fracdram_model::Module`], sharing nothing). The fleet fans those
//! cells out over a worker thread pool and merges the results **in plan
//! order**, so the rendered figure is byte-identical at any `--jobs`
//! count:
//!
//! - the work plan is an explicit `Vec<TaskKey>` built up front;
//! - each task derives its own seed from the base seed and its
//!   coordinates ([`task_seed`]) instead of consuming a shared RNG;
//! - workers claim tasks from an atomic cursor and write results into
//!   the task's own plan slot — merge order never depends on thread
//!   scheduling.
//!
//! Observability: per-task wall time, per-task and aggregated
//! [`CycleStats`] from each task's controller, a progress line on
//! stderr as tasks complete, and an optional structured JSON dump
//! (`--json PATH`) for tracking benchmark trajectories across PRs.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fracdram_model::{GroupId, ModelPerf};
use fracdram_softmc::{CycleStats, RunMetrics};
use fracdram_stats::rng::mix;

use crate::json::Json;

/// Coordinates of one fleet task inside a sweep.
///
/// `variant` distinguishes configurations that share the same physical
/// location (an F-MAJ config index, an environment condition, a sweep
/// point); plain location sweeps leave it 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskKey {
    /// DRAM group of the module under test.
    pub group: GroupId,
    /// Module index within the group.
    pub module: usize,
    /// Sub-array index within the module (0 when the task spans the
    /// whole module).
    pub subarray: usize,
    /// Configuration index within (group, module, subarray).
    pub variant: usize,
}

impl TaskKey {
    /// A task covering one (group, module, sub-array) cell.
    pub fn new(group: GroupId, module: usize, subarray: usize) -> Self {
        TaskKey {
            group,
            module,
            subarray,
            variant: 0,
        }
    }

    /// The same cell under a numbered configuration.
    pub fn with_variant(mut self, variant: usize) -> Self {
        self.variant = variant;
        self
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "group {} module {} sa {}",
            self.group, self.module, self.subarray
        )?;
        if self.variant != 0 {
            write!(f, " cfg {}", self.variant)?;
        }
        Ok(())
    }
}

/// Derives the task's private seed: `base_seed` mixed with the task
/// coordinates. The same (base seed, key) pair always yields the same
/// seed, and distinct keys yield independent streams — determinism at
/// any thread count follows.
pub fn task_seed(base_seed: u64, key: &TaskKey) -> u64 {
    base_seed
        ^ mix(
            base_seed,
            &[
                key.group as u64,
                key.module as u64,
                key.subarray as u64,
                key.variant as u64,
            ],
        )
}

/// What to do when a task fails (panics or returns a typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Stop claiming new tasks after the first failure; unstarted tasks
    /// are reported as skipped.
    FailFast,
    /// Complete every remaining task and report the failures at the
    /// end — one poisoned cell must not sink the whole sweep.
    KeepGoing,
}

/// The fleet's failure policy: mode plus a bounded, deterministic retry
/// budget. A retry re-runs the task with seed
/// `task_seed(base, key) ^ attempt`, so retry outcomes are reproducible
/// at any job count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Reaction to a task failure.
    pub mode: FailureMode,
    /// Extra attempts granted to a failing task before its failure is
    /// recorded.
    pub retries: u32,
}

impl FleetPolicy {
    /// Stop-at-first-failure, no retries (the default).
    pub fn fail_fast() -> Self {
        FleetPolicy {
            mode: FailureMode::FailFast,
            retries: 0,
        }
    }

    /// Complete-the-plan, no retries.
    pub fn keep_going() -> Self {
        FleetPolicy {
            mode: FailureMode::KeepGoing,
            retries: 0,
        }
    }

    /// The same policy with a retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy::fail_fast()
    }
}

/// One task that did not produce a value: where it ran, with what seed,
/// on which attempt, and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The task's coordinates in the plan.
    pub key: TaskKey,
    /// Seed of the final (failing) attempt.
    pub seed: u64,
    /// Zero-based attempt index the failure was recorded on.
    pub attempt: u32,
    /// Panic payload or typed-error message.
    pub message: String,
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} — seed {} attempt {}: {}",
            self.key, self.seed, self.attempt, self.message
        )
    }
}

/// One completed task: its key, payload (or failure), and observability
/// data.
#[derive(Debug, Clone)]
pub struct TaskReport<T> {
    /// The task's coordinates in the plan.
    pub key: TaskKey,
    /// Seed the task's final attempt ran with.
    pub seed: u64,
    /// Zero-based index of the final attempt (0 unless retries fired).
    pub attempt: u32,
    /// The task function's result, or the contained failure.
    pub result: Result<T, TaskFailure>,
    /// Command counters from the task's controller(s).
    pub stats: CycleStats,
    /// Kernel performance counters from the task's simulated module(s).
    pub perf: ModelPerf,
    /// Wall time the task took.
    pub wall: Duration,
}

impl<T> TaskReport<T> {
    /// The successful value.
    ///
    /// # Panics
    ///
    /// Panics (with the contained failure) when the task failed — the
    /// right behavior for fail-fast experiments that treat any failure
    /// as fatal.
    pub fn value(&self) -> &T {
        match &self.result {
            Ok(v) => v,
            Err(f) => panic!("fleet task failed: {f}"),
        }
    }

    /// The successful value, or `None` when the task failed.
    pub fn ok(&self) -> Option<&T> {
        self.result.as_ref().ok()
    }

    /// The failure, or `None` when the task succeeded.
    pub fn failure(&self) -> Option<&TaskFailure> {
        self.result.as_ref().err()
    }
}

/// A finished fleet run: every task's report, in plan order.
#[derive(Debug)]
pub struct FleetRun<T> {
    /// Per-task reports, ordered exactly as the input plan.
    pub tasks: Vec<TaskReport<T>>,
    /// Worker threads used.
    pub jobs: usize,
    /// Base seed the per-task seeds derive from.
    pub base_seed: u64,
    /// Wall time of the whole fan-out.
    pub wall: Duration,
}

impl<T> FleetRun<T> {
    /// The successful task values in plan order (failed tasks are
    /// skipped).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.tasks.iter().filter_map(|t| t.ok())
    }

    /// The failures in plan order.
    pub fn failures(&self) -> impl Iterator<Item = &TaskFailure> {
        self.tasks.iter().filter_map(|t| t.failure())
    }

    /// Number of tasks that failed (including skipped ones under
    /// fail-fast).
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// Aggregated command counters across every task.
    pub fn total_stats(&self) -> CycleStats {
        let mut total = CycleStats::default();
        for t in &self.tasks {
            total.accumulate(&t.stats);
        }
        total
    }

    /// Aggregated kernel performance counters across every task.
    pub fn total_perf(&self) -> ModelPerf {
        let mut total = ModelPerf::default();
        for t in &self.tasks {
            total.accumulate(&t.perf);
        }
        total
    }

    /// Run summary for stderr (not part of figure output): one line of
    /// counters, plus — only when something went wrong or faults were
    /// injected — a fault-counter line and a failure section. A
    /// fault-free, failure-free run renders byte-identically to the
    /// pre-fault-layer summary.
    pub fn summary(&self) -> String {
        let stats = self.total_stats();
        let perf = self.total_perf();
        let mut s = format!(
            "fleet: {} task(s) on {} thread(s) in {:.3}s — {} DRAM commands ({} ACT, {} RD, {} WR); \
             kernels: {} events / {} columns, {} superseded ACT(s), {} exp(), cache {}h/{}m, {} shared, \
             {:.1}ms in kernels; \
             leak: {} skips, {} decay-vec hits, exp batch {} call(s) / {} lanes; \
             snapshots {}h/{}m ({} B), exp memo {}h/{}m; \
             noise: {} draws / {} fills, {:.1}ms; \
             sched: {} merge(s) / {} ticks overlapped / {} fallback(s)",
            self.tasks.len(),
            self.jobs,
            self.wall.as_secs_f64(),
            stats.commands,
            stats.activates,
            stats.reads,
            stats.writes,
            perf.events(),
            perf.columns,
            perf.superseded_activations,
            perf.exp_calls,
            perf.cache_hits,
            perf.cache_misses,
            perf.cache_share_hits,
            perf.kernel_ns() as f64 / 1e6,
            perf.leak_row_skips,
            perf.decay_vec_hits,
            perf.exp_batch_calls,
            perf.exp_batch_lanes,
            perf.snapshot_hits,
            perf.snapshot_misses,
            perf.snapshot_bytes,
            perf.exp_memo_hits,
            perf.exp_memo_misses,
            perf.noise_draws,
            perf.noise_fills,
            perf.noise_ns as f64 / 1e6,
            perf.sched_merges,
            perf.sched_overlapped_ticks,
            perf.sched_fallbacks,
        );
        if perf.fault_events() > 0 {
            s.push_str(&format!(
                "\nfleet: faults: {} event(s) — {} sense flips, {} stuck pins, \
                 {} decoder drops, {} excursion commands",
                perf.fault_events(),
                perf.fault_sense_flips,
                perf.fault_stuck_pins,
                perf.fault_decoder_drops,
                perf.fault_env_commands,
            ));
        }
        let failed = self.failed();
        if failed > 0 {
            s.push_str(&format!("\nfleet: {failed} task(s) FAILED:"));
            for f in self.failures() {
                s.push_str(&format!("\nfleet:   {f}"));
            }
        }
        s
    }

    /// Serializes the run — per-task wall time, counters, and a
    /// caller-provided projection of each value — and writes it to
    /// `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_json(
        &self,
        experiment: &str,
        path: &str,
        value_json: impl Fn(&T) -> Json,
    ) -> std::io::Result<()> {
        let tasks: Vec<Json> = self
            .tasks
            .iter()
            .map(|t| {
                let obj = Json::obj()
                    .field("group", t.key.group.to_string())
                    .field("module", t.key.module)
                    .field("subarray", t.key.subarray)
                    .field("variant", t.key.variant)
                    .field("seed", t.seed)
                    .field("attempt", u64::from(t.attempt))
                    .field("wall_ms", t.wall.as_secs_f64() * 1e3)
                    .field("stats", stats_json(&t.stats))
                    .field("perf", perf_json(&t.perf));
                match &t.result {
                    Ok(v) => obj.field("result", value_json(v)),
                    Err(f) => obj
                        .field("result", Json::Null)
                        .field("error", f.message.clone()),
                }
            })
            .collect();
        let doc = Json::obj()
            .field("experiment", experiment)
            .field("jobs", self.jobs)
            .field("base_seed", self.base_seed)
            .field("failed", self.failed())
            .field("wall_ms", self.wall.as_secs_f64() * 1e3)
            .field("stats", stats_json(&self.total_stats()))
            .field("perf", perf_json(&self.total_perf()))
            .field("tasks", Json::Arr(tasks));
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{doc}")
    }
}

fn stats_json(s: &CycleStats) -> Json {
    Json::obj()
        .field("commands", s.commands)
        .field("activates", s.activates)
        .field("precharges", s.precharges)
        .field("reads", s.reads)
        .field("writes", s.writes)
        .field("refreshes", s.refreshes)
}

fn perf_json(p: &ModelPerf) -> Json {
    Json::obj()
        .field("share_events", p.share_events)
        .field("sense_events", p.sense_events)
        .field("close_events", p.close_events)
        .field("leak_events", p.leak_events)
        .field("superseded_activations", p.superseded_activations)
        .field("columns", p.columns)
        .field("exp_calls", p.exp_calls)
        .field("cache_hits", p.cache_hits)
        .field("cache_misses", p.cache_misses)
        .field("cache_share_hits", p.cache_share_hits)
        .field("leak_row_skips", p.leak_row_skips)
        .field("decay_vec_hits", p.decay_vec_hits)
        .field("exp_batch_calls", p.exp_batch_calls)
        .field("exp_batch_lanes", p.exp_batch_lanes)
        .field("snapshot_hits", p.snapshot_hits)
        .field("snapshot_misses", p.snapshot_misses)
        .field("snapshot_bytes", p.snapshot_bytes)
        .field("exp_memo_hits", p.exp_memo_hits)
        .field("exp_memo_misses", p.exp_memo_misses)
        .field("noise_draws", p.noise_draws)
        .field("noise_fills", p.noise_fills)
        .field("sched_merges", p.sched_merges)
        .field("sched_overlapped_ticks", p.sched_overlapped_ticks)
        .field("sched_fallbacks", p.sched_fallbacks)
        .field("share_ns", p.share_ns)
        .field("sense_ns", p.sense_ns)
        .field("close_ns", p.close_ns)
        .field("leak_ns", p.leak_ns)
        .field("noise_ns", p.noise_ns)
        .field("fault_sense_flips", p.fault_sense_flips)
        .field("fault_stuck_pins", p.fault_stuck_pins)
        .field("fault_decoder_drops", p.fault_decoder_drops)
        .field("fault_env_commands", p.fault_env_commands)
}

/// Renders a panic payload as a message for [`TaskFailure`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Runs `task` over every key in `plan` on `jobs` worker threads and
/// merges the reports in plan order, with the default fail-fast,
/// no-retry policy. See [`run_with`].
pub fn run<T, F>(plan: &[TaskKey], base_seed: u64, jobs: usize, task: F) -> FleetRun<T>
where
    T: Send,
    F: Fn(&TaskKey, u64) -> (T, RunMetrics) + Sync,
{
    run_with(plan, base_seed, jobs, FleetPolicy::fail_fast(), task)
}

/// Runs `task` over every key in `plan` on `jobs` worker threads and
/// merges the reports in plan order, containing failures per `policy`.
///
/// The task function receives its key and derived seed and returns the
/// payload plus the metrics of whatever controllers it drove — command
/// counters and kernel counters together, normally
/// [`fracdram_softmc::MemoryController::metrics`] (pass
/// [`RunMetrics::default()`] when none). `jobs == 1` reproduces
/// serial execution exactly; any other count produces the same merged
/// reports because tasks share nothing and every task's randomness
/// derives from [`task_seed`].
///
/// A panicking task is caught (`catch_unwind`), optionally retried with
/// seed `task_seed ^ attempt` up to `policy.retries` extra times, and
/// recorded as a [`TaskFailure`] carrying its key, final seed, attempt,
/// and panic message. Under [`FailureMode::FailFast`] the fleet stops
/// claiming new tasks after the first recorded failure and reports the
/// unstarted tasks as skipped; under [`FailureMode::KeepGoing`] every
/// planned task still runs. Either way the merge stays in plan order,
/// so reports are identical at any job count (modulo which tasks a
/// fail-fast stop happens to skip).
///
/// Progress lines go to stderr; stdout stays reserved for figure
/// output so rendered figures are byte-identical at any job count.
///
/// # Panics
///
/// Panics when `jobs == 0`.
pub fn run_with<T, F>(
    plan: &[TaskKey],
    base_seed: u64,
    jobs: usize,
    policy: FleetPolicy,
    task: F,
) -> FleetRun<T>
where
    T: Send,
    F: Fn(&TaskKey, u64) -> (T, RunMetrics) + Sync,
{
    assert!(jobs > 0, "fleet needs at least one worker");
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<TaskReport<T>>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let workers = jobs.min(plan.len()).max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker materialize cache: consecutive tasks on this
                // worker donate their per-chip caches forward (same-die
                // tasks then skip the rebuild entirely). Values cannot
                // change — buffers survive adoption only for the same die
                // seed and are pure in it — so any job count merges the
                // same bytes; only wall time and `cache_share_hits` move.
                crate::setup::arm_cache_pool();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = plan.get(index) else {
                        break;
                    };
                    let base = task_seed(base_seed, key);
                    let task_started = Instant::now();
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        let seed = base ^ u64::from(attempt);
                        match catch_unwind(AssertUnwindSafe(|| task(key, seed))) {
                            Ok(ok) => break Ok((seed, ok)),
                            Err(payload) => {
                                let message = panic_message(payload);
                                if attempt >= policy.retries {
                                    break Err(TaskFailure {
                                        key: *key,
                                        seed,
                                        attempt,
                                        message,
                                    });
                                }
                                eprintln!(
                                    "fleet: {key} attempt {attempt} failed ({message}); retrying"
                                );
                                attempt += 1;
                            }
                        }
                    };
                    let wall = task_started.elapsed();
                    let report = match outcome {
                        Ok((seed, (value, metrics))) => TaskReport {
                            key: *key,
                            seed,
                            attempt,
                            result: Ok(value),
                            stats: metrics.cycles,
                            perf: metrics.model,
                            wall,
                        },
                        Err(failure) => {
                            eprintln!("fleet: {failure}");
                            if policy.mode == FailureMode::FailFast {
                                stop.store(true, Ordering::Relaxed);
                            }
                            TaskReport {
                                key: *key,
                                seed: failure.seed,
                                attempt,
                                result: Err(failure),
                                stats: CycleStats::default(),
                                perf: ModelPerf::default(),
                                wall,
                            }
                        }
                    };
                    // A panic inside `task` cannot poison these mutexes (the
                    // lock is never held across the task), but a defensive
                    // recover keeps one broken slot from cascading into a
                    // fleet-wide abort.
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "fleet: [{finished}/{}] {key}  {:.1}ms",
                        plan.len(),
                        wall.as_secs_f64() * 1e3
                    );
                }
                crate::setup::disarm_cache_pool();
            });
        }
    });

    let tasks = slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // Only reachable when a fail-fast stop kept the task
                    // from being claimed.
                    let key = plan[index];
                    let seed = task_seed(base_seed, &key);
                    TaskReport {
                        key,
                        seed,
                        attempt: 0,
                        result: Err(TaskFailure {
                            key,
                            seed,
                            attempt: 0,
                            message: "skipped: fleet stopped after an earlier failure".to_string(),
                        }),
                        stats: CycleStats::default(),
                        perf: ModelPerf::default(),
                        wall: Duration::ZERO,
                    }
                })
        })
        .collect();
    FleetRun {
        tasks,
        jobs: workers,
        base_seed,
        wall: started.elapsed(),
    }
}

/// Derives the private seed for one item (die) of a streamed
/// population: `base_seed` mixed with the item's global index. A pure
/// function of `(base_seed, index)`, so every die's entire simulation
/// is independent of chunk size, worker count, and arrival order.
pub fn item_seed(base_seed: u64, index: u64) -> u64 {
    base_seed ^ mix(base_seed, &[index])
}

/// Configuration of a streamed (chunked) fleet run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Total number of items (dies) to stream, indexed `0..items`.
    pub items: u64,
    /// Items per chunk; each chunk is folded into one accumulator.
    pub chunk: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Base seed every [`item_seed`] derives from.
    pub base_seed: u64,
    /// Maximum chunks a worker may run ahead of the merge frontier
    /// (`0` = auto: `4 × jobs`). This is the memory bound: at most
    /// `window` finished accumulators are resident awaiting their turn,
    /// plus one in-flight accumulator per worker — never the
    /// population.
    pub window: usize,
}

/// One chunk that did not fold: its index and the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFailure {
    /// Index of the failed chunk.
    pub chunk: u64,
    /// Panic payload rendered as text.
    pub message: String,
}

impl fmt::Display for ChunkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk {}: {}", self.chunk, self.message)
    }
}

/// A finished streamed run: the merged accumulator plus the
/// observability needed to prove the memory bound held.
#[derive(Debug)]
pub struct StreamRun<A> {
    /// The in-order merge of every chunk accumulator (`None` when the
    /// run had zero items).
    pub result: Option<A>,
    /// Number of chunks the plan was cut into.
    pub chunks: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Base seed the per-item seeds derive from.
    pub base_seed: u64,
    /// Chunks that panicked (their accumulators are missing from the
    /// merge). Empty on a clean run.
    pub failures: Vec<ChunkFailure>,
    /// Peak number of finished accumulators held pending their in-order
    /// merge — always ≤ the claim window, which is the bounded-memory
    /// claim in one number.
    pub peak_pending: usize,
    /// Wall time of the whole stream.
    pub wall: Duration,
}

/// Streams `cfg.items` items through `cfg.jobs` workers in fixed-size
/// chunks, folding each chunk into its own accumulator and merging
/// accumulators **in ascending chunk order**.
///
/// Determinism: `fold_chunk(chunk_index, range)` sees exactly the same
/// index range at any job count, every item derives its randomness from
/// [`item_seed`], and `merge` is applied left-to-right over chunk
/// indices `0, 1, 2, …` — a fixed floating-point expression tree. The
/// merged result is therefore **byte-identical** at any `--jobs N`,
/// even for non-associative float folds, as long as the chunk size is
/// unchanged (the chunk size is part of the result's identity, which is
/// why the binary store records it in its header).
///
/// Memory: workers may claim a chunk only while it is within
/// `cfg.window` chunks of the merge frontier (a claim past the window
/// blocks on a condvar until the reducer catches up), so resident state
/// is bounded by `window + jobs` accumulators regardless of how many
/// billions of items stream through.
///
/// A panicking chunk is caught, recorded as a [`ChunkFailure`], and
/// treated as merged (so the frontier advances and no worker
/// deadlocks); remaining claims stop after the first failure, mirroring
/// fail-fast. Callers should treat `failures ≠ ∅` as fatal for
/// figure output.
///
/// # Panics
///
/// Panics when `cfg.jobs == 0` or `cfg.chunk == 0`.
pub fn run_stream<A, F, M>(cfg: &StreamConfig, fold_chunk: F, mut merge: M) -> StreamRun<A>
where
    A: Send,
    F: Fn(u64, std::ops::Range<u64>) -> A + Sync,
    M: FnMut(&mut A, A),
{
    assert!(cfg.jobs > 0, "stream needs at least one worker");
    assert!(cfg.chunk > 0, "stream needs a nonzero chunk size");
    let started = Instant::now();
    let chunks = cfg.items.div_ceil(cfg.chunk);
    let window = if cfg.window == 0 {
        cfg.jobs * 4
    } else {
        cfg.window
    } as u64;
    let cursor = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // The merge frontier: chunks `< floor` have been handed to the
    // reducer in order. Workers block before *claiming* a chunk beyond
    // `floor + window`, which is what bounds resident accumulators.
    let frontier = Mutex::new(0u64);
    let frontier_moved = Condvar::new();
    let (sender, receiver) = mpsc::channel::<(u64, Result<A, String>)>();

    let mut result: Option<A> = None;
    let mut failures = Vec::new();
    let mut peak_pending = 0usize;

    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.min(chunks.max(1) as usize) {
            let sender = sender.clone();
            scope.spawn(|| {
                let sender = sender; // move the clone, borrow the rest
                crate::setup::arm_cache_pool();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= chunks {
                        break;
                    }
                    // Claim gate: wait until this chunk is inside the
                    // window above the merge frontier.
                    {
                        let mut floor = frontier.lock().unwrap_or_else(PoisonError::into_inner);
                        while index >= *floor + window && !stop.load(Ordering::Relaxed) {
                            floor = frontier_moved
                                .wait(floor)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let lo = index * cfg.chunk;
                    let hi = (lo + cfg.chunk).min(cfg.items);
                    let outcome = catch_unwind(AssertUnwindSafe(|| fold_chunk(index, lo..hi)))
                        .map_err(|payload| {
                            stop.store(true, Ordering::Relaxed);
                            panic_message(payload)
                        });
                    if sender.send((index, outcome)).is_err() {
                        break;
                    }
                }
                crate::setup::disarm_cache_pool();
                // Wake any worker still parked on the claim gate so a
                // stop is never missed.
                frontier_moved.notify_all();
            });
        }
        drop(sender);

        // In-order reducer (runs on the calling thread): buffer
        // out-of-order chunks, merge the contiguous prefix, advance the
        // frontier, and release parked workers.
        let mut pending: BTreeMap<u64, Result<A, String>> = BTreeMap::new();
        let mut next = 0u64;
        let mut merged = 0u64;
        for (index, outcome) in receiver.iter() {
            pending.insert(index, outcome);
            peak_pending = peak_pending.max(pending.len());
            while let Some(outcome) = pending.remove(&next) {
                match outcome {
                    Ok(acc) => match result.as_mut() {
                        Some(total) => merge(total, acc),
                        None => result = Some(acc),
                    },
                    Err(message) => {
                        let failure = ChunkFailure {
                            chunk: next,
                            message,
                        };
                        eprintln!("fleet: stream {failure}");
                        failures.push(failure);
                    }
                }
                next += 1;
                merged += 1;
                *frontier.lock().unwrap_or_else(PoisonError::into_inner) = next;
                frontier_moved.notify_all();
                if merged.is_multiple_of(64) || merged == chunks {
                    eprintln!("fleet: stream [{merged}/{chunks}] chunks merged");
                }
            }
        }
        // A fail-fast stop can leave claimed-but-unmerged successors in
        // the buffer; they were produced, so merge order is still
        // ascending over whatever completed. Anything after the failed
        // chunk is dropped (the caller treats failures as fatal).
        drop(pending);
    });

    StreamRun {
        result,
        chunks,
        jobs: cfg.jobs,
        base_seed: cfg.base_seed,
        failures,
        peak_pending,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Vec<TaskKey> {
        let mut plan = Vec::new();
        for group in [GroupId::B, GroupId::C] {
            for module in 0..2 {
                for subarray in 0..3 {
                    plan.push(TaskKey::new(group, module, subarray));
                }
            }
        }
        plan
    }

    #[test]
    fn merge_preserves_plan_order() {
        let plan = plan();
        let run = run(&plan, 7, 4, |key, seed| {
            (
                (key.module * 10 + key.subarray, seed),
                RunMetrics::default(),
            )
        });
        assert_eq!(run.tasks.len(), plan.len());
        for (report, key) in run.tasks.iter().zip(&plan) {
            assert_eq!(report.key, *key);
            assert_eq!(report.value().0, key.module * 10 + key.subarray);
            assert_eq!(report.seed, task_seed(7, key));
            assert_eq!(report.attempt, 0);
        }
        assert_eq!(run.failed(), 0);
    }

    #[test]
    fn identical_results_at_any_job_count() {
        let plan = plan();
        let task = |key: &TaskKey, seed: u64| {
            let mut rng = fracdram_stats::rng::Rng::seed_from_u64(seed);
            let noise: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            ((key.variant, noise), RunMetrics::default())
        };
        let serial = run(&plan, 42, 1, task);
        let parallel = run(&plan, 42, 8, task);
        let a: Vec<_> = serial.values().collect();
        let b: Vec<_> = parallel.values().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_are_distinct_per_task() {
        let plan = plan();
        let mut seen = std::collections::HashSet::new();
        for key in &plan {
            assert!(seen.insert(task_seed(5, key)), "seed collision at {key}");
        }
        // Variant changes the seed too.
        assert_ne!(
            task_seed(5, &plan[0]),
            task_seed(5, &plan[0].with_variant(1))
        );
    }

    #[test]
    fn stats_aggregate_across_tasks() {
        let plan = plan();
        let run = run(&plan, 1, 2, |_, _| {
            let metrics = RunMetrics {
                cycles: CycleStats {
                    commands: 3,
                    reads: 1,
                    ..CycleStats::default()
                },
                ..RunMetrics::default()
            };
            ((), metrics)
        });
        let total = run.total_stats();
        assert_eq!(total.commands, 3 * plan.len() as u64);
        assert_eq!(total.reads, plan.len() as u64);
        assert!(run.summary().contains("task(s)"));
    }

    #[test]
    fn perf_counters_surface_in_summary_and_json() {
        let plan = plan();
        let run = run(&plan, 1, 2, |_, _| {
            let metrics = RunMetrics {
                model: ModelPerf {
                    share_events: 2,
                    columns: 64,
                    exp_calls: 5,
                    cache_hits: 1,
                    cache_misses: 1,
                    snapshot_hits: 4,
                    snapshot_misses: 2,
                    snapshot_bytes: 1024,
                    exp_memo_hits: 7,
                    exp_memo_misses: 3,
                    noise_draws: 96,
                    noise_fills: 6,
                    noise_ns: 1_500_000,
                    cache_share_hits: 9,
                    leak_row_skips: 11,
                    decay_vec_hits: 4,
                    exp_batch_calls: 2,
                    exp_batch_lanes: 128,
                    sched_merges: 3,
                    sched_overlapped_ticks: 42,
                    sched_fallbacks: 1,
                    superseded_activations: 6,
                    ..ModelPerf::default()
                },
                ..RunMetrics::default()
            };
            ((), metrics)
        });
        let total = run.total_perf();
        assert_eq!(total.share_events, 2 * plan.len() as u64);
        assert_eq!(total.columns, 64 * plan.len() as u64);
        let summary = run.summary();
        assert!(summary.contains("kernels:"), "{summary}");
        assert!(
            summary.contains(&format!("{} exp()", total.exp_calls)),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "snapshots {}h/{}m ({} B)",
                total.snapshot_hits, total.snapshot_misses, total.snapshot_bytes
            )),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "exp memo {}h/{}m",
                total.exp_memo_hits, total.exp_memo_misses
            )),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "noise: {} draws / {} fills",
                total.noise_draws, total.noise_fills
            )),
            "{summary}"
        );
        assert!(
            summary.contains(&format!("{} shared", total.cache_share_hits)),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "{} superseded ACT(s)",
                total.superseded_activations
            )),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "leak: {} skips, {} decay-vec hits, exp batch {} call(s) / {} lanes",
                total.leak_row_skips,
                total.decay_vec_hits,
                total.exp_batch_calls,
                total.exp_batch_lanes
            )),
            "{summary}"
        );
        assert!(
            summary.contains(&format!(
                "sched: {} merge(s) / {} ticks overlapped / {} fallback(s)",
                total.sched_merges, total.sched_overlapped_ticks, total.sched_fallbacks
            )),
            "{summary}"
        );

        let dir = std::env::temp_dir().join("fracdram_fleet_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.json");
        run.write_json("unit", path.to_str().unwrap(), |()| Json::from(0.0))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"perf\":{"), "{text}");
        assert!(
            text.contains(&format!("\"share_events\":{}", total.share_events)),
            "{text}"
        );
        for field in [
            format!("\"snapshot_hits\":{}", total.snapshot_hits),
            format!("\"snapshot_misses\":{}", total.snapshot_misses),
            format!("\"snapshot_bytes\":{}", total.snapshot_bytes),
            format!("\"exp_memo_hits\":{}", total.exp_memo_hits),
            format!("\"exp_memo_misses\":{}", total.exp_memo_misses),
            format!("\"noise_draws\":{}", total.noise_draws),
            format!("\"noise_fills\":{}", total.noise_fills),
            format!("\"cache_share_hits\":{}", total.cache_share_hits),
            format!(
                "\"superseded_activations\":{}",
                total.superseded_activations
            ),
            format!("\"leak_row_skips\":{}", total.leak_row_skips),
            format!("\"decay_vec_hits\":{}", total.decay_vec_hits),
            format!("\"exp_batch_calls\":{}", total.exp_batch_calls),
            format!("\"exp_batch_lanes\":{}", total.exp_batch_lanes),
            format!("\"sched_merges\":{}", total.sched_merges),
            format!(
                "\"sched_overlapped_ticks\":{}",
                total.sched_overlapped_ticks
            ),
            format!("\"sched_fallbacks\":{}", total.sched_fallbacks),
        ] {
            assert!(text.contains(&field), "{field} missing in {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_dump_is_valid_shape() {
        let dir = std::env::temp_dir().join("fracdram_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let run = run(&plan()[..2], 1, 1, |key, _| {
            (key.subarray as f64, RunMetrics::default())
        });
        run.write_json("unit", path.to_str().unwrap(), |v| Json::from(*v))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"experiment\":\"unit\""));
        assert!(text.contains("\"tasks\":["));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        let _ = run(&plan(), 0, 0, |_, _| ((), RunMetrics::default()));
    }

    /// The key for the task that the poisoned-fleet tests blow up.
    fn poison_key() -> TaskKey {
        TaskKey::new(GroupId::C, 0, 1)
    }

    fn poisoned_task(key: &TaskKey, seed: u64) -> (u64, RunMetrics) {
        assert!(
            *key != poison_key(),
            "injected poison at {key} (seed {seed})"
        );
        (seed.wrapping_mul(3), RunMetrics::default())
    }

    /// The headline robustness claim: a keep-going, 15-task fleet with
    /// one poisoned task completes the other 14 and reports the failure
    /// with its key, seed, and attempt — and the reports are identical
    /// at any job count. This is also the regression test for the old
    /// mutex-poisoning hazard: a worker panic must not take down the
    /// surviving reports.
    #[test]
    fn keep_going_survives_a_poisoned_task() {
        let mut plan = plan(); // 12 tasks
        for variant in 1..4 {
            plan.push(poison_key().with_variant(variant));
        }
        assert_eq!(plan.len(), 15);
        assert!(plan.contains(&poison_key()));
        let serial = run_with(&plan, 9, 1, FleetPolicy::keep_going(), poisoned_task);
        let parallel = run_with(&plan, 9, 8, FleetPolicy::keep_going(), poisoned_task);
        for fleet in [&serial, &parallel] {
            assert_eq!(fleet.tasks.len(), plan.len());
            assert_eq!(fleet.failed(), 1);
            assert_eq!(fleet.values().count(), 14);
            let failure = fleet.failures().next().unwrap();
            assert_eq!(failure.key, poison_key());
            assert_eq!(failure.seed, task_seed(9, &poison_key()));
            assert_eq!(failure.attempt, 0);
            assert!(failure.message.contains("injected poison"), "{failure}");
            let summary = fleet.summary();
            assert!(summary.contains("1 task(s) FAILED"), "{summary}");
            assert!(summary.contains("injected poison"), "{summary}");
            assert!(
                summary.contains(&format!("seed {} attempt 0", failure.seed)),
                "{summary}"
            );
        }
        let a: Vec<_> = serial.values().collect();
        let b: Vec<_> = parallel.values().collect();
        assert_eq!(a, b, "keep-going values must not depend on job count");
        let fa: Vec<_> = serial.failures().collect();
        let fb: Vec<_> = parallel.failures().collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn fail_fast_stops_claiming_tasks() {
        let plan = plan();
        let poison_index = plan.iter().position(|k| *k == poison_key()).unwrap();
        let fleet = run_with(&plan, 9, 1, FleetPolicy::fail_fast(), poisoned_task);
        assert_eq!(fleet.tasks.len(), plan.len());
        // Serial fail-fast: everything before the poison succeeds, the
        // poison fails, everything after is skipped.
        assert_eq!(fleet.values().count(), poison_index);
        assert_eq!(fleet.failed(), plan.len() - poison_index);
        let mut failures = fleet.failures();
        assert!(failures.next().unwrap().message.contains("injected poison"));
        for skipped in failures {
            assert!(skipped.message.contains("skipped"), "{skipped}");
        }
        let summary = fleet.summary();
        assert!(summary.contains("FAILED"), "{summary}");
    }

    #[test]
    fn retries_perturb_the_seed_deterministically() {
        let plan = plan();
        let flaky = |key: &TaskKey, seed: u64| {
            if *key == poison_key() {
                // Fails on its base seed and on the first retry; the
                // second retry (seed ^ 2) succeeds.
                assert!(
                    seed != task_seed(9, key) && seed != task_seed(9, key) ^ 1,
                    "flaky failure at attempt seed {seed}"
                );
            }
            (seed, RunMetrics::default())
        };
        let fleet = run_with(
            &plan,
            9,
            4,
            FleetPolicy::keep_going().with_retries(2),
            flaky,
        );
        assert_eq!(fleet.failed(), 0);
        let report = fleet.tasks.iter().find(|t| t.key == poison_key()).unwrap();
        assert_eq!(report.attempt, 2);
        assert_eq!(report.seed, task_seed(9, &poison_key()) ^ 2);
        assert_eq!(*report.value(), report.seed);
        // Every healthy task succeeded on its first attempt.
        for t in &fleet.tasks {
            if t.key != poison_key() {
                assert_eq!(t.attempt, 0);
                assert_eq!(t.seed, task_seed(9, &t.key));
            }
        }
        // A retry budget below the flake threshold records the failure
        // at the final attempted seed.
        let fleet = run_with(
            &plan,
            9,
            4,
            FleetPolicy::keep_going().with_retries(1),
            flaky,
        );
        assert_eq!(fleet.failed(), 1);
        let failure = fleet.failures().next().unwrap();
        assert_eq!(failure.attempt, 1);
        assert_eq!(failure.seed, task_seed(9, &poison_key()) ^ 1);
    }

    #[test]
    fn failures_surface_in_json_dump() {
        let dir = std::env::temp_dir().join("fracdram_fleet_failure_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failed.json");
        let fleet = run_with(&plan(), 9, 2, FleetPolicy::keep_going(), poisoned_task);
        fleet
            .write_json("unit", path.to_str().unwrap(), |v| Json::from(*v as f64))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"failed\":1"), "{text}");
        assert!(text.contains("\"result\":null"), "{text}");
        assert!(text.contains("injected poison"), "{text}");
        assert!(text.contains("\"attempt\":0"), "{text}");
        for field in [
            "\"fault_sense_flips\":0",
            "\"fault_stuck_pins\":0",
            "\"fault_decoder_drops\":0",
            "\"fault_env_commands\":0",
        ] {
            assert!(text.contains(field), "{field} missing in {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "fleet task failed")]
    fn value_accessor_panics_on_failure() {
        let fleet = run_with(&plan(), 9, 1, FleetPolicy::keep_going(), poisoned_task);
        let report = fleet.tasks.iter().find(|t| t.failure().is_some()).unwrap();
        let _ = report.value();
    }

    fn stream_cfg(items: u64, chunk: u64, jobs: usize) -> StreamConfig {
        StreamConfig {
            items,
            chunk,
            jobs,
            base_seed: 77,
            window: 0,
        }
    }

    /// The byte-identity claim for floats: a sum folded per chunk and
    /// merged in chunk order is a fixed expression tree, so the f64
    /// *bits* match between jobs 1 and jobs 8 even though f64 addition
    /// is not associative.
    #[test]
    fn stream_float_fold_is_bit_identical_across_job_counts() {
        let fold = |chunk: u64, range: std::ops::Range<u64>| {
            let mut sum = 0.0f64;
            let mut count = 0u64;
            for i in range {
                // Scale-diverse addends make any reassociation visible
                // in the low mantissa bits.
                let seed = item_seed(77, i);
                sum += (seed as f64) * 1e-19 + (chunk as f64) * 1e-3 + 0.1;
                count += 1;
            }
            (sum, count)
        };
        let merge = |a: &mut (f64, u64), b: (f64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        let serial = run_stream(&stream_cfg(10_000, 256, 1), fold, merge);
        let parallel = run_stream(&stream_cfg(10_000, 256, 8), fold, merge);
        let (sa, ca) = serial.result.unwrap();
        let (sp, cp) = parallel.result.unwrap();
        assert_eq!(
            sa.to_bits(),
            sp.to_bits(),
            "float merge must be bit-identical"
        );
        assert_eq!(ca, 10_000);
        assert_eq!(cp, 10_000);
        assert_eq!(serial.chunks, 40);
        assert!(serial.failures.is_empty() && parallel.failures.is_empty());
        // Serial merges strictly in order, so at most one accumulator
        // is ever pending.
        assert_eq!(serial.peak_pending, 1);
    }

    #[test]
    fn stream_window_bounds_pending_accumulators() {
        let cfg = StreamConfig {
            items: 4_000,
            chunk: 10,
            jobs: 8,
            base_seed: 1,
            window: 5,
        };
        let run = run_stream(&cfg, |_, range| range.count() as u64, |a, b| *a += b);
        assert_eq!(run.result, Some(4_000));
        assert_eq!(run.chunks, 400);
        // The claim gate admits at most `window` chunks past the merge
        // frontier, so the reducer can never have more than window + 1
        // outstanding (the +1 is the chunk being inserted before the
        // contiguous prefix drains).
        assert!(
            run.peak_pending <= 6,
            "peak_pending {} exceeded the window bound",
            run.peak_pending
        );
    }

    #[test]
    fn stream_handles_ragged_tail_and_empty_runs() {
        let run = run_stream(
            &stream_cfg(103, 10, 4),
            |_, r| r.sum::<u64>(),
            |a, b| *a += b,
        );
        assert_eq!(run.chunks, 11);
        assert_eq!(run.result, Some((0..103).sum()));
        let empty = run_stream(&stream_cfg(0, 10, 4), |_, r| r.sum::<u64>(), |a, b| *a += b);
        assert_eq!(empty.result, None);
        assert_eq!(empty.chunks, 0);
    }

    #[test]
    fn stream_item_seeds_are_index_pure() {
        assert_eq!(item_seed(9, 123), item_seed(9, 123));
        assert_ne!(item_seed(9, 123), item_seed(9, 124));
        assert_ne!(item_seed(9, 123), item_seed(10, 123));
    }

    #[test]
    fn stream_contains_a_panicking_chunk_without_deadlock() {
        let run = run_stream(
            &stream_cfg(1_000, 100, 4),
            |chunk, range| {
                assert!(chunk != 3, "injected stream poison");
                range.count() as u64
            },
            |a, b| *a += b,
        );
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].chunk, 3);
        assert!(run.failures[0].message.contains("injected stream poison"));
        // Chunks 0..3 were produced before the poison; the stop keeps
        // the run from finishing the plan, and the caller treats the
        // failure list as fatal.
        assert!(run.result.unwrap() >= 300);
    }
}
