//! Spans, the layer breakdown, and the in-process replicas of the batch
//! workloads.
//!
//! A replica re-runs a workload through the same public functions its
//! binary calls, wrapping each call into a layer in a span. Spans live
//! in memory and are written out once, at the end of the run. A span's
//! self time is its duration minus the spans it caused on the same
//! thread; spans caused on another thread (fleet workers) run in
//! parallel and are not subtracted.
//!
//! The breakdown accounts for `jobs × wall` thread-seconds: every
//! layer's self time, plus the idle time no thread spent in a span,
//! plus a residual — self time of the structural spans (`replica`,
//! `task`, `chunk`, `die`) that no layer claims.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fracdram::fmaj::{combo_breakdown, FmajConfig};
use fracdram::puf::{challenge_set, evaluate_set, Challenge};
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::fleet::{self, item_seed, run_stream, StreamConfig};
use fracdram_experiments::population as pop;
use fracdram_experiments::store::{
    DieRecord, StoreHeader, StoreReader, StoreWriter, FLAG_PUF_VALID,
};
use fracdram_experiments::{setup, tasks, FleetPolicy, Json, TaskKey};
use fracdram_model::{Geometry, GroupId, ModelPerf, RowAddr, Seconds, SubarrayAddr};
use fracdram_softmc::CycleStats;
use fracdram_stats::bits::BitVec;
use fracdram_stats::hamming::normalized_distance;
use fracdram_stats::rng::Rng;
use fracdram_stats::Summary;

/// Spans whose self time is waiting on other threads, not work.
const WAITS: [&str; 2] = ["fleet", "stream"];

/// Spans that structure the run; their self time is the residual.
const STRUCTURE: [&str; 4] = ["replica", "task", "chunk", "die"];

/// Spans that call into the controller; their self time splits into
/// controller (softmc) self time, model kernels and noise.
const CONTROLLER_CALLS: [&str; 6] = [
    "core.fmaj",
    "core.maj3",
    "core.combo",
    "core.puf",
    "pop.puf",
    "pop.retention",
];

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within its tracer.
    pub id: u64,
    /// The span that caused this one, possibly on another thread.
    pub parent: Option<u64>,
    /// Layer or structure name.
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_number() -> u64 {
    THREAD.with(|t| {
        let n = t
            .get()
            .unwrap_or_else(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        t.set(Some(n));
        n
    })
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent);
        f()
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// An open span.
#[derive(Debug)]
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open<'_> {
    /// The span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> Option<u64> {
        Some(self.id)
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: thread_number(),
            start: self.start - self.tracer.epoch,
            end: Instant::now() - self.tracer.epoch,
        };
        // Never panic in drop: a poisoned buffer only loses spans.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Sum of the durations of every span named `name`, in seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time of every span: its duration minus the durations of its
/// children on the same thread.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let thread_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.secs())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if thread_of.get(&parent) == Some(&s.thread) {
                if let Some(t) = own.get_mut(&parent) {
                    *t -= s.secs();
                }
            }
        }
    }
    own
}

/// Where the thread-seconds of a traced run went.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// `jobs × wall`, in seconds.
    pub capacity_s: f64,
    /// `(layer, seconds)` rows, in a fixed order, excluding idle and
    /// residual.
    pub layers: Vec<(String, f64)>,
    /// Thread-seconds no thread spent in a span.
    pub idle_s: f64,
    /// Self time of structural spans: measured, but claimed by no layer.
    pub residual_s: f64,
}

impl Breakdown {
    /// Builds the breakdown of `spans` over `jobs × wall`, splitting the
    /// controller calls' self time with the model's own kernel and noise
    /// timers (`perf`).
    pub fn of(spans: &[Span], jobs: usize, wall: f64, perf: &ModelPerf) -> Breakdown {
        let own = self_times(spans);
        let capacity = jobs as f64 * wall;
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        let mut busy = 0.0;
        for s in spans {
            if WAITS.contains(&s.name) {
                continue;
            }
            let t = own[&s.id];
            busy += t;
            if STRUCTURE.contains(&s.name) {
                continue;
            }
            let layer = if CONTROLLER_CALLS.contains(&s.name) {
                "softmc.self"
            } else {
                s.name
            };
            *by_layer.entry(layer.to_string()).or_default() += t;
        }
        let kernels = [
            ("model.share", perf.share_ns),
            ("model.sense", perf.sense_ns),
            ("model.close", perf.close_ns),
            ("model.leak", perf.leak_ns),
            ("model.noise", perf.noise_ns),
        ];
        for (layer, ns) in kernels {
            let secs = ns as f64 / 1e9;
            *by_layer.entry("softmc.self".to_string()).or_default() -= secs;
            by_layer.insert(layer.to_string(), secs);
        }
        let layers: Vec<(String, f64)> = by_layer.into_iter().collect();
        let attributed: f64 = layers.iter().map(|(_, t)| t).sum();
        Breakdown {
            capacity_s: capacity,
            idle_s: capacity - busy,
            residual_s: busy - attributed,
            layers,
        }
    }

    /// Seconds attributed to `layer` (0 when absent).
    pub fn layer(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(name, _)| name == layer)
            .map_or(0.0, |(_, t)| *t)
    }

    /// Layers + idle + residual: equals [`Breakdown::capacity_s`] up to
    /// rounding.
    pub fn sum(&self) -> f64 {
        self.layers.iter().map(|(_, t)| t).sum::<f64>() + self.idle_s + self.residual_s
    }

    /// The breakdown as one JSON object.
    pub fn to_json(&self) -> Json {
        let layers = Json::Obj(
            self.layers
                .iter()
                .map(|(name, t)| (name.clone(), Json::Num(*t)))
                .collect(),
        );
        Json::obj()
            .field("capacity_s", self.capacity_s)
            .field("layers", layers)
            .field("idle_s", self.idle_s)
            .field("residual_s", self.residual_s)
    }
}

/// Writes every span as one JSON line, then the breakdown, to `path`.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_trace(path: &Path, spans: &[Span], breakdown: &Json) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj()
            .field("id", s.id)
            .field("parent", s.parent.map_or(Json::Null, Json::from))
            .field("name", s.name)
            .field("thread", s.thread)
            .field("start_us", s.start.as_secs_f64() * 1e6)
            .field("end_us", s.end.as_secs_f64() * 1e6);
        writeln!(out, "{line}")?;
    }
    writeln!(out, "{}", Json::obj().field("breakdown", breakdown.clone()))?;
    out.flush()
}

/// What a batch replica did, for the per-layer metrics and the checks
/// against its binary.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Replica wall time (the `replica` span), in seconds.
    pub wall: f64,
    /// Spans recorded.
    pub spans: Vec<Span>,
    /// Controller command counters of every controller used.
    pub stats: CycleStats,
    /// Model counters of every controller used.
    pub perf: ModelPerf,
    /// Controller commands over the part of the run the binary's own
    /// `--json` counts (the fleet, or every die): must repeat exactly.
    pub fleet_commands: u64,
    /// Kernel events over the same part.
    pub fleet_events: u64,
    /// F-MAJ trials run.
    pub fmaj_trials: u64,
    /// MAJ3 trials run.
    pub maj3_trials: u64,
    /// PUF challenge evaluations run.
    pub puf_evals: u64,
    /// Population only: `(records, digest)` of the store written.
    pub store: Option<(u64, u64)>,
    /// Population only: the stream's peak pending accumulators.
    pub peak_pending: u64,
}

fn fleet_totals(replica: &mut Replica, stats: &CycleStats, perf: &ModelPerf) {
    replica.stats.accumulate(stats);
    replica.perf.accumulate(perf);
    replica.fleet_commands = stats.commands;
    replica.fleet_events = perf.events();
}

fn finish(tracer: Tracer, mut replica: Replica) -> Replica {
    replica.spans = tracer.spans();
    replica.wall = total(&replica.spans, "replica");
    replica
}

/// Replays `fig10_fmaj_stability --trials T --modules M --subarrays S
/// --jobs J --seed SEED` in-process: the serial per-combination sweep,
/// then the stability fleet, then the CDF statistics.
pub fn fig10(trials: usize, modules: usize, subarrays: usize, jobs: usize, seed: u64) -> Replica {
    let tracer = Tracer::new();
    let mut replica = Replica::default();
    {
        let root = tracer.span("replica", None);
        let mut mc = tracer.time("setup.build", root.id(), || {
            setup::controller(GroupId::C, setup::compute_geometry(), seed)
        });
        let geometry = *mc.module().geometry();
        let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), GroupId::C).expect("quad");
        tracer.time("core.combo", root.id(), || {
            for frac_ops in 0..=5 {
                let config = FmajConfig {
                    frac_role: 0,
                    init_ones: true,
                    frac_ops,
                };
                std::hint::black_box(combo_breakdown(&mut mc, &quad, &config).expect("breakdown"));
            }
        });
        replica.stats.accumulate(mc.stats());
        replica.perf.accumulate(&mc.model_perf());

        let mut plan = Vec::new();
        for group in [GroupId::B, GroupId::C] {
            for m in 0..modules {
                for s in 0..subarrays {
                    plan.push(TaskKey::new(group, m, s));
                }
            }
        }
        let run = {
            let wait = tracer.span("fleet", root.id());
            let parent = wait.id();
            fleet::run_with(
                &plan,
                seed,
                jobs,
                FleetPolicy::fail_fast(),
                |key, task_seed| {
                    let task = tracer.span("task", parent);
                    let mut mc = tracer.time("setup.build", task.id(), || {
                        setup::controller(
                            key.group,
                            setup::compute_geometry(),
                            seed + 100 + key.module as u64,
                        )
                    });
                    let geometry = *mc.module().geometry();
                    let sa = SubarrayAddr::new(
                        key.subarray % geometry.banks,
                        key.subarray / geometry.banks,
                    );
                    let quad = Quad::canonical(&geometry, sa, key.group).expect("quad");
                    let config = FmajConfig::best_for(key.group);
                    let mut rng = Rng::seed_from_u64(task_seed);
                    let fmaj = tracer.time("core.fmaj", task.id(), || {
                        tasks::stability_fmaj(&mut mc, &quad, &config, trials, &mut rng)
                    });
                    let maj3 = (key.group == GroupId::B).then(|| {
                        let triplet = Triplet::first(&geometry, sa);
                        tracer.time("core.maj3", task.id(), || {
                            tasks::stability_maj3(&mut mc, &triplet, trials, &mut rng)
                        })
                    });
                    tracer.time("setup.reclaim", task.id(), || {
                        setup::reclaim_caches(&mut mc)
                    });
                    ((fmaj, maj3), mc.metrics())
                },
            )
        };
        assert_eq!(run.failed(), 0, "fig10 replica: fleet task failed");
        fleet_totals(&mut replica, &run.total_stats(), &run.total_perf());
        tracer.time("render", root.id(), || {
            for group in [GroupId::B, GroupId::C] {
                let mut fmaj = Vec::new();
                let mut maj3 = Vec::new();
                for report in run.tasks.iter().filter(|t| t.key.group == group) {
                    let (f, m) = report.value();
                    fmaj.extend_from_slice(f);
                    if let Some(m) = m {
                        maj3.extend_from_slice(m);
                    }
                }
                for stability in [&fmaj, &maj3] {
                    if !stability.is_empty() {
                        std::hint::black_box(cdf_summary(stability));
                    }
                }
            }
        });
        let cells = (modules * subarrays) as u64;
        replica.fmaj_trials = 2 * cells * trials as u64;
        replica.maj3_trials = cells * trials as u64;
    }
    finish(tracer, replica)
}

/// The statistics `print_cdf` renders for one stability sample.
fn cdf_summary(stability: &[f64]) -> [f64; 5] {
    use fracdram_stats::summary::quantile;
    let n = stability.len() as f64;
    [
        stability.iter().filter(|&&s| s >= 1.0).count() as f64 / n,
        1.0 - stability.iter().sum::<f64>() / n,
        quantile(stability, 0.01),
        quantile(stability, 0.10),
        quantile(stability, 0.50),
    ]
}

/// Replays `fig11_puf_hd --challenges C --modules M --jobs J --seed
/// SEED` in-process: the PUF fleet (two passes per module), then the
/// Hamming-distance analysis.
pub fn fig11(challenges: usize, modules: usize, jobs: usize, seed: u64) -> Replica {
    let tracer = Tracer::new();
    let mut replica = Replica::default();
    {
        let root = tracer.span("replica", None);
        let geometry = setup::puf_geometry(1024);
        let set = challenge_set(&geometry, challenges, seed);
        let groups: Vec<GroupId> = GroupId::frac_capable_groups().collect();
        let mut plan = Vec::new();
        for &group in &groups {
            for m in 0..modules {
                plan.push(TaskKey::new(group, m, 0));
            }
        }
        let run = {
            let wait = tracer.span("fleet", root.id());
            let parent = wait.id();
            fleet::run_with(&plan, seed, jobs, FleetPolicy::fail_fast(), |key, _| {
                let task = tracer.span("task", parent);
                let mut mc = tracer.time("setup.build", task.id(), || {
                    setup::chips_controller(key.group, geometry, seed + key.module as u64, 1)
                });
                let (first, second) = tracer.time("core.puf", task.id(), || {
                    (
                        evaluate_set(&mut mc, &set).expect("puf"),
                        evaluate_set(&mut mc, &set).expect("puf"),
                    )
                });
                tracer.time("setup.reclaim", task.id(), || {
                    setup::reclaim_caches(&mut mc)
                });
                ((first, second), mc.metrics())
            })
        };
        assert_eq!(run.failed(), 0, "fig11 replica: fleet task failed");
        fleet_totals(&mut replica, &run.total_stats(), &run.total_perf());
        tracer.time("render", root.id(), || {
            let mut first_by_group: Vec<Vec<&Vec<BitVec>>> = Vec::new();
            for &group in &groups {
                let reports: Vec<_> = run.tasks.iter().filter(|t| t.key.group == group).collect();
                let mut intra = Vec::new();
                let mut weights = Vec::new();
                let mut first = Vec::new();
                for report in &reports {
                    let (a, b) = report.value();
                    intra.extend(a.iter().zip(b).map(|(x, y)| normalized_distance(x, y)));
                    weights.extend(a.iter().map(BitVec::hamming_weight));
                    first.push(a);
                }
                let mut inter = Vec::new();
                for a in 0..first.len() {
                    for b in a + 1..first.len() {
                        inter.extend(
                            first[a]
                                .iter()
                                .zip(first[b].iter())
                                .map(|(x, y)| normalized_distance(x, y)),
                        );
                    }
                }
                std::hint::black_box((
                    Summary::of(&intra),
                    Summary::of(&inter),
                    Summary::of(&weights),
                ));
                first_by_group.push(first);
            }
            let mut cross = Vec::new();
            for a in 0..first_by_group.len() {
                for b in a + 1..first_by_group.len() {
                    for ma in &first_by_group[a] {
                        for mb in &first_by_group[b] {
                            cross.extend(
                                ma.iter()
                                    .zip(mb.iter())
                                    .map(|(x, y)| normalized_distance(x, y)),
                            );
                        }
                    }
                }
            }
            std::hint::black_box(Summary::of(&cross));
        });
        replica.puf_evals = (2 * challenges * plan.len()) as u64;
    }
    finish(tracer, replica)
}

// `pack_bitvec`, `pack_bools` and `mismatch_fraction` repeat private
// helpers of `population::simulate_die`; a traced run fails if the
// replica's store stops matching the binary's byte for byte.
fn pack_bitvec(bits: &BitVec, out: &mut [u8]) {
    for (i, bit) in bits.iter().enumerate().take(out.len() * 8) {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

fn pack_bools(bits: &[bool], out: &mut [u8]) {
    for (i, &bit) in bits.iter().enumerate().take(out.len() * 8) {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

fn mismatch_fraction(read: &[bool], wrote: &[bool]) -> f32 {
    let fails = read.iter().zip(wrote).filter(|(r, w)| r != w).count();
    fails as f32 / wrote.len().max(1) as f32
}

/// Fingerprint reservoir capacity, the `population` default.
const SAMPLE: usize = 256;

/// Replays `population --dies N --chunk C --jobs J --seed SEED --store
/// PATH` in-process: the die stream with the store written by the
/// reducer, then the uniqueness and classifier passes. Each die goes
/// through the public calls `population::simulate_die` makes, so the
/// store must match the binary's byte for byte.
pub fn population(dies: u64, chunk: u64, jobs: usize, seed: u64, store: &Path) -> Replica {
    let tracer = Tracer::new();
    let mut replica = Replica::default();
    {
        let root = tracer.span("replica", None);
        let header = StoreHeader {
            chunk,
            base_seed: seed,
            dies,
        };
        let writer = Mutex::new(StoreWriter::create(store, header).expect("create replica store"));
        let flush = |acc: &mut pop::PopAccum| {
            if !acc.records.is_empty() {
                let mut w = writer.lock().expect("store writer poisoned");
                w.append_chunk(&acc.records)
                    .expect("append to replica store");
                acc.records.clear();
            }
        };
        let cfg = StreamConfig {
            items: dies,
            chunk,
            jobs,
            base_seed: seed,
            window: 0,
        };
        let run = {
            let wait = tracer.span("stream", root.id());
            let parent = wait.id();
            run_stream(
                &cfg,
                |_, range| {
                    let chunk_span = tracer.span("chunk", parent);
                    let mut acc = pop::PopAccum::new(seed, SAMPLE);
                    for i in range {
                        let die = tracer.span("die", chunk_span.id());
                        let (record, metrics) =
                            traced_die(&tracer, die.id(), pop::group_of(i), item_seed(seed, i));
                        tracer.time("pop.fold", die.id(), || {
                            acc.stats.accumulate(&metrics.cycles);
                            acc.perf.accumulate(&metrics.model);
                            acc.push(seed, i, &record);
                        });
                    }
                    acc
                },
                |total, mut incoming| {
                    tracer.time("pop.store", parent, || {
                        flush(total);
                        flush(&mut incoming);
                    });
                    tracer.time("pop.fold", parent, || total.merge(&incoming));
                },
            )
        };
        assert!(run.failures.is_empty(), "population replica: chunk failed");
        let mut accum = run
            .result
            .unwrap_or_else(|| pop::PopAccum::new(seed, SAMPLE));
        tracer.time("pop.store", root.id(), || flush(&mut accum));
        let done = tracer.time("pop.store", root.id(), || {
            writer
                .into_inner()
                .expect("store writer poisoned")
                .finish()
                .expect("finish replica store")
        });
        tracer.time("render", root.id(), || {
            std::hint::black_box(pop::uniqueness(&accum.reservoir));
            let centroids = pop::Centroids::from_accum(&accum);
            let mut reader = StoreReader::open(store).expect("reopen replica store");
            let mut confusion = pop::Confusion::default();
            let mut index = 0u64;
            while let Some(record) = reader.next_record().expect("read replica store") {
                if !pop::is_train(seed, index) {
                    confusion.record(record.group as usize, centroids.classify(&record.features));
                }
                index += 1;
            }
            std::hint::black_box(confusion.accuracy());
        });
        fleet_totals(&mut replica, &accum.stats, &accum.perf);
        replica.puf_evals = 2 * accum.puf_valid;
        replica.store = Some(done);
        replica.peak_pending = run.peak_pending as u64;
    }
    finish(tracer, replica)
}

/// `population::simulate_die`, call for call, with each call into a
/// layer in its own span.
fn traced_die(
    tracer: &Tracer,
    parent: Option<u64>,
    group: GroupId,
    die_seed: u64,
) -> (DieRecord, fracdram_softmc::RunMetrics) {
    let mut mc = tracer.time("setup.build", parent, || {
        setup::controller(group, Geometry::tiny(), die_seed)
    });
    let mut features = [0f32; 4];
    let mut fingerprint = [0u8; 16];
    let mut flags = 0u8;
    if group.profile().supports_frac() {
        tracer.time("pop.puf", parent, || {
            let challenges = [Challenge::new(0, 10), Challenge::new(1, 33)];
            let responses = evaluate_set(&mut mc, &challenges).expect("frac-capable PUF");
            pack_bitvec(&responses[0], &mut fingerprint[0..8]);
            pack_bitvec(&responses[1], &mut fingerprint[8..16]);
            features[0] =
                ((responses[0].hamming_weight() + responses[1].hamming_weight()) / 2.0) as f32;
            features[1] = normalized_distance(&responses[0], &responses[1]) as f32;
        });
        flags = FLAG_PUF_VALID;
    }
    let (read4, read12) = tracer.time("pop.retention", parent, || {
        let row = RowAddr::new(0, 50);
        let pattern = fracdram::frac::physical_pattern(&mut mc, row, true);
        mc.write_row(row, &pattern).expect("retention write");
        mc.wait_seconds(Seconds::from_hours(4.0));
        let read4 = mc.read_row(row).expect("retention read @4h");
        features[2] = mismatch_fraction(&read4, &pattern);
        mc.write_row(row, &pattern).expect("retention rewrite");
        mc.wait_seconds(Seconds::from_hours(12.0));
        let read12 = mc.read_row(row).expect("retention read @12h");
        features[3] = mismatch_fraction(&read12, &pattern);
        (read4, read12)
    });
    if flags & FLAG_PUF_VALID == 0 {
        pack_bools(&read4, &mut fingerprint[0..8]);
        pack_bools(&read12, &mut fingerprint[8..16]);
    }
    let metrics = mc.metrics();
    tracer.time("setup.reclaim", parent, || setup::reclaim_caches(&mut mc));
    (
        DieRecord {
            seed: die_seed,
            group,
            flags,
            features,
            fingerprint,
        },
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, thread: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread,
            start: Duration::from_millis(a),
            end: Duration::from_millis(b),
        }
    }

    #[test]
    fn breakdown_adds_up_to_capacity() {
        // Main thread: replica 0..100 ms with a 20 ms build, then a
        // fleet wait 20..100; two workers run tasks in parallel.
        let spans = vec![
            span(0, None, "replica", 0, 0, 100),
            span(1, Some(0), "setup.build", 0, 0, 20),
            span(2, Some(0), "fleet", 0, 20, 100),
            span(3, Some(2), "task", 1, 20, 90),
            span(4, Some(3), "core.fmaj", 1, 25, 85),
            span(5, Some(2), "task", 2, 20, 60),
            span(6, Some(5), "setup.build", 2, 20, 30),
        ];
        let perf = ModelPerf {
            sense_ns: 10_000_000,
            noise_ns: 5_000_000,
            ..ModelPerf::default()
        };
        let b = Breakdown::of(&spans, 2, 0.1, &perf);
        assert!((b.sum() - b.capacity_s).abs() < 1e-12);
        assert!((b.layer("setup.build") - 0.030).abs() < 1e-12);
        assert!((b.layer("softmc.self") - 0.045).abs() < 1e-12);
        assert!((b.layer("model.sense") - 0.010).abs() < 1e-12);
        // Busy: main 20, worker 1 70, worker 2 40 → idle 200 - 130.
        assert!((b.idle_s - 0.070).abs() < 1e-12);
        // Task self times (10 + 30) are the residual.
        assert!((b.residual_s - 0.040).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("replica", None);
            std::thread::scope(|s| {
                s.spawn(|| tracer.time("task", root.id(), || ()));
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "replica").unwrap();
        let task = spans.iter().find(|s| s.name == "task").unwrap();
        assert_eq!(task.parent, Some(root.id));
        assert_ne!(task.thread, root.thread);
        assert_eq!(self_times(&spans)[&root.id], root.secs());
    }
}
