//! The benchmark's frozen definitions: workloads, their sizes and
//! rates, the pinned output digests, and the names and units of every
//! metric a run emits. Changing anything here changes the benchmark, so
//! a change that claims a gain leaves this file alone.

use std::collections::BTreeMap;

use fracdram_experiments::Json;

/// Seed used when `--seed` is not given; the golden digests below are
/// pinned at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads and generator connections: sized for a 2-vCPU host.
pub const JOBS: usize = 2;

/// The four workloads, one per entry point plus a second figure run
/// that stresses the opposite side of the shared model layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write-heavy figure run (F-MAJ / MAJ3 stability, Fig. 10).
    Fig10,
    /// Read- and leakage-heavy figure run (PUF Hamming distances, Fig. 11).
    Fig11,
    /// Population streaming: every die is new silicon.
    Pop,
    /// Open-loop Poisson traffic against the service daemon.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig10,
        Workload::Fig11,
        Workload::Pop,
        Workload::Serve,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10 => "fig10-fmaj",
            Workload::Fig11 => "fig11-puf",
            Workload::Pop => "pop-stream",
            Workload::Serve => "serve-open",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The batch definition, or `None` for the serving workload.
    pub fn batch(self) -> Option<&'static Batch> {
        match self {
            Workload::Fig10 => Some(&FIG10),
            Workload::Fig11 => Some(&FIG11),
            Workload::Pop => Some(&POP),
            Workload::Serve => None,
        }
    }
}

/// How large one invocation of a batch binary is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size (about a second per invocation, so a run's
    /// median rests on many invocations); traced runs use it too.
    Measured,
    /// The smallest valid invocation: the set-up probe.
    Setup,
}

/// A batch workload: one release binary run at a frozen size.
#[derive(Debug)]
pub struct Batch {
    /// Binary name under the release directory.
    pub binary: &'static str,
    /// Size flags, in the order of the values below.
    pub flags: &'static [&'static str],
    /// Flag values of a measured invocation.
    pub measured: &'static [u64],
    /// Flag values of a set-up probe.
    pub setup: &'static [u64],
    /// FNV-1a64 of a measured invocation's stdout at [`DEFAULT_SEED`].
    pub golden: u64,
}

/// `fig10_fmaj_stability`: 64 fleet tasks (B and C × 4 modules × 8
/// sub-arrays).
pub const FIG10: Batch = Batch {
    binary: "fig10_fmaj_stability",
    flags: &["--trials", "--modules", "--subarrays"],
    measured: &[600, 4, 8],
    setup: &[1, 1, 1],
    golden: 0x98bf_4c56_fc88_263a,
};

/// `fig11_puf_hd`: 9 frac-capable groups × modules tasks, two passes
/// over the challenge set each.
pub const FIG11: Batch = Batch {
    binary: "fig11_puf_hd",
    flags: &["--challenges", "--modules"],
    measured: &[40, 10],
    setup: &[1, 1],
    golden: 0xb9c5_5b0a_be05_3921,
};

/// `population`: fresh dies streamed in 600-die chunks.
pub const POP: Batch = Batch {
    binary: "population",
    flags: &["--dies", "--chunk"],
    measured: &[12_000, 600],
    setup: &[1, 1],
    golden: 0x761a_2efd_58d5_836a,
};

impl Batch {
    /// The flag values at `scale`.
    pub fn values(&self, scale: Scale) -> &'static [u64] {
        match scale {
            Scale::Measured => self.measured,
            Scale::Setup => self.setup,
        }
    }

    /// Size arguments at `scale`, plus the fixed job count and `seed`.
    pub fn args(&self, scale: Scale, seed: u64) -> Vec<String> {
        let mut args = Vec::new();
        for (flag, value) in self.flags.iter().zip(self.values(scale)) {
            args.push(flag.to_string());
            args.push(value.to_string());
        }
        for (flag, value) in [("--jobs", JOBS as u64), ("--seed", seed)] {
            args.push(flag.to_string());
            args.push(value.to_string());
        }
        args
    }

    /// Work units one invocation completes at `scale`: F-MAJ + MAJ3
    /// trials (group B runs both, group C only F-MAJ), PUF evaluations
    /// (two passes × 9 groups), or dies.
    pub fn units(&self, scale: Scale) -> u64 {
        let v = self.values(scale);
        match self.binary {
            "fig10_fmaj_stability" => 3 * v[0] * v[1] * v[2],
            "fig11_puf_hd" => 2 * 9 * v[0] * v[1],
            _ => v[0],
        }
    }
}

/// The serving workload's daemon and traffic.
pub mod serve {
    /// Addressable dies in the pool.
    pub const DIES: usize = 16;
    /// Shard worker threads.
    pub const SHARDS: usize = 2;
    /// Per-shard queue bound. The daemon's default of 64 sheds requests
    /// during a host stall of ~40 ms at the `high` rate, which a shared
    /// 2-vCPU host produces now and then; 1024 rides out ~0.7 s, so the
    /// ladder fails no request while the max-rate search still sees the
    /// backlog in its p99 and tail conditions.
    pub const QUEUE_DEPTH: usize = 1024;
    /// The rate ladder's steps and their offered rates (req/s, both
    /// connections together); see `README.md` for how the rates were
    /// chosen. `low` recurs at the start, middle and end, so the latency
    /// metric samples the whole run; a step's repeats are pooled.
    pub const LADDER: [(&str, f64); 5] = [
        ("low", 1000.0),
        ("mid", 2000.0),
        ("low", 1000.0),
        ("high", 3000.0),
        ("low", 1000.0),
    ];
    /// Share of `--seconds` each step of [`LADDER`] runs.
    pub const STEP_SHARE: f64 = 0.13;
    /// Share of `--seconds` an untraced run spends replaying the
    /// reference journal after each step of [`LADDER`].
    pub const REPLAY_SHARE: f64 = 0.06;
    /// Requests per drain when the reference journal is written
    /// in-process; it sets only how often the journal is committed.
    pub const REFERENCE_DRAIN: usize = 64;
    /// Length of the unreported warm-up step at the `low` rate, which
    /// builds every die before the first measured request.
    pub const WARM_SECONDS: f64 = 0.5;
    /// Latency limit of the max-rate search, on p99.
    pub const P99_LIMIT_MS: f64 = 5.0;
    /// Window at the end of a probe whose completions show a backlog.
    pub const TAIL: std::time::Duration = std::time::Duration::from_secs(1);
    /// Share of the offered rate the last [`TAIL`] must complete.
    pub const TAIL_SHARE: f64 = 0.95;
    /// Offered rates (req/s) bracketing the max-rate search: the lower
    /// is assumed sustainable, the upper not.
    pub const SEARCH: (f64, f64) = (500.0, 40_000.0);
    /// Length of one max-rate probe.
    pub const PROBE_SECONDS: f64 = 4.0;
    /// The search stops when its bracket is this narrow (relative).
    pub const RESOLUTION: f64 = 0.05;
    /// Daemon spawns timed for the set-up metric at each of three points
    /// of the run: before the ladder, and before and after the dump of
    /// the daemon's journal.
    pub const SETUP_SPAWNS: usize = 5;
    /// `--recover-dump` runs over the ladder's journal in a traced run;
    /// their median wall is `serve.recover_s`.
    pub const RECOVER_RUNS: usize = 3;
    /// The step whose median latency is the end-to-end latency metric.
    /// At `low` nearly every request finds the daemon idle and takes the
    /// same path; its p50 spread less from run to run than `mid`'s or
    /// `high`'s, which a slow spell of a shared host pushes towards
    /// saturation, or than the median of the three.
    pub const LATENCY_STEP: &str = "low";
}

/// Minimal invocations timed for a batch workload's set-up metric after
/// each measured invocation.
pub const SETUP_PROBES: usize = 2;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with their units. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("fleet.busy_s", "s"),
    ("fleet.idle_frac", "ratio"),
    ("setup.build_ms", "ms"),
    ("setup.cache_share_hits", "count"),
    ("core.fmaj_trial_us", "us"),
    ("core.maj3_trial_us", "us"),
    ("core.puf_eval_us", "us"),
    ("softmc.self_s", "s"),
    ("softmc.commands", "count"),
    ("softmc.sched_merges", "count"),
    ("model.share_s", "s"),
    ("model.sense_s", "s"),
    ("model.close_s", "s"),
    ("model.leak_s", "s"),
    ("model.noise_s", "s"),
    ("model.events", "count"),
    ("model.columns", "count"),
    ("model.noise_draws", "count"),
    ("model.cache_misses", "count"),
    ("model.cache_hit_ratio", "ratio"),
    ("model.snapshot_hit_ratio", "ratio"),
    ("model.exp_calls", "count"),
    ("model.exp_memo_hit_ratio", "ratio"),
    ("model.exp_batch_lanes", "count"),
    ("model.decay_vec_hits", "count"),
    ("model.leak_row_skips", "count"),
    ("pop.build_s", "s"),
    ("pop.puf_s", "s"),
    ("pop.retention_s", "s"),
    ("pop.fold_s", "s"),
    ("pop.store_s", "s"),
    ("pop.peak_pending", "count"),
    ("serve.parse_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.wal_commit_us", "us"),
    ("serve.wal_bytes_per_req", "B"),
    ("serve.drain_mean", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.residual_us", "us"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.journal_entries", "count"),
    ("serve.recover_s", "s"),
    ("serve.max_rps", "req/s"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p50_ms.mid", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p99_ms.mid", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("trace.wall_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("error_rate", "ratio"),
];

/// A named set of metric values; every name must come from
/// [`END_TO_END`] or [`PER_LAYER`], which supply the unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every per-layer metric, zeroed.
    pub fn per_layer() -> Metrics {
        Metrics {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a declared metric: a typo here would
    /// otherwise silently drop a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name:?}"));
        self.values.insert(key, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values
            .iter()
            .map(|(&name, &value)| (name, value, unit_of(name).map_or("", |(_, u)| u)))
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj().field("value", value).field("unit", unit),
                    )
                })
                .collect(),
        )
    }
}

/// The declared `(name, unit)` pair for `name`.
pub fn unit_of(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .copied()
}
