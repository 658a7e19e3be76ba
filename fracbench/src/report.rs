//! Run options, run outcomes, the result line, and the provenance every
//! stored result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

use fracdram_experiments::Json;

use crate::spec::Metrics;

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Directory of the release binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for this run (stores, WALs, traces).
    pub work: PathBuf,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: invocations for batch workloads, requests
    /// and process runs for serving, plus one per output check.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The metrics this run reports.
    pub metrics: Metrics,
    /// Human-readable lines: measurements and failed checks.
    pub notes: Vec<String>,
    /// Workload-specific provenance (WAL filesystem, generator
    /// lateness).
    pub provenance: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
            provenance: Json::obj(),
        }
    }
}

impl Outcome {
    /// Whether every operation and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(format!("FAILED: {why}"));
    }

    /// Records a line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line a run prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", self.metrics.to_json())
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        // Never let git find a repository above the measured tree.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Whether `git status --porcelain` output shows changes outside the
/// build and work directories.
pub fn is_dirty(porcelain: &str, ignored: &[&str]) -> bool {
    porcelain.lines().any(|line| {
        let path = line.get(3..).unwrap_or_default().trim_matches('"');
        !ignored.iter().any(|dir| path.starts_with(dir))
    })
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/mounts` that contains it.
pub fn fs_type(path: &Path) -> String {
    let resolved = path
        .canonicalize()
        .or_else(|_| std::env::current_dir())
        .unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let kind = fields.next()?;
            resolved
                .starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Where and with what the result was measured: the revision of the
/// measured tree (its own `HEAD`, not a parent), whether it had local
/// changes, the host's parallelism and the compiler.
pub fn provenance(work: &Path, extra: &Json) -> Json {
    let rev = command_output("git", &["rev-parse", "HEAD"]);
    let work_dir = work
        .components()
        .next()
        .map(|c| c.as_os_str().to_string_lossy().into_owned() + "/")
        .unwrap_or_default();
    let dirty = command_output("git", &["status", "--porcelain"])
        .filter(|_| rev.is_some())
        .map(|p| is_dirty(&p, &["target/", ".bench_build/", &work_dir]));
    let mut doc = Json::obj()
        .field("rev", rev.unwrap_or_else(|| "unknown".to_string()))
        .field("dirty", dirty.map_or(Json::Null, Json::Bool))
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .field(
            "rustc",
            command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        );
    if let Json::Obj(fields) = extra {
        for (k, v) in fields {
            doc = doc.field(k, v.clone());
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_ignores_build_and_work_dirs() {
        let ignored = ["target/", ".bench_work/"];
        assert!(!is_dirty("", &ignored));
        assert!(!is_dirty("?? target/release/x\n?? .bench_work/a", &ignored));
        assert!(is_dirty(" M crates/core/src/lib.rs", &ignored));
        assert!(is_dirty("?? \"odd name.rs\"", &ignored));
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.set("setup_s", 0.5);
        let line = out.result_line();
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }
}
