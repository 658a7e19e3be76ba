//! `fracbench compare PARENT CHANGE`: the rule for claiming a gain or a
//! regression between two commits, applied per end-to-end metric and
//! workload with the bounds in `BENCHMARK.json`. Runs of the two sides
//! are paired in the order they alternated.
//!
//! - *improved*: at least [`MIN_PAIRS`] pairs, the change wins at least
//!   [`MIN_WIN_SHARE`] of them (ties count for neither), and the medians
//!   differ by more than the parent's interquartile range;
//! - *worse*: the change's median is worse than the parent's by more
//!   than the bound;
//! - *unresolved*: the run-to-run spread is wider than the bound and not
//!   every change run beats every parent run;
//! - *unchanged*: everything else.

use std::collections::BTreeMap;
use std::fmt;

use fracdram_experiments::Json;

use crate::stats::{median, quartiles, relative_iqr};

/// Fewest alternating pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// Smallest share of pairs the change must win to claim a gain.
pub const MIN_WIN_SHARE: f64 = 0.9;

/// The verdict for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Improved,
    /// Within the bound and the spread.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Too noisy to tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One end-to-end metric's comparison rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// How much better `to` is than `from` (positive = better).
fn gain(from: f64, to: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        to - from
    } else {
        from - to
    }
}

/// Share of `(parent[i], change[i])` pairs the change wins.
pub fn win_share(parent: &[f64], change: &[f64], higher_is_better: bool) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(a, b)| gain(**a, **b, higher_is_better) > 0.0)
        .count();
    wins as f64 / pairs as f64
}

/// Applies the rule to the runs of one (metric, workload), given in the
/// order they alternated.
pub fn verdict(parent: &[f64], change: &[f64], rule: &Rule) -> Verdict {
    let better = rule.higher_is_better;
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let pairs = parent.len().min(change.len());
    if pairs >= MIN_PAIRS
        && win_share(parent, change, better) >= MIN_WIN_SHARE
        && gain(ma, mb, better) > q3 - q1
    {
        return Verdict::Improved;
    }
    if gain(ma, mb, better) < -rule.bound * ma.abs() {
        return Verdict::Worse;
    }
    let every_run_better = change
        .iter()
        .all(|&b| parent.iter().all(|&a| gain(a, b, better) > 0.0));
    let spread = relative_iqr(parent).max(relative_iqr(change));
    if spread > rule.bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The end-to-end rules declared in a `BENCHMARK.json` document.
///
/// # Errors
///
/// A malformed document or metric entry.
pub fn rules(benchmark: &str) -> Result<Vec<Rule>, String> {
    let doc = Json::parse(benchmark)?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k:?}"));
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) → values` in file order, from result lines as
/// `fracbench run --out` writes them. Lines that are not results are
/// skipped.
pub fn values(results: &str) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in results.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let (Some(workload), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Workload name.
    pub workload: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Pairs compared.
    pub pairs: usize,
    /// Share of pairs the change won.
    pub wins: f64,
}

/// Compares two result files metric by metric, workload by workload.
pub fn compare(rules: &[Rule], parent: &str, change: &str) -> Vec<Row> {
    let (a, b) = (values(parent), values(change));
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    let mut rows = Vec::new();
    for rule in rules {
        for workload in &workloads {
            let key = ((*workload).clone(), rule.name.clone());
            let empty = Vec::new();
            let (pa, pb) = (a.get(&key).unwrap_or(&empty), b.get(&key).unwrap_or(&empty));
            rows.push(Row {
                metric: rule.name.clone(),
                workload: (*workload).clone(),
                verdict: verdict(pa, pb, rule),
                parent: median(pa),
                change: median(pb),
                pairs: pa.len().min(pb.len()),
                wins: win_share(pa, pb, rule.higher_is_better),
            });
        }
    }
    rows
}
