//! Tiny-scale traces of all four workloads: every metric `BENCHMARK.json`
//! names is emitted with its unit, layers + idle + residual add up to
//! the traced capacity, and simulated counts repeat exactly.

use std::path::PathBuf;
use std::time::Duration;

use fracdram_benchmark::batch::layer_metrics;
use fracdram_benchmark::serve::{replica, Traffic};
use fracdram_benchmark::spec::{Metrics, Workload, END_TO_END, JOBS, PER_LAYER};
use fracdram_benchmark::trace::{self, Breakdown, Replica};
use fracdram_experiments::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json lacks {list}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn declared_metrics_match_the_emitted_ones() {
    let doc = benchmark_json();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// Every per-layer metric present, with its declared unit, and finite.
fn assert_complete(m: &Metrics) {
    let emitted: Vec<(&str, &str)> = m.iter().map(|(n, _, u)| (n, u)).collect();
    for (name, unit) in PER_LAYER {
        assert!(emitted.contains(&(name, unit)), "{name} not emitted");
    }
    assert!(m.iter().all(|(_, v, _)| v.is_finite()));
}

fn check_batch(w: Workload, run: impl Fn() -> Replica) {
    let a = run();
    let b = run();
    assert_eq!(
        (a.fleet_commands, a.fleet_events, a.store),
        (b.fleet_commands, b.fleet_events, b.store),
        "{} counts repeat exactly",
        w.name()
    );
    let breakdown = Breakdown::of(&a.spans, JOBS, a.wall, &a.perf);
    assert!(
        (breakdown.sum() - breakdown.capacity_s).abs() < 1e-9,
        "{}: layers + idle + residual = jobs x wall",
        w.name()
    );
    assert!(breakdown.capacity_s > 0.0);
    let mut m = Metrics::per_layer();
    layer_metrics(&mut m, w, &a, &breakdown, 0.0);
    assert_complete(&m);
    assert!(m.get("softmc.commands").unwrap() > 0.0);
    assert!(m.get("model.events").unwrap() > 0.0);
}

#[test]
fn figure_and_population_replicas_add_up() {
    check_batch(Workload::Fig10, || trace::fig10(2, 1, 1, JOBS, 1));
    check_batch(Workload::Fig11, || trace::fig11(1, 1, JOBS, 1));
    let dir = scratch("trace_tiny_pop");
    check_batch(Workload::Pop, || {
        trace::population(24, 12, JOBS, 1, &dir.join("pop.bin"))
    });
}

#[test]
fn serving_replica_is_deterministic_at_any_drain_size() {
    let mut requests = Vec::new();
    for conn in 0..JOBS {
        let mut traffic = Traffic::new(conn, 3);
        for p in traffic.schedule(2000.0, Duration::from_millis(40)) {
            requests.push((p.at, p.die, p.line));
        }
    }
    assert!(requests.len() > 20);
    let dir = scratch("trace_tiny_serve");
    let sorted = |mut r: Vec<(usize, u64, String)>| {
        r.sort();
        r
    };
    let one = replica(&requests, 1, &dir).unwrap();
    let four = replica(&requests, 4, &dir).unwrap();
    assert_eq!(one.replies.len(), requests.len());
    assert_eq!(sorted(one.replies), sorted(four.replies));
    let spans = &four.spans;
    let parts: f64 = ["serve.parse", "serve.execute", "serve.wal"]
        .iter()
        .map(|n| trace::total(spans, n))
        .sum();
    let residual = four.wall - parts;
    assert!(
        residual >= 0.0 && residual < four.wall,
        "replica residual {residual}"
    );
}
