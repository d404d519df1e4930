//! The benchmark's own tests: workloads are valid, a short cell of each
//! passes every gate check, digests are stable and sensitive, and the
//! metric registry matches `BENCHMARK.json`.

use dqa_core::experiment::{run, run_sharded, RunConfig};
use dqa_core::model::shard::shardable;

use std::time::Duration;

use crate::cell::{run_cell, CellRun, SEGMENT};
use crate::gate::{digest, pinned};
use crate::metrics::{end_to_end, per_layer, Metric};
use crate::workloads::{Workload, DEFAULT_SEED};
use crate::{composite_wall, Round};

/// The first cell of `workload` with windows short enough for a debug
/// build.
fn tiny(workload: Workload) -> RunConfig {
    workload.cells(DEFAULT_SEED)[0]
        .clone()
        .windows(200.0, 2_000.0)
}

#[test]
fn every_workload_builds_valid_params() {
    for w in Workload::ALL {
        assert_eq!(w.params().validate(), Ok(()), "{}", w.name());
        let cells = w.cells(DEFAULT_SEED);
        assert!(!cells.is_empty(), "{} has no cells", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::PaperGrid.cells(7).len(), 16);
    assert_eq!(Workload::Live64Site.cells(7).len(), 2);
}

#[test]
fn tiny_cell_of_each_workload_passes_the_gate() {
    for w in Workload::ALL {
        let config = tiny(w);
        let untraced = run_cell(&config, false).expect("untraced cell runs clean");
        let traced = run_cell(&config, true).expect("traced cell runs clean");
        assert_eq!(untraced.report, traced.report, "{}: traced", w.name());
        let library = run(&config).expect("valid params");
        assert_eq!(untraced.report, library, "{}: experiment::run", w.name());
        assert!(
            untraced.report.completed > 0,
            "{} completed nothing",
            w.name()
        );
        let trace = traced.trace.expect("traced cells carry a trace");
        assert_eq!(
            trace.count.iter().sum::<u64>(),
            untraced.report.events,
            "{}: every event is attributed to one kind",
            w.name()
        );
        if shardable(&config.params).is_ok() {
            for jobs in [1, 2] {
                let sharded = run_sharded(&config, jobs).expect("shardable");
                assert_eq!(sharded, library, "{}: sharded at {jobs} jobs", w.name());
            }
        }
    }
    assert!(
        shardable(&Workload::Live64Site.params()).is_ok(),
        "live_64site is the shard executor's workload"
    );
}

#[test]
fn untraced_cells_are_timed_in_fixed_segments() {
    let config = tiny(Workload::PaperGrid);
    let expected =
        (config.warmup / SEGMENT).ceil() as usize + (config.measure / SEGMENT).ceil() as usize;
    let first = run_cell(&config, false).expect("untraced cell runs clean");
    let again = run_cell(&config, false).expect("untraced cell runs clean");
    assert_eq!(first.segments.len(), expected);
    assert_eq!(again.segments.len(), expected);
    assert!(first.segments.iter().sum::<Duration>() <= first.wall);
    let traced = run_cell(&config, true).expect("traced cell runs clean");
    assert!(traced.segments.is_empty());
}

#[test]
fn composite_wall_takes_each_segments_fastest_repeat() {
    let report = run(&tiny(Workload::PaperGrid)).expect("valid params");
    let ms = |v: &[u64]| {
        v.iter()
            .map(|&m| Duration::from_millis(m))
            .collect::<Vec<_>>()
    };
    let round = |segments: &[u64]| {
        let segments = ms(segments);
        let wall = segments.iter().sum();
        Round {
            wall,
            cells: vec![Ok(CellRun {
                report: report.clone(),
                wall,
                segments,
                trace: None,
            })],
        }
    };
    let rounds = [round(&[30, 50, 20]), round(&[40, 20, 30])];
    let composite = composite_wall(&rounds, 1);
    assert!((composite - 0.070).abs() < 1e-9, "{composite}");
}

#[test]
fn every_resilient_rw_layer_fires() {
    // Whole cells, one per policy: admission redirects are rare under
    // LERT, and the partition sits at t = 12 000 to 15 000.
    let cells = Workload::ResilientRw.cells(DEFAULT_SEED);
    let reports: Vec<_> = [0, 4, 8, 12]
        .into_iter()
        .map(|i| run_cell(&cells[i], false).expect("cell runs clean").report)
        .collect();
    let total = |f: fn(&dqa_core::experiment::RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    for (layer, count) in [
        ("propagations", total(|r| r.propagations)),
        ("migrations", total(|r| r.migrations)),
        ("retries", total(|r| r.queries_retried)),
        ("lost messages", total(|r| r.msgs_lost)),
        ("partition drops", total(|r| r.partition_drops)),
        ("deadline timeouts", total(|r| r.deadline_timeouts)),
        ("admission redirects", total(|r| r.admission_redirected)),
        ("hedged dispatches", total(|r| r.hedged_dispatched)),
    ] {
        assert!(count > 0, "{layer} never fired");
    }
    assert!(
        reports.iter().all(|r| r.mean_availability < 1.0),
        "no site ever crashed"
    );
}

#[test]
fn digest_repeats_and_tracks_params() {
    let config = tiny(Workload::PaperGrid);
    let a = digest(&run_cell(&config, false).expect("runs").report);
    let b = digest(&run_cell(&config, false).expect("runs").report);
    assert_eq!(a, b, "same cell, same digest");
    let mut changed = config.clone();
    changed.params.think_time += 1.0;
    let c = digest(&run_cell(&changed, false).expect("runs").report);
    assert_ne!(a, c, "one parameter changed, digest unchanged");
}

#[test]
fn every_workload_pins_one_digest_per_cell() {
    for w in Workload::ALL {
        let pins = pinned(w.name()).expect("every workload is pinned");
        assert_eq!(pins.len(), w.cells(DEFAULT_SEED).len(), "{}", w.name());
    }
}

/// The `{...}` objects of the array under `key` in a flat JSON document.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    body.split('}').filter(|o| o.contains('{')).collect()
}

/// The string value of `"key"` in one flat JSON object.
fn field(object: &str, key: &str) -> String {
    let at = object
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = &object[at + key.len() + 2..];
    let rest = &rest[rest.find('"').expect("string value") + 1..];
    rest[..rest.find('"').expect("closing quote")].to_owned()
}

/// `(name, unit, better)` of each metric declared under `key`.
fn declared(json: &str, key: &str) -> Vec<(String, String, String)> {
    objects(json, key)
        .into_iter()
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect()
}

fn registered(metrics: Vec<Metric>) -> Vec<(String, String, String)> {
    metrics
        .into_iter()
        .map(|m| (m.name, m.unit.to_owned(), m.better.to_owned()))
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(declared(&json, "end_to_end"), registered(end_to_end()));
    assert_eq!(declared(&json, "per_layer"), registered(per_layer()));
    let names: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|m| m.name)
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(name.len() <= 64, "{name} is too long");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name} has a character outside [A-Za-z0-9_.-]"
        );
        assert!(!names[..i].contains(name), "{name} is used twice");
    }
    let workloads: Vec<String> = objects(&json, "workloads")
        .into_iter()
        .map(|o| field(o, "name"))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}
