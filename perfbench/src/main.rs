//! The simulator's benchmark: simulated queries per host second on three
//! workloads, with per-layer attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats the workload's cell list in rounds for `--seconds` of
//! host time and reports the fastest composite round (each segment of
//! simulated time at its fastest repeat). It then checks every cell:
//! `DbSystem::check_invariants` after the cell, every round's reports
//! bitwise equal to the first round's and to those of `experiment::run`,
//! and the default seed's report digests equal to the pinned ones (an
//! extra untimed round when another seed is measured). `--trace 1` adds a
//! traced round, whose reports must equal the untraced ones bitwise, and,
//! where the shard gate admits the workload, sharded runs that must equal
//! the serial one. The last line of standard output is one JSON object;
//! `correct` is false if any cell failed.

mod cell;
mod gate;
mod host;
mod metrics;
#[cfg(test)]
mod tests;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dqa_core::experiment::{improvement_pct, run, run_sharded, RunConfig, RunReport};
use dqa_core::model::shard::shardable;
use dqa_core::parallel::{cores_detected, par_map};
use dqa_core::policy::PolicyKind;

use crate::cell::{run_cell, time_setup, CellRun, Trace, KINDS};
use crate::workloads::{Workload, DEFAULT_SEED, MAX_WORKERS};

/// A run measures at least this many rounds, however long they take.
const MIN_ROUNDS: usize = 3;
/// Set-up is timed this many times per cell after each timed round;
/// `setup_s` is the median over the run.
const SETUP_REPS: usize = 25;
/// Windows of the sharded-vs-serial comparison in traced runs: short,
/// because the windowed executor at several jobs runs far slower than
/// serial today.
const SHARD_WINDOWS: (f64, f64) = (1_000.0, 20_000.0);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 3_600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counts attempted and failed cells; every failure is reported on
/// standard error with the check it failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn record(&mut self, what: &str, index: usize, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {what} cell {index}: {}", problems.join("; "));
        }
    }
}

/// Whether `report` is bitwise equal to the reference report of its cell.
fn matches(reference: Option<&RunReport>, report: &RunReport, what: &str) -> Vec<String> {
    match reference {
        None => vec![format!(
            "{what}: the first round has no report to compare with"
        )],
        Some(r) if r == report => Vec::new(),
        Some(_) => vec![format!("{what}: report differs from the first round's")],
    }
}

struct Round {
    wall: Duration,
    cells: Vec<Result<CellRun, String>>,
}

fn run_round(cells: &[RunConfig], workers: usize, traced: bool) -> Round {
    let items = cells.to_vec();
    let started = Instant::now();
    let cells = par_map(workers, items, |_, config| run_cell(&config, traced));
    Round {
        wall: started.elapsed(),
        cells,
    }
}

/// The median, or 0 when every cell failed and nothing was measured.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host ns per simulated event over a round's cells (sum of cell walls
/// over sum of events).
fn ns_per_event(cells: &[Result<CellRun, String>]) -> f64 {
    let (ns, events) = cells.iter().flatten().fold((0.0, 0u64), |(ns, ev), c| {
        (ns + c.wall.as_nanos() as f64, ev + c.report.events)
    });
    ratio(ns, events as f64)
}

/// Median over rounds of Σ cell wall / (workers × round wall): how much
/// of a round the pool kept its workers busy. Both walls come from the
/// same round, so a slow host moves them together.
fn pool_efficiency(rounds: &[Round], workers: usize) -> f64 {
    median(
        &mut rounds
            .iter()
            .map(|r| {
                let busy: f64 = r.cells.iter().flatten().map(|c| c.wall.as_secs_f64()).sum();
                ratio(busy, workers as f64 * r.wall.as_secs_f64())
            })
            .collect::<Vec<_>>(),
    )
}

/// Host seconds of the fastest composite round. For every cell and every
/// `SEGMENT` of it, take the least host time any round took; sum these
/// over the cells, and spread the sum over the workers at the pool's
/// median efficiency. Each segment is bitwise the same simulated work in
/// every round, so a slower repeat only shows interference from other
/// work on the host; taking the fastest repeat piece by piece keeps a
/// round that was slowed for a moment from hiding the program's own
/// speed, and the efficiency keeps the pool's own cost in.
fn composite_wall(rounds: &[Round], workers: usize) -> f64 {
    let mut fastest: Vec<Vec<Duration>> = Vec::new();
    for round in rounds {
        for (i, cell) in round.cells.iter().enumerate() {
            let Ok(cell) = cell else { continue };
            if fastest.len() <= i {
                fastest.resize(i + 1, Vec::new());
            }
            let best = &mut fastest[i];
            for (j, &t) in cell.segments.iter().enumerate() {
                match best.get_mut(j) {
                    Some(b) => *b = (*b).min(t),
                    None => best.push(t),
                }
            }
        }
    }
    let busy: f64 = fastest.iter().flatten().map(Duration::as_secs_f64).sum();
    ratio(busy, workers as f64 * pool_efficiency(rounds, workers))
}

/// Repetitions of the cells' set-up, taken a few at a time after each
/// timed round so that they sample the host over the whole run. Each
/// sample sums the cells: `(construction, prime)` in seconds. A cell whose
/// set-up fails is left out here; it fails again, and counts, in the
/// timed rounds.
#[derive(Default)]
struct SetupTimes {
    built: Vec<f64>,
    primed: Vec<f64>,
}

impl SetupTimes {
    fn sample(&mut self, cells: &[RunConfig]) {
        for _ in 0..SETUP_REPS {
            let (mut b, mut p) = (0.0, 0.0);
            for (new, prime) in cells.iter().filter_map(|c| time_setup(c).ok()) {
                b += new.as_secs_f64();
                p += prime.as_secs_f64();
            }
            self.built.push(b);
            self.primed.push(p);
        }
    }

    /// The medians, `(construction, prime)`.
    fn medians(&mut self) -> (f64, f64) {
        (median(&mut self.built), median(&mut self.primed))
    }
}

/// Mean waiting time of each paper policy over its replications, printed
/// beside the paper's Table 8 row at the same think time.
fn accuracy_line(workload: Workload, reports: &[RunReport]) -> Option<String> {
    if workload != Workload::PaperGrid {
        return None;
    }
    let think = workload.params().think_time;
    let row = dqa_bench::paper::TABLE8
        .iter()
        .find(|r| (r.think_time - think).abs() < 1e-9)?;
    let mean_w = |policy: PolicyKind| {
        let w: Vec<f64> = reports
            .iter()
            .filter(|r| r.policy == policy.name())
            .map(|r| r.mean_waiting)
            .collect();
        w.iter().sum::<f64>() / w.len() as f64
    };
    let w_local = mean_w(PolicyKind::Local);
    let mut line = format!(
        "accuracy paper_grid (Table 8, think {think}): W_LOCAL {w_local:.2} (paper {:.2})",
        row.w_local
    );
    for (policy, paper) in [PolicyKind::Bnq, PolicyKind::Bnqrd, PolicyKind::Lert]
        .into_iter()
        .zip(row.impr_local)
    {
        let impr = improvement_pct(w_local, mean_w(policy));
        line.push_str(&format!(
            " | {} {impr:.2}% (paper {paper:.2}%)",
            policy.name()
        ));
    }
    Some(line)
}

/// Sharded-vs-serial comparison on the workload's first cell with short
/// windows: `(speedup at 1 job, speedup at nproc jobs)`, or zeros when the
/// shard gate refuses the workload.
fn shard_speedups(cells: &[RunConfig], gate: &mut Gate) -> (f64, f64) {
    let config = cells[0].clone().windows(SHARD_WINDOWS.0, SHARD_WINDOWS.1);
    if shardable(&config.params).is_err() {
        return (0.0, 0.0);
    }
    let timed = |f: &dyn Fn() -> Result<RunReport, String>| {
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()));
        (out, started.elapsed().as_secs_f64())
    };
    let (serial, t_serial) = timed(&|| run(&config).map_err(|e| e.to_string()));
    let mut speedups = Vec::new();
    for (i, jobs) in [1, cores_detected()].into_iter().enumerate() {
        let (sharded, t) = timed(&|| run_sharded(&config, jobs).map_err(|e| e.to_string()));
        let problems = match (&serial, &sharded) {
            (Ok(a), Ok(b)) if a == b => Vec::new(),
            (Ok(_), Ok(_)) => vec![format!("sharded at {jobs} jobs differs from serial")],
            (Err(e), _) | (_, Err(e)) => vec![format!("shard comparison: {e}")],
        };
        gate.record("shard", i, &problems);
        speedups.push(ratio(t_serial, t));
    }
    (speedups[0], speedups[1])
}

/// The per-layer metrics of a traced run: attribution from one traced
/// round, the pool and engine figures from the untraced `rounds`.
fn per_layer_values(
    cells: &[RunConfig],
    workers: usize,
    rounds: &[Round],
    reference: &[Option<RunReport>],
    (setup_new, setup_prime): (f64, f64),
    gate: &mut Gate,
) -> Vec<(String, f64)> {
    let reports: Vec<&RunReport> = reference.iter().flatten().collect();
    let events: u64 = reports.iter().map(|r| r.events).sum();
    let mut values: Vec<(String, f64)> = Vec::new();
    let traced = run_round(cells, workers, true);
    let mut trace = Trace::default();
    for (i, outcome) in traced.cells.iter().enumerate() {
        let problems = match outcome {
            Err(e) => vec![e.clone()],
            Ok(c) => {
                trace.merge(c.trace.as_ref().expect("traced cells carry a trace"));
                matches(reference[i].as_ref(), &c.report, "traced")
            }
        };
        gate.record("traced", i, &problems);
    }
    let (speedup_j1, speedup_jmax) = shard_speedups(cells, gate);

    let untraced_ns = median(
        &mut rounds
            .iter()
            .map(|r| ns_per_event(&r.cells))
            .collect::<Vec<_>>(),
    );
    let mut cell_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cells.iter().flatten())
        .map(|c| c.wall.as_secs_f64() * 1e3)
        .collect();
    let efficiency = pool_efficiency(rounds, workers);
    let arena = reports
        .iter()
        .max_by_key(|r| r.user_arena_peak_bytes)
        .map_or((0, 0), |r| (r.user_arena_peak_bytes, r.peak_active_users));
    let total_ns: u64 = trace.ns.iter().sum();

    values.push(("engine.events".into(), events as f64));
    values.push(("engine.ns_per_event".into(), untraced_ns));
    for (k, kind) in KINDS.iter().enumerate() {
        let (count, ns) = (trace.count[k] as f64, trace.ns[k] as f64);
        values.push((format!("model.{kind}.count"), count));
        values.push((format!("model.{kind}.ns"), ratio(ns, count)));
        values.push((format!("model.{kind}.share"), ratio(ns, total_ns as f64)));
    }
    values.extend([
        (
            "ps.useful_frac".into(),
            ratio(trace.cpu_completions as f64, trace.window_cpu_done as f64),
        ),
        (
            "fcfs.useful_frac".into(),
            ratio(trace.disk_completions as f64, trace.window_disk_done as f64),
        ),
        (
            "policy.select_ns".into(),
            ratio(trace.select_ns as f64, trace.select_calls as f64),
        ),
        ("users.arena_peak_bytes".into(), arena.0 as f64),
        (
            "users.bytes_per_active_user".into(),
            ratio(arena.0 as f64, arena.1 as f64),
        ),
        ("parallel.efficiency".into(), efficiency),
        ("parallel.cell_p50_ms".into(), median(&mut cell_ms)),
        (
            "parallel.cell_max_ms".into(),
            cell_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("shard.speedup_j1".into(), speedup_j1),
        ("shard.speedup_jmax".into(), speedup_jmax),
        ("setup.new_ms".into(), setup_new * 1e3),
        ("setup.prime_ms".into(), setup_prime * 1e3),
        (
            "trace.overhead".into(),
            ratio(ns_per_event(&traced.cells), untraced_ns),
        ),
    ]);
    values
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_grid|live_64site|resilient_rw> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let cells = workload.cells(args.seed);
    let nproc = cores_detected();
    let workers = MAX_WORKERS.min(nproc);
    let mut gate = Gate::default();

    // Timed rounds.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut setup = SetupTimes::default();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        rounds.push(run_round(&cells, workers, false));
        setup.sample(&cells);
    }
    let (setup_new, setup_prime) = setup.medians();

    // The gate: every later round, the library path and (traced) the
    // traced round against the first round; the default seed's reports
    // against the pins, whatever seed was measured.
    let reference: Vec<Option<RunReport>> = rounds[0]
        .cells
        .iter()
        .map(|c| c.as_ref().ok().map(|c| c.report.clone()))
        .collect();
    for (r, round) in rounds.iter().enumerate() {
        for (i, outcome) in round.cells.iter().enumerate() {
            let problems = match outcome {
                Err(e) => vec![e.clone()],
                Ok(_) if r == 0 => Vec::new(),
                Ok(c) => matches(reference[i].as_ref(), &c.report, "repeat"),
            };
            gate.record("timed", i, &problems);
        }
    }
    let pinned_round = (args.seed != DEFAULT_SEED)
        .then(|| run_round(&workload.cells(DEFAULT_SEED), workers, false));
    let pins = gate::pinned(workload.name()).expect("every workload is pinned");
    for (i, outcome) in pinned_round
        .as_ref()
        .unwrap_or(&rounds[0])
        .cells
        .iter()
        .enumerate()
    {
        let problems = match outcome {
            Err(e) => vec![e.clone()],
            Ok(c) if pins.get(i) == Some(&gate::digest(&c.report)) => Vec::new(),
            Ok(c) => vec![format!(
                "digest {:016x} at seed {DEFAULT_SEED} differs from the pinned one",
                gate::digest(&c.report)
            )],
        };
        gate.record("pinned", i, &problems);
    }
    let library = par_map(workers, cells.clone(), |_, config| {
        catch_unwind(AssertUnwindSafe(|| run(&config)))
    });
    for (i, outcome) in library.iter().enumerate() {
        let problems = match outcome {
            Ok(Ok(report)) => matches(reference[i].as_ref(), report, "experiment::run"),
            Ok(Err(e)) => vec![format!("experiment::run: {e}")],
            Err(_) => vec!["experiment::run panicked".to_owned()],
        };
        gate.record("library", i, &problems);
    }

    let reports: Vec<RunReport> = reference.iter().flatten().cloned().collect();
    let events: u64 = reports.iter().map(|r| r.events).sum();
    let queries: u64 = reports.iter().map(|r| r.completed).sum();

    let timed = composite_wall(&rounds, workers);
    let values = if args.trace {
        per_layer_values(
            &cells,
            workers,
            &rounds,
            &reference,
            (setup_new, setup_prime),
            &mut gate,
        )
    } else {
        vec![
            ("queries_per_s".into(), ratio(queries as f64, timed)),
            ("setup_s".into(), setup_new + setup_prime),
            ("peak_rss_mb".into(), host::peak_rss_kb() as f64 / 1024.0),
        ]
    };

    // Human-readable lines, then the result as the last line.
    let manifest = host::Manifest::collect();
    println!(
        "manifest {{\"workload\": {}, \"seed\": {}, \"workers\": {workers}, \"nproc\": {nproc}, \
         \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \"cells\": {}, \"rounds\": {}, \
         \"events_per_round\": {events}, \"queries_per_round\": {queries}}}",
        json_str(workload.name()),
        args.seed,
        json_str(&manifest.cpu_model),
        json_str(&manifest.rustc),
        json_str(&manifest.git_rev),
        cells.len(),
        rounds.len(),
    );
    let walls: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
        .collect();
    println!("round_walls_s {}", walls.join(" "));
    println!("timed_s {timed:.6}");
    if let Some(line) = accuracy_line(workload, &reports) {
        println!("{line}");
    }
    let registry = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let failed_frac = ratio(gate.failed as f64, gate.attempted as f64);
    println!(
        "{:<32} {failed_frac} fraction (lower is better)",
        "failed_frac"
    );
    assert_eq!(
        values.len(),
        registry.len(),
        "every registered metric is measured once"
    );
    let mut fields = Vec::new();
    for metric in &registry {
        let value = values
            .iter()
            .find(|(name, _)| *name == metric.name)
            .map(|&(_, v)| if v.is_finite() { v } else { 0.0 })
            .expect("every registered metric is measured");
        let (name, unit) = (&metric.name, metric.unit);
        println!("{name:<32} {value} {unit} ({} is better)", metric.better);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
