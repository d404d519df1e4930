//! One simulation cell, driven through the simulator's public API:
//! `DbSystem::new` + `Engine::new` + `DbSystem::prime`, then the warmup and
//! measurement windows of `experiment::run`, then the invariant check.
//!
//! A traced cell attributes host time to event kinds from outside the
//! model: the engine observer fires just before each event is handled, so
//! the host time between two observer calls is one `Engine::step` (pop,
//! dispatch, handle) and belongs to the earlier event's kind.

use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use dqa_core::experiment::{ClassSummary, RunConfig, RunReport, SiteSummary};
use dqa_core::model::{DbSystem, Event};
use dqa_core::policy::{AllocationContext, Allocator};
use dqa_core::query::QueryProfile;
use dqa_sim::{Engine, SimTime};

/// Event kinds the traced run attributes host time to, in metric order.
pub const KINDS: [&str; 8] = [
    "submit",
    "cpu_done",
    "disk_done",
    "net_done",
    "status",
    "fault",
    "retry",
    "deadline",
];
const CPU_DONE: usize = 1;
const DISK_DONE: usize = 2;

fn kind_of(event: &Event) -> usize {
    match event {
        Event::Submit { .. } => 0,
        Event::CpuDone { .. } => CPU_DONE,
        Event::DiskDone { .. } => DISK_DONE,
        Event::NetDone => 3,
        Event::StatusExchange | Event::StatusSend { .. } => 4,
        Event::SiteDown { .. }
        | Event::SiteUp { .. }
        | Event::MsgLost { .. }
        | Event::PartitionStart
        | Event::PartitionHeal
        | Event::Script { .. } => 5,
        Event::Resubmit { .. } | Event::Retransmit { .. } => 6,
        Event::DeadlineExpire { .. } => 7,
    }
}

/// Simulated time between policy samples in a traced cell: the traced
/// loop drains the queue in chunks this long and, after each chunk that
/// saw a `Submit`, times one allocation decision on the live board.
const SAMPLE_EVERY: f64 = 25.0;

/// Per-kind host-time attribution of one traced cell.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events of each kind over the whole cell.
    pub count: [u64; KINDS.len()],
    /// Host nanoseconds attributed to each kind.
    pub ns: [u64; KINDS.len()],
    /// `CpuDone` events inside the measured window.
    pub window_cpu_done: u64,
    /// `DiskDone` events inside the measured window.
    pub window_disk_done: u64,
    /// CPU and disk completions the stations recorded in the window.
    pub cpu_completions: u64,
    pub disk_completions: u64,
    /// Sampled `Allocator::select_site` calls and their host time.
    pub select_calls: u64,
    pub select_ns: u64,
}

impl Trace {
    pub fn merge(&mut self, other: &Trace) {
        for k in 0..KINDS.len() {
            self.count[k] += other.count[k];
            self.ns[k] += other.ns[k];
        }
        self.window_cpu_done += other.window_cpu_done;
        self.window_disk_done += other.window_disk_done;
        self.cpu_completions += other.cpu_completions;
        self.disk_completions += other.disk_completions;
        self.select_calls += other.select_calls;
        self.select_ns += other.select_ns;
    }
}

/// The observer's state: the open step's kind and start instant.
#[derive(Default)]
struct Clock {
    open: Option<(usize, Instant)>,
    count: [u64; KINDS.len()],
    ns: [u64; KINDS.len()],
    submit_site: Option<usize>,
}

impl Clock {
    fn close(&mut self, now: Instant) {
        if let Some((kind, start)) = self.open.take() {
            self.ns[kind] += (now - start).as_nanos() as u64;
        }
    }

    fn observe(&mut self, event: &Event) {
        let now = Instant::now();
        self.close(now);
        let kind = kind_of(event);
        self.count[kind] += 1;
        if let Event::Submit { site } = event {
            self.submit_site = Some(*site);
        }
        self.open = Some((kind, now));
    }
}

/// Simulated time per timed segment of an untraced cell. The segment
/// boundaries depend only on the cell's windows, so segment `j` of a cell
/// is the same simulated work in every round.
pub const SEGMENT: f64 = 1_000.0;

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub report: RunReport,
    /// Host time of the whole cell, set-up included.
    pub wall: Duration,
    /// Host time of each `SEGMENT` of simulated time, in order; the first
    /// also holds the set-up, the last the invariant check and summary.
    /// Empty for a traced cell.
    pub segments: Vec<Duration>,
    pub trace: Option<Trace>,
}

/// Runs one cell; a parameter error, an invariant violation or any other
/// panic comes back as `Err` with its message.
pub fn run_cell(config: &RunConfig, traced: bool) -> Result<CellRun, String> {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            run_traced(config)
        } else {
            run_untraced(config)
        }
    }));
    match outcome {
        Ok(Ok((report, segments, trace))) => Ok(CellRun {
            report,
            wall: started.elapsed(),
            segments,
            trace,
        }),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned())),
    }
}

fn build(config: &RunConfig) -> Result<Engine<DbSystem>, String> {
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)
        .map_err(|e| e.to_string())?;
    let mut engine = Engine::new(system);
    DbSystem::prime(&mut engine);
    Ok(engine)
}

type Outcome = Result<(RunReport, Vec<Duration>, Option<Trace>), String>;

fn run_untraced(config: &RunConfig) -> Outcome {
    let mut stamp = Instant::now();
    let mut segments = Vec::new();
    let mut lap = || {
        let now = Instant::now();
        segments.push(now - stamp);
        stamp = now;
    };
    let mut engine = build(config)?;
    let end = config.warmup + config.measure;
    let mut t = 0.0;
    for (phase_end, is_warmup) in [(config.warmup, true), (end, false)] {
        while t < phase_end {
            t = (t + SEGMENT).min(phase_end);
            // `step_until` leaves the clock alone, as one `run_until` over
            // the whole window would; the window ends below move it.
            engine.step_until(SimTime::new(t));
            if t < end {
                lap();
            }
        }
        engine.run_until(SimTime::new(phase_end));
        if is_warmup {
            let now = engine.now();
            engine.model_mut().reset_stats(now);
        }
    }
    engine.model().check_invariants();
    let report = summarize(
        engine.model(),
        SimTime::new(end),
        config.measure,
        engine.steps(),
    );
    lap();
    Ok((report, segments, None))
}

fn run_traced(config: &RunConfig) -> Outcome {
    let mut engine = build(config)?;
    let clock = Rc::new(RefCell::new(Clock::default()));
    let observer = Rc::clone(&clock);
    engine.set_observer(move |_, event| observer.borrow_mut().observe(event));

    let mut trace = Trace::default();
    let end = config.warmup + config.measure;
    let mut window_start = [0u64; KINDS.len()];
    let mut t = 0.0;
    for (phase_end, is_warmup) in [(config.warmup, true), (end, false)] {
        while t < phase_end {
            t = (t + SAMPLE_EVERY).min(phase_end);
            engine.step_until(SimTime::new(t));
            clock.borrow_mut().close(Instant::now());
            let submit = clock.borrow_mut().submit_site.take();
            if let Some(site) = submit {
                sample_select(&engine, config, site, &mut trace);
            }
        }
        // Every event up to `phase_end` is drained, so this only moves the
        // clock, as `experiment::run` does at the end of each window.
        engine.run_until(SimTime::new(phase_end));
        if is_warmup {
            let now = engine.now();
            engine.model_mut().reset_stats(now);
            window_start = clock.borrow().count;
        }
    }
    engine.clear_observer();
    let model = engine.model();
    model.check_invariants();

    let clock = clock.borrow();
    trace.count = clock.count;
    trace.ns = clock.ns;
    trace.window_cpu_done = clock.count[CPU_DONE] - window_start[CPU_DONE];
    trace.window_disk_done = clock.count[DISK_DONE] - window_start[DISK_DONE];
    for site in model.sites() {
        trace.cpu_completions += site.cpu.completions();
        trace.disk_completions += site.disks.iter().map(|d| d.completions()).sum::<u64>();
    }
    let report = summarize(model, SimTime::new(end), config.measure, engine.steps());
    Ok((report, Vec::new(), Some(trace)))
}

/// Times one `Allocator::select_site` on the live board, with a fresh
/// allocator so the model's own policy streams are untouched.
fn sample_select(engine: &Engine<DbSystem>, config: &RunConfig, site: usize, trace: &mut Trace) {
    let model = engine.model();
    let params = model.params();
    let class = (trace.select_calls as usize) % params.classes.len();
    let spec = &params.classes[class];
    let profile = QueryProfile {
        class,
        num_reads: spec.num_reads,
        page_cpu_time: spec.page_cpu_time,
        home: site,
        io_bound: params.is_io_bound(spec.page_cpu_time),
        relation: 0,
    };
    let mut allocator = Allocator::new(config.policy, config.seed ^ trace.select_calls);
    let ctx = AllocationContext::from_table(params, model.load(), site);
    let started = Instant::now();
    black_box(allocator.select_site(black_box(&profile), &ctx));
    trace.select_ns += started.elapsed().as_nanos() as u64;
    trace.select_calls += 1;
}

/// Builds the `RunReport` of a measured model at `end`, field for field as
/// `experiment::run` does (its summarizer is private to `dqa-core`). The
/// gate compares every cell's report against `experiment::run` bitwise, so
/// any drift between the two shows as a failed cell.
pub fn summarize(model: &DbSystem, end: SimTime, measured_time: f64, events: u64) -> RunReport {
    let metrics = model.metrics();
    let per_class = (0..model.params().classes.len())
        .map(|c| {
            let cm = metrics.class(c);
            ClassSummary {
                name: model.params().classes[c].name.clone(),
                mean_waiting: cm.waiting.mean(),
                mean_response: cm.response.mean(),
                mean_service: cm.service.mean(),
                normalized_waiting: cm.normalized_waiting(),
                completed: cm.waiting.count(),
                deadline_timeouts: cm.deadline_timeouts,
                deadline_reallocations: cm.deadline_reallocations,
                deadline_abandoned: cm.deadline_abandoned,
            }
        })
        .collect();
    let per_site = model
        .sites()
        .map(|s| SiteSummary {
            cpu_utilization: s.cpu.utilization(end),
            disk_utilization: s.disk_utilization(end),
            mean_cpu_queue: s.cpu.mean_population(end),
            cpu_completions: s.cpu.completions(),
        })
        .collect();
    let (_, peak_active_users, _, user_arena_peak_bytes) = model.user_arena_stats();
    RunReport {
        policy: model.policy_name().to_owned(),
        measured_time,
        mean_waiting: metrics.mean_waiting(),
        waiting_half_width: metrics.waiting_half_width(),
        mean_response: metrics.mean_response(),
        response_p50: metrics.response_quantile(0.5),
        response_p90: metrics.response_quantile(0.9),
        response_p99: metrics.response_quantile(0.99),
        sketch_p50: metrics.response_tail_quantile(0.5),
        sketch_p99: metrics.response_tail_quantile(0.99),
        sketch_p999: metrics.response_tail_quantile(0.999),
        fairness: metrics.fairness(),
        cpu_utilization: model.cpu_utilization(end),
        disk_utilization: model.disk_utilization(end),
        subnet_utilization: model.subnet_utilization(end),
        throughput: metrics.throughput(end),
        transfer_fraction: metrics.transfer_fraction(),
        mean_query_difference: metrics.mean_query_difference(end),
        completed: metrics.completed(),
        migrations: metrics.migrations(),
        propagations: metrics.propagations(),
        queries_retried: metrics.queries_retried(),
        queries_lost: metrics.queries_lost(),
        queries_recovered: metrics.queries_recovered(),
        msgs_lost: metrics.msgs_lost(),
        mean_availability: metrics.mean_availability(end),
        deadline_timeouts: metrics.deadline_timeouts(),
        deadline_reallocations: metrics.deadline_reallocations(),
        deadline_abandoned: metrics.deadline_abandoned(),
        admission_rejected: metrics.admission_rejected(),
        admission_redirected: metrics.admission_redirected(),
        admission_dropped: metrics.admission_dropped(),
        partition_drops: metrics.partition_drops(),
        hedged_dispatched: metrics.hedged_dispatched(),
        hedge_duplicates: metrics.hedge_duplicates(),
        hedge_wins: metrics.hedge_wins(),
        hedge_cancelled: metrics.hedge_cancelled(),
        hedge_wasted_service: metrics.hedge_wasted_service(),
        redundancy_levels: metrics.redundancy_levels().to_vec(),
        events,
        peak_active_users,
        user_arena_peak_bytes,
        per_class,
        per_site,
    }
}

/// Host time of one cell's set-up, split into construction
/// (`DbSystem::new` + `Engine::new`) and `DbSystem::prime`.
pub fn time_setup(config: &RunConfig) -> Result<(Duration, Duration), String> {
    let started = Instant::now();
    let system = DbSystem::new(config.params.clone(), config.policy, config.seed)
        .map_err(|e| e.to_string())?;
    let mut engine = Engine::new(system);
    let built = Instant::now();
    DbSystem::prime(&mut engine);
    let primed = Instant::now();
    drop(black_box(engine));
    Ok((built - started, primed - built))
}
