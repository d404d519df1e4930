//! Shared flag handling: building [`SystemParams`] and policies from
//! command-line flags.
//!
//! Every system flag is declared once, in [`FLAGS`]: its name, value
//! hint, help line and the [`SystemParams`] field it writes. Parsing
//! starts from [`SystemParams::paper_base`]; the first flag of an
//! optional layer creates the layer's spec from its `Default`.
//! [`SWITCHES`] says which flags switch a layer on, and `dqa help` prints
//! the flag sections from the same declarations.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use dqa_core::params::{
    DiskChoice, MessageCosting, MigrationSpec, ParamsError, SheddingMode, SystemParams, Workload,
};
use dqa_core::policy::PolicyKind;

use crate::args::{ArgError, Args};

/// Parses a policy name (case-insensitive). `threshold:K` selects the
/// THRESHOLD policy with threshold `K`.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn parse_policy(name: &str) -> Result<PolicyKind, ArgError> {
    let lower = name.to_ascii_lowercase();
    if let Some(t) = lower.strip_prefix("threshold:") {
        let t = t
            .parse()
            .map_err(|e| ArgError(format!("invalid threshold in `{name}`: {e}")))?;
        return Ok(PolicyKind::Threshold(t));
    }
    match lower.as_str() {
        "local" => Ok(PolicyKind::Local),
        "bnq" => Ok(PolicyKind::Bnq),
        "bnqrd" => Ok(PolicyKind::Bnqrd),
        "lert" => Ok(PolicyKind::Lert),
        "random" => Ok(PolicyKind::Random),
        "lert-nonet" => Ok(PolicyKind::LertNoNet),
        "wlc" => Ok(PolicyKind::Wlc),
        _ => Err(ArgError(format!(
            "unknown policy `{name}` (expected local, bnq, bnqrd, lert, random, \
             lert-nonet, wlc, or threshold:K)"
        ))),
    }
}

/// One system flag.
struct Flag {
    /// Name without the leading `--`.
    name: &'static str,
    /// Value hint, shown in help and in parse errors.
    hint: &'static str,
    /// One help line.
    help: &'static str,
    /// The [`SystemParams`] field written, `layer.field` inside an
    /// optional layer (a tuple flag names the common prefix of its
    /// fields). Validation errors on it name the flag.
    field: &'static str,
    /// Parses a value into the params.
    set: fn(&mut SystemParams, &str) -> Result<(), String>,
    /// The default shown by `dqa help` (empty for none).
    show: fn(&SystemParams) -> String,
}

/// Declares a [`Flag`]. A `field` or `layer.field` path is parsed with
/// `FromStr` and shows its default; a quoted field name takes a setter
/// expression over `p` and `v` and, optionally, how to show the default.
macro_rules! flag {
    (@show) => {
        |_| String::new()
    };
    (@show $show:expr) => {
        $show
    };
    ($name:literal, $hint:literal, $help:literal, $layer:ident . $field:ident) => {
        flag!($name, $hint, $help, concat!(stringify!($layer), ".", stringify!($field)),
            |p, v| spec(&mut p.$layer).$field = parse(v)?,
            |p| p.$layer.unwrap_or_default().$field.to_string())
    };
    ($name:literal, $hint:literal, $help:literal, $field:ident) => {
        flag!($name, $hint, $help, stringify!($field),
            |p, v| p.$field = parse(v)?,
            |p| p.$field.to_string())
    };
    ($name:literal, $hint:literal, $help:literal, $field:expr,
        |$p:ident, $v:ident| $set:expr $(, $show:expr)?) => {
        Flag {
            name: $name,
            hint: $hint,
            help: $help,
            field: $field,
            set: |$p, $v| {
                $set;
                Ok(())
            },
            show: flag!(@show $($show)?),
        }
    };
}

/// Every system flag, in `dqa help` order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag!("sites", "N", "number of DB sites", num_sites),
    flag!("disks", "N", "disks per site", num_disks),
    flag!("mpl", "N", "terminals per site", mpl),
    flag!("think", "T", "mean think time", think_time),
    flag!("io-prob", "P", "I/O-bound class probability, CPU-bound 1 - P", "classes.probability",
        |p, v| (p.classes[0].probability, p.classes[1].probability) = {
            let io: f64 = parse(v)?;
            (io, 1.0 - io)
        },
        |p| p.classes[0].probability.to_string()),
    flag!("io-cpu", "T", "I/O-bound class CPU time per page", "classes.page_cpu_time",
        |p, v| p.classes[0].page_cpu_time = parse(v)?,
        |p| p.classes[0].page_cpu_time.to_string()),
    flag!("cpu-cpu", "T", "CPU-bound class CPU time per page", "classes.page_cpu_time",
        |p, v| p.classes[1].page_cpu_time = parse(v)?,
        |p| p.classes[1].page_cpu_time.to_string()),
    flag!("reads", "N", "mean page reads per query, every class", "classes.num_reads",
        |p, v| {
            let reads = parse(v)?;
            p.classes.iter_mut().for_each(|c| c.num_reads = reads);
        },
        |p| p.classes[0].num_reads.to_string()),
    flag!("msg", "T", "remote-transfer message time", msg_length),
    flag!("detailed-msg", "msg_time,page_size", "Table-2/3 message costing", "message_costing",
        |p, v| p.message_costing = {
            let [msg_time, page_size] = tuple(v)?;
            MessageCosting::Detailed { msg_time: parse(msg_time)?, page_size: parse(page_size)? }
        }),
    flag!("disk-choice", "random|rr|jsq", "disk per page read", "disk_choice",
        |p, v| p.disk_choice = named(DISK_CHOICES, v)?,
        |p| name_of(DISK_CHOICES, p.disk_choice)),
    flag!("estimate-error", "E", "optimizer noise fraction", estimate_error),
    flag!("status-period", "T", "load-exchange period, 0 = oracle", status_period),
    flag!("status-msg", "T", "status frame ring time, 0 = free", status_msg_length),
    flag!("relations", "N", "relations in the catalog", num_relations),
    flag!("copies", "K", "copies per relation (absent: full replication)", "copies",
        |p, v| p.copies = Some(parse(v)?)),
    flag!("migrate", "every,gain,growth", "migration: reads between checks, min gain, state growth",
        "migration",
        |p, v| p.migration = {
            let [every, gain, growth] = tuple(v)?;
            let (check_every_reads, min_gain) = (parse(every)?, parse(gain)?);
            Some(MigrationSpec { check_every_reads, min_gain, state_growth: parse(growth)? })
        }),
    flag!("open-rate", "L", "Poisson arrivals per site and time unit (absent: closed)", "workload",
        |p, v| p.workload = Workload::Open { arrival_rate: parse(v)? }),
    flag!("update-frac", "U", "update fraction of the workload", update_fraction),
    flag!("prop-factor", "F", "apply work per replica, x reads", propagation_factor),
    flag!("cpu-speeds", "a,b,..", "per-site CPU speed factors (absent: homogeneous)", "cpu_speeds",
        |p, v| p.cpu_speeds = Some(v.split(',').map(parse).collect::<Result<_, _>>()?)),
    flag!("fault-mtbf", "T", "mean time between site crashes, 0 = none", faults.mtbf),
    flag!("fault-mttr", "T", "mean site repair time", faults.mttr),
    flag!("msg-loss", "P", "ring message loss probability", faults.msg_loss),
    flag!("status-loss", "P", "status broadcast dropout probability", faults.status_loss),
    flag!("fault-retries", "N", "retry budget per query", faults.max_retries),
    flag!("fault-backoff", "T", "base retry backoff delay", faults.backoff_base),
    flag!("partition-at", "T", "start of an injected ring partition", faults.partition_at),
    flag!("partition-for", "T", "partition duration, 0 = none", faults.partition_for),
    flag!("partition-groups", "N", "site groups the ring splits into", faults.partition_groups),
    flag!("deadline-mean", "T", "mean deadline slack Exp(T) over the floor", deadlines.mean),
    flag!("deadline-floor", "T", "minimum deadline of every query", deadlines.floor),
    flag!("deadline-retries", "N", "reallocations before an expired query is abandoned",
        deadlines.max_reallocations),
    flag!("deadline-backoff", "T", "base backoff between reallocations", deadlines.backoff_base),
    flag!("suspect-after", "N", "silent broadcast periods before a site is suspected",
        suspicion.threshold),
    flag!("suspect-probation", "N", "broadcasts heard before a suspect is trusted",
        suspicion.probation),
    flag!("admission-cap", "N", "per-site cap on resident queries (absent: none)",
        "admission.mpl_cap",
        |p, v| spec(&mut p.admission).mpl_cap = Some(parse(v)?)),
    flag!("admission-queue", "N", "per-site cap on allocated queries (absent: none)",
        "admission.queue_limit",
        |p, v| spec(&mut p.admission).queue_limit = Some(parse(v)?)),
    flag!("admission-mode", "reject|redirect|drop", "what a full site does with a query",
        "admission.mode",
        |p, v| spec(&mut p.admission).mode = named(SHEDDING_MODES, v)?,
        |p| name_of(SHEDDING_MODES, p.admission.unwrap_or_default().mode)),
    flag!("admission-retries", "N", "retries under reject before a drop", admission.max_retries),
    flag!("admission-backoff", "T", "base backoff between admission retries",
        admission.backoff_base),
    flag!("redundancy", "N", "replication level: 2+ hedges, 1 keeps an inert spec",
        redundancy.max_level),
    flag!("redundancy-prob", "P", "probability an eligible query is hedged", redundancy.hedge_prob),
    flag!("redundancy-load-cap", "L", "site load per level step down, 0 = none",
        redundancy.load_threshold),
    flag!("redundancy-full-frac", "F", "share of full sites that stops hedging",
        redundancy.full_threshold),
    flag!("live-diurnal", "A", "diurnal amplitude of 1 + A sin(2 pi t / P)",
        arrivals.diurnal_amplitude),
    flag!("live-period", "P", "diurnal period", arrivals.diurnal_period),
    flag!("live-flash", "at,for,mult", "flash crowd: x mult arrivals on [at, at + for)",
        "arrivals.flash",
        |p, v| {
            let ([at, dur, mult], a) = (tuple(v)?, spec(&mut p.arrivals));
            (a.flash_at, a.flash_for, a.flash_multiplier) = (parse(at)?, parse(dur)?, parse(mult)?);
        }),
    flag!("live-burst", "mult,on,off", "MMPP bursts: x mult, mean dwells on and off",
        "arrivals.burst",
        |p, v| {
            let ([mult, on, off], a) = (tuple(v)?, spec(&mut p.arrivals));
            (a.burst_multiplier, a.burst_on_mean, a.burst_off_mean) =
                (parse(mult)?, parse(on)?, parse(off)?);
        }),
    flag!("live-users", "N", "total user population", users.total_users),
    flag!("live-zipf", "S", "Zipf exponent of user selection, 0 = uniform", users.zipf_exponent),
    flag!("live-session", "Q", "mean queries per user session", users.session_mean),
    flag!("live-affinity", "P", "probability a query takes its user's class",
        users.class_affinity),
];

/// The `dqa help` heading of each optional layer's flags; other flags
/// fall under the first.
#[rustfmt::skip]
const SECTIONS: &[(&str, &str)] = &[
    ("", "SYSTEM FLAGS (defaults are the paper's base configuration):"),
    ("faults", "FAULT FLAGS (any one switches fault injection on):"),
    ("deadlines", "DEADLINE FLAGS (a positive --deadline-mean switches them on):"),
    ("suspicion", "SUSPICION FLAGS (either switches them on; need a costed status broadcast):"),
    ("admission", "ADMISSION FLAGS (--admission-cap or --admission-queue switches them on):"),
    ("redundancy", "REDUNDANCY FLAGS (--redundancy 2 or more switches hedging on):"),
    ("arrivals", "LIVE ARRIVAL FLAGS (need --open-rate; any but --live-period switches them on):"),
    ("users", "LIVE USER FLAGS (need --open-rate; a positive --live-users switches them on):"),
];

/// A layer that one or more of its flags switch on. Its other flags
/// (those whose field starts with `layer`) refine it, and giving one
/// while the layer is off is an error.
struct Switch {
    /// Field prefix of the layer's flags.
    layer: &'static str,
    /// The flags that switch the layer on.
    switches: &'static [&'static str],
    /// Whether the layer is on, once every flag is applied.
    on: fn(&SystemParams) -> bool,
    /// Why a given switch leaves the layer off.
    off: &'static str,
}

#[rustfmt::skip]
const SWITCHES: &[Switch] = &[
    Switch { layer: "faults.partition_", switches: &["partition-for"],
        on: |p| p.faults.is_some_and(|f| f.partition_for > 0.0),
        off: "--partition-for 0 disables the partition" },
    Switch { layer: "deadlines.", switches: &["deadline-mean"],
        on: |p| p.deadlines.is_some_and(|d| d.is_active()),
        off: "--deadline-mean 0 disables deadlines" },
    Switch { layer: "admission.", switches: &["admission-cap", "admission-queue"],
        on: |p| p.admission.is_some_and(|a| a.is_active()),
        off: "" }, // any cap given switches it on
    Switch { layer: "redundancy.", switches: &["redundancy"],
        on: |p| p.redundancy.is_some_and(|r| r.max_level >= 2),
        off: "--redundancy below 2 disables hedging" },
    Switch { layer: "arrivals.diurnal_", switches: &["live-diurnal"],
        on: |p| p.arrivals.is_some_and(|a| a.diurnal_amplitude > 0.0),
        off: "--live-diurnal 0 disables the diurnal curve" },
    Switch { layer: "users.", switches: &["live-users"],
        on: |p| p.users.is_some_and(|u| u.is_active()),
        off: "--live-users 0 disables the population" },
];

/// CLI names of the disk disciplines and shedding modes; help shows the
/// first name of a value.
const DISK_CHOICES: &[(&str, DiskChoice)] = &[
    ("random", DiskChoice::Random),
    ("rr", DiskChoice::RoundRobin),
    ("round-robin", DiskChoice::RoundRobin),
    ("jsq", DiskChoice::ShortestQueue),
    ("shortest-queue", DiskChoice::ShortestQueue),
];
const SHEDDING_MODES: &[(&str, SheddingMode)] = &[
    ("reject", SheddingMode::RejectRetry),
    ("redirect", SheddingMode::Redirect),
    ("drop", SheddingMode::Drop),
];

fn parse<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Splits a comma-separated tuple value into exactly `N` parts.
fn tuple<const N: usize>(v: &str) -> Result<[&str; N], String> {
    let parts: Vec<&str> = v.split(',').collect();
    parts
        .try_into()
        .map_err(|_| format!("needs {N} comma-separated values"))
}

fn named<T: Copy>(names: &[(&str, T)], v: &str) -> Result<T, String> {
    names
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, value)| value)
        .ok_or_else(|| "unknown name".to_owned())
}

fn name_of<T: PartialEq>(names: &[(&str, T)], value: T) -> String {
    names
        .iter()
        .find(|(_, v)| *v == value)
        .map_or_else(String::new, |(name, _)| (*name).to_owned())
}

/// An optional layer's spec, created from its `Default` on first use.
fn spec<T: Default>(layer: &mut Option<T>) -> &mut T {
    layer.get_or_insert_with(T::default)
}

/// Consumes the system flags shared by every simulation subcommand (see
/// `dqa help`) and builds validated [`SystemParams`].
///
/// # Errors
///
/// Reports unparsable values, a refinement flag of a layer that is off,
/// and parameter-validation failures, naming the flag.
pub fn take_params(args: &mut Args) -> Result<SystemParams, ArgError> {
    let mut params = SystemParams::paper_base();
    let mut given = Vec::new();
    for flag in FLAGS {
        if let Some(value) = args.take(flag.name) {
            (flag.set)(&mut params, &value).map_err(|e| {
                ArgError(format!(
                    "invalid value `{value}` for --{} (expected {}): {e}",
                    flag.name, flag.hint
                ))
            })?;
            given.push(flag);
        }
    }
    for switch in SWITCHES.iter().filter(|s| !(s.on)(&params)) {
        let switched = |f: &&&Flag| switch.switches.contains(&f.name);
        let refinement = given
            .iter()
            .find(|f| f.field.starts_with(switch.layer) && !switched(f));
        if let Some(refinement) = refinement {
            let why = if given.iter().any(|f| switched(&f)) {
                switch.off.to_owned()
            } else {
                format!("no --{} was given", switch.switches.join(" or --"))
            };
            return Err(ArgError(format!(
                "--{} has no effect because {why}",
                refinement.name
            )));
        }
    }
    // A lone zero mean or population is a sweep's "off" point.
    params.deadlines = params.deadlines.filter(|d| d.is_active());
    params.users = params.users.filter(|u| u.is_active());
    params.validate().map_err(|e| {
        let field = match e {
            ParamsError::NonPositive { field, .. }
            | ParamsError::BadFraction { field, .. }
            | ParamsError::OutOfRange { field, .. } => field,
            _ => "",
        };
        let flags: Vec<String> = FLAGS
            .iter()
            .filter(|f| !field.is_empty() && field.starts_with(f.field))
            .map(|f| format!("--{}", f.name))
            .collect();
        match flags.as_slice() {
            [] => ArgError(e.to_string()),
            _ => ArgError(format!("{e} (see {})", flags.join(", "))),
        }
    })?;
    Ok(params)
}

/// The system-flag sections of `dqa help`, one line per declared flag.
pub fn flag_help() -> String {
    let base = SystemParams::paper_base();
    let mut out = String::new();
    let mut heading = "";
    for flag in FLAGS {
        let layer = flag.field.split_once('.').map_or("", |(layer, _)| layer);
        let section = SECTIONS
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(SECTIONS[0].1, |(_, h)| h);
        if section != heading {
            let _ = write!(out, "\n{section}\n");
            heading = section;
        }
        let usage = match format!("--{} {}", flag.name, flag.hint) {
            long if long.len() > 28 => format!("{long}\n{:30}", ""),
            usage => usage,
        };
        let _ = write!(out, "  {usage:<28} {}", flag.help);
        let default = (flag.show)(&base);
        let _ = match default.as_str() {
            "" => writeln!(out),
            _ => writeln!(out, " ({default})"),
        };
    }
    out
}

/// Consumes the `--jobs` flag shared by every simulation subcommand.
///
/// Returns the requested worker count without applying it, so that unit
/// tests can validate parsing without mutating the process-wide setting;
/// callers pass the value to [`dqa_core::parallel::set_jobs`]. When the
/// flag is absent the resolution order of [`dqa_core::parallel::jobs`]
/// applies (the `DQA_JOBS` environment variable, then the detected
/// parallelism), and `--jobs 1` takes the exact serial code path.
///
/// # Errors
///
/// Rejects `--jobs 0` and non-numeric values.
pub fn take_jobs(args: &mut Args) -> Result<Option<usize>, ArgError> {
    match args.take_opt::<usize>("jobs")? {
        Some(0) => Err(ArgError("--jobs must be at least 1".into())),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use dqa_core::params::{FaultSpec, RedundancySpec, UserSpec};

    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| (*x).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(parse_policy("LERT").unwrap(), PolicyKind::Lert);
        assert_eq!(parse_policy("local").unwrap(), PolicyKind::Local);
        assert_eq!(
            parse_policy("threshold:4").unwrap(),
            PolicyKind::Threshold(4)
        );
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn default_params_are_paper_base() {
        let mut a = args(&[]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p, SystemParams::paper_base());
    }

    #[test]
    fn flags_override_fields() {
        let mut a = args(&[
            "--sites",
            "8",
            "--mpl",
            "25",
            "--think",
            "200",
            "--io-prob",
            "0.3",
            "--copies",
            "2",
            "--reads",
            "40",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.num_sites, 8);
        assert_eq!(p.mpl, 25);
        assert_eq!(p.think_time, 200.0);
        assert_eq!(p.classes[0].probability, 0.3);
        assert_eq!(p.copies, Some(2));
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.classes[1].num_reads, 40.0);
    }

    #[test]
    fn update_and_speed_flags_parse() {
        let mut a = args(&[
            "--update-frac",
            "0.2",
            "--prop-factor",
            "0.25",
            "--cpu-speeds",
            "2,1,1,1,0.5,0.5",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.update_fraction, 0.2);
        assert_eq!(p.propagation_factor, 0.25);
        assert_eq!(
            p.cpu_speeds.as_deref(),
            Some(&[2.0, 1.0, 1.0, 1.0, 0.5, 0.5][..])
        );
    }

    #[test]
    fn migrate_flag_parses_triple() {
        let mut a = args(&["--migrate", "5,1.5,0.25"]);
        let p = take_params(&mut a).unwrap();
        let m = p.migration.unwrap();
        assert_eq!(m.check_every_reads, 5);
        assert_eq!(m.min_gain, 1.5);
        assert_eq!(m.state_growth, 0.25);
    }

    #[test]
    fn no_fault_flags_leaves_faults_disabled() {
        let mut a = args(&[]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.faults, None);
    }

    #[test]
    fn fault_flags_fill_unspecified_fields_with_defaults() {
        let mut a = args(&["--fault-mtbf", "500", "--msg-loss", "0.02"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.faults.expect("fault layer should be enabled");
        assert_eq!(spec.mtbf, 500.0);
        assert_eq!(spec.msg_loss, 0.02);
        let defaults = FaultSpec::default();
        assert_eq!(spec.mttr, defaults.mttr);
        assert_eq!(spec.status_loss, defaults.status_loss);
        assert_eq!(spec.max_retries, defaults.max_retries);
        assert_eq!(spec.backoff_base, defaults.backoff_base);
        assert!(spec.is_active());
    }

    #[test]
    fn all_fault_flags_parse() {
        let mut a = args(&[
            "--fault-mtbf",
            "800",
            "--fault-mttr",
            "40",
            "--msg-loss",
            "0.01",
            "--status-loss",
            "0.1",
            "--fault-retries",
            "3",
            "--fault-backoff",
            "20",
            "--partition-at",
            "1000",
            "--partition-for",
            "250",
            "--partition-groups",
            "2",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(
            p.faults,
            Some(FaultSpec {
                mtbf: 800.0,
                mttr: 40.0,
                msg_loss: 0.01,
                status_loss: 0.1,
                max_retries: 3,
                backoff_base: 20.0,
                partition_at: 1000.0,
                partition_for: 250.0,
                partition_groups: 2,
            })
        );
    }

    #[test]
    fn invalid_fault_flags_are_reported() {
        // Probability outside [0, 1] fails parameter validation.
        let mut a = args(&["--msg-loss", "1.5"]);
        assert!(take_params(&mut a).is_err());
        // A zero repair time means instant repair and is now legal.
        let mut a = args(&["--fault-mtbf", "500", "--fault-mttr", "0"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.faults.unwrap().mttr, 0.0);
        // Non-numeric value is a parse error.
        let mut a = args(&["--fault-backoff", "soon"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn partition_flags_parse_and_conflict_checks_fire() {
        // A duration without a group count is an actionable error, not a
        // silent no-op partition.
        let mut a = args(&["--partition-for", "200"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--partition-groups"), "{err}");
        // Groups without a duration is equally inert and equally rejected.
        let mut a = args(&["--partition-groups", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--partition-for"), "{err}");
        // A single group is not a partition.
        let mut a = args(&["--partition-for", "200", "--partition-groups", "1"]);
        assert!(take_params(&mut a).is_err());
        // The complete triple enables the fault layer with a partition.
        let mut a = args(&[
            "--partition-at",
            "500",
            "--partition-for",
            "200",
            "--partition-groups",
            "3",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let f = p.faults.expect("partition flags enable the fault layer");
        assert!(f.has_partition());
        assert_eq!(f.partition_at, 500.0);
    }

    #[test]
    fn deadline_flags_parse() {
        let mut a = args(&[
            "--deadline-mean",
            "400",
            "--deadline-floor",
            "50",
            "--deadline-retries",
            "3",
            "--deadline-backoff",
            "8",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let d = p.deadlines.expect("deadline layer should be enabled");
        assert!(d.is_active());
        assert_eq!(d.mean, 400.0);
        assert_eq!(d.floor, 50.0);
        assert_eq!(d.max_reallocations, 3);
        assert_eq!(d.backoff_base, 8.0);
    }

    #[test]
    fn conflicting_deadline_flags_are_reported() {
        // Retries with deadlines explicitly disabled is a configuration
        // contradiction, not something to silently ignore.
        let mut a = args(&["--deadline-mean", "0", "--deadline-retries", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--deadline-mean 0"), "{err}");
        // Same for refinement flags with no mean at all.
        let mut a = args(&["--deadline-floor", "10"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --deadline-mean"), "{err}");
        // A bare zero mean (deadlines off, nothing else) stays legal so
        // sweeps can include an "off" point.
        let mut a = args(&["--deadline-mean", "0"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.deadlines, None);
    }

    #[test]
    fn suspicion_flags_parse_and_require_status_broadcast() {
        // The detector rides on costed status broadcasts; without one the
        // parameter validation names the missing pieces.
        let mut a = args(&["--suspect-after", "4"]);
        assert!(take_params(&mut a).is_err());
        let mut a = args(&[
            "--suspect-after",
            "4",
            "--suspect-probation",
            "3",
            "--status-period",
            "50",
            "--status-msg",
            "0.5",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let s = p.suspicion.expect("suspicion layer should be enabled");
        assert_eq!(s.threshold, 4);
        assert_eq!(s.probation, 3);
    }

    #[test]
    fn admission_flags_parse() {
        let mut a = args(&[
            "--admission-cap",
            "12",
            "--admission-mode",
            "redirect",
            "--admission-retries",
            "2",
            "--admission-backoff",
            "15",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.admission.expect("admission layer should be enabled");
        assert!(spec.is_active());
        assert_eq!(spec.mpl_cap, Some(12));
        assert_eq!(spec.queue_limit, None);
        assert_eq!(spec.mode, SheddingMode::Redirect);
        assert_eq!(spec.max_retries, 2);
        assert_eq!(spec.backoff_base, 15.0);
    }

    #[test]
    fn invalid_admission_flags_are_reported() {
        // A cap of zero would admit nothing — rejected with advice.
        let mut a = args(&["--admission-cap", "0"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let mut a = args(&["--admission-queue", "0"]);
        assert!(take_params(&mut a).is_err());
        // A shedding mode without a cap or limit does nothing.
        let mut a = args(&["--admission-mode", "drop"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--admission-cap"), "{err}");
        // Unknown mode names are listed.
        let mut a = args(&["--admission-cap", "10", "--admission-mode", "sideways"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("redirect"), "{err}");
    }

    #[test]
    fn redundancy_flags_parse() {
        let mut a = args(&[
            "--redundancy",
            "3",
            "--redundancy-prob",
            "0.5",
            "--redundancy-load-cap",
            "8",
            "--redundancy-full-frac",
            "0.25",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let r = p.redundancy.expect("redundancy layer should be enabled");
        assert!(r.is_active());
        assert_eq!(r.max_level, 3);
        assert_eq!(r.hedge_prob, 0.5);
        assert_eq!(r.load_threshold, 8.0);
        assert_eq!(r.full_threshold, 0.25);
        // Unspecified refinements take the spec defaults (hedge every
        // eligible query, no load throttle override).
        let mut a = args(&["--redundancy", "2"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let defaults = RedundancySpec::default();
        let r = p.redundancy.unwrap();
        assert_eq!(r.max_level, 2);
        assert_eq!(r.hedge_prob, defaults.hedge_prob);
        assert_eq!(r.load_threshold, defaults.load_threshold);
        assert_eq!(r.full_threshold, defaults.full_threshold);
    }

    #[test]
    fn conflicting_redundancy_flags_are_reported() {
        // Refinements without the enabling level are a contradiction.
        let mut a = args(&["--redundancy-prob", "0.5"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --redundancy"), "{err}");
        // Same with hedging explicitly below the active threshold.
        let mut a = args(&["--redundancy", "1", "--redundancy-load-cap", "5"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("below 2"), "{err}");
        // A bare inert level stays legal (and keeps the inert spec in
        // the params) so sweeps and byte-identity checks get an "off"
        // point that exercises the spec plumbing.
        let mut a = args(&["--redundancy", "1"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let r = p.redundancy.expect("inert spec is kept");
        assert!(!r.is_active());
    }

    #[test]
    fn reads_flag_preserves_resilience_config() {
        // --reads applies to the built params; resilience flags consumed
        // on either side of it have to survive into the final params.
        let mut a = args(&[
            "--reads",
            "40",
            "--deadline-mean",
            "300",
            "--admission-cap",
            "15",
            "--redundancy",
            "2",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert!(p.deadlines.unwrap().is_active());
        assert_eq!(p.admission.unwrap().mpl_cap, Some(15));
        assert!(p.redundancy.unwrap().is_active());
    }

    #[test]
    fn reads_flag_preserves_fault_config() {
        // --reads applies to the built params; fault flags consumed
        // after it must survive into the final params.
        let mut a = args(&["--reads", "40", "--fault-mtbf", "900"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.faults.unwrap().mtbf, 900.0);
    }

    #[test]
    fn live_arrival_flags_parse() {
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-diurnal",
            "0.4",
            "--live-period",
            "8000",
            "--live-flash",
            "1000,500,3",
            "--live-burst",
            "2,150,1500",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.arrivals.expect("live flags enable the arrival layer");
        assert!(spec.is_active());
        assert_eq!(spec.diurnal_amplitude, 0.4);
        assert_eq!(spec.diurnal_period, 8000.0);
        assert_eq!(spec.flash_at, 1000.0);
        assert_eq!(spec.flash_for, 500.0);
        assert_eq!(spec.flash_multiplier, 3.0);
        assert_eq!(spec.burst_multiplier, 2.0);
        assert_eq!(spec.burst_on_mean, 150.0);
        assert_eq!(spec.burst_off_mean, 1500.0);
    }

    #[test]
    fn conflicting_live_arrival_flags_are_reported() {
        // A period without an amplitude modulates nothing.
        let mut a = args(&["--open-rate", "0.05", "--live-period", "5000"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--live-diurnal"), "{err}");
        // Malformed triples name the expected shape.
        let mut a = args(&["--open-rate", "0.05", "--live-flash", "1000,500"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("at,for,mult"), "{err}");
        let mut a = args(&["--open-rate", "0.05", "--live-burst", "2"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("mult,on,off"), "{err}");
        // The arrival layer rides on open arrivals; parameter validation
        // rejects it under the closed workload.
        let mut a = args(&["--live-diurnal", "0.3"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn live_user_flags_parse() {
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-users",
            "1000000",
            "--live-zipf",
            "1.1",
            "--live-session",
            "25",
            "--live-affinity",
            "0.9",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let spec = p.users.expect("--live-users enables the population");
        assert!(spec.is_active());
        assert_eq!(spec.total_users, 1_000_000);
        assert_eq!(spec.zipf_exponent, 1.1);
        assert_eq!(spec.session_mean, 25.0);
        assert_eq!(spec.class_affinity, 0.9);
        // Unspecified refinements take the spec defaults.
        let mut a = args(&["--open-rate", "0.05", "--live-users", "500"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        let defaults = UserSpec::default();
        let spec = p.users.unwrap();
        assert_eq!(spec.total_users, 500);
        assert_eq!(spec.zipf_exponent, defaults.zipf_exponent);
        assert_eq!(spec.session_mean, defaults.session_mean);
        assert_eq!(spec.class_affinity, defaults.class_affinity);
    }

    #[test]
    fn conflicting_live_user_flags_are_reported() {
        // Refinements without the enabling count are a contradiction.
        let mut a = args(&["--open-rate", "0.05", "--live-zipf", "1.1"]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("no --live-users"), "{err}");
        // Same with the population explicitly disabled.
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-users",
            "0",
            "--live-session",
            "10",
        ]);
        let err = take_params(&mut a).unwrap_err();
        assert!(err.to_string().contains("--live-users 0"), "{err}");
        // A bare zero count (population off, nothing else) stays legal so
        // sweeps can include an "off" point.
        let mut a = args(&["--open-rate", "0.05", "--live-users", "0"]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.users, None);
    }

    #[test]
    fn reads_flag_preserves_live_service_config() {
        // --reads after live flags must not drop the live-service fields.
        let mut a = args(&[
            "--open-rate",
            "0.05",
            "--live-diurnal",
            "0.3",
            "--live-users",
            "10000",
            "--reads",
            "40",
        ]);
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(p.classes[0].num_reads, 40.0);
        assert_eq!(p.arrivals.unwrap().diurnal_amplitude, 0.3);
        assert_eq!(p.users.unwrap().total_users, 10_000);
    }

    #[test]
    fn jobs_flag_parses() {
        let mut a = args(&["--jobs", "4"]);
        assert_eq!(take_jobs(&mut a).unwrap(), Some(4));
        a.finish().unwrap();
    }

    #[test]
    fn absent_jobs_flag_is_none() {
        let mut a = args(&[]);
        assert_eq!(take_jobs(&mut a).unwrap(), None);
    }

    #[test]
    fn invalid_jobs_flags_are_reported() {
        // Zero workers is meaningless; the pool needs at least one.
        let mut a = args(&["--jobs", "0"]);
        assert!(take_jobs(&mut a).is_err());
        // Non-numeric value is a parse error.
        let mut a = args(&["--jobs", "many"]);
        assert!(take_jobs(&mut a).is_err());
        // Negative values do not parse as usize.
        let mut a = args(&["--jobs", "-2"]);
        assert!(take_jobs(&mut a).is_err());
    }

    #[test]
    fn invalid_params_are_reported() {
        let mut a = args(&["--sites", "0"]);
        assert!(take_params(&mut a).is_err());
    }

    #[test]
    fn disk_choice_parses() {
        let mut a = args(&["--disk-choice", "jsq"]);
        let p = take_params(&mut a).unwrap();
        assert_eq!(p.disk_choice, DiskChoice::ShortestQueue);
        let mut a = args(&["--disk-choice", "sideways"]);
        assert!(take_params(&mut a).is_err());
    }

    /// Every declared flag, split over a closed-model and an open-model
    /// invocation (the live-service layers need open arrivals).
    const CLOSED: &str = "--sites 6 --disks 3 --mpl 10 --think 300 --io-prob 0.4 --io-cpu 0.06 \
        --cpu-cpu 0.9 --reads 15 --msg 1.5 --detailed-msg 0.00025,1000 --disk-choice rr \
        --estimate-error 0.1 --status-period 50 --status-msg 0.5 --relations 24 --copies 3 \
        --migrate 5,2,0.5 --update-frac 0.2 --prop-factor 0.4 --cpu-speeds 1,1,1,2,2,2 \
        --fault-mtbf 2000 --fault-mttr 60 --msg-loss 0.01 --status-loss 0.05 --fault-retries 3 \
        --fault-backoff 20 --partition-at 1000 --partition-for 500 --partition-groups 2 \
        --deadline-mean 400 --deadline-floor 50 --deadline-retries 1 --deadline-backoff 8 \
        --suspect-after 3 --suspect-probation 2 --admission-cap 15 --admission-queue 30 \
        --admission-mode redirect --admission-retries 2 --admission-backoff 15 \
        --redundancy 2 --redundancy-prob 0.5 --redundancy-load-cap 3 --redundancy-full-frac 0.5";
    const OPEN: &str = "--open-rate 0.05 --live-diurnal 0.3 --live-period 4000 \
        --live-flash 1000,500,2 --live-burst 2,150,1500 --live-users 100000 --live-zipf 1.1 \
        --live-session 25 --live-affinity 0.9";

    #[test]
    fn every_system_flag_is_accepted() {
        let words = |s: &'static str| s.split_whitespace().collect::<Vec<_>>();
        let mut a = args(&words(CLOSED));
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert!(p.faults.is_some() && p.deadlines.is_some() && p.suspicion.is_some());
        assert!(p.admission.is_some() && p.redundancy.is_some() && p.migration.is_some());
        let mut a = args(&words(OPEN));
        let p = take_params(&mut a).unwrap();
        a.finish().unwrap();
        assert!(p.arrivals.is_some() && p.users.is_some());
        // Together the two invocations give each declared flag once.
        let mut given: Vec<&str> = [words(CLOSED), words(OPEN)].concat();
        given.retain(|w| w.starts_with("--"));
        let mut declared: Vec<String> = FLAGS.iter().map(|f| format!("--{}", f.name)).collect();
        given.sort_unstable();
        declared.sort_unstable();
        assert_eq!(given, declared);
        assert_eq!(FLAGS.len(), 53);
    }

    #[test]
    fn help_lists_every_system_flag() {
        let help = flag_help();
        for flag in FLAGS {
            assert!(
                help.contains(&format!("--{} {}", flag.name, flag.hint)),
                "--{}",
                flag.name
            );
        }
    }

    #[test]
    fn readme_flag_tables_name_declared_flags() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter_map(|line| line.strip_prefix("| `--"))
            .filter_map(|rest| rest.split('`').next())
            .collect();
        assert!(rows.len() >= 20, "README flag tables not found");
        for name in rows {
            assert!(
                FLAGS.iter().any(|f| f.name == name),
                "README documents --{name}, which is not a system flag"
            );
        }
    }

    #[test]
    fn validation_errors_name_the_flag() {
        let mut a = args(&["--copies", "7"]);
        let err = take_params(&mut a).unwrap_err().to_string();
        assert!(
            err.contains("at most num_sites") && err.contains("--copies"),
            "{err}"
        );
        let mut a = args(&["--io-cpu", "0"]);
        let err = take_params(&mut a).unwrap_err().to_string();
        assert!(err.contains("--io-cpu, --cpu-cpu"), "{err}");
    }
}
