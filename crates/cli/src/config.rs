//! Shared flag handling: building [`SystemParams`] and policies from
//! command-line flags.

use dqa_core::params::{
    AdmissionSpec, ArrivalSpec, DeadlineSpec, DiskChoice, FaultSpec, MessageCosting, MigrationSpec,
    RedundancySpec, SheddingMode, SuspicionSpec, SystemParams, UserSpec, Workload,
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

/// Consumes the system-parameter flags shared by every simulation
/// subcommand and builds validated [`SystemParams`].
///
/// Flags (all optional, defaults are the paper's base configuration):
/// `--sites`, `--disks`, `--mpl`, `--think`, `--io-prob`, `--io-cpu`,
/// `--cpu-cpu`, `--msg`, `--reads`, `--disk-choice random|rr|jsq`,
/// `--estimate-error`, `--status-period`, `--status-msg`, `--relations`,
/// `--copies`, `--migrate every,gain,growth`, and the fault-injection
/// family `--fault-mtbf`, `--fault-mttr`, `--msg-loss`, `--status-loss`,
/// `--fault-retries`, `--fault-backoff`, `--partition-at`,
/// `--partition-for`, `--partition-groups` (any of which enables the
/// fault layer; unspecified members take [`FaultSpec::default`] values).
///
/// Resilience layers (each family independently optional):
/// deadlines via `--deadline-mean`, `--deadline-floor`,
/// `--deadline-retries`, `--deadline-backoff`; failure suspicion via
/// `--suspect-after`, `--suspect-probation` (requires a costed status
/// broadcast); admission control via `--admission-cap`,
/// `--admission-queue`, `--admission-mode reject|redirect|drop`,
/// `--admission-retries`, `--admission-backoff`; redundancy-aware
/// dispatch via `--redundancy N` (the replication level, active at 2+)
/// with refinements `--redundancy-prob`, `--redundancy-load-cap`,
/// `--redundancy-full-frac`.
///
/// Live-service layers (require `--open-rate`): time-varying arrivals
/// via `--live-diurnal AMP` (+ `--live-period P`),
/// `--live-flash at,for,mult`, `--live-burst mult,on,off` (any of which
/// enables the nonhomogeneous arrival kernel); the user population via
/// `--live-users N` with refinements `--live-zipf`, `--live-session`,
/// `--live-affinity`.
///
/// # Errors
///
/// Propagates parse failures and parameter-validation failures with the
/// offending flag named.
pub fn take_params(args: &mut Args) -> Result<SystemParams, ArgError> {
    let mut b = SystemParams::builder();
    b = b.num_sites(args.take_or("sites", 6usize)?);
    b = b.num_disks(args.take_or("disks", 2u32)?);
    b = b.mpl(args.take_or("mpl", 20u32)?);
    b = b.think_time(args.take_or("think", 350.0f64)?);
    b = b.two_class(
        args.take_or("io-prob", 0.5f64)?,
        args.take_or("io-cpu", 0.05f64)?,
        args.take_or("cpu-cpu", 1.0f64)?,
    );
    b = b.msg_length(args.take_or("msg", 1.0f64)?);
    // `--reads` sets every class's mean read count, which the builder
    // has no setter for: it applies to the built params below.
    let reads = args.take_opt::<f64>("reads")?;
    if let Some(choice) = args.take("disk-choice") {
        let parsed = match choice.as_str() {
            "random" => DiskChoice::Random,
            "rr" | "round-robin" => DiskChoice::RoundRobin,
            "jsq" | "shortest-queue" => DiskChoice::ShortestQueue,
            other => {
                return Err(ArgError(format!(
                    "unknown disk choice `{other}` (expected random, rr, jsq)"
                )))
            }
        };
        b = b.disk_choice(parsed);
    }
    b = b.estimate_error(args.take_or("estimate-error", 0.0f64)?);
    b = b.status_period(args.take_or("status-period", 0.0f64)?);
    b = b.status_msg_length(args.take_or("status-msg", 0.0f64)?);
    b = b.num_relations(args.take_or("relations", 12usize)?);
    if let Some(copies) = args.take_opt::<u32>("copies")? {
        b = b.copies(Some(copies));
    }
    if let Some(spec) = args.take("detailed-msg") {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 2 {
            return Err(ArgError(format!(
                "--detailed-msg expects `msg_time,page_size`, got `{spec}`"
            )));
        }
        let msg_time = parts[0]
            .parse()
            .map_err(|e| ArgError(format!("invalid msg_time: {e}")))?;
        let page_size = parts[1]
            .parse()
            .map_err(|e| ArgError(format!("invalid page_size: {e}")))?;
        b = b.message_costing(MessageCosting::Detailed {
            msg_time,
            page_size,
        });
    }
    if let Some(rate) = args.take_opt::<f64>("open-rate")? {
        b = b.workload(Workload::Open { arrival_rate: rate });
    }
    b = b.update_fraction(args.take_or("update-frac", 0.0f64)?);
    b = b.propagation_factor(args.take_or("prop-factor", 0.5f64)?);
    if let Some(speeds) = args.take("cpu-speeds") {
        let parsed: Result<Vec<f64>, _> = speeds.split(',').map(str::parse).collect();
        let parsed = parsed.map_err(|e| ArgError(format!("invalid --cpu-speeds list: {e}")))?;
        b = b.cpu_speeds(Some(parsed));
    }
    // Fault-injection flags: any one of them switches the layer on.
    let fault_mtbf = args.take_opt::<f64>("fault-mtbf")?;
    let fault_mttr = args.take_opt::<f64>("fault-mttr")?;
    let msg_loss = args.take_opt::<f64>("msg-loss")?;
    let status_loss = args.take_opt::<f64>("status-loss")?;
    let fault_retries = args.take_opt::<u32>("fault-retries")?;
    let fault_backoff = args.take_opt::<f64>("fault-backoff")?;
    let partition_at = args.take_opt::<f64>("partition-at")?;
    let partition_for = args.take_opt::<f64>("partition-for")?;
    let partition_groups = args.take_opt::<u32>("partition-groups")?;
    if (partition_for.is_some_and(|v| v > 0.0) || partition_at.is_some())
        && partition_groups.is_none_or(|g| g < 2)
    {
        return Err(ArgError(
            "an injected partition needs --partition-groups of at least 2 \
             alongside --partition-at/--partition-for"
                .into(),
        ));
    }
    if partition_groups.is_some_and(|g| g >= 2) && !partition_for.is_some_and(|v| v > 0.0) {
        return Err(ArgError(
            "--partition-groups does nothing without a positive --partition-for \
             (the partition's duration)"
                .into(),
        ));
    }
    if fault_mtbf.is_some()
        || fault_mttr.is_some()
        || msg_loss.is_some()
        || status_loss.is_some()
        || fault_retries.is_some()
        || fault_backoff.is_some()
        || partition_at.is_some()
        || partition_for.is_some()
        || partition_groups.is_some()
    {
        let defaults = FaultSpec::default();
        b = b.faults(Some(FaultSpec {
            mtbf: fault_mtbf.unwrap_or(defaults.mtbf),
            mttr: fault_mttr.unwrap_or(defaults.mttr),
            msg_loss: msg_loss.unwrap_or(defaults.msg_loss),
            status_loss: status_loss.unwrap_or(defaults.status_loss),
            max_retries: fault_retries.unwrap_or(defaults.max_retries),
            backoff_base: fault_backoff.unwrap_or(defaults.backoff_base),
            partition_at: partition_at.unwrap_or(defaults.partition_at),
            partition_for: partition_for.unwrap_or(defaults.partition_for),
            partition_groups: partition_groups.unwrap_or(defaults.partition_groups),
        }));
    }
    // Deadline flags: --deadline-mean switches the layer on; the others
    // refine it and are meaningless (and rejected) without it.
    let deadline_mean = args.take_opt::<f64>("deadline-mean")?;
    let deadline_floor = args.take_opt::<f64>("deadline-floor")?;
    let deadline_retries = args.take_opt::<u32>("deadline-retries")?;
    let deadline_backoff = args.take_opt::<f64>("deadline-backoff")?;
    let deadline_active = deadline_mean.is_some_and(|m| m > 0.0);
    if !deadline_active
        && (deadline_floor.is_some() || deadline_retries.is_some() || deadline_backoff.is_some())
    {
        let given = if deadline_mean.is_some() {
            "--deadline-mean 0 disables deadlines"
        } else {
            "no --deadline-mean was given"
        };
        return Err(ArgError(format!(
            "--deadline-floor/--deadline-retries/--deadline-backoff have no effect \
             because {given}; set --deadline-mean to a positive value to enable \
             deadlines, or drop the other deadline flags"
        )));
    }
    if deadline_active {
        let defaults = DeadlineSpec::default();
        b = b.deadlines(Some(DeadlineSpec {
            mean: deadline_mean.unwrap_or(defaults.mean),
            floor: deadline_floor.unwrap_or(defaults.floor),
            max_reallocations: deadline_retries.unwrap_or(defaults.max_reallocations),
            backoff_base: deadline_backoff.unwrap_or(defaults.backoff_base),
        }));
    }
    // Suspicion flags: either one switches the detector on.
    let suspect_after = args.take_opt::<u32>("suspect-after")?;
    let suspect_probation = args.take_opt::<u32>("suspect-probation")?;
    if suspect_after.is_some() || suspect_probation.is_some() {
        let defaults = SuspicionSpec::default();
        b = b.suspicion(Some(SuspicionSpec {
            threshold: suspect_after.unwrap_or(defaults.threshold),
            probation: suspect_probation.unwrap_or(defaults.probation),
        }));
    }
    // Admission flags: a cap or a queue limit switches the layer on; the
    // shedding mode and retry knobs refine it.
    let admission_cap = args.take_opt::<u32>("admission-cap")?;
    let admission_queue = args.take_opt::<u32>("admission-queue")?;
    let admission_mode = args.take("admission-mode");
    let admission_retries = args.take_opt::<u32>("admission-retries")?;
    let admission_backoff = args.take_opt::<f64>("admission-backoff")?;
    if admission_cap == Some(0) {
        return Err(ArgError(
            "--admission-cap must be at least 1 (a cap of 0 would admit nothing); \
             omit the flag to disable the MPL cap"
                .into(),
        ));
    }
    if admission_queue == Some(0) {
        return Err(ArgError(
            "--admission-queue must be at least 1 (a limit of 0 would admit \
             nothing); omit the flag to disable the queue limit"
                .into(),
        ));
    }
    if admission_cap.is_some() || admission_queue.is_some() {
        let mode = match admission_mode.as_deref() {
            None | Some("reject") => SheddingMode::RejectRetry,
            Some("redirect") => SheddingMode::Redirect,
            Some("drop") => SheddingMode::Drop,
            Some(other) => {
                return Err(ArgError(format!(
                    "unknown admission mode `{other}` (expected reject, redirect, drop)"
                )))
            }
        };
        let defaults = AdmissionSpec::default();
        b = b.admission(Some(AdmissionSpec {
            mpl_cap: admission_cap,
            queue_limit: admission_queue,
            mode,
            max_retries: admission_retries.unwrap_or(defaults.max_retries),
            backoff_base: admission_backoff.unwrap_or(defaults.backoff_base),
        }));
    } else if admission_mode.is_some() || admission_retries.is_some() || admission_backoff.is_some()
    {
        return Err(ArgError(
            "--admission-mode/--admission-retries/--admission-backoff have no \
             effect without --admission-cap or --admission-queue; add a cap or \
             a queue limit to enable admission control"
                .into(),
        ));
    }
    // Redundancy flags: --redundancy (the replication level n) switches
    // hedged dispatch on at n >= 2; the refinements tune the hedge coin
    // and the load-adaptive controller and are meaningless (and
    // rejected) without it. A bare `--redundancy 1` keeps an inert spec
    // in the params — useful for byte-identity checks, since an inert
    // spec draws nothing from the RNG.
    let redundancy = args.take_opt::<u32>("redundancy")?;
    let redundancy_prob = args.take_opt::<f64>("redundancy-prob")?;
    let redundancy_load_cap = args.take_opt::<f64>("redundancy-load-cap")?;
    let redundancy_full_frac = args.take_opt::<f64>("redundancy-full-frac")?;
    let redundancy_active = redundancy.is_some_and(|n| n >= 2);
    if !redundancy_active
        && (redundancy_prob.is_some()
            || redundancy_load_cap.is_some()
            || redundancy_full_frac.is_some())
    {
        let given = if redundancy.is_some() {
            "--redundancy below 2 disables hedging"
        } else {
            "no --redundancy was given"
        };
        return Err(ArgError(format!(
            "--redundancy-prob/--redundancy-load-cap/--redundancy-full-frac have \
             no effect because {given}; set --redundancy to at least 2 to enable \
             hedged dispatch, or drop the refinement flags"
        )));
    }
    if let Some(level) = redundancy {
        let defaults = RedundancySpec::default();
        b = b.redundancy(Some(RedundancySpec {
            max_level: level,
            hedge_prob: redundancy_prob.unwrap_or(defaults.hedge_prob),
            load_threshold: redundancy_load_cap.unwrap_or(defaults.load_threshold),
            full_threshold: redundancy_full_frac.unwrap_or(defaults.full_threshold),
        }));
    }
    // Live-service arrival flags: any of --live-diurnal, --live-flash,
    // --live-burst switches the time-varying arrival layer on.
    let live_diurnal = args.take_opt::<f64>("live-diurnal")?;
    let live_period = args.take_opt::<f64>("live-period")?;
    let live_flash = args.take("live-flash");
    let live_burst = args.take("live-burst");
    if live_period.is_some() && live_diurnal.is_none() {
        return Err(ArgError(
            "--live-period has no effect without --live-diurnal (the diurnal \
             amplitude); add --live-diurnal or drop --live-period"
                .into(),
        ));
    }
    if live_diurnal.is_some() || live_flash.is_some() || live_burst.is_some() {
        let mut spec = ArrivalSpec::default();
        if let Some(amp) = live_diurnal {
            spec.diurnal_amplitude = amp;
        }
        if let Some(period) = live_period {
            spec.diurnal_period = period;
        }
        if let Some(flash) = live_flash {
            let parts: Vec<&str> = flash.split(',').collect();
            if parts.len() != 3 {
                return Err(ArgError(format!(
                    "--live-flash expects `at,for,mult`, got `{flash}`"
                )));
            }
            spec.flash_at = parts[0]
                .parse()
                .map_err(|e| ArgError(format!("invalid flash start: {e}")))?;
            spec.flash_for = parts[1]
                .parse()
                .map_err(|e| ArgError(format!("invalid flash duration: {e}")))?;
            spec.flash_multiplier = parts[2]
                .parse()
                .map_err(|e| ArgError(format!("invalid flash multiplier: {e}")))?;
        }
        if let Some(burst) = live_burst {
            let parts: Vec<&str> = burst.split(',').collect();
            if parts.len() != 3 {
                return Err(ArgError(format!(
                    "--live-burst expects `mult,on,off`, got `{burst}`"
                )));
            }
            spec.burst_multiplier = parts[0]
                .parse()
                .map_err(|e| ArgError(format!("invalid burst multiplier: {e}")))?;
            spec.burst_on_mean = parts[1]
                .parse()
                .map_err(|e| ArgError(format!("invalid burst on-dwell: {e}")))?;
            spec.burst_off_mean = parts[2]
                .parse()
                .map_err(|e| ArgError(format!("invalid burst off-dwell: {e}")))?;
        }
        b = b.arrivals(Some(spec));
    }
    // User-population flags: --live-users switches the population on; the
    // others refine it and are meaningless without it.
    let live_users = args.take_opt::<u64>("live-users")?;
    let live_zipf = args.take_opt::<f64>("live-zipf")?;
    let live_session = args.take_opt::<f64>("live-session")?;
    let live_affinity = args.take_opt::<f64>("live-affinity")?;
    if live_users.is_none_or(|n| n == 0)
        && (live_zipf.is_some() || live_session.is_some() || live_affinity.is_some())
    {
        let given = if live_users.is_some() {
            "--live-users 0 disables the population"
        } else {
            "no --live-users was given"
        };
        return Err(ArgError(format!(
            "--live-zipf/--live-session/--live-affinity have no effect because \
             {given}; set --live-users to a positive count to enable the user \
             population, or drop the other live-user flags"
        )));
    }
    if live_users.is_some_and(|n| n > 0) {
        let defaults = UserSpec::default();
        b = b.users(Some(UserSpec {
            total_users: live_users.unwrap_or(0),
            zipf_exponent: live_zipf.unwrap_or(defaults.zipf_exponent),
            session_mean: live_session.unwrap_or(defaults.session_mean),
            class_affinity: live_affinity.unwrap_or(defaults.class_affinity),
        }));
    }
    if let Some(spec) = args.take("migrate") {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 3 {
            return Err(ArgError(format!(
                "--migrate expects `every,gain,growth`, got `{spec}`"
            )));
        }
        let every = parts[0]
            .parse()
            .map_err(|e| ArgError(format!("invalid migrate interval: {e}")))?;
        let gain = parts[1]
            .parse()
            .map_err(|e| ArgError(format!("invalid migrate gain: {e}")))?;
        let growth = parts[2]
            .parse()
            .map_err(|e| ArgError(format!("invalid migrate growth: {e}")))?;
        b = b.migration(Some(MigrationSpec {
            check_every_reads: every,
            min_gain: gain,
            state_growth: growth,
        }));
    }
    let mut params = b.build().map_err(|e| ArgError(e.to_string()))?;
    if let Some(reads) = reads {
        for class in &mut params.classes {
            class.num_reads = reads;
        }
        params.validate().map_err(|e| ArgError(e.to_string()))?;
    }
    Ok(params)
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
}
