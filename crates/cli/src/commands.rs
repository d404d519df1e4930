//! The `dqa` subcommands.

use dqa_core::experiment::{
    improvement_pct, max_mpl_for_response, run as run_experiment, run_replicated, run_sharded,
    RunConfig, RunReport,
};
use dqa_core::policy::PolicyKind;
use dqa_core::table::{fmt_f, TextTable};
use dqa_mva::allocation::{analyze_arrival, LoadMatrix, StudyConfig};

use crate::args::{ArgError, Args};
use crate::config::{parse_policy, take_jobs, take_params};

/// Consumes `--jobs` and applies it to the process-wide worker-pool
/// setting used by replicated runs (`--jobs 1` forces the serial path).
fn apply_jobs(args: &mut Args) -> Result<(), ArgError> {
    if let Some(jobs) = take_jobs(args)? {
        dqa_core::parallel::set_jobs(jobs);
    }
    Ok(())
}

/// Consumes the output-analysis flags.
fn take_windows(args: &mut Args) -> Result<(u64, f64, f64), ArgError> {
    Ok((
        args.take_or("seed", 1u64)?,
        args.take_or("warmup", 3_000.0f64)?,
        args.take_or("measure", 30_000.0f64)?,
    ))
}

fn take_policies(args: &mut Args, default: &str) -> Result<Vec<PolicyKind>, ArgError> {
    let spec = args.take("policies").unwrap_or_else(|| default.to_owned());
    spec.split(',').map(parse_policy).collect()
}

/// `dqa run` — one policy, one configuration, full report.
///
/// `--shard-sites N` runs the simulation under the conservative
/// parallel-in-time executor with `N` window workers instead of the
/// serial engine; the report is byte-identical whenever the
/// configuration passes the shardability gate.
pub fn run_cmd(mut args: Args) -> Result<(), ArgError> {
    let policy = parse_policy(&args.take("policy").unwrap_or_else(|| "lert".into()))?;
    let params = take_params(&mut args)?;
    let (seed, warmup, measure) = take_windows(&mut args)?;
    let shard_jobs = match args.take_opt::<usize>("shard-sites")? {
        Some(0) => return Err(ArgError("--shard-sites must be at least 1".into())),
        other => other,
    };
    apply_jobs(&mut args)?;
    args.finish()?;

    let config = RunConfig::new(params, policy)
        .seed(seed)
        .windows(warmup, measure);
    let report = match shard_jobs {
        Some(jobs) => run_sharded(&config, jobs).map_err(|e| ArgError(e.to_string()))?,
        None => run_experiment(&config).map_err(|e| ArgError(e.to_string()))?,
    };
    print_report(&report);
    Ok(())
}

fn print_report(r: &RunReport) {
    println!("policy            {}", r.policy);
    println!("measured time     {}", r.measured_time);
    println!("completed         {}", r.completed);
    if r.waiting_half_width.is_finite() {
        println!(
            "mean waiting      {:.3} ± {:.3} (95% batch means)",
            r.mean_waiting, r.waiting_half_width
        );
    } else {
        println!("mean waiting      {:.3}", r.mean_waiting);
    }
    println!("mean response     {:.3}", r.mean_response);
    println!(
        "response p50/p90/p99  {:.1} / {:.1} / {:.1}",
        r.response_p50, r.response_p90, r.response_p99
    );
    if r.sketch_p999 > 0.0 {
        println!(
            "tail sketch p50/p99/p999  {:.1} / {:.1} / {:.1}",
            r.sketch_p50, r.sketch_p99, r.sketch_p999
        );
    }
    if r.peak_active_users > 0 {
        let per_user = r.user_arena_peak_bytes as f64 / r.peak_active_users as f64;
        println!(
            "active users      {} peak ({} arena bytes, {:.1} B/user)",
            r.peak_active_users, r.user_arena_peak_bytes, per_user
        );
    }
    println!("throughput        {:.4} queries/unit", r.throughput);
    println!("fairness F        {:+.4}", r.fairness);
    println!("cpu utilization   {:.3}", r.cpu_utilization);
    println!("disk utilization  {:.3}", r.disk_utilization);
    println!("subnet util       {:.3}", r.subnet_utilization);
    println!("transfer fraction {:.3}", r.transfer_fraction);
    println!("mean QD           {:.3}", r.mean_query_difference);
    if r.migrations > 0 {
        println!("migrations        {}", r.migrations);
    }
    let faults_seen =
        r.queries_retried + r.queries_lost + r.msgs_lost > 0 || r.mean_availability < 1.0;
    if faults_seen {
        println!("mean availability {:.4}", r.mean_availability);
        println!(
            "faults            {} retried / {} recovered / {} lost",
            r.queries_retried, r.queries_recovered, r.queries_lost
        );
        println!("messages lost     {}", r.msgs_lost);
    }
    if r.deadline_timeouts > 0 {
        println!(
            "deadlines         {} expired / {} reallocated / {} abandoned",
            r.deadline_timeouts, r.deadline_reallocations, r.deadline_abandoned
        );
    }
    if r.admission_rejected + r.admission_redirected + r.admission_dropped > 0 {
        println!(
            "admission         {} rejected / {} redirected / {} dropped",
            r.admission_rejected, r.admission_redirected, r.admission_dropped
        );
    }
    if r.partition_drops > 0 {
        println!("partition drops   {}", r.partition_drops);
    }
    if r.hedged_dispatched > 0 {
        println!(
            "hedged            {} dispatched / {} duplicate wins / {} cancelled",
            r.hedged_dispatched, r.hedge_wins, r.hedge_cancelled
        );
        println!("wasted service    {:.1}", r.hedge_wasted_service);
    }
    println!();
    let mut t = TextTable::new(vec!["class", "completed", "wait", "resp", "service", "W^"]);
    for c in &r.per_class {
        t.row(vec![
            c.name.clone(),
            c.completed.to_string(),
            fmt_f(c.mean_waiting, 2),
            fmt_f(c.mean_response, 2),
            fmt_f(c.mean_service, 2),
            fmt_f(c.normalized_waiting, 3),
        ]);
    }
    println!("{t}");

    let mut t = TextTable::new(vec![
        "site",
        "rho_cpu",
        "rho_disk",
        "cpu queue",
        "cpu bursts",
    ]);
    for (s, site) in r.per_site.iter().enumerate() {
        t.row(vec![
            s.to_string(),
            fmt_f(site.cpu_utilization, 3),
            fmt_f(site.disk_utilization, 3),
            fmt_f(site.mean_cpu_queue, 2),
            site.cpu_completions.to_string(),
        ]);
    }
    println!("{t}");
}

/// `dqa compare` — several policies on the same configuration.
pub fn compare(mut args: Args) -> Result<(), ArgError> {
    let policies = take_policies(&mut args, "local,bnq,bnqrd,lert")?;
    let params = take_params(&mut args)?;
    let (seed, warmup, measure) = take_windows(&mut args)?;
    let reps = args.take_or("reps", 3u32)?;
    apply_jobs(&mut args)?;
    args.finish()?;

    let mut table = TextTable::new(vec![
        "policy",
        "mean wait ± hw",
        "vs first (%)",
        "fairness F",
        "subnet",
        "transfers",
    ]);
    let mut base = None;
    for policy in policies {
        let rep = run_replicated(
            &RunConfig::new(params.clone(), policy)
                .seed(seed)
                .windows(warmup, measure),
            reps,
        )
        .map_err(|e| ArgError(e.to_string()))?;
        let w = rep.mean_waiting();
        let b = *base.get_or_insert(w);
        table.row(vec![
            policy.to_string(),
            format!(
                "{} ± {}",
                fmt_f(w, 2),
                fmt_f(rep.half_width(|r| r.mean_waiting), 2)
            ),
            fmt_f(improvement_pct(b, w), 2),
            fmt_f(rep.mean_fairness(), 3),
            fmt_f(rep.mean_subnet_utilization(), 3),
            fmt_f(rep.mean(|r| r.transfer_fraction), 3),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `dqa sweep` — vary one numeric system flag across a list of values.
pub fn sweep(mut args: Args) -> Result<(), ArgError> {
    let flag = args
        .take("flag")
        .ok_or_else(|| ArgError("sweep requires --flag <system flag name>".into()))?;
    let values = args
        .take("values")
        .ok_or_else(|| ArgError("sweep requires --values a,b,c".into()))?;
    let policy = parse_policy(&args.take("policy").unwrap_or_else(|| "lert".into()))?;
    let (seed, warmup, measure) = take_windows(&mut args)?;
    let reps = args.take_or("reps", 3u32)?;
    // Consume --jobs before cloning the per-point flag sets below, so it
    // is not re-parsed (and rejected) as a system flag at each point.
    apply_jobs(&mut args)?;
    let rest: Vec<String> = values.split(',').map(str::to_owned).collect();

    let mut table = TextTable::new(vec![
        flag.clone(),
        "mean wait".to_owned(),
        "mean resp".to_owned(),
        "fairness F".to_owned(),
        "subnet".to_owned(),
    ]);
    for value in &rest {
        // Re-parse the shared flags for every point, overriding the swept
        // flag with this value.
        let mut point = args.clone();
        if point.take(&flag).is_some() {
            return Err(ArgError(format!(
                "--{flag} may not also be given as a fixed flag while swept"
            )));
        }
        let mut with_flag_raw = vec![format!("--{flag}"), value.clone()];
        with_flag_raw.extend(point.to_raw());
        let mut point = Args::parse(&with_flag_raw)?;
        let params = take_params(&mut point)?;
        point.finish()?;

        let rep = run_replicated(
            &RunConfig::new(params, policy)
                .seed(seed)
                .windows(warmup, measure),
            reps,
        )
        .map_err(|e| ArgError(e.to_string()))?;
        table.row(vec![
            value.clone(),
            fmt_f(rep.mean_waiting(), 2),
            fmt_f(rep.mean_response(), 2),
            fmt_f(rep.mean_fairness(), 3),
            fmt_f(rep.mean_subnet_utilization(), 3),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `dqa capacity` — the Table-10 question for arbitrary configurations.
pub fn capacity(mut args: Args) -> Result<(), ArgError> {
    let target = args.take_or("target", 50.0f64)?;
    let policies = take_policies(&mut args, "local,lert")?;
    let max_mpl = args.take_or("max-mpl", 45u32)?;
    let params = take_params(&mut args)?;
    let (seed, warmup, measure) = take_windows(&mut args)?;
    let reps = args.take_or("reps", 2u32)?;
    apply_jobs(&mut args)?;
    args.finish()?;

    println!("target: mean response <= {target}\n");
    let mut table = TextTable::new(vec!["policy", "max mpl"]);
    for policy in policies {
        let cfg = RunConfig::new(params.clone(), policy)
            .seed(seed)
            .windows(warmup, measure);
        let max = max_mpl_for_response(&cfg, target, 2..=max_mpl, reps)
            .map_err(|e| ArgError(e.to_string()))?;
        table.row(vec![
            policy.to_string(),
            max.map_or("unattainable".into(), |m| m.to_string()),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `dqa mva` — the Section-3 analytic study for one arrival.
pub fn mva(mut args: Args) -> Result<(), ArgError> {
    let cpu1 = args.take_or("cpu1", 0.05f64)?;
    let cpu2 = args.take_or("cpu2", 1.0f64)?;
    let load_spec = args.take("load").unwrap_or_else(|| "1100/0011".into());
    let class: usize = args.take_or("class", 1usize)?;
    args.finish()?;
    if !(1..=2).contains(&class) {
        return Err(ArgError("--class must be 1 or 2".into()));
    }

    let load = parse_load(&load_spec)?;
    let cfg = StudyConfig::new(cpu1, cpu2);
    let a = analyze_arrival(&cfg, &load, class - 1);
    println!("load matrix {load_spec}, arriving class {class}, cpu {cpu1}/{cpu2}");
    println!("BNQ candidates        {:?}", a.bnq_candidates);
    println!("expected wait (BNQ)   {:.4}", a.waiting_bnq);
    println!(
        "optimal site          {} (wait {:.4})",
        a.opt_site, a.waiting_opt
    );
    println!("WIF                   {:.3}", a.wif());
    println!(
        "fairest site          {} (|F| {:.4} vs {:.4})",
        a.fair_site, a.fairness_opt, a.fairness_bnq
    );
    println!("FIF                   {:.3}", a.fif());
    Ok(())
}

/// Parses a `1100/0011`-style load matrix (class-1 row / class-2 row).
fn parse_load(spec: &str) -> Result<LoadMatrix, ArgError> {
    let rows: Vec<&str> = spec.split('/').collect();
    if rows.len() != 2 {
        return Err(ArgError(format!(
            "--load expects `<class1 digits>/<class2 digits>`, got `{spec}`"
        )));
    }
    let mut counts = [[0u32; 4]; 2];
    for (i, row) in rows.iter().enumerate() {
        let digits: Vec<u32> = row
            .chars()
            .map(|c| {
                c.to_digit(10)
                    .ok_or_else(|| ArgError(format!("non-digit `{c}` in --load")))
            })
            .collect::<Result<_, _>>()?;
        if digits.len() != 4 {
            return Err(ArgError(format!(
                "--load rows need exactly 4 digits (one per site), got `{row}`"
            )));
        }
        counts[i].copy_from_slice(&digits);
    }
    Ok(LoadMatrix::new(counts))
}

// `main` refers to the run subcommand as `commands::run`.
pub use run_cmd as run;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_spec_round_trip() {
        let l = parse_load("2100/0011").unwrap();
        assert_eq!(l.site_population(0), [2, 0]);
        assert_eq!(l.site_population(3), [0, 1]);
        assert!(parse_load("21/0011").is_err());
        assert!(parse_load("21000011").is_err());
        assert!(parse_load("2x00/0011").is_err());
    }
}
