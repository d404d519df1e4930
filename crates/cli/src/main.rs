//! `dqa` — command-line front end for the dynamic-query-allocation
//! simulator.
//!
//! ```text
//! dqa run     --policy lert [system flags] [--seed N] [--warmup T] [--measure T]
//! dqa compare --policies local,bnq,bnqrd,lert [system flags] [--reps N]
//! dqa sweep   --flag think --values 150,250,350 --policy lert [system flags]
//! dqa capacity --target 50 --policies local,lert [system flags]
//! dqa mva     --cpu1 0.05 --cpu2 1.0 --load 1100/0011 --class 1
//! dqa help
//! ```
//!
//! `dqa help` lists every system flag with its default; the flags are
//! declared once, in `config.rs`.
//!
//! `--jobs N` (or the `DQA_JOBS` environment variable) sets how many
//! worker threads replicated runs may use; results are byte-identical for
//! every worker count, and `--jobs 1` takes the exact serial code path.

mod args;
mod commands;
mod config;

use std::process::ExitCode;

use args::Args;

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        print_help();
        return ExitCode::SUCCESS;
    }
    let command = raw.remove(0);
    let result = match command.as_str() {
        "run" => Args::parse(&raw).and_then(commands::run),
        "compare" => Args::parse(&raw).and_then(commands::compare),
        "sweep" => Args::parse(&raw).and_then(commands::sweep),
        "capacity" => Args::parse(&raw).and_then(commands::capacity),
        "mva" => Args::parse(&raw).and_then(commands::mva),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(args::ArgError(format!(
            "unknown command `{other}` (try `dqa help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "dqa — dynamic query allocation in a distributed database (Carey/Livny/Lu 1984)

USAGE:
  dqa run      --policy <P> [system flags] [--seed N] [--warmup T] [--measure T]
  dqa compare  [--policies local,bnq,bnqrd,lert] [system flags] [--reps N]
  dqa sweep    --flag <name> --values a,b,c [--policy <P>] [system flags]
  dqa capacity [--target R] [--policies local,lert] [--max-mpl N] [system flags]
  dqa mva      [--cpu1 X] [--cpu2 Y] [--load 1100/0011] [--class 1|2]
  dqa help

POLICIES: local, bnq, bnqrd, lert, random, lert-nonet, wlc, threshold:K
{}
EXECUTION:
  --jobs N         worker threads for replicated runs (default: DQA_JOBS
                   env var, else the detected CPU count; results are
                   byte-identical for every N, and N=1 runs serially)
  --shard-sites N  (`dqa run` only) execute the single simulation under
                   the conservative parallel-in-time executor: one
                   logical process per site, windows synchronized by the
                   ring's minimum frame-transfer lookahead, N window
                   workers. Byte-identical to the serial run; requires
                   --status-period > 0 and no deadline/admission layer

EXAMPLES:
  dqa compare --think 250
  dqa run --policy lert --copies 2 --relations 24 --sites 8
  dqa sweep --flag msg --values 0.5,1,2,4 --policy lert
  dqa mva --load 2100/0011 --class 1",
        config::flag_help()
    );
}
