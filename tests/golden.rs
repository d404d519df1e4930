//! Golden pins: committed digests of short runs, so a refactor that changes
//! the simulated trajectory fails here even when it changes every executor
//! the same way (comparing two runs of one build cannot catch that).
//!
//! A digest is FNV-1a (64-bit) over the report's `Debug` rendering, which
//! prints every field and every `f64` in shortest round-trip form, so two
//! reports share a digest only if they are bitwise equal (barring a hash
//! collision). A change that alters simulated behaviour on purpose must
//! re-pin the digests it moves and say why in CHANGES.md; each mismatch
//! prints the new digest.

use dqa_core::experiment::{run, run_sharded, RunConfig, RunReport};
use dqa_core::params::{
    AdmissionSpec, ArrivalSpec, DeadlineSpec, FaultSpec, MigrationSpec, RedundancySpec,
    SheddingMode, SuspicionSpec, SystemParams, UserSpec, Workload,
};
use dqa_core::policy::PolicyKind;

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn digest(report: &RunReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Runs each config serially and compares its digest with the pin at the
/// same index, reporting every mismatch at once. Returns the reports.
fn assert_pinned(what: &str, configs: &[RunConfig], pins: &[u64]) -> Vec<RunReport> {
    assert_eq!(configs.len(), pins.len(), "{what}: one pin per config");
    let reports: Vec<RunReport> = configs
        .iter()
        .map(|c| run(c).expect("valid config"))
        .collect();
    assert!(
        reports.iter().all(|r| r.completed > 0),
        "{what}: degenerate run"
    );
    let got: Vec<u64> = reports.iter().map(digest).collect();
    assert_eq!(
        got,
        pins,
        "{what}: report digests moved; new pins: {}",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    reports
}

fn paper_policy_configs(params: &SystemParams, warmup: f64, measure: f64) -> Vec<RunConfig> {
    PolicyKind::paper_policies()
        .iter()
        .map(|&policy| {
            RunConfig::new(params.clone(), policy)
                .seed(1)
                .windows(warmup, measure)
        })
        .collect()
}

#[test]
fn paper_policies_on_the_paper_base() {
    let params = SystemParams::builder().build().expect("valid params");
    assert_pinned(
        "paper base",
        &paper_policy_configs(&params, 500.0, 5_000.0),
        &[
            0x13b4_0a5b_97b7_ac11,
            0x8167_cc10_929a_72a3,
            0xec06_252d_8b7c_1874,
            0x573d_6bad_9796_60d5,
        ],
    );
}

/// The paper base with every closed-model layer active at once: costed
/// status, crashes, message loss, a partition inside the measured window,
/// deadlines with reallocation, suspicion, admission control, hedging,
/// migration and replicated updates.
#[test]
fn full_closed_model_resilience_stack() {
    let params = SystemParams::builder()
        .status_period(40.0)
        .status_msg_length(0.05)
        .faults(Some(FaultSpec {
            mtbf: 2_000.0,
            mttr: 200.0,
            msg_loss: 0.01,
            partition_at: 3_000.0,
            partition_for: 1_000.0,
            partition_groups: 2,
            ..FaultSpec::default()
        }))
        .deadlines(Some(DeadlineSpec {
            mean: 500.0,
            floor: 50.0,
            max_reallocations: 2,
            ..DeadlineSpec::default()
        }))
        .suspicion(Some(SuspicionSpec::default()))
        .admission(Some(AdmissionSpec {
            mpl_cap: Some(12),
            mode: SheddingMode::Redirect,
            ..AdmissionSpec::default()
        }))
        .redundancy(Some(RedundancySpec {
            max_level: 2,
            hedge_prob: 0.5,
            ..RedundancySpec::default()
        }))
        .migration(Some(MigrationSpec::default()))
        .update_fraction(0.2)
        .copies(Some(3))
        .build()
        .expect("valid params");
    let reports = assert_pinned(
        "resilience stack",
        &paper_policy_configs(&params, 500.0, 5_000.0),
        &[
            0x9a1f_eb09_b150_e35a,
            0x8d6e_27a3_91a3_83da,
            0x800b_2414_8097_31ff,
            0xe66d_ffee_a1cd_4440,
        ],
    );
    // Every layer fired somewhere in the pinned runs.
    let total = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(total(|r| r.queries_retried) > 0, "no crash retries");
    assert!(total(|r| r.msgs_lost) > 0, "no message loss");
    assert!(total(|r| r.partition_drops) > 0, "no partition drops");
    assert!(total(|r| r.deadline_timeouts) > 0, "no deadline expiries");
    assert!(
        total(|r| r.admission_redirected) > 0,
        "no admission redirects"
    );
    assert!(total(|r| r.hedged_dispatched) > 0, "no hedged dispatches");
    assert!(total(|r| r.migrations) > 0, "no migrations");
    assert!(total(|r| r.propagations) > 0, "no update propagation");
}

/// Open arrivals with costed status frames, live arrival kernels and a
/// Zipf user population: pinned serially, and the sharded executor must
/// reproduce the same digest at every worker count.
#[test]
fn costed_status_open_arrivals_serial_and_sharded() {
    let params = SystemParams::builder()
        .num_sites(8)
        .workload(Workload::Open {
            arrival_rate: 0.015,
        })
        .arrivals(Some(ArrivalSpec {
            diurnal_amplitude: 0.3,
            diurnal_period: 2_000.0,
            burst_multiplier: 2.0,
            ..ArrivalSpec::default()
        }))
        .users(Some(UserSpec {
            total_users: 10_000,
            ..UserSpec::default()
        }))
        .status_period(40.0)
        .status_msg_length(0.05)
        .build()
        .expect("valid params");
    let config = RunConfig::new(params, PolicyKind::Lert)
        .seed(1)
        .windows(500.0, 5_000.0);
    let pin = 0x0694_3291_8c38_77b3;
    assert_pinned("open arrivals", std::slice::from_ref(&config), &[pin]);
    for jobs in [1, 2] {
        let sharded = run_sharded(&config, jobs).expect("config passes the shard gate");
        assert_eq!(
            digest(&sharded),
            pin,
            "sharded run at jobs = {jobs} left the serial trajectory"
        );
    }
}

/// Faults alone in the closed model, with a small retry budget and heavy
/// message loss: queries are lost to retry exhaustion (backed-off
/// dispatches at home and result retransmits at the execution site), and
/// others recover after a retry.
#[test]
fn closed_model_fault_exits() {
    let params = SystemParams::builder()
        .faults(Some(FaultSpec {
            mtbf: 2_000.0,
            mttr: 200.0,
            msg_loss: 0.2,
            max_retries: 1,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    let reports = assert_pinned(
        "closed-model fault exits",
        &paper_policy_configs(&params, 500.0, 5_000.0),
        &[
            0xefe3_b4a5_a065_68e9,
            0x9d00_537e_f102_d5dc,
            0xff1b_ea8a_005a_15b6,
            0x14e1_1f47_2f5e_a673,
        ],
    );
    let total = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(total(|r| r.queries_lost) > 0, "no lost queries");
    assert!(total(|r| r.queries_recovered) > 0, "no recovered queries");
}

/// Faults alone under open arrivals: lost queries, pinned serially, and
/// the sharded executor must reproduce the same digest at every worker
/// count.
#[test]
fn open_arrival_fault_exits_serial_and_sharded() {
    let params = SystemParams::builder()
        .num_sites(4)
        .workload(Workload::Open { arrival_rate: 0.02 })
        .status_period(40.0)
        .faults(Some(FaultSpec {
            mtbf: 2_000.0,
            mttr: 200.0,
            msg_loss: 0.2,
            max_retries: 1,
            ..FaultSpec::default()
        }))
        .build()
        .expect("valid params");
    let config = RunConfig::new(params, PolicyKind::Lert)
        .seed(1)
        .windows(500.0, 5_000.0);
    let pin = 0x324b_9bc0_0d20_aab5;
    let reports = assert_pinned(
        "open-arrival fault exits",
        std::slice::from_ref(&config),
        &[pin],
    );
    assert!(reports[0].queries_lost > 0, "no lost queries");
    for jobs in [1, 2] {
        let sharded = run_sharded(&config, jobs).expect("config passes the shard gate");
        assert_eq!(
            digest(&sharded),
            pin,
            "sharded run at jobs = {jobs} left the serial trajectory"
        );
    }
}

/// The resilience layer's shedding exits, one layer per config:
/// deadlines with a one-reallocation budget (abandonment), admission
/// reject-retry with a one-retry budget, and admission drop.
#[test]
fn resilience_shedding_exits() {
    let deadlines = SystemParams::builder()
        .deadlines(Some(DeadlineSpec {
            mean: 200.0,
            floor: 20.0,
            max_reallocations: 1,
            ..DeadlineSpec::default()
        }))
        .build()
        .expect("valid params");
    let admission = |mode| {
        SystemParams::builder()
            .admission(Some(AdmissionSpec {
                mpl_cap: Some(4),
                mode,
                max_retries: 1,
                ..AdmissionSpec::default()
            }))
            .build()
            .expect("valid params")
    };
    let configs: Vec<RunConfig> = [
        deadlines,
        admission(SheddingMode::RejectRetry),
        admission(SheddingMode::Drop),
    ]
    .into_iter()
    .map(|params| {
        RunConfig::new(params, PolicyKind::Lert)
            .seed(1)
            .windows(500.0, 5_000.0)
    })
    .collect();
    let reports = assert_pinned(
        "shedding exits",
        &configs,
        &[
            0xf336_f489_26f9_c237,
            0x9385_ea00_cdef_871f,
            0xbede_9fa6_7a02_308a,
        ],
    );
    assert!(reports[0].deadline_abandoned > 0, "no deadline abandonment");
    assert!(reports[1].admission_rejected > 0, "no admission rejects");
    assert!(
        reports[1].admission_dropped > 0,
        "no reject-retry exhaustion"
    );
    assert!(reports[2].admission_dropped > 0, "no admission drops");
}

/// Hedged replicate-to-2 dispatch under crashes: losing attempts are
/// cancelled, and queries still run out of retries.
#[test]
fn hedged_dispatch_under_crashes() {
    let params = SystemParams::builder()
        .faults(Some(FaultSpec {
            mtbf: 1_000.0,
            mttr: 200.0,
            msg_loss: 0.05,
            max_retries: 1,
            ..FaultSpec::default()
        }))
        .redundancy(Some(RedundancySpec {
            max_level: 2,
            ..RedundancySpec::default()
        }))
        .build()
        .expect("valid params");
    let reports = assert_pinned(
        "hedged dispatch under crashes",
        &paper_policy_configs(&params, 500.0, 5_000.0),
        &[
            0x6895_0388_d65f_f1a8,
            0x7737_adaf_534a_7235,
            0xe541_d244_62c3_5243,
            0x5c4f_0dcb_dd6a_1e02,
        ],
    );
    let total = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(
        total(|r| r.hedge_cancelled) > 0,
        "no cancelled hedge attempts"
    );
    assert!(total(|r| r.queries_lost) > 0, "no lost queries");
}
