//! System, site, and class parameters (Tables 1–3 and 7 of the paper).

use std::error::Error;
use std::fmt;

/// Identifies a DB site. Sites are numbered `0..num_sites`.
pub type SiteId = usize;

/// Identifies a query class. Classes are numbered `0..classes.len()`; the
/// paper's two-class workload uses `0` for the I/O-bound class and `1` for
/// the CPU-bound class.
pub type ClassId = usize;

/// Mid-execution migration of partially executed queries — the paper's
/// first item of future work (§6.2: "moving partially executed queries
/// from site to site at certain critical times ... probably between its
/// primitive relational operations").
///
/// A migrating query re-runs the allocation decision every
/// `check_every_reads` completed reads, over its *remaining* work. Moving
/// is charged a transfer whose length grows with the partial results
/// accumulated so far (the paper's footnote: results accumulate in main
/// memory as the query executes), and only happens when the estimated
/// gain exceeds `min_gain` in the policy's cost units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Re-evaluate the placement after every this many completed reads.
    pub check_every_reads: u32,
    /// Required estimated improvement (stay-cost minus move-cost, in the
    /// allocation policy's cost units) before a move is made. Guards
    /// against thrashing on marginal differences.
    pub min_gain: f64,
    /// Growth of the migration message per completed read, as a fraction
    /// of `msg_length`: the state carried is
    /// `msg_length * (1 + state_growth * reads_done)`.
    pub state_growth: f64,
}

impl Default for MigrationSpec {
    /// Check every 5 reads, demand a gain of one mean read's worth of
    /// time, and grow state by half a message per read.
    fn default() -> Self {
        MigrationSpec {
            check_every_reads: 5,
            min_gain: 2.0,
            state_growth: 0.5,
        }
    }
}

/// Fault-injection parameters (a robustness extension; the paper assumes
/// "the sites never fail" and a perfectly reliable subnet, §2).
///
/// Site crashes are fail-stop with perfect detection: a crashed site loses
/// the queries resident at its stations, its load-table row is marked
/// unavailable to every policy immediately, and it rejoins after an
/// exponential repair time. Message loss strikes token-ring frames at
/// delivery. All fault randomness is drawn from dedicated RNG substreams,
/// so two runs that differ only in their fault rates still share every
/// workload draw (common random numbers), and a spec with all rates zero
/// reproduces the fault-free trajectory byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Mean time between failures per site (exponential). `0.0` disables
    /// crashes entirely.
    pub mtbf: f64,
    /// Mean time to repair a crashed site (exponential). Must be positive
    /// when `mtbf > 0`.
    pub mttr: f64,
    /// Probability that a token-ring frame (query, result, or status) is
    /// lost at delivery. `0.0` disables message loss.
    pub msg_loss: f64,
    /// Probability that one free status-exchange round is dropped (only
    /// meaningful with `status_period > 0` and `status_msg_length == 0`).
    pub status_loss: f64,
    /// Bounded retry budget per query. A query whose retries exceed this
    /// is abandoned (its terminal thinks and submits a fresh query).
    pub max_retries: u32,
    /// Base delay of the exponential backoff: retry `k` waits roughly
    /// `backoff_base * 2^(k-1)`, jittered ±50%.
    pub backoff_base: f64,
    /// Start time of an injected network partition. Only meaningful with
    /// `partition_groups >= 2` and `partition_for > 0`.
    pub partition_at: f64,
    /// Duration of the injected partition; `0.0` disables it.
    pub partition_for: f64,
    /// Number of disjoint contiguous site groups the token ring splits
    /// into while the partition is active (site `s` belongs to group
    /// `s * groups / num_sites`). Query/result frames crossing a group
    /// boundary are dropped at delivery; `0` (or `1`) disables the
    /// partition.
    pub partition_groups: u32,
}

impl Default for FaultSpec {
    /// Crashes disabled, repairs of 50 time units when enabled, no message
    /// loss, 5 retries on a base backoff of 10 time units, no partition.
    fn default() -> Self {
        FaultSpec {
            mtbf: 0.0,
            mttr: 50.0,
            msg_loss: 0.0,
            status_loss: 0.0,
            max_retries: 5,
            backoff_base: 10.0,
            partition_at: 0.0,
            partition_for: 0.0,
            partition_groups: 0,
        }
    }
}

impl FaultSpec {
    /// Whether any fault process is actually switched on.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mtbf > 0.0 || self.msg_loss > 0.0 || self.status_loss > 0.0 || self.has_partition()
    }

    /// Whether an injected ring partition is configured.
    #[must_use]
    pub fn has_partition(&self) -> bool {
        self.partition_groups >= 2 && self.partition_for > 0.0
    }
}

/// One deterministic fault-environment action in a replay script.
///
/// Scripted actions bypass the stochastic fault processes entirely: a
/// scripted crash draws no repair time and schedules no follow-up, a
/// scripted partition toggle ignores `partition_at`/`partition_for`.
/// This is how `dqa-check` counterexample traces are replayed through
/// the simulator — the checker's abstract fault schedule becomes an
/// exact, RNG-free event sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptAction {
    /// Crash a site (drops its resident queries; no repair is scheduled).
    SiteDown(usize),
    /// Bring a crashed site back up (no follow-up crash is scheduled).
    SiteUp(usize),
    /// Activate the ring partition (`partition_groups` must be >= 2).
    PartitionStart,
    /// Heal the ring partition.
    PartitionHeal,
}

/// A timed [`ScriptAction`]: `action` fires at simulated time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptEntry {
    /// Simulated time at which the action fires.
    pub at: f64,
    /// The fault-environment action to apply.
    pub action: ScriptAction,
}

/// Per-query deadlines with bounded reallocation (a robustness
/// extension; the paper assumes every submitted query runs to
/// completion wherever it was placed).
///
/// Each submitted query draws a deadline `floor + Exp(mean)` from a
/// dedicated RNG substream when it is allocated. A query still executing
/// when its deadline expires is cancelled at its site — its unserved work
/// is unwound from the PS/FCFS stations — and re-allocated to the current
/// best site after a jittered exponential backoff, up to
/// `max_reallocations` times; after that it is abandoned. A fresh
/// deadline is armed per allocation attempt. `mean == 0` disables the
/// whole lifecycle (no draws, trajectory-identical to `None`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineSpec {
    /// Mean of the exponential slack added on top of `floor`. `0.0`
    /// disables deadlines entirely.
    pub mean: f64,
    /// Minimum deadline granted to every query.
    pub floor: f64,
    /// How many times an expired query may be re-allocated before it is
    /// abandoned (`0` = abandon on first expiry).
    pub max_reallocations: u32,
    /// Base delay of the jittered exponential backoff between a
    /// cancellation and the reallocation attempt (same shape as
    /// [`FaultSpec::backoff_base`], drawn from the resilience substream).
    pub backoff_base: f64,
}

impl Default for DeadlineSpec {
    /// Deadlines disabled; when enabled: no floor, 2 reallocations on a
    /// base backoff of 5 time units.
    fn default() -> Self {
        DeadlineSpec {
            mean: 0.0,
            floor: 0.0,
            max_reallocations: 2,
            backoff_base: 5.0,
        }
    }
}

impl DeadlineSpec {
    /// Whether deadlines are actually drawn.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mean > 0.0
    }
}

/// Heartbeat-style failure suspicion with hysteresis, built on the
/// costed status broadcasts (`status_period > 0`,
/// `status_msg_length > 0`).
///
/// Every site expects one status frame per peer per `status_period`.
/// An observer that has not heard a peer for `threshold` consecutive
/// periods marks it *suspected* and its `SelectSite` scan quarantines it
/// (unless no trusted candidate remains, in which case suspicion is
/// ignored rather than stalling allocation). A suspected peer is trusted
/// again only after `probation` consecutive broadcasts are heard —
/// hysteresis against flapping on a congested ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspicionSpec {
    /// Missed broadcast periods before a peer is suspected.
    pub threshold: u32,
    /// Consecutive heard broadcasts before a suspected peer is trusted
    /// again.
    pub probation: u32,
}

impl Default for SuspicionSpec {
    /// Suspect after 3 silent periods; rejoin after 2 heard broadcasts.
    fn default() -> Self {
        SuspicionSpec {
            threshold: 3,
            probation: 2,
        }
    }
}

/// What an admission-controlled site does with a query it cannot accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SheddingMode {
    /// Send the query into a jittered backoff and re-run the allocation
    /// decision, up to [`AdmissionSpec::max_retries`] times; exhausted
    /// queries are dropped (with a metric).
    #[default]
    RejectRetry,
    /// Redirect to the least-loaded trusted candidate that still has
    /// room; falls back to [`SheddingMode::RejectRetry`] when every
    /// alternative is also full.
    Redirect,
    /// Drop the query immediately, counting it; its terminal thinks and
    /// submits a fresh query.
    Drop,
}

/// Per-site admission control with load shedding (a robustness
/// extension: the paper's sites accept every query routed to them).
///
/// A site is *full* when its resident multiprogramming level reaches
/// `mpl_cap` or its allocated-queue length reaches `queue_limit`; full
/// sites shed new work per `mode`, and advertise a backpressure bit on
/// their status broadcasts that demand-aware allocation treats as "do
/// not route here".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSpec {
    /// Maximum queries resident at the site's stations (CPU + disks)
    /// before new arrivals are shed. `None` = uncapped.
    pub mpl_cap: Option<u32>,
    /// Maximum queries allocated to the site (resident plus in transit)
    /// before new arrivals are shed. `None` = uncapped.
    pub queue_limit: Option<u32>,
    /// What happens to a shed query.
    pub mode: SheddingMode,
    /// Retry budget under [`SheddingMode::RejectRetry`] before a shed
    /// query is dropped.
    pub max_retries: u32,
    /// Base delay of the jittered exponential backoff between a
    /// rejection and the next allocation attempt.
    pub backoff_base: f64,
}

impl Default for AdmissionSpec {
    /// No caps (inactive); when capped: reject-to-retry with 5 retries
    /// on a base backoff of 10 time units.
    fn default() -> Self {
        AdmissionSpec {
            mpl_cap: None,
            queue_limit: None,
            mode: SheddingMode::RejectRetry,
            max_retries: 5,
            backoff_base: 10.0,
        }
    }
}

impl AdmissionSpec {
    /// Whether any cap is actually configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.mpl_cap.is_some() || self.queue_limit.is_some()
    }
}

/// Hedged replicate-to-`n` dispatch with first-win cancellation (a
/// robustness extension after Aktaş & Soljanin's redundancy-d access
/// model; the paper's policies pick exactly one site per query).
///
/// An eligible query — read-only, admitted, with at least two usable
/// candidate sites under the replication catalog — is dispatched to up
/// to `max_level` candidate sites: the policy's chosen primary plus the
/// cheapest remaining candidates under the policy's own cost order.
/// The first attempt to finish executing wins; explicit cancel frames
/// reap the losers phase-exactly from the PS/FCFS stations and the
/// ring. Cancel frames are fire-and-forget (they may be lost to message
/// loss or a partition); a loser whose cancel never arrived is discarded
/// at completion time instead, so exactly one completion is ever
/// counted per logical query.
///
/// The *load-adaptive controller* throttles the effective level toward
/// 1 as observed load rises: each multiple of `load_threshold` in the
/// mean published board load per available site steps the level down by
/// one, and when more than `full_threshold` of the available sites
/// advertise their admission backpressure bit, hedging switches off
/// entirely — redundancy degrades gracefully instead of amplifying
/// overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancySpec {
    /// Maximum number of sites a hedged query is dispatched to. `0` or
    /// `1` disables hedging entirely (trajectory-identical to `None`:
    /// the `REDUNDANCY` substream is never drawn).
    pub max_level: u32,
    /// Probability that an eligible query is hedged, in `[0, 1]`. The
    /// coin comes from the dedicated per-site `REDUNDANCY` substream and
    /// is drawn once per eligible submit whenever the spec is active,
    /// independent of the controller's current effective level (CRN
    /// across load conditions). `0.0` disables hedging (no draws).
    pub hedge_prob: f64,
    /// Mean published board load per available site at which the
    /// controller steps the effective level down by one (two thresholds
    /// of load = two steps, and so on). `0.0` disables load throttling.
    pub load_threshold: f64,
    /// Fraction of available sites advertising the backpressure `full`
    /// bit above which hedging turns off entirely, in `[0, 1]`. `1.0`
    /// never turns hedging off.
    pub full_threshold: f64,
}

impl Default for RedundancySpec {
    /// Hedging disabled; when enabled: every eligible query hedges, no
    /// load throttle, backpressure cut-off at half the sites full.
    fn default() -> Self {
        RedundancySpec {
            max_level: 0,
            hedge_prob: 1.0,
            load_threshold: 0.0,
            full_threshold: 0.5,
        }
    }
}

impl RedundancySpec {
    /// Whether hedged dispatch can actually occur. `false` guarantees
    /// the run is byte-identical to `redundancy: None` (the
    /// `REDUNDANCY` substream is never drawn).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.max_level >= 2 && self.hedge_prob > 0.0
    }
}

/// Time-varying open-arrival modulation (the "live service" extension;
/// the paper's open door, `ext_open_overload`, is a constant-rate Poisson
/// stream).
///
/// The spec turns [`Workload::Open`]'s `arrival_rate` into the *mean base
/// rate* of a nonhomogeneous Poisson process
/// `λ(t) = base · diurnal(t) · flash(t) · burst(t)` with three layers:
///
/// * **Diurnal curve** — a sinusoid `1 + amplitude · sin(2πt / period)`
///   modeling the daily load cycle.
/// * **Flash crowd** — a deterministic window `[flash_at, flash_at +
///   flash_for)` during which the rate is multiplied by
///   `flash_multiplier` (a breaking-news spike every site sees at once).
/// * **MMPP burst chain** — a two-state Markov-modulated Poisson layer
///   per site: exponential dwell times (`burst_off_mean` quiet,
///   `burst_on_mean` bursty) and a rate factor `burst_multiplier` while
///   ON, modeling correlated arrival bursts.
///
/// Arrivals are generated *lazily by thinning*: each site keeps exactly
/// one pending-arrival event, drawing candidate gaps at the envelope rate
/// [`ArrivalSpec::lambda_max`] and accepting each candidate with
/// probability `λ(t)/λ_max` — never a pre-materialized schedule, so a
/// million-query horizon costs O(1) memory. All draws come from the
/// dedicated per-site `ARRIVAL`/`BURST` substreams, so a spec with no
/// modulation (`is_active() == false`) draws nothing and reproduces the
/// constant-rate trajectory byte for byte (CRN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Amplitude of the diurnal sinusoid, in `[0, 1)`. `0.0` disables the
    /// diurnal layer.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid in simulated time units.
    pub diurnal_period: f64,
    /// Start of the flash-crowd window.
    pub flash_at: f64,
    /// Duration of the flash-crowd window; `0.0` disables the flash layer.
    pub flash_for: f64,
    /// Rate multiplier while the flash crowd is active (`> 0`; values
    /// above 1 spike the load, below 1 model a brown-out).
    pub flash_multiplier: f64,
    /// Rate multiplier while a site's burst chain is ON (`>= 1`; `1.0`
    /// disables the MMPP layer).
    pub burst_multiplier: f64,
    /// Mean dwell time of the bursty (ON) state.
    pub burst_on_mean: f64,
    /// Mean dwell time of the quiet (OFF) state.
    pub burst_off_mean: f64,
}

impl Default for ArrivalSpec {
    /// All layers disabled (trajectory-identical to `None`); when
    /// enabled: a 10 000-unit diurnal period and 200-on/2 000-off burst
    /// dwells.
    fn default() -> Self {
        ArrivalSpec {
            diurnal_amplitude: 0.0,
            diurnal_period: 10_000.0,
            flash_at: 0.0,
            flash_for: 0.0,
            flash_multiplier: 1.0,
            burst_multiplier: 1.0,
            burst_on_mean: 200.0,
            burst_off_mean: 2_000.0,
        }
    }
}

impl ArrivalSpec {
    /// Whether any modulation layer is switched on. `false` guarantees
    /// the run is byte-identical to `arrivals: None` (the `ARRIVAL` and
    /// `BURST` substreams are never drawn).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.diurnal_amplitude > 0.0 || self.has_flash() || self.has_burst()
    }

    /// Whether the flash-crowd window is configured.
    #[must_use]
    pub fn has_flash(&self) -> bool {
        // dqa-lint: allow(no-float-eq) -- 1.0 is the exact inert-sentinel default; any other value configures a flash
        self.flash_for > 0.0 && self.flash_multiplier != 1.0
    }

    /// Whether the MMPP burst layer is configured.
    #[must_use]
    pub fn has_burst(&self) -> bool {
        self.burst_multiplier > 1.0
    }

    /// The deterministic (non-burst) rate factor at time `t`:
    /// `diurnal(t) · flash(t)`.
    #[must_use]
    pub fn modulation_at(&self, t: f64) -> f64 {
        let diurnal = if self.diurnal_amplitude > 0.0 {
            1.0 + self.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * t / self.diurnal_period).sin()
        } else {
            1.0
        };
        let flash = if self.has_flash() && t >= self.flash_at && t < self.flash_at + self.flash_for
        {
            self.flash_multiplier
        } else {
            1.0
        };
        diurnal * flash
    }

    /// The thinning envelope rate: an upper bound on `λ(t)` for every `t`
    /// and burst state, given the base rate.
    #[must_use]
    pub fn lambda_max(&self, base_rate: f64) -> f64 {
        base_rate
            * (1.0 + self.diurnal_amplitude)
            * self.flash_envelope()
            * self.burst_multiplier.max(1.0)
    }

    /// The flash layer's contribution to the envelope (`>= 1`).
    fn flash_envelope(&self) -> f64 {
        if self.has_flash() {
            self.flash_multiplier.max(1.0)
        } else {
            1.0
        }
    }
}

/// A million-user population with heavy-tailed per-user session state
/// (the "live service" extension; without it every open arrival is an
/// anonymous query from nowhere).
///
/// The user space is partitioned evenly across sites (a user's *home* is
/// the site whose shard holds it — structural home affinity: all of a
/// user's queries originate there). Each arrival at a site selects a user
/// from the site's shard by a Zipf-like power law, so a small hot set of
/// users dominates traffic. Per-user state — preferred query class and
/// remaining session length — is materialized *on first touch* into a
/// compact open-addressed arena ([`crate::users::UserArena`]) and evicted
/// when the session ends, so memory is proportional to *active* users,
/// never `O(total_users)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserSpec {
    /// Total simulated users across all sites. `0` disables the
    /// population model (trajectory-identical to `None`).
    pub total_users: u64,
    /// Zipf popularity exponent `s >= 0` over each site's user shard
    /// (`0` = uniform selection; larger = heavier skew toward hot users).
    pub zipf_exponent: f64,
    /// Mean queries per user session (exponential, rounded up to at least
    /// one — the same shape as per-query read counts). When a session's
    /// queries are spent the user's state is evicted from the arena.
    pub session_mean: f64,
    /// Probability that a query takes its user's preferred class instead
    /// of an independent draw from the global class mix, in `[0, 1]`.
    pub class_affinity: f64,
}

impl Default for UserSpec {
    /// Inactive (`total_users == 0`); when enabled: Zipf 1.2, 20-query
    /// sessions, 0.8 class affinity.
    fn default() -> Self {
        UserSpec {
            total_users: 0,
            zipf_exponent: 1.2,
            session_mean: 20.0,
            class_affinity: 0.8,
        }
    }
}

impl UserSpec {
    /// Whether the population model is switched on. `false` guarantees
    /// the run is byte-identical to `users: None` (the `USER` and
    /// `SESSION` substreams are never drawn).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.total_users > 0
    }

    /// The size of site `site`'s user shard (users are dealt round-robin,
    /// so shards differ by at most one user).
    #[must_use]
    pub fn shard_size(&self, site: SiteId, num_sites: usize) -> u64 {
        let n = num_sites as u64;
        let site = site as u64;
        self.total_users / n + u64::from(site < self.total_users % n)
    }
}

/// How queries enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Workload {
    /// The paper's closed model: `mpl` terminals per site, each thinking
    /// (mean `think_time`) between queries.
    #[default]
    Closed,
    /// An open model: each site receives an independent Poisson stream of
    /// queries; completions leave the system. Useful for overload and
    /// stability-frontier studies that a closed model cannot express
    /// (its population is bounded by construction).
    Open {
        /// Mean query arrivals per time unit, per site.
        arrival_rate: f64,
    },
}

/// How a query picks a disk for each page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskChoice {
    /// Uniformly random disk per read — matches the MVA model's visit
    /// ratio of `1/num_disks` per disk and is the default.
    #[default]
    Random,
    /// Cycle through the disks per site in fixed order.
    RoundRobin,
    /// Join the disk with the fewest queued requests (ties to the lowest
    /// index). An ablation: real systems often do this, the paper's
    /// analytic model does not.
    ShortestQueue,
}

/// Workload parameters of one query class (Table 2 / Table 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Human-readable name ("io-bound", "cpu-bound").
    pub name: String,
    /// Mean CPU time to process one page read from disk
    /// (`page_cpu_time`).
    pub page_cpu_time: f64,
    /// Mean number of disk reads per query (`num_reads`); per-query counts
    /// are exponential with this mean, rounded to at least one read.
    pub num_reads: f64,
    /// Probability that a newly generated query belongs to this class
    /// (`class_prob`).
    pub probability: f64,
    /// Bytes needed to describe a query of the class (`query_size`,
    /// Table 2) — the dispatch-message payload under
    /// [`MessageCosting::Detailed`].
    pub query_size: f64,
    /// Mean result pages per page read (`result_fraction`, Table 2) —
    /// sizes the result message under [`MessageCosting::Detailed`].
    pub result_fraction: f64,
}

impl ClassSpec {
    /// Creates a class spec with Table-2 message-shape defaults
    /// (`query_size` 4000 bytes, `result_fraction` 0.2).
    #[must_use]
    pub fn new(name: &str, page_cpu_time: f64, num_reads: f64, probability: f64) -> Self {
        ClassSpec {
            name: name.to_owned(),
            page_cpu_time,
            num_reads,
            probability,
            query_size: 4_000.0,
            result_fraction: 0.2,
        }
    }

    /// Overrides the Table-2 message-shape parameters.
    #[must_use]
    pub fn with_message_shape(mut self, query_size: f64, result_fraction: f64) -> Self {
        self.query_size = query_size;
        self.result_fraction = result_fraction;
        self
    }
}

/// How remote-execution messages are priced (Tables 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MessageCosting {
    /// The paper's simulation-study simplification: `result_fraction`,
    /// `query_size`, and `msg_time` "are currently combined into a single
    /// parameter, `msg_length`" (§5.1) — every dispatch and result takes
    /// `msg_length` time units.
    #[default]
    Combined,
    /// The full Table-2/3 decomposition: a dispatch takes
    /// `query_size × msg_time`, and a result takes
    /// `result_fraction × reads × page_size × msg_time` — big queries
    /// return big results, so the network price varies per query (and
    /// LERT's Figure-6 net term can see it).
    Detailed {
        /// Network transfer time for one byte (`msg_time`, Table 3).
        msg_time: f64,
        /// Disk page size in bytes (`page_size`, Table 3).
        page_size: f64,
    },
}

/// Error from [`SystemParams::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A field that must be positive was not.
    NonPositive {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A field that must be a valid fraction was not.
    BadFraction {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The system needs at least one site / disk / terminal / class.
    Missing {
        /// What is missing.
        what: &'static str,
    },
    /// Class probabilities do not sum to 1.
    BadClassProbabilities {
        /// The actual sum.
        sum: f64,
    },
    /// A field broke a range or count rule.
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// The rule, as in "must be {rule}".
        rule: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NonPositive { field, value } => {
                write!(f, "`{field}` must be positive, got {value}")
            }
            ParamsError::BadFraction { field, value } => {
                write!(f, "`{field}` must lie in [0, 1], got {value}")
            }
            ParamsError::Missing { what } => write!(f, "system needs at least one {what}"),
            ParamsError::BadClassProbabilities { sum } => {
                write!(f, "class probabilities must sum to 1, got {sum}")
            }
            ParamsError::OutOfRange { field, rule, value } => {
                write!(f, "`{field}` must be {rule}, got {value}")
            }
        }
    }
}

impl Error for ParamsError {}

/// Complete parameterization of the distributed database system
/// (Tables 1, 2, 3, and 7 of the paper).
///
/// Construct with [`SystemParams::builder`]; [`SystemParams::paper_base`]
/// gives the simulation study's base configuration (6 sites, 2 disks,
/// `mpl = 20`, `think_time = 350`, a 50/50 mix of I/O-bound
/// (`page_cpu_time = 0.05`) and CPU-bound (`1.0`) queries with 20 reads
/// each, `msg_length = 1`).
///
/// # Example
///
/// ```
/// use dqa_core::params::SystemParams;
///
/// let params = SystemParams::builder()
///     .num_sites(4)
///     .mpl(10)
///     .think_time(200.0)
///     .build()?;
/// assert_eq!(params.num_sites, 4);
/// assert_eq!(params.classes.len(), 2);
/// # Ok::<(), dqa_core::params::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Number of DB sites (`num_sites`).
    pub num_sites: usize,
    /// Disks per site (`num_disks`).
    pub num_disks: u32,
    /// Mean disk page access time (`disk_time`); the model's unit of time.
    pub disk_time: f64,
    /// Half-width of the uniform disk-time distribution, as a fraction of
    /// `disk_time` (`disk_time_dev`, 20% in the paper).
    pub disk_time_dev: f64,
    /// Terminals per site (`mpl`).
    pub mpl: u32,
    /// Mean terminal think time (`think_time`), exponentially distributed.
    pub think_time: f64,
    /// The query classes with their probabilities (`class_prob`).
    pub classes: Vec<ClassSpec>,
    /// Time units to send a query to a remote site or return its results
    /// (`msg_length`, the paper's combination of `result_fraction`,
    /// `query_size`, and `msg_time`). Used under
    /// [`MessageCosting::Combined`], and for status/migration/propagation
    /// frames under either costing.
    pub msg_length: f64,
    /// How dispatch and result messages are priced.
    pub message_costing: MessageCosting,
    /// Disk-selection discipline per page read.
    pub disk_choice: DiskChoice,
    /// Relative error applied to the optimizer's read-count estimate seen
    /// by policies: the estimate is drawn uniformly from
    /// `actual * (1 ± estimate_error)`. `0.0` (the paper's assumption)
    /// means perfect estimates.
    pub estimate_error: f64,
    /// Period between load-status exchanges. `0.0` (the paper's
    /// assumption) means every site always sees the instantaneous load of
    /// every other site.
    pub status_period: f64,
    /// Transfer time of one status broadcast on the ring. `0.0` makes the
    /// periodic exchange free and globally synchronized (the idealized
    /// stale model); a positive value makes each site broadcast its own
    /// row as a real ring message every `status_period`, so status
    /// traffic competes with query transfers and arrives late — the §4.4
    /// information-exchange question made concrete.
    pub status_msg_length: f64,
    /// Number of relations in the database. Each query references one
    /// relation, drawn uniformly. Irrelevant under full replication.
    pub num_relations: usize,
    /// Copies per relation: `None` is the paper's fully replicated
    /// database; `Some(k)` places `k` copies round-robin
    /// ([`crate::replication::Catalog`]), restricting each query's
    /// candidate sites to the holders of its relation (the §6.2
    /// partially-replicated extension).
    pub copies: Option<u32>,
    /// Mid-execution query migration (the §6.2 extension); `None`
    /// reproduces the paper's allocate-once-at-start model.
    pub migration: Option<MigrationSpec>,
    /// Per-site CPU speed factors (1.0 = nominal; a site with factor 2
    /// finishes CPU bursts twice as fast). `None` is the paper's
    /// "completely homogeneous" assumption (§2). Demand-aware policies
    /// (LERT) read the factors through [`SystemParams::cpu_speed`];
    /// count-based policies are speed-blind by construction.
    pub cpu_speeds: Option<Vec<f64>>,
    /// How queries enter the system (closed terminals vs open Poisson
    /// sources). Closed is the paper's model; `mpl`/`think_time` are
    /// ignored under [`Workload::Open`].
    pub workload: Workload,
    /// Probability that a query is an *update*. The paper studies
    /// read-only queries, noting that "updates must be propagated to all
    /// sites regardless of the processing site"; with a positive fraction
    /// this model makes that cost explicit: when an update finishes
    /// executing, an asynchronous apply job is shipped over the ring to
    /// every other holder of its relation (read-one-write-all).
    pub update_fraction: f64,
    /// Work of one apply job as a fraction of the originating update's
    /// read count (applying a logged write is cheaper than computing it).
    /// Zero disables propagation entirely.
    pub propagation_factor: f64,
    /// Fault injection (site crashes, message loss, status dropouts,
    /// ring partition). `None` is the paper's reliability assumption;
    /// `Some` with all rates zero is trajectory-identical to `None`.
    pub faults: Option<FaultSpec>,
    /// Per-query deadlines with cancellation and bounded reallocation.
    /// `None` (or a spec with `mean == 0`) reproduces the paper's
    /// run-to-completion model byte for byte.
    pub deadlines: Option<DeadlineSpec>,
    /// Heartbeat suspicion/quarantine on the costed status broadcasts.
    /// Requires `status_period > 0` and `status_msg_length > 0`; `None`
    /// disables the detector (no site is ever quarantined).
    pub suspicion: Option<SuspicionSpec>,
    /// Per-site admission control with load shedding. `None` (or a spec
    /// with no caps) accepts every query, as the paper does.
    pub admission: Option<AdmissionSpec>,
    /// Hedged replicate-to-`n` dispatch with first-win cancellation and
    /// a load-adaptive redundancy controller. `None` (or an inactive
    /// spec) reproduces the paper's one-site-per-query model byte for
    /// byte.
    pub redundancy: Option<RedundancySpec>,
    /// Time-varying open-arrival modulation (diurnal curve, flash crowd,
    /// MMPP bursts). Requires [`Workload::Open`] when active; `None` (or
    /// an inactive spec) keeps the constant-rate Poisson stream and is
    /// trajectory-inert.
    pub arrivals: Option<ArrivalSpec>,
    /// Heavy-tailed user population with lazy per-user session state.
    /// Requires [`Workload::Open`] when active; `None` (or an inactive
    /// spec) is trajectory-inert.
    pub users: Option<UserSpec>,
    /// Deterministic fault-environment script: timed crash/repair and
    /// partition toggles that fire exactly as written, drawing no random
    /// numbers. Requires `faults` to be set (the retry/partition
    /// machinery lives there); an empty script is trajectory-inert.
    /// Used to replay `dqa-check` counterexample traces.
    pub script: Vec<ScriptEntry>,
}

impl SystemParams {
    /// Starts a builder initialized to the paper's base configuration.
    #[must_use]
    pub fn builder() -> SystemParamsBuilder {
        SystemParamsBuilder {
            params: SystemParams::paper_base(),
        }
    }

    /// The base configuration of the simulation study (Section 5.1,
    /// Table 7).
    #[must_use]
    pub fn paper_base() -> Self {
        SystemParams {
            num_sites: 6,
            num_disks: 2,
            disk_time: 1.0,
            disk_time_dev: 0.2,
            mpl: 20,
            think_time: 350.0,
            classes: vec![
                ClassSpec::new("io-bound", 0.05, 20.0, 0.5),
                ClassSpec::new("cpu-bound", 1.0, 20.0, 0.5),
            ],
            msg_length: 1.0,
            message_costing: MessageCosting::Combined,
            disk_choice: DiskChoice::Random,
            estimate_error: 0.0,
            status_period: 0.0,
            status_msg_length: 0.0,
            num_relations: 12,
            copies: None,
            migration: None,
            cpu_speeds: None,
            workload: Workload::Closed,
            update_fraction: 0.0,
            propagation_factor: 0.5,
            faults: None,
            deadlines: None,
            suspicion: None,
            admission: None,
            redundancy: None,
            arrivals: None,
            users: None,
            script: Vec::new(),
        }
    }

    /// Checks every constraint the simulator depends on. Errors name a
    /// field by its path in `SystemParams` (`faults.mtbf`).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        fn positive(field: &'static str, value: f64) -> Result<(), ParamsError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ParamsError::NonPositive { field, value })
            }
        }
        fn non_negative(field: &'static str, value: f64) -> Result<(), ParamsError> {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(ParamsError::NonPositive { field, value })
            }
        }
        fn fraction(field: &'static str, value: f64) -> Result<(), ParamsError> {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(ParamsError::BadFraction { field, value })
            }
        }
        fn need(present: bool, what: &'static str) -> Result<(), ParamsError> {
            if present {
                Ok(())
            } else {
                Err(ParamsError::Missing { what })
            }
        }
        fn in_range(
            ok: bool,
            field: &'static str,
            rule: &'static str,
            value: f64,
        ) -> Result<(), ParamsError> {
            if ok {
                Ok(())
            } else {
                Err(ParamsError::OutOfRange { field, rule, value })
            }
        }

        need(self.num_sites > 0, "site")?;
        need(self.num_disks > 0, "disk")?;
        need(self.mpl > 0, "terminal")?;
        need(!self.classes.is_empty(), "query class")?;
        positive("disk_time", self.disk_time)?;
        fraction("disk_time_dev", self.disk_time_dev)?;
        positive("think_time", self.think_time)?;
        for class in &self.classes {
            positive("classes.page_cpu_time", class.page_cpu_time)?;
            positive("classes.num_reads", class.num_reads)?;
            fraction("classes.probability", class.probability)?;
            positive("classes.query_size", class.query_size)?;
            non_negative("classes.result_fraction", class.result_fraction)?;
        }
        if let MessageCosting::Detailed {
            msg_time,
            page_size,
        } = self.message_costing
        {
            positive("message_costing.msg_time", msg_time)?;
            positive("message_costing.page_size", page_size)?;
        }
        let sum: f64 = self.classes.iter().map(|c| c.probability).sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(ParamsError::BadClassProbabilities { sum });
        }
        non_negative("msg_length", self.msg_length)?;
        fraction("estimate_error", self.estimate_error)?;
        non_negative("status_period", self.status_period)?;
        non_negative("status_msg_length", self.status_msg_length)?;
        need(self.num_relations > 0, "relation")?;
        if let Some(copies) = self.copies {
            need(copies > 0, "relation copy")?;
            let fits = copies as usize <= self.num_sites;
            in_range(fits, "copies", "at most num_sites", f64::from(copies))?;
        }
        let open = matches!(self.workload, Workload::Open { .. });
        if let Workload::Open { arrival_rate } = self.workload {
            positive("workload.arrival_rate", arrival_rate)?;
        }
        fraction("update_fraction", self.update_fraction)?;
        non_negative("propagation_factor", self.propagation_factor)?;
        if let Some(speeds) = &self.cpu_speeds {
            let len = speeds.len();
            let rule = "equal to num_sites";
            in_range(len == self.num_sites, "cpu_speeds length", rule, len as f64)?;
            for &s in speeds {
                positive("cpu_speeds", s)?;
            }
        }
        if let Some(f) = &self.faults {
            non_negative("faults.mtbf", f.mtbf)?;
            // MTTR of zero means instant repair, which is legal (the
            // crash still drops the site's resident queries).
            non_negative("faults.mttr", f.mttr)?;
            fraction("faults.msg_loss", f.msg_loss)?;
            fraction("faults.status_loss", f.status_loss)?;
            positive("faults.backoff_base", f.backoff_base)?;
            non_negative("faults.partition_at", f.partition_at)?;
            non_negative("faults.partition_for", f.partition_for)?;
            let groups = f64::from(f.partition_groups);
            let field = "faults.partition_groups";
            let rule = "at least 2 while partition_for > 0";
            in_range(f.partition_for <= 0.0 || groups >= 2.0, field, rule, groups)?;
            let fits = f.partition_groups as usize <= self.num_sites;
            in_range(fits, field, "at most num_sites", groups)?;
        }
        if !self.script.is_empty() {
            let faults = self.faults.as_ref().ok_or(ParamsError::Missing {
                what: "fault spec for the event script (scripted crashes and \
                       partitions use the FaultSpec retry/partition machinery)",
            })?;
            // A script is a *deterministic* fault environment; mixing it
            // with the stochastic crash process would let a scripted
            // repair collide with a pending stochastic one.
            let rule = "0 with an event script";
            in_range(faults.mtbf <= 0.0, "faults.mtbf", rule, faults.mtbf)?;
            for entry in &self.script {
                non_negative("script entry time", entry.at)?;
                match entry.action {
                    ScriptAction::SiteDown(s) | ScriptAction::SiteUp(s) => {
                        let fits = s < self.num_sites;
                        in_range(fits, "script site index", "below num_sites", s as f64)?;
                    }
                    ScriptAction::PartitionStart | ScriptAction::PartitionHeal => {
                        let groups = f64::from(faults.partition_groups);
                        let rule = "at least 2 for a scripted partition";
                        in_range(groups >= 2.0, "faults.partition_groups", rule, groups)?;
                    }
                }
            }
        }
        if let Some(d) = &self.deadlines {
            non_negative("deadlines.mean", d.mean)?;
            non_negative("deadlines.floor", d.floor)?;
            positive("deadlines.backoff_base", d.backoff_base)?;
        }
        if let Some(s) = &self.suspicion {
            need(s.threshold > 0, "suspicion threshold period")?;
            need(s.probation > 0, "suspicion probation broadcast")?;
            need(
                self.status_period > 0.0 && self.status_msg_length > 0.0,
                "costed status broadcast for the suspicion detector \
                 (status_period > 0 and status_msg_length > 0)",
            )?;
        }
        if let Some(a) = &self.admission {
            for (field, limit) in [
                ("admission.mpl_cap", a.mpl_cap),
                ("admission.queue_limit", a.queue_limit),
            ] {
                if let Some(limit) = limit {
                    in_range(limit >= 1, field, "at least 1", f64::from(limit))?;
                }
            }
            positive("admission.backoff_base", a.backoff_base)?;
        }
        if let Some(r) = &self.redundancy {
            fraction("redundancy.hedge_prob", r.hedge_prob)?;
            fraction("redundancy.full_threshold", r.full_threshold)?;
            non_negative("redundancy.load_threshold", r.load_threshold)?;
        }
        if let Some(a) = &self.arrivals {
            need(
                open || !a.is_active(),
                "open workload for arrival modulation (ArrivalSpec \
                 shapes Workload::Open's base arrival rate)",
            )?;
            fraction("arrivals.diurnal_amplitude", a.diurnal_amplitude)?;
            if a.diurnal_amplitude > 0.0 {
                positive("arrivals.diurnal_period", a.diurnal_period)?;
            }
            non_negative("arrivals.flash_at", a.flash_at)?;
            non_negative("arrivals.flash_for", a.flash_for)?;
            if a.flash_for > 0.0 {
                positive("arrivals.flash_multiplier", a.flash_multiplier)?;
            }
            let (field, burst) = ("arrivals.burst_multiplier", a.burst_multiplier);
            let finite = burst.is_finite();
            in_range(finite && burst >= 1.0, field, "at least 1", burst)?;
            if a.has_burst() {
                positive("arrivals.burst_on_mean", a.burst_on_mean)?;
                positive("arrivals.burst_off_mean", a.burst_off_mean)?;
            }
        }
        if let Some(u) = &self.users {
            if u.is_active() {
                need(
                    open,
                    "open workload for the user population (users \
                     arrive with open queries, not closed terminals)",
                )?;
                non_negative("users.zipf_exponent", u.zipf_exponent)?;
                positive("users.session_mean", u.session_mean)?;
                fraction("users.class_affinity", u.class_affinity)?;
            }
        }
        if let Some(m) = &self.migration {
            need(m.check_every_reads > 0, "migration check interval")?;
            non_negative("migration.min_gain", m.min_gain)?;
            non_negative("migration.state_growth", m.state_growth)?;
        }
        Ok(())
    }

    /// I/O demand per disk used by the classification rule of Figure 5:
    /// `disk_time / num_disks`.
    #[must_use]
    pub fn io_demand_per_disk(&self) -> f64 {
        self.disk_time / f64::from(self.num_disks)
    }

    /// Classifies a query by its per-page CPU demand, per Figure 5: it is
    /// I/O-bound iff `disk_time / num_disks > page_cpu_time`.
    #[must_use]
    pub fn is_io_bound(&self, page_cpu_time: f64) -> bool {
        self.io_demand_per_disk() > page_cpu_time
    }

    /// Transfer time of a dispatch message for a class-`class` query.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn dispatch_cost(&self, class: ClassId) -> f64 {
        match self.message_costing {
            MessageCosting::Combined => self.msg_length,
            MessageCosting::Detailed { msg_time, .. } => self.classes[class].query_size * msg_time,
        }
    }

    /// Transfer time of the result message for a class-`class` query that
    /// performed `reads` page reads.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn result_cost(&self, class: ClassId, reads: f64) -> f64 {
        match self.message_costing {
            MessageCosting::Combined => self.msg_length,
            MessageCosting::Detailed {
                msg_time,
                page_size,
            } => self.classes[class].result_fraction * reads * page_size * msg_time,
        }
    }

    /// The CPU speed factor of `site` (1.0 when homogeneous).
    ///
    /// # Panics
    ///
    /// Panics if heterogeneous speeds are configured and `site` is out of
    /// range.
    #[must_use]
    pub fn cpu_speed(&self, site: SiteId) -> f64 {
        match &self.cpu_speeds {
            None => 1.0,
            Some(speeds) => speeds[site],
        }
    }

    /// Whether any part of the resilience layer (deadlines, suspicion,
    /// admission control) can influence the trajectory. `false`
    /// guarantees the run is byte-identical to one with all three specs
    /// set to `None` (CRN: the resilience substreams are never drawn).
    #[must_use]
    pub fn resilience_active(&self) -> bool {
        self.deadlines.is_some_and(|d| d.is_active())
            || self.suspicion.is_some()
            || self.admission.is_some_and(|a| a.is_active())
    }

    /// Mean total service demand of a class-`c` query:
    /// `num_reads * (disk_time + page_cpu_time)`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn mean_service_demand(&self, class: ClassId) -> f64 {
        let c = &self.classes[class];
        c.num_reads * (self.disk_time + c.page_cpu_time)
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams::paper_base()
    }
}

/// Builder for [`SystemParams`]; see [`SystemParams::builder`].
#[derive(Debug, Clone)]
pub struct SystemParamsBuilder {
    params: SystemParams,
}

impl SystemParamsBuilder {
    /// Sets the number of sites.
    #[must_use]
    pub fn num_sites(mut self, n: usize) -> Self {
        self.params.num_sites = n;
        self
    }

    /// Sets the number of disks per site.
    #[must_use]
    pub fn num_disks(mut self, n: u32) -> Self {
        self.params.num_disks = n;
        self
    }

    /// Sets the mean disk access time.
    #[must_use]
    pub fn disk_time(mut self, t: f64) -> Self {
        self.params.disk_time = t;
        self
    }

    /// Sets the disk-time deviation fraction.
    #[must_use]
    pub fn disk_time_dev(mut self, d: f64) -> Self {
        self.params.disk_time_dev = d;
        self
    }

    /// Sets the number of terminals per site.
    #[must_use]
    pub fn mpl(mut self, n: u32) -> Self {
        self.params.mpl = n;
        self
    }

    /// Sets the mean terminal think time.
    #[must_use]
    pub fn think_time(mut self, t: f64) -> Self {
        self.params.think_time = t;
        self
    }

    /// Replaces the class list.
    #[must_use]
    pub fn classes(mut self, classes: Vec<ClassSpec>) -> Self {
        self.params.classes = classes;
        self
    }

    /// Convenience for the paper's two-class workload: sets the I/O-bound
    /// class probability to `p` (CPU-bound gets `1 - p`) and the per-page
    /// CPU times of the two classes.
    ///
    /// # Panics
    ///
    /// Panics if the current class list does not have exactly two classes.
    #[must_use]
    pub fn two_class(mut self, io_prob: f64, io_cpu: f64, cpu_cpu: f64) -> Self {
        assert_eq!(
            self.params.classes.len(),
            2,
            "two_class requires the two-class workload"
        );
        self.params.classes[0].probability = io_prob;
        self.params.classes[0].page_cpu_time = io_cpu;
        self.params.classes[1].probability = 1.0 - io_prob;
        self.params.classes[1].page_cpu_time = cpu_cpu;
        self
    }

    /// Sets the I/O-bound class probability (`class_io_prob` in Table 7),
    /// keeping the CPU times.
    ///
    /// # Panics
    ///
    /// Panics if the current class list does not have exactly two classes.
    #[must_use]
    pub fn class_io_prob(mut self, p: f64) -> Self {
        assert_eq!(self.params.classes.len(), 2);
        self.params.classes[0].probability = p;
        self.params.classes[1].probability = 1.0 - p;
        self
    }

    /// Sets the message length (remote-transfer time units).
    #[must_use]
    pub fn msg_length(mut self, t: f64) -> Self {
        self.params.msg_length = t;
        self
    }

    /// Sets the message-costing mode (combined vs Table-2/3 detailed).
    #[must_use]
    pub fn message_costing(mut self, c: MessageCosting) -> Self {
        self.params.message_costing = c;
        self
    }

    /// Sets the disk-selection discipline.
    #[must_use]
    pub fn disk_choice(mut self, c: DiskChoice) -> Self {
        self.params.disk_choice = c;
        self
    }

    /// Sets the demand-estimate error fraction.
    #[must_use]
    pub fn estimate_error(mut self, e: f64) -> Self {
        self.params.estimate_error = e;
        self
    }

    /// Sets the load-status exchange period.
    #[must_use]
    pub fn status_period(mut self, p: f64) -> Self {
        self.params.status_period = p;
        self
    }

    /// Sets the status-broadcast transfer time (0 = free snapshots).
    #[must_use]
    pub fn status_msg_length(mut self, t: f64) -> Self {
        self.params.status_msg_length = t;
        self
    }

    /// Sets the number of relations in the database.
    #[must_use]
    pub fn num_relations(mut self, n: usize) -> Self {
        self.params.num_relations = n;
        self
    }

    /// Sets the replication degree: `None` for full replication,
    /// `Some(k)` for `k` round-robin copies per relation.
    #[must_use]
    pub fn copies(mut self, copies: Option<u32>) -> Self {
        self.params.copies = copies;
        self
    }

    /// Enables or disables mid-execution query migration.
    #[must_use]
    pub fn migration(mut self, spec: Option<MigrationSpec>) -> Self {
        self.params.migration = spec;
        self
    }

    /// Sets per-site CPU speed factors (`None` = homogeneous).
    #[must_use]
    pub fn cpu_speeds(mut self, speeds: Option<Vec<f64>>) -> Self {
        self.params.cpu_speeds = speeds;
        self
    }

    /// Switches between the closed (paper) and open workload models.
    #[must_use]
    pub fn workload(mut self, w: Workload) -> Self {
        self.params.workload = w;
        self
    }

    /// Sets the update fraction of the workload (0 = the paper's
    /// read-only workload).
    #[must_use]
    pub fn update_fraction(mut self, u: f64) -> Self {
        self.params.update_fraction = u;
        self
    }

    /// Sets the per-replica apply work as a fraction of the update's
    /// reads.
    #[must_use]
    pub fn propagation_factor(mut self, f: f64) -> Self {
        self.params.propagation_factor = f;
        self
    }

    /// Enables or disables fault injection (`None` = the paper's
    /// never-fail assumption).
    #[must_use]
    pub fn faults(mut self, spec: Option<FaultSpec>) -> Self {
        self.params.faults = spec;
        self
    }

    /// Enables or disables per-query deadlines with reallocation.
    #[must_use]
    pub fn deadlines(mut self, spec: Option<DeadlineSpec>) -> Self {
        self.params.deadlines = spec;
        self
    }

    /// Enables or disables the heartbeat suspicion detector.
    #[must_use]
    pub fn suspicion(mut self, spec: Option<SuspicionSpec>) -> Self {
        self.params.suspicion = spec;
        self
    }

    /// Enables or disables per-site admission control.
    #[must_use]
    pub fn admission(mut self, spec: Option<AdmissionSpec>) -> Self {
        self.params.admission = spec;
        self
    }

    /// Enables or disables hedged redundant dispatch.
    #[must_use]
    pub fn redundancy(mut self, spec: Option<RedundancySpec>) -> Self {
        self.params.redundancy = spec;
        self
    }

    /// Enables or disables time-varying open-arrival modulation.
    #[must_use]
    pub fn arrivals(mut self, spec: Option<ArrivalSpec>) -> Self {
        self.params.arrivals = spec;
        self
    }

    /// Enables or disables the heavy-tailed user population model.
    #[must_use]
    pub fn users(mut self, spec: Option<UserSpec>) -> Self {
        self.params.users = spec;
        self
    }

    /// Replaces the deterministic fault-environment script (requires a
    /// fault spec; see [`ScriptEntry`]).
    #[must_use]
    pub fn script(mut self, script: Vec<ScriptEntry>) -> Self {
        self.params.script = script;
        self
    }

    /// Validates and returns the parameters.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violated (see
    /// [`SystemParams::validate`]).
    pub fn build(self) -> Result<SystemParams, ParamsError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_is_valid() {
        assert_eq!(SystemParams::paper_base().validate(), Ok(()));
    }

    #[test]
    fn default_is_paper_base() {
        assert_eq!(SystemParams::default(), SystemParams::paper_base());
    }

    #[test]
    fn builder_round_trip() {
        let p = SystemParams::builder()
            .num_sites(8)
            .num_disks(3)
            .mpl(25)
            .think_time(150.0)
            .msg_length(2.0)
            .build()
            .unwrap();
        assert_eq!(p.num_sites, 8);
        assert_eq!(p.num_disks, 3);
        assert_eq!(p.mpl, 25);
        assert_eq!(p.think_time, 150.0);
        assert_eq!(p.msg_length, 2.0);
    }

    #[test]
    fn two_class_helper() {
        let p = SystemParams::builder()
            .two_class(0.3, 0.01, 0.65)
            .build()
            .unwrap();
        assert_eq!(p.classes[0].probability, 0.3);
        assert_eq!(p.classes[1].probability, 0.7);
        assert_eq!(p.classes[0].page_cpu_time, 0.01);
        assert_eq!(p.classes[1].page_cpu_time, 0.65);
    }

    #[test]
    fn classification_rule_matches_figure5() {
        let p = SystemParams::paper_base(); // per-disk demand = 0.5
        assert!(p.is_io_bound(0.05));
        assert!(!p.is_io_bound(1.0));
        assert!(!p.is_io_bound(0.5)); // strict inequality
    }

    #[test]
    fn mean_service_demand_matches_paper_quote() {
        // Section 5.2 quotes mean execution time 30.5 for the base mix;
        // per class: io = 20 * 1.05 = 21, cpu = 20 * 2.0 = 40; mean 30.5.
        let p = SystemParams::paper_base();
        assert!((p.mean_service_demand(0) - 21.0).abs() < 1e-12);
        assert!((p.mean_service_demand(1) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_sites() {
        let mut p = SystemParams::paper_base();
        p.num_sites = 0;
        assert_eq!(p.validate(), Err(ParamsError::Missing { what: "site" }));
    }

    #[test]
    fn rejects_bad_probability_sum() {
        let mut p = SystemParams::paper_base();
        p.classes[0].probability = 0.9;
        assert!(matches!(
            p.validate(),
            Err(ParamsError::BadClassProbabilities { .. })
        ));
    }

    #[test]
    fn rejects_negative_msg_length() {
        let mut p = SystemParams::paper_base();
        p.msg_length = -1.0;
        assert!(matches!(
            p.validate(),
            Err(ParamsError::NonPositive {
                field: "msg_length",
                ..
            })
        ));
    }

    #[test]
    fn rejects_nonpositive_think_time() {
        let mut p = SystemParams::paper_base();
        p.think_time = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn message_costs_combined_vs_detailed() {
        let combined = SystemParams::paper_base();
        assert_eq!(combined.dispatch_cost(0), 1.0);
        assert_eq!(combined.result_cost(1, 50.0), 1.0);

        let detailed = SystemParams::builder()
            .message_costing(MessageCosting::Detailed {
                msg_time: 0.000_25,
                page_size: 1_000.0,
            })
            .build()
            .unwrap();
        // dispatch: 4000 B x 0.00025 = 1.0
        assert!((detailed.dispatch_cost(0) - 1.0).abs() < 1e-12);
        // result: 0.2 x 20 reads x 1000 B x 0.00025 = 1.0 at the mean...
        assert!((detailed.result_cost(0, 20.0) - 1.0).abs() < 1e-12);
        // ...and scales with the query's actual size.
        assert!((detailed.result_cost(0, 40.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detailed_costing_validated() {
        let bad = SystemParams::builder()
            .message_costing(MessageCosting::Detailed {
                msg_time: 0.0,
                page_size: 1_000.0,
            })
            .build();
        assert!(bad.is_err());
        let mut p = SystemParams::paper_base();
        p.classes[0].result_fraction = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn replication_bounds_checked() {
        let ok = SystemParams::builder()
            .num_sites(4)
            .copies(Some(2))
            .num_relations(8)
            .build();
        assert!(ok.is_ok());
        let too_many = SystemParams::builder().num_sites(4).copies(Some(5)).build();
        assert!(too_many.is_err());
        let zero_copies = SystemParams::builder().copies(Some(0)).build();
        assert!(zero_copies.is_err());
        let mut p = SystemParams::paper_base();
        p.num_relations = 0;
        assert_eq!(p.validate(), Err(ParamsError::Missing { what: "relation" }));
    }

    #[test]
    fn fault_spec_defaults_are_inactive_and_valid() {
        let spec = FaultSpec::default();
        assert!(!spec.is_active());
        let p = SystemParams::builder().faults(Some(spec)).build().unwrap();
        assert_eq!(p.faults, Some(spec));
    }

    #[test]
    fn fault_spec_validation() {
        // MTTR of zero is instant repair, which is legal; a negative
        // repair time is not.
        let instant = SystemParams::builder()
            .faults(Some(FaultSpec {
                mtbf: 100.0,
                mttr: 0.0,
                ..FaultSpec::default()
            }))
            .build();
        assert!(instant.is_ok());
        let bad_mttr = SystemParams::builder()
            .faults(Some(FaultSpec {
                mtbf: 100.0,
                mttr: -1.0,
                ..FaultSpec::default()
            }))
            .build();
        assert!(bad_mttr.is_err());
        let bad_loss = SystemParams::builder()
            .faults(Some(FaultSpec {
                msg_loss: 1.5,
                ..FaultSpec::default()
            }))
            .build();
        assert!(bad_loss.is_err());
        let bad_backoff = SystemParams::builder()
            .faults(Some(FaultSpec {
                backoff_base: 0.0,
                ..FaultSpec::default()
            }))
            .build();
        assert!(bad_backoff.is_err());
        let ok = SystemParams::builder()
            .faults(Some(FaultSpec {
                mtbf: 500.0,
                mttr: 50.0,
                msg_loss: 0.01,
                ..FaultSpec::default()
            }))
            .build();
        assert!(ok.is_ok());
        assert!(ok.unwrap().faults.unwrap().is_active());
    }

    #[test]
    fn partition_validation() {
        // Duration without groups is rejected; so are more groups than
        // sites; a well-formed partition activates the fault layer.
        let no_groups = SystemParams::builder()
            .faults(Some(FaultSpec {
                partition_at: 100.0,
                partition_for: 50.0,
                ..FaultSpec::default()
            }))
            .build();
        assert!(no_groups.is_err());
        let too_many = SystemParams::builder()
            .num_sites(4)
            .faults(Some(FaultSpec {
                partition_for: 50.0,
                partition_groups: 5,
                ..FaultSpec::default()
            }))
            .build();
        assert!(too_many.is_err());
        let ok = SystemParams::builder()
            .faults(Some(FaultSpec {
                partition_at: 100.0,
                partition_for: 50.0,
                partition_groups: 2,
                ..FaultSpec::default()
            }))
            .build()
            .unwrap();
        assert!(ok.faults.unwrap().has_partition());
        assert!(ok.faults.unwrap().is_active());
        // Groups configured but zero duration = disabled, valid.
        let idle = FaultSpec {
            partition_groups: 3,
            ..FaultSpec::default()
        };
        assert!(!idle.has_partition());
    }

    #[test]
    fn script_validation() {
        // A script without a fault spec is rejected: the scripted
        // actions reuse the FaultSpec retry/partition machinery.
        let down = |at| ScriptEntry {
            at,
            action: ScriptAction::SiteDown(1),
        };
        let orphan = SystemParams::builder().script(vec![down(100.0)]).build();
        assert!(orphan.is_err());
        // Site indices are bounds-checked against num_sites.
        let oob = SystemParams::builder()
            .num_sites(3)
            .faults(Some(FaultSpec::default()))
            .script(vec![ScriptEntry {
                at: 10.0,
                action: ScriptAction::SiteUp(3),
            }])
            .build();
        assert!(oob.is_err());
        // Partition toggles need partition_groups >= 2 even though the
        // stochastic partition window (partition_for) stays zero.
        let no_groups = SystemParams::builder()
            .faults(Some(FaultSpec::default()))
            .script(vec![ScriptEntry {
                at: 10.0,
                action: ScriptAction::PartitionStart,
            }])
            .build();
        assert!(no_groups.is_err());
        let ok = SystemParams::builder()
            .faults(Some(FaultSpec {
                partition_groups: 2,
                ..FaultSpec::default()
            }))
            .script(vec![
                down(100.0),
                ScriptEntry {
                    at: 150.0,
                    action: ScriptAction::PartitionStart,
                },
                ScriptEntry {
                    at: 250.0,
                    action: ScriptAction::PartitionHeal,
                },
                ScriptEntry {
                    at: 300.0,
                    action: ScriptAction::SiteUp(1),
                },
            ])
            .build()
            .unwrap();
        assert_eq!(ok.script.len(), 4);
        // Negative or non-finite times are rejected.
        let bad_time = SystemParams::builder()
            .faults(Some(FaultSpec::default()))
            .script(vec![down(f64::NAN)])
            .build();
        assert!(bad_time.is_err());
    }

    #[test]
    fn deadline_spec_validation() {
        // Default spec is inactive and valid.
        let p = SystemParams::builder()
            .deadlines(Some(DeadlineSpec::default()))
            .build()
            .unwrap();
        assert!(!p.resilience_active());
        let bad_mean = SystemParams::builder()
            .deadlines(Some(DeadlineSpec {
                mean: -10.0,
                ..DeadlineSpec::default()
            }))
            .build();
        assert!(bad_mean.is_err());
        let bad_backoff = SystemParams::builder()
            .deadlines(Some(DeadlineSpec {
                mean: 100.0,
                backoff_base: 0.0,
                ..DeadlineSpec::default()
            }))
            .build();
        assert!(bad_backoff.is_err());
        let active = SystemParams::builder()
            .deadlines(Some(DeadlineSpec {
                mean: 100.0,
                ..DeadlineSpec::default()
            }))
            .build()
            .unwrap();
        assert!(active.resilience_active());
    }

    #[test]
    fn suspicion_requires_costed_broadcasts() {
        let no_broadcasts = SystemParams::builder()
            .suspicion(Some(SuspicionSpec::default()))
            .build();
        assert!(no_broadcasts.is_err());
        let ok = SystemParams::builder()
            .status_period(30.0)
            .status_msg_length(1.0)
            .suspicion(Some(SuspicionSpec::default()))
            .build()
            .unwrap();
        assert!(ok.resilience_active());
        let zero_threshold = SystemParams::builder()
            .status_period(30.0)
            .status_msg_length(1.0)
            .suspicion(Some(SuspicionSpec {
                threshold: 0,
                ..SuspicionSpec::default()
            }))
            .build();
        assert!(zero_threshold.is_err());
    }

    #[test]
    fn admission_spec_validation() {
        // No caps = inactive and valid.
        let p = SystemParams::builder()
            .admission(Some(AdmissionSpec::default()))
            .build()
            .unwrap();
        assert!(!p.resilience_active());
        let zero_cap = SystemParams::builder()
            .admission(Some(AdmissionSpec {
                mpl_cap: Some(0),
                ..AdmissionSpec::default()
            }))
            .build();
        assert!(zero_cap.is_err());
        let zero_queue = SystemParams::builder()
            .admission(Some(AdmissionSpec {
                queue_limit: Some(0),
                ..AdmissionSpec::default()
            }))
            .build();
        assert!(zero_queue.is_err());
        let capped = SystemParams::builder()
            .admission(Some(AdmissionSpec {
                mpl_cap: Some(10),
                ..AdmissionSpec::default()
            }))
            .build()
            .unwrap();
        assert!(capped.resilience_active());
    }

    #[test]
    fn arrival_spec_validation() {
        // A fully-defaulted spec is inactive and valid even on a closed
        // workload (it draws nothing).
        let inert = SystemParams::builder()
            .arrivals(Some(ArrivalSpec::default()))
            .build()
            .unwrap();
        assert!(!inert.arrivals.unwrap().is_active());
        // Any active layer demands an open workload.
        let closed = SystemParams::builder()
            .arrivals(Some(ArrivalSpec {
                diurnal_amplitude: 0.3,
                ..ArrivalSpec::default()
            }))
            .build();
        assert!(closed.is_err());
        let open = SystemParams::builder()
            .workload(Workload::Open { arrival_rate: 0.02 })
            .arrivals(Some(ArrivalSpec {
                diurnal_amplitude: 0.3,
                flash_at: 1_000.0,
                flash_for: 500.0,
                flash_multiplier: 3.0,
                burst_multiplier: 2.0,
                ..ArrivalSpec::default()
            }))
            .build()
            .unwrap();
        let spec = open.arrivals.unwrap();
        assert!(spec.is_active() && spec.has_flash() && spec.has_burst());
        // The envelope dominates every layer at once.
        let lmax = spec.lambda_max(0.02);
        assert!((lmax - 0.02 * 1.3 * 3.0 * 2.0).abs() < 1e-15);
        assert!(spec.modulation_at(1_100.0) <= lmax / 0.02 * 1.000_000_1);
        // Bad numerics are rejected.
        for bad in [
            ArrivalSpec {
                diurnal_amplitude: 1.5,
                ..ArrivalSpec::default()
            },
            ArrivalSpec {
                diurnal_amplitude: 0.2,
                diurnal_period: 0.0,
                ..ArrivalSpec::default()
            },
            ArrivalSpec {
                flash_for: 10.0,
                flash_multiplier: 0.0,
                ..ArrivalSpec::default()
            },
            ArrivalSpec {
                burst_multiplier: 0.5,
                ..ArrivalSpec::default()
            },
            ArrivalSpec {
                burst_multiplier: 2.0,
                burst_on_mean: 0.0,
                ..ArrivalSpec::default()
            },
        ] {
            let r = SystemParams::builder()
                .workload(Workload::Open { arrival_rate: 0.02 })
                .arrivals(Some(bad))
                .build();
            assert!(r.is_err(), "accepted bad spec {bad:?}");
        }
    }

    #[test]
    fn user_spec_validation() {
        // total_users == 0 is the inert default: valid anywhere.
        let inert = SystemParams::builder()
            .users(Some(UserSpec::default()))
            .build()
            .unwrap();
        assert!(!inert.users.unwrap().is_active());
        // Active population demands an open workload.
        let closed = SystemParams::builder()
            .users(Some(UserSpec {
                total_users: 1_000,
                ..UserSpec::default()
            }))
            .build();
        assert!(closed.is_err());
        let open = SystemParams::builder()
            .workload(Workload::Open { arrival_rate: 0.02 })
            .users(Some(UserSpec {
                total_users: 1_000_000,
                ..UserSpec::default()
            }))
            .build()
            .unwrap();
        assert!(open.users.unwrap().is_active());
        for bad in [
            UserSpec {
                total_users: 10,
                zipf_exponent: -1.0,
                ..UserSpec::default()
            },
            UserSpec {
                total_users: 10,
                session_mean: 0.0,
                ..UserSpec::default()
            },
            UserSpec {
                total_users: 10,
                class_affinity: 1.5,
                ..UserSpec::default()
            },
        ] {
            let r = SystemParams::builder()
                .workload(Workload::Open { arrival_rate: 0.02 })
                .users(Some(bad))
                .build();
            assert!(r.is_err(), "accepted bad spec {bad:?}");
        }
    }

    #[test]
    fn user_shards_partition_the_population() {
        let spec = UserSpec {
            total_users: 1_000_003,
            ..UserSpec::default()
        };
        let total: u64 = (0..6).map(|s| spec.shard_size(s, 6)).sum();
        assert_eq!(total, 1_000_003);
        let sizes: Vec<u64> = (0..6).map(|s| spec.shard_size(s, 6)).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "uneven shards: {sizes:?}");
    }

    #[test]
    fn range_rules_state_the_rule_and_value() {
        let mut p = SystemParams::paper_base();
        p.copies = Some(7);
        let err = p.validate().unwrap_err().to_string();
        assert_eq!(err, "`copies` must be at most num_sites, got 7");
        let mut p = SystemParams::paper_base();
        p.cpu_speeds = Some(vec![1.0, 2.0]);
        let err = p.validate().unwrap_err().to_string();
        assert_eq!(err, "`cpu_speeds length` must be equal to num_sites, got 2");
    }

    #[test]
    fn error_messages_are_nonempty() {
        for e in [
            ParamsError::NonPositive {
                field: "x",
                value: -1.0,
            },
            ParamsError::BadFraction {
                field: "y",
                value: 2.0,
            },
            ParamsError::Missing { what: "site" },
            ParamsError::BadClassProbabilities { sum: 0.5 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
