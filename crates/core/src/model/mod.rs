//! The distributed-database simulation model (Figures 1 and 2).
//!
//! [`DbSystem`] wires the substrate components together into the paper's
//! closed queueing model: per-site terminals (think times), a
//! processor-sharing CPU and FCFS disks per site, a token-ring subnet, the
//! global load table, and a pluggable allocation policy. It implements
//! [`dqa_sim::Model`], so a [`dqa_sim::Engine`] drives it.
//!
//! # Logical-process structure (DESIGN.md §12)
//!
//! The model is split along the only communication channel the paper's
//! system has — the token-ring subnet — into one *logical process* (LP)
//! per site plus a small set of *global* transitions:
//!
//! * [`Lp`] owns everything private to a site: its terminals' RNG
//!   streams, its stations, its resident queries, its live load row, its
//!   suspicion detector, and its allocator cursor. LP event handlers
//!   (`Submit`, `DiskDone`, `CpuDone`, `StatusSend`, `Resubmit`) touch
//!   only that state, *read* the shared board, and communicate outward
//!   exclusively through an outbox of ring frames and a log of
//!   [`Obs`] records applied to the global board/metrics later.
//! * Global transitions (ring deliveries, crashes, repairs, partitions,
//!   scripted actions, deadline expiries, result retransmissions) run on
//!   [`DbSystem`], which owns what no single site does: the ring, the
//!   board, the metrics, the hedge registry, and moving a query between
//!   LP tables. Every LP-owned step they take — starting a read, taking
//!   or freeing a load slot, retrying, completing, losing, shedding or
//!   cancelling a query — they drive through the owning LP, by the same
//!   entry point LP events use (`DbSystem::on_lp`), so each step of the
//!   query lifecycle ([`crate::lifecycle`]) has exactly one
//!   implementation, and an LP's live row and its board row change only
//!   through the LP's own observation log.
//!
//! The serial executor interleaves both kinds in timestamp order and
//! flushes each LP's obs/outbox immediately after every event, so its
//! trajectories are exactly what the windowed parallel executor
//! ([`shard`]) reproduces barrier by barrier.

mod events;
mod obs;
pub mod shard;
mod site;

pub use events::{Event, MsgKind, RingMsg};
pub use site::Site;

use dqa_queueing::{PsToken, TokenRing};
use dqa_sim::random::{Dist, RngStream};
use dqa_sim::{Engine, Model, Scheduler, SimTime};

use crate::load::{LoadTable, SiteLoad};
use crate::metrics::Metrics;
use crate::params::{
    ArrivalSpec, FaultSpec, ParamsError, ScriptAction, SheddingMode, SiteId, SuspicionSpec,
    SystemParams, UserSpec, Workload,
};
use crate::policy::{AllocationContext, Allocator, PolicyKind};
use crate::query::{ActiveQuery, QueryId, QueryKind, QueryPhase, QueryProfile, QueryTable};
use crate::replication::Catalog;
use crate::substreams;
use crate::users::{self, UserArena};
use obs::Obs;

/// Where a handler deposits future events. The serial executor passes the
/// engine's [`Scheduler`] straight through; the parallel executor passes a
/// collector that routes each event to its owning LP's local queue (or the
/// global queue) instead.
pub(crate) trait EventSink {
    /// Schedules `event` at absolute time `t`.
    fn schedule(&mut self, t: SimTime, event: Event);
}

impl EventSink for Scheduler<Event> {
    fn schedule(&mut self, t: SimTime, event: Event) {
        self.at(t, event);
    }
}

/// The site that owns an event, if it is an LP event; `None` for global
/// events, which need access to more than one site's state and therefore
/// run at window barriers in the parallel executor.
pub(crate) fn event_site(event: &Event) -> Option<SiteId> {
    match *event {
        Event::Submit { site }
        | Event::DiskDone { site, .. }
        | Event::CpuDone { site, .. }
        | Event::StatusSend { site }
        | Event::Resubmit { site, .. } => Some(site),
        _ => None,
    }
}

/// Runtime state of the fault-injection layer.
///
/// The layer draws from its *own* RNG substreams
/// ([`substreams::FAULT_CRASH`]..=[`substreams::FAULT_STATUS`], disjoint
/// from the workload's tags), so enabling faults perturbs none of the
/// workload draws: a faulty run and a fault-free run with the same seed
/// share the same submission sequence until the first fault bites, and a
/// `FaultSpec` with all rates zero is byte-identical to `faults: None` —
/// the common-random-numbers property the paper's methodology relies on.
///
/// Only the *global* fault streams live here; the retry-backoff jitter
/// and costed status-frame dropout coins are drawn per site from the same
/// tags' per-site children (see [`Lp`]).
#[derive(Debug)]
struct FaultState {
    spec: FaultSpec,
    /// Crash and repair interval draws.
    rng_crash: RngStream,
    /// Per-delivery message-loss coin flips.
    rng_msg: RngStream,
    /// Free status-exchange dropout coin flips (`status_msg_length == 0`;
    /// the costed variant draws per-site coins instead, so the two uses
    /// of the tag family never overlap).
    rng_status: RngStream,
    /// Whether the injected ring partition is currently in force.
    partition_active: bool,
}

/// The kind of site a partitioned ring frame may not reach: the token
/// ring splits into `groups` disjoint contiguous blocks of sites.
fn partition_group(site: SiteId, groups: u32, num_sites: usize) -> usize {
    site * groups as usize / num_sites
}

/// One site's slice of the user population (live-service extension):
/// the spec, the size of this site's user shard, and the arena of
/// currently active sessions. Only built when the spec is active, so a
/// run without a population pays nothing.
#[derive(Debug)]
struct LpUsers {
    spec: UserSpec,
    /// Users homed at this site (`spec.shard_size(index, num_sites)`).
    shard: u64,
    /// Session state of this site's currently active users.
    arena: UserArena,
}

/// One site's missed-broadcast failure detector (observer side).
///
/// The site audits its peers against the costed status broadcasts it
/// receives: a target whose broadcast has not been heard for
/// `threshold` status periods becomes *suspected* (the observer's trust
/// entry clears and [`AllocationContext::usable`] quarantines the site);
/// a suspected target that is heard again for `probation` consecutive
/// broadcasts is re-trusted. Detection is per-observer: during a
/// partition, sites suspect only the peers they can no longer hear.
///
/// [`AllocationContext::usable`]: crate::policy::AllocationContext::usable
#[derive(Debug)]
struct LpSuspicion {
    spec: SuspicionSpec,
    /// When this observer last heard `target`'s broadcast.
    last_heard: Vec<SimTime>,
    /// Consecutive broadcasts heard from a *suspected* target (probation
    /// progress toward re-trust).
    streak: Vec<u32>,
    suspected: Vec<bool>,
}

/// A side effect an LP step cannot perform itself: scheduling a *global*
/// event, invoking a global path (deadline cancellation, the hedge
/// registry), or returning another site's terminal to thinking. Drained
/// right after the step by [`DbSystem::flush_lp`]. The parallel executor
/// asserts the queue is empty at every barrier: its shardability gate
/// excludes every feature whose LP *events* produce one, and global
/// steps drain theirs at once.
#[derive(Debug)]
enum Deferred {
    /// Schedule a global event at the given time.
    Schedule(SimTime, Event),
    /// Run the deadline cancel-and-reallocate path for a query whose
    /// expired page read just finished.
    Cancel(QueryId),
    /// Spawn duplicate hedge attempts for a query this LP just
    /// dispatched (redundancy layer): the spawn enqueues frames for
    /// other sites and registers the group globally.
    Hedge {
        /// The primary attempt, already dispatched by the LP.
        query: QueryId,
        /// The policy-ranked redundant sites (primary excluded).
        targets: Vec<SiteId>,
    },
    /// A hedged attempt finished executing at this site; the first-win
    /// decision consults the global hedge registry.
    HedgeFinish(QueryId),
    /// Retire a member this LP already reaped (the record is gone; only
    /// the registry entry remains).
    HedgeRetire {
        /// The member's hedge group.
        group: u32,
        /// The reaped record's id in this LP's table.
        id: QueryId,
    },
    /// Dissolve a group whose hedged primary was abandoned at this LP:
    /// every still-racing duplicate is cancelled.
    HedgeAbandon {
        /// The abandoned primary's hedge group.
        group: u32,
    },
    /// The terminal of a query retired at its execution site (a result
    /// set delivered home, or lost for good) returns to thinking at its
    /// home site, with the home site's own think stream.
    Think(SiteId),
}

/// One attempt of a hedge group: which LP's table currently holds the
/// record and under what id (updated on every table move), and whether
/// the attempt is still live. Identity is `(site, id)` — query ids are
/// unique per table, not globally.
#[derive(Debug, Clone, Copy)]
struct HedgeMember {
    site: SiteId,
    id: QueryId,
    live: bool,
}

/// A replicate-to-`n` hedge group: the primary attempt plus its
/// duplicates, the home site that coordinates cancellation, and whether
/// the group's single counted outcome has been decided (first win or
/// primary abandonment).
#[derive(Debug)]
struct HedgeGroup {
    home: SiteId,
    /// The primary first, duplicates in spawn order.
    members: Vec<HedgeMember>,
    decided: bool,
}

/// The global hedge-group registry: a slot arena keyed by group id.
/// Freed slots are reused, so long runs do not grow it without bound.
#[derive(Debug, Default)]
struct HedgeTable {
    groups: Vec<Option<HedgeGroup>>,
    free: Vec<u32>,
}

impl HedgeTable {
    /// Opens a group coordinated at `home` whose primary attempt is
    /// `(site, id)`, returning the group id.
    fn create(&mut self, home: SiteId, site: SiteId, id: QueryId) -> u32 {
        let group = HedgeGroup {
            home,
            members: vec![HedgeMember {
                site,
                id,
                live: true,
            }],
            decided: false,
        };
        match self.free.pop() {
            Some(slot) => {
                self.groups[slot as usize] = Some(group);
                slot
            }
            None => {
                self.groups.push(Some(group));
                (self.groups.len() - 1) as u32
            }
        }
    }

    fn group(&self, gid: u32) -> &HedgeGroup {
        self.groups[gid as usize]
            .as_ref()
            .expect("live hedge group")
    }

    fn group_mut(&mut self, gid: u32) -> &mut HedgeGroup {
        self.groups[gid as usize]
            .as_mut()
            .expect("live hedge group")
    }

    /// Adds a duplicate attempt to the group.
    fn add_member(&mut self, gid: u32, site: SiteId, id: QueryId) {
        self.group_mut(gid).members.push(HedgeMember {
            site,
            id,
            live: true,
        });
    }

    /// Follows a moved member to its new table and id (the old id goes
    /// stale with the move, exactly as for the record itself).
    fn relocate(&mut self, gid: u32, from: SiteId, old: QueryId, to: SiteId, id: QueryId) {
        let g = self.group_mut(gid);
        if let Some(m) = g
            .members
            .iter_mut()
            .find(|m| m.live && m.site == from && m.id == old)
        {
            m.site = to;
            m.id = id;
        }
    }

    /// Marks the member `(site, id)` dead; frees the group slot once no
    /// member is live.
    fn retire(&mut self, gid: u32, site: SiteId, id: QueryId) {
        let g = self.group_mut(gid);
        if let Some(m) = g
            .members
            .iter_mut()
            .find(|m| m.live && m.site == site && m.id == id)
        {
            m.live = false;
        }
        if g.members.iter().all(|m| !m.live) {
            self.groups[gid as usize] = None;
            self.free.push(gid);
        }
    }
}

/// Which per-query budget a resilience retry draws down. The two
/// lifecycles are budgeted independently: admission rejects happen
/// before any work is placed, deadline reallocations after.
#[derive(Clone, Copy)]
enum RetryCounter {
    /// Deadline reallocation (`DeadlineSpec::max_reallocations`).
    Deadline,
    /// Admission reject-retry (`AdmissionSpec::max_retries`).
    Admission,
}

/// Verdict of the admission check at a chosen execution site's door.
enum Admission {
    /// Proceed at this site (possibly a redirect target).
    Admit(SiteId),
    /// Back off at the home terminal and retry later.
    Reject,
    /// Shed the query outright.
    Drop,
}

/// One site's logical process: every piece of model state that only this
/// site's own events ever mutate. All of its RNG streams are the site's
/// private children of the registered tags ([`substreams::per_site`]), so
/// two LPs never share a random sequence and the order in which different
/// sites' events execute cannot perturb any draw — the property that
/// makes the windowed parallel schedule byte-identical to the serial one.
#[derive(Debug)]
pub(crate) struct Lp {
    /// This LP's site index.
    index: SiteId,
    /// The site's stations (CPU, disks) and crash state.
    site: Site,
    /// Queries whose state currently lives at this site: everything this
    /// site is executing, plus its own backed-off or in-transfer queries.
    /// A query crossing the ring moves tables at frame *delivery*.
    queries: QueryTable,
    /// The site's instantaneous load (its own row, always current). The
    /// global board mirrors it with a lag of at most one flush.
    live: SiteLoad,
    /// trust[s]: this site's suspicion detector currently trusts site `s`.
    trust: Vec<bool>,
    /// The site's own allocator (policy + round-robin cursor).
    allocator: Allocator,
    rng_think: RngStream,
    rng_class: RngStream,
    rng_reads: RngStream,
    rng_cpu: RngStream,
    rng_disk: RngStream,
    rng_choice: RngStream,
    rng_estimate: RngStream,
    rng_relation: RngStream,
    rng_update: RngStream,
    /// Fault-retry backoff jitter for queries parked at this site.
    rng_fault_backoff: RngStream,
    /// Costed status-broadcast dropout coins (this site's sends).
    rng_status: RngStream,
    /// Deadline slack draws for queries allocated by this site.
    rng_deadline: RngStream,
    /// Reallocation/admission-retry backoff jitter.
    rng_realloc_backoff: RngStream,
    /// Open-arrival thinning draws (candidate gaps + accept coins).
    rng_arrival: RngStream,
    /// MMPP burst-chain dwell draws.
    rng_burst: RngStream,
    /// Zipf user selection and class-affinity coins.
    rng_user: RngStream,
    /// Per-user session state drawn at first touch.
    rng_session: RngStream,
    /// Hedge-eligibility coins (redundancy layer). Drawn once per
    /// eligible submit whenever the spec is active, *before* admission
    /// and independent of the controller's current effective level, so
    /// the coin sequence is load-invariant (CRN across settings).
    rng_redundancy: RngStream,
    /// Whether this site's MMPP burst chain is in its bursty (ON) state.
    burst_on: bool,
    /// Absolute time the current burst state's dwell ends.
    burst_until: SimTime,
    /// This site's user-population shard (live-service extension).
    users: Option<LpUsers>,
    suspicion: Option<LpSuspicion>,
    /// Observations to apply to the global board/metrics (drained at the
    /// next flush: immediately in the serial executor, at the window
    /// barrier in the parallel one).
    obs: Vec<(SimTime, Obs)>,
    /// Ring frames to enqueue: `(send time, message, transmission cost)`.
    outbox: Vec<(SimTime, RingMsg, f64)>,
    /// Classic-only side effects (see [`Deferred`]).
    deferred: Vec<Deferred>,
}

/// The shared state an LP handler may *read*: parameters, the replication
/// catalog, the published board, and — in the serial executor only —
/// read access to the other LPs for live admission checks.
pub(crate) struct Shared<'a> {
    params: &'a SystemParams,
    catalog: &'a Catalog,
    board: &'a LoadTable,
    disk_dist: Dist,
    cross: Option<Cross<'a>>,
}

/// Read access to every *other* LP, for the admission layer's live
/// occupancy checks (`None` in the parallel executor, whose shardability
/// gate excludes admission control).
pub(crate) struct Cross<'a> {
    left: &'a [Lp],
    right: &'a [Lp],
    idx: usize,
}

impl<'a> Cross<'a> {
    fn lp(&self, site: SiteId) -> Option<&'a Lp> {
        use std::cmp::Ordering;
        match site.cmp(&self.idx) {
            Ordering::Less => self.left.get(site),
            Ordering::Equal => None,
            Ordering::Greater => self.right.get(site - self.idx - 1),
        }
    }
}

/// Whether `lp`'s site is at an admission limit *right now* (live
/// state): its stations hold `mpl_cap` or more resident queries, or
/// `queue_limit` or more queries are allocated to it.
fn lp_full(params: &SystemParams, lp: &Lp) -> bool {
    let Some(a) = params.admission else {
        return false;
    };
    if let Some(cap) = a.mpl_cap {
        if lp.site.resident_queries() as u32 >= cap {
            return true;
        }
    }
    if let Some(limit) = a.queue_limit {
        if lp.live.total() >= limit {
            return true;
        }
    }
    false
}

/// Live fullness of `site` as observable from `me`: a site knows itself;
/// other sites are consulted through the serial executor's cross view.
fn site_full(sh: &Shared<'_>, me: &Lp, site: SiteId) -> bool {
    if site == me.index {
        lp_full(sh.params, me)
    } else {
        // dqa-lint: allow(shard-isolation) -- ShardGate::Admission: remote load-table peek behind the admission gate; sharded runs refuse admission instead
        match sh.cross.as_ref().and_then(|c| c.lp(site)) {
            Some(lp) => lp_full(sh.params, lp),
            None => false,
        }
    }
}

impl Lp {
    /// Builds the LP for `index` with its per-site stream family.
    fn new(params: &SystemParams, policy: PolicyKind, root: &RngStream, index: SiteId) -> Self {
        let start = SimTime::ZERO;
        let n = params.num_sites;
        Lp {
            index,
            site: Site::new(params.num_disks, start),
            queries: QueryTable::new(),
            live: SiteLoad::default(),
            trust: vec![true; n],
            allocator: Allocator::from_stream(
                policy,
                substreams::per_site(root, substreams::POLICY_RANDOM, index),
            ),
            rng_think: substreams::per_site(root, substreams::THINK, index),
            rng_class: substreams::per_site(root, substreams::CLASS, index),
            rng_reads: substreams::per_site(root, substreams::READS, index),
            rng_cpu: substreams::per_site(root, substreams::CPU, index),
            rng_disk: substreams::per_site(root, substreams::DISK, index),
            rng_choice: substreams::per_site(root, substreams::CHOICE, index),
            rng_estimate: substreams::per_site(root, substreams::ESTIMATE, index),
            rng_relation: substreams::per_site(root, substreams::RELATION, index),
            rng_update: substreams::per_site(root, substreams::UPDATE, index),
            rng_fault_backoff: substreams::per_site(root, substreams::FAULT_BACKOFF, index),
            rng_status: substreams::per_site(root, substreams::FAULT_STATUS, index),
            rng_deadline: substreams::per_site(root, substreams::DEADLINE, index),
            rng_realloc_backoff: substreams::per_site(root, substreams::REALLOC_BACKOFF, index),
            rng_arrival: substreams::per_site(root, substreams::ARRIVAL, index),
            rng_burst: substreams::per_site(root, substreams::BURST, index),
            rng_user: substreams::per_site(root, substreams::USER, index),
            rng_session: substreams::per_site(root, substreams::SESSION, index),
            rng_redundancy: substreams::per_site(root, substreams::REDUNDANCY, index),
            // The chain "starts" ON with an already-expired dwell, so the
            // first advance toggles it OFF and draws the first OFF dwell —
            // i.e. every site begins in the quiet state.
            burst_on: true,
            burst_until: SimTime::ZERO,
            users: params.users.filter(|u| u.is_active()).map(|spec| LpUsers {
                spec,
                shard: spec.shard_size(index, n),
                arena: UserArena::new(),
            }),
            suspicion: params.suspicion.map(|spec| LpSuspicion {
                spec,
                last_heard: vec![SimTime::ZERO; n],
                streak: vec![0; n],
                suspected: vec![false; n],
            }),
            obs: Vec::new(),
            outbox: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// The in-flight record for `id` in this LP's table.
    fn query(&self, id: QueryId) -> &ActiveQuery {
        self.queries.get(id).expect("query in flight")
    }

    /// The in-flight record for `id` in this LP's table, mutably.
    fn query_mut(&mut self, id: QueryId) -> &mut ActiveQuery {
        self.queries.get_mut(id).expect("query in flight")
    }

    /// Removes and returns the in-flight record for `id`.
    fn take_query(&mut self, id: QueryId) -> ActiveQuery {
        self.queries.remove(id).expect("query in flight")
    }

    /// Routes an LP event to its handler.
    fn handle(&mut self, now: SimTime, event: Event, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        match event {
            Event::Submit { .. } => self.handle_submit(now, sh, sink),
            Event::DiskDone { disk, epoch, .. } => {
                self.handle_disk_done(now, disk, epoch, sh, sink)
            }
            Event::CpuDone { token, .. } => self.handle_cpu_done(now, token, sh, sink),
            Event::StatusSend { .. } => self.handle_status_send(now, sh, sink),
            Event::Resubmit { query, .. } => self.handle_resubmit(now, query, sh, sink),
            other => unreachable!("global event {other:?} routed to a logical process"),
        }
    }

    fn handle_submit(&mut self, now: SimTime, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        let home = self.index;
        // Under an open workload the source is self-perpetuating: the
        // next arrival at this site is independent of completions. An
        // active arrival spec replaces the constant-rate draw with the
        // thinned nonhomogeneous process (same one-pending-event shape).
        if let Workload::Open { arrival_rate } = sh.params.workload {
            let gap = match sh.params.arrivals.filter(ArrivalSpec::is_active) {
                Some(spec) => self.next_arrival_gap(now, arrival_rate, &spec),
                None => self.rng_think.exponential(1.0 / arrival_rate),
            };
            sink.schedule(now + gap, Event::Submit { site: home });
        }
        // A terminal at a crashed site cannot submit. Closed model: the
        // terminal waits out a backoff and tries again (the query is not
        // yet drawn, so no work is lost). Open model: the arrival bounces.
        if !self.site.is_up() {
            match sh.params.workload {
                Workload::Closed => {
                    let delay = self.backoff_delay(sh.params, 1);
                    sink.schedule(now + delay, Event::Submit { site: home });
                }
                Workload::Open { .. } => self.obs.push((now, Obs::Lost)),
            }
            return;
        }
        // Draw the query's class and size (through the user population's
        // affinity when one is configured).
        let class = self.draw_user_class(sh.params);
        let spec = &sh.params.classes[class];
        let reads_total = Dist::exponential(spec.num_reads).sample_count(&mut self.rng_reads);
        let est_reads = if sh.params.estimate_error > 0.0 {
            let e = sh.params.estimate_error;
            f64::from(reads_total) * self.rng_estimate.uniform(1.0 - e, 1.0 + e)
        } else {
            f64::from(reads_total)
        };

        let relation = self.rng_relation.below(sh.params.num_relations);
        let profile = QueryProfile {
            class,
            num_reads: est_reads,
            page_cpu_time: spec.page_cpu_time,
            home,
            io_bound: sh.params.is_io_bound(spec.page_cpu_time),
            relation,
        };

        // The allocation decision (Figure 3 with the policy's cost
        // function), based on the published load table — plus this site's
        // own live row and trust vector — and restricted to the sites
        // holding the query's relation.
        let exec = {
            let ctx = AllocationContext {
                params: sh.params,
                board: sh.board,
                own: self.live,
                trust: &self.trust,
                arrival_site: home,
            };
            self.allocator
                .select_site_among(&profile, &ctx, sh.catalog.candidates(relation))
        };
        let kind = if sh.params.update_fraction > 0.0
            && self.rng_update.bernoulli(sh.params.update_fraction)
        {
            QueryKind::Update
        } else {
            QueryKind::Read
        };
        // Hedge-eligibility coin (redundancy layer): drawn here — before
        // admission and the load-adaptive controller — for every read of
        // a multiply-held relation under an active spec, so the coin
        // sequence does not shift with load (CRN across redundancy
        // settings). An inert spec draws nothing.
        let hedge = match sh.params.redundancy {
            Some(spec) if spec.is_active() => {
                kind == QueryKind::Read
                    && sh.catalog.candidates(relation).len() >= 2
                    && self.rng_redundancy.bernoulli(spec.hedge_prob)
            }
            _ => false,
        };

        // Every holder of the relation is down (fault injection, partial
        // replication): the SelectSite fallback returned the arrival site,
        // which holds no copy. The query backs off at its home terminal —
        // unallocated — and retries when a holder may be back.
        if !sh.catalog.holds(exec, relation) {
            debug_assert!(sh.params.faults.is_some());
            self.obs.push((now, Obs::Submit { remote: false }));
            let id = self.insert_query(profile, home, reads_total, now, QueryPhase::Backoff, kind);
            self.schedule_retry(now, id, sh, sink);
            return;
        }

        // Admission control at the chosen site's door. The site checks
        // *live* occupancy (a site knows itself; the serial executor
        // exposes the others through the cross view), not the published
        // table.
        let exec = match self.admit_or_shed(now, sh, exec, relation) {
            Admission::Admit(site) => site,
            Admission::Drop => {
                self.obs.push((now, Obs::Submit { remote: false }));
                self.obs.push((now, Obs::AdmissionDropped));
                if matches!(sh.params.workload, Workload::Closed) {
                    self.think(now, sh.params, sink);
                }
                return;
            }
            Admission::Reject => {
                self.obs.push((now, Obs::Submit { remote: false }));
                let id =
                    self.insert_query(profile, home, reads_total, now, QueryPhase::Backoff, kind);
                let a = sh.params.admission.expect("admission layer active");
                if self.resilience_retry(
                    now,
                    id,
                    a.backoff_base,
                    a.max_retries,
                    RetryCounter::Admission,
                    sh,
                    sink,
                ) {
                    self.obs.push((now, Obs::AdmissionRejected));
                } else {
                    self.obs.push((now, Obs::AdmissionDropped));
                }
                return;
            }
        };

        let id = self.insert_query(profile, exec, reads_total, now, QueryPhase::Transfer, kind);
        self.place_query(now, id, sh, sink);
        self.obs.push((
            now,
            Obs::Submit {
                remote: exec != home,
            },
        ));
        if hedge {
            self.hedge_dispatch(now, id, &profile, relation, exec, sh);
        }
    }

    /// Evaluates the load-adaptive controller and ranks the redundant
    /// targets for a hedge-eligible query just dispatched to `exec`,
    /// recording the effective level and deferring the duplicate spawn
    /// to the executor (it crosses LP boundaries). Hedging happens only
    /// at initial submission — a resubmitted query races its own
    /// surviving duplicates already.
    fn hedge_dispatch(
        &mut self,
        now: SimTime,
        id: QueryId,
        profile: &QueryProfile,
        relation: usize,
        exec: SiteId,
        sh: &Shared<'_>,
    ) {
        let level = self.hedge_level(sh);
        let targets = if level >= 2 {
            let ctx = AllocationContext {
                params: sh.params,
                board: sh.board,
                own: self.live,
                trust: &self.trust,
                arrival_site: self.index,
            };
            self.allocator.hedge_targets(
                profile,
                &ctx,
                sh.catalog.candidates(relation),
                exec,
                (level - 1) as usize,
            )
        } else {
            Vec::new()
        };
        self.obs.push((
            now,
            Obs::HedgeDispatch {
                level: targets.len() as u32 + 1,
            },
        ));
        if !targets.is_empty() {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: hedge spawn crosses sites via the executor's deferred drain
            self.deferred.push(Deferred::Hedge { query: id, targets });
        }
    }

    /// The load-adaptive redundancy controller: how many sites an
    /// eligible query may be dispatched to *right now*, computed from
    /// the published board (no draws — the throttle is deterministic
    /// given the board, which keeps CRN intact). Redundancy sheds
    /// toward 1 as mean available-site load crosses multiples of
    /// `load_threshold`, and switches off entirely once more than
    /// `full_threshold` of the available sites advertise admission
    /// backpressure.
    fn hedge_level(&self, sh: &Shared<'_>) -> u32 {
        let spec = sh.params.redundancy.expect("redundancy layer active");
        let mut avail = 0u32;
        let mut full = 0u32;
        let mut load = 0u32;
        for s in 0..sh.params.num_sites {
            if !sh.board.is_available(s) {
                continue;
            }
            avail += 1;
            load += sh.board.view(s).total();
            if sh.board.is_full(s) {
                full += 1;
            }
        }
        if avail == 0 || f64::from(full) > spec.full_threshold * f64::from(avail) {
            return 1;
        }
        let throttle = if spec.load_threshold > 0.0 {
            (f64::from(load) / f64::from(avail) / spec.load_threshold) as u32
        } else {
            0
        };
        spec.max_level.saturating_sub(throttle).max(1)
    }

    /// Inserts a fresh query record into this LP's table.
    fn insert_query(
        &mut self,
        profile: QueryProfile,
        exec: SiteId,
        reads_total: u32,
        now: SimTime,
        phase: QueryPhase,
        kind: QueryKind,
    ) -> QueryId {
        self.queries.insert_with(|id| ActiveQuery {
            id,
            profile,
            exec,
            reads_total,
            reads_done: 0,
            submitted: now,
            service: 0.0,
            phase,
            kind,
            retries: 0,
            deadline_epoch: 0,
            res_retries: 0,
            adm_retries: 0,
            expired: false,
            deadline_at: SimTime::ZERO,
            hedge_group: None,
            hedge_dup: false,
            hedge_cancelled: false,
        })
    }

    /// Sends the query to a disk at this site for its next page read.
    fn start_read(&mut self, now: SimTime, id: QueryId, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        let service = sh.disk_dist.sample(&mut self.rng_disk);
        {
            let q = self.query_mut(id);
            q.phase = QueryPhase::Disk;
            q.service += service;
        }
        debug_assert!(self.site.is_up(), "read started at a down site");
        let epoch = self.site.epoch();
        let random_pick = self.rng_choice.below(self.site.disks.len());
        let disk = self.site.choose_disk(sh.params.disk_choice, random_pick);
        if let Some(done) = self.site.disks[disk].arrive(now, id, service) {
            sink.schedule(
                done,
                Event::DiskDone {
                    site: self.index,
                    disk,
                    epoch,
                },
            );
        }
    }

    fn handle_disk_done(
        &mut self,
        now: SimTime,
        disk: usize,
        epoch: u64,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        // A crash between schedule and delivery drained the disk queue;
        // the event refers to a job that no longer exists there.
        if epoch != self.site.epoch() {
            return;
        }
        let (id, next) = self.site.disks[disk].complete(now);
        if let Some(t) = next {
            sink.schedule(
                t,
                Event::DiskDone {
                    site: self.index,
                    disk,
                    epoch,
                },
            );
        }

        // The deadline expired while this page read was in service: FCFS
        // service is immutable once started, so the read finished, but
        // the query goes no further. Cancellation re-enters allocation —
        // a global transition, so it is deferred to the executor.
        let (expired, cancelled, class) = {
            let q = self.query(id);
            debug_assert_eq!(q.exec, self.index);
            (q.expired, q.hedge_cancelled, q.profile.class)
        };
        // First-win cancellation flagged this attempt while the page read
        // was in immutable FCFS service: reap it at the read's natural
        // completion. The reap outranks a concurrently expired deadline —
        // the logical query already finished elsewhere.
        if cancelled {
            self.cancel_attempt(now, id);
            return;
        }
        if expired {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Deadlines: expiry cancellation reallocates at the coordinator, drained by the executor
            self.deferred.push(Deferred::Cancel(id));
            return;
        }

        // The page is in memory; process it on the CPU. A faster CPU
        // finishes the same page in proportionally less time.
        let work = self
            .rng_cpu
            .exponential(sh.params.classes[class].page_cpu_time)
            / sh.params.cpu_speed(self.index);
        {
            let q = self.query_mut(id);
            q.phase = QueryPhase::Cpu;
            q.service += work;
        }
        if let Some((t, token)) = self.site.cpu.arrive(now, id, work) {
            sink.schedule(
                t,
                Event::CpuDone {
                    site: self.index,
                    token,
                },
            );
        }
    }

    fn handle_cpu_done(
        &mut self,
        now: SimTime,
        token: PsToken,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        // Processor sharing reshuffles completion times on every arrival;
        // stale announcements are ignored.
        let Some((id, next)) = self.site.cpu.complete(now, token) else {
            return;
        };
        if let Some((t, tok)) = next {
            sink.schedule(
                t,
                Event::CpuDone {
                    site: self.index,
                    token: tok,
                },
            );
        }

        let (reads_done, finished, kind) = {
            let q = self.query_mut(id);
            q.reads_done += 1;
            (q.reads_done, q.execution_finished(), q.kind)
        };
        if !finished {
            if let Some(spec) = sh.params.migration {
                // Apply jobs are pinned to their replica.
                if kind != QueryKind::Propagation
                    && reads_done.is_multiple_of(spec.check_every_reads)
                    && self.try_migrate(now, id, &spec, sh)
                {
                    return;
                }
            }
            self.start_read(now, id, sh, sink);
            return;
        }

        // Execution complete: the query leaves the site's load.
        let io_bound = self.query(id).profile.io_bound;
        self.release_load(now, io_bound);

        // A hedged attempt's completion is a *group* decision (first
        // win): defer it to the executor, which consults the global
        // registry. Hedged attempts are always reads, so no propagation
        // spawn is skipped here.
        if self.query(id).hedge_group.is_some() {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: first-win resolution consults the global hedge registry at the drain point
            self.deferred.push(Deferred::HedgeFinish(id));
            return;
        }

        match kind {
            QueryKind::Propagation => {
                // The replica is now up to date; nothing returns anywhere.
                self.queries.remove(id);
                self.obs.push((now, Obs::Propagation));
                return;
            }
            QueryKind::Update => self.spawn_propagations(now, id, sh),
            QueryKind::Read => {}
        }
        self.return_results(now, id, sh, sink);
    }

    /// Execution is over: a remote query's results travel home on the
    /// ring, while the record waits here in `Return`, logged for
    /// retransmission, until they arrive; a query executed at its home
    /// site completes on the spot. Also resends a logged result set.
    fn return_results(
        &mut self,
        now: SimTime,
        id: QueryId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        let q = self.query_mut(id);
        if !q.is_remote() {
            self.complete_query(now, id, sh, sink);
            return;
        }
        q.phase = QueryPhase::Return;
        let msg = RingMsg::Query {
            query: id,
            kind: MsgKind::Result,
            dest: q.profile.home,
        };
        let cost = sh
            .params
            .result_cost(q.profile.class, f64::from(q.reads_total));
        self.outbox.push((now, msg, cost));
    }

    /// Ships read-one-write-all apply jobs to every other holder of the
    /// finished update's relation. Each job travels the ring like a
    /// dispatch, then cycles the replica's disks and CPU for
    /// `propagation_factor × reads` page writes. The job's record stays in
    /// this LP's table until its frame is delivered (tables move at
    /// delivery), and the replica's load slot is taken at delivery too.
    fn spawn_propagations(&mut self, now: SimTime, update: QueryId, sh: &Shared<'_>) {
        if sh.params.propagation_factor <= 0.0 {
            return;
        }
        let (relation, class, reads_total, io_bound, page_cpu_time) = {
            let q = self.query(update);
            (
                q.profile.relation,
                q.profile.class,
                q.reads_total,
                q.profile.io_bound,
                q.profile.page_cpu_time,
            )
        };
        let apply_reads =
            ((f64::from(reads_total) * sh.params.propagation_factor).round() as u32).max(1);
        // Walk the copy set by index: collecting the holders first would
        // allocate a Vec on every completed update.
        for j in 0..sh.catalog.candidates(relation).len() {
            let holder = sh.catalog.candidates(relation)[j];
            if holder == self.index {
                continue;
            }
            let profile = QueryProfile {
                class,
                num_reads: f64::from(apply_reads),
                page_cpu_time,
                home: holder,
                io_bound,
                relation,
            };
            let id = self.insert_query(
                profile,
                holder,
                apply_reads,
                now,
                QueryPhase::Transfer,
                QueryKind::Propagation,
            );
            self.outbox.push((
                now,
                RingMsg::Query {
                    query: id,
                    kind: MsgKind::Dispatch,
                    dest: holder,
                },
                sh.params.msg_length,
            ));
        }
    }

    /// Re-evaluates a partially executed query's placement (§6.2
    /// extension). Returns `true` if the query was put on the wire toward
    /// a better site.
    fn try_migrate(
        &mut self,
        now: SimTime,
        id: QueryId,
        spec: &crate::params::MigrationSpec,
        sh: &Shared<'_>,
    ) -> bool {
        // Hedged attempts never migrate: a cancel frame chases a member
        // at its execution site, and a mid-race move would put the
        // attempt on the wire where neither flag nor frame can reach it.
        if self.query(id).hedge_group.is_some() {
            return false;
        }
        let (remaining, relation, io_bound, reads_done) = {
            let q = self.query(id);
            let remaining_reads = (q.profile.num_reads - f64::from(q.reads_done)).max(1.0);
            let mut remaining = q.profile;
            remaining.num_reads = remaining_reads;
            (
                remaining,
                q.profile.relation,
                q.profile.io_bound,
                q.reads_done,
            )
        };
        let state_penalty = sh.params.msg_length * spec.state_growth * f64::from(reads_done);
        // The Figure-6 cost functions are self-exclusive (an arriving
        // query is not yet in any count); a re-evaluated query must
        // likewise not see itself as a competitor at its current site —
        // subtract it from the *copy* of the own row the context carries.
        let mut own = self.live;
        if io_bound {
            own.io -= 1;
        } else {
            own.cpu -= 1;
        }
        let target = {
            let ctx = AllocationContext {
                params: sh.params,
                board: sh.board,
                own,
                trust: &self.trust,
                arrival_site: self.index,
            };
            self.allocator.migration_target(
                &remaining,
                self.index,
                &ctx,
                sh.catalog.candidates(relation),
                spec.min_gain,
                state_penalty,
            )
        };
        let Some(target) = target else {
            return false;
        };

        // The query leaves its current site and travels — with its
        // accumulated partial results — to the new one, which takes the
        // load slot over at frame delivery.
        self.release_load(now, io_bound);
        self.obs.push((now, Obs::Migration));
        {
            let q = self.query_mut(id);
            q.exec = target;
            q.phase = QueryPhase::Transfer;
        }
        let len = sh.params.msg_length * (1.0 + spec.state_growth * f64::from(reads_done));
        self.outbox.push((
            now,
            RingMsg::Query {
                query: id,
                kind: MsgKind::Dispatch,
                dest: target,
            },
            len,
        ));
        true
    }

    /// This site's periodic costed status broadcast.
    fn handle_status_send(&mut self, now: SimTime, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        // The dropout coin is drawn unconditionally (when the loss rate is
        // positive) so a site's outage does not shift its own coin
        // sequence — the CRN discipline for fault comparisons.
        let dropped = match sh.params.faults {
            Some(spec) if spec.status_loss > 0.0 => self.rng_status.bernoulli(spec.status_loss),
            _ => false,
        };
        // A down site broadcasts nothing, but its schedule survives the
        // outage.
        if self.site.is_up() && !dropped {
            // The broadcaster also audits its peers: anyone whose
            // broadcast it has missed too long becomes suspected.
            self.sweep_suspicion(now, sh.params);
            let full = lp_full(sh.params, self);
            self.outbox.push((
                now,
                RingMsg::Status {
                    site: self.index,
                    load: self.live,
                    full,
                },
                sh.params.status_msg_length,
            ));
        }
        sink.schedule(
            now + sh.params.status_period,
            Event::StatusSend { site: self.index },
        );
    }

    /// A backed-off query's retry delay expired: re-allocate
    /// failure-aware from this (home) site. Lost-result retransmissions
    /// are *not* routed here — they are [`Event::Retransmit`], a global
    /// event, because exhausting the retry budget there frees a terminal
    /// at a different site.
    fn handle_resubmit(
        &mut self,
        now: SimTime,
        id: QueryId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        // A reaped hedge loser leaves its pending `Resubmit` dangling; the
        // stale id no longer resolves and the event is simply dropped.
        let Some(q) = self.queries.get(id) else {
            return;
        };
        debug_assert_eq!(q.profile.home, self.index);
        debug_assert!(matches!(q.phase, QueryPhase::Backoff));
        let (kind, home) = (q.kind, q.profile.home);
        if !self.site.is_up() {
            // The query's own site is (still) down; keep waiting.
            self.schedule_retry(now, id, sh, sink);
            return;
        }
        let (profile, relation) = {
            let q = self.query(id);
            (q.profile, q.profile.relation)
        };
        // Apply jobs are pinned to their replica; everything else re-runs
        // the failure-aware allocation from home.
        let exec = if kind == QueryKind::Propagation {
            home
        } else {
            let ctx = AllocationContext {
                params: sh.params,
                board: sh.board,
                own: self.live,
                trust: &self.trust,
                arrival_site: home,
            };
            self.allocator
                .select_site_among(&profile, &ctx, sh.catalog.candidates(relation))
        };
        if !sh.catalog.holds(exec, relation) {
            // Still no holder reachable: keep backing off.
            self.schedule_retry(now, id, sh, sink);
            return;
        }
        // Admission applies to re-allocations too; apply jobs are pinned
        // to their replica and exempt.
        let exec = if kind == QueryKind::Propagation {
            exec
        } else {
            match self.admit_or_shed(now, sh, exec, relation) {
                Admission::Admit(site) => site,
                Admission::Drop => {
                    self.obs.push((now, Obs::AdmissionDropped));
                    self.shed_query(now, id, sh, sink);
                    return;
                }
                Admission::Reject => {
                    let a = sh.params.admission.expect("admission layer active");
                    if self.resilience_retry(
                        now,
                        id,
                        a.backoff_base,
                        a.max_retries,
                        RetryCounter::Admission,
                        sh,
                        sink,
                    ) {
                        self.obs.push((now, Obs::AdmissionRejected));
                    } else {
                        self.obs.push((now, Obs::AdmissionDropped));
                    }
                    return;
                }
            }
        };
        self.query_mut(id).exec = exec;
        self.place_query(now, id, sh, sink);
    }

    /// Places an allocated query at its execution site and arms a fresh
    /// deadline. A local execution takes its load slot and starts its
    /// first read here; a remote one goes on the ring as a dispatch frame
    /// and takes its slot at frame *delivery* (the execution site is the
    /// one whose row grows, and only its own LP may grow it).
    fn place_query(
        &mut self,
        now: SimTime,
        id: QueryId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        let (exec, profile) = {
            let q = self.query(id);
            (q.exec, q.profile)
        };
        let remote = exec != self.index;
        if !remote {
            self.alloc_load(now, profile.io_bound);
        }
        self.query_mut(id).phase = if remote {
            QueryPhase::Transfer
        } else {
            QueryPhase::Disk
        };
        self.arm_deadline(now, id, sh.params);
        if remote {
            let msg = RingMsg::Query {
                query: id,
                kind: MsgKind::Dispatch,
                dest: exec,
            };
            self.outbox
                .push((now, msg, sh.params.dispatch_cost(profile.class)));
        } else {
            self.start_read(now, id, sh, sink);
        }
    }

    /// Jittered exponential backoff for retry `attempt` (1-based):
    /// `backoff_base · 2^(attempt−1) · U(0.5, 1.5)`, from this site's own
    /// jitter stream.
    fn backoff_delay(&mut self, params: &SystemParams, attempt: u32) -> f64 {
        // Retries exist only under an active fault process or a fault
        // script (which validation ties to a present fault layer), so
        // the filter can never drop a legitimately-reached draw.
        let spec = params
            .faults
            .filter(|f| f.is_active() || !params.script.is_empty())
            .expect("fault layer active");
        let exp = attempt.saturating_sub(1).min(16);
        spec.backoff_base * f64::from(1u32 << exp) * self.rng_fault_backoff.uniform(0.5, 1.5)
    }

    /// Consumes one fault-retry attempt for a query held at this site:
    /// schedules the retry after a jittered backoff — a `Resubmit` for a
    /// backed-off query (parked at its home site), a `Retransmit` for a
    /// logged result set (held at its execution site) — or, once the
    /// budget is spent, loses the query. The query holds no load slot.
    fn schedule_retry(
        &mut self,
        now: SimTime,
        id: QueryId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        let max_retries = sh.params.faults.expect("fault layer active").max_retries;
        let (attempts, phase) = {
            let q = self.query_mut(id);
            q.retries += 1;
            (q.retries, q.phase)
        };
        if attempts > max_retries {
            self.lose_query(now, id, sh, sink);
            return;
        }
        self.obs.push((now, Obs::Retry));
        let delay = self.backoff_delay(sh.params, attempts);
        let (query, site) = (id, self.index);
        let event = if matches!(phase, QueryPhase::Return) {
            Event::Retransmit { query, site }
        } else {
            Event::Resubmit { query, site }
        };
        sink.schedule(now + delay, event);
    }

    /// A logged result set's retransmit timer fired at this (execution)
    /// site: resend the results, or — the site still down, its log out of
    /// reach — spend another retry.
    fn retransmit(&mut self, now: SimTime, id: QueryId, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        // Tolerate a stale id (defensive: retransmit logs belong to
        // winners, which only first-win completion or retry exhaustion
        // remove — both of which also bury the pending event).
        let Some(q) = self.queries.get(id) else {
            return;
        };
        debug_assert!(matches!(q.phase, QueryPhase::Return));
        if self.site.is_up() {
            self.return_results(now, id, sh, sink);
        } else {
            self.schedule_retry(now, id, sh, sink);
        }
    }

    /// `Completed`: the query's results reached its terminal. Records the
    /// response time (and a recovery, if the query survived a retry),
    /// retires a hedged winner's registry entry, and returns the terminal
    /// to thinking; an open-model departure just leaves.
    fn complete_query(
        &mut self,
        now: SimTime,
        id: QueryId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) {
        let q = self.take_query(id);
        if let Some(group) = q.hedge_group {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: a hedged winner's entry in the global hedge registry retires at the drain point
            self.deferred.push(Deferred::HedgeRetire { group, id });
        }
        if q.retries > 0 {
            self.obs.push((now, Obs::Recovered));
        }
        self.obs.push((
            now,
            Obs::Completion {
                class: q.profile.class,
                response: now - q.submitted,
                service: q.service,
            },
        ));
        self.release_terminal(now, &q, sh.params, sink);
    }

    /// `Lost`: the fault retry budget ran out. The loss is counted and the
    /// terminal returns to thinking anyway, preserving the closed
    /// population. A lost hedged attempt dissolves its group: an abandoned
    /// primary takes its still-racing duplicates with it, and a lost
    /// winner (its result retransmits exhausted) only retires its own
    /// entry.
    fn lose_query(&mut self, now: SimTime, id: QueryId, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        let q = self.take_query(id);
        if let Some(group) = q.hedge_group {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: abandoning a hedged primary dissolves its cross-site group
            self.deferred.push(Deferred::HedgeAbandon { group });
        }
        self.obs.push((now, Obs::Lost));
        self.release_terminal(now, &q, sh.params, sink);
    }

    /// `Abandoned`: the query is shed (admission drop, or a spent
    /// admission or deadline budget). The caller records the per-cause
    /// observation. The terminal returns to thinking, and a shed hedged
    /// primary dissolves its group, as in [`Lp::lose_query`].
    fn shed_query(&mut self, now: SimTime, id: QueryId, sh: &Shared<'_>, sink: &mut dyn EventSink) {
        let q = self.take_query(id);
        if let Some(group) = q.hedge_group {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: abandoning a hedged primary dissolves its cross-site group
            self.deferred.push(Deferred::HedgeAbandon { group });
        }
        self.release_terminal(now, &q, sh.params, sink);
    }

    /// `Cancelled`: reaps a losing hedge attempt held at this site. Frees
    /// the load slot of an attempt cut short at this site's stations (a
    /// finished one, discarded by the winner guard, gave its slot back
    /// already), charges its partial work to the wasted-service counter,
    /// and defers its registry retirement. The caller has already pulled
    /// it off the stations.
    fn cancel_attempt(&mut self, now: SimTime, id: QueryId) {
        let q = self.take_query(id);
        if matches!(q.phase, QueryPhase::Disk | QueryPhase::Cpu) && !q.execution_finished() {
            self.release_load(now, q.profile.io_bound);
        }
        self.obs
            .push((now, Obs::HedgeCancelled { wasted: q.service }));
        if let Some(group) = q.hedge_group {
            // dqa-lint: allow(shard-isolation) -- ShardGate::Redundancy: retiring a cancelled attempt updates the global hedge registry
            self.deferred.push(Deferred::HedgeRetire { group, id });
        }
    }

    /// The terminal step every closed-model exit shares: the retired
    /// query's terminal returns to thinking (an apply job has none). The
    /// think time always comes from the home site's stream, so a record
    /// retired at its execution site hands the step to the home LP.
    fn release_terminal(
        &mut self,
        now: SimTime,
        q: &ActiveQuery,
        params: &SystemParams,
        sink: &mut dyn EventSink,
    ) {
        if !matches!(params.workload, Workload::Closed) || q.kind == QueryKind::Propagation {
            return;
        }
        let home = q.profile.home;
        if home == self.index {
            self.think(now, params, sink);
        } else {
            // dqa-lint: allow(shard-isolation) -- no ShardGate: LP events retire records only at their home site; a result set is retired away from home only by global handlers, which drain at once in both executors
            self.deferred.push(Deferred::Think(home));
        }
    }

    /// One of this site's terminals goes back to thinking: a think time
    /// from the site's own stream, then its next `Submit`.
    fn think(&mut self, now: SimTime, params: &SystemParams, sink: &mut dyn EventSink) {
        let think = self.rng_think.exponential(params.think_time);
        sink.schedule(now + think, Event::Submit { site: self.index });
    }

    /// Pulls a resident query (phase Disk or Cpu) off this site's stations
    /// phase-exactly: a CPU job leaves the PS server (the next completion
    /// reshuffles), a waiting disk job leaves its queue. A page read in
    /// immutable FCFS service cannot be recalled: returns `false` and
    /// leaves it, for the caller to flag and unwind at its `DiskDone`.
    fn leave_stations(&mut self, now: SimTime, id: QueryId, sink: &mut dyn EventSink) -> bool {
        match self.query(id).phase {
            QueryPhase::Cpu => {
                let (_unserved, next) = self
                    .site
                    .cpu
                    .remove(now, &id)
                    .expect("Cpu-phase query resident in its PS server");
                if let Some((t, token)) = next {
                    sink.schedule(
                        t,
                        Event::CpuDone {
                            site: self.index,
                            token,
                        },
                    );
                }
                true
            }
            QueryPhase::Disk => {
                if self.site.disks.iter().any(|d| d.is_in_service(&id)) {
                    return false;
                }
                let removed = self
                    .site
                    .disks
                    .iter_mut()
                    .find_map(|d| d.remove_waiting(now, &id));
                debug_assert!(
                    removed.is_some(),
                    "Disk-phase query neither in service nor waiting"
                );
                true
            }
            phase => unreachable!("{phase:?} query is not resident"),
        }
    }

    /// Reaps a losing attempt resident at this site's stations: off the
    /// stations and cancelled at once, or — a page read in FCFS service —
    /// flagged and reaped at its own `DiskDone`.
    fn reap_resident(&mut self, now: SimTime, id: QueryId, sink: &mut dyn EventSink) {
        if self.leave_stations(now, id, sink) {
            self.cancel_attempt(now, id);
        } else {
            self.query_mut(id).hedge_cancelled = true;
        }
    }

    /// A first-win cancel frame reached this (execution) site. A stale id
    /// — the loser already finished (and was discarded by the winner
    /// guard) or crashed away — makes the cancel a no-op, and so does any
    /// phase but a resident one: the attempt's fate is owned elsewhere.
    fn deliver_cancel(&mut self, now: SimTime, id: QueryId, sink: &mut dyn EventSink) {
        let Some(q) = self.queries.get(id) else {
            return;
        };
        debug_assert!(
            q.hedge_group.is_some(),
            "cancel frame for an unhedged query"
        );
        if matches!(q.phase, QueryPhase::Disk | QueryPhase::Cpu) {
            self.reap_resident(now, id, sink);
        }
    }

    /// Spawns one duplicate attempt of the hedged `primary` toward
    /// `target`: a record sharing the primary's profile, size, and submit
    /// instant that travels the ring like a dispatch, or starts at once
    /// when the target is this site. Returns the duplicate's id.
    #[allow(clippy::too_many_arguments)]
    fn spawn_duplicate(
        &mut self,
        now: SimTime,
        primary: QueryId,
        group: u32,
        target: SiteId,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) -> QueryId {
        let (profile, reads_total, submitted) = {
            let q = self.query(primary);
            (q.profile, q.reads_total, q.submitted)
        };
        let local = target == self.index;
        let phase = if local {
            QueryPhase::Disk
        } else {
            QueryPhase::Transfer
        };
        let id = self.insert_query(
            profile,
            target,
            reads_total,
            submitted,
            phase,
            QueryKind::Read,
        );
        {
            let q = self.query_mut(id);
            q.hedge_group = Some(group);
            q.hedge_dup = true;
        }
        if local {
            self.alloc_load(now, profile.io_bound);
            self.start_read(now, id, sh, sink);
        } else {
            let msg = RingMsg::Query {
                query: id,
                kind: MsgKind::Dispatch,
                dest: target,
            };
            self.outbox
                .push((now, msg, sh.params.dispatch_cost(profile.class)));
        }
        id
    }

    /// Consumes one resilience retry for a query parked at this site
    /// against the given budget: schedules a jittered-backoff `Resubmit`
    /// and returns `true`, or sheds the query and returns `false` once
    /// the budget is exhausted. Deadline reallocations and admission
    /// rejects count against *separate* per-query counters — a query
    /// turned away repeatedly at admission has done no work yet, so it
    /// must not arrive with its deadline reallocation budget already
    /// spent.
    #[allow(clippy::too_many_arguments)]
    fn resilience_retry(
        &mut self,
        now: SimTime,
        id: QueryId,
        base: f64,
        budget: u32,
        counter: RetryCounter,
        sh: &Shared<'_>,
        sink: &mut dyn EventSink,
    ) -> bool {
        // A resilience retry is reached only downstream of an active
        // deadline or admission layer; asserting that here keeps the
        // jitter draw below provably inert in baseline configurations.
        assert!(
            sh.params.deadlines.is_some_and(|d| d.is_active())
                || sh.params.admission.is_some_and(|a| a.is_active()),
            "resilience retry without an active deadline/admission layer"
        );
        let attempts = {
            let q = self.query_mut(id);
            match counter {
                RetryCounter::Deadline => {
                    q.res_retries += 1;
                    q.res_retries
                }
                RetryCounter::Admission => {
                    q.adm_retries += 1;
                    q.adm_retries
                }
            }
        };
        if attempts > budget {
            self.shed_query(now, id, sh, sink);
            false
        } else {
            let exp = attempts.saturating_sub(1).min(16);
            let delay = base * f64::from(1u32 << exp) * self.rng_realloc_backoff.uniform(0.5, 1.5);
            sink.schedule(
                now + delay,
                Event::Resubmit {
                    query: id,
                    site: self.index,
                },
            );
            true
        }
    }

    /// Arms a fresh deadline for `id`'s current execution attempt: a slack
    /// of `floor + Exp(mean)` from now. Re-armed on every (re)allocation,
    /// so the budgeted retries each get a full window. Apply jobs carry no
    /// deadline — they are background system work. The expiry itself is a
    /// global event (its unwind may cross LPs), so it goes through the
    /// deferred queue.
    fn arm_deadline(&mut self, now: SimTime, id: QueryId, params: &SystemParams) {
        let Some(spec) = params.deadlines else {
            return;
        };
        if !spec.is_active() {
            return;
        }
        let (epoch, kind) = {
            let q = self.query(id);
            (q.deadline_epoch, q.kind)
        };
        if kind == QueryKind::Propagation {
            return;
        }
        let slack = spec.floor + self.rng_deadline.exponential(spec.mean);
        let at = now + slack;
        self.query_mut(id).deadline_at = at;
        // dqa-lint: allow(shard-isolation) -- ShardGate::Deadlines: the expiry timer is scheduled through the executor's deferred drain
        self.deferred.push(Deferred::Schedule(
            at,
            Event::DeadlineExpire {
                query: id,
                epoch,
                site: self.index,
            },
        ));
    }

    /// Re-schedules a moved query's armed deadline against its fresh id
    /// here: the *absolute* expiry instant travels with the query
    /// (`ActiveQuery::deadline_at`); only the event's id and table site
    /// change. An expiry instant already in the past fires immediately.
    fn rearm_deadline(
        &mut self,
        now: SimTime,
        id: QueryId,
        params: &SystemParams,
        sink: &mut dyn EventSink,
    ) {
        let Some(spec) = params.deadlines else {
            return;
        };
        if !spec.is_active() {
            return;
        }
        let q = self.query(id);
        if q.kind == QueryKind::Propagation || q.deadline_at <= SimTime::ZERO {
            return;
        }
        let t = if q.deadline_at > now {
            q.deadline_at
        } else {
            now
        };
        let event = Event::DeadlineExpire {
            query: id,
            epoch: q.deadline_epoch,
            site: self.index,
        };
        sink.schedule(t, event);
    }

    /// The admission verdict for a query headed to `exec`. A full site
    /// sheds by its configured mode; `Redirect` re-routes to the
    /// least-loaded usable holder of `relation` (falling back to a reject
    /// when every alternative is also full, down, or quarantined).
    fn admit_or_shed(
        &mut self,
        now: SimTime,
        sh: &Shared<'_>,
        exec: SiteId,
        relation: usize,
    ) -> Admission {
        let Some(a) = sh.params.admission else {
            return Admission::Admit(exec);
        };
        if !a.is_active() || !site_full(sh, self, exec) {
            return Admission::Admit(exec);
        }
        match a.mode {
            SheddingMode::Drop => Admission::Drop,
            SheddingMode::RejectRetry => Admission::Reject,
            SheddingMode::Redirect => {
                let target = sh
                    .catalog
                    .candidates(relation)
                    .iter()
                    .copied()
                    .filter(|&s| {
                        s != exec
                            && sh.board.is_available(s)
                            && self.trust[s]
                            && !site_full(sh, self, s)
                    })
                    .min_by_key(|&s| (sh.board.view(s).total(), s));
                match target {
                    Some(t) => {
                        self.obs.push((now, Obs::AdmissionRedirected));
                        Admission::Admit(t)
                    }
                    None => Admission::Reject,
                }
            }
        }
    }

    /// The suspicion sweep this site runs when its own broadcast timer
    /// fires: any peer not heard for `threshold` status periods becomes
    /// suspected and loses this site's trust.
    fn sweep_suspicion(&mut self, now: SimTime, params: &SystemParams) {
        let Some(s) = self.suspicion.as_mut() else {
            return;
        };
        let horizon = f64::from(s.spec.threshold) * params.status_period;
        for target in 0..self.trust.len() {
            if target == self.index {
                continue;
            }
            if !s.suspected[target] && now - s.last_heard[target] > horizon {
                s.suspected[target] = true;
                s.streak[target] = 0;
                self.trust[target] = false;
            }
        }
    }

    fn draw_class(&mut self, params: &SystemParams) -> usize {
        let u = self.rng_class.next_f64();
        let mut acc = 0.0;
        for (c, spec) in params.classes.iter().enumerate() {
            acc += spec.probability;
            if u < acc {
                return c;
            }
        }
        params.classes.len() - 1
    }

    /// Draws the arriving query's class through the user population: a
    /// Zipf-selected user from this site's shard supplies its preferred
    /// class with probability `class_affinity`, falling back to the
    /// global class mix otherwise (and entirely, when no population is
    /// configured — in which case no population stream is ever drawn).
    ///
    /// The user's session state (preferred class, session length)
    /// materializes in the arena on first touch and is evicted when its
    /// queries are spent, so arena memory tracks *active* users only.
    fn draw_user_class(&mut self, params: &SystemParams) -> usize {
        let Some(spec) = self.users.as_ref().map(|u| u.spec) else {
            return self.draw_class(params);
        };
        let shard = self.users.as_ref().map_or(0, |u| u.shard);
        if shard == 0 {
            // Fewer users than sites: this site owns none of them.
            return self.draw_class(params);
        }
        let pick = users::zipf_pick(self.rng_user.next_f64(), shard, spec.zipf_exponent);
        let preferred = {
            let u = self.users.as_mut().expect("user layer active");
            let rng_session = &mut self.rng_session;
            let classes = &params.classes;
            u.arena.begin_query(pick, || {
                let coin = rng_session.next_f64();
                let mut acc = 0.0;
                let mut class = classes.len() - 1;
                for (c, cs) in classes.iter().enumerate() {
                    acc += cs.probability;
                    if coin < acc {
                        class = c;
                        break;
                    }
                }
                let session = Dist::exponential(spec.session_mean).sample_count(rng_session);
                (class as u8, session)
            })
        };
        if self.rng_user.bernoulli(spec.class_affinity) {
            usize::from(preferred)
        } else {
            self.draw_class(params)
        }
    }

    /// Advances this site's MMPP burst chain up to `t` (drawing any dwell
    /// times it slept through) and returns the chain's rate factor at `t`.
    fn burst_factor_at(&mut self, t: SimTime, spec: &ArrivalSpec) -> f64 {
        if !spec.has_burst() {
            return 1.0;
        }
        while self.burst_until <= t {
            self.burst_on = !self.burst_on;
            let mean = if self.burst_on {
                spec.burst_on_mean
            } else {
                spec.burst_off_mean
            };
            self.burst_until += self.rng_burst.exponential(mean);
        }
        if self.burst_on {
            spec.burst_multiplier
        } else {
            1.0
        }
    }

    /// Draws the gap to this site's next open arrival from the
    /// nonhomogeneous process by thinning: candidate gaps at the envelope
    /// rate [`ArrivalSpec::lambda_max`], each accepted with probability
    /// `λ(candidate)/λ_max`. One pending arrival exists per site at any
    /// time — the schedule is never materialized — and every draw comes
    /// from this site's own `ARRIVAL`/`BURST` streams, so the sharded
    /// executor replays it bit for bit.
    fn next_arrival_gap(&mut self, now: SimTime, base_rate: f64, spec: &ArrivalSpec) -> f64 {
        let lambda_max = spec.lambda_max(base_rate);
        let mut t = now;
        loop {
            t += self.rng_arrival.exponential(1.0 / lambda_max);
            let burst = self.burst_factor_at(t, spec);
            let lambda = base_rate * spec.modulation_at(t - SimTime::ZERO) * burst;
            if self.rng_arrival.next_f64() * lambda_max < lambda {
                return t - now;
            }
        }
    }

    /// Grows this site's live row and mirrors the change to the board via
    /// the observation log.
    fn alloc_load(&mut self, now: SimTime, io_bound: bool) {
        if io_bound {
            self.live.io += 1;
        } else {
            self.live.cpu += 1;
        }
        self.obs.push((
            now,
            Obs::Load {
                site: self.index,
                io_bound,
                up: true,
            },
        ));
    }

    /// Shrinks this site's live row and mirrors the change to the board
    /// via the observation log.
    fn release_load(&mut self, now: SimTime, io_bound: bool) {
        if io_bound {
            self.live.io -= 1;
        } else {
            self.live.cpu -= 1;
        }
        self.obs.push((
            now,
            Obs::Load {
                site: self.index,
                io_bound,
                up: false,
            },
        ));
    }
}

/// The complete simulated system.
///
/// Build with [`DbSystem::new`], then either drive it manually through an
/// [`Engine`] (see [`DbSystem::prime`]) or — almost always — use
/// [`crate::experiment::run`], which adds warmup handling and report
/// extraction. [`crate::experiment::run_sharded`] drives the same model
/// through the windowed parallel executor instead.
///
/// # Example
///
/// ```
/// use dqa_core::model::DbSystem;
/// use dqa_core::params::SystemParams;
/// use dqa_core::policy::PolicyKind;
/// use dqa_sim::{Engine, SimTime};
///
/// let params = SystemParams::builder().num_sites(2).mpl(5).build()?;
/// let system = DbSystem::new(params, PolicyKind::Lert, 42)?;
/// let mut engine = Engine::new(system);
/// DbSystem::prime(&mut engine);
/// engine.run_until(SimTime::new(5_000.0));
/// assert!(engine.model().metrics().completed() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DbSystem {
    params: SystemParams,
    lps: Vec<Lp>,
    ring: TokenRing<RingMsg>,
    board: LoadTable,
    catalog: Catalog,
    metrics: Metrics,
    disk_dist: Dist,
    fault: Option<FaultState>,
    /// The hedge-group registry (redundancy layer; empty when inert).
    hedges: HedgeTable,
}

impl DbSystem {
    /// Creates the system in its empty initial state (every terminal about
    /// to start thinking).
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fails validation.
    pub fn new(params: SystemParams, policy: PolicyKind, seed: u64) -> Result<Self, ParamsError> {
        params.validate()?;
        let root = RngStream::new(seed);
        let start = SimTime::ZERO;
        Ok(DbSystem {
            lps: (0..params.num_sites)
                .map(|site| Lp::new(&params, policy, &root, site))
                .collect(),
            ring: TokenRing::new(params.num_sites, start),
            // dqa-lint: allow(no-float-eq) -- 0.0 is the exact config sentinel for "perfect information"
            board: LoadTable::new(params.num_sites, params.status_period == 0.0),
            catalog: match params.copies {
                None => Catalog::fully_replicated(params.num_sites, params.num_relations),
                Some(k) => Catalog::new(params.num_sites, params.num_relations, k),
            },
            metrics: Metrics::new(params.classes.len(), start),
            disk_dist: Dist::uniform_deviation(params.disk_time, params.disk_time_dev),
            fault: params.faults.map(|spec| FaultState {
                spec,
                rng_crash: root.substream(substreams::FAULT_CRASH),
                rng_msg: root.substream(substreams::FAULT_MSG),
                rng_status: root.substream(substreams::FAULT_STATUS),
                partition_active: false,
            }),
            hedges: HedgeTable::default(),
            params,
        })
    }

    /// The initial event set: one first `Submit` per terminal (after an
    /// initial think time), the crash/partition/script processes, and the
    /// periodic status exchange. Initial think times are drawn from each
    /// site's own stream, in site order.
    fn initial_events(&mut self) -> Vec<(SimTime, Event)> {
        let mut initial = Vec::new();
        match self.params.workload {
            Workload::Closed => {
                for site in 0..self.params.num_sites {
                    for _ in 0..self.params.mpl {
                        let think = self.lps[site].rng_think.exponential(self.params.think_time);
                        initial.push((SimTime::ZERO + think, Event::Submit { site }));
                    }
                }
            }
            Workload::Open { arrival_rate } => {
                let arrivals = self.params.arrivals.filter(ArrivalSpec::is_active);
                for site in 0..self.params.num_sites {
                    let gap = match &arrivals {
                        Some(spec) => {
                            self.lps[site].next_arrival_gap(SimTime::ZERO, arrival_rate, spec)
                        }
                        None => self.lps[site].rng_think.exponential(1.0 / arrival_rate),
                    };
                    initial.push((SimTime::ZERO + gap, Event::Submit { site }));
                }
            }
        }
        let n_sites = self.params.num_sites;
        if let Some(f) = &mut self.fault {
            if f.spec.mtbf > 0.0 {
                for site in 0..n_sites {
                    let ttf = f.rng_crash.exponential(f.spec.mtbf);
                    initial.push((SimTime::ZERO + ttf, Event::SiteDown { site }));
                }
            }
            if f.spec.has_partition() {
                initial.push((SimTime::ZERO + f.spec.partition_at, Event::PartitionStart));
                initial.push((
                    SimTime::ZERO + f.spec.partition_at + f.spec.partition_for,
                    Event::PartitionHeal,
                ));
            }
        }
        // Scripted fault-environment actions fire exactly as written
        // (validate guarantees a fault spec exists for them).
        for (index, entry) in self.params.script.iter().enumerate() {
            initial.push((SimTime::ZERO + entry.at, Event::Script { index }));
        }
        if self.params.status_period > 0.0 {
            if self.params.status_msg_length > 0.0 {
                // Costed broadcasts: stagger the sites across the
                // period so status frames do not collide in bursts.
                let n = self.params.num_sites as f64;
                for site in 0..self.params.num_sites {
                    let offset = self.params.status_period * (site as f64 + 1.0) / n;
                    initial.push((SimTime::ZERO + offset, Event::StatusSend { site }));
                }
            } else {
                initial.push((
                    SimTime::ZERO + self.params.status_period,
                    Event::StatusExchange,
                ));
            }
        }
        initial
    }

    /// Schedules the initial events into a serial engine.
    pub fn prime(engine: &mut Engine<DbSystem>) {
        for (t, e) in engine.model_mut().initial_events() {
            engine.schedule(t, e);
        }
    }

    // ------------------------------------------------------------------
    // Executor plumbing: the LP entry point and flush
    // ------------------------------------------------------------------

    /// Runs one LP-owned step on `site`'s logical process — an LP event,
    /// or a step a global handler drives — then flushes the LP's side
    /// effects (at once, so the board and metrics are always current
    /// between steps). The one way into an LP from outside it.
    fn on_lp<R>(
        &mut self,
        now: SimTime,
        site: SiteId,
        sink: &mut dyn EventSink,
        step: impl FnOnce(&mut Lp, &Shared<'_>, &mut dyn EventSink) -> R,
    ) -> R {
        let out = {
            let (left, rest) = self.lps.split_at_mut(site);
            let (lp, right) = rest.split_first_mut().expect("LP site in range");
            let sh = Shared {
                params: &self.params,
                catalog: &self.catalog,
                board: &self.board,
                disk_dist: self.disk_dist,
                cross: Some(Cross {
                    left,
                    right,
                    idx: site,
                }),
            };
            step(lp, &sh, &mut *sink)
        };
        self.flush_lp(now, site, sink);
        out
    }

    /// Applies one LP's pending side effects: observations onto the
    /// board/metrics, outbox frames onto the ring, deferred global
    /// actions. Runs after every step taken through [`DbSystem::on_lp`],
    /// in both executors; the parallel executor's window barrier merges
    /// the logs its windows leave across LPs itself.
    // Inlined into each `on_lp` caller, the per-event LP dispatch above
    // all: called out of line it cost `paper_grid` about a tenth of its
    // `queries_per_s` (EXPERIMENTS.md). The rare deferred drain stays out
    // of line, which also keeps this function free of recursion.
    #[inline(always)]
    pub(crate) fn flush_lp(&mut self, now: SimTime, site: SiteId, sink: &mut dyn EventSink) {
        let mut log = std::mem::take(&mut self.lps[site].obs);
        for &(t, o) in &log {
            obs::apply(t, o, &mut self.board, &mut self.metrics);
        }
        log.clear();
        self.lps[site].obs = log;

        let mut out = std::mem::take(&mut self.lps[site].outbox);
        for &(t, msg, cost) in &out {
            if let Some(done) = self.ring.send(t, site, msg, cost) {
                sink.schedule(done, Event::NetDone);
            }
        }
        out.clear();
        self.lps[site].outbox = out;

        if !self.lps[site].deferred.is_empty() {
            self.drain_deferred(now, site, sink);
        }
    }

    /// Runs one LP's deferred global actions (the rare part of
    /// [`DbSystem::flush_lp`]; it re-enters LP steps through `on_lp`).
    fn drain_deferred(&mut self, now: SimTime, site: SiteId, sink: &mut dyn EventSink) {
        let mut deferred = std::mem::take(&mut self.lps[site].deferred);
        for d in deferred.drain(..) {
            match d {
                Deferred::Schedule(t, e) => sink.schedule(t, e),
                Deferred::Cancel(id) => self.cancel_and_reallocate(now, id, site, sink),
                Deferred::Hedge { query, targets } => {
                    self.spawn_hedges(now, site, query, &targets, sink);
                }
                Deferred::HedgeFinish(id) => self.finish_hedged(now, id, site, sink),
                Deferred::HedgeRetire { group, id } => self.hedges.retire(group, site, id),
                Deferred::HedgeAbandon { group } => self.dissolve_group(now, group, None, sink),
                Deferred::Think(home) => {
                    self.on_lp(now, home, sink, |lp, sh, sink| {
                        lp.think(now, sh.params, sink)
                    });
                }
            }
        }
        // Every nested step flushed its own side effects, so the queue is
        // empty again; keep its buffer.
        debug_assert!(self.lps[site].deferred.is_empty());
        self.lps[site].deferred = deferred;
    }

    // ------------------------------------------------------------------
    // Global (barrier-time) handlers
    // ------------------------------------------------------------------

    /// The fault-injection state (must be configured).
    fn fault_mut(&mut self) -> &mut FaultState {
        self.fault.as_mut().expect("fault layer active")
    }

    /// Routes a global event to its handler.
    fn handle_global(&mut self, now: SimTime, event: Event, sink: &mut dyn EventSink) {
        match event {
            Event::NetDone => self.handle_net_done(now, sink),
            Event::StatusExchange => self.handle_status_exchange(now, sink),
            Event::SiteDown { site } => self.handle_site_down(now, site, sink),
            Event::SiteUp { site } => self.handle_site_up(now, site, sink),
            Event::MsgLost { msg, from } => {
                self.metrics.record_msg_lost();
                self.drop_frame(now, msg, from, sink);
            }
            Event::Retransmit { query, site } => {
                self.on_lp(now, site, sink, |lp, sh, sink| {
                    lp.retransmit(now, query, sh, sink);
                });
            }
            Event::DeadlineExpire { query, epoch, site } => {
                self.handle_deadline_expire(now, query, epoch, site, sink);
            }
            Event::PartitionStart => {
                self.fault_mut().partition_active = true;
            }
            Event::PartitionHeal => {
                self.fault_mut().partition_active = false;
            }
            Event::Script { index } => self.handle_script(now, index, sink),
            other => unreachable!("LP event {other:?} routed to the global handler"),
        }
    }

    fn handle_net_done(&mut self, now: SimTime, sink: &mut dyn EventSink) {
        let (msg, from, next) = self.ring.transmit_done(now);
        if let Some(t) = next {
            sink.schedule(t, Event::NetDone);
        }
        self.process_delivery(now, msg, from, sink);
    }

    /// A frame finished transmitting: decide loss, partition drops, and
    /// destination state, then deliver. The frame occupied the ring for
    /// its full transmission time whether or not it arrives.
    pub(crate) fn process_delivery(
        &mut self,
        now: SimTime,
        msg: RingMsg,
        from: SiteId,
        sink: &mut dyn EventSink,
    ) {
        if let Some(f) = &mut self.fault {
            if f.spec.msg_loss > 0.0 && f.rng_msg.bernoulli(f.spec.msg_loss) {
                sink.schedule(now, Event::MsgLost { msg, from });
                return;
            }
        }
        // An active partition drops query frames that cross a group
        // boundary at delivery (the ring time is spent regardless).
        // Status broadcasts still publish rows everywhere — the load table
        // is a modeling abstraction, not a routed message — but the
        // suspicion detector only *hears* senders in the observer's own
        // group, so cross-group peers drift into quarantine.
        let crossing = self.fault.as_ref().is_some_and(|f| {
            f.partition_active
                && match msg {
                    RingMsg::Query { dest, .. } => {
                        let g = f.spec.partition_groups;
                        let n = self.params.num_sites;
                        partition_group(from, g, n) != partition_group(dest, g, n)
                    }
                    RingMsg::Status { .. } => false,
                }
        });
        if crossing {
            self.metrics.record_partition_drop();
            self.drop_frame(now, msg, from, sink);
            return;
        }
        match msg {
            RingMsg::Query { query, kind, dest } => {
                if !self.lps[dest].site.is_up() {
                    // The destination crashed while the message was in
                    // flight: undeliverable (but not a subnet loss).
                    self.drop_frame(now, msg, from, sink);
                    return;
                }
                match kind {
                    MsgKind::Dispatch => self.deliver_dispatch(now, query, from, dest, sink),
                    // The results reached the terminal; the record still
                    // sits in the execution site's table.
                    MsgKind::Result => self.on_lp(now, from, sink, |lp, sh, sink| {
                        lp.complete_query(now, query, sh, sink);
                    }),
                    MsgKind::Cancel => self.on_lp(now, dest, sink, |lp, _, sink| {
                        lp.deliver_cancel(now, query, sink);
                    }),
                }
            }
            // A broadcast frame passes every site: all tables update.
            RingMsg::Status { site, load, full } => {
                self.board.publish_row(site, load);
                self.board.set_full(site, full);
                self.hear_status(now, site);
            }
        }
    }

    /// A frame that will never arrive (lost, dropped at a partition
    /// boundary, or addressed to a crashed site); `from` is the sender,
    /// whose table still holds any in-flight query (tables move at
    /// delivery). A dispatch destroys its attempt, a result set waits to
    /// be retransmitted, a cancel is repaired by the winner guard at the
    /// loser's own completion (cancels are fire-and-forget; a crashed
    /// site's loser was reaped by the crash), and a status broadcast just
    /// leaves every row stale until the next period.
    fn drop_frame(&mut self, now: SimTime, msg: RingMsg, from: SiteId, sink: &mut dyn EventSink) {
        match msg {
            RingMsg::Query {
                query,
                kind: MsgKind::Dispatch,
                ..
            } => self.fail_execution(now, query, from, sink),
            RingMsg::Query {
                query,
                kind: MsgKind::Result,
                ..
            } => self.on_lp(now, from, sink, |lp, sh, sink| {
                lp.schedule_retry(now, query, sh, sink);
            }),
            RingMsg::Query {
                kind: MsgKind::Cancel,
                ..
            }
            | RingMsg::Status { .. } => {}
        }
    }

    /// A dispatch (or migration) frame arrived at its execution site: the
    /// query's record moves tables, the destination takes the load slot,
    /// any armed deadline follows the query to its new id, and execution
    /// starts.
    fn deliver_dispatch(
        &mut self,
        now: SimTime,
        id: QueryId,
        from: SiteId,
        dest: SiteId,
        sink: &mut dyn EventSink,
    ) {
        let (expired, cancelled, io_bound) = {
            let q = self.lps[from].query(id);
            (q.expired, q.hedge_cancelled, q.profile.io_bound)
        };
        // First-win cancellation flagged this attempt while its dispatch
        // frame was on the wire: reap it on arrival, before the deadline
        // check — the logical query already finished elsewhere. No load
        // slot was ever taken.
        if cancelled {
            self.on_lp(now, from, sink, |lp, _, _| lp.cancel_attempt(now, id));
            return;
        }
        // The deadline expired while the dispatch was on the wire: cancel
        // instead of starting execution (no load slot was ever taken).
        if expired {
            self.cancel_and_reallocate(now, id, from, sink);
            return;
        }
        let id = self.move_query(id, from, dest);
        self.on_lp(now, dest, sink, |lp, sh, sink| {
            lp.alloc_load(now, io_bound);
            lp.rearm_deadline(now, id, sh.params, sink);
            lp.start_read(now, id, sh, sink);
        });
    }

    /// The free (zero-cost) status exchange: every row publishes at once.
    fn handle_status_exchange(&mut self, now: SimTime, sink: &mut dyn EventSink) {
        // A dropout models a failed exchange round: every site keeps its
        // stale rows until the next period.
        let dropped = match &mut self.fault {
            Some(f) if f.spec.status_loss > 0.0 => f.rng_status.bernoulli(f.spec.status_loss),
            _ => false,
        };
        if !dropped {
            self.board.publish();
            // The free exchange also refreshes every backpressure bit
            // (there are no per-site frames to carry them).
            if self.params.admission.is_some_and(|a| a.is_active()) {
                for site in 0..self.params.num_sites {
                    let full = lp_full(&self.params, &self.lps[site]);
                    self.board.set_full(site, full);
                }
            }
        }
        sink.schedule(now + self.params.status_period, Event::StatusExchange);
    }

    // ------------------------------------------------------------------
    // Fault handlers (all unreachable when `params.faults` is `None`)
    // ------------------------------------------------------------------

    /// The query's execution was destroyed (site crash, lost dispatch, or
    /// partition drop): the attempt unwinds and the query backs off at
    /// home for a fresh one. `site` is the LP whose table currently holds
    /// the query.
    fn fail_execution(
        &mut self,
        now: SimTime,
        id: QueryId,
        site: SiteId,
        sink: &mut dyn EventSink,
    ) {
        // A duplicate hedge attempt never retries — any fate short of
        // winning reaps it (the logical query lives on through its
        // group). Likewise an attempt already condemned by first-win
        // cancellation, or whose group is already decided (its cancel
        // frame may still be on the wire): the logical query completed
        // elsewhere, so destruction just completes the reap — retrying
        // (or losing) it would double-count the outcome.
        let reap = {
            let q = self.lps[site].query(id);
            q.hedge_dup
                || q.hedge_cancelled
                || q.hedge_group.is_some_and(|g| self.hedges.group(g).decided)
        };
        if reap {
            self.on_lp(now, site, sink, |lp, _, _| lp.cancel_attempt(now, id));
            return;
        }
        let (id, home) = self.unwind_attempt(now, id, site, sink);
        self.on_lp(now, home, sink, |lp, sh, sink| {
            lp.schedule_retry(now, id, sh, sink);
        });
    }

    /// The attempt unwind shared by fault recovery and deadline
    /// cancellation: the attempt's partial work is wasted (it shows up as
    /// waiting time, not service), any armed expiry goes stale (a fresh
    /// one is armed if the query is ever re-allocated), an attempt at its
    /// site's stations frees its load slot (an en-route dispatch never
    /// took one), and the query moves back to its home site's table to
    /// back off. Returns its id there and the home site.
    fn unwind_attempt(
        &mut self,
        now: SimTime,
        id: QueryId,
        site: SiteId,
        sink: &mut dyn EventSink,
    ) -> (QueryId, SiteId) {
        let home = self.on_lp(now, site, sink, |lp, _, _| {
            let q = lp.query_mut(id);
            debug_assert!(!matches!(q.phase, QueryPhase::Return | QueryPhase::Backoff));
            let resident = matches!(q.phase, QueryPhase::Disk | QueryPhase::Cpu);
            q.phase = QueryPhase::Backoff;
            q.reads_done = 0;
            q.service = 0.0;
            q.expired = false;
            q.deadline_epoch += 1;
            let (io_bound, home) = (q.profile.io_bound, q.profile.home);
            if resident {
                lp.release_load(now, io_bound);
            }
            home
        });
        (self.move_query(id, site, home), home)
    }

    /// The fail-stop state change shared by stochastic crashes and
    /// scripted ones: drain the stations, mark the site unavailable, and
    /// push every resident query into fault recovery. Schedules no
    /// repair — that is the caller's (stochastic or scripted) business.
    fn crash_site(&mut self, now: SimTime, site: SiteId, sink: &mut dyn EventSink) {
        let victims = self.lps[site].site.crash(now);
        self.board.set_available(site, false);
        let frac = self.board.available_sites() as f64 / self.params.num_sites as f64;
        self.metrics.record_availability(now, frac);
        for id in victims {
            self.fail_execution(now, id, site, sink);
        }
    }

    /// The repair state change shared by stochastic and scripted
    /// recoveries: the site rejoins, its availability row returns, and
    /// its suspicion-observer entries are refreshed (it heard nothing
    /// while down, so every peer gets a full detection window instead of
    /// being suspected wholesale on the first sweep). Schedules no next
    /// crash.
    fn recover_site(&mut self, now: SimTime, site: SiteId) {
        self.lps[site].site.recover();
        self.board.set_available(site, true);
        if let Some(s) = self.lps[site].suspicion.as_mut() {
            for heard in &mut s.last_heard {
                *heard = now;
            }
        }
        let frac = self.board.available_sites() as f64 / self.params.num_sites as f64;
        self.metrics.record_availability(now, frac);
    }

    /// Site `site` fail-stops (stochastic crash process).
    fn handle_site_down(&mut self, now: SimTime, site: SiteId, sink: &mut dyn EventSink) {
        self.crash_site(now, site, sink);
        let f = self.fault_mut();
        // An MTTR of zero means instant repair: skip the draw (the
        // exponential sampler requires a positive mean) and schedule the
        // recovery at the current instant.
        let repair = if f.spec.mttr > 0.0 {
            f.rng_crash.exponential(f.spec.mttr)
        } else {
            0.0
        };
        sink.schedule(now + repair, Event::SiteUp { site });
    }

    /// Site `site` finishes repair (stochastic crash process).
    fn handle_site_up(&mut self, now: SimTime, site: SiteId, sink: &mut dyn EventSink) {
        self.recover_site(now, site);
        let f = self.fault_mut();
        if f.spec.mtbf > 0.0 {
            let ttf = f.rng_crash.exponential(f.spec.mtbf);
            sink.schedule(now + ttf, Event::SiteDown { site });
        }
    }

    /// Entry `index` of the deterministic fault-environment script fires.
    /// Scripted actions draw no random numbers and schedule no stochastic
    /// follow-ups; actions that match the current state (crashing a down
    /// site, healing an inactive partition) are no-ops, so scripts are
    /// idempotent under replay.
    fn handle_script(&mut self, now: SimTime, index: usize, sink: &mut dyn EventSink) {
        let entry = self.params.script[index];
        match entry.action {
            ScriptAction::SiteDown(site) => {
                if self.lps[site].site.is_up() {
                    self.crash_site(now, site, sink);
                }
            }
            ScriptAction::SiteUp(site) => {
                if !self.lps[site].site.is_up() {
                    self.recover_site(now, site);
                }
            }
            ScriptAction::PartitionStart => {
                self.fault_mut().partition_active = true;
            }
            ScriptAction::PartitionHeal => {
                self.fault_mut().partition_active = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Resilience handlers (deadlines, suspicion, admission control; all
    // unreachable when the corresponding specs are absent or inactive)
    // ------------------------------------------------------------------

    /// A query's deadline expired. Honored only if the armed `epoch` still
    /// matches (completion, crash recovery, and cancellation all bump it)
    /// and the query still sits in `site`'s table under this id (a moved
    /// query carries a fresh id, so stale expiries miss by construction).
    /// The unwind is phase-exact: a query resident at the stations leaves
    /// them at once, and work that cannot be recalled — a frame on the
    /// wire, a page read in immutable FCFS service — is flagged and
    /// cancelled at the next event boundary.
    fn handle_deadline_expire(
        &mut self,
        now: SimTime,
        id: QueryId,
        epoch: u32,
        site: SiteId,
        sink: &mut dyn EventSink,
    ) {
        let Some(q) = self.lps[site].queries.get(id) else {
            return; // already completed, shed, or moved tables
        };
        if q.deadline_epoch != epoch {
            return; // stale expiry for a superseded attempt
        }
        if q.hedge_cancelled || q.hedge_group.is_some_and(|g| self.hedges.group(g).decided) {
            // First-win cancellation already owns this unwind: the
            // attempt is condemned (flagged, or its cancel frame is en
            // route; the winner guard backs up a lost frame). Expiring
            // it here could shed a logical query that already completed
            // through its duplicate — a double-counted outcome.
            return;
        }
        match q.phase {
            // Results already exist (delivering them is cheaper than
            // redoing the work) or the query is already being unwound.
            QueryPhase::Return | QueryPhase::Backoff => {}
            // The dispatch frame cannot be recalled from the ring: flag
            // the query; the delivery handler cancels instead of starting.
            QueryPhase::Transfer => {
                self.lps[site].query_mut(id).expired = true;
            }
            QueryPhase::Disk | QueryPhase::Cpu => {
                if self.on_lp(now, site, sink, |lp, _, sink| {
                    lp.leave_stations(now, id, sink)
                }) {
                    self.cancel_and_reallocate(now, id, site, sink);
                } else {
                    // The in-service page read finishes; the
                    // cancellation happens at its `DiskDone`.
                    self.lps[site].query_mut(id).expired = true;
                }
            }
        }
    }

    /// Cancels a query's current execution attempt after a deadline
    /// timeout (the caller has already unwound any station state), moves
    /// it home, and either re-allocates it — next-best site, after a
    /// jittered backoff — or abandons it once the reallocation budget is
    /// spent. `site` is the LP whose table holds the query.
    fn cancel_and_reallocate(
        &mut self,
        now: SimTime,
        id: QueryId,
        site: SiteId,
        sink: &mut dyn EventSink,
    ) {
        let spec = self.params.deadlines.expect("deadline layer active");
        let class = self.lps[site].query(id).profile.class;
        let (id, home) = self.unwind_attempt(now, id, site, sink);
        self.metrics.record_deadline_timeout(class);
        let retried = self.on_lp(now, home, sink, |lp, sh, sink| {
            lp.resilience_retry(
                now,
                id,
                spec.backoff_base,
                spec.max_reallocations,
                RetryCounter::Deadline,
                sh,
                sink,
            )
        });
        if retried {
            self.metrics.record_deadline_reallocation(class);
        } else {
            self.metrics.record_deadline_abandoned(class);
        }
    }

    /// A status broadcast from `sender` was delivered: every observer
    /// that can hear it (same partition group, and itself up) refreshes
    /// its detector entry; a suspected sender works off its rejoin
    /// probation one heard broadcast at a time.
    fn hear_status(&mut self, now: SimTime, sender: SiteId) {
        if self.params.suspicion.is_none() {
            return;
        }
        let n = self.params.num_sites;
        let partition_groups = self
            .fault
            .as_ref()
            .and_then(|f| f.partition_active.then_some(f.spec.partition_groups));
        for observer in 0..n {
            if observer == sender || !self.lps[observer].site.is_up() {
                continue;
            }
            if let Some(g) = partition_groups {
                if partition_group(observer, g, n) != partition_group(sender, g, n) {
                    continue;
                }
            }
            let lp = &mut self.lps[observer];
            let s = lp.suspicion.as_mut().expect("suspicion layer active");
            s.last_heard[sender] = now;
            if s.suspected[sender] {
                s.streak[sender] += 1;
                if s.streak[sender] >= s.spec.probation {
                    s.suspected[sender] = false;
                    s.streak[sender] = 0;
                    lp.trust[sender] = true;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Cross-LP bookkeeping helpers
    // ------------------------------------------------------------------

    /// Moves a query record from one LP's table to another's, returning
    /// its id there (fresh generation; the old id goes stale, which is
    /// what invalidates any events still referring to it). A same-site
    /// move is the identity.
    fn move_query(&mut self, id: QueryId, from: SiteId, to: SiteId) -> QueryId {
        if from == to {
            return id;
        }
        let q = self.lps[from].take_query(id);
        let group = q.hedge_group;
        let new_id = self.lps[to]
            .queries
            .insert_with(|new_id| ActiveQuery { id: new_id, ..q });
        // A moved hedge member's registry entry follows it to its new
        // table and id, so cancels keep addressing it correctly.
        if let Some(g) = group {
            self.hedges.relocate(g, from, id, to, new_id);
        }
        new_id
    }

    // ------------------------------------------------------------------
    // Redundancy (hedged replicate-to-n dispatch) machinery
    // ------------------------------------------------------------------

    /// Spawns the duplicate attempts of a hedge group: `home`'s submit
    /// handler just dispatched the primary and ranked `targets`; each
    /// target gets a duplicate record in the home table. Duplicates carry
    /// no deadline and never retry — any fate short of winning reaps
    /// them.
    fn spawn_hedges(
        &mut self,
        now: SimTime,
        home: SiteId,
        primary: QueryId,
        targets: &[SiteId],
        sink: &mut dyn EventSink,
    ) {
        debug_assert_eq!(
            self.lps[home].query(primary).kind,
            QueryKind::Read,
            "only reads hedge"
        );
        let gid = self.hedges.create(home, home, primary);
        self.lps[home].query_mut(primary).hedge_group = Some(gid);
        for &target in targets {
            let id = self.on_lp(now, home, sink, |lp, sh, sink| {
                lp.spawn_duplicate(now, primary, gid, target, sh, sink)
            });
            self.hedges.add_member(gid, home, id);
        }
    }

    /// A hedged attempt finished executing at `site`. First win: an
    /// undecided group lets this attempt claim the single counted
    /// completion and cancels every other live member; a decided group
    /// means this attempt already lost but escaped its cancel (lost
    /// frame, partition) — the winner guard discards it here, the
    /// protocol's last line of defense against double counting.
    fn finish_hedged(&mut self, now: SimTime, id: QueryId, site: SiteId, sink: &mut dyn EventSink) {
        let (gid, dup) = {
            let q = self.lps[site].query(id);
            (
                q.hedge_group.expect("hedged finish without a group"),
                q.hedge_dup,
            )
        };
        if self.hedges.group(gid).decided {
            self.on_lp(now, site, sink, |lp, _, _| lp.cancel_attempt(now, id));
            return;
        }
        if dup {
            self.metrics.record_hedge_win();
        }
        self.dissolve_group(now, gid, Some((site, id)), sink);
        // The winner's results travel home like any remote execution's;
        // its registry entry stays live until they are delivered (or the
        // retry budget buries it). A winner at home completes at once.
        self.on_lp(now, site, sink, |lp, sh, sink| {
            lp.return_results(now, id, sh, sink);
        });
    }

    /// Decides a hedge group (first win or primary abandonment) and
    /// cancels every live member except `keep`. Members whose record sits
    /// where the decision is visible are flagged or reaped directly;
    /// members executing at a remote site get an explicit cancel frame.
    fn dissolve_group(
        &mut self,
        now: SimTime,
        gid: u32,
        keep: Option<(SiteId, QueryId)>,
        sink: &mut dyn EventSink,
    ) {
        let (home, members) = {
            let g = self.hedges.group_mut(gid);
            g.decided = true;
            (g.home, g.members.clone())
        };
        for m in members.iter().filter(|m| m.live) {
            if keep == Some((m.site, m.id)) {
                continue;
            }
            self.cancel_member(now, gid, home, m.site, m.id, sink);
        }
    }

    /// Cancels one losing hedge member, phase-exactly:
    ///
    /// - a record already gone (the abandoned attempt whose terminal path
    ///   triggered the dissolution) just retires its entry;
    /// - a dispatch frame on the wire cannot be recalled — the attempt is
    ///   flagged and reaped at delivery (or loss);
    /// - a backed-off primary holds no station state and is reaped on the
    ///   spot (its pending `Resubmit` goes stale with the removed id);
    /// - an attempt at the home site's own stations is reaped directly —
    ///   the decision is visible where the coordination state lives;
    /// - an attempt executing at a remote site gets an explicit cancel
    ///   frame on the ring (transmission cost `msg_length`, droppable:
    ///   fire-and-forget, repaired by the winner guard if it never
    ///   arrives).
    #[allow(clippy::too_many_arguments)]
    fn cancel_member(
        &mut self,
        now: SimTime,
        gid: u32,
        home: SiteId,
        site: SiteId,
        id: QueryId,
        sink: &mut dyn EventSink,
    ) {
        let Some(q) = self.lps[site].queries.get(id) else {
            self.hedges.retire(gid, site, id);
            return;
        };
        match q.phase {
            QueryPhase::Transfer => {
                self.lps[site].query_mut(id).hedge_cancelled = true;
            }
            QueryPhase::Backoff => {
                self.on_lp(now, site, sink, |lp, _, _| lp.cancel_attempt(now, id));
            }
            QueryPhase::Disk | QueryPhase::Cpu => {
                if site == home {
                    // A resident record at a down site is a victim of the
                    // crash being processed; its own `fail_execution`
                    // reaps it once it sees the group decided.
                    if self.lps[site].site.is_up() {
                        self.on_lp(now, site, sink, |lp, _, sink| {
                            lp.reap_resident(now, id, sink);
                        });
                    }
                } else {
                    let msg = RingMsg::Query {
                        query: id,
                        kind: MsgKind::Cancel,
                        dest: site,
                    };
                    if let Some(done) = self.ring.send(now, home, msg, self.params.msg_length) {
                        sink.schedule(done, Event::NetDone);
                    }
                }
            }
            // A member in Return already claimed the win — never
            // cancelled (the winner guard would have discarded a loser
            // before it could start returning).
            QueryPhase::Return => debug_assert!(false, "cancel aimed at a returning winner"),
        }
    }
}

impl DbSystem {
    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// The system parameters.
    #[must_use]
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The metrics accumulated since the last reset.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The live load table.
    #[must_use]
    pub fn load(&self) -> &LoadTable {
        &self.board
    }

    /// Site `i` (for station-level statistics).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_sites`.
    #[must_use]
    pub fn site(&self, i: SiteId) -> &Site {
        &self.lps[i].site
    }

    /// The sites in index order (for station-level statistics).
    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.lps.iter().map(|lp| &lp.site)
    }

    /// The token ring (for subnet statistics).
    #[must_use]
    pub fn ring(&self) -> &TokenRing<RingMsg> {
        &self.ring
    }

    /// The allocation policy's display name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.lps[0].allocator.name()
    }

    /// The relation catalog in force.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of queries currently in flight (allocated or in transit).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.lps.iter().map(|lp| lp.queries.len()).sum()
    }

    /// Aggregate user-arena accounting across every site's shard:
    /// `(active, peak_active, bytes, peak_bytes)`. All zeros when no user
    /// population is configured. `peak_bytes` is the figure the live
    /// benchmarks divide by `peak_active` to report bytes per active user
    /// — it tracks the arena tables' high-water footprint, which grows
    /// with *concurrently active* sessions, never with `total_users`.
    #[must_use]
    pub fn user_arena_stats(&self) -> (u64, u64, u64, u64) {
        let mut stats = (0, 0, 0, 0);
        for lp in &self.lps {
            if let Some(u) = &lp.users {
                stats.0 += u.arena.active() as u64;
                stats.1 += u.arena.peak_active() as u64;
                stats.2 += u.arena.bytes() as u64;
                stats.3 += u.arena.peak_bytes() as u64;
            }
        }
        stats
    }

    /// Mean CPU utilization across sites, through `now` (the `ρ_c` of the
    /// paper's tables).
    #[must_use]
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.lps
            .iter()
            .map(|lp| lp.site.cpu.utilization(now))
            .sum::<f64>()
            / self.lps.len() as f64
    }

    /// Mean per-disk utilization across sites, through `now` (`ρ_d`).
    #[must_use]
    pub fn disk_utilization(&self, now: SimTime) -> f64 {
        self.lps
            .iter()
            .map(|lp| lp.site.disk_utilization(now))
            .sum::<f64>()
            / self.lps.len() as f64
    }

    /// Subnet (token-ring) utilization through `now`.
    #[must_use]
    pub fn subnet_utilization(&self, now: SimTime) -> f64 {
        self.ring.utilization(now)
    }

    /// Verifies the closed-model invariant: every one of the
    /// `mpl × num_sites` terminals is either thinking or has exactly one
    /// query in flight, the load table agrees with the query states, and
    /// every LP's flushed view agrees with the global board.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if the invariant is violated; meant for
    /// tests and debug assertions. Must be called at a flushed point
    /// (between events in the serial executor, at a barrier in the
    /// parallel one).
    pub fn check_invariants(&self) {
        if matches!(self.params.workload, Workload::Closed) {
            let terminals = self.params.mpl as usize * self.params.num_sites;
            let terminal_queries = self
                .lps
                .iter()
                .flat_map(|lp| lp.queries.values())
                .filter(|q| q.kind != QueryKind::Propagation && !q.hedge_dup)
                .count();
            assert!(
                terminal_queries <= terminals,
                "{terminal_queries} terminal queries in flight but only {terminals} terminals"
            );
        }
        // Load slots are held exactly by the queries at a site's stations
        // (phases Disk, Cpu). Transfers allocate at delivery; returning
        // and backed-off queries hold no slot.
        let executing = self
            .lps
            .iter()
            .flat_map(|lp| lp.queries.values())
            .filter(|q| matches!(q.phase, QueryPhase::Disk | QueryPhase::Cpu))
            .count();
        assert_eq!(
            self.board.total_in_system(),
            executing as u32,
            "load table disagrees with in-flight query phases"
        );
        // Station residents are exactly the queries in Disk/Cpu phases.
        let at_stations: usize = self.lps.iter().map(|lp| lp.site.resident_queries()).sum();
        assert_eq!(at_stations, executing, "station residency mismatch");
        for lp in &self.lps {
            assert_eq!(
                self.board.live(lp.index),
                lp.live,
                "site {}'s live row diverged from the board",
                lp.index
            );
            assert!(
                lp.obs.is_empty() && lp.outbox.is_empty() && lp.deferred.is_empty(),
                "site {} has unflushed side effects",
                lp.index
            );
        }
        // The hedge registry and the query tables agree: every live
        // member entry resolves to exactly the record it names, every
        // hedged record has a live entry, and no group outlives its last
        // live member.
        let mut live_members = 0usize;
        for (gid, g) in self.hedges.groups.iter().enumerate() {
            let Some(g) = g else { continue };
            assert!(
                g.members.iter().any(|m| m.live),
                "hedge group {gid} kept alive with no live member"
            );
            for m in g.members.iter().filter(|m| m.live) {
                live_members += 1;
                let q = self.lps[m.site].queries.get(m.id);
                assert!(
                    q.is_some_and(|q| q.hedge_group == Some(gid as u32)),
                    "hedge member {:?} at site {} does not resolve",
                    m.id,
                    m.site
                );
            }
        }
        let hedged_records = self
            .lps
            .iter()
            .flat_map(|lp| lp.queries.values())
            .filter(|q| q.hedge_group.is_some())
            .count();
        assert_eq!(
            hedged_records, live_members,
            "hedge registry size disagrees with the tables"
        );
    }

    /// Discards the warmup transient: restarts every statistic at `now`
    /// while leaving the system state (queries, queues, ring) untouched.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.metrics.reset(now);
        self.metrics
            .record_query_difference(now, self.board.query_difference());
        for lp in &mut self.lps {
            lp.site.reset_stats(now);
        }
        self.ring.reset_stats(now);
    }
}

impl Model for DbSystem {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event_site(&event) {
            Some(site) => self.on_lp(now, site, sched, |lp, sh, sink| {
                lp.handle(now, event, sh, sink);
            }),
            None => self.handle_global(now, event, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> SystemParams {
        SystemParams::builder()
            .num_sites(3)
            .mpl(4)
            .think_time(100.0)
            .build()
            .unwrap()
    }

    fn run_system(policy: PolicyKind, seed: u64, until: f64) -> Engine<DbSystem> {
        let sys = DbSystem::new(small_params(), policy, seed).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(until));
        engine
    }

    #[test]
    fn queries_complete_under_every_policy() {
        for policy in [
            PolicyKind::Local,
            PolicyKind::Bnq,
            PolicyKind::Bnqrd,
            PolicyKind::Lert,
            PolicyKind::Random,
            PolicyKind::Threshold(2),
            PolicyKind::LertNoNet,
        ] {
            let engine = run_system(policy, 11, 3_000.0);
            let m = engine.model().metrics();
            assert!(
                m.completed() > 50,
                "{policy:?} completed only {}",
                m.completed()
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let a = run_system(PolicyKind::Lert, 5, 2_000.0);
        let b = run_system(PolicyKind::Lert, 5, 2_000.0);
        assert_eq!(
            a.model().metrics().completed(),
            b.model().metrics().completed()
        );
        assert_eq!(
            a.model().metrics().mean_waiting(),
            b.model().metrics().mean_waiting()
        );
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_system(PolicyKind::Lert, 5, 2_000.0);
        let b = run_system(PolicyKind::Lert, 6, 2_000.0);
        assert_ne!(
            a.model().metrics().mean_waiting(),
            b.model().metrics().mean_waiting()
        );
    }

    #[test]
    fn invariants_hold_throughout_a_run() {
        let sys = DbSystem::new(small_params(), PolicyKind::Bnqrd, 3).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        for k in 1..=60 {
            engine.run_until(SimTime::new(f64::from(k) * 50.0));
            engine.model().check_invariants();
        }
    }

    #[test]
    fn local_policy_never_uses_the_ring() {
        let engine = run_system(PolicyKind::Local, 1, 3_000.0);
        assert_eq!(engine.model().ring().messages_sent(), 0);
        assert_eq!(engine.model().metrics().transfers(), 0);
        assert_eq!(engine.model().subnet_utilization(engine.now()), 0.0);
    }

    #[test]
    fn dynamic_policies_do_transfer() {
        let engine = run_system(PolicyKind::Bnq, 1, 3_000.0);
        assert!(engine.model().metrics().transfers() > 0);
        assert!(engine.model().ring().messages_sent() > 0);
    }

    #[test]
    fn utilizations_are_fractions() {
        let engine = run_system(PolicyKind::Lert, 9, 3_000.0);
        let now = engine.now();
        let m = engine.model();
        for u in [
            m.cpu_utilization(now),
            m.disk_utilization(now),
            m.subnet_utilization(now),
        ] {
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
        assert!(m.cpu_utilization(now) > 0.0);
    }

    #[test]
    fn reset_stats_preserves_state_but_clears_metrics() {
        let mut engine = run_system(PolicyKind::Bnq, 2, 2_000.0);
        let in_flight = engine.model().in_flight();
        let now = engine.now();
        engine.model_mut().reset_stats(now);
        assert_eq!(engine.model().metrics().completed(), 0);
        assert_eq!(engine.model().in_flight(), in_flight);
        engine.model().check_invariants();
        // and the system keeps running fine afterwards
        engine.run_until(SimTime::new(4_000.0));
        assert!(engine.model().metrics().completed() > 0);
    }

    #[test]
    fn status_exchange_publishes_periodically() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(3)
            .think_time(50.0)
            .status_period(25.0)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Bnq, 4).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        // The system still works with stale information.
        assert!(engine.model().metrics().completed() > 10);
        engine.model().check_invariants();
    }

    #[test]
    fn single_site_system_degenerates_to_local() {
        let params = SystemParams::builder()
            .num_sites(1)
            .mpl(5)
            .think_time(100.0)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 8).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        assert_eq!(engine.model().metrics().transfers(), 0);
        assert!(engine.model().metrics().completed() > 0);
    }

    #[test]
    fn open_workload_arrivals_match_the_rate() {
        use crate::params::Workload;
        let rate = 0.02; // per site, well below capacity
        let params = SystemParams::builder()
            .num_sites(4)
            .workload(Workload::Open { arrival_rate: rate })
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 81).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        let horizon = 50_000.0;
        engine.run_until(SimTime::new(horizon));
        engine.model().check_invariants();
        let m = engine.model().metrics();
        // Stable: completions track offered arrivals (4 sites x rate).
        let expected = 4.0 * rate * horizon;
        let got = m.completed() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "completions {got} vs offered {expected}"
        );
        // Utilization-law sanity: rho_cpu = lambda_site * mean CPU demand.
        let rho = engine.model().cpu_utilization(engine.now());
        let demand = 20.0 * 0.525; // mean reads x mean page CPU
        assert!(
            (rho - rate * demand).abs() < 0.02,
            "rho {rho} vs lambda*D {}",
            rate * demand
        );
    }

    #[test]
    fn open_workload_detects_overload() {
        use crate::params::Workload;
        // Per-site capacity: CPU demand 10.5/query -> ~0.095 queries/unit.
        // Offer 0.15: the backlog must grow without bound.
        let params = SystemParams::builder()
            .num_sites(2)
            .workload(Workload::Open { arrival_rate: 0.15 })
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Local, 82).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(5_000.0));
        let mid = engine.model().in_flight();
        engine.run_until(SimTime::new(10_000.0));
        let late = engine.model().in_flight();
        assert!(
            late > mid && late > 50,
            "overloaded system should accumulate queries: {mid} -> {late}"
        );
    }

    #[test]
    fn updates_propagate_to_every_replica() {
        let params = SystemParams::builder()
            .num_sites(4)
            .mpl(4)
            .think_time(150.0)
            .update_fraction(0.5)
            .propagation_factor(0.25)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 71).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        for k in 1..=8 {
            engine.run_until(SimTime::new(f64::from(k) * 500.0));
            engine.model().check_invariants();
        }
        let m = engine.model().metrics();
        assert!(m.completed() > 100);
        // Full replication, 4 sites: each update spawns 3 apply jobs, and
        // roughly half the queries are updates.
        let per_completion = m.propagations() as f64 / m.completed() as f64;
        assert!(
            (1.0..2.0).contains(&per_completion),
            "expected ~1.5 propagations per completion, got {per_completion}"
        );
    }

    #[test]
    fn read_only_workload_never_propagates() {
        let engine = run_system(PolicyKind::Bnq, 14, 2_000.0);
        assert_eq!(engine.model().metrics().propagations(), 0);
    }

    #[test]
    fn zero_propagation_factor_disables_apply_jobs() {
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(4)
            .think_time(100.0)
            .update_fraction(0.5)
            .propagation_factor(0.0)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Bnq, 72).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        assert_eq!(engine.model().metrics().propagations(), 0);
        assert!(engine.model().metrics().completed() > 50);
    }

    #[test]
    fn heterogeneous_cpu_speeds_shift_work_under_lert() {
        // One fast site, two slow ones: LERT should route CPU-heavy work
        // toward the fast CPU, so its utilization-weighted share of
        // completions exceeds 1/3.
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(6)
            .think_time(80.0)
            .cpu_speeds(Some(vec![3.0, 0.75, 0.75]))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 61).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(8_000.0));
        let now = engine.now();
        let m = engine.model();
        m.check_invariants();
        assert!(m.metrics().completed() > 200);
        // The fast site's CPU serves more *work* per unit busy time; LERT
        // keeps it busier with CPU-bound queries than the slow sites.
        let fast_load = m.site(0).cpu.total_service();
        let slow_load = m.site(1).cpu.total_service();
        let _ = now;
        assert!(
            fast_load < slow_load * 4.0,
            "sanity: work still spread across sites"
        );
    }

    #[test]
    fn cpu_speed_validation() {
        let wrong_len = SystemParams::builder()
            .num_sites(3)
            .cpu_speeds(Some(vec![1.0, 2.0]))
            .build();
        assert!(wrong_len.is_err());
        let negative = SystemParams::builder()
            .num_sites(2)
            .cpu_speeds(Some(vec![1.0, -1.0]))
            .build();
        assert!(negative.is_err());
    }

    #[test]
    fn migration_moves_queries_and_preserves_invariants() {
        use crate::params::MigrationSpec;
        let params = SystemParams::builder()
            .num_sites(4)
            .mpl(6)
            .think_time(80.0)
            .migration(Some(MigrationSpec {
                check_every_reads: 4,
                min_gain: 1.0,
                state_growth: 0.25,
            }))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 31).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        for k in 1..=10 {
            engine.run_until(SimTime::new(f64::from(k) * 400.0));
            engine.model().check_invariants();
        }
        let m = engine.model().metrics();
        assert!(m.completed() > 100);
        assert!(
            m.migrations() > 0,
            "a loaded LERT system should find profitable migrations"
        );
    }

    #[test]
    fn huge_min_gain_disables_migration() {
        use crate::params::MigrationSpec;
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(5)
            .think_time(80.0)
            .migration(Some(MigrationSpec {
                check_every_reads: 1,
                min_gain: 1e9,
                state_growth: 0.0,
            }))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 32).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        assert_eq!(engine.model().metrics().migrations(), 0);
    }

    #[test]
    fn costed_status_broadcasts_ride_the_ring() {
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(4)
            .think_time(100.0)
            .status_period(20.0)
            .status_msg_length(0.5)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Bnq, 6).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        let m = engine.model();
        // 3 sites x (2000 / 20) periods of broadcasts plus query traffic.
        let status_msgs = 3 * (2_000.0_f64 / 20.0) as u64;
        assert!(
            m.ring().messages_sent() > status_msgs,
            "ring carried {} messages, expected > {status_msgs} including broadcasts",
            m.ring().messages_sent()
        );
        assert!(m.metrics().completed() > 50);
        m.check_invariants();
    }

    #[test]
    fn own_site_load_is_always_live() {
        // Even with an infinite exchange period (nothing ever published),
        // the THRESHOLD policy still reacts to its own site's load — a
        // site knows itself.
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(6)
            .think_time(40.0)
            .status_period(1e6)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Threshold(0), 9).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(3_000.0));
        // Threshold 0 transfers whenever the local site is non-empty,
        // which requires seeing the local live count.
        assert!(engine.model().metrics().transfers() > 0);
    }

    #[test]
    fn partial_replication_respects_the_catalog() {
        // Single-copy catalog: every query must execute at its relation's
        // only holder, so LOCAL-at-arrival is impossible for most queries
        // and transfers are forced.
        let params = SystemParams::builder()
            .num_sites(4)
            .mpl(4)
            .think_time(80.0)
            .num_relations(8)
            .copies(Some(1))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 21).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(3_000.0));
        let m = engine.model();
        assert!(m.metrics().completed() > 50);
        // With 4 sites and uniform relations, ~3/4 of queries are remote.
        let frac = m.metrics().transfer_fraction();
        assert!(
            (0.55..0.95).contains(&frac),
            "transfer fraction {frac} inconsistent with single-copy placement"
        );
        m.check_invariants();
    }

    #[test]
    fn full_replication_is_the_default_catalog() {
        let sys = DbSystem::new(small_params(), PolicyKind::Bnq, 1).unwrap();
        assert_eq!(sys.catalog().candidates(0).len(), 3);
    }

    #[test]
    fn local_policy_with_partial_replication_uses_primaries() {
        // LOCAL + single copy = the static-materialization strawman: each
        // relation's primary does all its work, wherever queries arrive.
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(3)
            .think_time(80.0)
            .num_relations(3)
            .copies(Some(1))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Local, 2).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        // Queries do complete, and remote executions happen (ring in use).
        assert!(engine.model().metrics().completed() > 20);
        assert!(engine.model().metrics().transfers() > 0);
        engine.model().check_invariants();
    }

    #[test]
    fn hedged_runs_complete_with_exactly_one_outcome_per_query() {
        use crate::params::RedundancySpec;
        // Every read hedges to a second site; invariants (including the
        // hedge-registry/table agreement and the closed-population bound,
        // which a double-counted completion would break) are checked
        // throughout.
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(4)
            .think_time(100.0)
            .redundancy(Some(RedundancySpec {
                max_level: 2,
                ..RedundancySpec::default()
            }))
            .build()
            .unwrap();
        for policy in [PolicyKind::Local, PolicyKind::Bnq, PolicyKind::Lert] {
            let sys = DbSystem::new(params.clone(), policy, 11).unwrap();
            let mut engine = Engine::new(sys);
            DbSystem::prime(&mut engine);
            for k in 1..=40 {
                engine.run_until(SimTime::new(f64::from(k) * 100.0));
                engine.model().check_invariants();
            }
            let m = engine.model().metrics();
            assert!(m.completed() > 50, "{policy:?} completed {}", m.completed());
            assert!(
                m.hedged_dispatched() > 0,
                "{policy:?} never hedged despite an always-on spec"
            );
            // Every decided duplicate either won or was reaped; with the
            // run still in flight the reaped+won tally cannot exceed the
            // duplicates spawned.
            assert!(
                m.hedge_wins() + m.hedge_cancelled()
                    <= m.hedge_duplicates() + m.hedged_dispatched()
            );
        }
    }

    #[test]
    fn inert_redundancy_spec_changes_nothing() {
        use crate::params::RedundancySpec;
        // CRN: a default (inert) spec draws nothing and leaves the
        // trajectory identical to no spec at all.
        let base = run_system(PolicyKind::Lert, 5, 2_000.0);
        let params = SystemParams::builder()
            .num_sites(3)
            .mpl(4)
            .think_time(100.0)
            .redundancy(Some(RedundancySpec::default()))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Lert, 5).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(2_000.0));
        assert_eq!(
            base.model().metrics().completed(),
            engine.model().metrics().completed()
        );
        assert_eq!(
            base.model().metrics().mean_waiting(),
            engine.model().metrics().mean_waiting()
        );
        assert_eq!(base.steps(), engine.steps());
        assert_eq!(engine.model().metrics().hedged_dispatched(), 0);
    }

    #[test]
    fn hedging_under_faults_and_deadlines_stays_consistent() {
        use crate::params::{DeadlineSpec, FaultSpec, RedundancySpec};
        // The adversarial composition: crashes, message loss, deadlines,
        // and always-on hedging. The registry/table agreement and the
        // closed-population bound must survive every reap path.
        let params = SystemParams::builder()
            .num_sites(4)
            .mpl(4)
            .think_time(60.0)
            .faults(Some(FaultSpec {
                mtbf: 800.0,
                mttr: 120.0,
                msg_loss: 0.05,
                ..FaultSpec::default()
            }))
            .deadlines(Some(DeadlineSpec {
                mean: 150.0,
                floor: 50.0,
                ..DeadlineSpec::default()
            }))
            .redundancy(Some(RedundancySpec {
                max_level: 3,
                ..RedundancySpec::default()
            }))
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Bnqrd, 7).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        for k in 1..=80 {
            engine.run_until(SimTime::new(f64::from(k) * 100.0));
            engine.model().check_invariants();
        }
        let m = engine.model().metrics();
        assert!(m.completed() > 50);
        assert!(m.hedged_dispatched() > 0);
        assert!(m.hedge_cancelled() > 0);
    }

    #[test]
    fn class_mix_matches_probabilities() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(10)
            .think_time(20.0)
            .class_io_prob(0.3)
            .build()
            .unwrap();
        let sys = DbSystem::new(params, PolicyKind::Local, 13).unwrap();
        let mut engine = Engine::new(sys);
        DbSystem::prime(&mut engine);
        engine.run_until(SimTime::new(20_000.0));
        let m = engine.model().metrics();
        let io = m.class(0).waiting.count() as f64;
        let cpu = m.class(1).waiting.count() as f64;
        let frac = io / (io + cpu);
        assert!((frac - 0.3).abs() < 0.05, "I/O fraction {frac}");
    }
}
