//! Deferred metric/board observations from logical-process handlers.
//!
//! The parallel-in-time executor (DESIGN.md §12) runs one logical process
//! (LP) per site, and LP event handlers may only touch their own site's
//! state. Metrics and the shared load board are global, so handlers do not
//! write them directly: they append `(time, Obs)` records to their LP's
//! observation log, and the log is *applied* to the global structures with
//! full access — immediately after the event in the serial executor, and
//! at the next window barrier (merged across LPs in timestamp order) in
//! the sharded executor. Because observation application is commutative
//! across LPs at distinct timestamps, both schedules produce the same
//! global state; ties are broken by `(time, lp index, log order)`, which
//! matches the serial order except on measure-zero exact time collisions
//! between different sites' events.
//!
//! Barrier-time handlers (ring deliveries, crashes, partition edges) run
//! in both executors and mutate [`Metrics`] and the board's published
//! rows and availability directly; a site's *live* row changes only
//! through the log, because they run every LP-owned step on the owning
//! LP and flush its log at once.

use dqa_sim::SimTime;

use crate::load::LoadTable;
use crate::metrics::Metrics;
use crate::params::{ClassId, SiteId};

/// One observation emitted by an LP handler, applied later with full
/// access to the global board and metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Obs {
    /// A query was submitted (`record_submit`).
    Submit {
        /// Allocated away from its home site.
        remote: bool,
    },
    /// A query completed (`record_completion`).
    Completion {
        /// Workload class.
        class: ClassId,
        /// Response time (submission to result delivery).
        response: f64,
        /// Total service received.
        service: f64,
    },
    /// A site's live load changed: mirror the LP's own-row update onto the
    /// board (`allocate`/`release`) and sample the query difference.
    Load {
        /// The site whose row changed (always the emitting LP's own site).
        site: SiteId,
        /// Which counter moved.
        io_bound: bool,
        /// `true` for allocate, `false` for release.
        up: bool,
    },
    /// A backed-off query went around again (`record_retry`).
    Retry,
    /// A query exhausted its retry budget (`record_lost`).
    Lost,
    /// A query completed after surviving at least one retry
    /// (`record_recovered`).
    Recovered,
    /// A mid-execution migration left the site (`record_migration`).
    Migration,
    /// An update spawned a propagation apply job (`record_propagation`).
    Propagation,
    /// Admission control bounced a query into backoff
    /// (`record_admission_rejected`).
    AdmissionRejected,
    /// Admission control redirected a query to a sibling site
    /// (`record_admission_redirected`).
    AdmissionRedirected,
    /// Admission control dropped a query outright
    /// (`record_admission_dropped`).
    AdmissionDropped,
    /// A hedge-eligible query was dispatched at effective redundancy
    /// `level` (`record_hedge_dispatch`); level 1 means the coin or the
    /// load-adaptive controller kept it unhedged.
    HedgeDispatch {
        /// Effective redundancy level (1-based).
        level: u32,
    },
    /// A hedge attempt was reaped at its own site after first-win
    /// cancellation flagged it mid-service (`record_hedge_cancelled`).
    HedgeCancelled {
        /// Service time the attempt had already absorbed.
        wasted: f64,
    },
}

/// Applies one observation to the global board and metrics.
pub(crate) fn apply(now: SimTime, obs: Obs, board: &mut LoadTable, metrics: &mut Metrics) {
    match obs {
        Obs::Submit { remote } => metrics.record_submit(remote),
        Obs::Completion {
            class,
            response,
            service,
        } => metrics.record_completion(class, response, service),
        Obs::Load { site, io_bound, up } => {
            if up {
                board.allocate(site, io_bound);
            } else {
                board.release(site, io_bound);
            }
            metrics.record_query_difference(now, board.query_difference());
        }
        Obs::Retry => metrics.record_retry(),
        Obs::Lost => metrics.record_lost(),
        Obs::Recovered => metrics.record_recovered(),
        Obs::Migration => metrics.record_migration(),
        Obs::Propagation => metrics.record_propagation(),
        Obs::AdmissionRejected => metrics.record_admission_rejected(),
        Obs::AdmissionRedirected => metrics.record_admission_redirected(),
        Obs::AdmissionDropped => metrics.record_admission_dropped(),
        Obs::HedgeDispatch { level } => metrics.record_hedge_dispatch(level as usize),
        Obs::HedgeCancelled { wasted } => metrics.record_hedge_cancelled(wasted),
    }
}
