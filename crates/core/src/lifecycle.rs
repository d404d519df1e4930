//! The abstract query-lifecycle contract.
//!
//! [`Stage`] collapses the simulator's per-query state — [`QueryPhase`]
//! plus the implicit "not yet inserted" and "already removed" states —
//! into the protocol-level lifecycle of the paper's Figure 2 extended
//! with the PR 4 resilience layer, and [`ALLOWED`] enumerates every
//! transition the protocol permits. This is the contract the `dqa-check`
//! model checker cross-validates its abstract transition system against:
//! every edge the checker's successor function can generate must appear
//! here, so drift between the abstraction and the real machinery is a
//! test failure, not a silent soundness hole.
//!
//! The mapping to the concrete machinery, with the one function that
//! takes a query into each stage. Every one is a method of the owning
//! site's logical process (`model::Lp`); global handlers run them through
//! that LP (`DbSystem::on_lp`), never through copies of their own.
//!
//! | Stage        | Concrete state | Entered by |
//! |--------------|----------------|------------|
//! | `Submitted`  | inside `Lp::handle_submit`, before placement | `Lp::handle_submit` |
//! | `InFlight`   | `QueryPhase::Transfer` (dispatch frame on the ring) | `Lp::place_query` |
//! | `Executing`  | `QueryPhase::Disk` / `QueryPhase::Cpu` | `Lp::place_query` (local), `Lp::start_read` (at delivery) |
//! | `Returning`  | `QueryPhase::Return` (result frame / retransmit log) | `Lp::return_results` |
//! | `Backoff`    | `QueryPhase::Backoff` (crash, drop, reject, expiry) | `Lp::schedule_retry` (fault budget), `Lp::resilience_retry` (admission / deadline budget) |
//! | `Completed`  | removed | `Lp::complete_query` |
//! | `Abandoned`  | removed (admission / deadline budget) | `Lp::shed_query` |
//! | `Lost`       | removed (fault retry budget) | `Lp::lose_query` |
//! | `Hedged`     | a duplicate record (`hedge_dup`) in `QueryPhase::Transfer` | `Lp::spawn_duplicate` |
//! | `Cancelled`  | removed (first-win cancellation) | `Lp::cancel_attempt` |
//!
//! An attempt destroyed or cancelled mid-execution is unwound by
//! `DbSystem::unwind_attempt` (which moves it home) before it backs off,
//! and every closed-model exit returns its terminal to thinking through
//! `Lp::think`.
//!
//! [`QueryPhase`]: crate::query::QueryPhase

/// A protocol-level stage of a query's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Drawn at a terminal, not yet placed anywhere.
    Submitted,
    /// A dispatch frame is on the ring toward a remote execution site.
    InFlight,
    /// Resident at an execution site's stations (disk or CPU).
    Executing,
    /// Results are traveling home (or logged awaiting retransmission).
    Returning,
    /// Waiting out a jittered backoff before another attempt.
    Backoff,
    /// Results reached the terminal. Terminal stage.
    Completed,
    /// Shed by the resilience layer: admission drop or deadline budget
    /// exhaustion. Terminal stage; the loss is *reported* (metrics).
    Abandoned,
    /// Fault retry budget exhausted. Terminal stage; reported.
    Lost,
    /// A duplicate hedge attempt spawned by the redundancy layer: the
    /// dispatch frame toward a redundant site (the duplicate's analogue
    /// of `InFlight`). A second lifecycle root — duplicates are born at
    /// the home site's table, never submitted by a terminal.
    Hedged,
    /// A hedge attempt reaped by first-win cancellation (explicit cancel
    /// frame, flagged mid-service, or the completion-time winner guard).
    /// Terminal stage for the *attempt*; the logical query completes
    /// through its group's winner.
    Cancelled,
}

impl Stage {
    /// Whether the stage is terminal (no outgoing transitions).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Stage::Completed | Stage::Abandoned | Stage::Lost | Stage::Cancelled
        )
    }
}

/// Every transition the allocation & resilience protocols permit.
///
/// The non-obvious edges, with the mechanism that takes them:
///
/// - `Submitted → Backoff`: admission reject, or every holder of the
///   query's relation is down.
/// - `Submitted → Abandoned`: admission drop (shed at the door).
/// - `InFlight → Backoff`: the dispatch frame was lost, crossed an
///   active partition boundary, arrived at a crashed site, or arrived
///   with the deadline already expired and reallocation budget left.
/// - `InFlight → Abandoned`: expired on the wire, budget exhausted.
/// - `Executing → Backoff`: site crash drained the stations, or a
///   deadline cancellation with reallocation budget left.
/// - `Returning → Backoff`: the result frame was lost or undeliverable;
///   the execution site keeps the results logged for retransmission.
/// - `Backoff → Backoff`: the retry found the home site still down, no
///   reachable holder, or was rejected at admission again.
/// - `Backoff → Abandoned` / `Backoff → Lost`: the admission
///   reject-retry budget (`AdmissionSpec::max_retries`) or the fault
///   retry budget (`FaultSpec::max_retries`) ran out.
/// - `Hedged → Executing`: a duplicate's dispatch frame delivered at its
///   redundant site (or the duplicate targeted the home site itself and
///   started at once).
/// - `Hedged → Cancelled`: the duplicate's frame was lost, crossed a
///   partition, reached a crashed site, or was flagged in flight by a
///   first-win cancellation and reaped at delivery.
/// - `InFlight → Cancelled` / `Executing → Cancelled` / `Backoff →
///   Cancelled`: a losing attempt (primary or duplicate) reaped
///   phase-exactly after another group member won — by explicit cancel
///   frame, the mid-service flag, or the completion-time winner guard.
pub const ALLOWED: &[(Stage, Stage)] = &[
    (Stage::Submitted, Stage::InFlight),
    (Stage::Submitted, Stage::Executing),
    (Stage::Submitted, Stage::Backoff),
    (Stage::Submitted, Stage::Abandoned),
    (Stage::InFlight, Stage::Executing),
    (Stage::InFlight, Stage::Backoff),
    (Stage::InFlight, Stage::Abandoned),
    (Stage::Executing, Stage::Returning),
    (Stage::Executing, Stage::Completed),
    (Stage::Executing, Stage::Backoff),
    (Stage::Executing, Stage::Abandoned),
    (Stage::Returning, Stage::Completed),
    (Stage::Returning, Stage::Backoff),
    (Stage::Returning, Stage::Lost),
    (Stage::Backoff, Stage::InFlight),
    (Stage::Backoff, Stage::Executing),
    (Stage::Backoff, Stage::Backoff),
    (Stage::Backoff, Stage::Abandoned),
    (Stage::Backoff, Stage::Lost),
    (Stage::Hedged, Stage::Executing),
    (Stage::Hedged, Stage::Cancelled),
    (Stage::InFlight, Stage::Cancelled),
    (Stage::Executing, Stage::Cancelled),
    (Stage::Backoff, Stage::Cancelled),
];

/// Whether the protocol permits a `from → to` transition.
#[must_use]
pub fn allowed(from: Stage, to: Stage) -> bool {
    ALLOWED.contains(&(from, to))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: [Stage; 10] = [
        Stage::Submitted,
        Stage::InFlight,
        Stage::Executing,
        Stage::Returning,
        Stage::Backoff,
        Stage::Completed,
        Stage::Abandoned,
        Stage::Lost,
        Stage::Hedged,
        Stage::Cancelled,
    ];

    #[test]
    fn terminal_stages_have_no_outgoing_edges() {
        for &(from, _) in ALLOWED {
            assert!(!from.is_terminal(), "{from:?} is terminal but has an edge");
        }
    }

    #[test]
    fn edges_are_unique() {
        for (i, a) in ALLOWED.iter().enumerate() {
            for b in &ALLOWED[i + 1..] {
                assert_ne!(a, b, "duplicate edge {a:?}");
            }
        }
    }

    #[test]
    fn every_stage_can_reach_a_terminal() {
        // Fixed-point reachability over the (tiny) edge set: a query can
        // never be wedged in a stage with no path to completion or a
        // reported loss.
        let mut reaches: Vec<Stage> = STAGES.iter().copied().filter(|s| s.is_terminal()).collect();
        loop {
            let mut grew = false;
            for &(from, to) in ALLOWED {
                if reaches.contains(&to) && !reaches.contains(&from) {
                    reaches.push(from);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for s in STAGES {
            assert!(reaches.contains(&s), "{s:?} cannot reach a terminal stage");
        }
    }

    #[test]
    fn roots_have_no_incoming_edges() {
        // Nothing transitions *into* Submitted or Hedged: a query is
        // submitted exactly once (a retry resubmits from Backoff, not
        // Submitted), and a duplicate hedge attempt is spawned exactly
        // once at dispatch time — a reaped duplicate is never revived.
        for &(_, to) in ALLOWED {
            assert_ne!(to, Stage::Submitted);
            assert_ne!(to, Stage::Hedged);
        }
    }
}
