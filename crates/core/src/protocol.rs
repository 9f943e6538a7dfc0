//! The concurrency protocols of the engine, isolated from their drivers.
//!
//! Every piece of the workspace whose correctness depends on the order of
//! atomic (or atomic-like durable) operations is defined here, generic
//! over its storage cell, so the bounded model checker in
//! `tests/model_check.rs` can drive the *same code* (not a transcription
//! of it) through every interleaving of those operations via the vendored
//! `interleave` scheduler, while production runs it on plain `std` atomics
//! or real files. Five protocols live here:
//!
//! 1. the **deterministic tie-break** ([`score_order`]): the champion is
//!    the minimum under `(rmse, candidate_index)` order, so exact RMSE ties
//!    resolve to the earlier candidate regardless of which worker finished
//!    first;
//! 2. the **wave-commit ledger** ([`commit_wave`] over [`WaveLedger`]) —
//!    the estate scheduler's record-then-publish checkpoint discipline: a
//!    kill between (or during) waves can force refits but can never
//!    publish a job whose champion is not durable;
//! 3. the **shutdown drain gate** ([`request_shutdown`] / [`serve_one`]
//!    over [`DrainFlag`]) — the serve daemon's flag-then-wake trigger, one
//!    wake per worker, and serve-then-check workers, so a request that
//!    wins the accept race against shutdown is served, never dropped, and
//!    no worker is left parked in `accept`;
//! 4. the **alert re-fire hysteresis** ([`alert_refire`]) — the
//!    de-duplication decision of the alert engine, taken under the engine
//!    mutex;
//! 5. the **ticket dispenser** ([`claim_ticket`] over [`TicketCounter`])
//!    and the **lockstep shape and refill** rules ([`lockstep_shape`],
//!    [`lockstep_claims`]) — the evaluator's global unit queue and the
//!    batch-wide pair ticket its lockstep groups share, under which every
//!    `(task, chain)` pair is claimed exactly once whichever group gets
//!    there first; the fleet's plan phase drains its jobs through the same
//!    dispenser.

use crate::advisor::BreachSeverity;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// --- Protocol 1: the deterministic tie-break ---

/// The deterministic champion order: best RMSE first under the total f64
/// order (NaN greatest, so a poisoned score can never win), exact ties
/// broken by candidate index so the earlier grid entry wins regardless of
/// worker scheduling.
pub fn score_order(a_rmse: f64, a_index: usize, b_rmse: f64, b_index: usize) -> CmpOrdering {
    dwcp_math::total_cmp_f64(a_rmse, b_rmse).then(a_index.cmp(&b_index))
}

// --- Protocol 2: the wave-commit ledger ---

/// The two durable operations of the estate scheduler's checkpoint
/// protocol. In production (`fleet.rs`) `record` stores one champion into
/// the sharded repository and `publish` flushes the shards and appends the
/// wave's keys to the checkpoint file; in the model checker both are
/// instrumented atomics.
pub trait WaveLedger {
    /// Make slot `slot`'s champion durable.
    fn record(&self, slot: usize);
    /// Publish that the wave's `count` slots are committed.
    fn publish(&self, count: usize);
}

/// Commit one wave of `count` jobs: record every slot, **then** publish.
/// Record-then-publish is the entire crash-safety argument — whatever the
/// published state claims committed has already been made durable, so a
/// kill at any point forces at most a refit of unpublished work and can
/// never lose a published champion. `tests/model_check.rs` proves the
/// ordering holds under every interleaving with a concurrent resume
/// observer, and that the inverted (publish-first) variant is caught.
pub fn commit_wave<L: WaveLedger>(ledger: &L, count: usize) {
    for slot in 0..count {
        ledger.record(slot);
    }
    ledger.publish(count);
}

/// Resume arithmetic shared by the model check and the scheduler's
/// reporting: of `total` jobs with `committed` already published, how many
/// are skipped and how many must (re)fit. A stale over-long checkpoint is
/// clamped; skip + refit always partitions the job list, so no job is
/// both skipped and refit (never double-fit) and none falls through.
pub fn resume_split(total: usize, committed: usize) -> (usize, usize) {
    let skipped = committed.min(total);
    (skipped, total - skipped)
}

// --- Protocol 3: the shutdown drain gate ---

/// The stop flag shared by the serve daemon's workers and its shutdown
/// trigger. Production uses a plain [`AtomicBool`]; the model checker an
/// instrumented one.
pub trait DrainFlag {
    /// Whether shutdown has been requested.
    fn is_set(&self) -> bool;
    /// Request shutdown.
    fn set(&self);
}

impl DrainFlag for AtomicBool {
    fn is_set(&self) -> bool {
        self.load(Ordering::SeqCst)
    }

    fn set(&self) {
        self.store(true, Ordering::SeqCst)
    }
}

/// Trigger side of the drain gate: set the flag **before** any wake, then
/// run `wake` (the self-connect that unblocks one worker parked in
/// `accept`) once for each of the `workers` workers. A worker woken by a
/// wake connection is therefore guaranteed to observe the stop, and every
/// worker still parked gets a wake of its own: a worker consumes at most
/// one wake, since it stops after it. The inverted order could wake a
/// worker that parks in `accept` again; fewer wakes than workers can leave
/// a worker parked for good (one wake for two workers is seeded and
/// caught in `tests/model_check.rs`).
pub fn request_shutdown<F: DrainFlag>(flag: &F, workers: usize, mut wake: impl FnMut()) {
    flag.set();
    for _ in 0..workers {
        wake();
    }
}

/// Worker side of the drain gate, one accepted connection: `serve` it
/// **before** consulting the flag, then report whether the worker should
/// stop. Serve-then-check means a real request that won the accept race
/// against shutdown is answered, never dropped — the check-then-drop shape
/// is re-seeded and caught in `tests/model_check.rs`.
pub fn serve_one<F: DrainFlag>(flag: &F, serve: impl FnOnce()) -> bool {
    serve();
    flag.is_set()
}

// --- Protocol 4: alert re-fire hysteresis ---

/// The alert engine's re-fire decision (`alerts.rs` firing policy): a
/// fresh breach observation fires when there is no last-fired state, when
/// the breach moved to an earlier horizon step, or when it escalated from
/// [`BreachSeverity::Possible`] to [`BreachSeverity::Expected`]. A breach
/// that merely persists unchanged stays silent.
pub fn alert_refire(
    prev: Option<(usize, BreachSeverity)>,
    step: usize,
    severity: BreachSeverity,
) -> bool {
    match prev {
        None => true,
        Some((prev_step, prev_severity)) => {
            step < prev_step
                || (prev_severity == BreachSeverity::Possible
                    && severity == BreachSeverity::Expected)
        }
    }
}

// --- Protocol 5: ticket dispensers and lockstep refill ---

/// The one capability a ticket dispenser needs from its counter: an atomic
/// fetch-and-increment. Production uses a plain [`AtomicUsize`]; the model
/// checker an instrumented one.
pub trait TicketCounter {
    /// Take the next ticket: the counter's value before the increment.
    fn take_ticket(&self) -> usize;
}

impl TicketCounter for AtomicUsize {
    fn take_ticket(&self) -> usize {
        // Relaxed suffices: the ticket number is the whole message, and the
        // items it indexes are immutable for the dispenser's lifetime.
        self.fetch_add(1, Ordering::Relaxed)
    }
}

/// Claim the next of `len` items from a shared dispenser: every item is
/// handed out exactly once across all claimants, and `None` once the
/// dispenser is drained. The evaluator drains its global unit queue and
/// the batch's lockstep pair ticket through this one function, and the
/// fleet's plan phase its job list.
pub fn claim_ticket<C: TicketCounter>(counter: &C, len: usize) -> Option<usize> {
    let ticket = counter.take_ticket();
    (ticket < len).then_some(ticket)
}

/// The lockstep groups of a batch with `pairs` batchable `(task, chain)`
/// pairs on `workers` workers, as `(groups, width)`: one group per worker
/// but never more groups than pairs, each holding at most an even split of
/// the pairs and never more than `max_width` live chains. With one task
/// this is the per-grid split (12 chains on 2 workers: 2 groups of 6); an
/// estate wave of thousands of chains gets one `max_width`-wide group per
/// worker.
pub fn lockstep_shape(workers: usize, pairs: usize, max_width: usize) -> (usize, usize) {
    let groups = workers.min(pairs).max(1);
    (groups, pairs.div_ceil(groups).min(max_width))
}

/// How many chains a lockstep group claims at the top of a round, holding
/// `live` open chains after `drained` finished in the last round, under a
/// width cap of `width` out of `total` batchable chains. A group whose cap
/// covers every chain claims them all up front; a narrower group replaces
/// each drained chain and grows by one chain per round until it reaches
/// the cap, so groups sharing one ticket balance by the progress they make.
pub fn lockstep_claims(live: usize, drained: usize, width: usize, total: usize) -> usize {
    let room = width.saturating_sub(live);
    if width >= total {
        room
    } else {
        room.min(drained + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_break_prefers_earlier_index() {
        assert_eq!(score_order(1.0, 3, 1.0, 7), CmpOrdering::Less);
        assert_eq!(score_order(1.0, 7, 1.0, 3), CmpOrdering::Greater);
        assert_eq!(score_order(0.5, 9, 1.0, 0), CmpOrdering::Less);
    }

    #[test]
    fn nan_sorts_after_every_real_score() {
        assert_eq!(score_order(f64::NAN, 0, 1e12, 99), CmpOrdering::Greater);
        assert_eq!(score_order(1e12, 99, f64::NAN, 0), CmpOrdering::Less);
    }

    #[test]
    fn commit_wave_records_every_slot_before_publishing() {
        use std::cell::RefCell;
        #[derive(Default)]
        struct Trace(RefCell<Vec<String>>);
        impl WaveLedger for Trace {
            fn record(&self, slot: usize) {
                self.0.borrow_mut().push(format!("record {slot}"));
            }
            fn publish(&self, count: usize) {
                self.0.borrow_mut().push(format!("publish {count}"));
            }
        }
        let ledger = Trace::default();
        commit_wave(&ledger, 3);
        assert_eq!(
            *ledger.0.borrow(),
            vec!["record 0", "record 1", "record 2", "publish 3"]
        );
        let empty = Trace::default();
        commit_wave(&empty, 0);
        assert_eq!(*empty.0.borrow(), vec!["publish 0"]);
    }

    #[test]
    fn resume_split_partitions_and_clamps() {
        assert_eq!(resume_split(10, 4), (4, 6));
        assert_eq!(resume_split(10, 0), (0, 10));
        assert_eq!(resume_split(10, 10), (10, 0));
        // A stale checkpoint claiming more than the estate holds clamps.
        assert_eq!(resume_split(10, 99), (10, 0));
        for committed in 0..12 {
            let (skip, refit) = resume_split(10, committed);
            assert_eq!(skip + refit, 10);
        }
    }

    #[test]
    fn drain_gate_orders_flag_before_wakes_and_serve_before_check() {
        let flag = AtomicBool::new(false);
        let mut wakes_with_flag_set = 0;
        request_shutdown(&flag, 3, || {
            wakes_with_flag_set += usize::from(flag.is_set())
        });
        assert_eq!(wakes_with_flag_set, 3, "a wake ran before the flag was set");

        // The accepted connection is served even when the flag is already
        // up (dropping it now would lose a request); the gate just tells
        // the worker to stop afterwards.
        let mut served = false;
        assert!(serve_one(&flag, || served = true));
        assert!(served);

        // Flag down: serve and keep accepting.
        let open = AtomicBool::new(false);
        assert!(!serve_one(&open, || {}));
    }

    #[test]
    fn refire_decision_matches_the_firing_policy() {
        use BreachSeverity::{Expected, Possible};
        assert!(alert_refire(None, 5, Possible));
        assert!(alert_refire(None, 1, Expected)); // first fire, any severity
        assert!(alert_refire(Some((5, Possible)), 3, Possible)); // earlier
        assert!(alert_refire(Some((5, Possible)), 5, Expected)); // escalated
        assert!(!alert_refire(Some((5, Possible)), 5, Possible)); // unchanged
        assert!(!alert_refire(Some((5, Possible)), 7, Possible)); // later
        assert!(!alert_refire(Some((5, Expected)), 5, Possible)); // de-escalated
        assert!(!alert_refire(Some((5, Expected)), 6, Expected)); // later
    }

    #[test]
    fn ticket_dispenser_hands_out_each_item_once_then_drains() {
        let counter = AtomicUsize::new(0);
        let claimed: Vec<Option<usize>> = (0..5).map(|_| claim_ticket(&counter, 3)).collect();
        assert_eq!(claimed, vec![Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn lockstep_shape_splits_evenly_up_to_the_width_cap() {
        // One task: the per-grid split.
        assert_eq!(lockstep_shape(2, 12, 12), (2, 6));
        assert_eq!(lockstep_shape(2, 3, 12), (2, 2));
        assert_eq!(lockstep_shape(8, 3, 12), (3, 1));
        // A one-thread grid with more than `max_width` chains narrows.
        assert_eq!(lockstep_shape(1, 22, 12), (1, 12));
        // An estate wave: one full-width group per worker.
        assert_eq!(lockstep_shape(2, 3072, 12), (2, 12));
    }

    #[test]
    fn lockstep_claims_ramp_narrow_groups_and_fill_wide_ones() {
        // A group as wide as the whole set claims everything up front.
        assert_eq!(lockstep_claims(0, 0, 5, 5), 5);
        assert_eq!(lockstep_claims(3, 2, 5, 5), 2);
        // A narrower group grows by one chain per round...
        assert_eq!(lockstep_claims(0, 0, 3, 6), 1);
        assert_eq!(lockstep_claims(2, 0, 3, 6), 1);
        // ...replaces what drained on top of that...
        assert_eq!(lockstep_claims(1, 1, 3, 6), 2);
        // ...and never passes its width cap.
        assert_eq!(lockstep_claims(3, 0, 3, 6), 0);
        assert_eq!(lockstep_claims(2, 4, 3, 6), 1);
    }
}
