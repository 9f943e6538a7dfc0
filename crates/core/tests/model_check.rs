//! Bounded model checking of the engine's concurrency protocols.
//!
//! These tests drive the *production* protocol code in
//! [`dwcp_core::protocol`] — the ticket dispenser and lockstep refill
//! rules, the wave-commit ledger and the shutdown drain gate — through
//! **every** interleaving of their atomic operations (up to a schedule
//! budget) using the vendored `interleave` scheduler. Shared state lives
//! in instrumented atomics whose every operation is a scheduling point, so
//! the exploration enumerates every serialisation of the traffic the
//! concurrent workers can generate.
//!
//! What is proven (within the bounds):
//!
//! * the `fetch_add` work queue dispenses each candidate exactly once;
//! * two lockstep groups refilling from one batch-wide pair ticket over
//!   three tasks' chains ([`claim_ticket`] under the [`lockstep_shape`]
//!   and [`lockstep_claims`] rules) run every `(task, chain)` pair exactly
//!   once beside a worker draining the global unit queue — while a
//!   load-then-store dispenser, and a group that drops a pair drawn from a
//!   task other than its last claim's, are caught;
//! * the estate scheduler's wave checkpoint (`commit_wave`) never
//!   publishes a slot whose record is not durable, at every kill point —
//!   and the inverted publish-first variant is *caught* by exploration;
//! * the serve daemon's shutdown drain gate, over two accepting workers,
//!   never drops a request that won the accept race, a worker woken by a
//!   shutdown self-connect always observes the stop flag, and no worker
//!   is left parked in `accept` — while a check-then-drop worker and a
//!   trigger that makes one wake for two workers are caught.

use dwcp_core::protocol::{
    claim_ticket, commit_wave, lockstep_claims, lockstep_shape, request_shutdown, resume_split,
    serve_one, DrainFlag, TicketCounter, WaveLedger,
};
use std::sync::Arc;

/// Exhaustive-exploration budget. Every scenario below asserts
/// `report.complete`, so this is a ceiling, not a sample size: if the
/// state space outgrew it the test would fail loudly rather than pass on
/// a subset.
const BUDGET: usize = 500_000;

#[test]
fn work_queue_dispenses_each_candidate_exactly_once() {
    // The evaluator's unit queue is a fetch_add ticket dispenser
    // (`claim_ticket`). Under every interleaving of two workers pulling
    // from a 3-item queue, each item is claimed exactly once and nothing
    // is skipped.
    const ITEMS: usize = 3;
    let report = interleave::explore(BUDGET, |sch| {
        let next = Arc::new(CheckedTicket(interleave::AtomicUsize::new(0)));
        let claims = claim_record(ITEMS);
        for _ in 0..2 {
            let next = Arc::clone(&next);
            let claims = Arc::clone(&claims);
            sch.thread(move || {
                while let Some(ticket) = claim_ticket(&*next, ITEMS) {
                    record_claim(&claims, ticket);
                }
            });
        }
        sch.check(move || {
            for (i, slot) in claims.iter().enumerate() {
                let n = slot.load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(n, 1, "candidate {i} not claimed exactly once");
            }
        });
    });
    assert!(report.complete, "state space exceeded the budget");
}

// --- Lockstep refill (evaluate_fleet's batch-wide pair ticket) ---

/// The instrumented ticket counter: `interleave::AtomicUsize` behind the
/// same trait the evaluator's `std` counters implement.
struct CheckedTicket(interleave::AtomicUsize);

impl TicketCounter for CheckedTicket {
    fn take_ticket(&self) -> usize {
        self.0.fetch_add(1)
    }
}

/// Per-item claim counts. Plain `std` atomics, so recording a claim is not
/// a scheduling point: only the dispenser traffic is explored.
fn claim_record(len: usize) -> Arc<Vec<std::sync::atomic::AtomicUsize>> {
    Arc::new(
        (0..len)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect(),
    )
}

fn record_claim(record: &[std::sync::atomic::AtomicUsize], item: usize) {
    if let Some(slot) = record.get(item) {
        slot.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A batch's batchable chains as `(task, rounds)` pairs in task order:
/// three tasks with uneven chain counts and lengths.
const PAIRS: [(usize, usize); 4] = [(0, 2), (1, 1), (1, 3), (2, 1)];
/// The evaluator's width cap (`LOCKSTEP_WIDTH`).
const LOCKSTEP_WIDTH: usize = 12;

/// How a model group treats the pairs it draws.
#[derive(Clone, Copy)]
enum Claiming {
    /// As `run_chain_group` does: run every pair it draws.
    Every,
    /// The seeded bug: drop a drawn pair whose task differs from the
    /// group's previous claim, as a per-task group would.
    DropCrossTask,
}

/// One lockstep group, as `run_chain_group` schedules it: at the top of
/// each round claim `lockstep_claims` pairs from the batch's ticket, run
/// one round of every live chain, and drop the chains that drained.
fn lockstep_group(
    ticket: &CheckedTicket,
    pairs: &[(usize, usize)],
    width: usize,
    record: &[std::sync::atomic::AtomicUsize],
    claiming: Claiming,
) {
    let mut live: Vec<usize> = Vec::new();
    let (mut drained, mut exhausted) = (0, false);
    let mut last_task: Option<usize> = None;
    loop {
        if !exhausted {
            for _ in 0..lockstep_claims(live.len(), drained, width, pairs.len()) {
                let Some(pair) = claim_ticket(ticket, pairs.len()) else {
                    exhausted = true;
                    break;
                };
                let (task, rounds) = pairs.get(pair).copied().unwrap_or((0, 1));
                let switched = last_task.is_some_and(|last| last != task);
                last_task = Some(task);
                if switched && matches!(claiming, Claiming::DropCrossTask) {
                    continue;
                }
                record_claim(record, pair);
                live.push(rounds);
            }
        }
        if live.is_empty() {
            if exhausted {
                return;
            }
            continue;
        }
        for left in live.iter_mut() {
            *left -= 1;
        }
        let before = live.len();
        live.retain(|&left| left > 0);
        drained = before - live.len();
    }
}

/// Two lockstep groups, shaped by the evaluator's rule, drain one pair
/// ticket over `PAIRS` while a third worker drains the unit queue; the
/// check requires every pair and every unit to run exactly once.
fn explore_batch(claiming: Claiming) -> interleave::Report {
    const UNITS: usize = 1;
    let (groups, width) = lockstep_shape(2, PAIRS.len(), LOCKSTEP_WIDTH);
    assert_eq!((groups, width), (2, 2));
    interleave::explore(BUDGET, |sch| {
        let ticket = Arc::new(CheckedTicket(interleave::AtomicUsize::new(0)));
        let queue = Arc::new(CheckedTicket(interleave::AtomicUsize::new(0)));
        let pairs = claim_record(PAIRS.len());
        let units = claim_record(UNITS);
        for _ in 0..groups {
            let ticket = Arc::clone(&ticket);
            let pairs = Arc::clone(&pairs);
            sch.thread(move || lockstep_group(&ticket, &PAIRS, width, &pairs, claiming));
        }
        let worker_units = Arc::clone(&units);
        sch.thread(move || {
            while let Some(unit) = claim_ticket(&*queue, UNITS) {
                record_claim(&worker_units, unit);
            }
        });
        sch.check(move || {
            for (i, slot) in pairs.iter().enumerate() {
                let n = slot.load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(n, 1, "pair {i} {:?} ran {n} times", PAIRS.get(i));
            }
            for (i, slot) in units.iter().enumerate() {
                let n = slot.load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(n, 1, "unit {i} claimed {n} times");
            }
        });
    })
}

#[test]
fn lockstep_refill_claims_every_chain_exactly_once() {
    // Two lockstep groups split three tasks' four chains (uneven lengths,
    // width 2 from the evaluator's rule) through the batch's pair ticket
    // while a third worker drains the global unit queue. Under every
    // interleaving of the two dispensers, each `(task, chain)` pair and
    // each unit runs exactly once and none is skipped.
    let report = explore_batch(Claiming::Every);
    assert!(report.complete, "state space exceeded the budget");
    assert!(report.schedules_explored >= 2);
}

#[test]
fn cross_task_ticket_drop_is_caught_by_exploration() {
    // The seeded regression: a group that still thinks per task drops a
    // pair it drew from a different task than its previous claim. The
    // pair is then skipped, and exploration must find it.
    let caught = std::panic::catch_unwind(|| explore_batch(Claiming::DropCrossTask));
    assert!(
        caught.is_err(),
        "exploration failed to catch the dropped cross-task pair"
    );
}

#[test]
fn load_then_store_ticket_is_caught_by_exploration() {
    // The seeded regression: a dispenser that reads the ticket and writes
    // it back incremented in two steps instead of one `fetch_add`. Two
    // groups can then read the same ticket, and exploration must find the
    // schedule where a chain is run twice.
    struct TornTicket(interleave::AtomicUsize);
    impl TicketCounter for TornTicket {
        fn take_ticket(&self) -> usize {
            let ticket = self.0.load();
            self.0.store(ticket + 1);
            ticket
        }
    }
    const CHAINS: usize = 2;
    let caught = std::panic::catch_unwind(|| {
        interleave::explore(BUDGET, |sch| {
            let ticket = Arc::new(TornTicket(interleave::AtomicUsize::new(0)));
            let chains = claim_record(CHAINS);
            for _ in 0..2 {
                let ticket = Arc::clone(&ticket);
                let chains = Arc::clone(&chains);
                sch.thread(move || {
                    while let Some(chain) = claim_ticket(&*ticket, CHAINS) {
                        record_claim(&chains, chain);
                    }
                });
            }
            sch.check(move || {
                for (i, slot) in chains.iter().enumerate() {
                    let n = slot.load(std::sync::atomic::Ordering::Relaxed);
                    assert_eq!(n, 1, "chain {i} claimed {n} times");
                }
            });
        })
    });
    assert!(
        caught.is_err(),
        "exploration failed to catch the load-then-store dispenser"
    );
}

// --- Wave-commit ledger (EstateScheduler checkpoint) ---

/// Instrumented ledger: one durability flag per slot plus the published
/// watermark, every operation a scheduling point. This is the model of
/// `fleet.rs`'s `RepoLedger` (repository store = record, checkpoint
/// append = publish) with a concurrent observer standing in for a
/// kill-and-resume at an arbitrary instant.
struct CheckedLedger {
    recorded: Vec<interleave::AtomicU64>,
    committed: interleave::AtomicU64,
}

impl CheckedLedger {
    fn new(slots: usize) -> Self {
        CheckedLedger {
            recorded: (0..slots).map(|_| interleave::AtomicU64::new(0)).collect(),
            committed: interleave::AtomicU64::new(0),
        }
    }
}

impl WaveLedger for CheckedLedger {
    fn record(&self, slot: usize) {
        if let Some(flag) = self.recorded.get(slot) {
            flag.store(1);
        }
    }

    fn publish(&self, count: usize) {
        self.committed.store(count as u64);
    }
}

/// The observer both tests share: read the published watermark at an
/// arbitrary scheduling point (≙ resume after a kill at that instant) and
/// demand every published slot is durable, with the resume split
/// partitioning the job list (no job lost, none double-fit).
fn resume_observer(ledger: &CheckedLedger, total: usize) {
    let committed = ledger.committed.load() as usize;
    let (skip, refit) = resume_split(total, committed);
    assert_eq!(skip + refit, total, "resume must partition the job list");
    for slot in 0..skip {
        assert_eq!(
            ledger.recorded.get(slot).map(|f| f.load()),
            Some(1),
            "published slot {slot} has no durable record"
        );
    }
}

#[test]
fn wave_commit_never_publishes_an_undurable_slot() {
    const SLOTS: usize = 2;
    let report = interleave::explore(BUDGET, |sch| {
        let ledger = Arc::new(CheckedLedger::new(SLOTS));
        let committer = Arc::clone(&ledger);
        sch.thread(move || commit_wave(&*committer, SLOTS));
        let observer = Arc::clone(&ledger);
        sch.thread(move || resume_observer(&observer, SLOTS));
    });
    assert!(report.complete, "state space exceeded the budget");
    assert!(report.schedules_explored >= 2);
}

#[test]
fn torn_wave_commit_is_caught_by_exploration() {
    // The seeded regression: publish the watermark *before* recording —
    // exactly the bug `commit_wave`'s ordering exists to prevent. The
    // explorer must find an interleaving where the observer resumes
    // between publish and record and sees a committed-but-lost champion.
    fn torn_commit(ledger: &CheckedLedger, count: usize) {
        ledger.publish(count);
        for slot in 0..count {
            ledger.record(slot);
        }
    }
    const SLOTS: usize = 2;
    let caught = std::panic::catch_unwind(|| {
        interleave::explore(BUDGET, |sch| {
            let ledger = Arc::new(CheckedLedger::new(SLOTS));
            let committer = Arc::clone(&ledger);
            sch.thread(move || torn_commit(&committer, SLOTS));
            let observer = Arc::clone(&ledger);
            sch.thread(move || resume_observer(&observer, SLOTS));
        })
    });
    assert!(
        caught.is_err(),
        "exploration failed to catch the publish-before-record regression"
    );
}

// --- Shutdown drain gate (serve daemon's accepting workers) ---

/// The instrumented stop flag: `interleave::AtomicBool` behind the same
/// trait the daemon's `std` flag implements.
#[derive(Debug, Default)]
struct CheckedFlag(interleave::AtomicBool);

impl DrainFlag for CheckedFlag {
    fn is_set(&self) -> bool {
        self.0.load()
    }

    fn set(&self) {
        self.0.store(true)
    }
}

/// The daemon's worker count in these scenarios.
const WORKERS: usize = 2;

/// How a model worker treats a connection it accepted.
#[derive(Clone, Copy)]
enum Gate {
    /// As `worker_loop` does: `serve_one`, serve then check the flag.
    ServeThenCheck,
    /// The seeded bug: consult the flag first and drop the accepted
    /// connection if it is up.
    CheckThenDrop,
}

impl Gate {
    /// Handle one accepted connection; returns whether the worker stops.
    fn handle(self, flag: &CheckedFlag, serve: impl FnOnce()) -> bool {
        match self {
            Gate::ServeThenCheck => serve_one(flag, serve),
            Gate::CheckThenDrop => {
                if flag.is_set() {
                    return true; // drops the accepted stream on the floor
                }
                serve();
                false
            }
        }
    }
}

/// One model worker. With `in_flight` it has just accepted the real
/// request as shutdown triggers and handles it first; then it accepts
/// from the backlog, which holds only the trigger's wake connections. A
/// worker that finds the backlog empty stays parked in `accept` (blocking
/// is not modelled: it is counted in `parked` and its thread ends).
fn model_worker(
    flag: &CheckedFlag,
    backlog: &interleave::AtomicU64,
    in_flight: bool,
    gate: Gate,
    served: &std::sync::atomic::AtomicU64,
    parked: &std::sync::atomic::AtomicU64,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let serve_request = || {
        served.fetch_add(1, Relaxed);
    };
    if in_flight && gate.handle(flag, serve_request) {
        return;
    }
    loop {
        let queued = backlog.load();
        if queued == 0 {
            parked.fetch_add(1, Relaxed);
            return;
        }
        if backlog.compare_exchange(queued, queued - 1).is_ok() {
            assert!(
                gate.handle(flag, || {}),
                "worker woken by a wake connection did not observe the stop flag"
            );
            return;
        }
    }
}

/// Two workers and a shutdown trigger making `wakes` self-connects; with
/// `in_flight` the first worker holds a real request accepted just as
/// shutdown triggers. Checked after every schedule: the real request was
/// served, and the workers parked in `accept` number no more than the
/// wake connections left unaccepted — each of those wakes one parked
/// worker, which then observes the flag, so the daemon drains.
fn explore_drain(in_flight: bool, gate: Gate, wakes: usize) -> interleave::Report {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    interleave::explore(BUDGET, |sch| {
        let flag = Arc::new(CheckedFlag::default());
        let backlog = Arc::new(interleave::AtomicU64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        let parked = Arc::new(AtomicU64::new(0));

        let (trigger_flag, trigger_backlog) = (Arc::clone(&flag), Arc::clone(&backlog));
        sch.thread(move || {
            request_shutdown(&*trigger_flag, wakes, || {
                trigger_backlog.fetch_add(1);
            })
        });
        for worker in 0..WORKERS {
            let (flag, backlog) = (Arc::clone(&flag), Arc::clone(&backlog));
            let (served, parked) = (Arc::clone(&served), Arc::clone(&parked));
            let in_flight = in_flight && worker == 0;
            sch.thread(move || model_worker(&flag, &backlog, in_flight, gate, &served, &parked));
        }
        sch.check(move || {
            let want = u64::from(in_flight);
            assert_eq!(served.load(Relaxed), want, "accepted request was dropped");
            let (parked, left) = (parked.load(Relaxed), backlog.load());
            assert!(
                parked <= left,
                "{parked} worker(s) left parked in accept with {left} wake(s) queued"
            );
        });
    })
}

#[test]
fn drain_gate_never_drops_a_request_that_won_the_accept_race() {
    // One real request has been accepted by a worker just as shutdown
    // triggers, while the other worker waits in `accept`. Under every
    // interleaving of the flag store, the wakes and both workers'
    // serve-then-check, the request is served and both workers exit.
    let report = explore_drain(true, Gate::ServeThenCheck, WORKERS);
    assert!(report.complete, "state space exceeded the budget");
    assert!(report.schedules_explored >= 2);
}

#[test]
fn drain_wake_always_observes_the_stop_flag() {
    // Two idle workers: the trigger's flag-before-wake ordering means a
    // worker unblocked by a self-connect sees the flag already set (else
    // it would park in `accept` again), and one wake per worker leaves
    // none of them parked.
    let report = explore_drain(false, Gate::ServeThenCheck, WORKERS);
    assert!(report.complete, "state space exceeded the budget");
    assert!(report.schedules_explored >= 2);
}

#[test]
fn check_then_drop_acceptor_shape_is_caught_by_exploration() {
    // The seeded regression: consult the flag first, drop the accepted
    // stream if it is up. Exploration must find the schedule where the
    // trigger's store lands between the accept and the check, losing the
    // request.
    let caught = std::panic::catch_unwind(|| explore_drain(true, Gate::CheckThenDrop, WORKERS));
    assert!(
        caught.is_err(),
        "exploration failed to catch the check-then-drop worker"
    );
}

#[test]
fn one_wake_for_two_workers_is_caught_by_exploration() {
    // The seeded regression: a trigger that self-connects once whatever
    // the worker count. Exploration must find the schedule where both
    // workers park in `accept` before the trigger runs, so the one wake
    // frees one and strands the other.
    let caught = std::panic::catch_unwind(|| explore_drain(false, Gate::ServeThenCheck, 1));
    assert!(
        caught.is_err(),
        "exploration failed to catch one wake for two workers"
    );
}
