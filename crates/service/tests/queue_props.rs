//! Property tests for the admission queue + service counters, driven by
//! random submit/cancel/dispatch interleavings. The counters come from the
//! daemon's own lifecycle transition, `JobRecord::enter` on a
//! [`JobTable`], exactly as the server drives it.
//!
//! The invariants under test are the ones the daemon's metrics endpoint
//! advertises:
//!
//! * no accepted job is lost, and none runs twice;
//! * dispatch order is FIFO among the jobs that stayed queued;
//! * queue depth always equals admissions − dispatches − cancellations,
//!   and [`ServiceStats::in_system`] always equals queued + running.

use std::collections::HashSet;

use mnpu_service::{Admission, AdmissionQueue, JobTable, ServiceStats};
use mnpu_trace::JobPhase;
use proptest::prelude::*;

/// One scripted step against the queue.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit a fresh job id.
    Submit,
    /// Dispatch the queue head and complete it.
    RunOne,
    /// Cancel the `k`-th oldest job ever submitted (whatever its state).
    Cancel(usize),
}

fn decode(raw: usize) -> Op {
    match raw % 3 {
        0 => Op::Submit,
        1 => Op::RunOne,
        _ => Op::Cancel(raw / 3),
    }
}

proptest! {
    #[test]
    fn prop_no_loss_no_double_run_fifo_and_depth(
        raw_ops in proptest::collection::vec(0usize..64, 0..128),
        bound in 1usize..6,
    ) {
        let mut q = AdmissionQueue::new(bound);
        let mut table = JobTable::new();
        let mut stats = ServiceStats::default();

        let mut now = 0u64;
        let mut rejects = 0u64;
        let mut submitted: Vec<u64> = Vec::new();      // accepted, in order
        let mut model_queue: Vec<u64> = Vec::new();    // expected FIFO
        let mut dispatched: HashSet<u64> = HashSet::new();
        let mut cancelled: HashSet<u64> = HashSet::new();

        for &raw in &raw_ops {
            match decode(raw) {
                Op::Submit => {
                    now += 1;
                    // The id admission assigns next; a bounced submission
                    // never gets a record, as in the server.
                    let id = table.len() as u64 + 1;
                    match q.submit(id) {
                        Admission::Accepted => {
                            prop_assert!(model_queue.len() < bound,
                                "accepted above the bound");
                            prop_assert_eq!(
                                table.admit(String::new(), None, false, now, &mut stats), id);
                            submitted.push(id);
                            model_queue.push(id);
                        }
                        Admission::Rejected => {
                            prop_assert_eq!(model_queue.len(), bound,
                                "rejected below the bound");
                            stats.rejects += 1;
                            rejects += 1;
                        }
                    }
                }
                Op::RunOne => {
                    let got = q.pop();
                    if model_queue.is_empty() {
                        prop_assert_eq!(got, None);
                    } else {
                        let expect = model_queue.remove(0);
                        prop_assert_eq!(got, Some(expect), "dispatch must be FIFO");
                        prop_assert!(dispatched.insert(expect), "a job ran twice");
                        prop_assert!(!cancelled.contains(&expect),
                            "a cancelled job was dispatched");
                        let job = table.get_mut(expect).expect("admitted jobs are in the table");
                        prop_assert_eq!(job.state(), "queued", "dispatched a job twice");
                        now += 1;
                        job.enter(JobPhase::Dispatched, now, &mut stats);
                        job.enter(JobPhase::Completed, now, &mut stats);
                    }
                }
                Op::Cancel(k) => {
                    if submitted.is_empty() { continue; }
                    let id = submitted[k % submitted.len()];
                    let was_queued = model_queue.iter().position(|&x| x == id);
                    let removed = q.cancel(id);
                    match was_queued {
                        Some(pos) => {
                            prop_assert!(removed, "queued jobs must be cancellable");
                            model_queue.remove(pos);
                            cancelled.insert(id);
                            let job = table.get_mut(id).expect("admitted jobs are in the table");
                            job.enter(JobPhase::Cancelled, now, &mut stats);
                        }
                        None => prop_assert!(!removed,
                            "cancel invented a job that was not queued"),
                    }
                }
            }
            // Depth accounting holds after every single step.
            prop_assert_eq!(q.depth(), model_queue.len());
            prop_assert_eq!(
                q.depth() as u64,
                submitted.len() as u64
                    - dispatched.len() as u64
                    - cancelled.len() as u64,
                "depth != admissions - dispatches - cancellations"
            );
            prop_assert_eq!(stats.in_system(), q.depth() as u64,
                "in_system must equal queued (+0 running in this model)");
            prop_assert_eq!(&table.ids_in_state("queued"), &model_queue,
                "the table's queued jobs drifted from the queue");
            let ids: Vec<u64> = q.ids().collect();
            prop_assert_eq!(&ids, &model_queue, "queue order drifted from FIFO");
        }

        // End state: every accepted job is exactly one of queued,
        // dispatched, or cancelled — nothing lost, nothing duplicated.
        for &id in &submitted {
            let places = [
                model_queue.contains(&id),
                dispatched.contains(&id),
                cancelled.contains(&id),
            ];
            prop_assert_eq!(places.iter().filter(|&&p| p).count(), 1,
                "job {} is in {} places", id, places.iter().filter(|&&p| p).count());
        }
        prop_assert_eq!(stats.finished(),
            dispatched.len() as u64 + cancelled.len() as u64);
        prop_assert_eq!(stats.dispatches(), dispatched.len() as u64);
        prop_assert_eq!(stats.submissions(), submitted.len() as u64 + rejects);
    }

    /// The backpressure contract in isolation: once the queue is full,
    /// every further submission is rejected until something is popped.
    #[test]
    fn prop_bound_is_exact(bound in 1usize..8, extra in 0usize..16) {
        let mut q = AdmissionQueue::new(bound);
        for i in 0..bound {
            prop_assert_eq!(q.submit(i as u64), Admission::Accepted);
        }
        for i in 0..extra {
            prop_assert_eq!(q.submit((bound + i) as u64), Admission::Rejected);
        }
        prop_assert_eq!(q.depth(), bound);
        q.pop();
        prop_assert_eq!(q.submit(999), Admission::Accepted);
        prop_assert_eq!(q.depth(), bound);
    }
}
